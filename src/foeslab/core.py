"""Finite outcome spaces and exact log-domain enumeration.

A FOES model (Finite Outcome, Everywhere Supported) assigns strictly
positive probability to every point of a finite product space X^N. This
module provides the space abstraction with its index encoding, the model
wrapper holding an unnormalized log-probability score, stable log-sum-exp
normalization, the independent-replication product construction, and the
CSV rule every command's output follows. All probability arithmetic is
done on the natural-log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

# Hard cap on the number of outcomes any operation will enumerate.
# Exceeding it raises BudgetExceededError; there is no silent truncation.
DEFAULT_ENUMERATION_BUDGET = 2**24

# Largest chunk OutcomeSpace.tabulate hands to its function at once.
_CHUNK_OUTCOMES = 2**16


class FoeslabError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(FoeslabError):
    """The outcome count of a requested enumeration exceeds the budget."""


class UniformModelError(FoeslabError):
    """An operation needing a non-uniform model got a uniform one."""


class CertificateError(FoeslabError):
    """A computed quantity violates an inequality proven to hold for it."""


def _philox_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """Philox streams keyed by (seed mod 2^64, index), from one generator.

    ``stream(index)`` resets a single Philox bit generator to that key,
    with counter 0 and an empty buffer, and returns the same Generator
    object every time. The stream it yields is bit for bit that of a
    freshly built Philox with the same key, at a fraction of the cost.
    Each call therefore invalidates the generator the previous call
    returned.

    Every random draw in the package comes from here, so a negative or
    oversized seed wraps the same way everywhere.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key)
    generator = np.random.Generator(bit_generator)
    zeros = np.zeros(4, dtype=np.uint64)
    # the state of a fresh Philox: counter 0 and an empty output buffer
    state = {"bit_generator": "Philox",
             "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def stream(index: int) -> np.random.Generator:
        key[1] = index
        bit_generator.state = state
        return generator

    return stream


def _philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed mod 2^64, stream); see _philox_streams."""
    return _philox_streams(seed)(stream)


# numpy's pairwise sum adds runs of at most this many terms without a split
_PAIRWISE_BLOCK = 128


def _pairwise_sum(leaf_sum: Callable[[int, int], float], n: int, start: int = 0) -> float:
    """numpy's pairwise sum of n terms, formed one leaf at a time.

    ``leaf_sum(a, b)`` must return ``np.sum`` of the terms a to b - 1 in a
    fresh contiguous array. Leaves hold at most ``_CHUNK_OUTCOMES`` terms
    (at least ``_PAIRWISE_BLOCK``, below which numpy does not split) and are
    combined by numpy's split rule: halve n and round the split down to a
    multiple of 8. So the result is bit for bit ``np.sum`` of all n terms
    in one contiguous float64 array, while only one leaf's terms exist at
    a time.
    """
    if n <= max(_CHUNK_OUTCOMES, _PAIRWISE_BLOCK):
        return leaf_sum(start, start + n)
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(leaf_sum, half, start)
            + _pairwise_sum(leaf_sum, n - half, start + half))


def log_sum_exp(values) -> float:
    """Return log(sum(exp(values))) with the max-subtraction trick.

    Exact for singletons; never overflows for finite inputs. An input
    whose maximum is -inf or +inf gives that infinity, and one holding a
    NaN gives NaN. The exponentials are formed and summed one chunk at a
    time (see ``_pairwise_sum``). Raises ValueError on an empty input.
    """
    arr = np.ravel(np.asarray(values, dtype=np.float64), order="K")
    if arr.size == 0:
        raise ValueError("log_sum_exp of an empty collection")
    m = float(arr.max())
    if not math.isfinite(m):
        return m
    total = _pairwise_sum(lambda a, b: np.exp(arr[a:b] - m).sum(), arr.size)
    return m + float(np.log(total))


@dataclass(frozen=True)
class OutcomeSpace:
    """Product space X^N with a fixed index <-> outcome-vector bijection.

    ``alphabet`` holds the per-variable symbol values (uniform across
    variables), e.g. (0, 1), (-1, 1) or (1, 2, 3). Outcome index i in
    [0, |X|^N) maps to digits in little-endian mixed-radix order: variable 0
    is the least significant digit.
    """

    n_variables: int
    alphabet: tuple

    def __post_init__(self):
        if self.n_variables < 1:
            raise ValueError("n_variables must be >= 1")
        if len(self.alphabet) < 1:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")

    @property
    def alphabet_size(self) -> int:
        return len(self.alphabet)

    @property
    def n_outcomes(self) -> int:
        return self.alphabet_size**self.n_variables

    def check_budget(self, budget: int = DEFAULT_ENUMERATION_BUDGET) -> None:
        if self.n_outcomes > budget:
            raise BudgetExceededError(
                f"{self.alphabet_size}^{self.n_variables} = {self.n_outcomes} "
                f"outcomes exceed the enumeration budget {budget}"
            )

    def decode(self, index: int) -> np.ndarray:
        """Outcome vector (symbol values) for an outcome index."""
        if not 0 <= index < self.n_outcomes:
            raise ValueError(f"index {index} out of range [0, {self.n_outcomes})")
        k = self.alphabet_size
        digits = np.empty(self.n_variables, dtype=np.int64)
        for i in range(self.n_variables):
            digits[i] = index % k
            index //= k
        return np.asarray(self.alphabet, dtype=np.int64)[digits]

    def encode(self, outcome: Sequence) -> int:
        """Outcome index for a vector of symbol values."""
        outcome = np.asarray(outcome)
        if outcome.shape != (self.n_variables,):
            raise ValueError(f"outcome must have shape ({self.n_variables},)")
        lookup = {sym: d for d, sym in enumerate(self.alphabet)}
        index = 0
        k = self.alphabet_size
        for i in range(self.n_variables - 1, -1, -1):
            sym = outcome[i]  # by value: 1.0 is the symbol 1, 1.5 is no symbol
            if sym not in lookup:
                raise ValueError(f"symbol {sym} not in alphabet {self.alphabet}")
            index = index * k + lookup[sym]
        return index

    def all_outcomes(self, budget: int = DEFAULT_ENUMERATION_BUDGET) -> np.ndarray:
        """Dense (n_outcomes, n_variables) matrix of all outcome vectors.

        Built one variable column at a time, each by broadcasting the
        alphabet over the matrix viewed so that the column's digit is an
        axis of its own; the symbol dtype is int8 whenever the alphabet
        fits. The matrix is n_outcomes * n_variables bytes (384 MB for 24
        variables at the budget cap), and a scorer's float64 copy is 8 times
        that, so callers that need only a value per outcome use ``tabulate``
        instead. The callers that keep rows are ``tabulate`` and the graph
        model's statistic chunks, each for its low block.
        """
        self.check_budget(budget)
        k = self.alphabet_size
        alpha = np.asarray(self.alphabet)
        if alpha.min() >= np.iinfo(np.int8).min and alpha.max() <= np.iinfo(np.int8).max:
            alpha = alpha.astype(np.int8)
        out = np.empty((self.n_outcomes, self.n_variables), dtype=alpha.dtype)
        for i in range(self.n_variables):
            # digit i of the little-endian index is axis 1 of this view
            out.reshape(-1, k, k**i, self.n_variables)[:, :, :, i] = alpha[:, None]
        return out

    def tabulate(self, fn: Callable[[np.ndarray], np.ndarray],
                 budget: int = DEFAULT_ENUMERATION_BUDGET) -> np.ndarray:
        """``fn``'s values for every outcome, in index order, built chunk by chunk.

        ``fn`` maps an (m, n_variables) outcome array to an array with m
        rows. The low m digits, with k^m the largest power of the alphabet
        size that fits in a chunk, are enumerated once; each chunk is that
        block with the remaining digits held constant, so it covers one
        aligned run of k^m indices. ``fn`` gets the same array for every
        chunk, refilled. Peak memory is the table plus one chunk. The table
        keeps the shape and memory layout of ``fn``'s output, so later
        matrix products round as on a dense table.
        """
        self.check_budget(budget)
        m = _chunk_digits(self.n_variables, self.alphabet_size)
        low = OutcomeSpace(m, self.alphabet).all_outcomes(budget)
        return _fill_table(_aligned_blocks(low, self.n_variables, self.alphabet), fn,
                           self.n_outcomes)


def _fill_table(chunks, fn: Callable[[np.ndarray], np.ndarray], n_outcomes: int) -> np.ndarray:
    """``fn``'s values of each (first index, chunk) of ``chunks``, placed in
    one table of n_outcomes rows with the shape and memory layout of
    ``fn``'s output; ``fn`` must return one row per chunk row."""
    table = None
    for start, chunk in chunks:
        rows = len(chunk)
        out = np.asarray(fn(chunk))
        if out.shape[:1] != (rows,):
            raise ValueError(f"score_fn returned shape {out.shape} "
                             f"for a chunk of {rows} outcomes")
        if table is None:
            table = np.empty_like(out, shape=(n_outcomes, *out.shape[1:]))
        table[start:start + rows] = out
    return table


def _chunks(n: int):
    """Slices that cut [0, n) into runs of the largest power of two within
    ``_CHUNK_OUTCOMES``, in order: ``_chunks(2**n)`` gives aligned runs of {-1,+1}^n."""
    step = 1 << (_CHUNK_OUTCOMES.bit_length() - 1)
    return (slice(a, min(a + step, n)) for a in range(0, n, step))


def _chunk_digits(n_variables: int, k: int) -> int:
    """Low digits a chunk varies: the most, from 1 to n_variables, whose
    k^digits outcomes fit in ``_CHUNK_OUTCOMES``."""
    m = 1
    while m < n_variables and k ** (m + 1) <= _CHUNK_OUTCOMES:
        m += 1
    return m


def _aligned_blocks(low: np.ndarray, n_variables: int, alphabet):
    """(first index, outcome rows) of the n-variable space, block by block.

    ``low`` enumerates the low digits. A block varies as many of them as
    ``low`` has columns, or all n_variables when fewer, and holds the
    digits above those fixed, so it covers one aligned run of indices. One
    array is reused from block to block.
    """
    k = len(alphabet)
    m = min(n_variables, low.shape[1])
    rows = k**m
    block = np.empty((rows, n_variables), dtype=low.dtype)
    block[:, :m] = low[:rows, :m]
    symbols = np.asarray(alphabet)
    powers = k ** np.arange(n_variables - m)
    for c in range(k ** (n_variables - m)):
        block[:, m:] = symbols[c // powers % k]
        yield c * rows, block


def _gamma(m: int) -> Fraction:
    """Higham's gamma_m = m*u / (1 - m*u) for float64, u = 2^-53, exactly.

    Rounding to nearest gives fl(a op b) = (a op b)(1 + delta) with
    |delta| <= u. A product of m such factors (1 + delta_k)^(+-1) is
    1 + theta with |theta| <= gamma_m (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., 2002, Lemma 3.1). So a sum whose every
    term passes through at most m additions is off by at most gamma_m times
    the sum of the terms' magnitudes, in any order of addition (ch. 4).
    """
    if not 0 <= m < 2**53:
        raise ValueError(f"gamma_m needs 0 <= m < 2^53, got {m}")
    return Fraction(m, 2**53 - m)


def _float_above(value: Fraction) -> float:
    """The smallest float64 at or above the rational ``value`` (+inf past
    the largest float): a bound found in exact rationals stays one."""
    try:
        nearest = float(value)  # correctly rounded
    except OverflowError:
        return math.inf
    return nearest if Fraction(nearest) >= value else math.nextafter(nearest, math.inf)


def _signed_sums(base, weights, out: np.ndarray) -> np.ndarray:
    """Fill ``out[r] = base + sum_i s_i(r) * weights[i]`` and return it.

    r runs over the little-endian {-1,+1}^n index, n = len(weights), so
    s_i(r) is -1 where bit i of r is 0 and +1 where it is 1. Built by
    doubling: level i writes rows [2^i, 2^(i+1)) as rows [0, 2^i) plus
    weights[i], then subtracts weights[i] from rows [0, 2^i) in place.
    Every row is thus summed in variable order 0, 1, ..., starting from
    ``base``, bit for bit; a trailing shape (draws, columns) is elementwise.
    """
    if len(out) != 2 ** len(weights):
        raise ValueError(f"{len(out)} rows for {len(weights)} signed weights")
    out[0] = base
    for i, w in enumerate(weights):
        run = 2**i
        np.add(out[:run], w, out=out[run:2 * run])
        out[:run] -= w
    return out


def _one_flip_shape(n_variables: int, k: int, i: int) -> tuple[int, int, int]:
    """Reshape of an index-ordered table that isolates variable i.

    Variable i is digit i of the little-endian index (stride k^i), so under
    this shape axis 1 runs over the k outcomes that differ only at i.
    """
    return (k ** (n_variables - 1 - i), k, k**i)


def _flip_views(block: np.ndarray, m: int, k: int, upper: int, spread: np.ndarray) -> list:
    """(a, b, out) views for one-flip scans of the upper digits of a block of
    k^m rows: for each such digit i, the rows where digit i is j and where
    it is j' < j, pairs of runs of k^i rows a stride k^i apart, and
    ``spread`` shaped like them."""
    views = []
    for i in range(m - upper, m):
        flip = block.reshape(*_one_flip_shape(m, k, i), -1)
        out = spread.reshape(flip[:, 0].shape)
        views += [(flip[:, j], flip[:, jp], out) for j in range(1, k) for jp in range(j)]
    return views


def _line_aligned(n: int) -> np.ndarray:
    """np.empty(n) starting on a 64-byte cache line; off one, one-flip scans ran 10-25% slower."""
    raw = np.empty(n + 7)
    return raw[-raw.ctypes.data % 64 // 8:][:n]


def _one_flip_range(table: np.ndarray, n_variables: int, k: int) -> np.ndarray:
    """Largest spread among outcomes one flip apart; a trailing axis holds draws.

    Every scan reads a block of k^m outcome rows (m = ``_chunk_digits``)
    that sits in cache, with the flipped digit an outer axis over runs of at
    least k^(m//2) (outcome, draw) entries. A block is an aligned piece of
    the table or one reused buffer. A piece scans as stored the digits whose
    runs are that long, and its lower digits on a transposed copy, where
    they are the upper ones: m//2 digits for a 1-D table, none for
    figure1's blocks of draws. The digits above a piece go in groups of at
    most m minus the transposed count. A slab, copied out of the table once,
    holds every value of a group's digits (its upper digits) times a run of
    low rows. So the table is read from memory once for the pieces and once
    per group: twice at the 2^24 cap. The buffer's scan views are built once
    per scanned digit count; each scan's maximum goes into one row of a
    table of maxima, which is folded at the end.
    """
    draws = table.shape[1:]
    rows = table.reshape(table.shape[0], -1)
    m, width = _chunk_digits(n_variables, k), rows.shape[1]
    half = sum(k**i * width < k ** (m // 2) for i in range(m // 2))
    # transposed pieces and slabs share one buffer; a table of one piece
    # whose runs are all long (figure1's blocks of draws) needs neither
    copy = _line_aligned(k**m * width if half or m < n_variables else 0)
    spread = _line_aligned(k ** (m - 1) * width)
    # every outcome digit is scanned once per piece's worth of rows, for
    # each of the k(k - 1)/2 pairs of its values
    peaks = np.empty((k ** (n_variables - m) * n_variables * (k * (k - 1) // 2), width))
    plans, scans = {}, iter(peaks)

    def scan(views: list) -> None:
        # the largest pairwise |difference| is max - min exactly: rounding
        # is monotone and fl(a - b) = -fl(b - a)
        for a, b, out in views:
            np.subtract(a, b, out=out)
            np.abs(out, out=out)
            np.maximum.reduce(out, axis=(0, 1), out=next(scans))

    def copy_views(upper: int) -> list:
        if upper not in plans:
            plans[upper] = _flip_views(copy, m, k, upper, spread)
        return plans[upper]

    for start in range(0, len(rows), k**m):
        part = rows[start:start + k**m]
        scan(_flip_views(part, m, k, m - half, spread))
        if half:
            np.copyto(copy.reshape(k**half, -1, width),
                      part.reshape(-1, k**half, width).transpose(1, 0, 2))
            scan(copy_views(half))
    for low in range(m, n_variables, m - half):
        upper = min(m - half, n_variables - low)
        run = k ** (m - upper)
        slab = copy.reshape(k**upper, run, width)
        for group in rows.reshape(-1, k**upper, k**low, width):
            for start in range(0, k**low, run):
                np.copyto(slab, group[:, start:start + run])
                scan(copy_views(upper))
    return np.maximum.reduce(peaks, axis=0, initial=0.0).reshape(draws)


def _batches(lines: np.ndarray, picked: np.ndarray):
    """(indices, lines) of the rows ``picked`` of ``lines``, in order, in
    batches of at most a chunk of entries and one row at least: consecutive
    rows are read in place, others gathered."""
    per = max(1, _CHUNK_OUTCOMES // lines.shape[1])
    for b in range(0, len(picked), per):
        batch = picked[b:b + per]
        consecutive = batch[-1] - batch[0] == len(batch) - 1
        yield batch, lines[batch[0]:batch[-1] + 1] if consecutive else lines[batch]


def _flip_spreads(lines: np.ndarray, digit: int) -> np.ndarray:
    """Each line's largest |difference| of two entries whose positions differ
    only in binary digit ``digit``, found half a chunk of pairs at a time."""
    size, width = lines.shape
    if not size:  # a row past a grid, read in place, is an empty slice
        raise ValueError("no lines to read")
    pairs = lines.reshape(size, *_one_flip_shape(width.bit_length() - 1, 2, digit))
    groups, _, run = pairs.shape[1:]
    run_step = min(run, max(1, _CHUNK_OUTCOMES // 2 // size))
    group_step = min(groups, max(1, _CHUNK_OUTCOMES // 2 // (size * run_step)))
    buffer, spreads = np.empty((size, group_step, run_step)), np.zeros(size)
    for g in range(0, groups, group_step):
        for r in range(0, run, run_step):
            piece = pairs[:, g:g + group_step, :, r:r + run_step]
            diff = np.subtract(piece[:, :, 1], piece[:, :, 0],
                               out=buffer[:, :piece.shape[1], :piece.shape[3]])
            np.maximum(spreads, np.abs(diff, out=diff).max(axis=(1, 2)), out=spreads)
    return spreads


class FoesModel:
    """A FOES model: an outcome space plus an unnormalized log score.

    ``score_fn`` maps an (m, n_variables) array of outcome vectors to an
    (m,) float64 array of unnormalized log-probabilities, finite everywhere.
    The score table (with its argmax and argmin) and the log-normalizer
    are computed lazily on first use and cached; no table of normalized
    log-probabilities is kept. Instances are otherwise immutable, so they
    are safe to share between threads.
    """

    def __init__(
        self,
        space: OutcomeSpace,
        score_fn: Callable[[np.ndarray], np.ndarray],
        family: str = "custom",
        budget: int = DEFAULT_ENUMERATION_BUDGET,
    ):
        self.space = space
        self.score_fn = score_fn
        self.family = family
        self.budget = budget
        self._scores = None
        self._extremes = None
        self._log_normalizer = None

    @property
    def n_variables(self) -> int:
        return self.space.n_variables

    def score(self, outcomes) -> np.ndarray:
        """Unnormalized log-probability of one outcome or a batch of them."""
        arr = np.asarray(outcomes)
        if arr.shape[-1] != self.space.n_variables:
            raise ValueError(
                f"outcome width {arr.shape[-1]} != {self.space.n_variables}")
        if arr.ndim == 1:
            return np.asarray(self.score_fn(arr[None, :]), dtype=np.float64)[0]
        return np.asarray(self.score_fn(arr), dtype=np.float64)

    def scores(self) -> np.ndarray:
        """Unnormalized log-probabilities of all outcomes, in index order.

        The argmax and argmin are found with the table, the lowest index on
        ties, by ``_find_extremes``.
        """
        if self._scores is None:
            scores = np.asarray(self._score_table(), dtype=np.float64)
            if scores.shape != (self.space.n_outcomes,):
                raise ValueError(
                    f"score_fn returned shape {scores.shape}, "
                    f"expected ({self.space.n_outcomes},)"
                )
            self._extremes = self._find_extremes(scores)
            self._scores = scores
        return self._scores

    def extreme_indices(self) -> tuple[int, int]:
        """(argmax, argmin) of ``scores()``, lowest index on ties; found
        once, with the table."""
        self.scores()
        return self._extremes

    def _score_table(self) -> np.ndarray:
        # unchecked scores of every outcome; scores() validates and caches
        return self.space.tabulate(self.score_fn, self.budget)

    def _find_extremes(self, table: np.ndarray) -> tuple[int, int]:
        """(argmax, argmin) of the built table: one full argmax and argmin,
        ValueError unless both are finite. A model whose closed form bounds
        its table may read less."""
        # the first NaN or +inf is the argmax, the first -inf the argmin
        imax, imin = int(np.argmax(table)), int(np.argmin(table))
        if not (np.isfinite(table[imax]) and np.isfinite(table[imin])):
            raise ValueError(_NOT_FINITE)
        return imax, imin

    def _one_flip_max(self) -> float:
        """delta_N, the largest spread of ``scores()`` over outcomes one flip
        apart: the full scan (``_one_flip_range``). A model that can prove
        where the largest spread lies may read less, bit for bit the same."""
        return float(_one_flip_range(self.scores(), self.n_variables, self.space.alphabet_size))

    @property
    def log_normalizer(self) -> float:
        """log Z: ``log_sum_exp`` of the score table, found on first use."""
        if self._log_normalizer is None:
            self._log_normalizer = log_sum_exp(self.scores())
        return self._log_normalizer

    def log_probs(self) -> np.ndarray:
        """Normalized log-probabilities of all outcomes, in index order.

        Allocates a fresh table the size of ``scores()`` on every call. No
        code in this package calls it: each reduction forms
        fl(s - log Z) one chunk at a time, or only at the indices it
        needs, with the same bits as this table's entries.
        """
        return self.scores() - self.log_normalizer

    def log_prob(self, outcome) -> float:
        """Normalized log-probability of a single outcome vector: its entry
        of ``log_probs()``, bit for bit."""
        return float(self.scores()[self.space.encode(outcome)] - self.log_normalizer)


_NOT_FINITE = ("model has a non-finite log-probability; "
               "FOES models must support every outcome")


def _check_finite(scores: np.ndarray) -> np.ndarray:
    """Return ``scores`` unchanged; raise ValueError if any is not finite."""
    if not np.all(np.isfinite(scores)):
        raise ValueError(_NOT_FINITE)
    return scores


def replicate(model: FoesModel, m: int) -> FoesModel:
    """Product model for m independent replications of ``model``.

    The log-probability of a concatenated outcome is the sum of the base
    model's scores of its m blocks (accumulated in block order, so results
    are reproducible bit for bit).
    """
    if m < 1:
        raise ValueError("replication count must be >= 1")
    base_n = model.space.n_variables
    space = OutcomeSpace(base_n * m, model.space.alphabet)
    space.check_budget(model.budget)

    def score_fn(outcomes: np.ndarray) -> np.ndarray:
        total = model.score_fn(outcomes[:, :base_n])
        total = np.asarray(total, dtype=np.float64).copy()
        for b in range(1, m):
            total += model.score_fn(outcomes[:, b * base_n:(b + 1) * base_n])
        return total

    family = model.family if m == 1 else f"{model.family}x{m}"
    return FoesModel(space, score_fn, family=family, budget=model.budget)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        # plain-float repr is shortest round-trip; numpy scalars repr as
        # np.float64(...) and must be unwrapped first
        return repr(float(value))
    return str(value)


def _csv(rows: list[dict], comments: list[str] = ()) -> str:
    """CSV text: '# ' comment lines, the first row's keys, one line per row."""
    columns = list(rows[0])
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
