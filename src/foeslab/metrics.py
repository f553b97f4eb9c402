"""Instability and degeneracy diagnostics, computed exactly by enumeration.

The central quantity is the log-ratio of extremal probabilities (LREP),
log[max_x P(x) / min_x P(x)]; a model sequence whose LREP grows faster
than the variable count N is the unstable regime every diagnostic here
probes. The module also computes the largest single-flip log-ratio, modal
sets and their mass, standardized log-probabilities, a stability bound for
fixed-dimension linear families, a closed-form lower bound for graph
models, and a finite-N trend classifier for parameter paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (CertificateError, FoesModel, UniformModelError, _batches, _check_finite,
                   _chunk_digits, _chunks, _flip_spreads, _float_above, _gamma,
                   _one_flip_shape, _pairwise_sum)
from .zoo import GraphModelSpec, LinearExpFamily, graph_statistics

# Outcomes whose log-probability falls within this distance below a modal
# threshold still count as members, or within the threshold's rounding
# slack where that is larger (``modal_tie_tol``). Keeps exact ties (which
# arise for integer-valued statistics at round parameter values)
# deterministic instead of letting the last float ulp decide membership.
MODAL_TIE_TOL = 1e-9


def modal_tie_tol(top: float, bottom: float) -> float:
    """The tie tolerance of a modal threshold between the log-probabilities
    ``top`` = fl(s_max - log Z) and ``bottom`` = fl(s_min - log Z):
    max(MODAL_TIE_TOL, gamma_8 M) with M = max(|top|, |bottom|), rounded up.

    An outcome whose score s ties the threshold in exact arithmetic,
    s - L = T = (1 - eps)(s_max - L) + eps (s_min - L) for the stored
    scores, L = log Z and eps, is a member. Its fl(s - L) is within u M' of
    s - L, with M' = max(|s_max - L|, |s_min - L|) >= |s - L|; the computed
    threshold, fl(1 - eps), two products, two differences and a sum, is
    within gamma_4 M' of T (Higham 2002, Lemma 3.1; ``core._gamma``); and
    M' <= (1 + gamma_1) M. So fl(s - L) >= T_hat - gamma_6 M. The cut
    fl(T_hat - t) is at most T_hat - t (1 - u) + u (1 + gamma_3) M, below
    T_hat - gamma_6 M once t >= gamma_8 M. Past |log P| of about 1e6 the
    1e-9 floor is smaller than that: at 1e7 it is below an ulp of the
    threshold, and a tied level could fall out as log Z rounded.
    """
    magnitude = max(abs(float(top)), abs(float(bottom)))
    return max(MODAL_TIE_TOL, _float_above(_gamma(8) * Fraction(magnitude)))


@dataclass(frozen=True)
class InstabilityReport:
    """LREP diagnostics for one model instance.

    ``lrep`` is always >= 0, with equality exactly for uniform models.
    ``delta_n`` (the largest one-flip log-ratio) is filled by
    ``instability_report``; ``lrep`` alone leaves it None. Argmax/argmin
    ties break toward the lowest outcome index.
    """

    lrep: float
    scaled_lrep: float
    n_variables: int
    argmax_index: int
    argmin_index: int
    argmax_outcome: tuple
    argmin_outcome: tuple
    delta_n: float | None = None


def _extremal_range(table: np.ndarray) -> np.ndarray:
    """max - min over the outcome axis 0; a trailing axis holds draws."""
    return table.max(axis=0) - table.min(axis=0)


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


def _score_range(model: FoesModel) -> tuple[np.ndarray, float, float]:
    """Score table with its min and max, which a uniform model leaves equal."""
    scores = model.scores()
    imax, imin = model.extreme_indices()
    lo, hi = float(scores[imin]), float(scores[imax])
    if hi == lo:
        raise UniformModelError("standardized log-probability needs a "
                                "non-uniform model (zero denominator)")
    return scores, lo, hi


def lrep(model: FoesModel) -> InstabilityReport:
    """Log-ratio of extremal probabilities, from full enumeration.

    Computed on unnormalized scores; the normalizer cancels in the ratio,
    taken as the difference of the argmax and argmin entries.
    """
    scores = model.scores()
    imax, imin = model.extreme_indices()
    value = float(scores[imax] - scores[imin])
    n = model.n_variables
    return InstabilityReport(
        lrep=value,
        scaled_lrep=value / n,
        n_variables=n,
        argmax_index=imax,
        argmin_index=imin,
        argmax_outcome=tuple(int(v) for v in model.space.decode(imax)),
        argmin_outcome=tuple(int(v) for v in model.space.decode(imin)),
    )


def delta_n(model: FoesModel) -> float:
    """Largest log-probability ratio over outcome pairs one flip apart.

    Scans the ordered pairs differing in exactly one component; by pair
    symmetry the maximum signed log-ratio equals the maximum absolute one.
    Zero exactly for uniform models.

    A model with an ``envelope`` (the joint RBM) is read by the pieces its
    bounds cover: one digit's flips in one row or one column of its grid,
    or in the whole grid where a side is bounded per digit
    (``_flip_sides``). Every one-flip pair lies in exactly one piece. The
    piece of largest bound is read first, which gives a spread L; then,
    digit by digit, only the pieces whose bound exceeds L - slack, L the
    largest spread read so far, since no other can exceed L. No piece is
    read twice, and a float maximum does not depend on the order it is
    taken in, so the result is the full scan's bit for bit. At the 14 + 10
    cap it reads one digit of one column (2^9 pairs) on the seeds tried, in
    well under a millisecond, against about 0.3 s for the full scan of the
    2^24 table; where every row ties in a digit (W = 0) it reads that digit
    once over the table.

    A binary model whose table is ``exchangeable`` (a graph model's
    table gathered by its count keys) is read in its top digit alone, two
    contiguous halves (``core._flip_spreads``). Let sigma relabel the
    nodes. It permutes the edges, sending edge e to sigma(e) and graph x to
    sigma(x), and keeps every count: g(sigma(x)) = g(x). It maps the pairs
    (x, x with e flipped) one to one onto the pairs (sigma(x), sigma(x) with
    sigma(e) flipped), so edges e and sigma(e) have the same multiset of
    (g(x), g(x with the edge flipped)) pairs. A gather's entries depend on
    g alone, so the two digits have the same multiset of score pairs, and of
    spreads fl(|a - b|). Relabelling takes any node pair to any other, so
    every digit's largest spread is the top digit's, and so is the full
    scan's maximum over all digits, bit for bit: 2^20 pairs at 7 nodes,
    about 1 ms against about 20 ms. Every other model takes the full scan.
    """
    table, n, k = model.scores(), model.n_variables, model.space.alphabet_size
    if k == 2 and model.exchangeable():
        return float(_flip_spreads(table.reshape(1, -1), n - 1)[0])
    envelope = model.envelope()
    if envelope is None:
        return float(_one_flip_range(table, n, k))
    sides, slack = _flip_sides(table, envelope), envelope.slack
    _, side, digit = max((bounds[d].max(), s, d) for s, (_, _, bounds) in enumerate(sides)
                         for d in range(len(bounds)))
    line = int(np.argmax(sides[side][2][digit]))
    reached = _read_flips(sides[side], digit, np.array([line]), slack)
    for s, (_, _, bounds) in enumerate(sides):
        for d, limits in enumerate(bounds):
            # a piece can beat L only if its bound exceeds L - slack, rounded down
            picked = limits > -_float_above(Fraction(slack) - Fraction(reached))
            if (s, d) == (side, digit):
                picked[line] = False
            if picked.any():
                reached = max(reached, _read_flips(sides[s], d, np.flatnonzero(picked), slack))
    return reached


def _flip_sides(table: np.ndarray, envelope) -> list:
    """(lines, first digit, bounds) for the rows and the columns of an
    envelope's grid: the grid's rows or columns, each with its bound per
    digit, or the whole table as one line, whose flips are those of its
    digits from the first digit on."""
    grid, whole = table.reshape(2**envelope.row_digits, -1), table.reshape(1, -1)
    rows, columns = envelope.row_flips, envelope.column_flips
    return [(grid, 0, rows) if rows.shape[1] == len(grid) else (whole, 0, rows),
            (grid.T, 0, columns) if columns.shape[1] == grid.shape[1]
            else (whole, envelope.column_digits, columns)]


def _read_flips(side: tuple, digit: int, picked: np.ndarray, slack: float) -> float:
    """Largest flip spread of ``digit`` over the lines ``picked`` of a side
    (``_flip_sides``), a batch of at most a chunk of entries at a time
    (``core._batches``). Each line's spread must lie within ``slack`` of its
    bound, or CertificateError is raised (code, not an ``assert``)."""
    lines, first, bounds = side
    spreads = np.concatenate([_flip_spreads(block, first + digit)
                              for _, block in _batches(lines, picked)])
    if not np.all(np.abs(spreads - bounds[digit, picked]) <= slack):
        raise CertificateError("a one-flip spread lies outside its certified envelope")
    return float(spreads.max())


def instability_report(model: FoesModel) -> InstabilityReport:
    """LREP report with the one-flip log-ratio filled in."""
    base = lrep(model)
    return InstabilityReport(**{**base.__dict__, "delta_n": delta_n(model)})


@dataclass(frozen=True)
class ModalSet:
    """Outcomes whose log-probability clears a convex max/min threshold.

    ``threshold`` is (1-epsilon) * max log P + epsilon * min log P;
    members are the outcomes above it, ties included: those within
    ``modal_tie_tol`` below it, MODAL_TIE_TOL or the threshold's rounding
    slack where that is larger, so an exactly tied level stays a member at
    any scale and a uniform model yields the full space. The argmax outcome
    is always a member and ``mass`` is the members' exact total probability.
    """

    epsilon: float
    threshold: float
    members: np.ndarray  # sorted outcome indices
    mass: float

    @property
    def n_members(self) -> int:
        return int(self.members.size)

    def contains(self, indices) -> np.ndarray:
        """Whether each outcome index is a member, by binary search in
        ``members`` (never empty: the argmax is a member)."""
        indices = np.asarray(indices)
        at = np.minimum(np.searchsorted(self.members, indices), self.members.size - 1)
        return self.members[at] == indices


def modal_set(model: FoesModel, epsilon: float) -> ModalSet:
    """Modal set of ``model`` at level ``epsilon`` in (0, 1).

    Log-probabilities are fl(score - log Z), formed one chunk at a time
    for the members and at the members alone for the mass, so no
    full-size table is made beyond the score table.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    scores, log_z = model.scores(), model.log_normalizer
    imax, imin = model.extreme_indices()
    top, bottom = scores[imax] - log_z, scores[imin] - log_z
    threshold = (1.0 - epsilon) * top + epsilon * bottom
    cut = threshold - modal_tie_tol(top, bottom)
    # count each chunk's members first, then fill one array: no second copy
    counts = [np.count_nonzero(scores[c] - log_z > cut) for c in _chunks(scores.size)]
    members, at = np.empty(sum(counts), dtype=np.intp), 0
    for c, k in zip(_chunks(scores.size), counts):
        members[at:at + k] = np.flatnonzero(scores[c] - log_z > cut) + c.start
        at += k
    mass = float(_pairwise_sum(lambda a, b: np.exp(scores[members[a:b]] - log_z).sum(),
                               members.size))
    return ModalSet(epsilon=epsilon, threshold=float(threshold),
                    members=members, mass=mass)


def standardized_log_prob(model: FoesModel, outcome) -> float:
    """Position of an outcome's log-probability within the model's range.

    Returns (log P(x) - min log P) / (max log P - min log P) in [0, 1]:
    1 at an argmax outcome, 0 at an argmin outcome. The score is the
    table entry at the outcome's index. Raises UniformModelError when the
    range is zero.
    """
    scores, lo, hi = _score_range(model)
    return float((scores[model.space.encode(outcome)] - lo) / (hi - lo))


def g_distance(model_a: FoesModel, model_b: FoesModel) -> float:
    """Max over outcomes of the standardized log-probability gap.

    Both models must be non-uniform and share the same outcome space.
    Symmetric, zero on identical models, and satisfies the triangle
    inequality (it is a sup-distance of [0,1]-valued profiles).
    """
    if (model_a.space.n_variables != model_b.space.n_variables
            or model_a.space.alphabet != model_b.space.alphabet):
        raise ValueError("models live on different outcome spaces")
    profiles = []
    for model in (model_a, model_b):
        scores, lo, hi = _score_range(model)
        profiles.append((scores - lo) / (hi - lo))
    return float(np.abs(profiles[0] - profiles[1]).max())


def check_prop1_condition(model: LinearExpFamily,
                          extremes: tuple[np.ndarray, np.ndarray] | None = None
                          ) -> float:
    """Stability-bound value max_i |theta_i| (U_i - L_i) / N.

    ``extremes`` are the per-statistic (max, min) vectors; computed by
    enumeration when omitted. A parameter path along which this value stays
    bounded yields a stable model sequence; compare it across path entries.
    """
    if extremes is None:
        extremes = model.statistic_extremes()
    u, l = (np.asarray(extremes[0], dtype=np.float64),
            np.asarray(extremes[1], dtype=np.float64))
    return float(np.max(np.abs(model.params) * (u - l)) / model.n_variables)


def _graph_bound_branches(spec: GraphModelSpec) -> tuple[float, float]:
    """Size-scaled |log P(x_i)/P(x_0)| for the complete graph (branch 1)
    and the balanced complete-bipartite graph (branch 2), x_0 = empty."""
    n = spec.n_nodes
    n_edges = spec.n_edges
    pairs = spec.edge_index
    half = set(range(n // 2))
    complete = np.ones(n_edges)
    bipartite = [1.0 if (a in half) != (b in half) else 0.0 for a, b in pairs]
    theta = np.asarray(spec.params, dtype=np.float64)
    g_complete, g_bipartite = graph_statistics(spec, np.array([complete, bipartite]))
    branch1 = abs(float(theta @ g_complete)) / n_edges
    branch2 = abs(float(theta @ g_bipartite)) / n_edges
    return branch1, branch2


def graph_lower_bound(spec: GraphModelSpec) -> float:
    """Closed-form lower bound on the size-scaled LREP of a graph model.

    For an even node count n, evaluating the score at the empty graph, the
    complete graph and the balanced complete-bipartite graph gives

        (n-2) * max{ |t2 + t3/3 + t1/(n-2)|,
                     n/(4(n-1)) * |t2 + 2*t1/(n-2)| }.

    Both branches are cross-checked against direct statistic evaluation at
    those three configurations (they agree to 1e-10 by construction; a
    disagreement raises CertificateError). The bound is positive whenever
    |t2| + |t3| > 0 except on a thin set, so it certifies instability for
    essentially all 2-star/triangle parameters.
    """
    n = spec.n_nodes
    if n % 2 != 0:
        raise ValueError("closed-form bound implemented for even node "
                         "counts only")
    t1, t2, t3 = spec.params
    branch1 = abs(t2 + t3 / 3.0 + t1 / (n - 2.0))
    branch2 = n / (4.0 * (n - 1.0)) * abs(t2 + 2.0 * t1 / (n - 2.0))
    closed1, closed2 = (n - 2.0) * branch1, (n - 2.0) * branch2
    direct1, direct2 = _graph_bound_branches(spec)
    _check_finite(np.array([closed1, closed2, direct1, direct2]))
    for closed, direct in ((closed1, direct1), (closed2, direct2)):
        if not abs(closed - direct) <= 1e-10 * max(1.0, direct):
            raise CertificateError(
                f"graph bound branch {closed!r} disagrees with direct "
                f"evaluation {direct!r}")
    return (n - 2.0) * max(branch1, branch2)


def _check_path_sizes(ns) -> None:
    """A path has at least 3 entries with strictly increasing sizes."""
    if len(ns) < 3:
        raise ValueError("a parameter path needs at least 3 entries")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("entry sizes must be strictly increasing")


@dataclass(frozen=True)
class ParameterPath:
    """A family of parameter vectors indexed by strictly increasing N.

    ``model_family`` builds the model for one entry: a callable taking
    (n_variables, params) and returning a FoesModel. ``entries`` holds
    (n_variables, params) pairs, at least three of them.
    """

    model_family: Callable[[int, np.ndarray], FoesModel]
    entries: tuple

    def __post_init__(self):
        _check_path_sizes([n for n, _ in self.entries])

    def models(self) -> list[FoesModel]:
        """One model per entry, built on the first call and shared after."""
        if "_models" not in self.__dict__:
            object.__setattr__(self, "_models", tuple(
                self.model_family(n, params) for n, params in self.entries))
        return list(self._models)


@dataclass(frozen=True)
class PathThresholds:
    """Heuristic cutoffs for the finite-N path verdict.

    ``flatness`` bounds the range of scaled LREP for a stable call;
    ``level`` is the last scaled LREP an increasing sequence must exceed
    for an unstable call.
    """

    flatness: float = 0.1
    level: float = 5.0

    def __post_init__(self):
        # a NaN cutoff fails every comparison and silently reads "inconclusive"
        if np.isnan((self.flatness, self.level)).any():
            raise ValueError("path thresholds flatness and level must not be NaN")


@dataclass(frozen=True)
class PathVerdict:
    """Scaled-LREP trajectory along a path plus a heuristic verdict.

    The verdict is a finite-N surrogate for an asymptotic property and is
    deterministic given the trajectory and thresholds: "empirically-unstable"
    for a strictly increasing trajectory ending above ``level``,
    "empirically-stable" when the trajectory's range stays below
    ``flatness``, otherwise "inconclusive".
    """

    ns: tuple
    scaled_lreps: tuple
    trend_slope: float
    verdict: str


def classify_path(path: ParameterPath,
                  thresholds: PathThresholds = PathThresholds()) -> PathVerdict:
    """Scaled LREP at each path entry plus the heuristic trend verdict."""
    return classify_trend([n for n, _ in path.entries],
                          [lrep(m).scaled_lrep for m in path.models()],
                          thresholds)


def classify_trend(ns, ys, thresholds: PathThresholds = PathThresholds()
                   ) -> PathVerdict:
    """Least-squares slope of ``ys`` against ``ns`` plus the path verdict."""
    narr = np.asarray(ns, dtype=np.float64)
    arr = np.asarray(ys, dtype=np.float64)
    slope = float(((narr - narr.mean()) * (arr - arr.mean())).sum()
                  / ((narr - narr.mean()) ** 2).sum())
    if np.all(np.diff(arr) > 0) and arr[-1] > thresholds.level:
        verdict = "empirically-unstable"
    elif arr.max() - arr.min() < thresholds.flatness:
        verdict = "empirically-stable"
    else:
        verdict = "inconclusive"
    return PathVerdict(ns=tuple(int(n) for n in ns),
                       scaled_lreps=tuple(float(y) for y in arr),
                       trend_slope=slope, verdict=verdict)
