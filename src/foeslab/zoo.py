"""Concrete FOES model constructors.

Covers linear exponential families (iid Bernoulli, iid multinomial, the
edge/2-star/triangle random-graph model), restricted Boltzmann machines
(joint and analytically-marginalized visible models on {-1,+1} variables),
and deep Boltzmann machines as the RBM between their even and odd layers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .core import (
    _CHUNK_OUTCOMES,
    DEFAULT_ENUMERATION_BUDGET,
    CertificateError,
    FoesModel,
    OutcomeSpace,
    _batches,
    _chunk_digits,
    _chunks,
    _flip_spreads,
    _float_above,
    _gamma,
    _signed_sums,
)

GRAPH_TERMS = ("edges", "two_stars", "triangles")


def _statistic_matrix(stat_fn, outcomes: np.ndarray, k: int) -> np.ndarray:
    """stat_fn's values as an (m, k) float64 matrix; other widths raise."""
    g = np.asarray(stat_fn(outcomes), dtype=np.float64)
    if g.ndim == 1:
        g = g[:, None]
    if g.shape[1] != k:
        raise ValueError(f"statistic dimension {g.shape[1]} != params length {k}")
    return g


class LinearExpFamily(FoesModel):
    """FOES model with score theta . g(x) for a statistic vector g.

    ``stat_fn`` maps an (m, n_variables) outcome array to an (m, k) matrix
    of sufficient-statistic values; ``params`` is the length-k coefficient
    vector (the natural parameter map is the identity; curved maps are not
    supported). Once the statistic table is enumerated, the full score
    table is that table times ``params``, with no second enumeration.
    ``at`` gives the family at other params with that table shared.
    """

    def __init__(
        self,
        space: OutcomeSpace,
        stat_fn: Callable[[np.ndarray], np.ndarray],
        params,
        family: str = "linear-exp",
        budget: int = DEFAULT_ENUMERATION_BUDGET,
    ):
        params = np.atleast_1d(np.asarray(params, dtype=np.float64))
        if params.ndim != 1 or params.size < 1:
            raise ValueError("params must be a nonempty vector")
        if not np.all(np.isfinite(params)):
            raise ValueError("params must be finite")
        self.stat_fn = stat_fn
        self.params = params
        # one slot for the statistic table, which models made by ``at`` share
        self._stat_slot = [None]
        # a lone model scores chunk by chunk until its table exists, so its
        # peak holds one score table, not k statistic columns
        self._scores_from_stats = False
        # (box, key chunks) of the space, given the budget, where a family
        # counts its statistics into integer keys faster than stat_fn on rows
        # (``_graph_keys``); None tabulates stat_fn. The space must be binary
        # and each key's statistic kept by a group of variable permutations,
        # transitive on the variables, for ``_one_flip_max`` to read one digit
        # of the table it gathers (``make_graph_model``)
        self._stat_keys = None
        self._gathered = False

        def score_fn(outcomes: np.ndarray) -> np.ndarray:
            return _statistic_matrix(stat_fn, outcomes, params.size) @ params

        super().__init__(space, score_fn, family=family, budget=budget)

    @property
    def n_params(self) -> int:
        return self.params.size

    def at(self, params) -> "LinearExpFamily":
        """This family at other ``params``, sharing this model's statistic table.

        Same space, statistic, family name and budget. The table is
        enumerated once, by whichever sharing model needs it first; scores
        are that table times ``params``, the bytes of a freshly built model.
        ``params`` must be finite and of this model's length (ValueError).
        """
        model = LinearExpFamily(self.space, self.stat_fn, params,
                                family=self.family, budget=self.budget)
        if model.n_params != self.n_params:
            raise ValueError(f"params must have length {self.n_params}, "
                             f"got {model.n_params}")
        model._stat_slot, model._stat_keys = self._stat_slot, self._stat_keys
        model._scores_from_stats = True
        return model

    def _score_table(self) -> np.ndarray:
        if self._stat_slot[0] is not None or self._scores_from_stats:
            return self.statistic_values() @ self.params
        if self._stat_keys is None:
            return super()._score_table()
        box, chunks = self._stat_keys(self.budget)
        k = self.space.alphabet_size
        rows = k ** _chunk_digits(self.n_variables, k)  # the rows of a key chunk
        box = _box_scores(box, self.params, rows)[None]  # each key's score, in place of its counts
        table = _gather(chunks, box, self.space.n_outcomes)
        self._gathered = True
        return table[:, 0]

    def _one_flip_max(self) -> float:
        """delta_N: the top digit's largest flip spread, two contiguous
        halves, where the score table was gathered by the family's keys
        (``make_graph_model`` proves every digit's is the same); else the
        full scan."""
        table = self.scores()
        if not self._gathered:
            return super()._one_flip_max()
        return float(_flip_spreads(table.reshape(1, -1), self.n_variables - 1)[0])

    def statistic_values(self) -> np.ndarray:
        """(n_outcomes, k) matrix of statistic values, enumerated and cached."""
        if self._stat_slot[0] is None:
            if self._stat_keys is None:
                table = self.space.tabulate(
                    lambda x: _statistic_matrix(self.stat_fn, x, self.params.size),
                    self.budget)
            else:
                box, chunks = self._stat_keys(self.budget)
                table = _gather(chunks, box, self.space.n_outcomes)
            self._stat_slot[0] = table
        return self._stat_slot[0]

    def statistic_extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-statistic (max, min) over the whole space, by enumeration."""
        g = self.statistic_values()
        return g.max(axis=0), g.min(axis=0)


def make_uniform(n: int, alphabet_size: int = 2,
                 budget: int = DEFAULT_ENUMERATION_BUDGET) -> FoesModel:
    """Equi-probability model on {0..alphabet_size-1}^n."""
    space = OutcomeSpace(n, tuple(range(alphabet_size)))
    return FoesModel(space, lambda x: np.zeros(x.shape[0]), family="uniform",
                     budget=budget)


def make_bernoulli(n: int, theta: float,
                   budget: int = DEFAULT_ENUMERATION_BUDGET) -> LinearExpFamily:
    """iid Bernoulli model on {0,1}^n with log-odds parameter theta.

    Score is theta * sum(x); the per-variable success probability is
    logistic(theta).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    space = OutcomeSpace(n, (0, 1))
    return LinearExpFamily(space, lambda x: x.sum(axis=1, dtype=np.float64),
                           [theta], family="bernoulli", budget=budget)


def make_multinomial(n: int, thetas,
                     budget: int = DEFAULT_ENUMERATION_BUDGET) -> LinearExpFamily:
    """iid multinomial model on {1..k}^n with one log-weight per category.

    Category log-probability differences equal theta_i - theta_j; adding a
    constant to all thetas leaves the model unchanged.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    k = thetas.size
    if k < 2:
        raise ValueError("multinomial needs at least 2 categories")
    space = OutcomeSpace(n, tuple(range(1, k + 1)))

    def stat_fn(outcomes: np.ndarray) -> np.ndarray:
        # count of category j per outcome row; symbols are 1-based
        return np.stack(
            [(outcomes == j).sum(axis=1) for j in range(1, k + 1)], axis=1
        ).astype(np.float64)

    return LinearExpFamily(space, stat_fn, thetas, family="multinomial",
                           budget=budget)


@dataclass(frozen=True)
class GraphModelSpec:
    """Random-graph model on the N = n(n-1)/2 edge indicators of n nodes.

    Edge variable i corresponds to the i-th node pair in lexicographic
    order (0,1),(0,2),...,(n-2,n-1). ``active_terms`` selects which of the
    edge, 2-star and triangle counts enter the score; inactive parameters
    are fixed at 0.
    """

    n_nodes: int
    params: tuple = (0.0, 0.0, 0.0)  # (theta_edges, theta_two_stars, theta_triangles)
    active_terms: tuple = GRAPH_TERMS

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ValueError("graph model needs at least 3 nodes")
        if len(self.params) != 3:
            raise ValueError("params must be (theta1, theta2, theta3)")
        unknown = set(self.active_terms) - set(GRAPH_TERMS)
        if unknown:
            raise ValueError(f"unknown graph terms: {sorted(unknown)}")
        for term, theta in zip(GRAPH_TERMS, self.params):
            if term not in self.active_terms and theta != 0.0:
                raise ValueError(f"inactive term {term!r} must keep parameter 0")

    @property
    def n_edges(self) -> int:
        return self.n_nodes * (self.n_nodes - 1) // 2

    @property
    def edge_index(self) -> list[tuple[int, int]]:
        return list(itertools.combinations(range(self.n_nodes), 2))


def graph_statistics(spec: GraphModelSpec, outcomes: np.ndarray) -> np.ndarray:
    """(m, 3) matrix of (edge, 2-star, triangle) counts per outcome row.

    2-stars are unordered pairs of distinct edges sharing a node, counted
    as sum_v C(deg(v), 2); triangles are node triples whose three edges are
    all present. The counts run along boolean edge columns: each edge adds
    its column into its two endpoints' degree rows, in the smallest
    unsigned integer type that holds n_nodes - 1. Triangles a < b < c go
    into one counter of the smallest unsigned type that holds C(n, 3), pair
    (a, b) at a time: edges (a, c) and (b, c) for every c > b are two
    contiguous runs of edge columns, and-ed in one reused boolean buffer.
    Every partial sum is an exact integer, so their order does not change
    a bit.
    """
    n = spec.n_nodes
    edges = np.ascontiguousarray(np.asarray(outcomes).T, dtype=bool)
    deg = np.zeros((n, edges.shape[1]), dtype=np.min_scalar_type(n - 1))
    triangles = np.zeros(edges.shape[1], dtype=np.min_scalar_type(math.comb(n, 3)))
    both = np.empty((n - 2, edges.shape[1]), dtype=bool)
    for e, (a, b) in enumerate(spec.edge_index):
        deg[a] += edges[e]
        deg[b] += edges[e]
        third, row = n - 1 - b, b * (2 * n - b - 1) // 2  # edge (b, b + 1)
        closed = np.logical_and(edges[e + 1:e + 1 + third], edges[row:row + third],
                                out=both[:third])
        closed &= edges[e]
        triangles += np.add.reduce(closed, axis=0, dtype=triangles.dtype)
    return np.stack([deg.sum(axis=0) / 2.0, (deg * (deg - 1.0) / 2.0).sum(axis=0),
                     triangles], axis=1)


def _key_sizes(spec: GraphModelSpec, term_cols: list) -> list[int]:
    """Radices of ``_graph_chunks``' keys: one more than the largest count of
    each active term, the complete graph's (n_edges edges, 3 C(n, 3)
    2-stars, C(n, 3) triangles)."""
    tops = (spec.n_edges, 3 * math.comb(spec.n_nodes, 3), math.comb(spec.n_nodes, 3))
    return [tops[t] + 1 for t in term_cols]


def _graph_keys(spec: GraphModelSpec, term_cols: list, budget: int) -> tuple:
    """(box, key chunks) of every graph: ``_graph_chunks``' keys, and the
    statistic row of every key as a (k, keys) float64 box, column j of key r
    at ``box[j, r]``. The budget is checked first, before the box is built."""
    OutcomeSpace(spec.n_edges, (0, 1)).check_budget(budget)
    sizes = _key_sizes(spec, term_cols)
    box = np.empty((len(sizes), math.prod(sizes)))
    for j, size in enumerate(sizes):
        box[j].reshape(-1, size, math.prod(sizes[:j]))[...] = np.arange(size)[:, None]
    return box, _graph_chunks(spec, term_cols, budget)


def _graph_chunks(spec: GraphModelSpec, term_cols: list, budget: int):
    """(first index, key) of every graph, in aligned chunks of 2^m rows
    (m = ``_chunk_digits``), one uint32 array reused from chunk to chunk.
    A key is mixed-radix over the active terms' counts in ``term_cols``
    order, sum_j c_j prod_(i<j) r_i with radices r_i (``_key_sizes``):
    ``graph_statistics(spec, rows)[:, term_cols]`` is the statistic row of
    each key, exactly. ``_graph_keys`` checks the budget.

    A chunk varies the low m edges over one block and fixes the high edges
    H. Chunk 0 (H empty) is the block itself, counted once by
    ``graph_statistics``, and the whole table of a graph of at most m
    edges; every other chunk adds integer corrections from H
    to the block's counts, with k_v node v's degree in H and d_v its degree
    column in the block: |H| edges; sum_v k_v d_v + C(k_v, 2) 2-stars;
    triangles from the block's common-neighbour column of each edge of H,
    the bit column of the low edge that closes each pair of H-edges sharing
    a node, and the triangles wholly in H. The column sums run in the
    narrowest unsigned type that holds every count, and go into the block's
    own keys weighted by their term's radix.
    """
    n, m = spec.n_nodes, _chunk_digits(spec.n_edges, 2)
    sizes = _key_sizes(spec, term_cols)
    strides = [math.prod(sizes[:j]) for j in range(len(sizes))]
    pairs = spec.edge_index
    low, high = {e: i for i, e in enumerate(pairs[:m])}, pairs[m:]
    block = np.zeros((2**m, spec.n_edges), dtype=np.int8)
    block[:, :m] = OutcomeSpace(m, (0, 1)).all_outcomes(budget)
    counts = graph_statistics(spec, block)[:, term_cols]
    # a count that is not a whole number below its radix would key another
    # row of the box, silently: the gather clips keys, and later chunks add
    # to these
    if not np.all((counts >= 0) & (counts < sizes) & (counts == np.floor(counts))):
        raise ValueError("graph counts must be whole numbers below their key radices")
    base = (counts @ strides).astype(np.uint32)
    del counts
    if not high:  # the block is the whole table
        yield 0, base
        return
    kind = np.min_scalar_type(3 * math.comb(n, 3))  # the most 2-stars, the largest count
    bits = block[:, :m].T.astype(kind)
    del block
    deg = np.zeros((n, 2**m), dtype=kind)
    for e, (a, b) in enumerate(pairs[:m]):
        deg[a] += bits[e]
        deg[b] += bits[e]

    def closing(e: tuple, f: tuple) -> tuple | None:
        # the edge that closes two distinct edges sharing a node into a triangle
        ends = set(e) ^ set(f)
        return tuple(sorted(ends)) if len(ends) == 2 else None

    common = np.zeros((len(high), 2**m), dtype=kind)
    for j, (a, b) in enumerate(high):
        for v in set(range(n)) - {a, b}:
            av, bv = tuple(sorted((a, v))), tuple(sorted((b, v)))
            if av in low and bv in low:
                common[j] += bits[low[av]] & bits[low[bv]]
    # of the low bit columns, only those that close two high edges are kept
    closers = {closing(e, f) for i, e in enumerate(high) for f in high[:i]}
    bits = {g: bits[low[g]].copy() for g in closers if g in low}
    total, weighted, keys = (np.empty(2**m, dtype=t) for t in (kind, np.uint32, np.uint32))
    # yielded only now, so the set-up's transients are gone when a consumer
    # allocates its table
    yield 0, base
    for c in range(1, 2 ** len(high)):
        h = [e for j, e in enumerate(high) if c >> j & 1]
        k = np.bincount(np.ravel(h), minlength=n)
        shut = [closing(e, f) for i, e in enumerate(h) for f in h[:i]]
        terms = (
            (len(h), []),
            (sum(math.comb(int(kv), 2) for kv in k), [deg[v] for v in np.repeat(range(n), k)]),
            (sum(g in h for g in shut) // 3,
             [common[high.index(e)] for e in h] + [bits[g] for g in shut if g in bits]),
        )
        np.add(base, sum(s * terms[t][0] for s, t in zip(strides, term_cols)), out=keys)
        for stride, t in zip(strides, term_cols):
            columns = terms[t][1]
            if columns:
                np.copyto(total, columns[0])
                for column in columns[1:]:
                    total += column
                keys += np.multiply(total, stride, out=weighted, dtype=np.uint32)
        yield c * 2**m, keys


def _box_scores(box: np.ndarray, params: np.ndarray, rows: int) -> np.ndarray:
    """params . g of every statistic row g of a (k, keys) box, in key order,
    scored as a chunk of ``rows`` statistic rows is: an F-ordered (rows, k)
    matrix times ``params``, the last one filled out by earlier rows. Rows
    that no outcome keys may overflow, so the product's floating-point
    warnings are off; an outcome's non-finite score is rejected where the
    table is checked."""
    block, scores = np.zeros((rows, len(box)), order="F"), np.empty(box.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(scores), rows):
            part = box[:, start:start + rows]
            np.copyto(block.T[:, :part.shape[1]], part)
            scores[start:start + rows] = (block @ params)[:part.shape[1]]
    return scores


def _gather(chunks, columns: np.ndarray, n_outcomes: int) -> np.ndarray:
    """F-ordered (n_outcomes, k) table whose rows in each (first index, keys)
    chunk of ``chunks`` hold column j's entries ``columns[j][keys]``. Keys
    are taken 2^14 at a time: ``np.take`` copies uint32 keys to intp, and
    a quarter chunk's copy is 128 KB, where 8-byte keys would slow the
    arithmetic that builds them."""
    table = None
    for start, keys in chunks:
        if table is None:  # after the first chunk's transients are gone
            table = np.empty((n_outcomes, len(columns)), order="F")
        for j, column in enumerate(columns):
            for a in range(0, len(keys), 2**14):
                part = keys[a:a + 2**14]
                # keys are in range; the default mode would buffer ``out``
                np.take(column, part, out=table[start + a:start + a + len(part), j],
                        mode="clip")
    return table


def make_graph_model(spec: GraphModelSpec,
                     budget: int = DEFAULT_ENUMERATION_BUDGET) -> LinearExpFamily:
    """Exponential random-graph model with edge/2-star/triangle terms.

    Its tables gather by ``_graph_chunks``' keys: a lone model's scores
    from every key's score, ``_box_scores`` over the box of count rows, and
    the statistic table from the box's columns. ``score`` counts each row
    by ``graph_statistics``.

    delta_N of a table gathered by the keys is its top digit's largest flip
    spread (``LinearExpFamily._one_flip_max``). Let sigma relabel the nodes.
    It permutes the edges, sending edge e to sigma(e) and graph x to
    sigma(x), and keeps every count: g(sigma(x)) = g(x). It maps the pairs
    (x, x with e flipped) one to one onto the pairs (sigma(x), sigma(x) with
    sigma(e) flipped), so edges e and sigma(e) have the same multiset of
    (g(x), g(x with the edge flipped)) pairs. A gather's entries depend on
    g alone, so the two digits have the same multiset of score pairs, and of
    spreads fl(|a - b|). Relabelling takes any node pair to any other, so
    every digit's largest spread is the top digit's, and so is the full
    scan's maximum over all digits, bit for bit: 2^20 pairs at 7 nodes,
    about 1 ms against about 20 ms. A table made from the statistic table
    (``at``, or after ``statistic_values``) is a product over the whole
    table, not known to depend on the counts alone, and takes the full scan.
    """
    term_cols = [GRAPH_TERMS.index(t) for t in spec.active_terms]
    params = [spec.params[c] for c in term_cols]
    space = OutcomeSpace(spec.n_edges, (0, 1))

    def stat_fn(outcomes: np.ndarray) -> np.ndarray:
        return graph_statistics(spec, outcomes)[:, term_cols]

    model = LinearExpFamily(space, stat_fn, params, family="graph", budget=budget)
    model._stat_keys = functools.partial(_graph_keys, spec, term_cols)
    return model


def graph_statistic_extremes(spec: GraphModelSpec,
                             budget: int = DEFAULT_ENUMERATION_BUDGET) -> dict:
    """Exact per-statistic (max, min) over all graphs, by enumeration."""
    model = make_graph_model(spec, budget=budget)
    u, l = model.statistic_extremes()
    return {term: (float(u[i]), float(l[i]))
            for i, term in enumerate(spec.active_terms)}


@dataclass(frozen=True)
class RbmParams:
    """Parameters of a restricted Boltzmann machine on {-1,+1} variables.

    ``interaction`` has shape (n_hidden, n_visible); entry (j, i) couples
    hidden unit j with visible unit i. ``n_hidden = 0`` yields an
    independence model for the visibles.
    """

    visible: np.ndarray
    hidden: np.ndarray
    interaction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "visible",
                           np.atleast_1d(np.asarray(self.visible, dtype=np.float64)))
        object.__setattr__(self, "hidden",
                           np.asarray(self.hidden, dtype=np.float64).reshape(-1))
        inter = np.asarray(self.interaction, dtype=np.float64)
        inter = inter.reshape(self.hidden.size, self.visible.size)
        object.__setattr__(self, "interaction", inter)
        if self.visible.size < 1:
            raise ValueError("need at least one visible variable")
        for name in ("visible", "hidden", "interaction"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} parameters must be finite")

    @property
    def n_visible(self) -> int:
        return self.visible.size

    @property
    def n_hidden(self) -> int:
        return self.hidden.size

    def __neg__(self) -> "RbmParams":
        return RbmParams(-self.visible, -self.hidden, -self.interaction)

    def transpose(self) -> "RbmParams":
        """Swap the visible and hidden roles (interaction transposed)."""
        return RbmParams(self.hidden.copy(), self.visible.copy(),
                         self.interaction.T.copy())

    @property
    def visible_l1(self) -> float:
        return float(np.abs(self.visible).sum())

    @property
    def hidden_l1(self) -> float:
        return float(np.abs(self.hidden).sum())

    @property
    def interaction_l1(self) -> float:
        return float(np.abs(self.interaction).sum())


def _first_layer(biases: tuple, weights: tuple, x: np.ndarray | slice) -> np.ndarray:
    """x.theta_v and the first hidden layer's fields, stacked: (1 + n_1, m, *draws).

    Row 0 is x.theta_v from -0.0 and row 1 + j the field biases[1]_j +
    sum_i x_i weights[0]_ji from its bias, each summed in visible order.
    ``x`` is (m, n_visible) outcome rows, or an aligned run of the
    {-1,+1}^n_visible index (2^d indices from a multiple of 2^d; ValueError
    otherwise), built by ``_signed_sums`` over its low d digits and then its
    fixed high digits, with the bits of its rows and no BLAS kernel.
    ``biases[0]``, ``biases[1]`` and ``weights[0]`` may share a trailing axis of draws.
    """
    stack = np.concatenate((biases[0][None], weights[0]))  # (1 + n_1, n_visible, *draws)
    base = np.concatenate((np.full((1, *biases[0].shape[1:]), -0.0), biases[1]))
    if isinstance(x, slice):
        d, signs = _aligned_run(x, stack.shape[1], "visible")
        out = np.empty((len(base), 2**d, *base.shape[1:]))
        for row, b, w in zip(out, base, stack):
            _signed_sums(b, w[:d], row)
    else:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[-1] != stack.shape[1]:
            raise ValueError(f"rows must have {stack.shape[1]} visible units")
        d, signs = 0, x.T.reshape(*x.T.shape, *[1] * (base.ndim - 1))
        out = np.repeat(base[:, None], len(x), axis=1)
    for row, w in zip(out, stack):
        _add_in_order(row, signs, w[d:])
    return out


def rbm_joint_score(params: RbmParams, x: np.ndarray | slice, h: np.ndarray | slice,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Joint score x.theta_v + sum_j h_j f_j, with fields f_j = theta_h_j + (W x)_j.

    Row r of ``x`` (m, n_visible) pairs with row r of ``h`` (m, n_hidden).
    Aligned index runs of each, as ``_first_layer`` takes them, give instead
    the (2^d_h, 2^d_x) grid of every hidden outcome in ``h`` against every
    visible one in ``x``, which ``out`` may hold. h_j f_j is added to
    x.theta_v in unit order, in the grid by doubling, so both agree bitwise.
    """
    first = _first_layer((params.visible, params.hidden), (params.interaction,), x)
    if isinstance(h, slice):
        d, h_high = _aligned_run(h, params.n_hidden, "hidden")
        grid = np.empty((2**d, first.shape[1])) if out is None else out
        return _add_in_order(_signed_sums(first[0], first[1:d + 1], grid),
                             h_high, first[d + 1:])
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    if h.shape[-1] != params.n_hidden:
        raise ValueError(f"rows must have {params.n_hidden} hidden units")
    return _add_in_order(first[0], h.T, first[1:])


def _add_in_order(total: np.ndarray, signs, weights) -> np.ndarray:
    """Add s_i * w_i to ``total`` in place, i = 0, 1, ...; return it."""
    for s, w in zip(signs, weights):
        total += s * w
    return total


def _aligned_run(run: slice, n: int, name: str) -> tuple[int, list[float]]:
    """(d, signs of digits d..n-1) of ``run``, 2^d indices of {-1,+1}^n
    from a multiple of 2^d in steps of 1: the form the grid builds by
    doubling, with every digit from d up fixed."""
    first = run.start or 0
    size = -1 if run.stop is None else run.stop - first
    d = max(size, 1).bit_length() - 1
    if (run.step not in (None, 1) or first < 0 or size != 2**d or first % size
            or run.stop > 2**n):
        raise ValueError(f"grid {name} indices must be one aligned run of the {name} index")
    return d, [1.0 if first >> i & 1 else -1.0 for i in range(d, n)]


class _VisibleRuns(FoesModel):
    """Model on {-1,+1}^n with the low ``n_visible`` digits visible, scoring
    rows by ``score_fn``. ``fill(x, block)`` fills the table's columns of
    the visible run ``x``, the table viewed as a (hidden, visible) grid, for
    each aligned run of ``_chunks(2**n_visible)`` in turn."""

    def __init__(self, n: int, n_visible: int, score_fn, fill, family: str, budget: int):
        super().__init__(OutcomeSpace(n, (-1, 1)), score_fn, family=family, budget=budget)
        self._n_visible, self._fill = n_visible, fill

    def _score_table(self) -> np.ndarray:
        self.space.check_budget(self.budget)
        table = np.empty((2 ** (self.n_variables - self._n_visible), 2**self._n_visible))
        for x in _chunks(2**self._n_visible):
            self._fill(x, table[:, x])
        return table.reshape(-1)


# A side of the joint grid is bounded line by line only where its lines hold
# at least 2^8 entries. Bounding a line costs about what reading 30 of its
# entries does, so at 2^8 the bounds of every line of a side cost a tenth of
# one digit's read over the table (2 ms against 20 ms at 2^24 outcomes, on a
# 2-vCPU host); a side of shorter lines is bounded per digit instead.
_LINE_BOUND_DIGITS = 8


def _joint_envelope(params: RbmParams, table: np.ndarray) -> tuple | None:
    """(slack, upper, lower, sides) of ``make_rbm_joint``'s table, or None
    where a sum could overflow.

    Two entries one flip apart differ in a visible digit, and lie in one
    row of the (2^nh, 2^nv) grid, or in a hidden digit, and lie in one
    column. ``upper`` and ``lower`` bound each row's max and min, or are
    None where rows are short. A side is (lines, first digit, bounds), the
    rows' and then the columns': the grid's lines, with row d of ``bounds``
    bounding digit d's flip spread in each line, or, for short lines, the
    whole table as one line, with one bound per digit from the first digit
    on. The table's values, as it rounds, lie within ``slack`` of each bound.
    """
    from .rbm_bounds import _spans  # rbm_bounds imports this module

    nv, nh = params.n_visible, params.n_hidden
    try:
        magnitude = math.fsum(np.abs(np.concatenate(
            (params.visible, params.hidden, params.interaction.ravel()))))
    except OverflowError:
        return None
    total = Fraction(magnitude) * (1 + _gamma(1))  # fsum rounds once
    if _float_above(2 * (1 + _gamma(nv + nh + 1)) * total) == math.inf:
        return None
    slack = _float_above(2 * (_gamma(nv + nh) + _gamma(nv + nh + 1)) * total)

    def side(biases: tuple, weights: tuple, lines: np.ndarray, first: int) -> tuple:
        # (lower, upper, side) of each line, over runs of a chunk, or, for
        # short lines, (None, None, side) of the whole table from digit first
        if len(biases[1]) < _LINE_BOUND_DIGITS:
            whole = [2 * math.fsum(np.abs(np.append(b, w))) for b, w in zip(biases[1], weights[0])]
            return None, None, (table.reshape(1, -1), first, np.reshape(whole, (-1, 1)))
        runs = [_spans(biases, weights, run) for run in _chunks(2 ** len(biases[0]))]
        lower, upper, _, flips = (np.concatenate(part, axis=-1) for part in zip(*runs))
        return lower, upper, (lines, 0, 2 * flips)

    # the transposed RBM's fields over the hidden index bound the rows,
    # the RBM's over the visible index the columns
    grid = table.reshape(2**nh, -1)
    lower, upper, rows = side((params.hidden, params.visible), (params.interaction.T,), grid, 0)
    columns = side((params.visible, params.hidden), (params.interaction,), grid.T, nv)[2]
    return slack, upper, lower, [rows, columns]


def _read_flips(side: tuple, digit: int, picked: np.ndarray, slack: float) -> float:
    """Largest flip spread of ``digit`` over the lines ``picked`` of a side
    (``_joint_envelope``), a batch of at most a chunk of entries at a time
    (``core._batches``). Each line's spread must lie within ``slack`` of its
    bound, or CertificateError is raised (code, not an ``assert``)."""
    lines, first, bounds = side
    spreads = np.concatenate([_flip_spreads(block, first + digit)
                              for _, block in _batches(lines, picked)])
    if not np.all(np.abs(spreads - bounds[digit, picked]) <= slack):
        raise CertificateError("a one-flip spread lies outside its certified envelope")
    return float(spreads.max())


class _JointRbm(_VisibleRuns):
    """``make_rbm_joint``'s model: its table is ``rbm_joint_score``'s grid
    of all hiddens against one visible run at a time, and its extremes and
    delta_N are read only where the grid's envelope (``_joint_envelope``),
    found with the extremes, says they can lie."""

    def __init__(self, params: RbmParams, budget: int):
        nv, nh = params.n_visible, params.n_hidden

        def score_fn(outcomes: np.ndarray) -> np.ndarray:
            return rbm_joint_score(params, outcomes[:, :nv], outcomes[:, nv:])

        def fill(x: slice, block: np.ndarray) -> None:
            # the table holds what rbm_joint_score returns: block itself, no copy
            block[...] = rbm_joint_score(params, x, slice(0, 2**nh), out=block)

        super().__init__(nv + nh, nv, score_fn, fill, "rbm_joint", budget)
        self._params, self._envelope = params, None

    def _find_extremes(self, table: np.ndarray) -> tuple[int, int]:
        """(argmax, argmin) of ``table``, lowest index on ties, read only in
        rows whose envelope can hold them; the full pass where rows have no
        bounds, or the table no envelope.

        Row r's max is within slack s of its bound u_r, so the table's max M
        is at least u_r - s for every r, and a row that holds M has
        u_r + s >= M >= max(u) - s. So only rows with u_r >= max(u) - 2s can
        hold it, and likewise only rows with l_r <= min(l) + 2s the min.
        Those thresholds are rounded outward from exact rationals, so no such
        row is left out. The rows that pass are read in index order, in
        batches of at most a chunk (``_batches``), and a later batch wins
        only by a larger value, so a tie keeps the lowest index, as a full
        argmax does. Each row read must lie within its envelope, or
        CertificateError is raised; the check is code, not an ``assert``.
        """
        self._envelope = _joint_envelope(self._params, table)
        slack, upper, lower, _ = self._envelope or (None,) * 4
        if upper is None:
            return super()._find_extremes(table)
        grid = table.reshape(len(upper), -1)
        top = _float_above(Fraction(float(upper.max())) - 2 * Fraction(slack))
        bottom = -_float_above(-Fraction(float(lower.min())) - 2 * Fraction(slack))
        best, worst = (-math.inf, -1), (math.inf, -1)
        for batch, block in _batches(grid, np.flatnonzero((upper >= top) | (lower <= bottom))):
            peaks, floors = block.max(axis=1), block.min(axis=1)
            if not (np.all(np.abs(peaks - upper[batch]) <= slack)
                    and np.all(np.abs(floors - lower[batch]) <= slack)):
                raise CertificateError("a score-table row lies outside its certified envelope")
            r, q = int(np.argmax(peaks)), int(np.argmin(floors))
            if peaks[r] > best[0]:
                best = (peaks[r], int(batch[r]) * grid.shape[1] + int(np.argmax(block[r])))
            if floors[q] < worst[0]:
                worst = (floors[q], int(batch[q]) * grid.shape[1] + int(np.argmin(block[q])))
        return best[1], worst[1]

    def _one_flip_max(self) -> float:
        """delta_N, read by the pieces the envelope covers: one digit's flips
        in one row or one column of the grid, or in the whole table where a
        side is bounded per digit. Every one-flip pair lies in exactly one
        piece. The piece of largest bound is read first, which gives a
        spread L; then, digit by digit, only the pieces whose bound exceeds
        L - slack, L the largest spread read so far, since no other can
        exceed L. No piece is read twice, and a float maximum does not
        depend on the order it is taken in, so the result is the full
        scan's bit for bit. At the 14 + 10 cap it reads one digit of one
        column (2^9 pairs) on the seeds tried, in well under a millisecond,
        against about 0.3 s for the full scan of the 2^24 table; where every
        row ties in a digit (W = 0) it reads that digit once over the table.
        A table with no envelope takes the full scan.
        """
        self.scores()  # the envelope is found with the extremes
        if self._envelope is None:
            return super()._one_flip_max()
        slack, _, _, sides = self._envelope
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


def make_rbm_joint(params: RbmParams,
                   budget: int = DEFAULT_ENUMERATION_BUDGET) -> FoesModel:
    """Joint RBM model over {-1,+1}^(n_visible + n_hidden).

    Outcome vectors concatenate the visibles first, then the hiddens; the
    table is rbm_joint_score's grid of all hiddens against one visible run.

    Its envelope (``_joint_envelope``), found with the table's extremes,
    bounds that grid, row h against column x, in closed form; the model
    reads its extremes and delta_N only where the bounds say they can lie.
    Row h scores s(x, h) = h.theta_h + x.phi(h), with phi_i(h) =
    theta_v_i + (W^T h)_i, so its max and min are
    h.theta_h +/- sum_i |phi_i(h)|, and flipping visible i moves it by
    exactly 2 |phi_i(h)|; in column x, flipping hidden j moves s by exactly
    2 |f_j(x)|, f_j(x) = theta_h_j + (W x)_j. Where a side's lines hold at
    least 2^``_LINE_BOUND_DIGITS`` entries, the bounds are those closed
    forms per line and digit as ``rbm_bounds._spans`` computes them, per
    run of one chunk: the transposed RBM's fields over the hidden index for
    the rows, the RBM's over the visible index for the columns. Otherwise
    the side is bounded per digit over the whole grid, by the largest of
    those moves, 2 A_i with A_i = |theta_v_i| + sum_j |W_ji| (or
    |theta_h_j| + sum_i |W_ji|), which some h (or x) attains, summed by
    ``math.fsum``. No grid call is made and ``score_fn`` is never called.

    Slack. Each table entry sums the terms theta_v_i x_i, theta_h_j h_j and
    W_ji x_i h_j, each product exact, through at most N = n_visible +
    n_hidden rounded additions (n_visible in ``_first_layer``, n_hidden in
    the ``_signed_sums`` grid). So it is within gamma_N T of the exact
    score, with T = |theta_v|_1 + |theta_h|_1 + |W|_1 (Higham 2002, Lemma
    3.1 and ch. 4; ``core._gamma``). A computed row bound passes each term
    through at most N + 1 additions: phi_i or f_j (n_hidden or n_visible),
    the sum of magnitudes, and the bias sum's last addition; |.| and the
    doubling are exact. So it is within gamma_(N+1) T of its closed form,
    and a row's max or min is within (gamma_N + gamma_(N+1)) T of its bound.
    A flip difference is within 2 gamma_N T of exact before its own rounding,
    which adds at most u (2T + 2 gamma_N T), and the bound 2 |phi_i| is within
    2 gamma_(N-1) T of exact; since gamma_(N-1) + u (1 + gamma_N) <=
    gamma_(N+1), every spread is within sigma = 2 (gamma_N + gamma_(N+1)) T
    of its bound. A digit's largest spread over the grid is within
    2 gamma_N T + u (2T + 2 gamma_N T) of 2 A_i, and fsum's 2 A_i within
    2u T of exact; since u (2 + gamma_N) <= gamma_(N+1), that is within
    sigma too. sigma is found in exact rationals from T rounded up
    (``math.fsum`` rounds once, so T <= fsum (1 + gamma_1)) and rounded up
    once to a float. Where 2 (1 + gamma_(N+1)) T passes the largest float, a
    sum or a difference could overflow, and the model has no envelope: it
    takes the full argmax and argmin, which reject an infinite score.
    """
    return _JointRbm(params, budget)


def _log2cosh(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # log(2 cosh z) = |z| + log1p(exp(-2|z|)), overflow-free; ``out`` may be z
    az = np.abs(z, out=out)
    tail = np.multiply(az, -2.0)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    az += tail
    return az


def _rbm_marginal_scores(first: np.ndarray) -> np.ndarray:
    """x.theta_v + sum_j log(2 cosh f_j) of ``_first_layer``'s stack, from 0.0 in unit
    order (a hiddenless -0.0 turns +0.0); it overwrites the fields, and |f_j| gives f_j's bits."""
    total = np.zeros(first.shape[1:])
    for field in first[1:]:
        total += _log2cosh(field, out=field)
    return first[0] + total


def _halved(op, a: np.ndarray) -> np.ndarray:
    """``op`` over the 2^d rows of ``a`` by halving it in place, in the same steps at any width."""
    for h in 2 ** np.arange(len(a).bit_length() - 1)[::-1]:
        op(a[:h], a[h:2 * h], out=a[:h])
    return a[0]


def _boltzmann_marginal(params: RbmParams, n: int, family: str,
                        budget: int) -> FoesModel:
    """Model of an RBM's first ``n`` visibles. Each hidden adds log(2 cosh f_j) in unit
    order; a log-sum-exp sums the other visibles, 2^d configurations a block against a
    chunk of pairs: their low d columns (bias atop weights) are doubled onto
    ``_first_layer``'s fields once a row slice, and each block adds its high digits'."""
    OutcomeSpace(params.n_visible, (-1, 1)).check_budget(budget)
    summed = np.concatenate((params.visible[None, n:], params.interaction[:, n:]))

    def score(x: np.ndarray | slice) -> np.ndarray:
        first = _first_layer((params.visible[:n], params.hidden), (params.interaction[:, :n],), x)
        if not summed.shape[1]:
            return _rbm_marginal_scores(first)
        d = min(summed.shape[1], (_CHUNK_OUTCOMES >> _chunk_digits(n, 2) or 1).bit_length() - 1)
        high = _first_layer((summed[0, d:], np.zeros(params.n_hidden)), (summed[1:, d:],),
                            slice(0, 2 ** (summed.shape[1] - d)))
        out = np.empty(first.shape[1])
        for r in range(0, len(out), _CHUNK_OUTCOMES >> d):
            rows = first[:, r:r + (_CHUNK_OUTCOMES >> d)]
            fields = np.empty((len(first), 2**d, rows.shape[1]))
            for row, base, w in zip(fields, rows, summed[:, :d]):
                _signed_sums(base, w, row)
            top, total = -np.inf, 0.0
            for offset in high.T:
                joint = _rbm_marginal_scores(fields + offset[:, None, None])  # (2^d, rows)
                peak = np.maximum(top, _halved(np.maximum, joint.copy()))
                terms = np.exp(np.subtract(joint, peak, out=joint), out=joint)
                total, top = total * np.exp(top - peak) + _halved(np.add, terms), peak
            out[r:r + len(top)] = top + np.log(total)
        return out

    return _VisibleRuns(n, n, score, lambda x, out: np.copyto(out[0], score(x)), family, budget)


def make_rbm_marginal(params: RbmParams,
                      budget: int = DEFAULT_ENUMERATION_BUDGET) -> FoesModel:
    """Visible RBM model on {-1,+1}^n_visible, hiddens summed out analytically.

    Score is x.theta_v + sum_j log(2 cosh(theta_h_j + sum_i x_i w_ji)),
    which equals the log of the brute-force hidden sum of the joint model.
    """
    return _boltzmann_marginal(params, params.n_visible, "rbm_marginal", budget)


@dataclass(frozen=True)
class DbmParams:
    """Parameters of a deep Boltzmann machine with M stacked hidden layers.

    ``visible_bias`` has length N; ``hidden_biases[i]`` has the length of
    hidden layer i+1. ``couplings[0]`` has shape (n_h1, N) and couples the
    first hidden layer to the visibles; ``couplings[i]`` has shape
    (n_hi, n_h(i+1)) and couples consecutive hidden layers.
    """

    visible_bias: np.ndarray
    hidden_biases: tuple
    couplings: tuple

    def __post_init__(self):
        object.__setattr__(self, "visible_bias",
                           np.atleast_1d(np.asarray(self.visible_bias, dtype=np.float64)))
        object.__setattr__(self, "hidden_biases",
                           tuple(np.atleast_1d(np.asarray(a, dtype=np.float64))
                                 for a in self.hidden_biases))
        object.__setattr__(self, "couplings",
                           tuple(np.asarray(g, dtype=np.float64) for g in self.couplings))
        m = len(self.hidden_biases)
        if m < 1:
            raise ValueError("need at least one hidden layer")
        if len(self.couplings) != m:
            raise ValueError("need one coupling matrix per hidden layer")
        sizes = self.layer_sizes
        if sizes[0] < 1:
            raise ValueError("need at least one visible variable")
        for name in ("visible_bias", "hidden_biases", "couplings"):
            if not all(np.isfinite(a).all() for a in getattr(self, name)):
                raise ValueError(f"{name} parameters must be finite")
        if min(sizes[1:]) < 1:
            raise ValueError("every hidden layer needs at least one unit")
        if self.couplings[0].shape != (sizes[1], sizes[0]):
            raise ValueError("couplings[0] must have shape (n_h1, n_visible)")
        for i in range(1, m):
            if self.couplings[i].shape != (sizes[i], sizes[i + 1]):
                raise ValueError(f"couplings[{i}] must have shape (n_h{i}, n_h{i + 1})")

    @property
    def layer_sizes(self) -> tuple:
        return (self.visible_bias.size,) + tuple(a.size for a in self.hidden_biases)

    def __neg__(self) -> "DbmParams":
        return DbmParams(-self.visible_bias,
                         tuple(-a for a in self.hidden_biases),
                         tuple(-g for g in self.couplings))


def make_dbm_marginal(params: DbmParams,
                      budget: int = DEFAULT_ENUMERATION_BUDGET) -> FoesModel:
    """Visible DBM model: the marginal of the RBM between its even layers
    (visible) and odd layers (hidden), N visibles then h2, h4, ... summed."""
    sizes, layers = params.layer_sizes, (params.visible_bias,) + params.hidden_biases
    # each layer's units among the RBM's visibles (even) or hiddens (odd)
    at = [slice(sum(sizes[l % 2:l:2]), sum(sizes[l % 2:l + 1:2])) for l in range(len(sizes))]
    interaction = np.zeros((sum(sizes[1::2]), sum(sizes[::2])))
    for l, g in enumerate(params.couplings):
        # couplings[0] is (n_h1, N), couplings[l] (n_hl, n_h(l+1)); rows odd, columns even
        interaction[at[l + 1 - l % 2], at[l + l % 2]] = g.T if l and not l % 2 else g
    rbm = RbmParams(np.concatenate(layers[::2]), np.concatenate(layers[1::2]), interaction)
    return _boltzmann_marginal(rbm, sizes[0], "dbm_marginal", budget)
