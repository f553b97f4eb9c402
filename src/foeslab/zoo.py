"""Concrete FOES model constructors.

Covers linear exponential families (iid Bernoulli, iid multinomial, the
edge/2-star/triangle random-graph model), restricted Boltzmann machines
(joint and analytically-marginalized visible models on {-1,+1} variables),
and deep Boltzmann machines with their odd hidden layers summed analytically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    _CHUNK_OUTCOMES,
    DEFAULT_ENUMERATION_BUDGET,
    FoesModel,
    OutcomeSpace,
    _aligned_blocks,
    _chunk_digits,
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
        model._stat_slot = self._stat_slot
        model._scores_from_stats = True
        return model

    def _score_table(self) -> np.ndarray:
        if self._stat_slot[0] is None and not self._scores_from_stats:
            return super()._score_table()
        return self.statistic_values() @ self.params

    def statistic_values(self) -> np.ndarray:
        """(n_outcomes, k) matrix of statistic values, enumerated and cached."""
        if self._stat_slot[0] is None:
            self._stat_slot[0] = self.space.tabulate(
                lambda x: _statistic_matrix(self.stat_fn, x, self.params.size),
                self.budget)
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

    def triangle_edges(self) -> np.ndarray:
        """(n_triples, 3) edge indices of each node triple's three edges."""
        pos = {pair: e for e, pair in enumerate(self.edge_index)}
        triples = [
            (pos[(a, b)], pos[(a, c)], pos[(b, c)])
            for a, b, c in itertools.combinations(range(self.n_nodes), 3)
        ]
        return np.asarray(triples, dtype=np.int64)


def graph_statistics(spec: GraphModelSpec, outcomes: np.ndarray) -> np.ndarray:
    """(m, 3) matrix of (edge, 2-star, triangle) counts per outcome row.

    2-stars are unordered pairs of distinct edges sharing a node, counted
    as sum_v C(deg(v), 2); triangles are node triples whose three edges are
    all present. The counts run along boolean edge columns: each edge adds
    its column into its two endpoints' degree rows, in the smallest
    unsigned integer type that holds n_nodes - 1. Every partial sum is an
    exact integer, so their order does not change a bit.
    """
    edges = np.ascontiguousarray(np.asarray(outcomes).T, dtype=bool)
    deg = np.zeros((spec.n_nodes, edges.shape[1]),
                   dtype=np.min_scalar_type(spec.n_nodes - 1))
    for e, (a, b) in enumerate(spec.edge_index):
        deg[a] += edges[e]
        deg[b] += edges[e]
    tri = spec.triangle_edges()  # nonempty: a spec has at least 3 nodes
    triangles = np.logical_and(edges[tri[:, 0]], edges[tri[:, 1]])
    triangles &= edges[tri[:, 2]]
    return np.stack([deg.sum(axis=0) / 2.0, (deg * (deg - 1.0) / 2.0).sum(axis=0),
                     np.count_nonzero(triangles, axis=0)], axis=1)


def make_graph_model(spec: GraphModelSpec,
                     budget: int = DEFAULT_ENUMERATION_BUDGET) -> LinearExpFamily:
    """Exponential random-graph model with edge/2-star/triangle terms."""
    term_cols = [GRAPH_TERMS.index(t) for t in spec.active_terms]
    params = [spec.params[c] for c in term_cols]
    space = OutcomeSpace(spec.n_edges, (0, 1))

    def stat_fn(outcomes: np.ndarray) -> np.ndarray:
        return graph_statistics(spec, outcomes)[:, term_cols]

    return LinearExpFamily(space, stat_fn, params, family="graph", budget=budget)


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


def rbm_joint_score(params: RbmParams, x: np.ndarray | slice, h: np.ndarray | slice,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Joint score x.theta_v + sum_j h_j f_j, with fields f_j = theta_h_j + (W x)_j.

    Row r of ``x`` (m, n_visible) pairs with row r of ``h`` (m, n_hidden),
    giving m scores. ``x`` and ``h`` may instead be slices of the visible
    and the hidden index, each one aligned run of 2^d indices from a
    multiple of 2^d (ValueError otherwise); then the result is the
    (2^d_h, 2^d_x) grid of every hidden outcome in ``h`` against every
    visible outcome in ``x``. Either way each score is summed in one
    order: x.theta_v from -0.0 and each f_j from theta_h_j, both in visible
    order, then h_j f_j added in unit order. The grid builds x.theta_v and
    one table per f_j over the visible run by ``_signed_sums``, then
    doubles the f_j over the hidden run, each time adding a run's fixed
    high digits after its low ones; so it has the bits of the paired call
    and runs no BLAS kernel. ``out`` may hold the result, as for a ufunc.
    """
    if isinstance(x, slice) and isinstance(h, slice):
        m, x_high = _aligned_run(x, params.n_visible, "visible")
        d, h_high = _aligned_run(h, params.n_hidden, "hidden")
        fields = np.empty((params.n_hidden, 2**m))
        for f, b, w in zip(fields, params.hidden, params.interaction):
            _add_in_order(_signed_sums(b, w[:m], f), x_high, w[m:])
        visible = _add_in_order(_signed_sums(-0.0, params.visible[:m], np.empty(2**m)),
                                x_high, params.visible[m:])
        grid = np.empty((2**d, 2**m)) if out is None else out
        return _add_in_order(_signed_sums(visible, fields[:d], grid), h_high, fields[d:])
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    if x.shape[-1] != params.n_visible or h.shape[-1] != params.n_hidden:
        raise ValueError(f"rows must have {params.n_visible} visible "
                         f"and {params.n_hidden} hidden units")
    # one field at a time, each added as soon as it is summed
    fields = (_add_in_order(np.full(len(x), b), x.T, w)
              for b, w in zip(params.hidden, params.interaction))
    score = _add_in_order(np.full(len(x), -0.0), x.T, params.visible)
    score = _add_in_order(score, h.T, fields)
    if out is None:
        return score
    out[...] = score
    return out


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


class _RbmJoint(FoesModel):
    """Joint RBM whose score table is a grid of hidden against visible rows."""

    def __init__(self, params: RbmParams, budget: int):
        n = params.n_visible
        space = OutcomeSpace(n + params.n_hidden, (-1, 1))

        def score_fn(outcomes: np.ndarray) -> np.ndarray:
            return rbm_joint_score(params, outcomes[:, :n], outcomes[:, n:])

        super().__init__(space, score_fn, family="rbm_joint", budget=budget)
        self._params = params

    def _score_table(self) -> np.ndarray:
        # the visibles are the low digits of the index, so the table is the
        # (2^nh, 2^nv) grid with hidden rows major, built in blocks of at
        # most one chunk of indices on each side
        self.space.check_budget(self.budget)
        nv, nh = self._params.n_visible, self._params.n_hidden
        digits = _chunk_digits(max(nv, nh), 2)
        rows, cols = 2 ** min(nh, digits), 2 ** min(nv, digits)
        table = np.empty((2**nh, 2**nv))
        for h0 in range(0, 2**nh, rows):
            for x0 in range(0, 2**nv, cols):
                block = table[h0:h0 + rows, x0:x0 + cols]
                # the table holds what rbm_joint_score returns; assigning
                # its result copies nothing when that is block itself
                block[...] = rbm_joint_score(self._params, slice(x0, x0 + cols),
                                             slice(h0, h0 + rows), out=block)
        return table.reshape(-1)


def make_rbm_joint(params: RbmParams,
                   budget: int = DEFAULT_ENUMERATION_BUDGET) -> FoesModel:
    """Joint RBM model over {-1,+1}^(n_visible + n_hidden).

    Outcome vectors concatenate the visibles first, then the hiddens. The
    score table is rbm_joint_score's grid, one aligned block of hidden
    against visible indices at a time.
    """
    return _RbmJoint(params, budget)


def _log2cosh(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # log(2 cosh z) = |z| + log1p(exp(-2|z|)), overflow-free; ``out`` may be z
    az = np.abs(z, out=out)
    tail = np.multiply(az, -2.0)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    az += tail
    return az


def _boltzmann_marginal(biases: tuple, weights: tuple, family: str,
                        budget: int) -> FoesModel:
    """Visible model of a Boltzmann machine on {-1,+1} units, layer 0 visible.

    ``weights[l]`` (n_(l+1), n_l) couples layers l and l+1. Given the even
    layers, each odd unit adds log(2 cosh(field)) exactly; the even hidden
    layers are enumerated, 2^(visibles + even units) <= budget points in
    all, under a log-sum-exp streamed in blocks of at most one chunk of pairs.
    """
    n_even = sum(b.size for b in biases[2::2])
    OutcomeSpace(biases[0].size + n_even, (-1, 1)).check_budget(budget)
    splits = np.cumsum([b.size for b in biases[2::2]])[:-1]

    def score_fn(outcomes: np.ndarray) -> np.ndarray:
        x = outcomes.astype(np.float64)
        z = x @ weights[0].T + biases[1]
        if not n_even:
            return x @ biases[0] + _log2cosh(z, out=z).sum(axis=1)
        # blocks of 2^digits even configurations, the most that pair with x in a chunk
        digits = min(n_even, (_CHUNK_OUTCOMES // max(len(x), 1) or 1).bit_length() - 1)
        low = OutcomeSpace(max(digits, 1), (-1, 1)).all_outcomes().astype(np.float64)
        top, total = np.full(len(x), -np.inf), np.zeros(len(x))
        for _, block in _aligned_blocks(low[:, :digits], n_even, (-1, 1)):
            h = dict(zip(range(2, len(biases), 2), np.split(block, splits, axis=1)))
            joint = sum(h[l] @ biases[l] for l in h)
            for l in range(1, len(biases), 2):
                field = z[:, None] if l == 1 else h[l - 1] @ weights[l - 1].T + biases[l]
                field = field + h[l + 1] @ weights[l] if l + 1 in h else field
                joint = joint + _log2cosh(field, out=field).sum(axis=-1)
            peak = np.maximum(top, joint.max(axis=1))
            total = total * np.exp(top - peak) + np.exp(joint - peak[:, None]).sum(axis=1)
            top = peak
        return x @ biases[0] + top + np.log(total)

    return FoesModel(OutcomeSpace(biases[0].size, (-1, 1)), score_fn, family, budget)


def make_rbm_marginal(params: RbmParams,
                      budget: int = DEFAULT_ENUMERATION_BUDGET) -> FoesModel:
    """Visible RBM model on {-1,+1}^n_visible, hiddens summed out analytically.

    Score is x.theta_v + sum_j log(2 cosh(theta_h_j + sum_i x_i w_ji)),
    which equals the log of the brute-force hidden sum of the joint model.
    """
    return _boltzmann_marginal((params.visible, params.hidden),
                               (params.interaction,), "rbm_marginal", budget)


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
    """Visible DBM model: odd hidden layers in closed form, even ones enumerated."""
    weights = params.couplings[:1] + tuple(g.T for g in params.couplings[1:])
    return _boltzmann_marginal((params.visible_bias,) + params.hidden_biases,
                               weights, "dbm_marginal", budget)
