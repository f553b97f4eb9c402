"""Helpers shared by the test modules: child processes that import this
checkout's foeslab, whatever PYTHONPATH says; the hypothesis profile; a
call recorder; and the model registry, one hypothesis strategy per model
kind, whose every draw tests/test_shortcuts.py checks against the full
pass. A new shortcut adds a strategy here, not a test file."""

import contextlib
import itertools
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import example, settings, strategies as st

import foeslab
import foeslab.core
import foeslab.zoo
from foeslab import (DbmParams, GraphModelSpec, LinearExpFamily, OutcomeSpace, RbmParams,
                     graph_statistics, make_bernoulli, make_dbm_marginal, make_graph_model,
                     make_multinomial, make_rbm_joint, make_rbm_marginal, make_uniform, replicate)
from foeslab.zoo import GRAPH_TERMS

# no deadline, and the same examples on every run
settings.register_profile("foeslab", deadline=None, derandomize=True)
settings.load_profile("foeslab")

# one CLI run, its exit code the process's
CLI_CHILD = "import sys\nfrom foeslab.cli import main\nsys.exit(main(sys.argv[1:]))\n"

# Registered ahead of the child's code, so the peak prints after it even
# when the code ends in sys.exit. The child reads VmHWM, its own peak RSS:
# its ru_maxrss would also count the peak of the test process it was
# forked from.
_PRINT_PEAK_AT_EXIT = """
import atexit, resource

def _print_peak():
    try:
        peak = next(line.split()[1] for line in open("/proc/self/status")
                    if line.startswith("VmHWM:"))
    except OSError:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(peak)

atexit.register(_print_peak)
"""


def child_stdout(code: str, *args: str, **env: str) -> str:
    """Standard output of ``code`` run in a fresh process with ``args`` and
    the extra environment ``env``; it must exit 0."""
    src = os.path.dirname(os.path.dirname(foeslab.__file__))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src, **env},
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def child_peak_kb(code: str, *args: str) -> int:
    """Peak resident kB of a fresh process running ``code`` with ``args``;
    it must exit 0."""
    return int(child_stdout(_PRINT_PEAK_AT_EXIT + code, *args).split()[-1])


@contextlib.contextmanager
def kernel_calls(*targets):
    """The calls of ``targets``, (module or class, function name) pairs, as
    (name, positional args) in call order, while open; each call still runs."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in targets:
            kernel = getattr(owner, name)
            patch.setattr(owner, name, lambda *args, kernel=kernel, name=name, **kwargs:
                          calls.append((name, args)) or kernel(*args, **kwargs))
        yield calls


@dataclass(frozen=True, eq=False)
class Case:
    """A registry draw: ``family(theta)`` builds a fresh model of ``kind``;
    ``patched()`` sets ``_CHUNK_OUTCOMES`` to ``chunk`` and
    ``zoo._LINE_BOUND_DIGITS`` to ``line_digits`` where not None. Every
    theta negates, for sign reversal."""

    kind: str
    family: Callable
    theta: Any
    chunk: int | None = None
    line_digits: int | None = None

    def model(self):
        return self.family(self.theta)

    @contextlib.contextmanager
    def patched(self):
        with pytest.MonkeyPatch.context() as patch:
            if self.chunk is not None:
                for module in (foeslab.core, foeslab.zoo):
                    patch.setattr(module, "_CHUNK_OUTCOMES", self.chunk)
            if self.line_digits is not None:
                patch.setattr(foeslab.zoo, "_LINE_BOUND_DIGITS", self.line_digits)
            yield


def examples(cases):
    """Run a ``@given(case=...)`` test on each of ``cases`` first."""
    def decorate(test):
        for case in reversed(cases):
            test = example(case=case)(test)
        return test
    return decorate


GRAPH_TERM_SUBSETS = [terms for r in (1, 2, 3) for terms in itertools.combinations(GRAPH_TERMS, r)]


def graph_spec(nodes: int, terms: tuple, theta) -> GraphModelSpec:
    """The graph model on ``terms`` with their parameters ``theta``."""
    params = dict(zip(terms, theta))
    return GraphModelSpec(nodes, params=tuple(params.get(t, 0.0) for t in GRAPH_TERMS),
                          active_terms=terms)


def graph_family(nodes: int, terms: tuple = GRAPH_TERMS, base=None, stats_first: bool = False):
    """theta -> the graph model on ``terms``, gathered by its count keys; made
    by ``at`` from the model at ``base``; or scored from its statistic table,
    built first."""
    def family(theta):
        if base is not None:
            return make_graph_model(graph_spec(nodes, terms, base)).at(theta)
        model = make_graph_model(graph_spec(nodes, terms, theta))
        if stats_first:
            model.statistic_values()
        return model
    return family


def edge_zero_family(nodes: int):
    """theta -> the family of a graph's edge and 2-star counts with edge 0
    counted twice. Relabelling nodes no longer keeps the counts, so the top
    digit's flips need not be the largest: at 5 nodes and theta = (1.5,
    -0.25) they move the score by 1.5 at most, edge 0's by 3."""
    spec = GraphModelSpec(nodes)

    def stat_fn(x):
        return graph_statistics(spec, x)[:, :2] + np.outer(x[:, 0], [1.0, 0.0])

    return lambda theta: LinearExpFamily(OutcomeSpace(spec.n_edges, (0, 1)), stat_fn, theta)


# round values and signed zeros tie many scores; 0.1 + 0.2 rounds off 0.3
_POOL = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 0.1, 0.2, -0.3)
SCALES = (1e-3, 1.0, 3.7, 1e3, 1e6, 1e8, 1e12)


@st.composite
def _coefficients(draw, scales):
    """shape -> arrays of normal draws, small integers or pool values, all of
    one of these styles, times one of ``scales``."""
    style = draw(st.sampled_from(["normal", "integer", "pool"]))
    scale = draw(st.sampled_from(scales))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = {"normal": rng.standard_normal,
              "integer": lambda shape: rng.integers(-2, 3, shape).astype(np.float64),
              "pool": lambda shape: rng.choice(_POOL, shape)}[style]
    return lambda *shape: values(shape) * scale


def _chunk(draw, n_outcomes: int):
    # the default chunk (None) or a patched one; chunks of a few outcomes
    # only on at most 2^12, where a scan's pieces stay few
    return draw(st.sampled_from([None, 4, 16, 100] if n_outcomes <= 2**12 else [None, 2**10]))


def _iid(kind: str):
    """Uniform (2-4 symbols), Bernoulli or multinomial (2-5 categories) models."""
    def build(draw, scales, lo, hi):
        k = 2 if kind == "bernoulli" else draw(st.integers(2, 4 if kind == "uniform" else 5))
        n = draw(st.sampled_from([n for n in range(1, hi + 1) if 2**lo <= k**n <= 2**hi]))
        coef = draw(_coefficients(scales))
        family, theta = {"uniform": (lambda t: make_uniform(n, k), 0.0),
                         "bernoulli": (lambda t: make_bernoulli(n, t), coef()),
                         "multinomial": (lambda t: make_multinomial(n, t), coef(k))}[kind]
        return Case(kind, family, theta, _chunk(draw, k**n))
    return build


def _replicate(draw, scales, lo, hi):
    m = draw(st.integers(1, 3))
    base = _iid(draw(st.sampled_from(["bernoulli", "multinomial"])))(
        draw, scales, -(-lo // m), hi // m)
    return Case("replicate", lambda t: replicate(base.family(t), m), base.theta,
                _chunk(draw, base.model().space.n_outcomes ** m))


def _graph(kind: str):
    """Graphs of 3 to 6 nodes on any subset of terms, gathered by count keys
    ("graph"), made by ``at`` ("graph-at"), or from the statistic table,
    built first ("graph-stats-first"); also "edge-zero", at 3 to 5 nodes."""
    def build(draw, scales, lo, hi):
        top = 5 if kind == "edge-zero" else 6
        nodes = draw(st.sampled_from([n for n in range(3, top + 1)
                                      if 2 * lo <= n * (n - 1) <= 2 * hi]))
        terms = (("edges", "two_stars") if kind == "edge-zero"
                 else draw(st.sampled_from(GRAPH_TERM_SUBSETS)))
        coef = draw(_coefficients(scales))
        family = edge_zero_family(nodes) if kind == "edge-zero" else graph_family(
            nodes, terms, coef(len(terms)) if kind == "graph-at" else None,
            stats_first=kind == "graph-stats-first")
        return Case(kind, family, coef(len(terms)), _chunk(draw, 2 ** (nodes * (nodes - 1) // 2)))
    return build


def _rbm_marginal(draw, scales, lo, hi):
    nv, nh = draw(st.integers(max(1, lo), min(11, hi))), draw(st.integers(0, 8))
    coef = draw(_coefficients(scales))
    return Case("rbm-marginal", make_rbm_marginal, RbmParams(coef(nv), coef(nh), coef(nh, nv)),
                _chunk(draw, 2**nv))


def _dbm_marginal(draw, scales, lo, hi):
    # 1-9 visibles and 1-4 hidden layers of 1-4 units, 13 units in all
    sizes = [draw(st.integers(max(1, lo), min(9, hi)))]
    while len(sizes) < 5 and sum(sizes) < 13 and (len(sizes) == 1 or draw(st.booleans())):
        sizes.append(draw(st.integers(1, min(4, 13 - sum(sizes)))))
    coef = draw(_coefficients(scales))
    params = DbmParams(coef(sizes[0]), tuple(coef(s) for s in sizes[1:]),
                       tuple(coef(sizes[1], sizes[0]) if i == 0 else coef(sizes[i], sizes[i + 1])
                             for i in range(len(sizes) - 1)))
    return Case("dbm-marginal", make_dbm_marginal, params, _chunk(draw, 2 ** sizes[0]))


def _joint(kind: str):
    """Joint RBMs. "joint-long": 8 or 9 units a side, normal draws: both
    sides' lines are long, and lrep and delta_n build no table. Otherwise
    1-10 visibles and 0-8 hiddens, or 1-5 and more hiddens, to 10, with
    chunks of 4 and 16 on at most 2^12 outcomes. "joint-lopsided": normal
    draws, scattered signed zeros or pool values. "joint-tied": equal
    |biases| and coupling columns (rows and columns tie in pairs and runs),
    W = 0 (each row ties in each visible digit, each column in each hidden
    one), also theta_h = 0 (rows tie in their max and min), or every
    parameter a signed zero. ``line_digits`` 1 bounds every side line by
    line, 4 the sides of lines of 2^4 entries or more."""
    def build(draw, scales, lo, hi):
        if kind == "joint-long":
            nv = draw(st.integers(8, 9))
            nh = draw(st.integers(8, min(9, hi - nv)))
            chunk, structure = draw(st.sampled_from([None, 2**10])), "normal"
        else:
            chunk = draw(st.sampled_from([None, 4, 16]))
            most = min(hi, 18 if chunk is None else 12)
            if draw(st.booleans()):
                nv = draw(st.integers(max(1, lo - 10), min(5, (most - 1) // 2)))
                nh = draw(st.integers(max(nv + 1, lo - nv), min(10, most - nv)))
            else:
                nv = draw(st.integers(max(1, lo - 8), min(10, most)))
                nh = draw(st.integers(max(0, lo - nv), min(8, most - nv)))
            structure = draw(st.sampled_from(["normal", "signed_zeros", "pool"]
                                             if kind == "joint-lopsided"
                                             else ["ties", "uncoupled", "flat", "zero"]))
        scale = draw(st.sampled_from(scales))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        v, h, w = (rng.normal(size=size) * scale for size in (nv, nh, (nh, nv)))
        signs = lambda size: rng.choice([-1.0, 1.0], size=size)
        if structure == "ties":
            v, h, w = v[0] * signs(nv), h[:1] * signs(nh), np.repeat(w[:, :1], nv, axis=1)
        elif structure in ("uncoupled", "flat"):
            w = 0.0 * signs((nh, nv))
            h = 0.0 * signs(nh) if structure == "flat" else h
        elif structure == "pool":
            v, h, w = (rng.choice(_POOL, np.shape(a)) * scale for a in (v, h, w))
        elif structure in ("signed_zeros", "zero"):
            p = 0.5 if structure == "signed_zeros" else 1.0
            v, h, w = (np.where(rng.random(np.shape(a)) < p, 0.0 * signs(np.shape(a)), a)
                       for a in (v, h, w))
        return Case(kind, make_rbm_joint, RbmParams(v, h, w), chunk,
                    draw(st.sampled_from([None, 1, 4])))
    return build


def _joint_overflow(draw, scales, lo, hi):
    # |theta|_1 >= 1e308: 2(1 + gamma) T passes the largest float, so there
    # is no envelope; many scores overflow, and the full pass rejects them
    nv = draw(st.integers(1, 3))
    nh = draw(st.integers(max(0, 2 - nv), 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    big = [5e307, -5e307, 1e308, -1e308]
    params = RbmParams(rng.choice(big, nv), rng.choice(big, nh),
                       rng.choice([1e300, -1e300, 0.5, -0.0, 5e307], (nh, nv)))
    return Case("joint-overflow", make_rbm_joint, params)


KINDS = {**{kind: _iid(kind) for kind in ("uniform", "bernoulli", "multinomial")},
         **{kind: _graph(kind) for kind in ("graph", "graph-at", "graph-stats-first", "edge-zero")},
         **{kind: _joint(kind) for kind in ("joint-long", "joint-lopsided", "joint-tied")},
         "replicate": _replicate, "joint-overflow": _joint_overflow,
         "rbm-marginal": _rbm_marginal, "dbm-marginal": _dbm_marginal}


@st.composite
def models(draw, *kinds, scales=SCALES, min_digits=0, digits=18):
    """A Case of one of ``kinds`` (every kind by default) on 2^min_digits to
    2^digits outcomes, its coefficients at ``scales``. A long joint RBM has
    2^16 outcomes or more, and one near overflow 2^2 to 2^5."""
    kind = draw(st.sampled_from(kinds or tuple(KINDS)))
    return KINDS[kind](draw, scales, min_digits, digits)


# one kind of each model family; on 2^8 to 2^11 outcomes, for the reductions
# over a whole table in chunks of a few outcomes
ZOO_KINDS = ("uniform", "bernoulli", "multinomial", "graph", "rbm-marginal", "joint-lopsided",
             "joint-tied", "dbm-marginal")
ZOO = models(*ZOO_KINDS, scales=(1.0,), min_digits=8, digits=11)


def _joint_case(kind, v, h, w, chunk=None, line_digits=None) -> Case:
    return Case(kind, make_rbm_joint, RbmParams(v, h, w), chunk, line_digits)


# explicit joint draws, which every test of the envelope reads
JOINT_EXAMPLES = [
    _joint_case("joint-long", *(np.random.default_rng(16).uniform(-1, 1, s) for s in (8, 8, (8, 8)))),
    _joint_case("joint-tied", -0.0 * np.ones(10), np.zeros(8), np.zeros((8, 10))),
    _joint_case("joint-tied", np.full(10, 1e12), np.full(8, -1e12), np.full((8, 10), 3e11)),
    _joint_case("joint-tied", np.full(2, 0.5), np.zeros(10), np.full((10, 2), 0.25)),
    # both rows peak at 1.807 in exact arithmetic and in the table, but their
    # bounds round an ulp apart, the higher in row 1: row 0 must still be read
    _joint_case("joint-lopsided", [0.903, 0.904], [0.0], [[-0.206, 0.206]], line_digits=1),
    # W = 0: every row ties in each visible digit, and every column in each
    # hidden digit; the larger |theta_v| has delta_N read from every row
    _joint_case("joint-tied", [0.5, -0.75, 0.25, 1.0], [0.3, -0.3, 0.3], np.zeros((3, 4)), 4, 1),
    _joint_case("joint-tied", [0.5, -0.75, 0.25, 1.0], [0.3, -1.5, 0.3], np.zeros((3, 4)), 4, 1),
    # near overflow: the scores are finite, but 2(1 + gamma) T passes the
    # largest float, so there is no envelope and the full pass is taken
    _joint_case("joint-overflow", [4e307, 4e307], [4e307], [[1e300, 1e300]], line_digits=1),
]

# 7-node graphs, 2^21 outcomes in several default chunks: at scale 1e12,
# tied, signed zeros, and on subsets of the terms
SEVEN_NODE_GRAPHS = {
    "scale-1e12": (GRAPH_TERMS, (-0.4e12, 0.3e12, -0.1e12)),
    "tie": (GRAPH_TERMS, (0.0, 1.0, 0.0)),
    "signed-zeros": (GRAPH_TERMS, (-0.0, 0.0, -0.0)),
    "edges+two_stars": (("edges", "two_stars"), (2e8, -0.5e8)),
    "triangles": (("triangles",), (-3e-3,)),
}
_rng = np.random.default_rng(9)
# 9 visibles, 2^9 outcomes in 64 chunks of 8
DBM_NINE_VISIBLE = Case("dbm-marginal", make_dbm_marginal, DbmParams(
    _rng.standard_normal(9), tuple(_rng.standard_normal((2, 2))),
    (_rng.standard_normal((2, 9)), _rng.standard_normal((2, 2)))), chunk=8)

# explicit draws of the other kinds: the edge-zero family's documented
# theta, multi-chunk graph tables, one model of each unkeyed kind, and joint
# scores that overflow
MODEL_EXAMPLES = [
    Case("edge-zero", edge_zero_family(5), np.array([1.5, -0.25])),
    *(Case("graph", graph_family(7, terms), np.array(theta))
      for terms, theta in SEVEN_NODE_GRAPHS.values()),
    Case("graph-stats-first", graph_family(7, stats_first=True), np.array([-0.4, 0.3, -0.1])),
    Case("graph-stats-first", graph_family(6, stats_first=True), np.array([0.0, 1.0, 0.0])),
    Case("graph-at", graph_family(7, base=[0.2, 0.3, 0.1]), np.array([-0.4, 0.3, -0.1])),
    Case("bernoulli", lambda t: make_bernoulli(12, t), -1.3),
    Case("multinomial", lambda t: make_multinomial(7, t), np.array([0.7, -1.1, 0.25])),
    Case("rbm-marginal", make_rbm_marginal, RbmParams(
        [0.5, -1.0, 0.25, 2.0], [0.3, -0.7], [[1.0, -0.5, 0.25, 0.0], [-2.0, 0.5, 1.5, -0.25]])),
    Case("dbm-marginal", make_dbm_marginal, DbmParams(
        [0.5, -1.0, 0.25], ([0.3, -0.7], [1.1]),
        ([[1.0, -0.5, 0.25], [-2.0, 0.5, 1.5]], [[0.75], [-1.25]]))),
    DBM_NINE_VISIBLE,
    Case("uniform", lambda t: make_uniform(9, 3), 0.0),
    Case("replicate", lambda t: replicate(make_bernoulli(4, t), 3), 0.8),
    _joint_case("joint-overflow", [1e308, 1e308], [0.5], [[0.25, -0.5]]),
    _joint_case("joint-overflow", [1e308], [-1e308], [[1e308]]),
]
