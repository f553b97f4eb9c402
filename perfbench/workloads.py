"""The benchmark's workloads: seeded operation lists with oracle checks.

Each operation is one ``foeslab.cli.main(argv)`` call, except the two the
CLI has no command for (random-scan Gibbs and the exact sweep operator),
which call the library. The workload seed draws every parameter, data
outcome and chain seed; the program only sees the generated arguments.

Every operation has a check that recomputes its output without the fast
path it exercises, mostly through ``oracle`` (independent enumeration and
scoring). A check raises ``Mismatch`` with the reason.

``size="small"`` shrinks every operation for the benchmark's own tests;
the benchmark proper always runs ``size="full"``.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import foeslab
from foeslab.experiments import sample_on_sphere
from foeslab.rbm_bounds import bounds_report, f_theta

import oracle

WORKLOADS = ("sweep", "cap", "chain")
WORKLOAD_TAGS = {name: i for i, name in enumerate(WORKLOADS)}
TOL = 1e-9
EPSILON = 0.1


class Mismatch(Exception):
    """An operation's output disagrees with its oracle."""


@dataclass
class Op:
    """One operation of a workload.

    A CLI op has ``argv`` (``--out`` is appended by the harness) and its
    output is the file's bytes. A library op has ``call``, whose result
    ``dump`` turns into bytes outside the timed region. ``items`` is the
    op's work in its workload's unit. ``chain_model`` describes the model
    of a Gibbs op, for the one-sweep fixed-cost probe. ``memory_heavy``
    marks an op at the enumeration budget, run under the memory guard.
    """

    name: str
    items: int
    check: Callable[[bytes], None]
    argv: list | None = None
    call: Callable[[], object] | None = None
    dump: Callable[[object], bytes] | None = None
    chain_model: dict | None = None
    memory_heavy: bool = False


def expect(ok: bool, reason: str) -> None:
    if not ok:
        raise Mismatch(reason)


def close(a: float, b: float, what: str, tol: float = TOL) -> None:
    expect(abs(a - b) <= tol * max(1.0, abs(a), abs(b)), f"{what}: {a!r} != {b!r}")


def floats(values) -> str:
    """Comma-joined round-trip reprs; pass as ``--flag=value``, since a
    leading minus sign would otherwise read as a flag."""
    return ",".join(repr(float(v)) for v in np.ravel(values))


def parse_csv(data: bytes) -> tuple[dict, list[dict]]:
    """(comment key -> value, rows) of a foeslab CSV."""
    text = data.decode()
    comments = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, sep, val = line[2:].partition(" = ")
            if sep:
                comments[key] = val
        else:
            body.append(line)
    return comments, list(csv.DictReader(io.StringIO("\n".join(body))))


def graph_flags(theta) -> list[str]:
    return [f"--theta{i + 1}={float(t)!r}" for i, t in enumerate(theta)]


def build_model(desc: dict):
    """The foeslab model a description names."""
    kind = desc["kind"]
    if kind == "bernoulli":
        return foeslab.make_bernoulli(desc["n"], desc["theta"])
    if kind == "multinomial":
        return foeslab.make_multinomial(desc["n"], desc["thetas"])
    if kind == "graph":
        return foeslab.make_graph_model(
            foeslab.GraphModelSpec(desc["nodes"], params=tuple(desc["theta"])))
    if kind == "rbm_marginal":
        return foeslab.make_rbm_marginal(foeslab.RbmParams(
            desc["theta_v"], desc["theta_h"], desc["theta_vh"]))
    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# sweep: many exact models on small spaces
# ---------------------------------------------------------------------------

def figure1_op(seed: int, small: bool, rng) -> Op:
    # the CLI's default grid, spelled out so a changed default cannot change the op
    grid = (dict(n_visible=6, n_hidden=3, n_breaks=3, samples_per_point=4)
            if small else dict(n_visible=9, n_hidden=5, n_breaks=20,
                               samples_per_point=100))
    argv = ["figure1", "--seed", str(seed),
            *(f"--{key.replace('_', '-')}={value}" for key, value in grid.items())]
    cells = [int(c) for c in rng.choice(grid["n_breaks"] ** 2, size=3, replace=False)]

    def check(data: bytes) -> None:
        _, rows = parse_csv(data)
        nv, nh, spp = grid["n_visible"], grid["n_hidden"], grid["samples_per_point"]
        expect(len(rows) == grid["n_breaks"] ** 2, f"{len(rows)} grid rows")
        main_dim, int_dim = nv + nh, nv * nh
        for cell in cells:
            row = rows[cell]
            lreps, deltas = [], []
            for s in range(spp):
                key = np.array([seed, cell * spp + s], dtype=np.uint64)
                draw_rng = np.random.Generator(np.random.Philox(key=key))
                main = sample_on_sphere(main_dim, float(row["main_mag"]) * main_dim, draw_rng)
                inter = sample_on_sphere(int_dim, float(row["int_mag"]) * int_dim, draw_rng)
                model = foeslab.make_rbm_marginal(foeslab.RbmParams(
                    main[:nv], main[nv:], inter.reshape(nh, nv)))
                lreps.append(foeslab.lrep(model).scaled_lrep)
                deltas.append(foeslab.delta_n(model))
            close(float(row["mean_scaled_lrep"]), float(np.mean(lreps)),
                  f"cell {cell} mean_scaled_lrep")
            close(float(row["mean_delta_n"]), float(np.mean(deltas)),
                  f"cell {cell} mean_delta_n")

    return Op("figure1", grid["n_breaks"] ** 2 * grid["samples_per_point"], check,
              argv=argv)


def mh_op(seed: int, small: bool, rng) -> Op:
    nodes = 4 if small else 6
    steps = 20 if small else 200
    n_edges = nodes * (nodes - 1) // 2
    data = rng.integers(0, 2, n_edges)
    theta0 = rng.uniform(-0.5, 0.5, 3)
    chain_seed = int(rng.integers(2**31))
    argv = ["mh", "--model", "graph", "--nodes", str(nodes),
            "--data", ",".join(str(int(v)) for v in data),
            "--theta0=" + floats(theta0), "--steps", str(steps),
            "--step-size", "0.2", "--seed", str(chain_seed)]

    def check(out: bytes) -> None:
        _, rows = parse_csv(out)
        expect(len(rows) == steps, f"{len(rows)} MH rows for {steps} steps")
        stats = oracle.graph_counts(nodes, oracle.outcome_digits(n_edges, 2, 0, 2**n_edges))
        data_index = int(sum(int(b) << i for i, b in enumerate(data)))

        def log_lik(theta):
            s = stats @ theta
            m = s.max()
            return float(s[data_index] - m - np.log(np.exp(s - m).sum()))

        prev = theta0
        for row in rows:
            theta = np.array([float(row[f"theta_{i}"]) for i in range(3)])
            if row["accepted"] == "true":
                close(float(row["log_alpha"]), log_lik(theta) - log_lik(prev),
                      f"step {row['step']} log_alpha")
                prev = theta
            else:
                expect(np.array_equal(theta, prev), f"step {row['step']} moved on reject")

    return Op("mh", steps + 1, check, argv=argv)


def path_op(small: bool, rng) -> Op:
    theta = rng.uniform(-0.5, 0.5, 3)
    sizes = (4, 5, 6)
    entries = ";".join(f"{n}:{floats(theta)}" for n in sizes)
    argv = ["path", "--family", "graph", "--entries", entries, f"--epsilon={EPSILON!r}"]

    def check(out: bytes) -> None:
        _, rows = parse_csv(out)
        expect([int(r["n"]) for r in rows] == list(sizes), "path sizes")
        for row, nodes in zip(rows, sizes):
            desc = {"kind": "graph", "nodes": nodes, "theta": theta}
            s = oracle.scores(desc)
            close(float(row["scaled_lrep"]), float(s.max() - s.min()) / oracle.model_shape(desc)[0],
                  f"path n={nodes} scaled_lrep")
            logp = oracle.log_probs(desc)
            mass = float(np.exp(logp[oracle.modal_mask(logp, EPSILON)]).sum())
            close(float(row["modal_mass"]), mass, f"path n={nodes} modal_mass")

    return Op("path", 2 * len(sizes), check, argv=argv)


def bounds_op(small: bool, rng) -> Op:
    nv, nh, draws = (6, 4, 3) if small else (12, 8, 50)
    seed = int(rng.integers(2**31))
    half_width = 1.0
    picked = sorted(int(d) for d in rng.choice(draws, size=min(draws, 5), replace=False))
    argv = ["bounds", "--n-visible", str(nv), "--n-hidden", str(nh),
            "--random-draws", str(draws), "--seed", str(seed),
            f"--half-width={half_width!r}"]

    def check(out: bytes) -> None:
        _, rows = parse_csv(out)
        expect(len(rows) == draws, f"{len(rows)} bounds rows")
        # the CLI draws its parameters from one Philox stream keyed by (seed, 0)
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        for d in range(draws):
            tv = gen.uniform(-half_width, half_width, nv)
            th = gen.uniform(-half_width, half_width, nh)
            tvh = gen.uniform(-half_width, half_width, (nh, nv))
            if d not in picked:
                continue
            ref = oracle.rbm_bounds(tv, th, tvh)
            for key, value in ref.items():
                close(float(rows[d][key]), value, f"draw {d} {key}")

    return Op("bounds", draws, check, argv=argv)


def graph_desc(nodes: int, rng) -> dict:
    return {"kind": "graph", "nodes": nodes, "theta": rng.uniform(-0.5, 0.5, 3)}


def psr_op(small: bool, rng) -> Op:
    desc = graph_desc(4 if small else 6, rng)
    argv = ["psr", "--model", "graph", "--nodes", str(desc["nodes"]), *graph_flags(desc["theta"])]

    def check(out: bytes) -> None:
        row = parse_csv(out)[1][0]
        pos = oracle.log_probs(desc)
        neg = oracle.log_probs({**desc, "theta": -desc["theta"]})
        violation = float(np.abs(pos + neg - (pos.max() + neg.min())).max())
        expect(row["holds"] == "true", "sign reversal reported as failing")
        close(float(row["max_violation"]), violation, "max_violation")
        close(float(row["lrep_theta"]), float(pos.max() - pos.min()), "lrep_theta")
        close(float(row["lrep_neg_theta"]), float(neg.max() - neg.min()), "lrep_neg_theta")

    return Op("psr", 2, check, argv=argv)


def modeset_op(small: bool, rng) -> Op:
    desc = graph_desc(4 if small else 6, rng)
    argv = ["modeset", "--model", "graph", "--nodes", str(desc["nodes"]),
            *graph_flags(desc["theta"]), f"--epsilon={EPSILON!r}"]

    def check(out: bytes) -> None:
        row = parse_csv(out)[1][0]
        logp = oracle.log_probs(desc)
        mask = oracle.modal_mask(logp, EPSILON)
        close(float(row["threshold"]), (1 - EPSILON) * logp.max() + EPSILON * logp.min(),
              "threshold")
        expect(int(row["n_members"]) == int(mask.sum()), "modal set size")
        close(float(row["mass"]), float(np.exp(logp[mask]).sum()), "modal mass")

    return Op("modeset", 1, check, argv=argv)


def score_op(small: bool, rng) -> Op:
    desc = graph_desc(4 if small else 6, rng)
    argv = ["score", "--model", "graph", "--nodes", str(desc["nodes"]), *graph_flags(desc["theta"])]

    def check(out: bytes) -> None:
        row = parse_csv(out)[1][0]
        n, _ = oracle.model_shape(desc)
        p = np.exp(oracle.log_probs(desc))
        stats = oracle.graph_counts(desc["nodes"], oracle.outcome_digits(n, 2, 0, 2**n))
        for i, (got, want) in enumerate(zip(row["mu"].split(";"), p @ stats)):
            close(float(got), float(want), f"mu[{i}]")
        s = stats @ desc["theta"]
        close(float(row["expected_position"]),
              float(p @ ((s - s.min()) / (s.max() - s.min()))), "expected_position")

    return Op("score", 1, check, argv=argv)


def sweep_ops(seed: int, small: bool, rng) -> list[Op]:
    return [figure1_op(seed, small, rng), mh_op(seed, small, rng), path_op(small, rng),
            bounds_op(small, rng), psr_op(small, rng), modeset_op(small, rng),
            score_op(small, rng)]


# ---------------------------------------------------------------------------
# cap: a few models at the enumeration budget
# ---------------------------------------------------------------------------

def lrep_row(out: bytes) -> dict:
    return parse_csv(out)[1][0]


def joint_rbm_op(small: bool, rng) -> Op:
    nv, nh = (8, 6) if small else (14, 10)
    params = foeslab.RbmParams(rng.uniform(-1, 1, nv), rng.uniform(-1, 1, nh),
                               rng.uniform(-1, 1, (nh, nv)))
    argv = ["lrep", "--model", "rbm_joint", "--n-visible", str(nv), "--n-hidden", str(nh),
            "--theta-v=" + floats(params.visible), "--theta-h=" + floats(params.hidden),
            "--theta-vh=" + floats(params.interaction)]

    def check(out: bytes) -> None:
        row = lrep_row(out)
        n = nv + nh
        lrep = float(row["lrep"])
        expect(int(row["n"]) == n, "variable count")
        close(lrep, bounds_report(params).lrep_joint, "lrep vs bounds_report.lrep_joint")
        space = foeslab.OutcomeSpace(n, (-1, 1))

        def f(index: str) -> float:
            x = space.decode(int(index))
            return f_theta(params, x[:nv], x[nv:])

        close(lrep, f(row["argmax_index"]) - f(row["argmin_index"]), "lrep vs argmax/argmin")
        delta = float(row["delta_n"])
        expect(lrep / n - TOL <= delta <= lrep + TOL,
               f"delta_n {delta!r} outside [lrep/N, lrep]")

    return Op("lrep-rbm-joint", 2 ** (nv + nh), check, argv=argv, memory_heavy=not small)


def graph_cap_op(small: bool, rng) -> Op:
    desc = graph_desc(5 if small else 7, rng)
    nodes = desc["nodes"]
    argv = ["lrep", "--model", "graph", "--nodes", str(nodes), *graph_flags(desc["theta"])]
    n, _ = oracle.model_shape(desc)

    def check(out: bytes) -> None:
        row = lrep_row(out)
        s = oracle.scores(desc)
        lrep = float(row["lrep"])
        close(lrep, float(s.max() - s.min()), "lrep")
        close(s[int(row["argmax_index"])], s.max(), "score at argmax_index")
        close(s[int(row["argmin_index"])], s.min(), "score at argmin_index")
        close(float(row["delta_n"]), oracle.one_flip_max(s, n), "delta_n")
        # empty, complete and balanced complete-bipartite graphs bound LREP below
        half = set(range(nodes // 2))
        witnesses = np.array([[1] * n, [int((a in half) != (b in half))
                                        for a in range(nodes) for b in range(a + 1, nodes)]])
        bound = float(np.abs(oracle.graph_counts(nodes, witnesses) @ desc["theta"]).max()) / n
        scaled = float(row["scaled_lrep"])
        expect(scaled >= bound - TOL, f"scaled_lrep {scaled!r} below witness bound {bound!r}")
        expect(float(row["delta_n"]) >= scaled - TOL, "delta_n below scaled_lrep")

    return Op("lrep-graph", 2**n, check, argv=argv)


def cap_ops(seed: int, small: bool, rng) -> list[Op]:
    return [joint_rbm_op(small, rng), graph_cap_op(small, rng)]


# ---------------------------------------------------------------------------
# chain: Gibbs chains with their full trace
# ---------------------------------------------------------------------------

def check_trace(desc: dict, trace: np.ndarray, burn_in: int, tv: float,
                occupancy: float) -> np.ndarray:
    """Check a chain's reported TV and occupancy; return the exact log-probs."""
    logp = oracle.log_probs(desc)
    kept = trace[burn_in:]
    close(tv, oracle.tv_from_trace(kept, logp), "tv_distance")
    close(occupancy, float(oracle.modal_mask(logp, EPSILON)[kept].mean()), "modal_occupancy")
    return logp


def gibbs_op(name: str, desc: dict, flags: list, sweeps: int, burn_in: int, rng,
             init: str | None = None) -> Op:
    n, _ = oracle.model_shape(desc)
    argv = ["gibbs", *flags, "--sweeps", str(sweeps), "--burn-in", str(burn_in),
            "--seed", str(int(rng.integers(2**31))), f"--epsilon={EPSILON!r}"]
    if init is not None:
        argv += ["--init", init]

    def check(out: bytes) -> None:
        comments, rows = parse_csv(out)
        expect(len(rows) == sweeps, f"{len(rows)} trace rows for {sweeps} sweeps")
        expect([int(r["sweep"]) for r in rows] == list(range(1, sweeps + 1)), "sweep numbers")
        trace = np.array([int(r["outcome_index"]) for r in rows])
        logp = check_trace(desc, trace, burn_in, float(comments["tv_distance"]),
                           float(comments["modal_occupancy"]))
        got = np.array([float(r["log_prob"]) for r in rows])
        worst = float(np.abs(got - logp[trace]).max())
        expect(worst <= TOL * max(1.0, float(np.abs(logp).max())),
               f"trace log_prob off by {worst!r}")
        mask = oracle.modal_mask(logp, EPSILON)
        expect(all((r["in_modal_set"] == "true") == bool(mask[i]) for r, i in zip(rows, trace)),
               "in_modal_set column")

    return Op(name, sweeps * n, check, argv=argv, chain_model=desc)


def random_scan_op(small: bool, rng) -> Op:
    desc = {"kind": "multinomial", "n": 4, "thetas": rng.uniform(-1, 1, 3)}
    sweeps, burn_in = (500, 50) if small else (5000, 250)
    config = foeslab.ChainConfig(n_sweeps=sweeps, burn_in=burn_in,
                                 seed=int(rng.integers(2**31)))

    def call():
        return foeslab.run_gibbs(build_model(desc), config, epsilon=EPSILON,
                                 random_scan=True, keep_trace=True)

    def dump(report) -> bytes:
        return json.dumps({"tv_distance": report.tv_distance,
                           "modal_occupancy": report.modal_occupancy,
                           "max_transition_log_ratio": report.max_transition_log_ratio,
                           "trace": report.trace.tolist()}).encode()

    def check(out: bytes) -> None:
        got = json.loads(out)
        trace = np.array(got["trace"])
        expect(trace.size == sweeps, "trace length")
        check_trace(desc, trace, burn_in, got["tv_distance"], got["modal_occupancy"])

    return Op("gibbs-random-scan-multinomial", sweeps * desc["n"], check,
              call=call, dump=dump, chain_model=desc)


def exact_sweep_op(rng) -> Op:
    """One exact sweep of each stationarity-check model (acceptance criterion 10)."""
    descs = [
        {"kind": "bernoulli", "n": 6, "theta": float(rng.uniform(-1, 1))},
        {"kind": "multinomial", "n": 4, "thetas": rng.uniform(-1, 1, 3)},
        {"kind": "graph", "nodes": 4, "theta": rng.uniform(-0.8, 0.8, 3)},
        {"kind": "rbm_marginal", "theta_v": rng.uniform(-1, 1, 5),
         "theta_h": rng.uniform(-1, 1, 1), "theta_vh": rng.uniform(-1, 1, (1, 5))},
    ]

    def call():
        out = []
        for desc in descs:
            model = build_model(desc)
            out.append(foeslab.apply_gibbs_sweep(model, np.exp(model.log_probs())))
        return out

    def dump(dists) -> bytes:
        return json.dumps([d.tolist() for d in dists]).encode()

    def check(out: bytes) -> None:
        for desc, after in zip(descs, json.loads(out)):
            exact = np.exp(oracle.log_probs(desc))
            tv = 0.5 * float(np.abs(np.asarray(after) - exact).sum())
            expect(tv <= 1e-10, f"{desc['kind']} exact sweep moved TV {tv!r}")

    return Op("exact-sweep", 0, check, call=call, dump=dump)


def chain_ops(seed: int, small: bool, rng) -> list[Op]:
    bern = {"kind": "bernoulli", "n": 6, "theta": float(rng.uniform(0.25, 0.75))}
    trapped = {"kind": "graph", "nodes": 5, "theta": np.array([0.0, rng.uniform(1.5, 2.5), 0.0])}
    nv, nh = (10, 3) if small else (20, 4)
    rbm = {"kind": "rbm_marginal", "theta_v": rng.uniform(-0.3, 0.3, nv),
           "theta_h": rng.uniform(-0.3, 0.3, nh), "theta_vh": rng.uniform(-0.3, 0.3, (nh, nv))}
    scale = 20 if small else 1
    return [
        gibbs_op("gibbs-bernoulli", bern,
                 ["--model", "bernoulli", "--n", "6", f"--theta={bern['theta']!r}"],
                 50000 // scale, 1000 // scale, rng),
        gibbs_op("gibbs-trapped-graph", trapped,
                 ["--model", "graph", "--nodes", "5", *graph_flags(trapped["theta"])],
                 10000 // scale, 500 // scale, rng, init=",".join(["0"] * 10)),
        random_scan_op(small, rng),
        exact_sweep_op(rng),
        gibbs_op("gibbs-rbm-large-space", rbm,
                 ["--model", "rbm_marginal", "--n-visible", str(nv), "--n-hidden", str(nh),
                  "--theta-v=" + floats(rbm["theta_v"]), "--theta-h=" + floats(rbm["theta_h"]),
                  "--theta-vh=" + floats(rbm["theta_vh"])],
                 200 // (4 if small else 1), 0, rng),
    ]


BUILDERS = {"sweep": sweep_ops, "cap": cap_ops, "chain": chain_ops}


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The workload's operations, drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOAD_TAGS[workload]])
    return BUILDERS[workload](seed, size == "small", rng)


def chain_fixed_cost(op: Op) -> float:
    """Seconds for a one-sweep chain on a fresh copy of the op's model."""
    model = build_model(op.chain_model)
    start = time.perf_counter()
    foeslab.run_gibbs(model, foeslab.ChainConfig(n_sweeps=1))
    return time.perf_counter() - start
