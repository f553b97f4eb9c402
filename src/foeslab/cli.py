"""Command-line interface: model diagnostics as reproducible CSV.

Every subcommand reads options from flags and/or a flat ``key = value``
config file (flags win), writes CSV to stdout or ``--out``, and exits 0 on
success, 2 on a usage/config error, 3 when an enumeration would exceed the
outcome budget or memory runs out. Floats are emitted with shortest
round-trip repr so output is byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    BudgetExceededError,
    CertificateError,
    DEFAULT_ENUMERATION_BUDGET,
    FoesModel,
    UniformModelError,
    _csv,
    _philox,
)
from .experiments import GridExperimentConfig, figure1_csv, run_figure1
from .metrics import (
    ParameterPath,
    PathThresholds,
    classify_path,
    delta_n,
    graph_lower_bound,
    instability_report,
    lrep,
    modal_set,
)
from .psr import check_psr, degeneracy_trend
from .rbm_bounds import bounds_report
from .samplers import (
    ChainConfig,
    expected_standardized_log_prob,
    expected_statistic,
    normalized_score,
    run_gibbs,
    run_param_mh,
)
from .zoo import (
    GraphModelSpec,
    LinearExpFamily,
    RbmParams,
    make_bernoulli,
    make_graph_model,
    make_multinomial,
    make_rbm_joint,
    make_rbm_marginal,
    make_uniform,
)


class ConfigError(Exception):
    """Malformed config file, flag combination, or model description."""


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got {text!r}") from exc


def read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def merge_config(args: argparse.Namespace, options: dict) -> dict:
    """Resolve option values: flag > config file > declared default."""
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, (cast, default, *_) in options.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_values:
            text = file_values[key]
            try:
                if isinstance(cast, tuple) and text not in cast:
                    raise ValueError(f"choose from {', '.join(cast)}")
                resolved[key] = text if isinstance(cast, tuple) else cast(text)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"config key {key} = {text!r}: {exc}") from exc
        else:
            resolved[key] = default
    unknown = set(file_values) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return resolved


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out_path}: "
                              f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# option tables and model construction from resolved option values
# ---------------------------------------------------------------------------

def _require(values: dict, *keys: str) -> None:
    missing = [k for k in keys if values.get(k) is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")


def rbm_params_from(values: dict) -> RbmParams:
    nv, nh = values["n_visible"], values["n_hidden"]
    theta_v = np.asarray(values["theta_v"], dtype=np.float64)
    theta_h = np.asarray(values["theta_h"] or [], dtype=np.float64)
    theta_vh = np.asarray(values["theta_vh"] or [], dtype=np.float64)
    if theta_v.size != nv or theta_h.size != nh or theta_vh.size != nv * nh:
        raise ConfigError("RBM parameter lengths must match n_visible/n_hidden")
    return RbmParams(theta_v, theta_h, theta_vh.reshape(nh, nv))


def _vector(theta, length: int | None, form: str) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if length is not None and theta.size != length:
        raise ConfigError(f"params must be {form}")
    return theta


def _multinomial(n: int, values: dict):
    k = None if values.get("thetas") is None else len(values["thetas"])
    return lambda th: make_multinomial(
        n, _vector(th, k, f"{k} category weights, one per --thetas entry"),
        budget=values["budget"])


class ModelKind(NamedTuple):
    """How the CLI sizes, reads and builds one kind of model."""

    size: str | None  # option holding N; None when the parameters carry it
    needs: tuple  # options the parameter object is read from
    params: Callable  # resolved values -> parameter object
    # (N, resolved values) -> constructor over one parameter object; it looks
    # up the zoo's make_* when it builds a model, not before
    family: Callable

    def read(self, values: dict):
        _require(values, *self.needs)
        return self.params(values)


KINDS = {
    "uniform": ModelKind(
        "n", (), lambda v: None,
        lambda n, v: lambda _: make_uniform(n, v["alphabet_size"],
                                            budget=v["budget"])),
    "bernoulli": ModelKind(
        "n", ("theta",), lambda v: v["theta"],
        lambda n, v: lambda th: make_bernoulli(
            n, float(_vector(th, 1, "(theta,)")[0]), budget=v["budget"])),
    "multinomial": ModelKind(
        "n", ("thetas",), lambda v: np.asarray(v["thetas"]), _multinomial),
    "graph": ModelKind(
        "nodes", ("theta1", "theta2", "theta3"),
        lambda v: (v["theta1"], v["theta2"], v["theta3"]),
        lambda nodes, v: lambda th: make_graph_model(
            GraphModelSpec(nodes, params=tuple(np.atleast_1d(th))),
            budget=v["budget"])),
    "rbm_marginal": ModelKind(
        None, ("n_visible", "theta_v"), rbm_params_from,
        lambda _, v: lambda p: make_rbm_marginal(p, budget=v["budget"])),
    "rbm_joint": ModelKind(
        None, ("n_visible", "theta_v"), rbm_params_from,
        lambda _, v: lambda p: make_rbm_joint(p, budget=v["budget"])),
}
MODEL_KINDS = tuple(KINDS)
# kinds sized by an option with a parameter vector: a parameter path and
# mh walk one of these
SIZED_KINDS = tuple(k for k, kind in KINDS.items() if kind.size and kind.needs)

# Each option is declared once, as key: (cast, default[, help]). The flag is
# --key with dashes for underscores and a config file takes the key itself.
# A tuple cast lists the values the flag and the config key accept.
GRAPH_OPTIONS = {
    "nodes": (int, None, "graph node count"),
    "theta1": (float, 0.0, "graph edge parameter"),
    "theta2": (float, 0.0, "graph 2-star parameter"),
    "theta3": (float, 0.0, "graph triangle parameter"),
}
RBM_OPTIONS = {
    "n_visible": (int, None),
    "n_hidden": (int, 0),
    "theta_v": (_float_list, None),
    "theta_h": (_float_list, None),
    "theta_vh": (_float_list, None),
}
BUDGET_OPTION = {"budget": (int, DEFAULT_ENUMERATION_BUDGET)}
MODEL_OPTIONS = {
    "model": (MODEL_KINDS, None),
    "n": (int, None, "variable count (iid models)"),
    "alphabet_size": (int, 2),
    "theta": (float, None, "scalar parameter"),
    "thetas": (_float_list, None, "comma-separated parameter vector"),
    **GRAPH_OPTIONS,
    **RBM_OPTIONS,
    **BUDGET_OPTION,
}


def model_family(values: dict) -> tuple[ModelKind, Callable]:
    """The --model kind and its constructor over one parameter object."""
    _require(values, "model")
    kind = KINDS[values["model"]]
    if kind.size:
        _require(values, kind.size)
    return kind, kind.family(values[kind.size] if kind.size else None, values)


def build_model(values: dict) -> FoesModel:
    """Construct the model a subcommand's options describe."""
    kind, family = model_family(values)
    return family(kind.read(values))


def parse_path_entries(text: str) -> list[tuple[int, np.ndarray]]:
    """Parse 'N:t1,t2;N:t1,t2;...' into (size, params) pairs."""
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        size_part, _, params_part = chunk.partition(":")
        try:
            size = int(size_part)
        except ValueError as exc:
            raise ConfigError(f"bad path entry {chunk!r}") from exc
        entries.append((size, np.asarray(_float_list(params_part))))
    if not entries:
        raise ConfigError("no path entries given")
    return entries


# ---------------------------------------------------------------------------
# subcommand implementations: resolved option values in, CSV text out
# ---------------------------------------------------------------------------

def cmd_lrep(values: dict) -> str:
    model = build_model(values)
    r = instability_report(model)
    return _csv([{"model": model.family, "n": r.n_variables, "lrep": r.lrep,
                  "scaled_lrep": r.scaled_lrep, "delta_n": r.delta_n,
                  "argmax_index": r.argmax_index, "argmin_index": r.argmin_index}])


def cmd_delta(values: dict) -> str:
    model = build_model(values)
    return _csv([{"model": model.family, "n": model.n_variables,
                  "delta_n": delta_n(model)}])


def cmd_modeset(values: dict) -> str:
    model = build_model(values)
    mset = modal_set(model, values["epsilon"])
    return _csv([{"model": model.family, "n": model.n_variables,
                  "epsilon": mset.epsilon, "threshold": mset.threshold,
                  "n_members": mset.n_members, "mass": mset.mass}])


def cmd_path(values: dict) -> str:
    _require(values, "family", "entries")
    entries = parse_path_entries(values["entries"])
    kind = KINDS[values["family"]]
    path = ParameterPath(lambda n, p: kind.family(n, values)(p), tuple(entries))
    verdict = classify_path(path, PathThresholds(values["flatness"], values["level"]))
    comments = [f"family = {values['family']}",
                f"verdict = {verdict.verdict}",
                f"trend_slope = {verdict.trend_slope!r}",
                "verdict is a finite-size heuristic, not an asymptotic claim"]
    rows = [{"n": n, "scaled_lrep": y}
            for n, y in zip(verdict.ns, verdict.scaled_lreps)]
    if values["epsilon"] is not None:
        masses = degeneracy_trend(path, values["epsilon"])
        for row, mass in zip(rows, masses):
            row["modal_mass"] = mass
        comments.insert(2, f"epsilon = {values['epsilon']!r}")
    return _csv(rows, comments)


def cmd_bounds(values: dict) -> str:
    if values["random_draws"] < 0:
        raise ConfigError("random_draws must be >= 0")
    draws = []
    if values["random_draws"]:
        _require(values, "n_visible")
        nv, nh = values["n_visible"], values["n_hidden"]
        w = values["half_width"]
        if not (w >= 0 and math.isfinite(2 * w)):
            raise ConfigError("half_width must be >= 0, with 2 * half_width finite")
        rng = _philox(values["seed"])
        for _ in range(values["random_draws"]):
            draws.append(RbmParams(rng.uniform(-w, w, nv),
                                   rng.uniform(-w, w, nh),
                                   rng.uniform(-w, w, (nh, nv))))
    else:
        draws.append(KINDS["rbm_joint"].read(values))
    rows = [{"draw": d, **asdict(bounds_report(params, budget=values["budget"]))}
            for d, params in enumerate(draws)]
    comments = [f"seed = {values['seed']}", f"half_width = {values['half_width']!r}"] \
        if values["random_draws"] else []
    return _csv(rows, comments)


def cmd_psr(values: dict) -> str:
    kind, family = model_family(values)
    theta = kind.read(values)
    if theta is None:
        raise ConfigError(f"model {values['model']!r} does not define a "
                          "sign-reversible family")
    return _csv([{"model": values["model"], **asdict(check_psr(family, theta))}])


def cmd_lowerbound(values: dict) -> str:
    _require(values, "nodes")
    graph, nodes = KINDS["graph"], values["nodes"]
    theta = graph.read(values)
    spec = GraphModelSpec(nodes, params=theta)
    row = {"nodes": nodes, **dict(zip(graph.needs, theta)),
           "bound": graph_lower_bound(spec), "scaled_lrep": None}
    if 2**spec.n_edges <= values["budget"]:
        row["scaled_lrep"] = lrep(graph.family(nodes, values)(theta)).scaled_lrep
    return _csv([row])


def cmd_gibbs(values: dict) -> str:
    model = build_model(values)
    init = None
    if values["init"] is not None and values["init"] != "random":
        init = tuple(int(v) for v in values["init"].split(","))
    config = ChainConfig(n_sweeps=values["sweeps"], burn_in=values["burn_in"],
                         seed=values["seed"], init_outcome=init)
    report = run_gibbs(model, config, epsilon=values["epsilon"], keep_trace=True)
    comments = [
        f"model = {model.family}", f"seed = {values['seed']}",
        f"epsilon = {values['epsilon']!r}",
        f"tv_distance = {report.tv_distance!r}",
        f"max_transition_log_ratio = {report.max_transition_log_ratio!r}",
        f"mode_escape_time = {report.mode_escape_time}",
        f"modal_occupancy = {report.modal_occupancy!r}",
    ]
    trace = report.trace
    # fl(s - log Z) at the visited states only
    log_probs = model.scores()[trace] - model.log_normalizer
    rows = [{"sweep": s, "outcome_index": idx, "log_prob": lp, "in_modal_set": m}
            for s, (idx, lp, m) in enumerate(zip(trace.tolist(), log_probs.tolist(),
                                                 report.modal.contains(trace).tolist()), 1)]
    return _csv(rows, comments)


def cmd_mh(values: dict) -> str:
    _require(values, "model", "data")
    if values["model"] not in SIZED_KINDS:
        raise ConfigError("mh needs a bernoulli, multinomial or graph family")
    kind, family = model_family(values)
    data = tuple(int(v) for v in values["data"].split(","))
    theta0 = values["theta0"]
    if theta0 is None:
        theta0 = kind.read(values)
    log_prior = _parse_prior(values["prior"])
    config = ChainConfig(n_sweeps=values["steps"], seed=values["seed"])
    # the kind's constructor checks theta0; each SIZED_KINDS family is linear
    # with params = theta, so proposals share the start's statistic table
    result = run_param_mh(family(theta0).at, data, config, theta0=theta0,
                          step_size=values["step_size"], log_prior=log_prior)
    rows = [{"step": step + 1,
             **{f"theta_{i}": float(t) for i, t in enumerate(result.thetas[step + 1])},
             "accepted": bool(result.accepted[step]),
             "log_alpha": float(result.log_alphas[step])}
            for step in range(result.accepted.size)]
    comments = [f"acceptance_rate = {result.acceptance_rate!r}",
                f"seed = {values['seed']}",
                f"step_size = {values['step_size']!r}",
                f"prior = {values['prior']}"]
    return _csv(rows, comments)


def _parse_prior(text: str):
    if text == "flat":
        return lambda th: 0.0
    if text.startswith("normal:"):
        try:
            scale = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad prior spec {text!r}") from exc
        # scale * scale overflows to inf where scale**2 would raise
        if not (scale > 0 and 0 < scale * scale < math.inf):
            raise ConfigError("normal prior scale must be positive, "
                              f"with a positive finite square: got {scale!r}")
        return lambda th: float(-0.5 * np.sum(np.asarray(th)**2) / scale**2)
    raise ConfigError(f"unknown prior {text!r} (use 'flat' or 'normal:SCALE')")


def cmd_score(values: dict) -> str:
    model = build_model(values)
    if not isinstance(model, LinearExpFamily):
        raise ConfigError("score needs a linear exponential family model")
    mu = expected_statistic(model)
    row = {"model": model.family, "n": model.n_variables,
           "mu": ";".join(repr(float(v)) for v in mu),
           "normalized_score": None, "expected_position": None}
    if model.n_params == 1:
        row["normalized_score"] = normalized_score(model)
    try:
        row["expected_position"] = expected_standardized_log_prob(model)
    except UniformModelError:
        pass
    return _csv([row])


def cmd_figure1(values: dict) -> str:
    # every other figure1 option is a GridExperimentConfig field of that name
    grid = {k: v for k, v in values.items() if k not in ("budget", "metrics")}
    metrics = tuple(m for m in values["metrics"].split(",") if m)
    config = GridExperimentConfig(**grid, metrics=metrics)
    return figure1_csv(run_figure1(config, budget=values["budget"]), config)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# subcommand: (implementation, help, options)
COMMANDS = {
    "lrep": (cmd_lrep, "extremal log-ratio report for one model", MODEL_OPTIONS),
    "delta": (cmd_delta, "largest one-flip log-ratio for one model", MODEL_OPTIONS),
    "modeset": (cmd_modeset, "modal set size and mass", {
        **MODEL_OPTIONS,
        "epsilon": (float, 0.1),
    }),
    "path": (cmd_path, "scaled-LREP trend along a parameter path", {
        "family": (SIZED_KINDS, None),
        "entries": (str, None, "'N:params;N:params;...' "
                               "(node count for the graph family)"),
        "epsilon": (float, None, "also report modal masses"),
        "flatness": (float, PathThresholds.flatness),
        "level": (float, PathThresholds.level),
        **BUDGET_OPTION,
    }),
    "bounds": (cmd_bounds, "RBM extremal-bound report", {
        **RBM_OPTIONS,
        **BUDGET_OPTION,
        "random_draws": (int, 0),
        "half_width": (float, 3.0),
        "seed": (int, 0),
    }),
    "psr": (cmd_psr, "parameter sign-reversal check", MODEL_OPTIONS),
    "lowerbound": (cmd_lowerbound, "closed-form graph-model bound", {
        **GRAPH_OPTIONS,
        **BUDGET_OPTION,
    }),
    "gibbs": (cmd_gibbs, "Gibbs chain trace with mixing diagnostics", {
        **MODEL_OPTIONS,
        "sweeps": (int, 10000),
        "burn_in": (int, 0),
        "seed": (int, 0),
        "epsilon": (float, 0.1),
        "init": (str, None, "comma-separated outcome or 'random'"),
    }),
    "mh": (cmd_mh, "random-walk MH over model parameters", {
        **MODEL_OPTIONS,
        "data": (str, None, "comma-separated data outcome"),
        "steps": (int, 1000),
        "step_size": (float, 0.5),
        "seed": (int, 0),
        "theta0": (_float_list, None),
        "prior": (str, "flat", "'flat' or 'normal:SCALE'"),
    }),
    "score": (cmd_score, "expected statistic and normalized score", MODEL_OPTIONS),
    "figure1": (cmd_figure1, "sphere-sampled magnitude grid experiment", {
        "n_visible": (int, GridExperimentConfig.n_visible),
        "n_hidden": (int, GridExperimentConfig.n_hidden),
        "magnitude_min": (float, GridExperimentConfig.magnitude_min),
        "magnitude_max": (float, GridExperimentConfig.magnitude_max),
        "n_breaks": (int, GridExperimentConfig.n_breaks),
        "samples_per_point": (int, GridExperimentConfig.samples_per_point),
        "seed": (int, GridExperimentConfig.seed),
        "metrics": (str, ",".join(GridExperimentConfig.metrics),
                    "comma subset of scaled_lrep,delta_n"),
        **BUDGET_OPTION,
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foeslab",
        description="Exact instability and degeneracy diagnostics for "
                    "finite discrete probability models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for key, (cast, _default, *doc) in options.items():
            accepts = {"choices": cast} if isinstance(cast, tuple) else {"type": cast}
            p.add_argument("--" + key.replace("_", "-"),
                           help=doc[0] if doc else None, **accepts)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output path (default stdout)")
        p.set_defaults(func=func, options=options)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        values = merge_config(args, args.options)
        # score tables are checked for finiteness; numpy's warnings add nothing
        with np.errstate(all="ignore"):
            _emit(args.func(values), args.out)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BudgetExceededError as exc:
        print(f"foeslab: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"foeslab: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 3
    except (CertificateError, ConfigError, ValueError) as exc:
        print(f"foeslab: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
