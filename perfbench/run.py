"""foeslab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Each workload runs in child processes started from this one: a few that
only set up (import foeslab, generate the seeded inputs) to time set-up,
then one that also runs the workload's operation list in a closed loop.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it restate every metric with its quartiles and sample
count. The full record (environment, per-op output sha256, per-pass
figures) is written to ``perfbench/out/``.

Exits non-zero without a JSON line when any child fails to report, for
example when the checkout has no ``src/foeslab`` to import.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "cap", "chain")
SETUP_PROBES = 6
# Every child must have reported by then; the whole run must end within 180 s.
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    """A child process exited or timed out without reporting."""


def run_child(args: list[str], deadline: float) -> tuple[float, dict, dict | None]:
    """Start child.py; return (set-up seconds, READY payload, RESULT payload)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    setup = ready = result = None
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY":
                setup = time.perf_counter() - start
                ready = json.loads(payload)
            elif tag == "RESULT":
                result = json.loads(payload)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise ChildFailed(f"child {' '.join(args)} exited with code {code}")
    return setup, ready, result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload: str, seed: int, seconds: int, trace: int, size: str,
                 deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        setup, ready, _ = run_child([*base, "--setup-only"], deadline)
        setups.append(setup)
        imports.append(ready["import_s"])
    setup, ready, result = run_child(
        [*base, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if result is None:
        raise ChildFailed(f"{workload} child reported no result")
    setups.append(setup)
    imports.append(ready["import_s"])

    samples = {"setup_s": setups, "cli.import_s": imports}
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
        metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    else:
        samples.update({key: [p[key] for p in result["passes"]]
                        for key in ("wall_s", "items_per_s", "cpu_s")})
        samples["peak_rss_mb"] = [result["peak_rss_mb"]]
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    result["setup_s"] = setups
    result["cli_import_s"] = imports
    result["summary"] = {name: dict(zip(("q1", "median", "q3"), quartiles(vals)), n=len(vals))
                         for name, vals in samples.items()}
    result["metrics"] = metrics
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1))
    return result


def describe(workload: str, result: dict) -> list[str]:
    lines = []
    for name, m in result["metrics"].items():
        line = f"{workload} {name} = {m['value']!r} {m['unit']}"
        s = result["summary"].get(name)
        if s:
            line += f" (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
        lines.append(line)
    ratio = result["failed"] / result["attempted"]
    lines.append(f"{workload} failed_ratio = {ratio!r} ({result['failed']}/{result['attempted']})")
    for op in result["ops"]:
        for reason in sorted({f for f in op["failures"] if f}):
            lines.append(f"{workload} FAILED {op['name']}: {reason}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="foeslab benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small shrinks every op; for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "foeslab" / "cli.py").is_file():
        print(f"run.py: no foeslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         args.size, deadline)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print("\n".join(describe(name, result)))
    if args.workload == "all":
        metrics = {f"{name}.{key}": m for name, r in results.items()
                   for key, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
