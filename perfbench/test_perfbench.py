"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They run every workload at reduced size through ``run.py``, check the
result line, the per-layer metrics and the span file, check the self-time
arithmetic on a synthetic span tree, and check that each oracle catches a
deliberately wrong foeslab.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPAN_KEYS = {"pass", "id", "name", "start_ns", "end_ns", "parent", "op", "info"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert f"{workload} failed_ratio = 0.0" in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "6", "--seconds", "1",
                     "--trace", "1", "--size", "small")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"]
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    layer_total = sum(metrics[f"{layer}.self_s"]["value"]
                      for layer in ("bench", *spans.LAYERS))
    assert layer_total == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    assert metrics["bench.self_s"]["value"] < 0.1 * metrics["trace.wall_s"]["value"]

    record = json.loads((HERE / "out" / f"result-{workload}-seed6-trace1.json").read_text())
    lines = (ROOT / record["spans_file"]).read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert rows and all(set(r) == SPAN_KEYS for r in rows)
    ids = {(r["pass"], r["id"]) for r in rows}
    for r in rows:
        assert r["end_ns"] >= r["start_ns"]
        assert r["parent"] is None or (r["pass"], r["parent"]) in ids
        assert (r["parent"] is None) == (r["name"] == spans.ROOT)


def test_self_times_subtract_direct_children():
    # root [0, 100) holds a [10, 60) and c [70, 90); a holds b [20, 30)
    tree = [
        (1, "cli.main", 10, 60, 0, "0:0", None),
        (2, "core.scores", 20, 30, 1, "0:0", None),
        (3, "cli.fmt", 70, 90, 0, "0:0", None),
        (0, "bench.op", 0, 100, None, "0:0", None),
    ]
    assert spans.self_times(tree) == {0: 30, 1: 40, 2: 10, 3: 20}
    t = spans.SpanTree(tree)
    assert t.layer_s("cli.main") == 40e-9
    assert t.inclusive_s("cli.main") == 50e-9
    assert sum(t.self_ns.values()) == 100


def test_tracer_nests_spans_and_restores_bindings():
    import foeslab.cli
    import foeslab.metrics

    original = foeslab.metrics.instability_report
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert foeslab.cli.instability_report is foeslab.metrics.instability_report
        assert foeslab.cli.instability_report.__wrapped__ is original
        model = foeslab.make_bernoulli(3, 0.5)
        tracer.run_op("0:0", lambda: foeslab.cli.instability_report(model))
    finally:
        tracer.uninstall()
    assert foeslab.cli.instability_report is original
    names = {s[1]: s for s in tracer.take()}
    assert names["metrics.instability_report"][4] == names[spans.ROOT][0]
    assert names["metrics.lrep"][4] == names["metrics.instability_report"][0]
    assert names["zoo.score_fn"][6] == 8


def run_small(workload: str, tmp_path: Path) -> list[dict]:
    ops = workloads.build(workload, 4, "small")
    return child.judge(ops, [child.run_pass(ops, tmp_path)], None)


def scale(fn, factor):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


MUTATIONS = {
    # normalizer off by 1e-6: every normalized output is wrong
    "log_sum_exp": ("chain", "foeslab.core", "log_sum_exp",
                    lambda fn: lambda v: fn(v) + 1e-6,
                    {"gibbs-bernoulli", "gibbs-trapped-graph", "gibbs-random-scan-multinomial",
                     "exact-sweep", "gibbs-rbm-large-space"}),
    "graph_statistics": ("sweep", "foeslab.zoo", "graph_statistics",
                         lambda fn: scale(fn, np.array([1.0, 1.0, 1.5])),
                         {"mh", "path", "psr", "modeset", "score"}),
    "figure1_log2cosh": ("sweep", "foeslab.experiments", "_log2cosh",
                         lambda fn: scale(fn, 1 + 1e-6), {"figure1"}),
    "hidden_absum": ("sweep", "foeslab.rbm_bounds", "hidden_absum",
                     lambda fn: scale(fn, 1 + 1e-6), {"bounds"}),
    "rbm_joint_score": ("cap", "foeslab.zoo", "rbm_joint_score",
                        lambda fn: scale(fn, 1 + 1e-6), {"lrep-rbm-joint"}),
    "delta_n": ("cap", "foeslab.metrics", "delta_n",
                lambda fn: lambda model: fn(model) + 1e-6, {"lrep-graph"}),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_oracles_catch_a_wrong_program(mutation, tmp_path, monkeypatch):
    import importlib

    workload, module, attr, make, must_fail = MUTATIONS[mutation]
    mod = importlib.import_module(module)
    monkeypatch.setattr(mod, attr, make(getattr(mod, attr)))
    failed = {op["name"] for op in run_small(workload, tmp_path) if op["failures"][0]}
    assert must_fail <= failed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracles_pass_on_the_program_as_is(workload, tmp_path):
    report = run_small(workload, tmp_path)
    assert [op["failures"] for op in report] == [[None]] * len(report)


def test_same_seed_same_inputs():
    a = workloads.build("sweep", 9, "small")
    b = workloads.build("sweep", 9, "small")
    c = workloads.build("sweep", 10, "small")
    assert [op.argv for op in a] == [op.argv for op in b] != [op.argv for op in c]


def test_memory_guard_turns_an_oversized_allocation_into_memory_error():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import child, numpy\n"
        "guard = child.install_memory_guard()\n"
        "try:\n"
        "    numpy.empty(int((guard['address_space_limit_mb'] + 1024) * 2**20), numpy.uint8)\n"
        "except MemoryError:\n"
        "    print('guarded')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "guarded", proc.stderr


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
