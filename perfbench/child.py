"""One workload in its own process: import, generate inputs, run, report.

Prints ``READY {...}`` once foeslab is imported and the inputs exist (the
parent times set-up up to that line), then, unless ``--setup-only``, runs
the workload's operation list in a closed loop and prints ``RESULT {...}``.

A pass runs every operation once. Passes repeat while the next one is
expected to finish within ``--seconds``; there is always at least one.
With ``--trace 1`` passes alternate untraced and traced, so the difference
of their medians is the tracing overhead. Oracle checks run after the last
pass, outside every timed region, on the first pass's outputs; later
passes must reproduce those bytes exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Address space kept free below the memory guard's limit for other processes.
GUARD_MARGIN_MB = 256
# Just under glibc's 32 MB cap on its dynamic mmap threshold; see warm_allocator.
ALLOCATOR_WARMUP_BYTES = 30 * 2**20


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def import_foeslab() -> float:
    """Import foeslab from this checkout's ``src``; return the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import foeslab.cli
    elapsed = time.perf_counter() - start
    if not Path(foeslab.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"foeslab came from {foeslab.cli.__file__}, not {ROOT / 'src'}")
    return elapsed


def meminfo_mb() -> dict:
    out = {}
    with open("/proc/meminfo") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            out[key] = int(rest.split()[0]) / 1024
    return out


def available_mb() -> float:
    """MemAvailable, lowered to the cgroup's remaining limit when there is one."""
    avail = meminfo_mb()["MemAvailable"]
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = int(Path("/sys/fs/cgroup/memory.current").read_text())
        if limit != "max":
            avail = min(avail, (int(limit) - used) / 2**20)
    except (OSError, ValueError):
        pass
    return avail


def install_memory_guard() -> dict:
    """Cap this process's address space at what the machine has free.

    An allocation past the cap raises MemoryError inside the operation,
    which then counts as failed with that reason, instead of the machine
    swapping or the kernel killing a process.
    """
    avail = available_mb()
    with open("/proc/self/status") as fh:
        vm_size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:")) / 1024
    limit_mb = vm_size + max(avail - GUARD_MARGIN_MB, 0.0)
    resource.setrlimit(resource.RLIMIT_AS, (int(limit_mb * 2**20), resource.RLIM_INFINITY))
    return {"mem_available_mb": avail, "vm_size_mb": vm_size, "address_space_limit_mb": limit_mb}


def warm_allocator() -> None:
    """Free one large block so every pass starts from the same allocator state.

    glibc serves a block above its mmap threshold with fresh, page-faulting
    pages, and raises the threshold to the size of each such block freed.
    Without this, the first pass's figure1 temporaries (2 MB each) fault on
    every cell, while later passes reuse heap pages that the bigger arrays of
    earlier ops left behind. The two cost up to 25% apart.
    """
    import numpy as np
    np.ones(ALLOCATOR_WARMUP_BYTES // 8)


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or None if it cannot be read."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = None
    threads = blas_threads()
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_within_nproc": None if threads is None else threads <= os.cpu_count(),
        "mem_total_mb": meminfo_mb()["MemTotal"],
    }


def run_pass(ops, out_dir: Path, tracer=None, pass_no: int = 0) -> list[dict]:
    """Run every op once; per op: wall and CPU seconds, output bytes or error."""
    import foeslab.cli as cli

    records = []
    for i, op in enumerate(ops):
        path = out_dir / f"{i:02d}-{op.name}.out"

        def execute(op=op, path=path):
            if op.argv is not None:
                return cli.main(op.argv + ["--out", str(path)])
            return op.call()

        error = result = data = None
        start, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            result = tracer.run_op(f"{pass_no}:{i}", execute) if tracer else execute()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
        if error is None:
            if op.argv is None:
                data = op.dump(result)
            elif result != 0:
                error = f"exit code {result}"
            else:
                data = path.read_bytes()
        records.append({"wall_s": wall, "cpu_s": cpu, "error": error, "data": data})
    return records


def run_passes(ops, seconds: float, out_dir: Path, tracer=None):
    """Closed loop: passes until the next one would end past ``seconds``.

    With a tracer, passes alternate untraced and traced, starting untraced,
    and there are at least two. Returns the passes and, per pass, its spans
    (None for an untraced pass).
    """
    passes, span_lists = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.install()
            try:
                passes.append(run_pass(ops, out_dir, tracer, len(passes)))
            finally:
                tracer.uninstall()
            span_lists.append(tracer.take())
        else:
            passes.append(run_pass(ops, out_dir))
            span_lists.append(None)
        longest = max(longest, time.perf_counter() - t0)
        if (len(passes) >= (2 if tracer else 1)
                and time.perf_counter() - start + longest > seconds):
            return passes, span_lists


def pass_totals(ops, records) -> dict:
    wall = sum(r["wall_s"] for r in records)
    items = sum(op.items for op, r in zip(ops, records) if r["error"] is None)
    return {"wall_s": wall, "cpu_s": sum(r["cpu_s"] for r in records),
            "items": items, "items_per_s": items / wall}


def judge(ops, passes, guard) -> list[dict]:
    """Per op: output digest, oracle verdict and the failure of every pass."""
    report = []
    for op, runs in zip(ops, zip(*passes)):
        first = next((r["data"] for r in runs if r["data"] is not None), None)
        digest = None if first is None else hashlib.sha256(first).hexdigest()
        oracle_error = None
        if first is not None:
            try:
                op.check(first)
            except Exception as exc:  # any oracle exception fails the op
                oracle_error = f"oracle: {type(exc).__name__}: {exc}"
        failures = []
        for r in runs:
            reason = r["error"] or oracle_error
            if reason is None and hashlib.sha256(r["data"]).hexdigest() != digest:
                reason = "output bytes differ from the first pass"
            if reason and reason.startswith("MemoryError") and guard:
                reason += f" (memory guard: {guard['mem_available_mb']:.0f} MB available)"
            failures.append(reason)
        report.append({
            "name": op.name,
            "argv": op.argv,
            "items": op.items,
            "sha256": digest,
            "bytes": None if first is None else len(first),
            "wall_s": [r["wall_s"] for r in runs],
            "failures": failures,
        })
    return report


def layer_report(ops, passes, span_lists, out_dir: Path) -> dict:
    """Per-layer metrics of a traced run; writes its spans to ``out_dir``."""
    import spans
    import workloads
    per_pass = []
    for records, pass_spans in zip(passes, span_lists):
        if pass_spans is not None:
            bytes_out = sum(len(r["data"]) for op, r in zip(ops, records)
                            if op.argv is not None and r["data"] is not None)
            per_pass.append(spans.layer_metrics(pass_spans, bytes_out))
    layers = spans.median_pass(per_pass)
    untraced_wall = statistics.median(
        pass_totals(ops, records)["wall_s"]
        for records, pass_spans in zip(passes, span_lists) if pass_spans is None)
    traced_wall = statistics.median(m["trace.wall_s"][0] for m in per_pass)
    layers["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    layers["samplers.gibbs_fixed_s"] = (
        sum((workloads.chain_fixed_cost(op) for op in ops if op.chain_model), 0.0), "s")
    spans_path = out_dir / "spans.jsonl"
    spans.write_spans(spans_path, [(i, sp) for i, sp in enumerate(span_lists) if sp is not None])
    return {"layers": layers, "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_s = import_foeslab()
    sys.path.insert(0, str(HERE))
    import workloads
    ops = workloads.build(args.workload, args.seed, args.size)
    print("READY " + json.dumps({"import_s": import_s}), flush=True)
    if args.setup_only:
        return 0

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    guard = install_memory_guard() if any(op.memory_heavy for op in ops) else None
    warm_allocator()
    result = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "memory_guard": guard}
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    passes, span_lists = run_passes(ops, args.seconds, out_dir, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        result.update(layer_report(ops, passes, span_lists, out_dir))
    result["passes"] = [{**pass_totals(ops, records), "traced": pass_spans is not None}
                        for records, pass_spans in zip(passes, span_lists)]
    result["ops"] = judge(ops, passes, guard)
    result["attempted"] = len(ops) * len(passes)
    result["failed"] = sum(f is not None for op in result["ops"] for f in op["failures"])
    result["peak_rss_mb"] = peak_rss_mb
    result["env"] = environment()
    for path in out_dir.glob("*.out"):
        path.unlink()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
