"""Helpers shared by the test modules: child processes that import this
checkout's foeslab, whatever PYTHONPATH says."""

import os
import subprocess
import sys

import foeslab

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
