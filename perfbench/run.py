"""Benchmark entry point: one workload, one seed, one child process.

    python3 perfbench/run.py --workload {offline,serve,stream} --seed N \\
        --seconds S --trace {0,1}

Runs ``worker.py`` in a new process group with a hermetic environment:
every ``REPRO_*`` variable removed, BLAS/OpenMP pinned to one thread and
``PYTHONPATH`` pointing at this checkout's ``src``.  A hard timeout kills
the whole process group; whatever happens, the group is killed and reaped
before this process exits, so nothing the run started outlives it.  If
this process is killed before it can do so, the kernel kills the worker
(it asks for a parent-death signal when it starts).  On
success the worker's output is relayed and its last line is the result
object; on any failure nothing is printed to standard output and the exit
code is non-zero.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: hard per-run ceiling; a run must finish within 180 s
DEFAULT_TIMEOUT_S = 170.0

WORKLOAD_NAMES = ("offline", "serve", "stream")


def child_environment() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def kill_group(process: subprocess.Popen) -> None:
    """SIGKILL the child's whole process group, then reap the child."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--parent", str(os.getpid())]
    signal.signal(signal.SIGTERM, _terminate)
    process = subprocess.Popen(command, cwd=ROOT, env=child_environment(),
                               stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        output, _ = process.communicate(timeout=DEFAULT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {DEFAULT_TIMEOUT_S:.0f} s; "
              "process group killed", file=sys.stderr)
        return 124
    finally:
        kill_group(process)

    if process.returncode != 0:
        sys.stderr.write(output)
        print(f"perfbench: worker exited with {process.returncode}", file=sys.stderr)
        return process.returncode if process.returncode > 0 else 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
