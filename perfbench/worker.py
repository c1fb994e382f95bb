"""One benchmark run of one workload, in this process, on one thread.

Started by ``run.py`` (which owns the timeout and the environment); run
directly only for debugging.  Prints a ``record`` line (seed, platform,
workload composition, wall-clock figures, per-workload metrics such as
``select_p50_ms`` or ``selection_auc_pr``) and, as the last line of
standard output, the result object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

Untraced run (``--trace 0``): set up ``setup_repeats`` times, run the
timed pass once on the last set-up, check its outputs.  ``setup_s`` is
the median set-up time corrected for the machine's speed at that moment,
and operation times are reported in reference units (see ``timing.py``).
Traced run (``--trace 1``): set up once with spans on the set-up
boundaries, run the timed pass untraced and then again traced on fresh
service/engine state, check the traced pass, and report per-layer metrics;
the spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: <linux/prctl.h>
PR_SET_PDEATHSIG = 1

#: the end-to-end metrics and their units, as BENCHMARK.json names them
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "points_per_ref": "points/ref",
}


def blas_threads() -> int:
    """Thread count of the BLAS numpy loaded (-1 when it cannot be asked)."""
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return -1


def environment_record(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"repro imported from {repro.__file__}, not from {ROOT / 'src'}")
    if any(k.startswith("REPRO_") for k in os.environ):
        raise RuntimeError("REPRO_* variables must not reach the benchmark process")
    from repro.serving import configure_transform_cache

    configure_transform_cache(None)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    from timing import tail_percentile, timed_setup
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, seconds)
    record = {"workload": workload_name, "seconds": seconds, "trace": int(trace),
              "worker_pid": os.getpid(), **environment_record(seed)}
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_out"))
    try:
        if not trace:
            setup_wall, setup_corrected = [], []
            for _ in range(workload.setup_repeats):
                art, wall, corrected = timed_setup(lambda: workload.setup(workdir),
                                                   workload.reference)
                setup_wall.append(wall)
                setup_corrected.append(corrected)
                gc.collect()
            result = workload.run(art)
            checked = workload.check(art, result)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ops = result.timer.in_reference_units()
            p, tail = tail_percentile(ops)
            metrics = {
                "setup_s": statistics.median(setup_corrected),
                "op_p50_ref": float(statistics.median(ops)),
                "op_tail_ref": tail,
                "points_per_ref": result.points / float(ops.sum()),
            }
            units = END_TO_END_UNITS
            wall = result.timer.wall
            record.update(setup_wall_s=setup_wall, setup_corrected_s=setup_corrected,
                          tail_percentile=p,
                          peak_rss_mb=peak_rss_mb, wall_clock={
                              "op_p50_ms": 1e3 * statistics.median(wall),
                              "op_tail_ms": 1e3 * tail_percentile(wall)[1],
                              "points_per_s": result.points / sum(wall),
                              "train_windows_per_s": sum(v for v, _ in result.trainings)
                              / sum(s for _, s in result.trainings),
                              "reference_p50_ms": 1e3 * statistics.median(result.timer.refs),
                          })
        else:
            setup_tracer = Tracer()
            art = workload.setup(workdir, tracer=setup_tracer)
            gc.collect()
            untraced = workload.run(art)
            gc.collect()
            tracer = Tracer()
            try:
                result = workload.run(art, tracer=tracer)
            finally:
                tracer.restore()
            checked = workload.check(art, result)
            metrics = layers.per_layer_metrics(tracer, setup_tracer, result.wall_s,
                                               untraced.wall_s, result.stats)
            units = layers.PER_LAYER_UNITS
            trace_path = ROOT / ".perfbench_out" / f"{workload_name}-seed{seed}.spans.jsonl"
            tracer.dump(trace_path)
            record.update(spans=len(tracer.spans), spans_file=str(trace_path.relative_to(ROOT)),
                          untraced_wall_s=untraced.wall_s, traced_wall_s=result.wall_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(
        attempted=result.attempted, failed=result.failed,
        failed_ratio=result.failed / result.attempted,
        composition=result.composition,
        **checked,
        threads_at_exit=threading.active_count(),
        os_threads_at_exit=len(os.listdir("/proc/self/task")),
    )
    print(json.dumps({"record": record}, default=str), flush=True)
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def die_with_parent(parent: int) -> None:
    """SIGKILL this process when ``parent`` exits, however it exits.

    ``run.py`` kills the worker's process group on every exit path it
    controls; a parent-death signal covers the ones it does not (SIGKILL,
    the OOM killer).  A parent already gone before the request took effect
    is caught by comparing the parent pid.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != parent:
        os._exit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload in-process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", type=int, required=True,
                        help="pid of run.py; the worker dies when it does")
    args = parser.parse_args(argv)
    die_with_parent(args.parent)
    print(f"perfbench worker pid={os.getpid()}", file=sys.stderr, flush=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
