"""The benchmark's own tests, at a tiny size (``--seconds 1``).

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's tier-1 collection (the file name does not
match ``test_*.py``) because every case runs real workloads.  Checks:

* every metric BENCHMARK.json names is printed with its unit, on every
  workload, untraced and traced, and every run passes its output checks;
* the selection AUC-PR, the teacher agreement and the oracle matrix hash
  repeat exactly across two runs of one seed;
* nothing outlives a run: no process of the run's session, no extra
  thread, no new ``/dev/shm`` segment -- also when the timeout kills it,
  and when ``run.py`` itself is killed;
* without the program's source the benchmark fails without a result.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WORKLOAD_METRICS = {
    "offline": {"label_series_per_s", "train_windows_per_s", "selection_auc_pr"},
    "serve": {"select_p50_ms", "select_tail_ms", "select_agreement"},
    "stream": {"tick_p50_ms", "tick_tail_ms", "stream_points_per_s"},
}
TINY_SECONDS = "1"
SEED = 3

_runs: dict = {}


def _arguments(workload: str, trace: int = 0, seed: int = SEED) -> list:
    return ["--workload", workload, "--seed", str(seed), "--seconds", TINY_SECONDS,
            "--trace", str(trace)]


def _invoke(workload: str, trace: int = 0, seed: int = SEED,
            cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *_arguments(workload, trace, seed)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _shm() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _session_members(session: int) -> list:
    """Pids of live processes whose session id is ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(entry))
    return members


def run_once(workload: str, trace: int = 0, seed: int = SEED, repeat: int = 0):
    """``(result, record, completed)`` of one tiny run, cached per key."""
    key = (workload, trace, seed, repeat)
    if key not in _runs:
        shm_before = _shm()
        completed = _invoke(workload, trace, seed)
        assert completed.returncode == 0, completed.stderr[-3000:]
        lines = completed.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        assert not _session_members(record["worker_pid"]), "a process of the run survived"
        assert _shm() <= shm_before, "the run left a /dev/shm segment"
        _runs[key] = (json.loads(lines[-1]), record, completed)
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, record, _ = run_once(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(printed["value"]), metric["name"]
        if not trace:
            assert printed["value"] > 0, metric["name"]
    for name in WORKLOAD_METRICS[workload]:
        value, unit = record["workload_metrics"][name]
        assert math.isfinite(value) and unit, name
    assert record["failed_ratio"] == 0.0
    assert record["seed"] == SEED and record["nproc"] >= 1
    assert record["blas_threads"] == 1 and record["repro_env"] == []
    if workload == "serve":
        # the cascade regime: the student alone answers most cache misses
        assert 0 < record["composition"]["escalated_share_of_misses"] < 0.6


def test_traced_offline_attributes_labelling_and_training():
    metrics = {k: v["value"] for k, v in run_once("offline", 1)[0]["metrics"].items()}
    detectors = sum(v for k, v in metrics.items() if k.startswith("detectors."))
    training = sum(v for k, v in metrics.items() if k.startswith("nn.")) \
        + metrics["selectors.teacher_s"]
    assert detectors > 0 and training > 0
    assert metrics["trace.overhead_ratio"] > 0
    assert 0 < metrics["core.kept_ratio"] <= 1


def test_answers_repeat_for_one_seed():
    first, second = run_once("offline")[1], run_once("offline", repeat=1)[1]
    assert first["matrix_hash"] == second["matrix_hash"]
    assert first["workload_metrics"]["selection_auc_pr"] == second["workload_metrics"]["selection_auc_pr"]
    first, second = run_once("serve")[1], run_once("serve", repeat=1)[1]
    assert first["workload_metrics"]["select_agreement"] == second["workload_metrics"]["select_agreement"]
    assert first["composition"] == second["composition"]


def test_nothing_outlives_a_run():
    for workload in WORKLOADS:
        record = run_once(workload)[1]
        assert record["threads_at_exit"] == 1 and record["os_threads_at_exit"] == 1


def _wait_until_gone(session: int, seconds: float = 10.0) -> list:
    deadline = time.monotonic() + seconds
    while _session_members(session) and time.monotonic() < deadline:
        time.sleep(0.1)
    return _session_members(session)


def test_timeout_kills_the_whole_process_group():
    shm_before = _shm()
    # run.py with a 4 s ceiling in place of its 170 s one
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.DEFAULT_TIMEOUT_S = 4.0; sys.exit(run.main(sys.argv[2:]))")
    completed = subprocess.run(
        [sys.executable, "-c", code, str(HERE), *_arguments("stream")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 124
    assert completed.stdout.strip() == ""
    pid = int(re.search(r"worker pid=(\d+)", completed.stderr).group(1))
    assert not _session_members(pid)
    assert _shm() <= shm_before


def test_killing_run_py_kills_the_worker():
    """SIGKILL leaves run.py no chance to clean up; the worker must still die."""
    shm_before = _shm()
    process = subprocess.Popen([sys.executable, str(HERE / "run.py"), *_arguments("stream")],
                               cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True)
    match = None
    try:
        for line in process.stderr:
            match = re.search(r"worker pid=(\d+)", line)
            if match:
                break
        assert match, "the worker never started"
        time.sleep(3)  # into the workload's set-up
        process.kill()
        process.wait(timeout=30)
        assert not _wait_until_gone(int(match.group(1))), "the worker outlived run.py"
    finally:
        process.kill()
        process.wait()
        process.stdout.close()
        process.stderr.close()
    assert _shm() <= shm_before


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _invoke("serve", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
