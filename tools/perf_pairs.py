#!/usr/bin/env python3
"""Paired perfbench runs of a parent and a change, appended to a ledger.

    python3 tools/perf_pairs.py --parent HEAD --pairs 10 --seed 3 \\
        [--workloads stream offline serve] [--seconds 12] \\
        [--workdir DIR] [--label TEXT] [--ledger BENCH_perfbench.json]

Both sides are extracted with ``git archive`` into sibling directories of
a fresh work directory: the parent ref, and as the change the working
tree (tracked and untracked files that are not ignored, snapshotted
through a temporary index, so the real index is untouched).
Each side then runs the benchmark command of ``BENCHMARK.json``
(``perfbench/run.py``) once per pair and workload, each run a new process.
The side that runs first alternates from pair to pair, so a drift of the
machine's speed over the session does not fall on one side.

One record is appended to the ledger (a JSON list): the date, both
sides' ref (``worktree`` for the change), commit, tree and ``src`` tree,
``nproc``, the Python and numpy versions, seed, seconds and, per
workload, every end-to-end metric of ``BENCHMARK.json`` with each side's
runs, median and quartiles, the number of pairs the change wins, the
metric's bound and whether the change's median stays within it, plus
each side's ``failed`` counts and, where the workload reports them, its
distinct answers (``offline``: ``matrix_hash``, ``selection_auc_pr``).
Beside the ``ref``-unit metrics, each workload keeps both sides' wall-clock
figures per run (``wall_clock``: the operations' median and tail ms, the
reference workload's median ms, the median set-up wall seconds and the
selector training's windows per second), so a reader can tell a program
change from a move of the reference.  The
wall-clock summary also holds ``reference_shift``, the change's median
reference time over the parent's minus one, and ``reference_moved``, set
when that shift exceeds ``REFERENCE_MOVE`` either way; the tool then
prints which ``ref`` metrics the shift distorts.
A run that exits non-zero stops the tool before anything is written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: a relative shift of the median reference time beyond which it "moved"
REFERENCE_MOVE = 0.03


def run_order(pair: int) -> Tuple[str, str]:
    """The sides of pair ``pair`` in the order they run: the parent first on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """First quartile, median and third quartile, linearly interpolated."""
    ordered = sorted(values)

    def at(q: float) -> float:
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return {"q1": at(0.25), "median": at(0.5), "q3": at(0.75)}


def summarise(pairs: Sequence[Tuple[dict, dict]], spec: dict) -> dict:
    """One workload's pairs of perfbench results, summarised per end-to-end metric.

    ``pairs`` holds (parent, change) results as ``perfbench/run.py`` prints
    them on its last line; ``spec`` is ``BENCHMARK.json``.  A pair is a win
    when the change's value is strictly better than the parent's in the
    metric's direction; ``within_bound`` compares the medians against the
    metric's relative bound, ``unresolved`` flags a side whose quartiles
    lie further apart than the bound (relative to its median) unless every
    change run beats every parent run, and ``clear_gain`` asks for wins in
    at least nine of ten pairs and a median gain larger than the parent's
    interquartile range.
    """
    summary = {"pairs": len(pairs),
               "failed": {side: [result["failed"] for result in column]
                          for side, column in zip(SIDES, zip(*pairs))},
               "metrics": {}}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [result["metrics"][name]["value"] for result in column]
                  for side, column in zip(SIDES, zip(*pairs))}
        stats = {side: quartiles(values[side]) for side in SIDES}
        sign = -1.0 if lower else 1.0
        wins = sum(sign * (change - parent) > 0 for parent, change in zip(*values.values()))
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        limit = parent * (1.0 + metric["bound"]) if lower else parent * (1.0 - metric["bound"])
        spread = max(((stats[side]["q3"] - stats[side]["q1"]) / abs(stats[side]["median"])
                      for side in SIDES if stats[side]["median"]), default=0.0)
        separated = min(sign * v for v in values["change"]) > max(sign * v for v in values["parent"])
        summary["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **stats, "runs": values, "change_wins": wins,
            "change_over_parent": change / parent if parent else None,
            "within_bound": change <= limit if lower else change >= limit,
            "unresolved": spread > metric["bound"] and not separated,
            "clear_gain": (10 * wins >= 9 * len(pairs)
                           and sign * (change - parent) > stats["parent"]["q3"] - stats["parent"]["q1"]),
        }
    return summary


def wall_clock(record: dict) -> Dict[str, float]:
    """One run's wall-clock figures, from the record ``perfbench/run.py`` prints.

    A ``ref`` metric divides by the reference workload's time, which moves
    with the worker's memory layout as well as with the program; these
    figures show which of the two moved.  ``train_windows_per_s`` is the
    throughput of the run's selector fits (``offline``'s KDSelector, the
    teacher of ``serve`` and ``stream``), which no end-to-end metric gates.
    """
    clock = record["wall_clock"]
    return {"op_p50_ms": clock["op_p50_ms"],
            "op_tail_ms": clock["op_tail_ms"],
            "reference_p50_ms": clock["reference_p50_ms"],
            "setup_wall_s": statistics.median(record["setup_wall_s"]),
            "train_windows_per_s": clock["train_windows_per_s"]}


def summarise_wall_clock(record_pairs: Sequence[Tuple[dict, dict]]) -> dict:
    """Each side's runs and quartiles of every :func:`wall_clock` figure.

    ``record_pairs`` holds (parent, change) run records; no bound or win is
    judged on these figures.  ``reference_shift`` compares the two sides'
    median reference times and ``reference_moved`` flags a shift beyond
    ``REFERENCE_MOVE``.
    """
    summary: Dict[str, object] = {}
    for side, column in zip(SIDES, zip(*record_pairs)):
        figures = [wall_clock(record) for record in column]
        for name in figures[0]:
            runs = [f[name] for f in figures]
            summary.setdefault(name, {})[side] = {**quartiles(runs), "runs": runs}
    reference = summary["reference_p50_ms"]
    shift = reference["change"]["median"] / reference["parent"]["median"] - 1.0
    summary["reference_shift"] = shift
    summary["reference_moved"] = abs(shift) > REFERENCE_MOVE
    return summary


def reference_note(workload: str, summary: dict) -> Optional[str]:
    """A line naming a moved reference and the ``ref`` metrics it distorts, else ``None``.

    A ``ref`` metric counts each operation in reference times
    (``points_per_ref`` divides the points by their sum), so a reference
    that runs faster in the change's processes makes every ``ref`` metric
    read worse for the change by the same factor, and a slower one better.
    """
    clock = summary["wall_clock"]
    if not clock["reference_moved"]:
        return None
    shift = clock["reference_shift"]
    distorted = [name for name, metric in summary["metrics"].items()
                 if metric["unit"].split("/")[-1] == "ref"]
    return (f"{workload} reference moved: the change's reference_p50_ms is {100 * shift:+.1f} % "
            f"off the parent's, so {', '.join(distorted)} read {'better' if shift > 0 else 'worse'} "
            f"for the change by that alone")


def append_record(ledger: Path, record: dict) -> None:
    records = json.loads(ledger.read_text()) if ledger.exists() else []
    records.append(record)
    ledger.write_text(json.dumps(records, indent=1) + "\n")


# --------------------------------------------------------------------------- #
def git(*args: str, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def worktree_tree(scratch: Path) -> str:
    """The working tree as a git tree object, written through a temporary index."""
    env = dict(os.environ, GIT_INDEX_FILE=str(scratch / "worktree.index"))
    git("read-tree", "HEAD", env=env)
    git("add", "-A", env=env)
    return git("write-tree", env=env)


def extract(tree: str, target: Path) -> None:
    archive = target.with_suffix(".tar")
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", "--format=tar", tree], cwd=ROOT, stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()


def run_once(checkout: Path, command: List[str], workload: str, seed: int,
             seconds: float) -> Tuple[dict, dict]:
    """(result, record) of one perfbench run in ``checkout``."""
    done = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"perf_pairs: {workload} in {checkout} exited with {done.returncode}")
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    record = next((line["record"] for line in lines if "record" in line), {})
    return lines[-1], record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="workloads to run (default: all of BENCHMARK.json)")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="where to extract both sides (default: a temporary directory)")
    parser.add_argument("--label", default="", help="free text stored with the record")
    parser.add_argument("--ledger", type=Path, default=ROOT / "BENCH_perfbench.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    workdir = Path(tempfile.mkdtemp(prefix="perf-pairs-", dir=args.workdir))
    try:
        sides = {"parent": {"ref": args.parent,
                            "commit": git("rev-parse", f"{args.parent}^{{commit}}"),
                            "tree": git("rev-parse", f"{args.parent}^{{tree}}")},
                 "change": {"ref": "worktree", "commit": git("rev-parse", "HEAD"),
                            "tree": worktree_tree(workdir)}}
        for side, info in sides.items():
            extract(info["tree"], workdir / side)
            info["src_tree"] = git("rev-parse", f"{info['tree']}:src")
        results, environment = {}, {}
        for workload in workloads:
            pairs, record_pairs, answers = [], [], {side: set() for side in SIDES}
            for pair in range(args.pairs):
                outcome, records = {}, {}
                for side in run_order(pair):
                    start = time.perf_counter()
                    outcome[side], record = run_once(workdir / side, spec["command"],
                                                     workload, args.seed, seconds)
                    records[side] = record
                    environment = environment or {key: record.get(key)
                                                  for key in ("nproc", "python", "numpy")}
                    if "matrix_hash" in record:
                        answers[side].add((record["matrix_hash"], record["workload_metrics"]
                                           ["selection_auc_pr"][0]))
                    values = ", ".join(f"{name}={metric['value']:.4g}"
                                       for name, metric in outcome[side]["metrics"].items())
                    print(f"{workload} pair {pair + 1}/{args.pairs} {side}: {values} "
                          f"({time.perf_counter() - start:.0f} s)", file=sys.stderr, flush=True)
                pairs.append((outcome["parent"], outcome["change"]))
                record_pairs.append((records["parent"], records["change"]))
            results[workload] = summarise(pairs, spec)
            results[workload]["wall_clock"] = summarise_wall_clock(record_pairs)
            if any(answers.values()):
                results[workload]["answers"] = {side: sorted(a) for side, a in answers.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"label": args.label, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              **sides, **environment, "seed": args.seed, "seconds": seconds,
              "first_side": "alternating, parent first", "workloads": results}
    append_record(args.ledger, record)
    for workload, summary in results.items():
        for name, metric in summary["metrics"].items():
            print(f"{workload} {name}: parent {metric['parent']['median']:.4g} "
                  f"change {metric['change']['median']:.4g} "
                  f"(change wins {metric['change_wins']}/{summary['pairs']})")
        for name, sides in summary["wall_clock"].items():
            if isinstance(sides, dict):
                print(f"{workload} wall_clock {name}: parent {sides['parent']['median']:.4g} "
                      f"change {sides['change']['median']:.4g}")
        note = reference_note(workload, summary)
        if note:
            print(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
