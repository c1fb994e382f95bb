"""``tools/digests.py`` prints one well-formed line per output, and a flipped
bit in one output moves that output's line alone."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"^(train|distill)/(float64|float32)\.[\w.]+ [0-9a-f]{32}$")


@pytest.fixture(scope="module")
def digests():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import digests
    finally:
        sys.path.pop(0)
    return digests


def test_tiny_world_lines_are_well_formed():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py"), "--tiny"],
                            capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines and all(LINE.match(line) for line in lines), lines
    names = [line.split()[0] for line in lines]
    assert len(set(names)) == len(names)
    for precision in ("float64", "float32"):
        for name in ("train/{}.teacher.losses", "train/{}.teacher.predict_proba",
                     "train/{}.kdselector.losses", "train/{}.kdselector.predict_proba",
                     "distill/{}.student.encoder.fc1.weight",
                     "distill/{}.student.encoder.__buffer__.feat_mean",
                     "distill/{}.student.predict_proba", "distill/{}.student.threshold"):
            assert name.format(precision) in names


def test_a_flipped_last_bit_moves_its_line_only(digests):
    outputs = digests.collect(digests.TINY, precisions=("float64",))
    target = "float64.student.encoder.fc1.weight"
    flipped = []
    for group, name, value in outputs:
        if name == target:
            value = np.array(value, copy=True)
            value.reshape(-1).view(np.uint8)[-1] ^= 1
        flipped.append((group, name, value))
    before, after = digests.format_lines(outputs), digests.format_lines(flipped)
    moved = [a for a, b in zip(before, after) if a != b]
    assert len(before) == len(after)
    assert [line.split()[0] for line in moved] == [f"distill/{target}"]
