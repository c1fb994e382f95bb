"""``tools/dead_names.py`` finds no public name in ``src/repro`` that only tests use."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_public_name_is_reached_only_by_tests():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "dead_names.py")],
                            capture_output=True, text=True, cwd=ROOT)
    assert result.stdout == ""
    assert result.returncode == 0, result.stderr
