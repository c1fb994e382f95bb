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


def test_numpy_attributes_are_not_uses(tmp_path):
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from dead_names import dead_names
    finally:
        sys.path.pop(0)
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "ops.py").write_text("def where(c, a, b):\n    return a\n\n\ndef stack(xs):\n    return xs\n")
    (pkg / "use.py").write_text("import numpy as np\n\nnp.where(1, 2, 3)\nxs = [1]\nxs.stack\n")
    assert dead_names(tmp_path) == ["src/repro/ops.py::where"]
