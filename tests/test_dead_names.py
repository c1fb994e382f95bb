"""``tools/dead_names.py`` finds no public name in ``src/repro`` that only tests use."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _dead_names(root, files):
    """``dead_names`` over a tree of ``src/repro`` files given as {name: source}."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from dead_names import dead_names
    finally:
        sys.path.pop(0)
    pkg = root / "src" / "repro"
    pkg.mkdir(parents=True)
    for name, source in files.items():
        (pkg / name).write_text(source)
    return dead_names(root)


def test_no_public_name_is_reached_only_by_tests():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "dead_names.py")],
                            capture_output=True, text=True, cwd=ROOT)
    assert result.stdout == ""
    assert result.returncode == 0, result.stderr


def test_numpy_attributes_are_not_uses(tmp_path):
    files = {"ops.py": "def where(c, a, b):\n    return a\n\n\ndef stack(xs):\n    return xs\n",
             "use.py": "import numpy as np\n\nnp.where(1, 2, 3)\nxs = [1]\nxs.stack\n"}
    assert _dead_names(tmp_path, files) == ["src/repro/ops.py::where", "src/repro/ops.py::stack"]


def test_a_parameter_of_the_same_name_is_not_a_use(tmp_path):
    files = {"ops.py": "def scale(x):\n    return x\n\n\ndef shift(x):\n    return x\n",
             "use.py": "from .ops import shift\n\n\ndef _run(scale, x):\n"
                       "    return [scale * v for v in shift(x)]\n"}
    assert _dead_names(tmp_path, files) == ["src/repro/ops.py::scale"]


def test_an_attribute_of_a_non_module_is_not_a_use(tmp_path):
    files = {"ops.py": "def enabled():\n    return True\n\n\ndef disabled():\n    return False\n",
             "use.py": "from . import ops\n\n\ndef _run(obj):\n"
                       "    return obj.enabled and ops.disabled()\n"}
    assert _dead_names(tmp_path, files) == ["src/repro/ops.py::enabled"]


BOX = ("class Box:\n    def open(self):\n        return 1\n\n"
       "    @property\n    def close(self):\n        return 0\n")


def test_a_method_only_tests_call_is_flagged(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_box.py").write_text("from repro.box import Box\n\nBox().close\n")
    files = {"box.py": BOX, "use.py": "from .box import Box\n\nBox().open()\n"}
    assert _dead_names(tmp_path, files) == ["src/repro/box.py::Box.close"]


def test_a_method_read_as_an_attribute_of_any_object_is_a_use(tmp_path):
    files = {"box.py": BOX, "use.py": "from .box import Box\n\n\ndef _run(obj):\n"
                                      "    obj.open = None\n    return Box, obj.open, obj.close\n"}
    assert _dead_names(tmp_path, files) == []


def test_every_shard_op_handler_has_a_sender():
    """``ShardServer._dispatch`` finds handlers by name (``_op_<op>``), which
    the tool cannot follow: the handlers must be exactly the ops the front
    end sends."""
    import ast

    from repro.service.shard import ShardServer

    tree = ast.parse((ROOT / "src" / "repro" / "service" / "frontend.py").read_text())
    sent = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # self._request(shard_id, "<op>", ...) and client.request("<op>", ...)
            position = {"_request": 1, "request": 0}.get(node.func.attr)
            if position is not None and len(node.args) > position:
                op = node.args[position]
                if isinstance(op, ast.Constant) and isinstance(op.value, str):
                    sent.add(op.value)
    handlers = {name[len("_op_"):] for name in vars(ShardServer) if name.startswith("_op_")}
    assert handlers == sent
