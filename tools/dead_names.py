#!/usr/bin/env python3
"""List the public names in ``src/repro`` that no shipped code uses.

A public top-level ``def`` or ``class`` of ``src/repro`` counts as used when
its name occurs as an identifier, an attribute or an imported name anywhere
in ``src/``, ``benchmarks/``, ``perfbench/``, ``examples/`` or ``tools/``
outside its own definition.  Imports in ``__init__.py`` (re-exports) do not
count, nor do attributes of NumPy (``np.where`` is not a use of a ``where``
in ``src/repro``), nor does text in strings and comments; ``tests/`` is not
read.  A class decorated with a ``register_*(...)`` call counts as used,
because a registry reaches it by name.

Prints ``path::name`` for each unused name and exits 1 if there is any.
Run as ``python tools/dead_names.py`` (standard library only).
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "perfbench", "examples", "tools")
NUMPY = ("np", "numpy")


def _registered(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", "").startswith("register_")
               for d in node.decorator_list)


def dead_names(root: Path = ROOT) -> list:
    defined, used = [], set()
    for path in sorted(p for top in SCANNED for p in (root / top).rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=rel)
        if rel.startswith("src/repro/"):
            defined += [(rel, n.name) for n in tree.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not n.name.startswith("_")
                        and not (isinstance(n, ast.ClassDef) and _registered(n))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                if getattr(node.value, "id", None) not in NUMPY:
                    used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py":
                used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return [f"{rel}::{name}" for rel, name in defined if name not in used]


if __name__ == "__main__":
    unused = dead_names()
    for line in unused:
        print(line)
    sys.exit(1 if unused else 0)
