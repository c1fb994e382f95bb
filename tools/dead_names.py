#!/usr/bin/env python3
"""List the public names in ``src/repro`` that no shipped code uses.

A public top-level ``def`` or ``class`` of ``src/repro`` counts as used when
its name is imported, read as a module-level name, or read as an attribute
of an imported module, anywhere in ``src/``, ``benchmarks/``, ``perfbench/``,
``examples/`` or ``tools/``.  A bare name counts only where it refers to a
module-level binding (the module scope, or a name ``symtable`` reports as
global), so a parameter or local variable of the same name does not hide a
dead def.  An attribute counts only when its base is rooted in a name the
file imports (``ops.enabled`` with ``from . import ops``), so ``obj.enabled``
on some object does not either; attributes of NumPy never count
(``np.where`` is not a use of a ``where`` in ``src/repro``).  Imports in
``__init__.py`` (re-exports) do not count, nor does text in strings and
comments; ``tests/`` is not read.  A class decorated with a
``register_*(...)`` call counts as used, because a registry reaches it by
name.

A public method or property of a top-level class counts as used when any
of those files reads an attribute of that name, on any base (``obj.name``
or ``self.name``; an assignment to ``obj.name`` is not a read).  Which
class the base holds is not inferred, so a read of a shared name keeps
every method of that name.

Prints ``path::name`` (``path::Class.name`` for a method) for each unused
name and exits 1 if there is any.  Run as ``python tools/dead_names.py``
(standard library only).
"""

import ast
import symtable
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "perfbench", "examples", "tools")
NUMPY = ("np", "numpy")


def _registered(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", "").startswith("register_")
               for d in node.decorator_list)


def _global_reads(table: symtable.SymbolTable) -> set:
    """Names read anywhere in ``table``'s scopes that refer to module-level bindings."""
    module = table.get_type() == "module"
    names = {s.get_name() for s in table.get_symbols()
             if s.is_referenced() and (module or s.is_global())}
    for child in table.get_children():
        names |= _global_reads(child)
    return names


def _root(node: ast.expr) -> str:
    """The name an attribute chain starts from (``a`` in ``a.b.c``), or ``""``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def dead_names(root: Path = ROOT) -> list:
    defined, methods, used, read = [], [], set(), set()
    for path in sorted(p for top in SCANNED for p in (root / top).rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        source = path.read_text()
        tree = ast.parse(source, filename=rel)
        if rel.startswith("src/repro/"):
            defined += [(rel, n.name) for n in tree.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not n.name.startswith("_")
                        and not (isinstance(n, ast.ClassDef) and _registered(n))]
            methods += [(rel, f"{cls.name}.{n.name}", n.name)
                        for cls in tree.body if isinstance(cls, ast.ClassDef) for n in cls.body
                        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not n.name.startswith("_")]
        used |= _global_reads(symtable.symtable(source, rel, "exec"))
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in imports for alias in node.names} - set(NUMPY)
        attributes = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
        used.update(n.attr for n in attributes if _root(n) in imported)
        read.update(n.attr for n in attributes if isinstance(n.ctx, ast.Load))
        if path.name != "__init__.py":
            used.update(alias.name.rsplit(".", 1)[-1] for node in imports for alias in node.names)
    return ([f"{rel}::{name}" for rel, name in defined if name not in used]
            + [f"{rel}::{qualname}" for rel, qualname, name in methods if name not in read])

if __name__ == "__main__":
    unused = dead_names()
    for line in unused:
        print(line)
    sys.exit(1 if unused else 0)
