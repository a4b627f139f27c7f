"""Module boundaries of ``src/repro``: a ``_``-prefixed name is private
to its module, so no other ``repro`` module may import it."""
import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def private_imports(source: str, name: str) -> list[str]:
    """``name:line imported`` for every ``_``-prefixed name that
    ``source`` imports from a ``repro`` module; every relative import
    in ``src/repro`` is one."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "repro":
            continue
        found += [f"{name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    found = [hit for path in sorted(SRC.rglob("*.py"))
             for hit in private_imports(path.read_text(), str(path.relative_to(SRC.parent)))]
    assert found == []


def test_relative_and_absolute_imports_are_both_checked():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from .engine import _deal, run_spark\n"
              "from repro.gthinker.qglobal import _drop_zip_finders\n"
              "from .. import _private_module\n")
    assert private_imports(source, "m.py") == [
        "m.py:3 _deal", "m.py:4 _drop_zip_finders", "m.py:5 _private_module",
    ]
