"""Module boundaries of ``src/repro``: a ``_``-prefixed name is private
to its module, so no other ``repro`` module may import it, and a
``_``-prefixed attribute is private to its class, so code reads it only
through ``self`` or ``cls``."""
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


def private_attribute_reads(source: str, name: str) -> list[str]:
    """``name:line expression`` for every ``_``-prefixed, non-dunder
    attribute that ``source`` reads of anything but ``self`` or ``cls``."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    return found


def scan_src(check) -> list[str]:
    return [hit for path in sorted(SRC.rglob("*.py"))
            for hit in check(path.read_text(), str(path.relative_to(SRC.parent)))]


def test_no_module_imports_a_private_name_of_another():
    assert scan_src(private_imports) == []


def test_no_module_reads_a_private_attribute_of_another_object():
    assert scan_src(private_attribute_reads) == []


def test_relative_and_absolute_imports_are_both_checked():
    source = ("from __future__ import annotations\n"
              "from os import _exit\n"
              "from .engine import _deal, run_spark\n"
              "from repro.gthinker.qglobal import _drop_zip_finders\n"
              "from .. import _private_module\n")
    assert private_imports(source, "m.py") == [
        "m.py:3 _deal", "m.py:4 _drop_zip_finders", "m.py:5 _private_module",
    ]


def test_private_attribute_reads_skip_self_cls_and_dunders():
    source = ("class A:\n"
              "    def f(self, miner, other):\n"
              "        self._x, cls._y, other.__dict__, miner.emit\n"
              "        miner._emit_if_valid(1)\n"
              "        return other.sub._cache, other.__mangled\n")
    assert private_attribute_reads(source, "m.py") == [
        "m.py:4 miner._emit_if_valid", "m.py:5 other.sub._cache", "m.py:5 other.__mangled",
    ]
