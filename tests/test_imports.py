"""Unused-import lint over the package modules, with the standard library only."""

from __future__ import annotations

import ast
from pathlib import Path

import structlogic

PACKAGE = Path(structlogic.__file__).parent


def _used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        # quoted annotations name their types inside a string
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def unused_relative_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    return sorted(name for name in imported if name not in used)


def test_lint_flags_an_unused_relative_import():
    source = "from .syntax import Or, Var\n\ndef f():\n    return Var('x')\n"
    assert unused_relative_imports(source) == ["Or"]


def test_package_modules_have_no_unused_relative_imports():
    offenders = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for unused in [unused_relative_imports(path.read_text(encoding="utf-8"))]
        if unused
    }
    assert offenders == {}
