"""Stdlib-only `ast` and `argparse` lints over the package modules: unused,
private and dead names, the memo inventory, and README's CLI synopsis."""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

import structlogic
from structlogic.cli import build_parser

PACKAGE = Path(structlogic.__file__).parent
REPO = Path(__file__).resolve().parent.parent


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


def imports_dataclasses(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "dataclasses" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "dataclasses":
                return True
    return False


def test_lint_flags_a_dataclasses_import():
    assert imports_dataclasses("def f():\n    from dataclasses import dataclass\n")
    assert imports_dataclasses("import dataclasses as dc\n")
    assert not imports_dataclasses("from .records import record\n\n'dataclasses'\n")


def test_package_modules_do_not_import_dataclasses():
    """Records come from `structlogic.records`: `dataclasses` costs every command
    its import (with `inspect`, `ast` and `dis`) and its per-class generation."""
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if imports_dataclasses(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def private_relative_imports(source: str) -> list[str]:
    """Underscore-prefixed names imported from another package module."""
    return sorted(
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_lint_flags_a_private_relative_import():
    source = "from .structures import _hidden, normalize\n\ndef f():\n    return _hidden, normalize\n"
    assert private_relative_imports(source) == ["_hidden"]


def test_package_modules_import_no_private_names():
    offenders = {
        path.name: private
        for path in sorted(PACKAGE.glob("*.py"))
        for private in [private_relative_imports(path.read_text(encoding="utf-8"))]
        if private
    }
    assert offenders == {}


TABLE_FIELDS = ("_relations", "_functions")


def table_field_reads(source: str) -> list[str]:
    """Reads of `._relations` or `._functions`, as attributes or in generated
    source text, outside a class whose `__slots__` declares the field."""
    tree = ast.parse(source)
    owned = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        declared = {
            c.value
            for stmt in cls.body
            if isinstance(stmt, ast.Assign)
            and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)
            for c in ast.walk(stmt.value)
            if isinstance(c, ast.Constant)
        }
        owned |= {
            id(node)
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and node.attr in declared
        }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in TABLE_FIELDS and id(node) not in owned:
            reads.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads += [f"{node.lineno}: {m}" for m in re.findall(r"\.(?:_relations|_functions)\b", node.value)]
    return sorted(reads)


def test_lint_flags_table_field_reads_outside_their_class():
    source = (
        "class Table:\n"
        "    __slots__ = ('_relations',)\n"
        "    def rows(self, other):\n        return self._relations, other._relations\n"
        "def peek(s):\n    return s._functions\n"
        "def emit():\n    return 'R = n._relations'\n"
        "def fine(s):\n    return s.relations, '_relations'\n"
    )
    assert table_field_reads(source) == ["6: ._functions", "8: ._relations"]


def test_only_structures_reads_structure_tables():
    """A structure's table layout belongs to `structures.py`; `vocab.py`'s
    Vocabulary reads only its own fields of the same names."""
    offenders = {
        path.name: reads
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "structures.py"
        for reads in [table_field_reads(path.read_text(encoding="utf-8"))]
        if reads
    }
    assert offenders == {}


def failure_statuses(source: str) -> list[int]:
    """Lines of each `FAIL if ...` expression: a check status chosen from its failures."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.IfExp)
        and getattr(node.body, "id", getattr(node.body, "attr", None)) == "FAIL"
    )


def test_lint_flags_a_status_chosen_from_failures():
    source = (
        "def a(bad):\n    return FAIL if bad else PASS\n"
        "def b(bad):\n    return reports.FAIL if bad else reports.PASS\n"
        "def c(n):\n    return PASS if n == 0 else FAIL\n"
        "def d():\n    return 'FAIL if'\n"
    )
    assert failure_statuses(source) == [2, 4]


def test_only_reports_chooses_a_status_from_failures():
    """Every sweep hands its failures to `VerificationReport.check`, which alone
    decides pass or fail from them."""
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "reports.py"
        for lines in [failure_statuses(path.read_text(encoding="utf-8"))]
        if lines
    }
    assert offenders == {}

def defined_names(source: str) -> list[str]:
    """Top-level functions and classes, and non-dunder methods as Class.method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{m.name}"
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return out


def referenced_names(source: str) -> set[str]:
    """Every name the source loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def unreferenced_definitions(modules: dict[str, str], sources) -> list[str]:
    """module.name for each definition in modules that no source names."""
    used = set().union(*map(referenced_names, sources))
    return sorted(
        f"{module}.{name}"
        for module, source in modules.items()
        for name in defined_names(source)
        if name.rsplit(".", 1)[-1] not in used
    )


def test_lint_flags_a_dead_function_and_a_dead_method():
    module = (
        "class Box:\n"
        "    def __init__(self):\n        pass\n"
        "    def live(self):\n        return 1\n"
        "    def unused(self):\n        return 2\n"
        "def helper():\n    return Box().live()\n"
        "def dead():\n    return 0\n"
    )
    caller = "from .sample import helper\n\nhelper()\n"
    assert unreferenced_definitions({"sample": module}, [module, caller]) == [
        "sample.Box.unused",
        "sample.dead",
    ]


def test_package_definitions_are_all_referenced():
    modules = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((REPO / "src" / "structlogic").glob("*.py"))
    }
    sources = [
        path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "perfbench")
        for path in sorted((REPO / folder).rglob("*.py"))
    ]
    assert unreferenced_definitions(modules, sources) == []


def _memo_decorators(source: str):
    """(function name, decorator) for each lru_cache or cache decorator, bare or
    called, plain or as functools.lru_cache."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            if getattr(target, "attr", getattr(target, "id", "")) in ("lru_cache", "cache"):
                yield node.name, deco


def lru_cached_functions(source: str) -> list[str]:
    """Functions memoised by lru_cache or cache."""
    return sorted(name for name, _ in _memo_decorators(source))


def unbounded_memos(source: str) -> list[str]:
    """Memoised functions whose decorator names no integer maxsize."""
    out = []
    for name, deco in _memo_decorators(source):
        args = deco.args if isinstance(deco, ast.Call) else []
        keywords = deco.keywords if isinstance(deco, ast.Call) else []
        size = args[0] if args else next((k.value for k in keywords if k.arg == "maxsize"), None)
        if not (isinstance(size, ast.Constant) and type(size.value) is int):
            out.append(name)
    return sorted(out)


def documented_memos(readme: str) -> list[str]:
    """module.name for each memo the library map names as "`name` keyed by"."""
    out = []
    for line in readme.splitlines():
        row = re.match(r"\| `structlogic\.(\w+)` \|(.*)\|$", line)
        if row:
            out += [f"{row[1]}.{name}" for name in re.findall(r"`(\w+)` keyed by", row[2])]
    return sorted(out)


def test_lint_lists_memos_in_source_and_readme():
    source = (
        "import functools\nfrom functools import cached_property, lru_cache\n\n"
        "@lru_cache(maxsize=8)\ndef a(x):\n    return x\n\n"
        "@functools.lru_cache\ndef b(x):\n    return x\n\n"
        "@cached_property\ndef c(self):\n    return 1\n\n"
        "def d(x):\n    return x\n"
    )
    assert lru_cached_functions(source) == ["a", "b"]
    readme = (
        "| module | contents |\n| --- | --- |\n"
        "| `structlogic.sample` | things; memos `a` keyed by (x), and `b` keyed by (`x`) |\n"
        "| `structlogic.other` | no memo; `d` is plain |\n"
        "`c` keyed by nothing, outside the table\n"
    )
    assert documented_memos(readme) == ["sample.a", "sample.b"]


def test_lint_finds_memos_without_an_integer_maxsize():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@lru_cache(maxsize=8)\ndef a(x):\n    return x\n\n"
        "@functools.lru_cache(1_000)\ndef b(x):\n    return x\n\n"
        "@lru_cache\ndef c(x):\n    return x\n\n"
        "@lru_cache()\ndef d(x):\n    return x\n\n"
        "@functools.lru_cache(maxsize=None)\ndef e(x):\n    return x\n\n"
        "@lru_cache(maxsize=True)\ndef f(x):\n    return x\n\n"
        "@cache\ndef g(x):\n    return x\n\n"
        "@lru_cache(typed=True)\ndef h(x):\n    return x\n"
    )
    assert lru_cached_functions(source) == ["a", "b", "c", "d", "e", "f", "g", "h"]
    assert unbounded_memos(source) == ["c", "d", "e", "f", "g", "h"]


def test_every_memo_is_bounded():
    for path in sorted(PACKAGE.glob("*.py")):
        assert unbounded_memos(path.read_text(encoding="utf-8")) == [], path.name


def test_every_memo_is_named_in_the_library_map():
    memos = sorted(
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in lru_cached_functions(path.read_text(encoding="utf-8"))
    )
    assert len(memos) == 2
    assert documented_memos((REPO / "README.md").read_text(encoding="utf-8")) == memos


def long_options(parser: argparse.ArgumentParser) -> dict[str, set[str]]:
    """Each subcommand's long options, without --help and the shared --timing."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {
            option
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--") and option not in ("--help", "--timing")
        }
        for name, sub in commands.choices.items()
    }


def synopsis_gaps(parser: argparse.ArgumentParser, readme: str) -> dict[str, list[str]]:
    """Per subcommand, the long options its README synopsis line does not name.

    The synopsis is the first fenced block under "## Command line", one
    `structlogic <command> ...` line per command; a missing line misses all.
    """
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    lines = {
        line.split()[1]: line for line in block.splitlines() if line.startswith("structlogic ")
    }
    gaps = {}
    for name, options in long_options(parser).items():
        named = set(re.findall(r"--[\w-]+", lines.get(name, "")))
        if options - named:
            gaps[name] = sorted(options - named)
    return gaps


def test_lint_flags_synopsis_lines_missing_options():
    parser = argparse.ArgumentParser(prog="tool")
    sub = parser.add_subparsers()
    p = sub.add_parser("run")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--out")
    p.add_argument("--timing", action="store_true")
    sub.add_parser("stop").add_argument("--now", action="store_true")
    readme = "# tool\n\n## Command line\n\n```sh\nstructlogic run [--out FILE]\n```\n\n## Next\n"
    assert synopsis_gaps(parser, readme) == {"run": ["--fast"], "stop": ["--now"]}


def test_readme_synopsis_names_every_cli_option():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert synopsis_gaps(build_parser(), readme) == {}
