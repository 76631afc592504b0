"""What every ``gatework`` command pays before it runs: importing the CLI.

Decorating a dataclass execs generated source that no bytecode cache
keeps, and ``dataclasses`` (with ``inspect``) and ``concurrent.futures``
(with ``logging``) are slow to import, so the engine defines its records
as named tuples and plain classes and runs a stage's batch on plain
threads. This pins that as a count of modules, not a timing. It also
checks that no engine module imports a name it never uses, and that
nothing the engine defines goes unread."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_SLOW_MODULES = ("dataclasses", "inspect", "concurrent.futures", "logging")

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import gatework.cli; "
    f"print(*[name for name in {_SLOW_MODULES!r} if name in sys.modules])"
)


def test_importing_the_cli_imports_no_dataclasses_inspect_futures_or_logging():
    # -S: no site hooks, so what a .pth file imports is not counted against the CLI
    probe = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, str(SRC)], capture_output=True, text=True, check=True
    )
    assert probe.stdout.split() == []


def _unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports but never uses; no linter ships with
    the engine, so this stands in for one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "annotations"
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items()) if name not in used]


def test_no_engine_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export
    modules = sorted(p for p in (SRC / "gatework").glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [name for path in modules for name in _unused_imports(path)] == []


def _definitions(body: list[ast.stmt]) -> list[tuple[str, int]]:
    """The functions, classes and constants a module or class ``body``
    defines, and the members of each class (named tuple fields, enum
    members, methods and class attributes), each with its line; dunders
    such as ``__version__`` or ``__init__`` are exempt."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += _definitions(node.body)
    return [(name, line) for name, line in names if not re.fullmatch(r"__\w+__", name)]


def _spelled(path: Path) -> Counter:
    """How often ``path`` spells each word as code, by word and line: a
    name, an attribute, a definition, an argument, an import, or a string
    that is a dotted name, as the bench spells what it wraps. Comments,
    docstrings and other prose are no readers: with them, a field named
    ``output`` would pass for as long as any sentence says "output"."""
    spelled = Counter()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            words = [node.id]
        elif isinstance(node, ast.Attribute):
            words = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            words = [node.name]
        elif isinstance(node, (ast.keyword, ast.arg)):
            words = [node.arg]
        elif isinstance(node, ast.alias):
            words = [*node.name.split("."), node.asname]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words = node.value.split(".") if re.fullmatch(r"[A-Za-z_][\w.]*", node.value) else []
        else:
            continue
        # an attribute's name ends the expression, which may span lines
        line = node.end_lineno if isinstance(node, ast.Attribute) else node.lineno
        spelled.update((word, line) for word in words if word)
    return spelled


def test_everything_an_engine_module_defines_is_named_somewhere_else():
    # a name counts wherever the engine, the bench or the acceptance test,
    # the behaviour contract, spells it as code: called, imported, or
    # spelled in a string; another test naming it makes no reader. A class
    # member counts as a module-level name does, so a field, enum member
    # or method that nothing reads fails too
    sources = sorted(path for tree in ("src", "bench") for path in (ROOT / tree).rglob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    spelled = {path: _spelled(path) for path in sources}
    words = Counter()
    for counts in spelled.values():
        for (word, _), count in counts.items():
            words[word] += count
    defined = {
        path: _definitions(ast.parse(path.read_text(encoding="utf-8")).body)
        for path in sorted((SRC / "gatework").glob("*.py"))
    }
    at_definitions = Counter()
    for path, names in defined.items():
        for name, line in names:
            at_definitions[name] += spelled[path][(name, line)]
    unread = [
        f"{path.name}:{line} {name}"
        for path, names in defined.items()
        for name, line in names
        if words[name] == at_definitions[name]
    ]
    assert unread == []
