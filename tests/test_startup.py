"""What every ``gatework`` command pays before it runs: importing the CLI.

Decorating a dataclass execs generated source that no bytecode cache
keeps, and ``dataclasses`` (with ``inspect``) and ``concurrent.futures``
(with ``logging``) are slow to import, so the engine defines its records
as named tuples and plain classes and runs a stage's batch on plain
threads. This pins that as a count of modules, not a timing."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
