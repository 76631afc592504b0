"""The benchmark's tracer wraps engine functions by name; every name it
wraps must exist, or ``bench/run.py --trace 1`` crashes."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from gatework import orchestrator

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped() -> tuple[tuple[str, str, str, object], ...]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module_name,path", [(m, p) for m, p, _, _ in _wrapped()])
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


BENCH = TRACING.parent


@pytest.fixture
def _scratch_root():
    """Replaces conftest's: the benchmark's runs put their sandboxes in the
    machine's real scratch root, as ``bench/run.py`` does."""


@pytest.mark.parametrize("workload", ("fix", "full-retry", "ship"))
def test_the_benchmark_runs_a_workload_twice_and_checks_every_run(tmp_path, monkeypatch, workload):
    """What ``bench/run.py`` calls of the engine, and its checks of each
    run's report, including that ``report.json`` is the same every run."""
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its siblings by name
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    fixtures = importlib.import_module("fixtures")

    # the sandbox directory of each run it starts; other processes' runs
    # in the same scratch root are not its own
    sandboxes: list[Path] = []

    def start_run(**kwargs):
        run_dir, request_id = start(**kwargs)
        sandboxes.append(run_dir.sandboxes_dir)
        return run_dir, request_id

    start = orchestrator.start_run
    monkeypatch.setattr(orchestrator, "start_run", start_run)
    runner = bench_run.Runner(fixtures.make_workload(workload, 3), tmp_path)
    for _ in range(2):
        _, passed = runner.run_once()
        assert passed, runner.problems
    assert runner.problems == []
    # every run removed its sandbox directory when its session ended
    assert len(sandboxes) == 2 and not any(path.exists() for path in sandboxes)
