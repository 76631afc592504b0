"""Every run-directory file but the journal is a projection of it:
``report.json``, ``report`` and ``access.log`` are rebuilt byte for byte
from ``events.jsonl`` and the directive alone, and ``status.md`` holds
one line per history record."""

from __future__ import annotations

import pytest

from conftest import run_in_sessions, run_scripted_workflow
from gatework.barrier import merge_access_logs
from gatework.model import ArtifactKind, workflow_by_id
from gatework.orchestrator import build_report
from gatework.rundir import RunDirectory, write_whole
from gatework.statemachine import reconstruct_run_state, status_line
from test_sessions import SCENARIOS

DIRECTIVE = "scripted protocol exercise"


def assert_projections_regenerate(run_dir: RunDirectory, workflow_id: int) -> None:
    paths = (run_dir.report_json_path, run_dir.report_text_path, run_dir.access_log_path)
    recorded = [path.read_bytes() for path in paths]
    for path in paths:
        path.unlink()

    run = reconstruct_run_state(run_dir, workflow_by_id(workflow_id))
    report = build_report(run, run_dir, run_dir.path.name, DIRECTIVE)
    run_dir.report_json_path.write_text(report.to_json(), encoding="utf-8")
    run_dir.report_text_path.write_text(report.render_text(), encoding="utf-8")
    merge_access_logs(run.access, run_dir)

    assert [path.read_bytes() for path in paths] == recorded
    assert run_dir.read(ArtifactKind.STATUS) == "".join(status_line(e) + "\n" for e in run.history)


@pytest.mark.parametrize("mode", ("joined", "split"))
@pytest.mark.parametrize("name", SCENARIOS)
def test_the_projections_of_a_session_scenario_regenerate_from_the_journal(tmp_path, name, mode):
    workflow_id, answers, kwargs = SCENARIOS[name]
    run = run_in_sessions(tmp_path, workflow_id, split=mode == "split", answers=answers, **kwargs)
    assert_projections_regenerate(run.run_dir, workflow_id)


@pytest.mark.parametrize(
    "workflow_id,answers,kwargs",
    [
        (1, ("use the reference implementation",),
         {"planner_holds": 1, "tester_blocks": 3, "reviewer_stops": 1}),
        (2, (), {"authorization": "tok"}),
        (9, (), {}),
    ],
    ids=("workflow 1", "workflow 2 shipped", "workflow 9"),
)
def test_the_projections_of_a_single_session_run_regenerate_from_the_journal(
    tmp_path, workflow_id, answers, kwargs
):
    report, run_dir, _ = run_scripted_workflow(tmp_path, workflow_id, answers=answers, **kwargs)
    assert report.exit_code == 0
    if kwargs.get("authorization"):
        assert report.ship["shipped"] is True
    assert_projections_regenerate(run_dir, workflow_id)


def test_a_write_that_fails_partway_leaves_the_previous_file(tmp_path):
    run_dir = RunDirectory(tmp_path / "run").create()
    run_dir.write(ArtifactKind.SPEC, "# Spec\n")
    # a lone surrogate does not encode, so the write fails after it began
    with pytest.raises(UnicodeEncodeError):
        run_dir.write(ArtifactKind.SPEC, "# Spec, rewritten\n\udc80")
    with pytest.raises(UnicodeEncodeError):
        write_whole(run_dir.report_json_path, "\udc80")
    assert run_dir.read(ArtifactKind.SPEC) == "# Spec\n"
    assert sorted(path.name for path in run_dir.path.iterdir()) == ["logs", "spec.md"]
