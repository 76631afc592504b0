from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from conftest import init_git_repo, repo_without_language, scripted_backends, write_backend_config
from gatework.barrier import create_sandbox
from gatework.cli import main
from gatework.clock import TickClock
from gatework.gitlayer import SubprocessGit
from gatework.model import AgentRole, ArtifactKind, workflow_by_id
from gatework.orchestrator import ChannelMode, Orchestrator, UserChannel
from gatework.rundir import RunDirectory


def _single_run_dir(runs_root: Path) -> RunDirectory:
    entries = sorted(p for p in runs_root.iterdir() if p.is_dir())
    assert len(entries) == 1
    return RunDirectory(entries[0])


def _run_cli(
    tmp_path: Path,
    workflow_id: int,
    *extra: str,
    repo: Path | None = None,
    config: Path | None = None,
    **cfg,
) -> tuple[int, Path]:
    if repo is None:
        repo = init_git_repo(tmp_path / "repo")
    if config is None:
        config = write_backend_config(tmp_path / "backends", workflow_id, **cfg)
    runs_root = tmp_path / "runs"
    code = main(
        [
            "run",
            "--repo", str(repo),
            "--workflow", str(workflow_id),
            "--directive", "scripted protocol exercise",
            "--backends", str(config),
            "--runs-root", str(runs_root),
            *extra,
        ]
    )
    return code, runs_root


def test_run_workflow_9_exits_zero_with_minimal_artifacts(tmp_path, capsys):
    code, runs_root = _run_cli(tmp_path, 9)
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    present = {k.filename for k in run_dir.present()}
    assert "implementation.md" in present
    assert "audit.md" in present
    assert "spec.md" not in present
    out = capsys.readouterr().out
    assert "PIPELINES_COMPLETE" in out
    assert (run_dir.logs_dir / "cli.log").exists()


def test_run_requires_directive_or_override(tmp_path, capsys):
    repo = init_git_repo(tmp_path / "repo")
    config = write_backend_config(tmp_path / "backends", 9)
    code = main(["run", "--repo", str(repo), "--backends", str(config)])
    assert code == 2
    assert "requires" in capsys.readouterr().out


def test_run_unresolvable_repo_exits_4(tmp_path):
    config = write_backend_config(tmp_path / "backends", 9)
    code = main(
        ["run", "--repo", str(tmp_path / "ghost"), "--workflow", "9", "--backends", str(config)]
    )
    assert code == 4


def test_run_directive_classifier_selects_docs_workflow(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    config = write_backend_config(tmp_path / "backends", 3)
    runs_root = tmp_path / "runs"
    code = main(
        [
            "run",
            "--repo", str(repo),
            "--directive", "Update the README and vignette",
            "--backends", str(config),
            "--runs-root", str(runs_root),
        ]
    )
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    config_payload = json.loads((run_dir.path / "run-config.json").read_text(encoding="utf-8"))
    assert config_payload["workflow_id"] == 3


def test_run_gate_violation_exits_2(tmp_path):
    code, _ = _run_cli(tmp_path, 2, builder_reads=("test-spec.md",))
    assert code == 2


@pytest.mark.parametrize(
    "selection,inner",
    [
        (["--workflow", "4"], "workflow 2 (Simple Code Fix + Shipping)"),
        (["--workflow", "8"], "workflow 1 (Full Workflow)"),
        (["--directive", "Nightly validation sweep"], "workflow 1 (Full Workflow)"),
    ],
)
def test_run_refuses_a_wrapper_workflow_before_any_run_starts(tmp_path, capsys, selection, inner):
    repo = init_git_repo(tmp_path / "repo")
    config = write_backend_config(tmp_path / "backends", 1)
    runs_root = tmp_path / "runs"
    runs_root.mkdir()
    code = main(
        ["run", "--repo", str(repo), "--backends", str(config), "--runs-root", str(runs_root)]
        + selection
    )
    out = capsys.readouterr().out
    assert code == 2
    assert list(runs_root.iterdir()) == []
    assert f"wraps {inner}" in out
    assert "run_issue_patrol" in out and "run_scheduled_loop" in out


def test_run_refuses_an_unknown_workflow_id_before_any_run_starts(tmp_path, capsys):
    repo = init_git_repo(tmp_path / "repo")
    config = write_backend_config(tmp_path / "backends", 1)
    runs_root = tmp_path / "runs"
    code = main(
        ["run", "--repo", str(repo), "--backends", str(config), "--runs-root", str(runs_root),
         "--workflow", "99"]
    )
    assert code == 2
    assert capsys.readouterr().out == "no workflow with id 99; catalog has 1..10\n"
    assert not runs_root.exists()


def test_run_with_an_answers_file_that_cannot_be_read_exits_4_before_any_run_starts(tmp_path, capsys):
    absent = tmp_path / "absent-answers.txt"
    code, runs_root = _run_cli(tmp_path, 9, "--answers", str(absent), builder_holds=1)
    assert code == 4
    out = capsys.readouterr().out
    assert out.startswith("[environment] cannot read answers file: ") and str(absent) in out
    assert out.count("\n") == 1
    assert not runs_root.exists()


def test_run_on_a_directory_that_is_not_a_git_repository_stops_at_the_credentials_gate(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    (plain / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
    code, runs_root = _run_cli(tmp_path, 7, repo=plain)
    assert code == 2
    run_dir = _single_run_dir(runs_root)
    assert not run_dir.artifact_path(ArtifactKind.CREDENTIALS).exists()
    report = json.loads(run_dir.report_json_path.read_text(encoding="utf-8"))
    assert report["final_state"] == "CREDENTIALS_VERIFIED"
    assert report["dispatch_counts"] == {}
    assert "NEW gate unsatisfied (credentials.md:EXISTS)" in report["gate_violation"]


def test_run_escalation_exits_3(tmp_path):
    code, runs_root = _run_cli(tmp_path, 9, builder_holds=1)
    assert code == 3
    run_dir = _single_run_dir(runs_root)
    assert run_dir.events()[-1] == {
        "event": "halt",
        "escalation": "unanswered question from builder: which covariance estimator variant?",
        "pending": "which covariance estimator variant?",
    }


def test_status_shows_state_retries_and_artifacts(tmp_path, capsys):
    code, runs_root = _run_cli(tmp_path, 2, tester_blocks=2)
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    capsys.readouterr()
    assert main(["status", "--run", str(run_dir.path)]) == 0
    out = capsys.readouterr().out
    assert "state: READY_TO_SHIP" in out
    assert "BLOCK=2" in out
    assert "audit.md" in out


def test_status_prints_the_report_the_run_wrote(tmp_path, capsys):
    code, runs_root = _run_cli(tmp_path, 2, tester_blocks=2)
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    capsys.readouterr()
    assert main(["status", "--run", str(run_dir.path)]) == 0
    assert capsys.readouterr().out == run_dir.report_text_path.read_text(encoding="utf-8")


def test_status_shows_escalation_after_fourth_block(tmp_path, capsys):
    code, runs_root = _run_cli(tmp_path, 2, tester_blocks=4)
    assert code == 3
    run_dir = _single_run_dir(runs_root)
    capsys.readouterr()
    main(["status", "--run", str(run_dir.path)])
    out = capsys.readouterr().out
    assert "BLOCK=3" in out
    assert "escalat" in out.lower()


def test_the_retry_cap_escalation_is_printed_once(tmp_path, capsys):
    code, runs_root = _run_cli(tmp_path, 9, tester_blocks=4)
    assert code == 3
    run_dir = _single_run_dir(runs_root)
    message = "BLOCK retry cap reached; escalating to user: "
    assert capsys.readouterr().out.count(message) == 1
    assert (run_dir.logs_dir / "cli.log").read_text(encoding="utf-8").count(message) == 1


def test_status_for_missing_run_exits_4(tmp_path):
    assert main(["status", "--run", str(tmp_path / "nope")]) == 4


def test_answer_resumes_held_run(tmp_path, capsys):
    code, runs_root = _run_cli(tmp_path, 9, builder_holds=1)
    assert code == 3
    run_dir = _single_run_dir(runs_root)
    capsys.readouterr()
    code = main(["answer", "--run", str(run_dir.path), "use the default proposal scale"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PIPELINES_COMPLETE" in out
    events = run_dir.events()
    assert {"event": "answer", "role": "builder", "text": "use the default proposal scale"} in events
    assert events[-1]["event"] != "halt"


def test_resumed_run_keeps_the_language_the_user_gave(tmp_path, capsys):
    repo = repo_without_language(tmp_path / "repo")
    answers = tmp_path / "answers.txt"
    answers.write_text("Python\n", encoding="utf-8")
    code, runs_root = _run_cli(
        tmp_path, 9, "--answers", str(answers), repo=repo, builder_holds=1
    )
    assert code == 3
    run_dir = _single_run_dir(runs_root)
    first = json.loads(run_dir.report_json_path.read_text(encoding="utf-8"))
    assert first["pending"] == "which covariance estimator variant?"

    code = main(["answer", "--run", str(run_dir.path), "use defaults"])
    report = json.loads(run_dir.report_json_path.read_text(encoding="utf-8"))
    assert code == 0, report
    assert report["final_state"] == "PIPELINES_COMPLETE"
    assert report["escalation"] is None and report["pending"] is None
    # the answer went to the builder's HOLD, not to a second language question
    assert report["dispatch_counts"] == {"builder": 2, "tester": 1}
    assert report["signals"] == first["signals"]
    assert first["language"] == report["language"] == "Python"


def test_consecutive_answers_each_reach_their_own_question(tmp_path, capsys):
    # a stateless subprocess builder: it asks for a scale, then, told the
    # scale, for a seed, and completes once told the seed; it logs the
    # answers each of its briefings carried
    briefed = tmp_path / "briefed.jsonl"
    agent = (
        "import json, pathlib, sys\n"
        "answers = [l for l in sys.stdin.read().splitlines() if l.startswith('user answer:')]\n"
        f"with open({str(briefed)!r}, 'a') as fh: fh.write(json.dumps(answers) + '\\n')\n"
        "if 'user answer: seed 7' in answers:\n"
        "    pathlib.Path('implementation.md').write_text('# impl\\n')\n"
        "    print('OUTCOME: COMPLETED')\n"
        "else:\n"
        "    question = 'which seed?' if 'user answer: scale 0.4' in answers else 'which scale?'\n"
        "    pathlib.Path('q.txt').write_text(question)\n"
        "    print('OUTCOME: SIGNAL HOLD q.txt')\n"
    )
    config = write_backend_config(tmp_path / "backends", 9)
    entries = json.loads(config.read_text(encoding="utf-8"))
    entries["backends"]["builder"] = {"kind": "subprocess", "command": ["python3", "-c", agent]}
    config.write_text(json.dumps(entries), encoding="utf-8")
    no_answers = tmp_path / "no-answers"
    no_answers.write_text("", encoding="utf-8")
    code, runs_root = _run_cli(
        tmp_path, 9, "--deterministic", "--answers", str(no_answers), config=config
    )
    assert code == 3
    run_dir = _single_run_dir(runs_root)

    assert main(["answer", "--run", str(run_dir.path), "scale 0.4"]) == 3
    report = json.loads(run_dir.report_json_path.read_text(encoding="utf-8"))
    assert report["pending"] == "which seed?"
    assert main(["answer", "--run", str(run_dir.path), "seed 7"]) == 0

    seen = [json.loads(line) for line in briefed.read_text(encoding="utf-8").splitlines()]
    # the builder has not completed since the first answer, so, as in one
    # session, its third briefing carries both
    assert seen == [[], ["user answer: scale 0.4"], ["user answer: scale 0.4", "user answer: seed 7"]]
    answered = [e["text"] for e in run_dir.events() if e["event"] == "answer"]
    assert answered == ["scale 0.4", "seed 7"]


def test_runs_into_one_runs_root_get_their_own_directories(tmp_path, capsys):
    repo = init_git_repo(tmp_path / "repo")
    assert _run_cli(tmp_path, 9, repo=repo)[0] == 0
    code, runs_root = _run_cli(tmp_path, 9, repo=repo)
    assert code == 0
    first, second = sorted(p for p in runs_root.iterdir())
    assert second.name == first.name + "-2"
    for run in (first, second):
        assert (run / "logs" / "builder.log").read_text(encoding="utf-8").count("[attempt") == 1
    capsys.readouterr()
    assert main(["replay", "--run", str(second)]) == 0
    assert "replay identical" in capsys.readouterr().out


def test_answer_without_pending_hold_is_rejected(tmp_path, capsys):
    code, runs_root = _run_cli(tmp_path, 9)
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    code = main(["answer", "--run", str(run_dir.path), "nobody asked"])
    assert code == 2


def test_authorize_ships_a_ready_run(tmp_path, capsys):
    repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    code, runs_root = _run_cli(tmp_path, 2, repo=repo)
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    # a shipper that reads the review, so its access events show
    shipper = tmp_path / "backends" / "shipper.script"
    shipper.write_text("read review.md\n" + shipper.read_text(encoding="utf-8"), encoding="utf-8")
    capsys.readouterr()
    code = main(["authorize", "--run", str(run_dir.path), "--yes"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "DONE" in out
    from gatework.model import ArtifactKind

    assert run_dir.exists(ArtifactKind.SHIPPER)
    text = run_dir.read(ArtifactKind.SHIPPER)
    assert "PUSH" in text
    # the resumed session rewrote the report and the audit trail
    report = json.loads(run_dir.report_json_path.read_text(encoding="utf-8"))
    assert report["final_state"] == "DONE"
    assert report["ship"]["shipped"] is True
    assert report["pending"] is None
    assert report["exit_code"] == 0
    assert report["mechanical"]["passed"] is True
    assert (run_dir.logs_dir / "shipper.log").exists()
    assert {"event": "dispatch", "role": "shipper", "outcome": "completed"} in run_dir.events()
    assert "\tshipper\treview.md\tALLOW" in run_dir.access_log_path.read_text(encoding="utf-8")
    # status now reports the terminal state with no pending signals
    main(["status", "--run", str(run_dir.path)])
    status_out = capsys.readouterr().out
    assert "state: DONE" in status_out
    assert "pending" not in status_out


def test_authorize_appends_to_the_runs_cli_log(tmp_path):
    repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    code, runs_root = _run_cli(tmp_path, 2, repo=repo)
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    assert main(["authorize", "--run", str(run_dir.path), "--yes"]) == 0
    log = (run_dir.logs_dir / "cli.log").read_text(encoding="utf-8")
    assert "final state: READY_TO_SHIP" in log  # the run's own report
    assert "final state: DONE" in log
    assert '"shipped": true' in log


def test_authorize_refuses_a_run_that_is_not_ready_and_dispatches_nothing(tmp_path, capsys):
    repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    code, runs_root = _run_cli(tmp_path, 2, repo=repo, builder_holds=1)
    assert code == 3
    run_dir = _single_run_dir(runs_root)
    assert run_dir.events()[-1]["pending"] == "which covariance estimator variant?"
    # the session's end removed its sandboxes, and authorize makes none
    assert not run_dir.sandboxes_dir.exists()
    logs = sorted(p.name for p in run_dir.logs_dir.glob("*.log"))
    capsys.readouterr()
    code = main(["authorize", "--run", str(run_dir.path), "--yes"])
    assert code == 2
    assert "ship refused: run is at SPEC_READY, not READY_TO_SHIP" in capsys.readouterr().out
    assert not run_dir.sandboxes_dir.exists()
    assert sorted(p.name for p in run_dir.logs_dir.glob("*.log")) == logs


def test_authorize_refuses_a_run_whose_journal_shows_a_tester_reading_a_pipeline_output(tmp_path, capsys):
    repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    code, runs_root = _run_cli(tmp_path, 2, repo=repo)
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    # an ALLOW the pipeline stage's tester could not have been given
    lines = run_dir.journal_path.read_text(encoding="utf-8").splitlines(keepends=True)
    at = lines.index(json.dumps({"event": "dispatch", "role": "tester", "outcome": "completed"}) + "\n")
    forged = {"event": "access", "time": json.loads(lines[at + 1])["time"], "role": "tester",
              "artifact": "implementation.md", "decision": "ALLOW"}
    lines.insert(at + 1, json.dumps(forged) + "\n")
    run_dir.journal_path.write_text("".join(lines), encoding="utf-8")
    head = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout
    capsys.readouterr()
    assert main(["authorize", "--run", str(run_dir.path), "--yes"]) == 2
    out = capsys.readouterr().out
    assert "mechanical review failed (pipeline-isolation: tester touched implementation.md)" in out
    assert not run_dir.exists(ArtifactKind.SHIPPER)
    assert subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout == head


def test_run_with_workspace_writes_context_and_archives_runs(tmp_path):
    from gatework.workspace import WorkspaceLayout

    repo = init_git_repo(tmp_path / "repo")
    config = write_backend_config(tmp_path / "backends", 9)
    workspace_root = tmp_path / "workspace"
    code = main(
        [
            "run",
            "--repo", str(repo),
            "--workflow", "9",
            "--directive", "fix the off-by-one",
            "--backends", str(config),
            "--workspace", str(workspace_root),
        ]
    )
    assert code == 0
    layout = WorkspaceLayout(root=workspace_root, repo_name="repo")
    assert layout.context_path.exists()
    assert "language profile: Python" in layout.context_path.read_text(encoding="utf-8")
    active_runs = [p for p in layout.runs_dir.iterdir() if p.is_dir()]
    assert len(active_runs) == 1  # run directory lives under the workspace


def test_authorize_refuses_without_pass_verdict(tmp_path, capsys):
    repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    code, runs_root = _run_cli(tmp_path, 2, repo=repo, reviewer_verdict="STOP")
    assert code == 2  # the run itself halted at the verdict gate
    run_dir = _single_run_dir(runs_root)
    capsys.readouterr()
    code = main(["authorize", "--run", str(run_dir.path), "--yes"])
    assert code == 2
    assert "refused" in capsys.readouterr().out


def test_interactive_prompts_route_through_the_channel(tmp_path, capsys, monkeypatch):
    # a stateless subprocess builder that raises a question until the
    # leader's re-dispatch briefing carries the user's answer
    agent = (
        "import pathlib, sys\n"
        "briefing = sys.stdin.read()\n"
        "if 'user answer:' in briefing:\n"
        "    pathlib.Path('implementation.md').write_text('# impl\\n')\n"
        "    print('OUTCOME: COMPLETED')\n"
        "else:\n"
        "    pathlib.Path('q.txt').write_text('which proposal scale?')\n"
        "    print('OUTCOME: SIGNAL HOLD q.txt')\n"
    )
    repo = init_git_repo(tmp_path / "repo")
    config_dir = tmp_path / "backends"
    config_dir.mkdir()
    tester = config_dir / "tester.script"
    tester.write_text(
        "write audit.md <<EOF\n| r | ok |\n| - | - |\nEOF\ncomplete\n", encoding="utf-8"
    )
    (config_dir / "backends.json").write_text(
        json.dumps(
            {
                "backends": {
                    "builder": {"kind": "subprocess", "command": ["python3", "-c", agent]},
                    "tester": {"kind": "scripted", "script": "tester.script"},
                }
            }
        ),
        encoding="utf-8",
    )
    prompts: list[str] = []

    def fake_input(prompt: str = "") -> str:
        prompts.append(prompt)
        return "use scale 0.4"

    monkeypatch.setattr("builtins.input", fake_input)
    code = main(
        [
            "run",
            "--repo", str(repo),
            "--workflow", "9",
            "--directive", "fix it",
            "--backends", str(config_dir / "backends.json"),
            "--runs-root", str(tmp_path / "runs"),
        ]
    )
    assert code == 0
    assert len(prompts) == 1  # exactly one interactive prompt, via the channel
    out = capsys.readouterr().out
    assert "which proposal scale?" in out


def test_validate_clean_and_violating_workspaces(tmp_path, capsys):
    from gatework.workspace import WorkspaceLayout

    root = init_git_repo(tmp_path / "workspace")
    WorkspaceLayout(root=root, repo_name="panelkit").ensure()
    assert main(["validate", "--workspace", str(root), "--repo-name", "panelkit"]) == 0

    layout = WorkspaceLayout(root=root, repo_name="panelkit")
    (layout.runs_dir / "badname.md").write_text("x\n", encoding="utf-8")
    code = main(["validate", "--workspace", str(root), "--repo-name", "panelkit"])
    assert code == 2
    assert "not named" in capsys.readouterr().out


def test_validate_flags_tmp_staged_for_push(tmp_path, capsys):
    import subprocess

    from gatework.workspace import WorkspaceLayout

    root = init_git_repo(tmp_path / "workspace")
    layout = WorkspaceLayout(root=root, repo_name="panelkit").ensure()
    (layout.tmp_dir / "scratch.bin").write_text("x\n", encoding="utf-8")
    subprocess.run(["git", "-C", str(root), "add", "panelkit/tmp/scratch.bin"], check=True)
    code = main(["validate", "--workspace", str(root), "--repo-name", "panelkit"])
    assert code == 2
    assert "local-only" in capsys.readouterr().out


def test_run_accepts_relative_paths(tmp_path, monkeypatch):
    # git -C resolves relative paths against the repo, so the CLI must
    # hand the engine absolute paths no matter how it was invoked
    init_git_repo(tmp_path / "target")
    write_backend_config(tmp_path / "backends", 9)
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "run",
            "--repo", "target",
            "--workflow", "9",
            "--directive", "fix it",
            "--backends", "backends/backends.json",
            "--runs-root", "runs",
            "--workspace", "workspace",
        ]
    )
    assert code == 0
    assert not (tmp_path / "target" / "workspace").exists()  # no stray tree in the repo


def test_replay_reproduces_identical_report(tmp_path, capsys):
    code, runs_root = _run_cli(tmp_path, 2, tester_blocks=2)
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    capsys.readouterr()
    code = main(["replay", "--run", str(run_dir.path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "identical" in out


def test_replay_feeds_the_recorded_answers(tmp_path, capsys):
    answers = tmp_path / "answers.txt"
    answers.write_text("use the default proposal scale\n", encoding="utf-8")
    code, runs_root = _run_cli(tmp_path, 9, "--answers", str(answers), builder_holds=1)
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    capsys.readouterr()
    code = main(["replay", "--run", str(run_dir.path)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "replay identical (exit 0)" in out


def test_an_unrecognized_language_leaves_the_language_question_pending(tmp_path, capsys):
    repo = repo_without_language(tmp_path / "repo")
    answers = tmp_path / "answers.txt"
    answers.write_text("Klingon\n", encoding="utf-8")
    code, runs_root = _run_cli(tmp_path, 9, "--answers", str(answers), repo=repo)
    assert code == 3
    run_dir = _single_run_dir(runs_root)
    first = json.loads(run_dir.report_json_path.read_text(encoding="utf-8"))
    assert first["escalation"] == "unrecognized language 'Klingon'"
    assert first["pending"] == "language profile needed for the target repository"
    # the rejected answer is journaled before the halt, and sets no language
    assert run_dir.events()[-2:] == [
        {"event": "language", "language": None, "answer": "Klingon"},
        {"event": "halt", "escalation": first["escalation"], "pending": first["pending"]},
    ]
    assert first["language"] is None

    assert main(["answer", "--run", str(run_dir.path), "Python"]) == 0
    report = json.loads(run_dir.report_json_path.read_text(encoding="utf-8"))
    assert report["language"] == "Python"
    assert report["final_state"] == "PIPELINES_COMPLETE"


@pytest.mark.parametrize(
    "workflow_id,cfg",
    [
        (9, {"tester_blocks": 4}),  # a retry cap: an escalation, no question
        (2, {}),  # awaiting authorization: a pending step, no escalation
        (2, {"builder_reads": ("test-spec.md",)}),  # a gate violation
    ],
)
def test_answer_refuses_a_run_that_halted_on_no_question(tmp_path, capsys, workflow_id, cfg):
    _, runs_root = _run_cli(tmp_path, workflow_id, **cfg)
    run_dir = _single_run_dir(runs_root)
    journal = run_dir.journal_path.read_bytes()
    assert run_dir.events()[-1]["event"] == "halt"
    assert main(["answer", "--run", str(run_dir.path), "nobody asked"]) == 2
    assert run_dir.journal_path.read_bytes() == journal


def test_answer_without_run_config_writes_nothing(tmp_path, capsys):
    _, runs_root = _run_cli(tmp_path, 9, builder_holds=1)
    run_dir = _single_run_dir(runs_root)
    (run_dir.path / "run-config.json").unlink()
    before = sorted(p.name for p in run_dir.path.iterdir())
    journal = run_dir.journal_path.read_bytes()
    assert main(["answer", "--run", str(run_dir.path), "use defaults"]) == 4
    assert sorted(p.name for p in run_dir.path.iterdir()) == before
    assert run_dir.journal_path.read_bytes() == journal


def test_a_session_that_answers_the_hold_itself_leaves_no_question_pending(tmp_path, capsys):
    repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    code, runs_root = _run_cli(tmp_path, 2, repo=repo, builder_holds=1)
    assert code == 3
    run_dir = _single_run_dir(runs_root)
    workflow = workflow_by_id(2)
    report = Orchestrator(
        run_dir=run_dir,
        request_id=run_dir.path.name,
        workflow=workflow,
        backends=scripted_backends(workflow, builder_holds=1),
        channel=UserChannel(
            mode=ChannelMode.SCRIPTED_ANSWERS, answers=("use defaults",), output_fn=lambda _: None
        ),
        target_repo=repo,
        git=SubprocessGit(),
        clock=TickClock(),
    ).run(authorization="explicit-user-authorization")
    assert report.final_state == "DONE" and report.ship["shipped"]
    capsys.readouterr()
    assert main(["status", "--run", str(run_dir.path)]) == 0
    out = capsys.readouterr().out
    assert "state: DONE" in out
    assert "pending" not in out


def _without_tester(config: Path) -> Path:
    entries = json.loads(config.read_text(encoding="utf-8"))
    del entries["backends"]["tester"]
    config.write_text(json.dumps(entries), encoding="utf-8")
    return config


@pytest.mark.parametrize(
    "workflow_id,cfg,line",
    [
        (2, {"builder_reads": ("test-spec.md",)}, "gate violation: mechanical review failed"),
        (9, {}, "diagnostic [tester]: no backend configured for tester"),
    ],
)
def test_status_says_why_the_run_halted(tmp_path, capsys, workflow_id, cfg, line):
    config = write_backend_config(tmp_path / "backends", workflow_id, **cfg)
    if workflow_id == 9:
        _without_tester(config)
    code, runs_root = _run_cli(tmp_path, workflow_id, config=config)
    run_dir = _single_run_dir(runs_root)
    reported = run_dir.report_text_path.read_text(encoding="utf-8").splitlines()
    capsys.readouterr()
    assert main(["status", "--run", str(run_dir.path)]) == 0
    shown = [l for l in capsys.readouterr().out.splitlines() if l.startswith(line)]
    assert len(shown) == 1 and shown[0] in reported  # in the report's own words


def test_status_without_run_config_is_refused(tmp_path, capsys):
    _, runs_root = _run_cli(tmp_path, 9)
    run_dir = _single_run_dir(runs_root)
    (run_dir.path / "run-config.json").unlink()
    capsys.readouterr()
    assert main(["status", "--run", str(run_dir.path)]) == 4
    out = capsys.readouterr().out
    assert f"no run-config.json in {run_dir.path}" in out
    assert "workflow:" not in out


def test_replay_compares_the_journal(tmp_path, capsys):
    _, runs_root = _run_cli(tmp_path, 2)
    run_dir = _single_run_dir(runs_root)
    journal = run_dir.journal_path.read_text(encoding="utf-8")
    assert '"decision": "ALLOW"' in journal
    run_dir.journal_path.write_text(
        journal.replace('"decision": "ALLOW"', '"decision": "DENY"', 1), encoding="utf-8"
    )
    capsys.readouterr()
    assert main(["replay", "--run", str(run_dir.path)]) == 2
    assert "replay DIFFERS from the recorded run: events.jsonl" in capsys.readouterr().out


def test_replay_takes_the_request_id_from_the_run_directory(tmp_path, capsys):
    _, runs_root = _run_cli(tmp_path, 9)
    run_dir = _single_run_dir(runs_root)
    run_dir.report_json_path.write_text("junk\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--run", str(run_dir.path)]) == 2
    assert "replay DIFFERS from the recorded run: report.json" in capsys.readouterr().out


def test_a_resumed_session_continues_the_journals_time(tmp_path, capsys):
    code, runs_root = _run_cli(tmp_path, 9, builder_holds=1)
    assert code == 3
    run_dir = _single_run_dir(runs_root)
    assert main(["answer", "--run", str(run_dir.path), "use defaults"]) == 0
    history = [e for e in run_dir.events() if e["event"] in ("transition", "signal")]
    assert [e["event"] for e in history[-2:]] == ["signal", "transition"]
    times = [e["time"] for e in history]
    assert times == sorted(times) and len(set(times)) == len(times)


def test_the_cli_reads_no_projection_back(tmp_path, capsys):
    run_dirs = []
    for name in ("kept", "junked"):
        code, runs_root = _run_cli(tmp_path / name, 9, builder_holds=1)
        assert code == 3
        run_dirs.append(_single_run_dir(runs_root))
    kept, junked = run_dirs
    for path in (
        junked.report_json_path,
        junked.report_text_path,
        junked.artifact_path(ArtifactKind.STATUS),
        junked.access_log_path,
    ):
        path.write_text("junk\n", encoding="utf-8")

    def status(run_dir: RunDirectory) -> str:
        capsys.readouterr()
        assert main(["status", "--run", str(run_dir.path)]) == 0
        return capsys.readouterr().out

    assert status(junked) == status(kept)
    for run_dir in run_dirs:
        assert main(["answer", "--run", str(run_dir.path), "use defaults"]) == 0
    assert junked.report_json_path.read_bytes() == kept.report_json_path.read_bytes()


def test_replay_of_a_run_whose_workflow_an_answer_picked_is_identical(tmp_path, capsys):
    repo = init_git_repo(tmp_path / "repo")
    config = write_backend_config(tmp_path / "backends", 9, builder_holds=1)
    answers = tmp_path / "answers.txt"
    answers.write_text("9\nuse the sandwich estimator\n", encoding="utf-8")
    runs_root = tmp_path / "runs"
    code = main(
        [
            "run",
            "--repo", str(repo),
            "--directive", "hello there",
            "--backends", str(config),
            "--runs-root", str(runs_root),
            "--answers", str(answers),
        ]
    )
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    assert {"event": "answer", "role": "builder", "text": "use the sandwich estimator"} in run_dir.events()
    # the answer that picked the workflow is not one the sessions were given
    recorded = json.loads((run_dir.path / "run-config.json").read_text(encoding="utf-8"))
    assert recorded["workflow_id"] == 9
    assert recorded["answers"] == ["use the sandwich estimator"]
    capsys.readouterr()
    assert main(["replay", "--run", str(run_dir.path)]) == 0
    assert "replay identical (exit 0)" in capsys.readouterr().out


def _snapshot(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root`` with a file's bytes (None for a directory)."""
    return {
        str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))
    }


#: The commands that open a recorded run, with what each adds after --run.
OPENING_COMMANDS = {
    "status": [],
    "answer": ["use defaults"],
    "authorize": ["--yes"],
    "replay": [],
}


@pytest.mark.parametrize("missing", ["run directory", "run-config.json"])
@pytest.mark.parametrize("command", OPENING_COMMANDS)
def test_a_run_that_cannot_be_opened_exits_4_and_writes_nothing(tmp_path, capsys, command, missing):
    _, runs_root = _run_cli(tmp_path, 9, builder_holds=1)
    run_dir = _single_run_dir(runs_root)
    target = run_dir.path
    if missing == "run directory":
        target = runs_root / "req-missing"
    else:
        (run_dir.path / "run-config.json").unlink()
    before = _snapshot(runs_root)
    capsys.readouterr()
    assert main([command, "--run", str(target), *OPENING_COMMANDS[command]]) == 4
    out = capsys.readouterr().out
    if missing == "run directory":
        assert out.startswith("[environment] ") and str(target) in out
    else:
        assert f"no run-config.json in {target}" in out
    assert _snapshot(runs_root) == before


@pytest.mark.parametrize("command", OPENING_COMMANDS)
def test_a_journal_line_that_does_not_parse_exits_4_and_is_kept(tmp_path, capsys, command):
    _, runs_root = _run_cli(tmp_path, 2)
    run_dir = _single_run_dir(runs_root)
    # a session killed while it appended its last record
    truncated = run_dir.journal_path.read_bytes()[:-10]
    run_dir.journal_path.write_bytes(truncated)
    before = _snapshot(runs_root)
    capsys.readouterr()
    assert main([command, "--run", str(run_dir.path), *OPENING_COMMANDS[command]]) == 4
    line = truncated.count(b"\n") + 1
    assert f"{run_dir.journal_path} line {line} does not parse" in capsys.readouterr().out
    assert _snapshot(runs_root) == before


def _cut_short(text: str) -> str:
    return text[:-10]  # a session killed while it wrote the file


def _without(key: str):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


def _unknown_workflow(text: str) -> str:
    return json.dumps({**json.loads(text), "workflow_id": 99})


@pytest.mark.parametrize(
    "damage,says",
    [(_cut_short, "does not parse"), (_without("workflow_id"), "does not hold"),
     (_without("backends"), "does not hold"),
     (_unknown_workflow, "does not name a workflow of the catalog: no workflow with id 99")],
    ids=["cut short", "no workflow_id", "no backends", "unknown workflow_id"],
)
@pytest.mark.parametrize("command", OPENING_COMMANDS)
def test_a_run_config_that_cannot_be_read_exits_4_and_is_kept(tmp_path, capsys, command, damage, says):
    _, runs_root = _run_cli(tmp_path, 9, builder_holds=1)
    run_dir = _single_run_dir(runs_root)
    config = run_dir.path / "run-config.json"
    config.write_text(damage(config.read_text(encoding="utf-8")), encoding="utf-8")
    before = _snapshot(runs_root)
    capsys.readouterr()
    assert main([command, "--run", str(run_dir.path), *OPENING_COMMANDS[command]]) == 4
    assert f"[error] {config} {says}" in capsys.readouterr().out
    assert _snapshot(runs_root) == before


def test_authorize_refuses_a_run_that_is_not_ready_before_it_prompts(tmp_path, capsys, monkeypatch):
    code, runs_root = _run_cli(tmp_path, 2, builder_holds=1)
    assert code == 3
    run_dir = _single_run_dir(runs_root)
    prompts: list[str] = []
    monkeypatch.setattr("builtins.input", lambda prompt="": prompts.append(prompt) or "yes")
    capsys.readouterr()
    assert main(["authorize", "--run", str(run_dir.path)]) == 2
    assert "ship refused: run is at SPEC_READY, not READY_TO_SHIP" in capsys.readouterr().out
    assert prompts == []


def test_a_declined_authorization_prompt_writes_nothing(tmp_path, capsys, monkeypatch):
    code, runs_root = _run_cli(tmp_path, 2)
    assert code == 0
    run_dir = _single_run_dir(runs_root)
    before = _snapshot(runs_root)
    prompts: list[str] = []
    monkeypatch.setattr("builtins.input", lambda prompt="": prompts.append(prompt) or "no")
    capsys.readouterr()
    assert main(["authorize", "--run", str(run_dir.path)]) == 2
    out = capsys.readouterr().out
    assert "[user input needed] Authorize shipping? (yes/no)" in out
    assert out.endswith("shipping not authorized\n")
    assert prompts == ["> "]
    assert _snapshot(runs_root) == before


@pytest.mark.parametrize("raised", [RuntimeError("boom"), KeyboardInterrupt()], ids=["crash", "interrupt"])
def test_a_session_a_crash_or_an_interrupt_ends_is_echoed_and_mirrored(tmp_path, capsys, monkeypatch, raised):
    def refusing(role, *args, **kwargs):
        if role is AgentRole.TESTER:
            raise raised
        return create_sandbox(role, *args, **kwargs)

    monkeypatch.setattr("gatework.orchestrator.create_sandbox", refusing)
    if isinstance(raised, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            _run_cli(tmp_path, 9)
    else:
        code, _ = _run_cli(tmp_path, 9)
        assert code == 4  # the report's exit code
    run_dir = _single_run_dir(tmp_path / "runs")
    report = json.loads(run_dir.report_json_path.read_text(encoding="utf-8"))
    line = f"diagnostic [session]: {raised!r}"
    assert report["exit_code"] == 4 and report["diagnostics"] == {"session": repr(raised)}
    out, err = capsys.readouterr()
    assert line in out
    assert ("Traceback" in err) is isinstance(raised, RuntimeError)  # a crash's, on stderr
    log = (run_dir.logs_dir / "cli.log").read_text(encoding="utf-8")
    assert log.count(line) == 1 and "final state: " in log
