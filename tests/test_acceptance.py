"""Acceptance gate: every structural protocol claim, one test per
criterion, each printing a PASS/FAIL line. Run with ``pytest
tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import random
import subprocess
import time
from contextlib import contextmanager

from conftest import AUDIT_BODY, TEST_SPEC_BODY, RecordingGit, run_scripted_workflow, init_git_repo
from gatework.barrier import DEFAULT_ACCESS_MATRIX, AuditLog, check_access
from gatework.clock import TickClock
from gatework.gitlayer import GitAction
from gatework.model import (
    AccessDecision,
    AgentRole,
    ArtifactKind,
    IssueDescriptor,
    Signal,
    SignalKind,
    WorkflowState,
    workflow_by_id,
)
from gatework.orchestrator import (
    compile_plan,
    mechanical_review,
    run_issue_patrol,
    run_scheduled_loop,
    ship,
)
from gatework.rundir import RunDirectory
from gatework.statemachine import (
    RETRY_LIMIT,
    RunState,
    SignalDisposition,
    advance,
    record_signal,
)
from gatework.workspace import (
    DETECTION_PRECEDENCE,
    Language,
    WorkspaceLayout,
    detect_language,
    sync_workspace,
)

K = ArtifactKind
R = AgentRole
STATES = list(WorkflowState)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def test_acceptance_state_machine_chain(tmp_path):
    with criterion("state-machine chain (workflow 1 visits all seven gates in order, <5s)"):
        started = time.monotonic()
        report, _, _ = run_scripted_workflow(tmp_path, 1)
        elapsed = time.monotonic() - started
        assert report.visited_states == [
            "CREDENTIALS_VERIFIED",
            "NEW",
            "PLANNED",
            "SPEC_READY",
            "PIPELINES_COMPLETE",
            "DOCUMENTED",
            "REVIEW_PASSED",
        ]
        assert report.gate_violation is None
        assert report.escalation is None
        assert elapsed < 5.0


def test_acceptance_no_skip_fuzz(tmp_path):
    with criterion("no-skip fuzz (1,000 randomized artifact interleavings, zero tolerance)"):
        rng = random.Random(20260809)
        workflow = workflow_by_id(2)
        artifact_pool = [k for k in ArtifactKind if k is not K.STATUS]
        for trial in range(1000):
            run_dir = RunDirectory(tmp_path / f"fuzz-{trial % 16}")
            if run_dir.path.exists():
                for stale in run_dir.path.glob("*.md"):
                    stale.unlink()
            run_dir.create()
            run = RunState(workflow=workflow)
            clock = TickClock()
            for _ in range(rng.randint(2, 8)):
                action = rng.random()
                kind = rng.choice(artifact_pool)
                if action < 0.45:
                    if kind is K.REVIEW:
                        run_dir.write(kind, "verdict: PASS\n")
                    else:
                        run_dir.write(kind, "x\n")
                elif action < 0.6:
                    run_dir.artifact_path(kind).unlink(missing_ok=True)
                else:
                    if run.current is not WorkflowState.DONE:
                        advance(run, run_dir, clock)
                visited = list(run.visited_states())
                assert visited == STATES[: len(visited)], f"gap in trial {trial}: {visited}"


def test_acceptance_access_matrix_8x16():
    with criterion("access matrix (all 128 role x artifact cells, zero tolerance)"):
        specs = {K.COMPREHENSION, K.SPEC, K.TEST_SPEC, K.SIM_SPEC}
        pipeline_out = {K.IMPLEMENTATION, K.AUDIT, K.SIMULATION}
        scriber_out = {K.ARCHITECTURE, K.LOG_ENTRY, K.DOCS}
        allowed = {
            R.LEADER: {K.REQUEST, K.IMPACT, K.STATUS, K.CREDENTIALS},
            R.PLANNER: {K.REQUEST, K.IMPACT} | specs,
            R.BUILDER: {K.SPEC, K.IMPLEMENTATION},
            R.TESTER: {K.TEST_SPEC, K.AUDIT},
            R.SIMULATOR: {K.SIM_SPEC, K.SIMULATION},
            R.SCRIBER: pipeline_out | scriber_out,
            R.REVIEWER: specs | pipeline_out | scriber_out | {K.REVIEW},
            R.SHIPPER: set(ArtifactKind),
        }
        audit = AuditLog()
        cells = 0
        for role in AgentRole:
            for kind in ArtifactKind:
                decision = check_access(
                    DEFAULT_ACCESS_MATRIX, role, kind, audit=audit, clock=TickClock()
                )
                expected = (
                    AccessDecision.ALLOW if kind in allowed[role] else AccessDecision.DENY
                )
                assert decision is expected, f"({role.value}, {kind.filename})"
                cells += 1
        assert cells == 128


def test_acceptance_isolation_audit_end_to_end(tmp_path):
    with criterion("isolation audit (builder reading test-spec.md fails mechanical review)"):
        report, run_dir, _ = run_scripted_workflow(tmp_path, 2, builder_reads=("test-spec.md",))
        statuses = {c["name"]: c["status"] for c in report.mechanical["checks"]}
        assert statuses["pipeline-isolation"] == "fail"
        assert report.gate_violation is not None
        assert report.final_state != "REVIEW_PASSED"
        assert "builder\ttest-spec.md\tDENY" in run_dir.access_log_path.read_text(
            encoding="utf-8"
        )


def test_acceptance_signal_ownership_24_combinations():
    with criterion("signal ownership (24 combinations, exactly 6 permitted)"):
        permitted = set()
        from gatework.model import signal_owner_check

        for kind in SignalKind:
            for raiser in AgentRole:
                if signal_owner_check(Signal(kind=kind, raiser=raiser, payload="x")):
                    permitted.add((kind, raiser))
        assert permitted == {
            (SignalKind.HOLD, R.PLANNER),
            (SignalKind.HOLD, R.BUILDER),
            (SignalKind.HOLD, R.SCRIBER),
            (SignalKind.HOLD, R.SIMULATOR),
            (SignalKind.BLOCK, R.TESTER),
            (SignalKind.STOP, R.REVIEWER),
        }
        assert len(permitted) == 6


def test_acceptance_retry_cap_per_kind(tmp_path):
    with criterion("retry cap (three retries then escalation, per signal kind)"):
        owners = {
            SignalKind.HOLD: R.BUILDER,
            SignalKind.BLOCK: R.TESTER,
            SignalKind.STOP: R.REVIEWER,
        }
        for kind, raiser in owners.items():
            run_dir = RunDirectory(tmp_path / f"retry-{kind.value}").create()
            run = RunState(workflow=workflow_by_id(2))
            clock = TickClock()
            signal = Signal(kind=kind, raiser=raiser, payload="target: builder\nx")
            for _ in range(RETRY_LIMIT):
                assert record_signal(run, signal, run_dir, clock) is SignalDisposition.RETRY
            assert (
                record_signal(run, signal, run_dir, clock)
                is SignalDisposition.ESCALATE_TO_USER
            )
            assert run.retries[kind] == RETRY_LIMIT


def test_acceptance_block_loop_convergence(tmp_path):
    with criterion("BLOCK loop convergence (two blocks, three builder dispatches, replayable)"):
        report, _, _ = run_scripted_workflow(tmp_path / "a", 2, tester_blocks=2)
        assert report.retries["BLOCK"] == 2
        assert report.dispatch_counts["builder"] == 3
        assert report.final_state == "READY_TO_SHIP"
        replay, _, _ = run_scripted_workflow(tmp_path / "b", 2, tester_blocks=2)
        assert replay.to_dict() == report.to_dict()


def test_acceptance_ship_gate_truth_table(tmp_path):
    with criterion("ship gate (8-case verdict x authorization table, exactly 2 ship)"):
        shipped_cases = []
        target = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
        for verdict in ("PASS", "PASS_WITH_NOTE", "STOP", None):
            for authorized in (True, False):
                run_dir = RunDirectory(
                    tmp_path / f"ship-{verdict or 'absent'}-{authorized}"
                ).create()
                for kind in (K.REQUEST, K.IMPACT, K.CREDENTIALS):
                    run_dir.write(kind, "x\n")
                if verdict is not None:
                    run_dir.write(K.REVIEW, f"verdict: {verdict}\n")
                git = RecordingGit()
                result = ship(
                    run_dir,
                    "token" if authorized else None,
                    target_repo=target,
                    git=git,
                    clock=TickClock(),
                    run_state=RunState(
                        workflow=workflow_by_id(2), current=WorkflowState.READY_TO_SHIP
                    ),
                )
                if result.shipped:
                    shipped_cases.append((verdict, authorized))
                pushed = any(a.action is GitAction.PUSH and a.ok for a in git.actions)
                assert pushed is result.shipped
        assert shipped_cases == [("PASS", True), ("PASS_WITH_NOTE", True)]


# expected dispatch counts and artifact inventories per catalog entry
_LEADER = {"request.md", "impact.md", "status.md", "credentials.md"}
_CATALOG_EXPECTATIONS = {
    1: (
        {"planner": 1, "builder": 1, "tester": 1, "simulator": 1, "scriber": 1, "reviewer": 1},
        _LEADER
        | {
            "comprehension.md", "spec.md", "test-spec.md", "sim-spec.md",
            "implementation.md", "audit.md", "simulation.md",
            "Architecture.md", "log-entry.md", "docs.md", "review.md",
        },
    ),
    2: (
        {"planner": 1, "builder": 1, "tester": 1, "scriber": 1, "reviewer": 1, "shipper": 1},
        _LEADER
        | {
            "comprehension.md", "spec.md", "test-spec.md",
            "implementation.md", "audit.md",
            "Architecture.md", "log-entry.md", "docs.md", "review.md", "shipper.md",
        },
    ),
    3: (
        {"planner": 1, "scriber": 1, "reviewer": 1},
        _LEADER | {"comprehension.md", "Architecture.md", "log-entry.md", "docs.md", "review.md"},
    ),
    6: ({"tester": 1}, _LEADER | {"audit.md"}),
    7: ({"reviewer": 1}, _LEADER | {"review.md"}),
    9: ({"builder": 1, "tester": 1}, _LEADER | {"implementation.md", "audit.md"}),
    10: (
        {"planner": 1, "simulator": 1, "tester": 1, "scriber": 1, "reviewer": 1},
        _LEADER
        | {
            "comprehension.md", "test-spec.md", "sim-spec.md",
            "simulation.md", "audit.md",
            "Architecture.md", "log-entry.md", "docs.md", "review.md",
        },
    ),
}
_CATALOG_EXPECTATIONS[5] = _CATALOG_EXPECTATIONS[2]


def test_acceptance_workflow_catalog(tmp_path):
    with criterion("workflow catalog (all ten dispatch multisets and artifact sets)"):
        for workflow_id, (roles, artifacts) in sorted(_CATALOG_EXPECTATIONS.items()):
            ships = workflow_by_id(workflow_id).ships
            report, _, _ = run_scripted_workflow(
                tmp_path / f"wf{workflow_id}",
                workflow_id,
                authorization="token" if ships else None,
            )
            assert report.dispatch_counts == roles, f"workflow {workflow_id} roles"
            assert set(report.artifacts) == artifacts, f"workflow {workflow_id} artifacts"
            assert report.gate_violation is None and report.escalation is None

        # workflow 1 produces 15 artifacts and no shipper.md
        assert len(_CATALOG_EXPECTATIONS[1][1]) == 15
        assert "shipper.md" not in _CATALOG_EXPECTATIONS[1][1]
        # workflow 6 dispatches only the tester
        assert _CATALOG_EXPECTATIONS[6][0] == {"tester": 1}

        # workflow 4: one independent code-fix run per issue
        issues = [IssueDescriptor(id="1", title="a"), IssueDescriptor(id="2", title="b")]
        patrol = run_issue_patrol(
            lambda: issues,
            start=lambda issue: run_scripted_workflow(
                tmp_path / f"wf4-{issue.id}", 2, authorization="token"
            )[0],
        )
        assert len(patrol) == 2
        for report in patrol:
            assert report.dispatch_counts == _CATALOG_EXPECTATIONS[2][0]
            assert set(report.artifacts) == _CATALOG_EXPECTATIONS[2][1]

        # workflow 8: the inner workflow repeats on the interval
        sleeps: list[float] = []
        loop = run_scheduled_loop(
            1,
            iterations=2,
            interval_seconds=60.0,
            start=lambda i, wf: run_scripted_workflow(tmp_path / f"wf8-{i}", wf.id)[0],
            sleep=sleeps.append,
        )
        assert len(loop) == 2 and sleeps == [60.0]
        for report in loop:
            assert report.dispatch_counts == _CATALOG_EXPECTATIONS[1][0]
            assert set(report.artifacts) == _CATALOG_EXPECTATIONS[1][1]


def test_acceptance_language_detection(tmp_path):
    with criterion("language detection (eight markers, precedence, unknown holds)"):
        marker_files = {
            Language.R: ["DESCRIPTION"],
            Language.PYTHON: ["pyproject.toml"],
            Language.TYPESCRIPT: ["package.json"],
            Language.STATA: ["cmd.ado"],
            Language.GO: ["go.mod"],
            Language.RUST: ["Cargo.toml"],
            Language.C: ["Makefile", "main.c"],
            Language.CPP: ["CMakeLists.txt", "main.cpp"],
        }
        for language, files in marker_files.items():
            repo = tmp_path / f"fixture-{language.name}"
            repo.mkdir()
            for name in files:
                (repo / name).write_text("marker\n", encoding="utf-8")
            assert detect_language(repo).language is language, language

        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for files in marker_files.values():
            for name in files:
                (mixed / name).write_text("marker\n", encoding="utf-8")
        assert detect_language(mixed).language is DETECTION_PRECEDENCE[0]

        empty = tmp_path / "empty"
        empty.mkdir()
        assert detect_language(empty).language is Language.UNKNOWN
        report, _, orch = run_scripted_workflow(tmp_path / "hold", 6, target_repo=empty)
        assert report.escalation is not None  # unknown profile raised a user question
        assert "language" in orch.channel.transcript[0][1].lower()


def test_acceptance_workspace_sync_idempotence(tmp_path):
    with criterion("workspace sync (idempotent double sync; logs/ and tmp/ never pushed)"):
        remote = tmp_path / "remote.git"
        root = init_git_repo(tmp_path / "workspace", remote=remote)
        layout = WorkspaceLayout(root=root, repo_name="panelkit").ensure()
        (layout.logs_dir / "debug.log").write_text("local only\n", encoding="utf-8")
        (layout.tmp_dir / "scratch.bin").write_text("local only\n", encoding="utf-8")

        run_dir = RunDirectory(tmp_path / "run").create()
        run_dir.write(K.REVIEW, "verdict: PASS\n")
        run_dir.write(
            K.LOG_ENTRY,
            "# Log entry\n\n## What Changed\nFixed it.\n\n## Handoff Notes\nNone pending.\n",
        )
        run_dir.write(K.DOCS, "# Docs\n")

        from gatework.gitlayer import SubprocessGit

        git = SubprocessGit()
        clock = TickClock()
        first = sync_workspace(layout, run_dir, git=git, clock=clock, slug="fix")
        assert first.ok and first.changed

        def tree() -> dict:
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file() and ".git" not in p.parts
            }

        snapshot = tree()
        head = subprocess.run(
            ["git", "-C", str(remote), "rev-parse", "main"],
            capture_output=True, text=True, check=True,
        ).stdout
        second = sync_workspace(layout, run_dir, git=git, clock=clock, slug="fix")
        assert second.ok and not second.changed
        assert tree() == snapshot  # byte-identical workspace tree
        head_after = subprocess.run(
            ["git", "-C", str(remote), "rev-parse", "main"],
            capture_output=True, text=True, check=True,
        ).stdout
        assert head_after == head  # no second push

        pushed_paths = subprocess.run(
            ["git", "-C", str(remote), "ls-tree", "-r", "--name-only", "main"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert "panelkit/runs/2000-01-01-fix.md" in pushed_paths
        assert not any("/logs/" in p or "/tmp/" in p for p in pushed_paths)


def test_acceptance_tolerance_integrity(tmp_path):
    with criterion("tolerance integrity (1e-4 against a 1e-6 specification is flagged)"):
        run_dir = RunDirectory(tmp_path / "run").create()
        workflow = workflow_by_id(9)
        for kind in (K.REQUEST, K.IMPACT, K.CREDENTIALS):
            run_dir.write(kind, "x\n")
        run_dir.write(K.TEST_SPEC, TEST_SPEC_BODY)  # specifies 1e-6
        run_dir.write(K.IMPLEMENTATION, "# impl\n")
        run_dir.write(K.AUDIT, AUDIT_BODY.replace("1e-6", "1e-4"))
        plan = compile_plan(workflow)
        logs = {R.BUILDER: (), R.TESTER: ()}
        flagged = mechanical_review(run_dir, logs, plan)
        failures = {c.name for c in flagged.failures()}
        assert "tolerance-integrity" in failures

        # the conforming audit passes: "no inflation detected"
        run_dir.write(K.AUDIT, AUDIT_BODY)
        clean = mechanical_review(run_dir, logs, plan)
        tolerance = next(c for c in clean.checks if c.name == "tolerance-integrity")
        assert tolerance.status.value == "pass"
        assert tolerance.detail == "no inflation detected"
