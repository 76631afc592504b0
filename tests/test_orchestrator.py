from __future__ import annotations

import json
import random
import shutil
import subprocess
import time
from pathlib import Path

import pytest

from conftest import (
    AUDIT_BODY,
    RecordingChannel,
    RecordingGit,
    Spy,
    init_git_repo,
    repo_without_language,
    run_scripted_workflow,
    scripted_backends,
    script_texts,
    shipper_script,
)
from gatework.clock import TickClock
from gatework.errors import HoldUnanswered, MisconfigurationError, ProtocolError
from gatework.gitlayer import GitAction, SubprocessGit
from gatework.model import (
    AgentRole,
    ArtifactKind,
    IssueDescriptor,
    Signal,
    SignalKind,
    WorkflowState,
    workflow_by_id,
)
from gatework.orchestrator import (
    SCHEDULABLE_INNER_IDS,
    ChannelMode,
    Orchestrator,
    RunReport,
    UserChannel,
    classify_directive,
    compile_plan,
    mechanical_review,
    route_signal,
    run_issue_patrol,
    run_scheduled_loop,
    select_workflow,
    ship,
    start_run,
)
from gatework.rundir import RunDirectory
from gatework.runtime import AgentBackend, BackendKind, ScriptedBackend, SubprocessBackend
from gatework.statemachine import RunState
from gatework.workspace import WorkspaceLayout

K = ArtifactKind
R = AgentRole

LEADER_ARTIFACTS = {"request.md", "impact.md", "status.md", "credentials.md"}


# --- workflow selection -------------------------------------------------------


@pytest.mark.parametrize(
    "directive,expected_id",
    [
        ("Fix the failing tests in the panel estimator", 2),
        ("Update the README and vignette", 3),
        ("Run a Monte Carlo study comparing the three estimators", 10),
        ("Port this R library to a Python package", 2),
        ("Read the attached article and add the network plot feature", 2),
        ("Fix issue #42 in the plotting code", 5),
        ("Patrol the open issues and fix what you find", 4),
        ("Run the tests and report", 6),
        ("Code review of the pull request please", 7),
        ("Nightly validation sweep", 8),
        ("Fix the typo in the docs header", 9),
    ],
)
def test_select_workflow_directives(directive, expected_id):
    assert select_workflow(directive).id == expected_id


def test_select_workflow_combined_code_and_simulation_is_full_workflow():
    directive = (
        "Build an R package implementing the three estimation methods, then run a "
        "Monte Carlo simulation comparing them. Ship it."
    )
    assert select_workflow(directive).id == 1


def test_select_workflow_override_wins():
    assert select_workflow("Fix the failing tests", override=9).id == 9


def test_select_workflow_ambiguous_asks_with_top_two_candidates():
    channel = UserChannel(mode=ChannelMode.SCRIPTED_ANSWERS, answers=["3"], output_fn=lambda _: None)
    wf = select_workflow("hmm do something sensible", channel=channel)
    assert wf.id == 3
    with pytest.raises(HoldUnanswered) as unanswered:  # the answers are used up
        select_workflow("hmm do something sensible", channel=channel)
    assert "ambiguous" in unanswered.value.question.lower()


def test_select_workflow_ambiguous_unanswered_escalates():
    with pytest.raises(HoldUnanswered):
        select_workflow("hmm do something sensible")


def test_select_workflow_requires_directive_or_override():
    with pytest.raises(MisconfigurationError):
        select_workflow("   ")


def test_classifier_scores_are_ranked():
    ranked = classify_directive("fix the broken simulation study")
    assert ranked[0][0] == 1  # code + simulation markers combine to the full workflow


# --- plan compilation -----------------------------------------------------------


def test_compile_plan_stage_artifacts():
    plan = compile_plan(workflow_by_id(1))
    assert [stage.roles for stage in plan.stages] == [
        (R.PLANNER,),
        (R.BUILDER, R.TESTER, R.SIMULATOR),
        (R.SCRIBER,),
        (R.REVIEWER,),
    ]
    S = WorkflowState
    assert [stage.gate for stage in plan.stages] == [
        S.SPEC_READY, S.PIPELINES_COMPLETE, S.DOCUMENTED, S.REVIEW_PASSED,
    ]
    # a stage's gate stops short of the first state a later stage owes
    assert [stage.gate for stage in compile_plan(workflow_by_id(9)).stages] == [
        S.SPEC_READY, S.PIPELINES_COMPLETE,
    ]
    assert compile_plan(workflow_by_id(2)).stages[3].gate is S.READY_TO_SHIP
    assert plan.stage_index_of(R.SCRIBER) == 2


# --- signal routing --------------------------------------------------------------


def test_route_hold_forwards_question_and_redispatches_raiser():
    plan = compile_plan(workflow_by_id(2))
    routing = route_signal(Signal(SignalKind.HOLD, R.BUILDER, "proposal scale?"), plan)
    assert routing == {"phases": [["builder"]]}  # the question is the signal's payload


def test_route_block_defaults_to_builder_then_tester():
    plan = compile_plan(workflow_by_id(2))
    routing = route_signal(Signal(SignalKind.BLOCK, R.TESTER, "failure details"), plan)
    assert routing == {"phases": [["builder"], ["tester"]]}


def test_route_block_simulation_pipeline_targets_simulator():
    plan = compile_plan(workflow_by_id(1))
    routing = route_signal(
        Signal(SignalKind.BLOCK, R.TESTER, "pipeline: simulation\nDGP looks degenerate"), plan
    )
    assert routing == {"phases": [["simulator"], ["tester"]]}


def test_route_stop_rewinds_to_target_stage():
    plan = compile_plan(workflow_by_id(2))
    routing = route_signal(
        Signal(SignalKind.STOP, R.REVIEWER, "target: scriber\nmissing changelog"), plan
    )
    assert routing == {"rewind": plan.stage_index_of(R.SCRIBER)}


def test_route_stop_without_target_is_protocol_violation():
    plan = compile_plan(workflow_by_id(2))
    with pytest.raises(ProtocolError):
        route_signal(Signal(SignalKind.STOP, R.REVIEWER, "no routing line"), plan)


# --- full scripted runs ------------------------------------------------------------


def test_workflow_1_full_chain(tmp_path):
    report, run_dir, _ = run_scripted_workflow(tmp_path, 1)
    assert report.gate_violation is None
    assert report.escalation is None
    assert report.final_state == "REVIEW_PASSED"
    assert report.visited_states == [
        "CREDENTIALS_VERIFIED",
        "NEW",
        "PLANNED",
        "SPEC_READY",
        "PIPELINES_COMPLETE",
        "DOCUMENTED",
        "REVIEW_PASSED",
    ]
    assert len(report.artifacts) == 15
    assert "shipper.md" not in report.artifacts
    assert report.mechanical["passed"] is True
    assert report.exit_code == 0


def test_workflow_9_minimal_run(tmp_path):
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9)
    assert report.final_state == "PIPELINES_COMPLETE"
    produced = set(report.artifacts) - LEADER_ARTIFACTS
    assert produced == {"implementation.md", "audit.md"}
    assert report.dispatch_counts == {"builder": 1, "tester": 1}


def test_workflow_2_block_loop_converges(tmp_path):
    report, run_dir, _ = run_scripted_workflow(tmp_path, 2, tester_blocks=2)
    assert report.retries["BLOCK"] == 2
    assert report.dispatch_counts["builder"] == 3
    assert report.dispatch_counts["tester"] == 3
    assert report.final_state == "READY_TO_SHIP"
    assert report.pending is not None  # awaiting explicit authorization
    assert report.exit_code == 0


def test_workflow_2_block_loop_replay_is_identical(tmp_path):
    first, _, _ = run_scripted_workflow(tmp_path / "a", 2, tester_blocks=2)
    second, _, _ = run_scripted_workflow(tmp_path / "b", 2, tester_blocks=2)
    assert first.to_dict() == second.to_dict()


def test_workflow_2_ships_with_authorization(tmp_path):
    git = RecordingGit()
    report, run_dir, _ = run_scripted_workflow(
        tmp_path, 2, git=git, authorization="explicit-user-token"
    )
    assert report.final_state == "DONE"
    assert "shipper.md" in report.artifacts
    assert report.ship["shipped"] is True
    shipper_text = run_dir.read(K.SHIPPER)
    assert "Git actions taken" in shipper_text
    assert f"## Workspace sync\n- {report.ship['sync']}\n" in shipper_text
    pushes = [a for a in git.actions if a.action is GitAction.PUSH]
    assert len(pushes) == 1 and pushes[0].ok


def test_hold_flow_answer_appended_and_redispatches(tmp_path):
    report, _, orting = run_scripted_workflow(
        tmp_path, 9, builder_holds=1, answers=("use the default scale",)
    )
    assert report.retries["HOLD"] == 1
    assert report.dispatch_counts["builder"] == 2
    assert report.final_state == "PIPELINES_COMPLETE"
    assert report.signals[0]["kind"] == "HOLD"


def test_hold_unanswered_escalates(tmp_path):
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, builder_holds=1, answers=())
    assert report.escalation is not None
    assert report.pending is not None
    assert run_dir.events()[-1] == {
        "event": "halt", "escalation": report.escalation, "pending": report.pending,
    }
    assert report.exit_code == 3


def test_hold_cap_escalates_on_fourth(tmp_path):
    report, _, _ = run_scripted_workflow(
        tmp_path, 9, builder_holds=4, answers=("a", "b", "c", "d")
    )
    assert report.retries["HOLD"] == 3
    assert report.escalation is not None
    assert report.exit_code == 3


def test_block_cap_escalates_on_fourth(tmp_path):
    report, _, _ = run_scripted_workflow(tmp_path, 2, tester_blocks=4)
    assert report.retries["BLOCK"] == 3
    assert report.escalation is not None
    assert report.dispatch_counts["builder"] == 4
    assert report.final_state == "SPEC_READY"
    assert report.exit_code == 3


def test_stop_flow_redispatches_target_and_downstream(tmp_path):
    report, _, _ = run_scripted_workflow(tmp_path, 2, reviewer_stops=1, stop_target="scriber")
    assert report.retries["STOP"] == 1
    assert report.dispatch_counts["scriber"] == 2
    assert report.dispatch_counts["reviewer"] == 2
    assert report.final_state == "READY_TO_SHIP"


def test_stop_routed_to_builder_reruns_pipelines(tmp_path):
    report, _, _ = run_scripted_workflow(tmp_path, 2, reviewer_stops=1, stop_target="builder")
    assert report.dispatch_counts["builder"] == 2
    assert report.dispatch_counts["tester"] == 2
    assert report.dispatch_counts["scriber"] == 2
    assert report.dispatch_counts["reviewer"] == 2
    assert report.final_state == "READY_TO_SHIP"


def test_block_routed_to_simulator_redispatches_simulation_pipeline(tmp_path):
    workflow = workflow_by_id(1)
    backends = scripted_backends(workflow)
    backends[R.TESTER] = ScriptedBackend.from_text(
        "signal BLOCK <<EOF\npipeline: simulation\nDGP degenerate on balanced panel\nEOF\n"
        "---\nread test-spec.md\nwrite audit.md <<EOF\n" + AUDIT_BODY + "EOF\ncomplete\n"
    )
    report, _, _ = run_scripted_workflow(tmp_path, 1, backends=backends)
    assert report.dispatch_counts["simulator"] == 2
    assert report.dispatch_counts["builder"] == 1  # code pipeline untouched
    assert report.dispatch_counts["tester"] == 2
    assert report.final_state == "REVIEW_PASSED"


@pytest.mark.parametrize("workflow_id,final_state", [(6, "PIPELINES_COMPLETE"), (10, "REVIEW_PASSED")])
def test_block_without_a_fix_role_redispatches_the_tester_once(tmp_path, workflow_id, final_state):
    # neither workflow dispatches a builder, so the routed phases are the
    # tester alone
    report, _, _ = run_scripted_workflow(tmp_path, workflow_id, tester_blocks=1)
    assert report.retries["BLOCK"] == 1
    assert report.dispatch_counts["tester"] == 2
    assert report.final_state == final_state
    assert report.exit_code == 0


def test_block_retry_that_writes_nothing_breaks_the_contract(tmp_path):
    workflow = workflow_by_id(9)
    backends = scripted_backends(workflow, tester_blocks=1)
    backends[R.BUILDER] = ScriptedBackend.from_text(
        "write implementation.md <<EOF\n# Implementation\nEOF\ncomplete\n---\ncomplete\n"
    )
    report, _, _ = run_scripted_workflow(tmp_path, 9, backends=backends)
    # the first attempt's implementation.md is not put back into the retry
    assert "without contracted artifact(s): ['implementation.md']" in report.diagnostics["builder"]
    assert report.exit_code == 4
    assert report.final_state == "SPEC_READY"
    assert report.dispatch_counts == {"builder": 2, "tester": 1}


def test_resume_after_mid_stage_hold_skips_completed_peers(tmp_path):
    first, run_dir, _ = run_scripted_workflow(tmp_path, 2, builder_holds=1, answers=())
    assert first.escalation is not None
    assert first.dispatch_counts == {"builder": 1, "planner": 1, "tester": 1}

    workflow = workflow_by_id(2)
    channel = UserChannel(
        mode=ChannelMode.SCRIPTED_ANSWERS, answers=("use defaults",), output_fn=lambda _: None
    )
    from gatework.orchestrator import Orchestrator

    resumed = Orchestrator(
        run_dir=run_dir,
        request_id=run_dir.path.name,
        workflow=workflow,
        backends=scripted_backends(workflow, builder_holds=1),
        channel=channel,
        target_repo=tmp_path / "repo",
        git=SubprocessGit(),
        clock=TickClock(),
        directive="scripted protocol exercise",
    ).run()
    assert resumed.final_state == "READY_TO_SHIP"
    # counts cover the whole run: the planner stage and the tester's
    # completed work were not re-run in the second session
    assert resumed.dispatch_counts == {
        "builder": 2, "planner": 1, "reviewer": 1, "scriber": 1, "tester": 1,
    }
    assert resumed.retries["HOLD"] == 1  # carried over from the first session


def test_resume_keeps_access_events_of_earlier_sessions(tmp_path):
    workflow = workflow_by_id(2)
    backends = scripted_backends(workflow)
    backends[R.BUILDER] = ScriptedBackend.from_text(
        "read spec.md\nread test-spec.md\nsignal HOLD \"which estimator variant?\"\n---\n"
        "read spec.md\nwrite implementation.md <<EOF\n# Implementation\nEOF\ncomplete\n"
    )
    first, run_dir, _ = run_scripted_workflow(tmp_path, 2, backends=backends, answers=())
    assert first.escalation is not None

    resumed = Orchestrator(
        run_dir=run_dir,
        request_id=run_dir.path.name,
        workflow=workflow,
        backends=backends,
        channel=UserChannel(
            mode=ChannelMode.SCRIPTED_ANSWERS, answers=("use defaults",), output_fn=lambda _: None
        ),
        target_repo=tmp_path / "repo",
        git=SubprocessGit(),
        clock=TickClock(),
        directive="scripted protocol exercise",
    ).run()

    # the session-1 DENY still fails review after the session-2 ALLOW
    journaled = [e for e in run_dir.events() if e["event"] == "access" and e["role"] == "builder"]
    assert [[e["artifact"], e["decision"]] for e in journaled] == [
        ["spec.md", "ALLOW"], ["test-spec.md", "DENY"], ["spec.md", "ALLOW"],
    ]
    checks = {c["name"]: c for c in resumed.mechanical["checks"]}
    assert checks["pipeline-isolation"]["status"] == "fail"
    assert "builder touched test-spec.md" in checks["pipeline-isolation"]["detail"]
    assert resumed.exit_code == 2


def test_stop_cap_escalates_on_fourth(tmp_path):
    report, _, _ = run_scripted_workflow(tmp_path, 3, reviewer_stops=4, stop_target="scriber")
    assert report.retries["STOP"] == 3
    assert report.escalation is not None
    assert report.dispatch_counts["reviewer"] == 4
    assert report.dispatch_counts["scriber"] == 4  # initial + three re-runs
    assert report.exit_code == 3


def test_missing_backend_is_an_environment_failure(tmp_path):
    workflow = workflow_by_id(9)
    backends = scripted_backends(workflow)
    del backends[R.TESTER]
    report, _, _ = run_scripted_workflow(tmp_path, 9, backends=backends)
    assert report.exit_code == 4
    assert "tester" in str(report.diagnostics)


def test_reviewer_stop_verdict_without_signal_is_gate_violation(tmp_path):
    report, _, _ = run_scripted_workflow(tmp_path, 3, reviewer_verdict="STOP")
    assert report.final_state == "DOCUMENTED"
    assert report.gate_violation is not None
    assert report.exit_code == 2


# --- mechanical review --------------------------------------------------------------


def test_mechanical_review_clean_run_passes(tmp_path):
    report, run_dir, orch = run_scripted_workflow(tmp_path, 1)
    statuses = {c["name"]: c["status"] for c in report.mechanical["checks"]}
    assert statuses["artifact-presence"] == "pass"
    assert statuses["pipeline-isolation"] == "pass"
    assert statuses["tolerance-integrity"] == "pass"
    assert statuses["evidence-completeness"] == "pass"
    # the engine did not make the checks it delegates, and says so
    delegated = ("spec-cross-comparison", "output-convergence", "coverage-of-changes")
    assert [statuses[name] for name in delegated] == ["not observed"] * 3
    assert run_dir.report_text_path.read_text(encoding="utf-8").splitlines()[-1] == (
        "not observed: " + "; ".join(f"{name} (delegated to reviewer backend)" for name in delegated)
    )
    assert run_dir.access_log_path.exists()


def test_mechanical_review_flags_tolerance_inflation(tmp_path):
    inflated = AUDIT_BODY.replace("1e-6", "1e-4")
    report, _, _ = run_scripted_workflow(tmp_path, 2, audit_body=inflated)
    statuses = {c["name"]: c["status"] for c in report.mechanical["checks"]}
    assert statuses["tolerance-integrity"] == "fail"
    assert report.gate_violation is not None
    assert report.final_state == "DOCUMENTED"
    assert report.exit_code == 2


def test_mechanical_review_tighter_than_spec_is_not_inflation(tmp_path):
    tighter = AUDIT_BODY.replace("| reference comparison | 1e-6 |", "| reference comparison | 1e-8 |")
    report, _, _ = run_scripted_workflow(tmp_path, 2, audit_body=tighter)
    statuses = {c["name"]: c["status"] for c in report.mechanical["checks"]}
    assert statuses["tolerance-integrity"] == "pass"


def test_builder_reading_test_spec_fails_isolation_end_to_end(tmp_path):
    report, run_dir, _ = run_scripted_workflow(
        tmp_path, 2, builder_reads=("test-spec.md",)
    )
    statuses = {c["name"]: c["status"] for c in report.mechanical["checks"]}
    assert statuses["pipeline-isolation"] == "fail"
    assert report.gate_violation is not None
    assert "mechanical review failed" in report.gate_violation
    assert report.exit_code == 2
    # the denied attempt is visible in the merged run-level access log
    assert "builder\ttest-spec.md\tDENY" in run_dir.access_log_path.read_text(encoding="utf-8")


def test_a_tester_reading_the_implementation_in_the_pipeline_stage_fails_isolation(tmp_path):
    # the pipeline outputs are the tester's only once the pipelines are complete
    backends = scripted_backends(workflow_by_id(2))
    tester = script_texts(workflow_by_id(2))[R.TESTER]
    backends[R.TESTER] = ScriptedBackend.from_text("read implementation.md\n" + tester)
    report, run_dir, _ = run_scripted_workflow(tmp_path, 2, backends=backends)
    checks = {c["name"]: c for c in report.mechanical["checks"]}
    assert checks["pipeline-isolation"]["status"] == "fail"
    assert checks["pipeline-isolation"]["detail"] == "tester touched implementation.md"
    assert report.final_state == "DOCUMENTED" and report.exit_code == 2
    assert "tester\timplementation.md\tDENY" in run_dir.access_log_path.read_text(encoding="utf-8")


def test_a_tester_re_dispatched_after_the_pipelines_may_read_their_outputs(tmp_path):
    # a reviewer STOP routed to the builder re-runs the pipeline stage at
    # DOCUMENTED, where the tester's late inputs are granted
    backends = scripted_backends(workflow_by_id(1), reviewer_stops=1, stop_target="builder")
    tester = script_texts(workflow_by_id(1))[R.TESTER]
    backends[R.TESTER] = ScriptedBackend.from_text(f"{tester}---\nread implementation.md\n{tester}")
    report, run_dir, _ = run_scripted_workflow(tmp_path, 1, backends=backends)
    assert report.final_state == "REVIEW_PASSED" and report.exit_code == 0
    assert report.dispatch_counts["tester"] == 2
    checks = {c["name"]: c for c in report.mechanical["checks"]}
    assert checks["pipeline-isolation"]["status"] == "pass"
    assert "tester\timplementation.md\tALLOW" in run_dir.access_log_path.read_text(encoding="utf-8")


def test_mechanical_review_direct_missing_artifact_fails(tmp_path):
    run_dir = RunDirectory(tmp_path / "run").create()
    for kind in (K.REQUEST, K.IMPACT, K.CREDENTIALS, K.COMPREHENSION):
        run_dir.write(kind, "x\n")
    plan = compile_plan(workflow_by_id(3))
    logs = {role: () for role in workflow_by_id(3).roles()}
    report = mechanical_review(run_dir, logs, plan)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "artifact-presence" in failed


def test_tolerance_integrity_without_a_test_spec_is_not_observed(tmp_path):
    run_dir = RunDirectory(tmp_path / "run").create()
    for kind in (K.REQUEST, K.IMPACT, K.CREDENTIALS, K.COMPREHENSION, K.SPEC, K.IMPLEMENTATION):
        run_dir.write(kind, "x\n")
    run_dir.write(K.AUDIT, AUDIT_BODY)
    plan = compile_plan(workflow_by_id(9))
    report = mechanical_review(run_dir, {role: () for role in plan.workflow.roles()}, plan)
    checks = {c.name: c for c in report.checks}
    assert checks["tolerance-integrity"].status.value == "not observed"
    assert checks["tolerance-integrity"].detail == "no test specification to compare against"
    assert checks["evidence-completeness"].status.value == "pass"
    assert report.passed


def test_a_workflow_without_a_tester_has_no_validation_checks(tmp_path):
    report, _, _ = run_scripted_workflow(tmp_path, 3)
    assert report.final_state == "REVIEW_PASSED" and report.mechanical["passed"] is True
    assert [c["name"] for c in report.mechanical["checks"]] == [
        "artifact-presence", "pipeline-isolation",
        "spec-cross-comparison", "output-convergence", "coverage-of-changes",
    ]


def test_isolation_of_a_subprocess_role_is_not_observed(tmp_path):
    backends = scripted_backends(workflow_by_id(2))
    backends[R.BUILDER] = SubprocessBackend(
        ["sh", "-c", "cat >/dev/null; echo '# Implementation' > implementation.md; echo 'OUTCOME: COMPLETED'"]
    )
    report, run_dir, _ = run_scripted_workflow(tmp_path, 2, backends=backends)
    assert report.final_state == "READY_TO_SHIP" and report.exit_code == 0
    checks = {c["name"]: c for c in report.mechanical["checks"]}
    assert checks["pipeline-isolation"] == {
        "name": "pipeline-isolation",
        "status": "not observed",
        "detail": "reads of subprocess role(s) not seen: builder",
    }
    assert report.mechanical["passed"] is True
    text = run_dir.report_text_path.read_text(encoding="utf-8")
    assert "not observed: pipeline-isolation (reads of subprocess role(s) not seen: builder); " in text


# --- leader purity and stage atomicity ------------------------------------------------


class _BriefingCapture(AgentBackend):
    kind = BackendKind.SCRIPTED

    def __init__(self, inner: AgentBackend, seen: dict):
        self.inner = inner
        self.seen = seen

    def execute(self, req, log_path=None):
        self.seen.setdefault(req.role, []).append(req.briefing)
        return self.inner.execute(req, log_path=log_path)


def test_briefings_carry_profile_notes_and_granted_paths(tmp_path):
    seen: dict = {}
    workflow = workflow_by_id(2)
    backends = {
        role: _BriefingCapture(backend, seen)
        for role, backend in scripted_backends(workflow).items()
    }
    report, run_dir, _ = run_scripted_workflow(tmp_path, 2, backends=backends)
    assert report.final_state == "READY_TO_SHIP"
    tester_briefing = seen[R.TESTER][0]
    assert "validation commands: pytest; tox" in tester_briefing
    assert "test-spec.md" in tester_briefing  # granted artifact named
    assert "spec.md," not in tester_briefing.split("granted artifacts: ")[1].splitlines()[0]
    builder_briefing = seen[R.BUILDER][0]
    assert "documentation convention: docstrings" in builder_briefing
    # captured agent logs land under <run>/logs/<role>.log
    for role in workflow.roles():
        if role is not R.SHIPPER:  # shipper awaits authorization in this run
            assert (run_dir.logs_dir / f"{role.value}.log").exists()


def test_leader_never_mutates_git_outside_ship(tmp_path):
    git = RecordingGit()
    report, _, _ = run_scripted_workflow(tmp_path, 1, git=git)
    assert report.final_state == "REVIEW_PASSED"
    mutating = [a for a in git.actions if a.action in (GitAction.STAGE, GitAction.COMMIT, GitAction.PUSH)]
    assert mutating == []


def test_leader_leaves_target_repo_tree_untouched(tmp_path):
    target = tmp_path / "repo"
    target.mkdir()
    (target / "lib.py").write_text("x = 1\n", encoding="utf-8")
    init_git_repo(target)

    def fingerprint() -> dict:
        return {
            str(p.relative_to(target)): p.read_bytes()
            for p in sorted(target.rglob("*"))
            if p.is_file() and ".git" not in p.relative_to(target).parts
        }

    before = fingerprint()
    run_scripted_workflow(tmp_path, 1, target_repo=target)
    assert fingerprint() == before


class _DelayedBackend(AgentBackend):
    kind = BackendKind.SCRIPTED

    def __init__(self, inner: AgentBackend, rng: random.Random, spans: dict):
        self.inner = inner
        self.rng = rng
        self.spans = spans

    def execute(self, req, log_path=None):
        start = time.monotonic()
        time.sleep(self.rng.uniform(0.0, 0.03))
        outcome = self.inner.execute(req, log_path=log_path)
        self.spans.setdefault(req.role, []).append((start, time.monotonic()))
        return outcome


def test_stage_atomicity_under_randomized_delays(tmp_path):
    rng = random.Random(7)
    for trial in range(3):
        spans: dict = {}
        workflow = workflow_by_id(1)
        backends = {
            role: _DelayedBackend(backend, rng, spans)
            for role, backend in scripted_backends(workflow).items()
        }
        report, _, _ = run_scripted_workflow(tmp_path / f"t{trial}", 1, backends=backends)
        assert report.final_state == "REVIEW_PASSED"
        pipeline_end = max(spans[r][0][1] for r in (R.BUILDER, R.TESTER, R.SIMULATOR))
        scriber_start = spans[R.SCRIBER][0][0]
        assert scriber_start >= pipeline_end  # no downstream stage starts early


# --- ship gate --------------------------------------------------------------------


def _resume(
    tmp_path: Path,
    run_dir: RunDirectory,
    workflow_id: int,
    git: SubprocessGit,
    backends=None,
    answers: tuple[str, ...] = (),
    **kwargs,
):
    workflow = workflow_by_id(workflow_id)
    return Orchestrator(
        run_dir=run_dir,
        request_id=run_dir.path.name,
        workflow=workflow,
        backends=backends or scripted_backends(workflow),
        channel=UserChannel(
            mode=ChannelMode.SCRIPTED_ANSWERS, answers=answers, output_fn=lambda _: None
        ),
        target_repo=tmp_path / "repo",
        git=git,
        clock=TickClock(),
        directive="scripted protocol exercise",
    ).run(**kwargs)


def test_resume_reruns_the_mechanical_review_of_a_completed_review(tmp_path):
    first, run_dir, _ = run_scripted_workflow(tmp_path, 2, builder_reads=("test-spec.md",))
    assert first.final_state == "DOCUMENTED"
    assert "mechanical review failed" in first.gate_violation

    git = RecordingGit()
    resumed = _resume(tmp_path, run_dir, 2, git, authorization="tok")

    assert not any(a.action is GitAction.PUSH for a in git.actions)
    assert resumed.ship is None
    assert resumed.final_state == "DOCUMENTED"
    assert "mechanical review failed (pipeline-isolation" in resumed.gate_violation
    assert resumed.mechanical["passed"] is False
    assert resumed.dispatch_counts == first.dispatch_counts  # the reviewer's work is not redone


def _run_whose_push_fails(tmp_path: Path, **kwargs) -> tuple[RunReport, RunDirectory]:
    """An authorized workflow 2 run on ``tmp_path / "repo"``, whose remote
    cannot be reached until the run has ended."""
    remote, away = tmp_path / "remote.git", tmp_path / "remote-away.git"
    repo = init_git_repo(tmp_path / "repo", remote=remote)
    remote.rename(away)
    report, run_dir, _ = run_scripted_workflow(
        tmp_path, 2, target_repo=repo, authorization="tok", **kwargs
    )
    away.rename(remote)
    return report, run_dir


def test_resume_after_a_failed_push_ships_instead_of_skipping_to_done(tmp_path):
    first, run_dir = _run_whose_push_fails(tmp_path)
    assert first.gate_violation == "push failed: environment"
    assert run_dir.exists(K.SHIPPER)  # the refused ship still reports its actions

    git = RecordingGit()
    resumed = _resume(tmp_path, run_dir, 2, git, authorization="tok")

    assert [a.action for a in git.actions if a.action is GitAction.PUSH] == [GitAction.PUSH]
    assert resumed.final_state == "DONE"
    assert resumed.ship["shipped"] is True
    assert resumed.dispatch_counts == {**first.dispatch_counts, "shipper": 2}


def test_resumed_ship_with_a_shipper_that_writes_nothing_is_not_done(tmp_path):
    first, run_dir = _run_whose_push_fails(tmp_path)
    assert first.gate_violation == "push failed: environment"

    backends = scripted_backends(workflow_by_id(2))
    backends[R.SHIPPER] = ScriptedBackend.from_text("complete\n")
    git = RecordingGit()
    resumed = _resume(tmp_path, run_dir, 2, git, backends=backends, authorization="tok")

    assert "without contracted artifact(s): ['shipper.md']" in resumed.diagnostics["shipper"]
    assert resumed.exit_code == 4
    assert resumed.final_state == "READY_TO_SHIP"
    assert not any(a.action is GitAction.PUSH for a in git.actions)
    # the refused ship's report stands as it was, not nested in a new one
    assert run_dir.read(K.SHIPPER).count("## Git actions taken") == 1


def test_resumed_session_finds_nothing_an_earlier_session_left_in_a_plain_sandbox(tmp_path):
    workflow = workflow_by_id(2)
    backends = scripted_backends(workflow)
    backends[R.SHIPPER] = ScriptedBackend.from_text(
        "write notes.txt <<EOF\nsession 1 scratch\nEOF\n" + shipper_script()
    )
    first, run_dir = _run_whose_push_fails(tmp_path, backends=backends)
    assert first.gate_violation == "push failed: environment"

    seen: list = []
    backends = scripted_backends(workflow)
    backends[R.SHIPPER] = Spy(
        backends[R.SHIPPER], seen, lambda req: sorted(p.name for p in req.sandbox.path.iterdir())
    )
    resumed = _resume(tmp_path, run_dir, 2, SubprocessGit(), backends=backends, authorization="tok")

    assert resumed.final_state == "DONE"
    # the shipper's inputs only: every artifact but its own report
    assert seen == [sorted(k.filename for k in run_dir.present() if k is not K.SHIPPER)]


def test_a_resumed_session_asks_the_pending_hold_before_any_dispatch(tmp_path):
    first, run_dir, _ = run_scripted_workflow(tmp_path, 9, builder_holds=1, answers=())
    assert first.pending == "which covariance estimator variant?"
    briefings: list = []
    backends = scripted_backends(workflow_by_id(9), builder_holds=1)
    backends[R.BUILDER] = Spy(backends[R.BUILDER], briefings, lambda req: req.briefing)

    unanswered = _resume(tmp_path, run_dir, 9, SubprocessGit(), backends=backends)
    assert briefings == []  # halted before any dispatch
    assert (unanswered.escalation, unanswered.pending) == (first.escalation, first.pending)
    assert unanswered.dispatch_counts == first.dispatch_counts == {"builder": 1}

    answered = _resume(
        tmp_path, run_dir, 9, SubprocessGit(), backends=backends, answers=("use the default scale",)
    )
    assert answered.final_state == "PIPELINES_COMPLETE"
    # the asker's next dispatch, its attempt 2 in the run, carries the answer
    assert len(briefings) == 1
    assert "user answer: use the default scale" in briefings[0]
    assert answered.dispatch_counts == {"builder": 2, "tester": 1}


def test_nothing_is_dispatched_before_the_entry_gate(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    git = SubprocessGit()
    run_dir, _ = start_run(
        runs_root=tmp_path / "runs", target_repo=repo, directive="review the change",
        workflow=workflow_by_id(7), git=git, clock=TickClock(),
    )
    run_dir.artifact_path(K.CREDENTIALS).unlink()
    dispatched: list = []
    backends = scripted_backends(workflow_by_id(7))
    backends[R.REVIEWER] = Spy(backends[R.REVIEWER], dispatched, lambda req: req.role)

    report = _resume(tmp_path, run_dir, 7, git, backends=backends)

    assert dispatched == [] and report.dispatch_counts == {}
    assert report.final_state == "CREDENTIALS_VERIFIED"
    assert report.gate_violation == (
        "entry gate: run stopped at CREDENTIALS_VERIFIED short of DOCUMENTED; "
        "NEW gate unsatisfied (credentials.md:EXISTS)"
    )
    assert report.exit_code == 2


def test_failed_dispatch_in_a_parallel_stage_is_recorded_under_the_failing_role(tmp_path):
    backends = scripted_backends(workflow_by_id(2))
    del backends[R.TESTER]  # dispatched in parallel with the builder
    report, _, _ = run_scripted_workflow(tmp_path, 2, backends=backends)
    assert report.diagnostics == {"tester": "no backend configured for tester"}
    assert report.exit_code == 4
    assert report.final_state == "SPEC_READY"


class _OccupyingBackend(AgentBackend):
    """Leaves something else (by default a plain directory) at the
    sandbox path ``name`` of its run, then runs ``inner``."""

    kind = BackendKind.SCRIPTED

    def __init__(self, inner: AgentBackend, name: str, occupy=Path.mkdir):
        self.inner = inner
        self.name = name
        self.occupy = occupy

    def execute(self, req, log_path=None):
        self.occupy(req.sandbox.path.parent / self.name)
        return self.inner.execute(req, log_path=log_path)


def test_failed_worktree_creation_is_finalized_as_a_diagnostic(tmp_path):
    # workflow 10's planner runs before the tester, the one filled role of
    # its batch, and the simulator, which gets a plain sandbox
    backends = scripted_backends(workflow_by_id(10))
    backends[R.PLANNER] = _OccupyingBackend(
        backends[R.PLANNER], "tester", lambda path: path.write_text("x\n", encoding="utf-8")
    )
    report, run_dir, _ = run_scripted_workflow(tmp_path, 10, backends=backends)

    assert report.exit_code == 4
    sandbox = run_dir.sandboxes_dir / "tester"
    assert report.diagnostics == {"tester": f"sandbox creation failed: {sandbox}: Not a directory"}
    assert report.final_state == "SPEC_READY"
    assert report.dispatch_counts == {"planner": 1, "simulator": 1}
    assert run_dir.report_json_path.exists()
    # the simulator's sandbox, made in the same batch, is removed
    assert not run_dir.sandboxes_dir.exists()


def test_a_symlink_left_at_a_plain_sandbox_fails_its_dispatch_and_is_never_followed(tmp_path):
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "keep.txt").write_text("keep\n", encoding="utf-8")
    backends = scripted_backends(workflow_by_id(10))
    backends[R.PLANNER] = _OccupyingBackend(
        backends[R.PLANNER], "simulator", lambda path: path.symlink_to(outside)
    )
    report, run_dir, _ = run_scripted_workflow(tmp_path, 10, backends=backends)

    assert report.exit_code == 4
    assert list(report.diagnostics) == ["simulator"]
    assert "is a symlink" in report.diagnostics["simulator"]
    assert report.final_state == "SPEC_READY"
    assert report.dispatch_counts == {"planner": 1, "tester": 1}
    assert [p.name for p in outside.iterdir()] == ["keep.txt"]
    assert (outside / "keep.txt").read_text(encoding="utf-8") == "keep\n"
    assert not run_dir.sandboxes_dir.exists()


def _plant_directory(path: Path) -> None:
    path.mkdir()
    (path / "planted.txt").write_text("planted\n", encoding="utf-8")


def test_a_directory_an_agent_leaves_at_a_filled_sandbox_is_freed_and_filled(tmp_path):
    # like the directory an earlier attempt of the tester would leave there
    seen: list = []
    backends = scripted_backends(workflow_by_id(10))
    backends[R.PLANNER] = _OccupyingBackend(backends[R.PLANNER], "tester", _plant_directory)
    backends[R.TESTER] = Spy(backends[R.TESTER], seen, lambda req: (req.sandbox.path / "planted.txt").exists())
    git = RecordingGit()
    report, run_dir, _ = run_scripted_workflow(tmp_path, 10, git=git, backends=backends)

    assert report.final_state == "REVIEW_PASSED" and report.exit_code == 0, report.diagnostics
    assert git.calls == [("remove", "tester"), ("add", ".base")]
    assert seen == [False]
    assert report.dispatch_counts["tester"] == 1
    assert not run_dir.sandboxes_dir.exists()


@pytest.mark.parametrize("left", ["file", "symlink"])
def test_what_an_agent_leaves_at_a_worktree_sandbox_does_not_wedge_the_run(tmp_path, left):
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "keep.txt").write_text("keep\n", encoding="utf-8")
    occupy = {
        "file": lambda path: path.write_text("x\n", encoding="utf-8"),
        "symlink": lambda path: path.symlink_to(outside),
    }[left]
    backends = scripted_backends(workflow_by_id(10))
    backends[R.PLANNER] = _OccupyingBackend(backends[R.PLANNER], "tester", occupy)
    first, run_dir, _ = run_scripted_workflow(tmp_path, 10, backends=backends)
    # a symlink is refused before anything follows it
    refusal = "is a symlink" if left == "symlink" else "Not a directory"
    assert refusal in first.diagnostics["tester"]
    # the session's end clears it along with the sandboxes, and never
    # what a symlink points at
    sandbox = run_dir.sandboxes_dir / "tester"
    assert not sandbox.exists() and not sandbox.is_symlink()
    assert (outside / "keep.txt").read_text(encoding="utf-8") == "keep\n"

    git = RecordingGit()
    resumed = _resume(tmp_path, run_dir, 10, git)

    assert resumed.final_state == "REVIEW_PASSED", resumed.diagnostics
    assert resumed.exit_code == 0
    # the tester, alone in its batch, is copied afresh from the session's
    # one fill, and this time it runs, its attempt 1: a dispatch whose
    # sandbox was never made is none; the scriber then gets a copy of its own
    assert git.calls == [("add", ".base")]
    assert "audit.md" in resumed.artifacts
    assert "tester" not in first.dispatch_counts
    assert resumed.dispatch_counts["tester"] == 1
    assert (run_dir.logs_dir / "tester.log").read_text(encoding="utf-8").startswith("[attempt 1]")


@pytest.mark.parametrize(
    "payload,why",
    [
        ("quality gate failed", "STOP payload must name a routing target"),
        ("target: simulator\nquality gate failed", "STOP routed to simulator, which workflow 2 does not"),
    ],
)
def test_a_stop_that_cannot_be_routed_is_a_failed_dispatch(tmp_path, payload, why):
    backends = scripted_backends(workflow_by_id(2))
    backends[R.REVIEWER] = ScriptedBackend.from_text(f"signal STOP <<EOF\n{payload}\nEOF\n")
    # run_scripted_workflow also checks that nothing is left in the target
    report, run_dir, _ = run_scripted_workflow(tmp_path, 2, backends=backends)

    assert why in report.diagnostics["reviewer"]
    assert report.exit_code == 4
    assert report.retries["STOP"] == 0 and report.signals == []
    assert run_dir.report_json_path.exists()
    events = run_dir.events()
    assert events[-1] == {"event": "halt", "diagnostics": report.diagnostics}
    dispatched = [e for e in events if e["event"] == "dispatch"]
    assert dispatched[-1] == {"event": "dispatch", "role": "reviewer", "outcome": "failed"}


def _shipping_target(tmp_path: Path) -> Path:
    """A repository that pushes to the bare ``tmp_path / "remote.git"``."""
    return init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")


def _ready_to_ship_run(tmp_path: Path, verdict: str | None) -> tuple[RunDirectory, RunState]:
    run_dir = RunDirectory(tmp_path / f"run-{verdict or 'absent'}").create()
    for kind in (K.REQUEST, K.IMPACT, K.CREDENTIALS):
        run_dir.write(kind, "x\n")
    if verdict is not None:
        run_dir.write(K.REVIEW, f"verdict: {verdict}\nnotes\n")
    return run_dir, RunState(workflow=workflow_by_id(2), current=WorkflowState.READY_TO_SHIP)


@pytest.mark.parametrize("verdict", ["PASS", "PASS_WITH_NOTE", "STOP", None])
@pytest.mark.parametrize("authorized", [True, False])
def test_ship_gate_truth_table(tmp_path, verdict, authorized):
    run_dir, run_state = _ready_to_ship_run(tmp_path, verdict)
    git = RecordingGit()
    report = ship(
        run_dir,
        "user-token" if authorized else None,
        target_repo=_shipping_target(tmp_path),
        git=git,
        clock=TickClock(),
        run_state=run_state,
    )
    should_ship = authorized and verdict in ("PASS", "PASS_WITH_NOTE")
    assert report.shipped is should_ship
    pushes = [a for a in git.actions if a.action is GitAction.PUSH]
    assert bool(pushes) is should_ship  # no push unless the gate cleared
    if not should_ship:
        assert report.refusal


def test_ship_refused_when_not_ready(tmp_path):
    run_dir = RunDirectory(tmp_path / "run").create()
    run_dir.write(K.REVIEW, "verdict: PASS\n")
    report = ship(
        run_dir, "token",
        target_repo=_shipping_target(tmp_path), git=SubprocessGit(), clock=TickClock(),
        run_state=RunState(workflow=workflow_by_id(2)),
    )
    assert not report.shipped
    assert "READY_TO_SHIP" in report.refusal


def test_ship_push_failure_is_partial(tmp_path):
    run_dir, state = _ready_to_ship_run(tmp_path, "PASS")
    target = _shipping_target(tmp_path)
    shutil.rmtree(tmp_path / "remote.git")  # the remote is gone: the push fails
    report = ship(
        run_dir, "token",
        target_repo=target, git=SubprocessGit(), clock=TickClock(), run_state=state,
    )
    assert not report.shipped
    assert report.partial
    assert report.sync_detail == "not attempted (push failed)"
    assert f"## Workspace sync\n- {report.sync_detail}\n" in run_dir.read(K.SHIPPER)
    assert state.current is WorkflowState.READY_TO_SHIP  # not advanced to DONE
    assert run_dir.events() == []


def _make_git_fail(repo: Path, action: GitAction) -> None:
    """Make ``action`` on ``repo`` fail the way git itself fails."""
    if action is GitAction.STAGE:
        # the lock file of a git process that holds the index
        (repo / ".git" / "index.lock").touch()
    else:
        # a pre-commit hook that refuses every commit
        hooks = repo / ".git" / "refusing-hooks"
        hooks.mkdir()
        (hooks / "pre-commit").write_text("#!/bin/sh\nexit 1\n", encoding="utf-8")
        (hooks / "pre-commit").chmod(0o755)
        subprocess.run(["git", "-C", str(repo), "config", "core.hooksPath", str(hooks)], check=True)


@pytest.mark.parametrize(
    "failing,taken",
    [
        (GitAction.STAGE, [GitAction.STAGE]),
        (GitAction.COMMIT, [GitAction.STAGE, GitAction.COMMIT]),
    ],
)
def test_ship_stops_at_failed_stage_or_commit(tmp_path, failing, taken):
    run_dir, state = _ready_to_ship_run(tmp_path, "PASS")
    run_dir.write(K.LOG_ENTRY, "# Log entry\n\n## What Changed\nx\n")
    layout = WorkspaceLayout(root=tmp_path / "workspace", repo_name="panelkit").ensure()
    target = _shipping_target(tmp_path)
    _make_git_fail(target, failing)
    git = RecordingGit()
    report = ship(
        run_dir, "token",
        target_repo=target, git=git, clock=TickClock(), workspace=layout, run_state=state,
    )
    assert not report.shipped
    assert report.refusal == f"{failing.value.lower()} failed: environment"
    # no PUSH, and no workspace sync with its own commit and push
    assert [a.action for a in git.actions] == taken
    assert [a.action for a in report.git_actions] == taken
    assert not any(layout.runs_dir.iterdir())
    shipper = run_dir.read(K.SHIPPER)
    assert f"- {failing.value}: " in shipper and "FAILED (environment)" in shipper
    assert f"## Workspace sync\n- {report.sync_detail}\n" in shipper
    assert report.sync_detail == f"not attempted ({failing.value.lower()} failed)"
    assert state.current is WorkflowState.READY_TO_SHIP
    assert run_dir.events() == []


def _checkout_state(repo: Path) -> tuple[str, str]:
    """The commit HEAD names and ``git status --porcelain`` of ``repo``."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True
        ).stdout

    return git("rev-parse", "HEAD"), git("status", "--porcelain")


_SHIP_REFUSALS = {
    "not-ready": "run is at CREDENTIALS_VERIFIED, not READY_TO_SHIP",
    "verdict-absent": "no parseable review verdict: ",
    "stop": "review verdict is STOP; ship refused",
    "unauthorized": "explicit user authorization required before shipping",
    "no-credentials": "credentials.md not present; ship refused",
}


@pytest.mark.parametrize("refused", list(_SHIP_REFUSALS))
def test_a_refused_ship_leaves_the_target_untouched(tmp_path, refused):
    verdict = {"verdict-absent": None, "stop": "STOP"}.get(refused, "PASS")
    run_dir, state = _ready_to_ship_run(tmp_path, verdict)
    if refused == "not-ready":
        state = RunState(workflow=workflow_by_id(2))
    if refused == "no-credentials":
        run_dir.artifact_path(K.CREDENTIALS).unlink()
    target = _shipping_target(tmp_path)
    # a file of the user's that a stage of the whole checkout would sweep in
    (target / "draft.txt").write_text("not for shipping\n", encoding="utf-8")
    before = _checkout_state(target)
    git = RecordingGit()
    report = ship(
        run_dir, None if refused == "unauthorized" else "token",
        target_repo=target, git=git, clock=TickClock(), run_state=state,
    )
    assert not report.shipped and not report.partial
    assert report.refusal.startswith(_SHIP_REFUSALS[refused])
    assert git.actions == [] and git.calls == []
    assert report.git_actions == ()
    assert _checkout_state(target) == before
    assert not run_dir.exists(K.SHIPPER)


@pytest.mark.parametrize("refused", ["stop", "no-credentials"])
def test_a_session_whose_ship_is_refused_dispatches_no_shipper(tmp_path, refused):
    first, run_dir, _ = run_scripted_workflow(tmp_path, 2)
    assert first.final_state == "READY_TO_SHIP" and first.pending
    if refused == "stop":
        run_dir.write(K.REVIEW, "verdict: STOP\n\nRework needed.\n")
    else:
        run_dir.artifact_path(K.CREDENTIALS).unlink()
    before = _checkout_state(tmp_path / "repo")
    git = RecordingGit()
    resumed = _resume(tmp_path, run_dir, 2, git, authorization="tok")

    assert resumed.gate_violation == _SHIP_REFUSALS[refused]
    assert "shipper" not in resumed.dispatch_counts
    assert not (run_dir.logs_dir / "shipper.log").exists() and not run_dir.exists(K.SHIPPER)
    assert git.actions == [] and _checkout_state(tmp_path / "repo") == before
    assert [r["refusal"] for r in run_dir.events() if r["event"] == "ship"] == [_SHIP_REFUSALS[refused]]


# --- replay equivalence ----------------------------------------------------------------


def test_scripted_run_reports_are_identical_across_repetitions(tmp_path):
    first, run_a, _ = run_scripted_workflow(tmp_path / "a", 1)
    second, run_b, _ = run_scripted_workflow(tmp_path / "b", 1)
    assert first.to_dict() == second.to_dict()
    assert run_a.report_json_path.read_text(encoding="utf-8") == run_b.report_json_path.read_text(
        encoding="utf-8"
    )


# --- the run journal ---------------------------------------------------------------------


@pytest.mark.parametrize("workflow_id", [4, 8])
def test_library_callers_cannot_start_a_wrapper_entry(tmp_path, workflow_id):
    with pytest.raises(MisconfigurationError, match="is not one run"):
        run_scripted_workflow(tmp_path, workflow_id)
    assert list((tmp_path / "runs").glob("*")) == []
    run_dir, _ = start_run(
        runs_root=tmp_path / "runs", target_repo=tmp_path / "repo", directive="fix it",
        workflow=workflow_by_id(9), git=SubprocessGit(), clock=TickClock(),
    )
    with pytest.raises(MisconfigurationError, match="is not one run"):
        _resume(tmp_path, run_dir, workflow_id, SubprocessGit())


def _halted_on_a_builder_hold(tmp_path: Path) -> RunDirectory:
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, builder_holds=1)
    assert report.pending == "which covariance estimator variant?"
    return run_dir


def _answer_builder_hold(tmp_path: Path, run_dir: RunDirectory) -> RunReport:
    backends = scripted_backends(workflow_by_id(9), builder_holds=1)
    return _resume(tmp_path, run_dir, 9, SubprocessGit(), backends=backends, answers=("use defaults",))


def test_report_json_is_output_only(tmp_path):
    runs = {name: _halted_on_a_builder_hold(tmp_path / name) for name in ("kept", "tampered")}
    path = runs["tampered"].report_json_path
    tampered = json.loads(path.read_text(encoding="utf-8"))
    tampered.update(dispatch_counts={}, signals=[], pending=None)
    path.write_text(json.dumps(tampered), encoding="utf-8")

    kept, resumed = (_answer_builder_hold(tmp_path / name, run_dir) for name, run_dir in runs.items())

    assert resumed.to_dict() == kept.to_dict()
    assert resumed.retries["HOLD"] == 1
    for run_dir in runs.values():
        assert (run_dir.logs_dir / "builder.log").read_text(encoding="utf-8").count("[attempt ") == 2


def test_journal_bytes_are_deterministic(tmp_path):
    journals = []
    for name in ("a", "b"):
        _, run_dir, _ = run_scripted_workflow(
            tmp_path / name, 1, planner_holds=1, tester_blocks=3, reviewer_stops=1,
            answers=("use the reference implementation",),
        )
        journals.append(run_dir.journal_path.read_bytes())
    assert journals[0] == journals[1]
    events = [json.loads(line)["event"] for line in journals[0].splitlines()]
    assert events.count("signal") == 5 and events.count("answer") == 1


def test_a_resumed_session_only_appends_to_the_journal(tmp_path):
    run_dir = _halted_on_a_builder_hold(tmp_path)
    first = run_dir.journal_path.read_bytes()
    _answer_builder_hold(tmp_path, run_dir)
    final = run_dir.journal_path.read_bytes()
    assert final.startswith(first) and len(final) > len(first)


class _Crashing(AgentBackend):
    kind = BackendKind.SCRIPTED

    def execute(self, req, log_path=None):
        raise RuntimeError("simulated backend crash")


def test_access_events_of_a_parallel_stage_survive_a_crashed_backend(tmp_path):
    backends = scripted_backends(workflow_by_id(10))
    backends[R.SIMULATOR] = _Crashing()  # dispatched in parallel with the tester
    report, run_dir, _ = run_scripted_workflow(tmp_path, 10, backends=backends)

    assert "simulated backend crash" in report.diagnostics["simulator"]
    journaled = [
        {k: v for k, v in e.items() if k != "time"}
        for e in run_dir.events()
        if e["event"] in ("dispatch", "access")
    ]
    assert journaled == [
        {"event": "dispatch", "role": "planner", "outcome": "completed"},
        {"event": "dispatch", "role": "simulator", "outcome": "failed"},
        {"event": "dispatch", "role": "tester", "outcome": "completed"},
        {"event": "access", "role": "tester", "artifact": "test-spec.md", "decision": "ALLOW"},
    ]
    assert "\ttester\ttest-spec.md\tALLOW" in run_dir.access_log_path.read_text(encoding="utf-8")


def test_a_hold_that_hit_the_retry_cap_is_not_asked_again_on_resume(tmp_path):
    workflow = workflow_by_id(9)
    first, run_dir, _ = run_scripted_workflow(
        tmp_path, 9, builder_holds=4, answers=("one", "two", "three")
    )
    assert first.escalation.startswith("HOLD retry cap reached")

    channel = RecordingChannel(("late",))
    resumed = Orchestrator(
        run_dir=run_dir,
        request_id=run_dir.path.name,
        workflow=workflow,
        backends=scripted_backends(workflow, builder_holds=4),
        channel=channel,
        target_repo=tmp_path / "repo",
        git=SubprocessGit(),
        clock=TickClock(),
    ).run()

    assert channel.transcript == [] and list(channel.answers) == ["late"]
    assert resumed.dispatch_counts == {"builder": 5, "tester": 1}


# --- unknown language profile -----------------------------------------------------------


def test_unknown_repo_language_holds_then_uses_answer(tmp_path):
    bare = repo_without_language(tmp_path / "bare-repo")
    report, _, _ = run_scripted_workflow(tmp_path, 6, target_repo=bare, answers=("Python",))
    assert report.final_state == "PIPELINES_COMPLETE"


def test_unknown_repo_language_unanswered_escalates(tmp_path):
    bare = repo_without_language(tmp_path / "bare-repo")
    report, _, _ = run_scripted_workflow(tmp_path, 6, target_repo=bare, answers=())
    assert report.escalation is not None
    assert report.exit_code == 3


# --- wrapper workflows -------------------------------------------------------------------


def test_issue_patrol_spawns_one_code_run_per_issue(tmp_path):
    issues = [
        IssueDescriptor(id="17", title="crash on empty frame"),
        IssueDescriptor(id="18", title="typo in summary"),
    ]
    reports = run_issue_patrol(
        lambda: issues,
        start=lambda issue: run_scripted_workflow(
            tmp_path / f"issue-{issue.id}", 2, authorization="token"
        )[0],
    )
    assert len(reports) == 2
    assert all(r.final_state == "DONE" for r in reports)


def test_scheduled_loop_repeats_inner_workflow(tmp_path):
    sleeps: list[float] = []
    reports = run_scheduled_loop(
        1,
        iterations=2,
        interval_seconds=120.0,
        start=lambda i, wf: run_scripted_workflow(tmp_path / f"iter-{i}", wf.id)[0],
        sleep=sleeps.append,
    )
    assert len(reports) == 2
    assert all(r.final_state == "REVIEW_PASSED" for r in reports)
    assert sleeps == [120.0]


def test_schedulable_inner_workflows_neither_ship_nor_wrap():
    assert SCHEDULABLE_INNER_IDS == {1, 3, 6, 7, 9, 10}


def test_scheduled_loop_rejects_shipping_inner():
    with pytest.raises(MisconfigurationError):
        run_scheduled_loop(2, iterations=1, interval_seconds=1.0, start=lambda i, wf: None)
