from __future__ import annotations

import pytest

from gatework.clock import TickClock
from gatework.errors import ProtocolError, RunDirectoryError, TerminalStateError
from gatework.model import (
    AccessDecision,
    AccessEvent,
    AgentRole,
    ArtifactKind,
    Signal,
    SignalKind,
    WorkflowState,
    workflow_by_id,
)
from gatework.rundir import RunDirectory
from gatework.statemachine import (
    RETRY_LIMIT,
    Predicate,
    RunState,
    SignalDisposition,
    advance,
    check_preconditions,
    reconstruct_run_state,
    record_dispatches,
    record_event,
    record_signal,
    required_for,
    status_line,
)

K = ArtifactKind
S = WorkflowState


@pytest.fixture
def run_dir(tmp_path) -> RunDirectory:
    return RunDirectory(tmp_path / "run").create()


def _leader_artifacts(run_dir: RunDirectory) -> None:
    for kind in (K.CREDENTIALS, K.REQUEST, K.IMPACT):
        run_dir.write(kind, f"# {kind.filename}\n")


def test_required_for_keys_on_dispatched_roles():
    wf1 = workflow_by_id(1)
    wf3 = workflow_by_id(3)
    wf10 = workflow_by_id(10)
    wf6 = workflow_by_id(6)

    spec_ready = lambda wf: {req.artifact for req in required_for(S.SPEC_READY, wf)}
    assert spec_ready(wf1) == {K.COMPREHENSION, K.SPEC, K.TEST_SPEC, K.SIM_SPEC}
    assert spec_ready(wf3) == {K.COMPREHENSION}
    assert spec_ready(wf10) == {K.COMPREHENSION, K.TEST_SPEC, K.SIM_SPEC}
    assert spec_ready(wf6) == set()

    pipelines = lambda wf: {req.artifact for req in required_for(S.PIPELINES_COMPLETE, wf)}
    assert pipelines(wf1) == {K.IMPLEMENTATION, K.AUDIT, K.SIMULATION}
    assert pipelines(wf6) == {K.AUDIT}
    assert pipelines(wf3) == set()

    documented = {req.artifact for req in required_for(S.DOCUMENTED, wf1)}
    assert documented == {K.ARCHITECTURE, K.LOG_ENTRY, K.DOCS}
    assert required_for(S.DOCUMENTED, wf6) == ()

    review = required_for(S.REVIEW_PASSED, wf1)
    assert [(req.artifact, req.predicate) for req in review] == [(K.REVIEW, Predicate.HAS_VERDICT)]
    assert required_for(S.REVIEW_PASSED, wf6) == ()


def test_check_preconditions_satisfied_for_workflow_2_spec_ready(run_dir):
    wf2 = workflow_by_id(2)
    for kind in (K.COMPREHENSION, K.SPEC, K.TEST_SPEC):
        run_dir.write(kind, "x\n")
    gate = check_preconditions(S.SPEC_READY, run_dir, wf2)
    assert gate.satisfied


def test_check_preconditions_empty_dir_missing_all(run_dir):
    wf2 = workflow_by_id(2)
    gate = check_preconditions(S.SPEC_READY, run_dir, wf2)
    assert not gate.satisfied
    assert {req.artifact for req in gate.missing} == {K.COMPREHENSION, K.SPEC, K.TEST_SPEC}


def test_check_preconditions_stop_verdict_fails_has_verdict(run_dir):
    # oracle: the header parses to STOP, which is outside {PASS, PASS_WITH_NOTE}
    wf2 = workflow_by_id(2)
    run_dir.write(K.REVIEW, "verdict: STOP\n\nblocked")
    gate = check_preconditions(S.REVIEW_PASSED, run_dir, wf2)
    assert not gate.satisfied
    assert [(req.artifact, req.predicate) for req in gate.missing] == [
        (K.REVIEW, Predicate.HAS_VERDICT)
    ]


def test_unreadable_run_dir_is_io_error_not_missing(tmp_path):
    missing_dir = RunDirectory(tmp_path / "nope")
    with pytest.raises(RunDirectoryError):
        check_preconditions(S.SPEC_READY, missing_dir, workflow_by_id(2))


def test_advance_new_to_planned_with_leader_artifacts(run_dir):
    clock = TickClock()
    run = RunState(workflow=workflow_by_id(2))
    _leader_artifacts(run_dir)
    assert advance(run, run_dir, clock).satisfied  # -> NEW
    gate = advance(run, run_dir, clock)  # -> PLANNED
    assert gate.satisfied and gate.state is S.PLANNED
    assert run.current is S.PLANNED


def test_advance_cannot_skip_states(run_dir):
    # even with every spec artifact present, the next state from NEW is PLANNED
    clock = TickClock()
    run = RunState(workflow=workflow_by_id(2))
    _leader_artifacts(run_dir)
    for kind in (K.COMPREHENSION, K.SPEC, K.TEST_SPEC):
        run_dir.write(kind, "x\n")
    advance(run, run_dir, clock)
    assert run.current is S.NEW
    advance(run, run_dir, clock)
    assert run.current is S.PLANNED
    advance(run, run_dir, clock)
    assert run.current is S.SPEC_READY
    visited = run.visited_states()
    assert list(visited) == [S.CREDENTIALS_VERIFIED, S.NEW, S.PLANNED, S.SPEC_READY]


def test_advance_gate_failure_is_a_value_not_an_exception(run_dir):
    clock = TickClock()
    run = RunState(workflow=workflow_by_id(2))
    gate = advance(run, run_dir, clock)  # credentials.md missing
    assert not gate.satisfied and gate.state is S.NEW
    assert run.current is S.CREDENTIALS_VERIFIED
    assert [req.artifact for req in gate.missing] == [K.CREDENTIALS]


def test_advance_review_passed_to_ready_to_ship_on_pass(run_dir):
    clock = TickClock()
    run = RunState(workflow=workflow_by_id(2), current=S.REVIEW_PASSED)
    run_dir.write(K.REVIEW, "verdict: PASS\n")
    assert advance(run, run_dir, clock).satisfied and run.current is S.READY_TO_SHIP


def test_advance_from_done_is_terminal_error(run_dir):
    run = RunState(workflow=workflow_by_id(2), current=S.DONE)
    with pytest.raises(TerminalStateError):
        advance(run, run_dir, TickClock())


def test_record_signal_retry_then_escalate(run_dir):
    clock = TickClock()
    run = RunState(workflow=workflow_by_id(2))
    block = Signal(SignalKind.BLOCK, AgentRole.TESTER, "failure details")
    for expected_count in (1, 2, 3):
        assert record_signal(run, block, run_dir, clock) is SignalDisposition.RETRY
        assert run.retries[SignalKind.BLOCK] == expected_count
    assert record_signal(run, block, run_dir, clock) is SignalDisposition.ESCALATE_TO_USER
    assert run.retries[SignalKind.BLOCK] == RETRY_LIMIT  # counter persists, capped
    assert len(run.history) == 4  # escalation recorded in history too


def test_record_signal_counts_per_kind_independently(run_dir):
    clock = TickClock()
    run = RunState(workflow=workflow_by_id(1))
    record_signal(run, Signal(SignalKind.BLOCK, AgentRole.TESTER, "x"), run_dir, clock)
    record_signal(run, Signal(SignalKind.HOLD, AgentRole.BUILDER, "q"), run_dir, clock)
    assert run.retries[SignalKind.BLOCK] == 1
    assert run.retries[SignalKind.HOLD] == 1
    assert run.retries[SignalKind.STOP] == 0


def test_record_signal_rejects_wrong_owner(run_dir):
    run = RunState(workflow=workflow_by_id(2))
    with pytest.raises(ProtocolError) as excinfo:
        record_signal(run, Signal(SignalKind.BLOCK, AgentRole.BUILDER, "x"), run_dir, TickClock())
    assert "builder" in str(excinfo.value)
    assert "BLOCK" in str(excinfo.value)


def test_status_file_rewritten_after_every_transition(run_dir):
    clock = TickClock()
    run = RunState(workflow=workflow_by_id(2))
    _leader_artifacts(run_dir)
    advance(run, run_dir, clock)
    first = run_dir.read(K.STATUS)
    assert len(first.splitlines()) == 1
    advance(run, run_dir, clock)
    second = run_dir.read(K.STATUS)
    assert len(second.splitlines()) == 2
    assert second.startswith(first.splitlines()[0])
    line = second.splitlines()[0]
    timestamp, state_from, event, _cause = line.split("\t")
    assert timestamp.endswith("Z")
    assert state_from == "CREDENTIALS_VERIFIED"
    assert event == "->NEW"


def test_journal_round_trip_and_status_projection(run_dir):
    clock = TickClock()
    run = RunState(workflow=workflow_by_id(2))
    _leader_artifacts(run_dir)
    advance(run, run_dir, clock)
    advance(run, run_dir, clock)
    record_signal(run, Signal(SignalKind.BLOCK, AgentRole.TESTER, "x"), run_dir, clock)

    # status.md is written, one line per event, and never read back
    status = run_dir.read(K.STATUS)
    assert status == "".join(status_line(entry) + "\n" for entry in run.history)
    run_dir.write(K.STATUS, "not a status line\n")

    rebuilt = reconstruct_run_state(run_dir, workflow_by_id(2))
    assert rebuilt.current is run.current
    assert rebuilt.retries == run.retries
    assert rebuilt.history == run.history


def test_the_fold_judges_each_access_record_at_the_state_its_batch_ran_in(run_dir):
    clock = TickClock()
    workflow = workflow_by_id(2)
    run = RunState(workflow=workflow)
    _leader_artifacts(run_dir)
    advance(run, run_dir, clock)
    read = AccessEvent(clock.now(), AgentRole.TESTER, K.IMPLEMENTATION, AccessDecision.DENY)
    record_dispatches(run, run_dir, [(AgentRole.TESTER, "completed", [read])])
    advance(run, run_dir, clock)
    record_dispatches(run, run_dir, [(AgentRole.TESTER, "completed", [read])])

    assert [e.state for e in run.access[AgentRole.TESTER]] == [S.NEW, S.PLANNED]
    assert reconstruct_run_state(run_dir, workflow).access == run.access
    # the state is the fold's, so the journal's records gain no key
    records = [r for r in run_dir.events() if r["event"] == "access"]
    assert [sorted(r) for r in records] == [["artifact", "decision", "event", "role", "time"]] * 2


def test_halt_is_the_last_record_only_while_it_is_last(run_dir):
    workflow = workflow_by_id(9)
    run = RunState(workflow=workflow)
    record_event(run, run_dir, "halt", {"escalation": "why", "pending": "what?"})
    assert run.halt == {"event": "halt", "escalation": "why", "pending": "what?"}
    assert reconstruct_run_state(run_dir, workflow).halt == run.halt
    record_event(run, run_dir, "language", {"language": "Python"})  # a later session's first record
    assert run.halt is None
    assert reconstruct_run_state(run_dir, workflow).halt is None


def test_advance_depends_only_on_state_and_directory(run_dir):
    clock_a, clock_b = TickClock(), TickClock()
    _leader_artifacts(run_dir)
    run_a = RunState(workflow=workflow_by_id(2))
    run_b = RunState(workflow=workflow_by_id(2))
    for _ in range(4):
        gate_a = advance(run_a, run_dir, clock_a)
        gate_b = advance(run_b, run_dir, clock_b)
        assert gate_a == gate_b
        assert run_a.current is run_b.current
    assert run_a.history == run_b.history


def test_rundir_write_normalizes_architecture_casing(run_dir):
    (run_dir.path / "ARCHITECTURE.md").write_text("caps variant\n", encoding="utf-8")
    assert run_dir.exists(K.ARCHITECTURE)
    assert run_dir.read(K.ARCHITECTURE) == "caps variant\n"
    run_dir.write(K.ARCHITECTURE, "canonical\n")
    assert (run_dir.path / "Architecture.md").exists()
