from __future__ import annotations

import pytest

from gatework.errors import VerdictError
from gatework.model import (
    ARTIFACT_PRODUCERS,
    WORKFLOW_CATALOG,
    AgentOutcome,
    AgentRole,
    ArtifactKind,
    OutcomeStatus,
    Signal,
    SignalKind,
    VerdictValue,
    WorkflowState,
    artifact_kind_for_name,
    block_pipeline_target,
    parse_review_verdict,
    signal_owner_check,
    state_order,
    stop_routing_target,
    terminal_state,
    workflow_by_id,
)

R = AgentRole


def test_exactly_nine_states_in_order():
    assert [s.value for s in WorkflowState] == [
        "CREDENTIALS_VERIFIED",
        "NEW",
        "PLANNED",
        "SPEC_READY",
        "PIPELINES_COMPLETE",
        "DOCUMENTED",
        "REVIEW_PASSED",
        "READY_TO_SHIP",
        "DONE",
    ]


def test_done_is_terminal():
    assert WorkflowState.DONE.successor is None
    for state in WorkflowState:
        if state is not WorkflowState.DONE:
            assert state.successor is not None


def test_state_order_examples():
    assert state_order(WorkflowState.NEW, WorkflowState.PLANNED) < 0
    assert state_order(WorkflowState.DONE, WorkflowState.DONE) == 0
    assert state_order(WorkflowState.READY_TO_SHIP, WorkflowState.SPEC_READY) > 0


def test_state_order_is_total():
    states = list(WorkflowState)
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            assert (state_order(a, b) < 0) == (i < j)
            assert (state_order(a, b) == 0) == (i == j)


def test_exactly_eight_roles():
    assert len(AgentRole) == 8


PERMITTED_PAIRS = {
    (SignalKind.HOLD, R.PLANNER),
    (SignalKind.HOLD, R.BUILDER),
    (SignalKind.HOLD, R.SCRIBER),
    (SignalKind.HOLD, R.SIMULATOR),
    (SignalKind.BLOCK, R.TESTER),
    (SignalKind.STOP, R.REVIEWER),
}


@pytest.mark.parametrize("kind", list(SignalKind))
@pytest.mark.parametrize("raiser", list(AgentRole))
def test_signal_ownership_all_24_combinations(kind, raiser):
    signal = Signal(kind=kind, raiser=raiser, payload="x")
    assert signal_owner_check(signal) is ((kind, raiser) in PERMITTED_PAIRS)


def test_signal_ownership_spec_examples():
    assert signal_owner_check(Signal(SignalKind.BLOCK, R.TESTER)) is True
    assert signal_owner_check(Signal(SignalKind.BLOCK, R.BUILDER)) is False
    assert signal_owner_check(Signal(SignalKind.HOLD, R.REVIEWER)) is False


def test_stop_routing_target_parses_payload():
    signal = Signal(SignalKind.STOP, R.REVIEWER, "target: scriber\nmissing changelog")
    assert stop_routing_target(signal) is R.SCRIBER
    assert stop_routing_target(Signal(SignalKind.STOP, R.REVIEWER, "no target here")) is None
    # reviewer and leader are not valid routing targets
    assert stop_routing_target(Signal(SignalKind.STOP, R.REVIEWER, "target: reviewer")) is None


def test_block_pipeline_target_defaults_to_builder():
    assert block_pipeline_target(Signal(SignalKind.BLOCK, R.TESTER, "it broke")) is R.BUILDER
    assert (
        block_pipeline_target(Signal(SignalKind.BLOCK, R.TESTER, "pipeline: simulation\nbad DGP"))
        is R.SIMULATOR
    )


def test_sixteen_artifacts_and_producers():
    assert len(ArtifactKind) == 16
    expected = {
        "request.md": R.LEADER,
        "impact.md": R.LEADER,
        "status.md": R.LEADER,
        "credentials.md": R.LEADER,
        "comprehension.md": R.PLANNER,
        "spec.md": R.PLANNER,
        "test-spec.md": R.PLANNER,
        "sim-spec.md": R.PLANNER,
        "implementation.md": R.BUILDER,
        "audit.md": R.TESTER,
        "simulation.md": R.SIMULATOR,
        "Architecture.md": R.SCRIBER,
        "log-entry.md": R.SCRIBER,
        "docs.md": R.SCRIBER,
        "review.md": R.REVIEWER,
        "shipper.md": R.SHIPPER,
    }
    assert {k.filename: p for k, p in ARTIFACT_PRODUCERS.items()} == expected


def test_all_caps_architecture_alias_accepted():
    assert artifact_kind_for_name("ARCHITECTURE.md") is ArtifactKind.ARCHITECTURE
    assert artifact_kind_for_name("Architecture.md") is ArtifactKind.ARCHITECTURE
    assert artifact_kind_for_name("unknown.md") is None


EXPECTED_DAGS = {
    1: [[R.PLANNER], [R.BUILDER, R.TESTER, R.SIMULATOR], [R.SCRIBER], [R.REVIEWER]],
    2: [[R.PLANNER], [R.BUILDER, R.TESTER], [R.SCRIBER], [R.REVIEWER], [R.SHIPPER]],
    3: [[R.PLANNER], [R.SCRIBER], [R.REVIEWER]],
    4: [[R.PLANNER], [R.BUILDER, R.TESTER], [R.SCRIBER], [R.REVIEWER], [R.SHIPPER]],
    5: [[R.PLANNER], [R.BUILDER, R.TESTER], [R.SCRIBER], [R.REVIEWER], [R.SHIPPER]],
    6: [[R.TESTER]],
    7: [[R.REVIEWER]],
    8: [[R.PLANNER], [R.BUILDER, R.TESTER, R.SIMULATOR], [R.SCRIBER], [R.REVIEWER]],
    9: [[R.BUILDER], [R.TESTER]],
    10: [[R.PLANNER], [R.SIMULATOR, R.TESTER], [R.SCRIBER], [R.REVIEWER]],
}


def test_catalog_has_ten_entries_matching_expected_dags():
    assert sorted(WORKFLOW_CATALOG) == list(range(1, 11))
    for workflow_id, dag in EXPECTED_DAGS.items():
        actual = [list(stage) for stage in WORKFLOW_CATALOG[workflow_id].dag]
        assert actual == dag, f"workflow {workflow_id} dag mismatch"


def test_catalog_names():
    names = {workflow_id: wf.name for workflow_id, wf in WORKFLOW_CATALOG.items()}
    assert names == {
        1: "Full Workflow",
        2: "Simple Code Fix + Shipping",
        3: "Documentation",
        4: "Issue Patrol",
        5: "Single Issue Fix",
        6: "Validation",
        7: "Code Review",
        8: "Scheduled Loop",
        9: "Extremely Simple Fix",
        10: "Monte Carlo Exercises",
    }


def test_shipper_only_in_shipping_workflows():
    for workflow_id, wf in WORKFLOW_CATALOG.items():
        has_shipper = R.SHIPPER in wf.roles()
        assert has_shipper == wf.ships
        assert has_shipper == (workflow_id in (2, 4, 5))


def test_every_catalog_entry_has_nonempty_stages():
    for wf in WORKFLOW_CATALOG.values():
        assert wf.dag
        for stage in wf.dag:
            assert stage


def test_wrapper_entries_carry_inner_ids():
    assert WORKFLOW_CATALOG[4].inner_id == 2
    assert WORKFLOW_CATALOG[8].inner_id == 1
    assert {wf.id for wf in WORKFLOW_CATALOG.values() if wf.inner_id is not None} == {4, 8}


def test_terminal_states_per_workflow():
    expected = {
        1: WorkflowState.REVIEW_PASSED,
        2: WorkflowState.DONE,
        3: WorkflowState.REVIEW_PASSED,
        4: WorkflowState.DONE,
        5: WorkflowState.DONE,
        6: WorkflowState.PIPELINES_COMPLETE,
        7: WorkflowState.REVIEW_PASSED,
        8: WorkflowState.REVIEW_PASSED,
        9: WorkflowState.PIPELINES_COMPLETE,
        10: WorkflowState.REVIEW_PASSED,
    }
    for workflow_id, state in expected.items():
        assert terminal_state(workflow_by_id(workflow_id)) is state


def test_unknown_workflow_id_rejected():
    with pytest.raises(ValueError):
        workflow_by_id(11)


def test_verdict_parsing():
    verdict = parse_review_verdict("verdict: PASS\n\nall good")
    assert verdict.value is VerdictValue.PASS
    assert verdict.passing
    assert verdict.notes == "all good"

    verdict = parse_review_verdict("verdict: PASS_WITH_NOTE\nminor concern")
    assert verdict.value is VerdictValue.PASS_WITH_NOTE
    assert verdict.passing

    verdict = parse_review_verdict("verdict: STOP\n")
    assert verdict.value is VerdictValue.STOP
    assert not verdict.passing


def test_verdict_absence_is_an_error_never_a_default():
    with pytest.raises(VerdictError):
        parse_review_verdict("")
    with pytest.raises(VerdictError):
        parse_review_verdict("# review\nverdict: PASS")  # not the first line
    with pytest.raises(VerdictError):
        parse_review_verdict("verdict: MAYBE\n")


def test_gate_artifact_producers_are_dispatched():
    # every artifact a workflow gates on is produced by the leader or by a
    # role that workflow actually dispatches
    from gatework.statemachine import required_for

    for wf in WORKFLOW_CATALOG.values():
        dispatched = wf.roles()
        for state in WorkflowState:
            for req in required_for(state, wf):
                producer = req.artifact.producer
                assert producer is R.LEADER or producer in dispatched, (
                    f"workflow {wf.id} gates {state.value} on {req.artifact.filename} "
                    f"but never dispatches {producer.value}"
                )


def test_no_role_depends_on_a_same_stage_peer():
    # within one stage, nothing a role may read is produced by another
    # role dispatched in that same stage (parallel dispatch is safe)
    from gatework.barrier import DEFAULT_ACCESS_MATRIX
    from gatework.runtime import contracted_artifacts

    for wf in WORKFLOW_CATALOG.values():
        for stage in wf.dag:
            for reader in stage:
                readable = DEFAULT_ACCESS_MATRIX.grants_for(reader)
                for peer in stage:
                    if peer is reader:
                        continue
                    overlap = readable.intersection(contracted_artifacts(peer, wf))
                    assert not overlap, (
                        f"workflow {wf.id}: {reader.value} reads "
                        f"{sorted(k.filename for k in overlap)} produced by same-stage "
                        f"peer {peer.value}"
                    )


def test_agent_outcome_signal_consistency():
    with pytest.raises(ValueError):
        AgentOutcome(status=OutcomeStatus.SIGNALED)  # signal missing
    with pytest.raises(ValueError):
        AgentOutcome(
            status=OutcomeStatus.COMPLETED,
            signal=Signal(SignalKind.HOLD, R.BUILDER, "q"),
        )
