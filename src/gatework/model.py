"""Shared domain vocabulary: states, roles, signals, artifacts, workflows.

Everything here is an immutable value, safe to share between concurrent
contexts without coordination.
"""

from __future__ import annotations

import re
from datetime import datetime
from enum import Enum
from typing import Mapping, NamedTuple

from gatework.errors import MisconfigurationError, VerdictError


class WorkflowState(str, Enum):
    """The nine control states, in progression order. DONE is terminal."""

    CREDENTIALS_VERIFIED = "CREDENTIALS_VERIFIED"
    NEW = "NEW"
    PLANNED = "PLANNED"
    SPEC_READY = "SPEC_READY"
    PIPELINES_COMPLETE = "PIPELINES_COMPLETE"
    DOCUMENTED = "DOCUMENTED"
    REVIEW_PASSED = "REVIEW_PASSED"
    READY_TO_SHIP = "READY_TO_SHIP"
    DONE = "DONE"

    @property
    def index(self) -> int:
        return STATE_CHAIN.index(self)

    @property
    def successor(self) -> "WorkflowState | None":
        if self is WorkflowState.DONE:
            return None
        return STATE_CHAIN[self.index + 1]


STATE_CHAIN: tuple[WorkflowState, ...] = tuple(WorkflowState)


def state_order(a: WorkflowState, b: WorkflowState) -> int:
    """Total order over the nine states: negative if ``a`` precedes ``b``,
    zero if equal, positive if ``a`` follows ``b``."""
    return a.index - b.index


class AgentRole(str, Enum):
    LEADER = "leader"
    PLANNER = "planner"
    BUILDER = "builder"
    TESTER = "tester"
    SIMULATOR = "simulator"
    SCRIBER = "scriber"
    REVIEWER = "reviewer"
    SHIPPER = "shipper"


class SignalKind(str, Enum):
    HOLD = "HOLD"
    BLOCK = "BLOCK"
    STOP = "STOP"


#: Which roles may raise each interrupt signal.
SIGNAL_OWNERS: Mapping[SignalKind, frozenset[AgentRole]] = {
    SignalKind.HOLD: frozenset(
        {AgentRole.PLANNER, AgentRole.BUILDER, AgentRole.SCRIBER, AgentRole.SIMULATOR}
    ),
    SignalKind.BLOCK: frozenset({AgentRole.TESTER}),
    SignalKind.STOP: frozenset({AgentRole.REVIEWER}),
}

#: Roles a STOP payload may route back to.
STOP_ROUTING_TARGETS: frozenset[AgentRole] = frozenset(
    {AgentRole.PLANNER, AgentRole.BUILDER, AgentRole.SIMULATOR, AgentRole.SCRIBER}
)

_PAYLOAD_FIELD_RE = re.compile(r"^(?P<key>[a-z_]+):\s*(?P<value>.+?)\s*$", re.MULTILINE)


class Signal(NamedTuple):
    """An interrupt raised by an agent.

    The payload is structured text: a HOLD carries the question for the
    user, a BLOCK carries validation-failure details (optionally a
    ``pipeline:`` field naming the failed pipeline), and a STOP carries the
    quality-gate failure plus a ``target:`` field naming the role to route
    back to.
    """

    kind: SignalKind
    raiser: AgentRole
    payload: str = ""

    def payload_field(self, key: str) -> str | None:
        for match in _PAYLOAD_FIELD_RE.finditer(self.payload):
            if match.group("key") == key:
                return match.group("value")
        return None


def signal_owner_check(s: Signal) -> bool:
    """True iff the (kind, raiser) pair is permitted. Pure and total."""
    return s.raiser in SIGNAL_OWNERS[s.kind]


def stop_routing_target(s: Signal) -> AgentRole | None:
    """The role named by a STOP payload's ``target:`` field, if valid."""
    raw = s.payload_field("target")
    if raw is None:
        return None
    try:
        role = AgentRole(raw.strip().lower())
    except ValueError:
        return None
    return role if role in STOP_ROUTING_TARGETS else None


def block_pipeline_target(s: Signal) -> AgentRole:
    """The pipeline role a BLOCK re-dispatches, from the payload's
    ``pipeline:`` field. Defaults to BUILDER when absent or unrecognized."""
    raw = (s.payload_field("pipeline") or "").strip().lower()
    if raw in ("simulation", "simulator"):
        return AgentRole.SIMULATOR
    return AgentRole.BUILDER


class AccessDecision(str, Enum):
    ALLOW = "ALLOW"
    DENY = "DENY"


class AccessEvent(NamedTuple):
    """One audited artifact-access check, judged at ``state`` (None: the
    role's base grants)."""

    timestamp: datetime
    role: AgentRole
    artifact: ArtifactKind
    decision: AccessDecision
    state: WorkflowState | None = None


class ArtifactKind(str, Enum):
    """The sixteen run artifacts; enum values are the canonical file names."""

    REQUEST = "request.md"
    IMPACT = "impact.md"
    STATUS = "status.md"
    CREDENTIALS = "credentials.md"
    COMPREHENSION = "comprehension.md"
    SPEC = "spec.md"
    TEST_SPEC = "test-spec.md"
    SIM_SPEC = "sim-spec.md"
    IMPLEMENTATION = "implementation.md"
    AUDIT = "audit.md"
    SIMULATION = "simulation.md"
    ARCHITECTURE = "Architecture.md"
    LOG_ENTRY = "log-entry.md"
    DOCS = "docs.md"
    REVIEW = "review.md"
    SHIPPER = "shipper.md"

    @property
    def filename(self) -> str:
        return self.value

    @property
    def producer(self) -> AgentRole:
        return ARTIFACT_PRODUCERS[self]


ARTIFACT_PRODUCERS: Mapping[ArtifactKind, AgentRole] = {
    ArtifactKind.REQUEST: AgentRole.LEADER,
    ArtifactKind.IMPACT: AgentRole.LEADER,
    ArtifactKind.STATUS: AgentRole.LEADER,
    ArtifactKind.CREDENTIALS: AgentRole.LEADER,
    ArtifactKind.COMPREHENSION: AgentRole.PLANNER,
    ArtifactKind.SPEC: AgentRole.PLANNER,
    ArtifactKind.TEST_SPEC: AgentRole.PLANNER,
    ArtifactKind.SIM_SPEC: AgentRole.PLANNER,
    ArtifactKind.IMPLEMENTATION: AgentRole.BUILDER,
    ArtifactKind.AUDIT: AgentRole.TESTER,
    ArtifactKind.SIMULATION: AgentRole.SIMULATOR,
    ArtifactKind.ARCHITECTURE: AgentRole.SCRIBER,
    ArtifactKind.LOG_ENTRY: AgentRole.SCRIBER,
    ArtifactKind.DOCS: AgentRole.SCRIBER,
    ArtifactKind.REVIEW: AgentRole.REVIEWER,
    ArtifactKind.SHIPPER: AgentRole.SHIPPER,
}

#: Accepted on read and normalized to the canonical name on write.
ARTIFACT_NAME_ALIASES: Mapping[str, ArtifactKind] = {
    "ARCHITECTURE.md": ArtifactKind.ARCHITECTURE,
}


def artifact_kind_for_name(name: str) -> ArtifactKind | None:
    """Map a file name to its artifact kind, honoring accepted aliases."""
    try:
        return ArtifactKind(name)
    except ValueError:
        return ARTIFACT_NAME_ALIASES.get(name)


#: The artifact contract: each dispatchable role owes the artifacts
#: ARTIFACT_PRODUCERS assigns it, and they gate entry to these states.
#: review.md gates on a passing verdict; every other artifact on existing.
CONTRACT_GATES: Mapping[AgentRole, tuple[WorkflowState, ...]] = {
    AgentRole.PLANNER: (WorkflowState.SPEC_READY,),
    AgentRole.BUILDER: (WorkflowState.PIPELINES_COMPLETE,),
    AgentRole.TESTER: (WorkflowState.PIPELINES_COMPLETE,),
    AgentRole.SIMULATOR: (WorkflowState.PIPELINES_COMPLETE,),
    AgentRole.SCRIBER: (WorkflowState.DOCUMENTED,),
    AgentRole.REVIEWER: (WorkflowState.REVIEW_PASSED, WorkflowState.READY_TO_SHIP),
    AgentRole.SHIPPER: (WorkflowState.DONE,),
}

#: Specifications the planner owes only when their consumer is dispatched.
SPEC_CONSUMERS: Mapping[ArtifactKind, AgentRole] = {
    ArtifactKind.SPEC: AgentRole.BUILDER,
    ArtifactKind.TEST_SPEC: AgentRole.TESTER,
    ArtifactKind.SIM_SPEC: AgentRole.SIMULATOR,
}

_ROLE_ARTIFACTS: Mapping[AgentRole, tuple[ArtifactKind, ...]] = {
    role: tuple(kind for kind, producer in ARTIFACT_PRODUCERS.items() if producer is role)
    for role in CONTRACT_GATES
}

#: The roles whose artifacts gate each state, from CONTRACT_GATES.
GATING_ROLES: Mapping[WorkflowState, tuple[AgentRole, ...]] = {
    state: tuple(role for role, states in CONTRACT_GATES.items() if state in states)
    for state in WorkflowState
}


def contracted_artifacts(role: AgentRole, workflow: WorkflowType) -> tuple[ArtifactKind, ...]:
    """The artifacts ``role`` owes the gates of ``workflow``, in declaration
    order: those ARTIFACT_PRODUCERS assigns it, less any specification
    whose consumer the workflow does not dispatch.

    A dispatchable role absent from this workflow's DAG owes nothing; only
    the leader, which is never dispatched, is a misconfiguration here.
    """
    if role is AgentRole.LEADER:
        raise MisconfigurationError("the leader is not dispatched and has no artifact contract")
    roles = workflow.roles()
    if role not in roles:
        return ()
    return tuple(kind for kind in _ROLE_ARTIFACTS[role] if SPEC_CONSUMERS.get(kind, role) in roles)


class OutcomeStatus(str, Enum):
    COMPLETED = "COMPLETED"
    SIGNALED = "SIGNALED"


class AgentOutcome(NamedTuple):
    """Structured result of one agent dispatch: the signal it raised, or
    None if it completed, and the texts of the artifacts dispatch()
    collected from a completed one."""

    signal: Signal | None = None
    artifacts: Mapping[ArtifactKind, str] = {}

    @property
    def status(self) -> OutcomeStatus:
        return OutcomeStatus.COMPLETED if self.signal is None else OutcomeStatus.SIGNALED


class WorkflowType(NamedTuple):
    """One catalog entry, compiled to an ordered list of parallel stages.

    ``inner_id`` marks the wrapper entries: issue patrol spawns one inner
    run per issue, and the scheduled loop repeats its inner workflow on an
    interval. Their dags mirror the inner entry so catalog invariants hold;
    ``gatework run`` refuses them, since neither is one run.
    """

    id: int
    name: str
    dag: tuple[tuple[AgentRole, ...], ...]
    ships: bool = False
    inner_id: int | None = None

    def roles(self) -> frozenset[AgentRole]:
        return frozenset(role for stage in self.dag for role in stage)


def _wf(id: int, name: str, dag: list[list[AgentRole]], **flags) -> WorkflowType:
    return WorkflowType(id, name, tuple(map(tuple, dag)), **flags)


_R = AgentRole

_FULL_DAG = [[_R.PLANNER], [_R.BUILDER, _R.TESTER, _R.SIMULATOR], [_R.SCRIBER], [_R.REVIEWER]]
_CODE_SHIP_DAG = [[_R.PLANNER], [_R.BUILDER, _R.TESTER], [_R.SCRIBER], [_R.REVIEWER], [_R.SHIPPER]]

WORKFLOW_CATALOG: Mapping[int, WorkflowType] = {
    wf.id: wf
    for wf in (
        _wf(1, "Full Workflow", _FULL_DAG),
        _wf(2, "Simple Code Fix + Shipping", _CODE_SHIP_DAG, ships=True),
        _wf(3, "Documentation", [[_R.PLANNER], [_R.SCRIBER], [_R.REVIEWER]]),
        _wf(4, "Issue Patrol", _CODE_SHIP_DAG, ships=True, inner_id=2),
        _wf(5, "Single Issue Fix", _CODE_SHIP_DAG, ships=True),
        _wf(6, "Validation", [[_R.TESTER]]),
        _wf(7, "Code Review", [[_R.REVIEWER]]),
        _wf(8, "Scheduled Loop", _FULL_DAG, inner_id=1),
        _wf(9, "Extremely Simple Fix", [[_R.BUILDER], [_R.TESTER]]),
        _wf(10, "Monte Carlo Exercises", [[_R.PLANNER], [_R.SIMULATOR, _R.TESTER], [_R.SCRIBER], [_R.REVIEWER]]),
    )
}


def workflow_by_id(id: int) -> WorkflowType:
    try:
        return WORKFLOW_CATALOG[id]
    except KeyError:
        raise ValueError(f"no workflow with id {id}; catalog has 1..10") from None


def terminal_state(workflow: WorkflowType) -> WorkflowState:
    """The furthest state a run of this workflow progresses to: the latest
    state that one of its roles' artifacts first gate (CONTRACT_GATES)."""
    return max(
        (CONTRACT_GATES[role][0] for role in workflow.roles()),
        key=lambda state: state.index,
        default=WorkflowState.PLANNED,
    )


class VerdictValue(str, Enum):
    PASS = "PASS"
    PASS_WITH_NOTE = "PASS_WITH_NOTE"
    STOP = "STOP"

    @property
    def passing(self) -> bool:
        """Whether the verdict clears the ship gate."""
        return self is not VerdictValue.STOP


_VERDICT_RE = re.compile(r"^verdict:\s*(PASS_WITH_NOTE|PASS|STOP)\s*$")


def parse_review_verdict(text: str) -> VerdictValue:
    """Parse the machine-readable header of review.md.

    The first line must be ``verdict: PASS | PASS_WITH_NOTE | STOP``;
    anything else is an error, never a default.
    """
    lines = text.splitlines()
    if not lines:
        raise VerdictError("review document is empty; no verdict header")
    match = _VERDICT_RE.match(lines[0].strip())
    if match is None:
        raise VerdictError(f"first line is not a verdict header: {lines[0]!r}")
    return VerdictValue(match.group(1))


class IssueDescriptor(NamedTuple):
    """One issue yielded by an issue-source backend (workflow 4)."""

    id: str
    title: str
    body: str = ""
