"""Gated progression through the nine control states.

Transitions move only to the immediate successor and only when that
state's artifact preconditions hold. Gate failures are values, not
exceptions, so the leader can report missing artifacts verbatim. Signal
retries are counted per signal kind per run, with escalation to the user
on the fourth occurrence of the same kind.

Each event is appended once to the run's journal, ``events.jsonl``, which
a resumed session folds back into a RunState; the engine never reads
``status.md``, the journal's projection.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from gatework.clock import Clock, iso8601, parse_iso8601
from gatework.errors import ProtocolError, TerminalStateError
from gatework.model import (
    GATING_ROLES,
    SIGNAL_OWNERS,
    AccessDecision,
    AccessEvent,
    AgentRole,
    ArtifactKind,
    Signal,
    SignalKind,
    WorkflowState,
    WorkflowType,
    contracted_artifacts,
    signal_owner_check,
)
from gatework.rundir import RunDirectory

#: Retry cycles allowed per signal kind before escalating to the user.
RETRY_LIMIT = 3


class Predicate(str, Enum):
    EXISTS = "EXISTS"
    HAS_VERDICT = "HAS_VERDICT"


class Requirement(NamedTuple):
    artifact: ArtifactKind
    predicate: Predicate


#: The leader writes these at run start; no dispatched role owes them.
_BOOTSTRAP_GATES: dict[WorkflowState, tuple[ArtifactKind, ...]] = {
    WorkflowState.NEW: (ArtifactKind.CREDENTIALS,),
    WorkflowState.PLANNED: (ArtifactKind.REQUEST, ArtifactKind.IMPACT),
}


def required_for(state: WorkflowState, workflow: WorkflowType) -> tuple[Requirement, ...]:
    """Artifact preconditions for entering ``state`` under ``workflow``.

    Beyond the leader's bootstrap artifacts, these are the contracted
    artifacts of the dispatched roles that CONTRACT_GATES names for the
    state: a workflow without a tester does not gate on audit.md, a
    workflow without a simulator does not gate on sim-spec.md, and so on.
    """
    owed = [kind for role in GATING_ROLES[state] for kind in contracted_artifacts(role, workflow)]
    return tuple(
        Requirement(kind, Predicate.HAS_VERDICT if kind is ArtifactKind.REVIEW else Predicate.EXISTS)
        for kind in (*_BOOTSTRAP_GATES.get(state, ()), *owed)
    )


class GateCheck(NamedTuple):
    state: WorkflowState
    missing: tuple[Requirement, ...]

    @property
    def satisfied(self) -> bool:
        return not self.missing


def check_preconditions(
    state: WorkflowState, run_dir: RunDirectory, workflow: WorkflowType
) -> GateCheck:
    """Evaluate the hard gate for entering ``state``.

    Raises RunDirectoryError when the run directory itself is unreadable;
    a missing artifact is an ordinary result, not an error.
    """
    run_dir.check_readable()
    missing = []
    for req in required_for(state, workflow):
        if req.predicate is Predicate.EXISTS:
            if not run_dir.exists(req.artifact):
                missing.append(req)
        else:  # HAS_VERDICT
            if not run_dir.has_passing_verdict():
                missing.append(req)
    return GateCheck(state=state, missing=tuple(missing))


def status_line(entry: dict) -> str:
    """A transition or signal record as its tab-separated status.md line."""
    if entry["event"] == "transition":
        state, event = entry["from"], "->" + entry["to"]
    else:
        state, event = entry["state"], "signal:" + entry["kind"]
    return "\t".join((entry["time"], state, event, entry["cause"]))


class RunState:
    """The run as its journal records it. Each field changes only when a
    record is journaled, live or on resume, so a resumed session owes what
    the session before it owed: the ``owed`` phases, then the roles not
    ``done``, each briefed with its ``briefing`` lines."""

    def __init__(
        self, workflow: WorkflowType, current: WorkflowState = WorkflowState.CREDENTIALS_VERIFIED
    ) -> None:
        self.workflow = workflow
        self.current = current
        self.retries: dict[SignalKind, int] = {kind: 0 for kind in SignalKind}
        self.history: list[dict] = []
        #: a role's dispatch count is the number of its latest attempt
        self.dispatches: dict[AgentRole, int] = {}
        #: the access events of every dispatched role, across sessions
        self.access: dict[AgentRole, list[AccessEvent]] = {}
        self.language: str | None = None
        #: the commit of the target every filled sandbox of the run holds
        self.base: str | None = None
        #: the routed HOLD signal records no answer has settled, in journal order
        self.pending_hold: list[dict] = []
        #: the last record, when it is a halt: why the last session ended
        self.halt: dict | None = None
        #: the latest mechanical review and ship outcome, as their records hold them
        self.review: dict | None = None
        self.ship: dict | None = None
        #: the roles whose latest dispatch completed
        self.done: set[AgentRole] = set()
        #: the phases routed signals still owe, the next one first; the first
        #: ``merging`` of them come from the signals of the latest batch
        self.owed: list[tuple[AgentRole, ...]] = []
        self.merging = 0
        #: each role's briefing lines since its last completed dispatch
        self.briefing: dict[AgentRole, list[str]] = {}

    def visited_states(self) -> tuple[WorkflowState, ...]:
        moves = [WorkflowState(e["to"]) for e in self.history if e["event"] == "transition"]
        return (WorkflowState.CREDENTIALS_VERIFIED, *moves)


def _apply(run: RunState, record: dict) -> None:
    """Fold one journal record into the run: the one reading of a record,
    for the session that appends it and for every session that resumes.

    What the run owes: a dispatch leaves the owed phase it ran in, unless
    it failed; only a completed one marks the role done and clears its
    briefing lines. A routed STOP (``rewind``) clears what is owed and
    leaves undone every role from that stage on; the ``phases`` of a
    routed HOLD or BLOCK go ahead of the owed ones, merged depth by depth
    with those of the same batch. A capped signal routes nothing. An access
    record is judged at the state the fold is in, the state its batch ran
    in: a batch journals nothing between its sandboxes and its records."""
    event = record["event"]
    run.halt = record if event == "halt" else None
    if event == "transition":
        run.current = WorkflowState(record["to"])
        run.history.append(record)
    elif event == "signal":
        kind, payload = SignalKind(record["kind"]), record["payload"]
        routed = run.retries[kind] < RETRY_LIMIT
        if routed:
            run.retries[kind] += 1
        if routed and kind is SignalKind.HOLD:
            run.pending_hold.append(record)
        run.history.append(record)
        if "rewind" in record:
            stages = run.workflow.dag[record["rewind"]:]
            run.done.difference_update(role for stage in stages for role in stage)
            run.owed, run.merging = [], 0
            for role in stages[0]:
                run.briefing.setdefault(role, []).append(f"quality-gate failure details: {payload}")
        phases = [tuple(AgentRole(name) for name in phase) for phase in record.get("phases", ())]
        for depth, phase in enumerate(phases):
            if depth < run.merging:
                run.owed[depth] = tuple(dict.fromkeys(run.owed[depth] + phase))
            else:
                run.owed.insert(depth, phase)
            run.done.difference_update(phase)
        run.merging = max(run.merging, len(phases))
        if phases and kind is SignalKind.BLOCK:  # the fix role first, then the tester
            run.briefing.setdefault(phases[0][0], []).append(f"validation failure details: {payload}")
    elif event == "dispatch":
        role, outcome = AgentRole(record["role"]), record["outcome"]
        run.dispatches[role] = run.dispatches.get(role, 0) + 1
        run.access.setdefault(role, [])
        run.merging = 0
        if outcome != "failed" and run.owed and role in run.owed[0]:  # the phase it ran in
            rest = tuple(r for r in run.owed[0] if r is not role)
            run.owed[:1] = [rest] if rest else []
        if outcome == "completed":
            run.done.add(role)
            run.briefing.pop(role, None)
        else:
            run.done.discard(role)
    elif event == "access":
        role, kind = AgentRole(record["role"]), ArtifactKind(record["artifact"])
        when, decision = parse_iso8601(record["time"]), AccessDecision(record["decision"])
        run.access[role].append(AccessEvent(when, role, kind, decision, run.current))
    elif event == "answer":
        role = AgentRole(record["role"])
        run.pending_hold = [hold for hold in run.pending_hold if hold["raiser"] != role.value]
        run.briefing.setdefault(role, []).append(f"user answer: {record['text']}")
    elif event == "language":
        run.language = record["language"]
    elif event == "base":
        run.base = record["commit"]
    elif event == "review":
        run.review = {k: v for k, v in record.items() if k != "event"}
    elif event == "ship":
        run.ship = {k: v for k, v in record.items() if k != "event"}


def _journal(run: RunState, run_dir: RunDirectory, records: list[dict]) -> None:
    for record in records:
        _apply(run, record)
    run_dir.append_events(records)


def record_dispatches(
    run: RunState, run_dir: RunDirectory, batch: Sequence[tuple[AgentRole, str, Sequence[AccessEvent]]]
) -> None:
    """Journal one dispatch of each role in ``batch``, in order, with its
    outcome (``completed``, the signal kind, or ``failed``), each followed
    by the access events of its sandbox."""
    records = []
    for role, outcome, events in batch:
        records.append({"event": "dispatch", "role": role.value, "outcome": outcome})
        records.extend(
            {"event": "access", "time": iso8601(e.timestamp), "role": e.role.value,
             "artifact": e.artifact.filename, "decision": e.decision.value}
            for e in events
        )
    _journal(run, run_dir, records)


def record_event(run: RunState, run_dir: RunDirectory, event: str, fields: Mapping) -> None:
    """Journal one record of ``event`` holding ``fields``: a user's
    ``answer`` (``role``, ``text``), which settles that role's HOLD; the
    resolved ``language``, or ``None`` with the ``answer`` that named
    none, which leaves the language unset; the ``base`` commit every
    filled sandbox holds; a mechanical ``review`` or a ``ship`` outcome;
    or a ``halt``, holding the report fields it sets."""
    _journal(run, run_dir, [{"event": event, **fields}])


def advance(run: RunState, run_dir: RunDirectory, clock: Clock) -> GateCheck:
    """Move to the immediate successor state iff its preconditions hold:
    the gate evaluated, which is ``satisfied`` iff the run moved.

    On a gate failure the state is unchanged and the gate names the
    missing requirements. Advancing from DONE is a terminal-state error.
    """
    if run.current is WorkflowState.DONE:
        raise TerminalStateError("run is DONE; no transition leaves the terminal state")
    successor = run.current.successor
    assert successor is not None
    gate = check_preconditions(successor, run_dir, run.workflow)
    if not gate.satisfied:
        return gate
    record = {"event": "transition", "time": iso8601(clock.now()), "from": run.current.value,
              "to": successor.value, "cause": "gate satisfied"}
    _journal(run, run_dir, [record])
    write_status(run, run_dir)
    return gate


class SignalDisposition(str, Enum):
    RETRY = "retry"
    ESCALATE_TO_USER = "escalate_to_user"


def record_signal(
    run: RunState, s: Signal, run_dir: RunDirectory, clock: Clock, routing: Mapping | None = None
) -> SignalDisposition:
    """Count a signal against the per-kind retry cap.

    Occurrences 1..3 of a kind allow a retry, and the record carries what
    the leader routed (``routing``): a HOLD's or BLOCK's ``phases``, a
    STOP's ``rewind`` stage index. The 4th escalates to the user. The
    counter never silently resets and is capped at the limit so the
    escalation survives in history.
    """
    if not signal_owner_check(s):
        owners = sorted(r.value for r in SIGNAL_OWNERS[s.kind])
        raise ProtocolError(f"{s.raiser.value} may not raise {s.kind.value}; owners: {owners}")
    count = run.retries[s.kind]
    routed = count < RETRY_LIMIT
    if routed:
        cause = f"{s.raiser.value} raised {s.kind.value} (retry {count + 1}/{RETRY_LIMIT})"
    else:
        cause = f"{s.raiser.value} raised {s.kind.value} (cap {RETRY_LIMIT} reached; escalate)"
    record = {"event": "signal", "time": iso8601(clock.now()), "state": run.current.value,
              "kind": s.kind.value, "raiser": s.raiser.value, "payload": s.payload, "cause": cause,
              **((routing or {}) if routed else {})}
    _journal(run, run_dir, [record])
    write_status(run, run_dir)
    return SignalDisposition.RETRY if routed else SignalDisposition.ESCALATE_TO_USER


def write_status(run: RunState, run_dir: RunDirectory) -> None:
    """Append the newest history entry's line to status.md, which starts
    empty; the engine never reads it back."""
    with open(run_dir.artifact_path(ArtifactKind.STATUS), "a", encoding="utf-8") as fh:
        fh.write("".join(status_line(entry) + "\n" for entry in run.history[-1:]))


def reconstruct_run_state(run_dir: RunDirectory, workflow: WorkflowType) -> RunState:
    """Rebuild RunState from the run's journal, the one record of the run
    a session reads back."""
    run = RunState(workflow=workflow)
    for record in run_dir.events():
        _apply(run, record)
    return run
