"""Gated progression through the nine control states.

Transitions move only to the immediate successor and only when that
state's artifact preconditions hold. Gate failures are values, not
exceptions, so the leader can report missing artifacts verbatim. Signal
retries are counted per signal kind per run, with escalation to the user
on the fourth occurrence of the same kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum

from gatework.clock import Clock, iso8601, parse_iso8601
from gatework.errors import ProtocolError, TerminalStateError
from gatework.model import (
    GATING_ROLES,
    SIGNAL_OWNERS,
    ArtifactKind,
    Signal,
    SignalKind,
    WorkflowState,
    WorkflowType,
    owed_artifacts,
    signal_owner_check,
)
from gatework.rundir import RunDirectory

#: Retry cycles allowed per signal kind before escalating to the user.
RETRY_LIMIT = 3


class Predicate(str, Enum):
    EXISTS = "EXISTS"
    HAS_VERDICT = "HAS_VERDICT"


@dataclass(frozen=True)
class Requirement:
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
    roles = workflow.roles()
    owed = [kind for role in GATING_ROLES[state] for kind in owed_artifacts(role, roles)]
    return tuple(
        Requirement(kind, Predicate.HAS_VERDICT if kind is ArtifactKind.REVIEW else Predicate.EXISTS)
        for kind in (*_BOOTSTRAP_GATES.get(state, ()), *owed)
    )


@dataclass(frozen=True)
class GateCheck:
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


@dataclass(frozen=True)
class HistoryEntry:
    """One state-machine event: a transition or a recorded signal."""

    timestamp: datetime
    state_from: WorkflowState
    state_to: WorkflowState | None
    signal: SignalKind | None
    cause: str

    def render(self) -> str:
        event = f"->{self.state_to.value}" if self.state_to else f"signal:{self.signal.value}"
        return "\t".join((iso8601(self.timestamp), self.state_from.value, event, self.cause))


@dataclass
class RunState:
    """Mutable run bookkeeping, owned by the orchestrator's control loop."""

    workflow: WorkflowType
    current: WorkflowState = WorkflowState.CREDENTIALS_VERIFIED
    retries: dict[SignalKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in SignalKind}
    )
    history: list[HistoryEntry] = field(default_factory=list)

    def visited_states(self) -> tuple[WorkflowState, ...]:
        states = [WorkflowState.CREDENTIALS_VERIFIED]
        for entry in self.history:
            if entry.state_to is not None:
                states.append(entry.state_to)
        return tuple(states)


@dataclass(frozen=True)
class AdvanceResult:
    moved: bool
    state: WorkflowState
    gate: GateCheck


def advance(run: RunState, run_dir: RunDirectory, clock: Clock) -> AdvanceResult:
    """Move to the immediate successor state iff its preconditions hold.

    On a gate failure the state is unchanged and the missing requirements
    are surfaced in the result. Advancing from DONE is a terminal-state
    error.
    """
    if run.current is WorkflowState.DONE:
        raise TerminalStateError("run is DONE; no transition leaves the terminal state")
    successor = run.current.successor
    assert successor is not None
    gate = check_preconditions(successor, run_dir, run.workflow)
    if not gate.satisfied:
        return AdvanceResult(moved=False, state=run.current, gate=gate)
    entry = HistoryEntry(
        timestamp=clock.now(),
        state_from=run.current,
        state_to=successor,
        signal=None,
        cause="gate satisfied",
    )
    run.history.append(entry)
    run.current = successor
    write_status(run, run_dir)
    return AdvanceResult(moved=True, state=successor, gate=gate)


class SignalDisposition(str, Enum):
    RETRY = "retry"
    ESCALATE_TO_USER = "escalate_to_user"


def record_signal(
    run: RunState, s: Signal, run_dir: RunDirectory, clock: Clock
) -> SignalDisposition:
    """Count a signal against the per-kind retry cap.

    Occurrences 1..3 of a kind allow a retry; the 4th escalates to the
    user. The counter never silently resets and is capped at the limit so
    the escalation survives in history.
    """
    if not signal_owner_check(s):
        owners = sorted(r.value for r in SIGNAL_OWNERS[s.kind])
        raise ProtocolError(f"{s.raiser.value} may not raise {s.kind.value}; owners: {owners}")
    count = run.retries[s.kind]
    if count < RETRY_LIMIT:
        run.retries[s.kind] = count + 1
        disposition = SignalDisposition.RETRY
        cause = f"{s.raiser.value} raised {s.kind.value} (retry {count + 1}/{RETRY_LIMIT})"
    else:
        disposition = SignalDisposition.ESCALATE_TO_USER
        cause = f"{s.raiser.value} raised {s.kind.value} (cap {RETRY_LIMIT} reached; escalate)"
    run.history.append(
        HistoryEntry(
            timestamp=clock.now(),
            state_from=run.current,
            state_to=None,
            signal=s.kind,
            cause=cause,
        )
    )
    write_status(run, run_dir)
    return disposition


def render_status(run: RunState) -> str:
    """status.md body: one line per history entry, append order."""
    lines = [entry.render() for entry in run.history]
    return "\n".join(lines) + ("\n" if lines else "")


def write_status(run: RunState, run_dir: RunDirectory) -> None:
    run_dir.write(ArtifactKind.STATUS, render_status(run))


def parse_status(text: str) -> list[HistoryEntry]:
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"status line {lineno} is not 4 tab-separated fields: {line!r}")
        ts, state_from, event, cause = parts
        state_to = None
        signal = None
        if event.startswith("->"):
            state_to = WorkflowState(event[2:])
        elif event.startswith("signal:"):
            signal = SignalKind(event[len("signal:") :])
        else:
            raise ValueError(f"status line {lineno} has unknown event: {event!r}")
        entries.append(
            HistoryEntry(
                timestamp=parse_iso8601(ts),
                state_from=WorkflowState(state_from),
                state_to=state_to,
                signal=signal,
                cause=cause,
            )
        )
    return entries


def reconstruct_run_state(run_dir: RunDirectory, workflow: WorkflowType) -> RunState:
    """Rebuild RunState from status.md; the run directory is the only
    persistence layer."""
    run = RunState(workflow=workflow)
    if not run_dir.exists(ArtifactKind.STATUS):
        return run
    run.history = parse_status(run_dir.read(ArtifactKind.STATUS))
    for entry in run.history:
        if entry.state_to is not None:
            run.current = entry.state_to
        if entry.signal is not None and run.retries[entry.signal] < RETRY_LIMIT:
            run.retries[entry.signal] += 1
    return run
