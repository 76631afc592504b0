"""Information barriers: the role/artifact access matrix, per-agent
sandboxes, and the append-only access audit.

Enforcement is by materialization: a sandbox receives copies of exactly
the artifacts its role may read and does not itself produce, plus
API-level checks for every read an agent requests. The audit log records
every decision so a misbehaving backend is caught at review time even if
it tried to bypass the copies.
"""

from __future__ import annotations

import shutil
import threading
from datetime import datetime
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from gatework.clock import Clock, iso8601
from gatework.errors import AuditIncompleteness, BarrierError, EnvironmentFailure, MisconfigurationError
from gatework.gitlayer import SubprocessGit
from gatework.model import (
    AccessDecision,
    AccessEvent,
    AgentRole,
    ArtifactKind,
    WorkflowState,
    artifact_kind_for_name,
    state_order,
)
from gatework.rundir import RunDirectory

#: Roles that operate in an isolated git worktree.
WORKTREE_ROLES = frozenset(
    {AgentRole.BUILDER, AgentRole.TESTER, AgentRole.SIMULATOR, AgentRole.SCRIBER}
)

#: Pipeline outputs the tester may read once the pipelines have completed.
TESTER_LATE_INPUTS = frozenset({ArtifactKind.IMPLEMENTATION, ArtifactKind.SIMULATION})

_K = ArtifactKind
_SPEC_ARTIFACTS = (_K.COMPREHENSION, _K.SPEC, _K.TEST_SPEC, _K.SIM_SPEC)
_PIPELINE_OUTPUTS = (_K.IMPLEMENTATION, _K.AUDIT, _K.SIMULATION)
_SCRIBER_OUTPUTS = (_K.ARCHITECTURE, _K.LOG_ENTRY, _K.DOCS)


class AuditLog:
    """Append-only, thread-safe access log (single writer per sandbox;
    atomic appends)."""

    def __init__(self) -> None:
        self._events: list[AccessEvent] = []
        self._lock = threading.Lock()

    def append(self, event: AccessEvent) -> None:
        with self._lock:
            self._events.append(event)

    def events(self) -> tuple[AccessEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def render(self) -> str:
        lines = [
            "\t".join((iso8601(e.timestamp), e.role.value, e.artifact.filename, e.decision.value))
            for e in self.events()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_to(self, path: Path) -> None:
        path.write_text(self.render(), encoding="utf-8")


class AccessMatrix(NamedTuple):
    """Which role may read which artifact kind. Default deny."""

    grants: Mapping[AgentRole, frozenset[ArtifactKind]]

    def grants_for(self, role: AgentRole, state: WorkflowState | None = None) -> frozenset[ArtifactKind]:
        base = self.grants.get(role, frozenset())
        if (
            role is AgentRole.TESTER
            and state is not None
            and state_order(state, WorkflowState.PIPELINES_COMPLETE) >= 0
        ):
            return base | TESTER_LATE_INPUTS
        return base

    def allowed(self, role: AgentRole, kind: ArtifactKind, state: WorkflowState | None = None) -> bool:
        return kind in self.grants_for(role, state)


DEFAULT_ACCESS_MATRIX = AccessMatrix(
    grants={
        AgentRole.LEADER: frozenset({_K.REQUEST, _K.IMPACT, _K.STATUS, _K.CREDENTIALS}),
        AgentRole.PLANNER: frozenset({_K.REQUEST, _K.IMPACT, *_SPEC_ARTIFACTS}),
        AgentRole.BUILDER: frozenset({_K.SPEC, _K.IMPLEMENTATION}),
        AgentRole.TESTER: frozenset({_K.TEST_SPEC, _K.AUDIT}),
        AgentRole.SIMULATOR: frozenset({_K.SIM_SPEC, _K.SIMULATION}),
        AgentRole.SCRIBER: frozenset({*_PIPELINE_OUTPUTS, *_SCRIBER_OUTPUTS}),
        AgentRole.REVIEWER: frozenset(
            {*_SPEC_ARTIFACTS, *_PIPELINE_OUTPUTS, *_SCRIBER_OUTPUTS, _K.REVIEW}
        ),
        AgentRole.SHIPPER: frozenset(ArtifactKind),
    }
)


def check_access(
    m: AccessMatrix,
    role: AgentRole,
    kind: ArtifactKind,
    *,
    audit: AuditLog,
    clock: Clock,
    state: WorkflowState | None = None,
) -> AccessDecision:
    """Decide one read at ``state``; audit the decision either way."""
    decision = AccessDecision.ALLOW if m.allowed(role, kind, state) else AccessDecision.DENY
    audit.append(AccessEvent(clock.now(), role, kind, decision, state))
    return decision


def _contained(root: Path, relpath: str) -> Path:
    candidate = Path(relpath)
    if candidate.is_absolute():
        raise BarrierError(f"absolute path not permitted in sandbox: {relpath!r}")
    if ".." in candidate.parts:
        raise BarrierError(f"path traversal not permitted in sandbox: {relpath!r}")
    resolved = (root / candidate).resolve()
    if not resolved.is_relative_to(root.resolve()):
        raise BarrierError(f"path escapes sandbox: {relpath!r}")
    return resolved


class Sandbox:
    """One agent's isolated filesystem view: a worktree (or plain
    directory) plus materialized copies of its input artifacts."""

    def __init__(
        self,
        role: AgentRole,
        path: Path,
        visible_artifacts: frozenset[ArtifactKind],
        clock: Clock,
        state: WorkflowState | None = None,
    ) -> None:
        self.role, self.path, self.visible_artifacts = role, path, visible_artifacts
        self.clock, self.state = clock, state
        self.audit = AuditLog()

    def resolve(self, relpath: str) -> Path:
        return _contained(self.path, relpath)

    def request_read(self, relpath: str) -> str | None:
        """Read a sandbox file on behalf of the agent.

        Paths whose basename is an artifact name route through the access
        matrix and are audited; a DENY never exposes content. Other paths
        are plain worktree files, subject only to containment.
        """
        target = self.resolve(relpath)
        kind = artifact_kind_for_name(target.name)
        if kind is not None:
            decision = check_access(
                DEFAULT_ACCESS_MATRIX, self.role, kind, audit=self.audit, clock=self.clock, state=self.state
            )
            if decision is AccessDecision.DENY:
                return None
        if not target.exists():
            return None
        return target.read_text(encoding="utf-8")

    def write_file(self, relpath: str, content: str) -> Path:
        target = self.resolve(relpath)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")
        return target


def worktree_slot(sandboxes: Path, slot: int) -> Path:
    """Where worktree slot ``slot`` of a run whose sandboxes live in
    ``sandboxes`` is: ``<sandboxes>/worktree-<slot>``."""
    return sandboxes / f"worktree-{slot}"


def create_sandbox(
    role: AgentRole,
    base_repo: Path,
    *,
    run_dir: RunDirectory,
    git: SubprocessGit,
    clock: Clock,
    request_id: str,
    state: WorkflowState | None = None,
    slot: int = 0,
    attempt: int = 1,
) -> Sandbox:
    """Give an execution or recording role a pristine checkout of its
    branch, ``agent/<role>/<request_id>``, in worktree slot ``slot`` of
    ``run_dir.sandboxes_dir``, holding its inputs only.

    The slot is added if it does not exist, and reset in place if it
    does, whichever role ran in it last. The role's first ``attempt`` of
    the run creates its branch at the main checkout's HEAD; a later one
    checks the branch out as it is. Either way no edit, untracked file,
    branch or artifact of an earlier attempt or role survives.
    """
    if role not in WORKTREE_ROLES:
        raise MisconfigurationError(
            f"{role.value} does not run in a worktree sandbox; "
            f"worktree roles: {sorted(r.value for r in WORKTREE_ROLES)}"
        )
    sandboxes = run_dir.sandboxes_dir
    path = worktree_slot(sandboxes, slot)
    branch = f"agent/{role.value}/{request_id}"
    new_branch = attempt == 1
    if path.exists():
        verb, result = "reset", git.worktree_reset(base_repo, path, branch, new_branch=new_branch)
    else:
        sandboxes.mkdir(exist_ok=True)
        verb, result = "creation", git.worktree_add(base_repo, path, branch, new_branch=new_branch)
    if not result.ok:
        raise EnvironmentFailure(f"worktree {verb} failed: {result.output}")
    return _materialize(role, path, run_dir=run_dir, clock=clock, state=state)


def create_plain_sandbox(
    role: AgentRole,
    *,
    run_dir: RunDirectory,
    clock: Clock,
    state: WorkflowState | None = None,
) -> Sandbox:
    """Directory-backed sandbox for the bridge, convergence, and ship
    roles, which need artifact isolation but no repository worktree: an
    empty ``<run_dir.sandboxes_dir>/<role>`` holding the role's inputs
    only."""
    if role is AgentRole.LEADER:
        raise MisconfigurationError("the leader is never dispatched into a sandbox")
    path = run_dir.sandboxes_dir / role.value
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return _materialize(role, path, run_dir=run_dir, clock=clock, state=state)


def _materialize(
    role: AgentRole,
    path: Path,
    *,
    run_dir: RunDirectory,
    clock: Clock,
    state: WorkflowState | None,
) -> Sandbox:
    # Only inputs: a role's own output must come from this attempt, or the
    # contract check in dispatch() would pass a retry that wrote nothing.
    visible = set()
    for kind in sorted(DEFAULT_ACCESS_MATRIX.grants_for(role, state), key=lambda k: k.filename):
        if kind.producer is not role and run_dir.exists(kind):
            (path / kind.filename).write_text(run_dir.read(kind), encoding="utf-8")
            visible.add(kind)
    return Sandbox(role=role, path=path, visible_artifacts=frozenset(visible), clock=clock, state=state)


class IsolationReport(NamedTuple):
    violations: tuple[tuple[AgentRole, ArtifactKind, datetime], ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def audit_isolation(
    logs: Mapping[AgentRole, Sequence[AccessEvent]],
    *,
    dispatched: frozenset[AgentRole] = frozenset(),
) -> IsolationReport:
    """Cross-check all access logs against the matrix.

    An event is a violation exactly when the matrix does not grant its
    artifact to its role at the state the event records: an ALLOW entry
    means the barrier was bypassed, a DENY entry means the agent attempted
    a read it had no right to. A dispatched agent with no log at all makes
    the audit incomplete, which is a failure, not a pass.
    """
    missing = sorted(role.value for role in dispatched if role not in logs)
    if missing:
        raise AuditIncompleteness(missing)
    violations = []
    for role, events in logs.items():
        for event in events:
            if not DEFAULT_ACCESS_MATRIX.allowed(role, event.artifact, event.state):
                violations.append((role, event.artifact, event.timestamp))
    violations.sort(key=lambda v: (v[2], v[0].value, v[1].filename))
    return IsolationReport(violations=tuple(violations))


def merge_access_logs(logs: Mapping[AgentRole, Sequence[AccessEvent]], run_dir: RunDirectory) -> Path:
    """Write the per-role events, merged in time order, to ``<run>/access.log``."""
    events = sorted(
        (e for per_role in logs.values() for e in per_role),
        key=lambda e: (e.timestamp, e.role.value, e.artifact.filename),
    )
    merged = AuditLog()
    for event in events:
        merged.append(event)
    merged.write_to(run_dir.access_log_path)
    return run_dir.access_log_path
