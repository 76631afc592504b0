"""Information barriers: the role/artifact access matrix, per-agent
sandboxes, and the append-only access audit.

Enforcement is by materialization: a sandbox receives copies of exactly
the artifacts its role may read and does not itself produce, plus
API-level checks for every read an agent requests. The audit log records
every decision so a misbehaving backend is caught at review time even if
it tried to bypass the copies.
"""

from __future__ import annotations

import errno
import operator
import os
import shutil
import stat
import threading
from datetime import datetime
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

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
from gatework.rundir import RunDirectory, identities, write_whole

#: Roles whose sandbox holds the files of the target at the run's base
#: commit, a plain copy that is no git repository. The simulator is not
#: one: it generates data without knowing the algorithm, so its plain
#: sandbox holds its simulation spec only.
WORKTREE_ROLES = frozenset({AgentRole.BUILDER, AgentRole.TESTER, AgentRole.SCRIBER})

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
        write_whole(path, self.render())


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
    """One agent's isolated filesystem view: its own directory, holding
    the target's files if its role is one of :data:`WORKTREE_ROLES`, plus
    materialized copies of its input artifacts."""

    def __init__(
        self,
        role: AgentRole,
        path: Path,
        visible_artifacts: frozenset[ArtifactKind],
        clock: Clock,
        state: WorkflowState | None = None,
        inherited: frozenset[tuple[int, int]] = frozenset(),
    ) -> None:
        self.role, self.path, self.visible_artifacts = role, path, visible_artifacts
        self.clock, self.state = clock, state
        #: the identities of what sat at the role's artifact names when the
        #: sandbox was made, which no dispatch of the role is credited with
        self.inherited = inherited
        self.audit = AuditLog()

    def resolve(self, relpath: str) -> Path:
        return _contained(self.path, relpath)

    def request_read(self, relpath: str) -> str | None:
        """Read a sandbox file on behalf of the agent.

        Paths whose basename is an artifact name route through the access
        matrix and are audited; a DENY never exposes content. Other paths
        are plain sandbox files, subject only to containment.
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


#: What a base copy's listing records of each file, and what a copy
#: checks it against: its mode bits and size, and the identity, inode and
#: ctime, that :func:`gatework.rundir.identities` uses; a write to the
#: file or its replacement changes it.
_identity = operator.attrgetter("st_mode", "st_size", "st_ino", "st_ctime_ns")

#: Why a listed file of the base copy cannot be opened when something
#: deleted, moved, replaced or locked it after it was listed.
_GONE = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.EACCES})


class _Listing(NamedTuple):
    """A walk of a filled directory, each path relative to it: every
    directory, parents first; every file with its :data:`_identity`; and
    every symlink with its target."""

    dirs: list[str]
    files: list[tuple[str, tuple[int, int, int, int]]]
    links: list[tuple[str, str]]


def _walk(root: str) -> _Listing:
    """The listing of ``root``, a path ending in a separator."""
    listing = _Listing([], [], [])
    pending = [""]
    while pending:
        parent = pending.pop()
        with os.scandir(root + parent) as entries:
            for entry in entries:
                name = parent + entry.name
                if entry.is_symlink():
                    listing.links.append((name, os.readlink(entry.path)))
                elif entry.is_dir(follow_symlinks=False):
                    listing.dirs.append(name)
                    pending.append(name + os.sep)
                else:
                    listing.files.append((name, _identity(entry.stat(follow_symlinks=False))))
    return listing


def _altered(name: str) -> EnvironmentFailure:
    return EnvironmentFailure(f"sandbox creation failed: base copy altered: {name}")


def _copy_file(source: str, target: str, name: str, identity: tuple[int, int, int, int]) -> None:
    """Create ``target`` with the mode of ``identity`` and the bytes of
    ``source``, the base copy's file ``name``, which must still have that
    identity once they are copied: any write to it or replacement of it
    since it was listed changed its ctime or inode for good. Else
    ``target`` is deleted and the dispatch fails as the base copy
    altered. Neither name is followed if it is a symlink, nor waited on
    if it is a FIFO."""
    try:
        src = os.open(source, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError as exc:
        if exc.errno in _GONE:
            raise _altered(name) from None
        raise
    try:
        mode, size = identity[0], identity[1]
        dst = os.open(target, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, stat.S_IMODE(mode))
        try:
            copied = 0
            while copied < size and (sent := os.sendfile(dst, src, copied, size - copied)):
                copied += sent
        except OSError:
            # a directory or FIFO put in the file's place cannot be sent
            if _identity(os.fstat(src)) == identity:
                raise
        finally:
            os.close(dst)
        if _identity(os.fstat(src)) != identity:
            os.unlink(target)
            raise _altered(name)
    finally:
        os.close(src)


class BaseCopy:
    """The files of commit ``commit`` of ``repo`` at ``path``, filled once
    per session, which every filled sandbox of the session is copied from
    with no git process.

    The first :meth:`copy_to` of the session fills ``path`` by
    ``git.worktree_add`` under a lock, so a parallel batch fills it once,
    after deleting whatever is there: a killed session's copy is never
    trusted. One walk then lists it. A copy makes each listed directory,
    each listed symlink with its listed target, and each listed file from
    the bytes of the base copy's file, which an agent can reach as it can
    any sibling sandbox: a file whose identity is not the listed one fails
    the copy, so nothing an agent did to the base copy reaches a sandbox.
    Copies run under the same lock, one at a time: two at once contend
    for the interpreter lock at each of their many system calls, and both
    end later than either would alone."""

    def __init__(self, git: SubprocessGit, repo: Path, commit: str, path: Path) -> None:
        self.git, self.repo, self.commit, self.path = git, repo, commit, path
        self._lock = threading.Lock()
        self._listing: _Listing | None = None

    def _fill(self) -> _Listing:
        # what a killed session, or an agent of it, left here is deleted
        if self.path.is_symlink() or not self.path.is_dir():
            self.path.unlink(missing_ok=True)
        else:
            shutil.rmtree(self.path)
        self.git.worktree_add(self.repo, self.path, self.commit)
        return _walk(f"{self.path}{os.sep}")

    def copy_to(self, path: Path) -> None:
        """Make a new directory at ``path`` holding the files of the base
        commit, modes and symlinks included; an existing ``path`` raises
        ``FileExistsError``. A failed fill raises what
        ``git.worktree_add`` raised, and an altered base copy
        EnvironmentFailure naming the file."""
        with self._lock:
            if self._listing is None:
                self._listing = self._fill()
            os.mkdir(path)
            # joined by hand, as in _walk: two os.path.join calls cost about
            # a tenth of a file's copy
            source, target = f"{self.path}{os.sep}", f"{path}{os.sep}"
            for name in self._listing.dirs:
                os.mkdir(target + name)
            for name, link in self._listing.links:
                os.symlink(link, target + name)
            for name, identity in self._listing.files:
                _copy_file(source + name, target + name, name, identity)


def create_sandbox(
    role: AgentRole,
    base: BaseCopy,
    *,
    run_dir: RunDirectory,
    clock: Clock,
    state: WorkflowState | None = None,
) -> Sandbox:
    """Give a role of :data:`WORKTREE_ROLES` a copy of the session's
    ``base`` in ``<run_dir.sandboxes_dir>/<role>``, holding its inputs
    only. What an earlier attempt of the role left there is deleted
    first, so no edit, untracked file or artifact of it survives; the
    sandboxes of other roles are other directories."""
    if role not in WORKTREE_ROLES:
        raise MisconfigurationError(
            f"{role.value} does not run in a sandbox filled from the target; "
            f"filled roles: {sorted(r.value for r in WORKTREE_ROLES)}"
        )
    path = run_dir.sandboxes_dir / role.value

    def fill() -> None:
        if path.exists():
            base.git.worktree_remove(base.repo, path)
        base.copy_to(path)

    return _make(role, path, fill, run_dir=run_dir, clock=clock, state=state)


def create_plain_sandbox(
    role: AgentRole,
    *,
    run_dir: RunDirectory,
    clock: Clock,
    state: WorkflowState | None = None,
) -> Sandbox:
    """Directory-backed sandbox for every role not in
    :data:`WORKTREE_ROLES` (the bridge, simulation, convergence and ship
    roles), which need artifact isolation but no files of the target: an
    empty ``<run_dir.sandboxes_dir>/<role>`` holding the role's inputs
    only. Whatever is at that path is deleted first. Either kind of
    sandbox fails its dispatch as :func:`_make` says."""
    if role is AgentRole.LEADER:
        raise MisconfigurationError("the leader is never dispatched into a sandbox")
    path = run_dir.sandboxes_dir / role.value

    def empty() -> None:
        if path.exists():
            shutil.rmtree(path)
        path.mkdir()

    return _make(role, path, empty, run_dir=run_dir, clock=clock, state=state)


def _refuse_symlink(path: Path) -> None:
    # an earlier agent of the session can leave one in place of a sandbox
    # or of the run's sandboxes directory: a sandbox is never made through it
    if path.is_symlink():
        raise EnvironmentFailure(f"sandbox creation failed: {path} is a symlink")


def _make(
    role: AgentRole,
    path: Path,
    prepare: Callable[[], None],
    *,
    run_dir: RunDirectory,
    clock: Clock,
    state: WorkflowState | None,
) -> Sandbox:
    """The sandbox of ``role`` at ``path``, the directory of
    ``run_dir.sandboxes_dir`` that ``prepare`` makes, holding the role's
    inputs only. A symlink at ``run_dir.sandboxes_dir`` or at ``path``,
    which is never followed, what ``prepare`` raises and any ``OSError``
    fail the dispatch as one EnvironmentFailure."""
    # named by the input, not the pid-named temporary write_whole writes first
    where = str(path)
    visible = set()
    try:
        _refuse_symlink(path.parent)
        _refuse_symlink(path)
        path.parent.mkdir(exist_ok=True)
        prepare()
        # what sits at the role's own names: in a filled sandbox, only a
        # tracked file of the target can
        inherited = identities(path, (kind for kind in ArtifactKind if kind.producer is role))
        # Only inputs: a role's own output must come from this attempt, or
        # the contract check in dispatch() would pass a retry that wrote nothing.
        for kind in sorted(DEFAULT_ACCESS_MATRIX.grants_for(role, state), key=lambda k: k.filename):
            if kind.producer is not role and (text := run_dir.read(kind)) is not None:
                where = f"input {kind.filename}"
                write_whole(path / kind.filename, text)
                visible.add(kind)
    except OSError as exc:
        raise EnvironmentFailure(f"sandbox creation failed: {where}: {exc.strerror or exc}") from None
    return Sandbox(role, path, frozenset(visible), clock, state, inherited)


def audit_isolation(
    logs: Mapping[AgentRole, Sequence[AccessEvent]],
    *,
    dispatched: frozenset[AgentRole] = frozenset(),
) -> tuple[tuple[AgentRole, ArtifactKind, datetime], ...]:
    """Cross-check all access logs against the matrix: the violations, in
    time order.

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
    return tuple(violations)


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
