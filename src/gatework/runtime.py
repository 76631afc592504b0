"""Uniform dispatch contract for agent backends.

Backends are opaque artifact producers: given a briefing and a sandbox,
they either complete (leaving their contracted artifacts in the sandbox)
or raise a well-formed interrupt signal. The scripted backend replays a
plain-text scenario byte-identically, which is what makes the whole
protocol testable without a language model.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import threading
from abc import ABC, abstractmethod
from enum import Enum
from pathlib import Path
from signal import SIGKILL
from typing import NamedTuple

from gatework.barrier import Sandbox
from gatework.errors import (
    BarrierError,
    ContractError,
    DispatchError,
    DispatchTimeout,
    MisconfigurationError,
    ProtocolError,
    ScenarioError,
)
from gatework.model import (
    AgentOutcome,
    AgentRole,
    OutcomeStatus,
    Signal,
    SignalKind,
    WorkflowType,
    contracted_artifacts,
    signal_owner_check,
)
from gatework.rundir import find_artifact

#: Default per-dispatch deadline in seconds; override per request.
DEFAULT_DEADLINE = 30 * 60.0


class _DispatchRequest(NamedTuple):
    role: AgentRole
    sandbox: Sandbox
    briefing: str
    workflow: WorkflowType
    deadline: float = DEFAULT_DEADLINE
    attempt: int = 1


class DispatchRequest(_DispatchRequest):
    """Everything a backend needs for one dispatch."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DispatchRequest:
        self = super().__new__(cls, *args, **kwargs)
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")
        if self.attempt < 1:
            raise ValueError("attempt numbering starts at 1")
        return self


class BackendKind(str, Enum):
    SCRIPTED = "scripted"
    SUBPROCESS = "subprocess"


class AgentBackend(ABC):
    kind: BackendKind

    @abstractmethod
    def execute(self, req: DispatchRequest, log_path: Path | None = None) -> AgentOutcome: ...

    def kill_running(self) -> None:
        """End every process of a dispatch still running; the engine calls
        this when it is interrupted while it waits for a batch."""


# --- scripted scenarios ----------------------------------------------------


class ReadStep(NamedTuple):
    path: str


class WriteStep(NamedTuple):
    path: str
    content: str


class SignalStep(NamedTuple):
    kind: SignalKind
    payload: str


class CompleteStep(NamedTuple):
    pass


Step = ReadStep | WriteStep | SignalStep | CompleteStep


class ScenarioScript(NamedTuple):
    """A parsed scenario: one round of steps per dispatch attempt (the last
    round repeats if an agent is dispatched more times than rounds)."""

    rounds: tuple[tuple[Step, ...], ...]

    def round_for_attempt(self, attempt: int) -> tuple[Step, ...]:
        return self.rounds[min(attempt, len(self.rounds)) - 1]


def _check_script_path(path: str, lineno: int) -> str:
    p = Path(path)
    if p.is_absolute() or ".." in p.parts:
        raise BarrierError(f"line {lineno}: step path escapes the sandbox: {path!r}")
    return path


def parse_scenario(text: str) -> ScenarioScript:
    """Parse the line-oriented scenario format.

    Directives: ``read <path>``, ``write <path> <<EOF`` (heredoc body
    until a line ``EOF``), ``signal <KIND> "payload"`` or
    ``signal <KIND> <<EOF``, ``complete``, and ``---`` separating rounds.
    Each round must end with ``signal`` or ``complete``.
    """
    rounds: list[list[Step]] = [[]]
    lines = text.splitlines()
    i = 0

    def heredoc(start: int) -> tuple[str, int]:
        body = []
        j = start
        while j < len(lines):
            if lines[j].strip() == "EOF":
                return "\n".join(body) + ("\n" if body else ""), j + 1
            body.append(lines[j])
            j += 1
        raise ScenarioError(f"line {start}: heredoc not terminated with EOF")

    def terminated(steps: list[Step]) -> bool:
        return bool(steps) and isinstance(steps[-1], (SignalStep, CompleteStep))

    while i < len(lines):
        raw = lines[i]
        lineno = i + 1
        i += 1
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped == "---":
            if not terminated(rounds[-1]):
                raise ScenarioError(f"line {lineno}: round ends without signal or complete")
            rounds.append([])
            continue
        if terminated(rounds[-1]):
            raise ScenarioError(f"line {lineno}: step after the round already ended")
        if stripped == "complete":
            rounds[-1].append(CompleteStep())
            continue
        if stripped.startswith("read "):
            rounds[-1].append(ReadStep(_check_script_path(stripped[len("read "):].strip(), lineno)))
            continue
        if stripped.startswith("write "):
            rest = stripped[len("write "):].strip()
            if not rest.endswith("<<EOF"):
                raise ScenarioError(f"line {lineno}: write requires a <<EOF heredoc")
            path = _check_script_path(rest[: -len("<<EOF")].strip(), lineno)
            content, i = heredoc(i)
            rounds[-1].append(WriteStep(path, content))
            continue
        if stripped.startswith("signal "):
            rest = stripped[len("signal "):].strip()
            parts = rest.split(None, 1)
            try:
                kind = SignalKind(parts[0])
            except ValueError:
                raise ScenarioError(f"line {lineno}: unknown signal kind {parts[0]!r}") from None
            if len(parts) == 1:
                payload = ""
            elif parts[1].strip() == "<<EOF":
                payload, i = heredoc(i)
            else:
                try:
                    tokens = shlex.split(parts[1])
                except ValueError as exc:
                    raise ScenarioError(f"line {lineno}: bad signal payload: {exc}") from None
                if len(tokens) != 1:
                    raise ScenarioError(f"line {lineno}: signal payload must be one quoted string")
                payload = tokens[0]
            rounds[-1].append(SignalStep(kind, payload))
            continue
        raise ScenarioError(f"line {lineno}: unknown directive: {stripped!r}")

    if not terminated(rounds[-1]):
        raise ScenarioError("scenario ends without signal or complete")
    return ScenarioScript(rounds=tuple(tuple(r) for r in rounds))


def run_scripted(script: ScenarioScript, req: DispatchRequest) -> AgentOutcome:
    """Replay one scenario round: byte-identical for identical inputs."""
    signal: Signal | None = None
    for step in script.round_for_attempt(req.attempt):
        if isinstance(step, ReadStep):
            req.sandbox.request_read(step.path)
        elif isinstance(step, WriteStep):
            req.sandbox.write_file(step.path, step.content)
        elif isinstance(step, SignalStep):
            signal = Signal(kind=step.kind, raiser=req.role, payload=step.payload)
        else:  # CompleteStep
            break
    if signal is not None:
        return AgentOutcome(status=OutcomeStatus.SIGNALED, signal=signal)
    return AgentOutcome(status=OutcomeStatus.COMPLETED)


class ScriptedBackend(AgentBackend):
    """Deterministic backend replaying a scenario file."""

    kind = BackendKind.SCRIPTED

    def __init__(self, script: ScenarioScript) -> None:
        self.script = script

    @classmethod
    def from_text(cls, text: str) -> "ScriptedBackend":
        return cls(parse_scenario(text))

    @classmethod
    def from_file(cls, path: Path) -> "ScriptedBackend":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))

    def execute(self, req: DispatchRequest, log_path: Path | None = None) -> AgentOutcome:
        outcome = run_scripted(self.script, req)
        if log_path is not None:
            steps = self.script.round_for_attempt(req.attempt)
            transcript = "\n".join(type(s).__name__ for s in steps)
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"[attempt {req.attempt}] scripted replay\n{transcript}\n")
        return outcome


class SubprocessBackend(AgentBackend):
    """Runs an external program: briefing on stdin, sandbox as working
    directory. The program reports its outcome as a final stdout line
    ``OUTCOME: COMPLETED`` or ``OUTCOME: SIGNAL <KIND> <payload-file>``.

    The program runs in a session of its own, and its process group is
    killed when the dispatch returns, fails or times out, so nothing it
    started in that group outlives the dispatch.
    """

    kind = BackendKind.SUBPROCESS

    def __init__(self, command: list[str]) -> None:
        if not command:
            raise MisconfigurationError("subprocess backend requires a command")
        self.command = list(command)
        self._running: set[int] = set()  # process groups of dispatches in flight
        self._lock = threading.Lock()

    def kill_running(self) -> None:
        with self._lock:
            for group in self._running:
                _kill_group(group)

    def execute(self, req: DispatchRequest, log_path: Path | None = None) -> AgentOutcome:
        with subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=req.sandbox.path,
            text=True,
            errors="replace",
            start_new_session=True,
        ) as proc:
            with self._lock:
                self._running.add(proc.pid)
            timed_out = False
            try:
                stdout, stderr = proc.communicate(req.briefing, timeout=req.deadline)
            except subprocess.TimeoutExpired as exc:  # holds what was read by then, as bytes
                timed_out = True
                stdout, stderr = ((data or b"").decode(errors="replace") for data in (exc.stdout, exc.stderr))
            finally:
                # the group's id is the program's pid, which the kernel
                # reuses for no other process while the group has one left
                with self._lock:
                    self._running.discard(proc.pid)
                    _kill_group(proc.pid)
        captured = stdout + stderr
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(f"[attempt {req.attempt}] {shlex.join(self.command)}\n{captured}\n")
        if timed_out:
            raise DispatchTimeout(
                f"{req.role.value} backend exceeded {req.deadline}s deadline", captured=captured
            )
        if proc.returncode != 0:
            raise DispatchError(
                f"{req.role.value} backend exited with {proc.returncode}", captured=captured
            )
        outcome_line = next(
            (line for line in reversed(stdout.splitlines()) if line.startswith("OUTCOME:")),
            None,
        )
        if outcome_line is None:
            raise DispatchError(
                f"{req.role.value} backend reported no OUTCOME line", captured=captured
            )
        fields = outcome_line[len("OUTCOME:"):].split()
        if fields == ["COMPLETED"]:
            return AgentOutcome(status=OutcomeStatus.COMPLETED)
        if len(fields) == 3 and fields[0] == "SIGNAL":
            try:
                sig_kind = SignalKind(fields[1])
            except ValueError:
                raise DispatchError(
                    f"unknown signal kind in outcome line: {fields[1]!r}", captured=captured
                ) from None
            payload_file = req.sandbox.resolve(fields[2])
            if not payload_file.is_file():
                raise DispatchError(f"signal payload file not found: {fields[2]!r}", captured=captured)
            payload = payload_file.read_text(encoding="utf-8")
            return AgentOutcome(
                status=OutcomeStatus.SIGNALED,
                signal=Signal(kind=sig_kind, raiser=req.role, payload=payload),
            )
        raise DispatchError(f"malformed outcome line: {outcome_line!r}", captured=captured)


def _kill_group(group: int) -> None:
    try:
        os.killpg(group, SIGKILL)
    except ProcessLookupError:  # every process of the group has exited
        pass


def dispatch(req: DispatchRequest, backend: AgentBackend, log_path: Path | None = None) -> AgentOutcome:
    """Run one dispatch and enforce the outcome contract.

    A COMPLETED outcome missing any contracted artifact is a contract
    violation, not a success; otherwise its ``produced`` is exactly the
    contracted set. A SIGNALED outcome with the wrong owner is a protocol
    violation. Backend crashes surface as dispatch failures with captured
    output.
    """
    try:
        outcome = backend.execute(req, log_path=log_path)
    except (DispatchError, ProtocolError, ContractError):
        raise
    except Exception as exc:  # backend crash
        raise DispatchError(f"{req.role.value} backend crashed: {exc}", captured=repr(exc)) from exc

    if outcome.status is OutcomeStatus.SIGNALED:
        assert outcome.signal is not None
        if not signal_owner_check(outcome.signal):
            raise ProtocolError(
                f"{outcome.signal.raiser.value} may not raise {outcome.signal.kind.value}"
            )
        return outcome

    owed = contracted_artifacts(req.role, req.workflow)
    missing = sorted(
        kind.filename for kind in owed if find_artifact(req.sandbox.path, kind) is None
    )
    if missing:
        raise ContractError(
            f"{req.role.value} reported COMPLETED without contracted artifact(s): {missing}"
        )
    return outcome._replace(produced=frozenset(owed))


def load_backends(config_path: Path) -> dict[AgentRole, AgentBackend]:
    """Load a role→backend map from a JSON config file.

    Schema: ``{"backends": {"<role>": {"kind": "scripted", "script":
    "<path>"} | {"kind": "subprocess", "command": ["<program>",
    "<argument>", ...]}}}``. Relative script paths resolve against the
    config file's directory. Anything else is a MisconfigurationError
    naming the file, and the role whose entry it is.
    """
    config_path = Path(config_path)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise MisconfigurationError(f"cannot load backend config {config_path}: {exc}") from exc
    entries = raw.get("backends") if isinstance(raw, dict) else None
    if not isinstance(entries, dict):
        raise MisconfigurationError(f"{config_path}: top-level 'backends' object required")
    backends: dict[AgentRole, AgentBackend] = {}
    for role_name, spec in entries.items():
        try:
            role = AgentRole(role_name)
        except ValueError:
            raise MisconfigurationError(f"{config_path}: unknown role {role_name!r}") from None
        spec = spec if isinstance(spec, dict) else {}
        kind, script, argv = spec.get("kind"), spec.get("script"), spec.get("command")
        if not (isinstance(argv, list) and all(isinstance(arg, str) for arg in argv)):
            argv = []
        if kind == BackendKind.SCRIPTED.value and isinstance(script, str):
            try:  # a relative script path is the config file's neighbour
                backends[role] = ScriptedBackend.from_file(config_path.parent / script)
            except (OSError, ValueError) as exc:
                raise MisconfigurationError(f"{config_path}: {role_name} script: {exc}") from None
        elif kind == BackendKind.SUBPROCESS.value and argv:
            backends[role] = SubprocessBackend(argv)
        else:
            raise MisconfigurationError(
                f"{config_path}: the {role_name} entry must be {{'kind': 'scripted', 'script': <path>}}"
                " or {'kind': 'subprocess', 'command': <non-empty list of strings>}"
            )
    return backends
