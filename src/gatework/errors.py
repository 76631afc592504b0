"""Typed errors shared across the engine.

Gate failures are deliberately NOT exceptions: precondition checks and
advance attempts return result values so the leader can report missing
artifacts verbatim. Exceptions here mark protocol breaches, configuration
problems, and environment failures.
"""

from __future__ import annotations


class GateworkError(Exception):
    """Base class for all engine errors."""


class ProtocolError(GateworkError):
    """A signal violated ownership or structure rules."""


class BarrierError(GateworkError):
    """An information-barrier rule was violated (path escape, non-granted
    materialization, or an isolation breach)."""


class ContractError(GateworkError):
    """An agent claimed completion without delivering its contracted
    artifacts."""


class ScenarioError(GateworkError):
    """A scripted scenario file could not be parsed or is inconsistent."""


class MisconfigurationError(GateworkError):
    """The engine was asked something impossible for the configured
    workflow or profile."""


class RunDirectoryError(GateworkError):
    """The run directory is missing or unreadable. Distinct from "artifact
    missing", which is an ordinary gate result."""


class TerminalStateError(GateworkError):
    """Attempted to advance a run that is already in DONE."""


class DispatchError(GateworkError):
    """An agent backend failed. What a subprocess backend printed is in
    its role's log."""


class DispatchTimeout(DispatchError):
    """The backend exceeded its deadline."""


class EnvironmentFailure(GateworkError):
    """Git, worktree, or filesystem environment problem."""


class WorkspaceError(GateworkError):
    """Workspace sync precondition or layout failure."""


class VerdictError(GateworkError):
    """review.md lacks a parseable verdict header."""


class AuditIncompleteness(GateworkError):
    """A dispatched agent has no access log; the isolation audit cannot
    be completed and is treated as failed."""

    def __init__(self, roles: list[str]) -> None:
        super().__init__(f"no access log for dispatched agent(s): {', '.join(roles)}")


class HoldUnanswered(GateworkError):
    """A user-input question could not be answered; escalate to the user."""

    def __init__(self, question: str) -> None:
        super().__init__(f"unanswered question for user: {question}")
        self.question = question
