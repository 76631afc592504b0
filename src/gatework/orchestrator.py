"""The leader: compiles a workflow into a dispatch plan, executes its
stages with parallel dispatch, routes interrupt signals, runs the
mechanical half of the review, and gates shipping on the verdict plus
explicit user authorization.

The leader never performs specialist work: it writes only run-directory
bookkeeping, and git mutations happen solely on the ship path.
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
import threading
import time
from collections import deque
from datetime import timedelta
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from gatework.barrier import (
    WORKTREE_ROLES,
    Sandbox,
    audit_isolation,
    create_plain_sandbox,
    create_sandbox,
    merge_access_logs,
    worktree_slot,
)
from gatework.clock import Clock, TickClock, parse_iso8601
from gatework.errors import (
    AuditIncompleteness,
    EnvironmentFailure,
    GateworkError,
    HoldUnanswered,
    MisconfigurationError,
    ProtocolError,
    VerdictError,
)
from gatework.gitlayer import GitResult, SubprocessGit, is_linked_worktree
from gatework.model import (
    CONTRACT_GATES,
    STATE_CHAIN,
    WORKFLOW_CATALOG,
    AccessEvent,
    AgentOutcome,
    AgentRole,
    ArtifactKind,
    IssueDescriptor,
    Signal,
    SignalKind,
    WorkflowState,
    WorkflowType,
    block_pipeline_target,
    contracted_artifacts,
    state_order,
    stop_routing_target,
    terminal_state,
    workflow_by_id,
)
from gatework.rundir import RunDirectory, find_artifact
from gatework.runtime import AgentBackend, BackendKind, DispatchRequest, dispatch
from gatework.statemachine import (
    RunState,
    SignalDisposition,
    advance,
    reconstruct_run_state,
    record_dispatches,
    record_event,
    record_signal,
    status_line,
    write_status,
)
from gatework.workspace import (
    PROFILES,
    UNKNOWN_PROFILE,
    Language,
    LanguageProfile,
    WorkspaceLayout,
    detect_language,
    sync_workspace,
    write_context,
)


# --- user channel -----------------------------------------------------------


class ChannelMode(str, Enum):
    INTERACTIVE = "INTERACTIVE"
    SCRIPTED_ANSWERS = "SCRIPTED_ANSWERS"


class UserChannel:
    """The single conduit between the leader and the user.

    Only leader code holds a reference to it; questions are strictly one
    at a time. An unanswered question returns None, and the run halts
    with the question pending in its journal, to be answered later.
    """

    def __init__(
        self,
        mode: ChannelMode = ChannelMode.INTERACTIVE,
        answers: Iterable[str] = (),
        output_fn: Callable[[str], None] = print,
    ) -> None:
        self.mode = mode
        self.answers: deque[str] = deque(answers)
        self.output_fn = output_fn

    def ask(self, question: str) -> str | None:
        if self.mode is ChannelMode.SCRIPTED_ANSWERS:
            return self.answers.popleft() if self.answers else None
        self.output_fn(f"[user input needed] {question}")
        try:
            answer = input("> ")
        except EOFError:
            return None
        return answer if answer.strip() else None


# --- dispatch plan ----------------------------------------------------------


class Stage(NamedTuple):
    """One batch of parallel roles. ``gate`` is the state the run must
    reach once the stage completes, and may not pass before the next
    stage runs: the last state no role of a later stage owes artifacts to."""

    index: int
    roles: tuple[AgentRole, ...]
    gate: WorkflowState


class DispatchPlan(NamedTuple):
    """The stages in order; ``entry`` is the state the leader's own
    artifacts reach before the first dispatch."""

    workflow: WorkflowType
    stages: tuple[Stage, ...]
    entry: WorkflowState

    def stage_index_of(self, role: AgentRole) -> int:
        for stage in self.stages:
            if role in stage.roles:
                return stage.index
        raise MisconfigurationError(f"{role.value} is not dispatched by workflow {self.workflow.id}")


def compile_plan(workflow: WorkflowType) -> DispatchPlan:
    if not workflow.dag or any(not stage for stage in workflow.dag):
        raise MisconfigurationError(f"workflow {workflow.id} has an empty dag or stage")

    def gate_before(index: int) -> WorkflowState:
        # the last state no role of stage ``index`` or later owes artifacts to
        pending = [CONTRACT_GATES[role][0] for stage in workflow.dag[index:] for role in stage]
        if not pending:
            return terminal_state(workflow)
        return STATE_CHAIN[min(state.index for state in pending) - 1]

    stages = tuple(
        Stage(index=index, roles=tuple(roles), gate=gate_before(index + 1))
        for index, roles in enumerate(workflow.dag)
    )
    return DispatchPlan(workflow=workflow, stages=stages, entry=gate_before(0))


# --- workflow selection -----------------------------------------------------

_SELECTION_RULES: tuple[tuple[re.Pattern[str], int, int], ...] = (
    (re.compile(r"\bissue\s*#\d+|\bsingle issue\b|\bfix (the )?issue\b", re.I), 5, 3),
    (re.compile(r"\b(scan|patrol|triage)\b.{0,40}\bissues\b|\bissue patrol\b", re.I), 4, 3),
    (re.compile(r"\b(nightly|hourly|weekly|recurring|scheduled?)\b|\bevery (night|day|hour|week)\b", re.I), 8, 3),
    (re.compile(r"\bmonte carlo\b|\bsimulation stud(y|ies)\b|\bsimulat(e|ion|ions)\b|\bdgp\b", re.I), 10, 3),
    (re.compile(r"\bcode review\b|\breview\b.{0,30}\b(code|pull request|pr)\b", re.I), 7, 3),
    (re.compile(r"\bvalidate\b|\bvalidation\b|\b(run|rerun|check) (the )?tests?\b", re.I), 6, 2),
    (re.compile(r"\breadme\b|\bvignettes?\b|\bdocs\b|\bdocumentation\b|\bmanual\b|\btutorial\b|\bchangelog\b", re.I), 3, 2),
    (re.compile(r"\btypo\b|\bone-?lin(e|er)\b|\btrivial\b|\btiny\b", re.I), 9, 3),
    (re.compile(r"\bfix(es|ing)?\b|\bbug\b|\bfailing\b|\bbroken\b|\brepair\b", re.I), 2, 2),
    (re.compile(r"\badd(ing)?\b|\bimplement\b|\bbuild\b|\bcreate\b|\btranslate\b|\bport\b", re.I), 2, 1),
    (re.compile(r"\bfeature\b|\bpackage\b|\bship\b", re.I), 2, 1),
)

#: Minimum top score, and required lead over the runner-up, to select
#: without asking the user.
_MIN_CONFIDENT_SCORE = 2
_MIN_LEAD = 1


def classify_directive(directive: str) -> list[tuple[int, int]]:
    """Score every workflow id for a directive; descending (score, id)."""
    scores: dict[int, int] = {}
    for pattern, workflow_id, weight in _SELECTION_RULES:
        if pattern.search(directive):
            scores[workflow_id] = scores.get(workflow_id, 0) + weight
    # A directive asking for both a code change and a simulation study is
    # the full-workflow pattern and outranks either alone.
    if scores.get(2, 0) and scores.get(10, 0):
        scores[1] = scores[2] + scores[10] + 1
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [(workflow_id, score) for workflow_id, score in ranked]


def select_workflow(
    directive: str, override: int | None = None, *, channel: UserChannel | None = None
) -> WorkflowType:
    """Resolve a directive to a workflow type.

    A manual override always wins. Otherwise the rule-based classifier
    picks the top-scoring type; below the confidence margin the leader
    asks the user, naming the top two candidates.
    """
    if override is not None:
        try:
            return workflow_by_id(override)
        except ValueError as exc:
            raise MisconfigurationError(str(exc)) from None
    if not directive.strip():
        raise MisconfigurationError("workflow selection needs a directive or an override")
    ranked = classify_directive(directive)
    top = ranked[0][1] if ranked else 0
    runner_up = ranked[1][1] if len(ranked) > 1 else 0
    if ranked and top >= _MIN_CONFIDENT_SCORE and top - runner_up >= _MIN_LEAD:
        return workflow_by_id(ranked[0][0])
    candidates = [workflow_by_id(workflow_id) for workflow_id, _ in ranked[:2]]
    if not candidates:
        candidates = [workflow_by_id(2), workflow_by_id(3)]
    names = ", ".join(f"{wf.id} ({wf.name})" for wf in candidates)
    question = f"Workflow selection is ambiguous. Reply with a workflow id. Top candidates: {names}"
    if channel is not None:
        answer = channel.ask(question)
        if answer is not None:
            try:
                return workflow_by_id(int(answer.strip()))
            except (ValueError, MisconfigurationError):
                pass
    raise HoldUnanswered(question)


# --- signal routing ---------------------------------------------------------


def route_signal(s: Signal, plan: DispatchPlan) -> dict:
    """The routing a signal's journal record carries: the ``phases`` of
    roles to re-dispatch in turn, or for a STOP the stage index to
    ``rewind`` to (every stage at or after it re-runs). A HOLD re-dispatches
    its raiser once the user has answered its payload."""
    if s.kind is SignalKind.HOLD:
        return {"phases": [[s.raiser.value]]}
    if s.kind is SignalKind.BLOCK:
        target = block_pipeline_target(s)
        if target not in plan.workflow.roles():
            target = AgentRole.BUILDER
        phases = [[target.value]] if target in plan.workflow.roles() else []
        return {"phases": [*phases, [AgentRole.TESTER.value]]}
    target = stop_routing_target(s)
    if target is None:
        raise ProtocolError(
            "STOP payload must name a routing target via a 'target:' line "
            "(planner, builder, simulator, or scriber)"
        )
    if target not in plan.workflow.roles():
        raise ProtocolError(
            f"STOP routed to {target.value}, which workflow {plan.workflow.id} does not dispatch"
        )
    return {"rewind": plan.stage_index_of(target)}


# --- mechanical review ------------------------------------------------------

_TOLERANCE_RE = re.compile(r"\b\d+(?:\.\d+)?[eE][-+]?\d+\b")
_TABLE_ROW_RE = re.compile(r"^\s*\|.+\|\s*$", re.M)


def extract_tolerances(text: str) -> list[tuple[str, float]]:
    """Tolerance tokens (e-notation literals) with their numeric values."""
    return [(token, float(token)) for token in _TOLERANCE_RE.findall(text)]


class CheckStatus(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_OBSERVED = "not observed"  # the engine did not make the check


class MechanicalCheck(NamedTuple):
    name: str
    status: CheckStatus
    detail: str = ""


class MechanicalReviewReport(NamedTuple):
    checks: tuple[MechanicalCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.status is not CheckStatus.FAIL for check in self.checks)

    def failures(self) -> tuple[MechanicalCheck, ...]:
        return tuple(check for check in self.checks if check.status is CheckStatus.FAIL)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "status": c.status.value, "detail": c.detail}
                for c in self.checks
            ],
        }


def mechanical_review(
    run_dir: RunDirectory,
    logs: Mapping[AgentRole, Sequence[AccessEvent]],
    plan: DispatchPlan,
    unseen_reads: frozenset[AgentRole] = frozenset(),
) -> MechanicalReviewReport:
    """The mechanically checkable subset of the reviewer's checks.

    Artifact presence, pipeline isolation, tolerance integrity, and
    validation-evidence completeness run here; the last two only in a
    workflow with a tester. A check the engine did not make reads ``not
    observed``: the semantic checks it delegates to the reviewer backend,
    tolerance integrity with no test specification, and pipeline isolation
    with no violation seen when a role in ``unseen_reads`` ran where the
    engine sees none of its reads. The engine refuses a PASS verdict when
    any mechanical check fails.
    """
    run_dir.check_readable()
    checks: list[MechanicalCheck] = []
    roles = plan.workflow.roles() - {AgentRole.SHIPPER}

    present = run_dir.present()
    missing: list[str] = []
    for role in sorted(roles, key=lambda r: r.value):
        for kind in sorted(contracted_artifacts(role, plan.workflow), key=lambda k: k.filename):
            if kind not in present:
                missing.append(f"{kind.filename} ({role.value})")
    checks.append(
        MechanicalCheck(
            name="artifact-presence",
            status=CheckStatus.FAIL if missing else CheckStatus.PASS,
            detail="missing: " + ", ".join(missing) if missing else "all contracted artifacts present",
        )
    )

    unseen = sorted(role.value for role in unseen_reads & roles)
    try:
        isolation = audit_isolation(logs, dispatched=frozenset(roles))
        if not isolation.clean:
            listed = "; ".join(
                f"{role.value} touched {kind.filename}" for role, kind, _ in isolation.violations
            )
            checks.append(MechanicalCheck("pipeline-isolation", CheckStatus.FAIL, listed))
        elif unseen:
            detail = "reads of subprocess role(s) not seen: " + ", ".join(unseen)
            checks.append(MechanicalCheck("pipeline-isolation", CheckStatus.NOT_OBSERVED, detail))
        else:
            checks.append(
                MechanicalCheck("pipeline-isolation", CheckStatus.PASS, "no cross-barrier access")
            )
    except AuditIncompleteness as exc:
        checks.append(MechanicalCheck("pipeline-isolation", CheckStatus.FAIL, str(exc)))

    for name in ("spec-cross-comparison", "output-convergence", "coverage-of-changes"):
        checks.append(MechanicalCheck(name, CheckStatus.NOT_OBSERVED, "delegated to reviewer backend"))

    if AgentRole.TESTER in roles:
        checks += _validation_checks(run_dir, present)
    return MechanicalReviewReport(checks=tuple(checks))


def _validation_checks(run_dir: RunDirectory, present: frozenset[ArtifactKind]) -> list[MechanicalCheck]:
    """``tolerance-integrity`` and ``evidence-completeness`` of the tester's ``audit.md``."""
    if ArtifactKind.AUDIT not in present:
        return [
            MechanicalCheck(name, CheckStatus.FAIL, "audit.md missing")
            for name in ("tolerance-integrity", "evidence-completeness")
        ]
    audit_text = run_dir.read(ArtifactKind.AUDIT)
    if ArtifactKind.TEST_SPEC in present:
        spec_tokens = extract_tolerances(run_dir.read(ArtifactKind.TEST_SPEC))
        spec_literals = {token for token, _ in spec_tokens}
        strictest = min((value for _, value in spec_tokens), default=None)
        flagged = sorted(
            {
                token
                for token, value in extract_tolerances(audit_text)
                if token not in spec_literals and strictest is not None and value > strictest
            }
        )
        tolerance = MechanicalCheck(
            name="tolerance-integrity",
            status=CheckStatus.FAIL if flagged else CheckStatus.PASS,
            detail="inflated tolerance(s): " + ", ".join(flagged) if flagged else "no inflation detected",
        )
    else:
        tolerance = MechanicalCheck(
            "tolerance-integrity", CheckStatus.NOT_OBSERVED, "no test specification to compare against"
        )
    has_table = len(_TABLE_ROW_RE.findall(audit_text)) >= 2
    evidence = MechanicalCheck(
        name="evidence-completeness",
        status=CheckStatus.PASS if has_table else CheckStatus.FAIL,
        detail="result table found" if has_table else "audit.md has no result table",
    )
    return [tolerance, evidence]


# --- run report -------------------------------------------------------------


class RunReport(NamedTuple):
    """What ``report.json`` and ``report`` say of a run: built by
    :func:`build_report` alone, from the journal's fold and the artifacts
    the run directory holds."""

    request_id: str
    workflow_id: int
    workflow_name: str
    directive: str
    final_state: str
    visited_states: list[str]
    history: list[str]
    retries: dict[str, int]
    signals: list[dict]
    dispatch_counts: dict[str, int]
    artifacts: list[str]
    diagnostics: dict[str, str]
    gate_violation: str | None
    escalation: str | None
    pending: str | None
    mechanical: dict | None
    ship: dict | None
    language: str | None  # the resolved language profile

    @property
    def exit_code(self) -> int:
        if self.gate_violation:
            return 2
        if self.escalation:
            return 3
        if self.diagnostics:
            return 4
        return 0

    def to_dict(self) -> dict:
        return {**self._asdict(), "exit_code": self.exit_code}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [
            f"run {self.request_id}: workflow {self.workflow_id} ({self.workflow_name})",
            f"final state: {self.final_state}",
            "visited: " + " -> ".join(self.visited_states),
            "retries: " + ", ".join(f"{k}={v}" for k, v in sorted(self.retries.items())),
            "dispatches: "
            + (
                ", ".join(f"{k}x{v}" for k, v in sorted(self.dispatch_counts.items()))
                or "(none)"
            ),
            "artifacts: " + (", ".join(self.artifacts) or "(none)"),
        ]
        halt = (("gate violation", self.gate_violation), ("escalated to user", self.escalation),
                ("pending", self.pending))
        lines += [f"{label}: {value}" for label, value in halt if value]
        lines += [f"diagnostic [{role}]: {note}" for role, note in sorted(self.diagnostics.items())]
        unobserved = [
            f"{check['name']} ({check['detail']})"
            for check in (self.mechanical or {}).get("checks", ())
            if check["status"] == CheckStatus.NOT_OBSERVED.value
        ]
        if unobserved:
            lines.append("not observed: " + "; ".join(unobserved))
        if self.ship:
            lines.append(f"ship: {json.dumps(self.ship, sort_keys=True)}")
        return "\n".join(lines) + "\n"


def build_report(run: RunState, run_dir: RunDirectory, request_id: str, directive: str) -> RunReport:
    """The run's report: its journal as ``run`` folds it, where the last
    ``halt`` record, if last, says why the session ended and the latest
    ``review`` and ``ship`` records give ``mechanical`` and ``ship``; plus
    the artifacts ``run_dir`` holds, which no record lists."""
    halt = run.halt or {}
    return RunReport(
        request_id=request_id,
        workflow_id=run.workflow.id,
        workflow_name=run.workflow.name,
        directive=directive,
        final_state=run.current.value,
        visited_states=[s.value for s in run.visited_states()],
        history=[status_line(entry) for entry in run.history],
        retries={k.value: v for k, v in run.retries.items()},
        signals=[
            {key: entry[key] for key in ("kind", "raiser", "payload")}
            for entry in run.history if entry["event"] == "signal"
        ],
        dispatch_counts={r.value: n for r, n in run.dispatches.items()},
        artifacts=sorted(k.filename for k in run_dir.present()),
        diagnostics=halt.get("diagnostics", {}),
        gate_violation=halt.get("gate_violation"),
        escalation=halt.get("escalation"),
        pending=halt.get("pending"),
        mechanical=run.review,
        ship=run.ship,
        language=run.language,
    )


# --- run bootstrap ----------------------------------------------------------


def check_single_run(workflow: WorkflowType) -> None:
    """Refuse a wrapper entry (workflows 4 and 8), which is not one run."""
    if workflow.inner_id is not None:
        inner = workflow_by_id(workflow.inner_id)
        raise MisconfigurationError(
            f"workflow {workflow.id} ({workflow.name}) wraps workflow {inner.id} ({inner.name}) "
            f"and is not one run: run workflow {inner.id}, or drive the wrapper from Python "
            "with gatework.run_issue_patrol / gatework.run_scheduled_loop"
        )


def start_run(
    *,
    runs_root: Path,
    target_repo: Path,
    directive: str,
    workflow: WorkflowType,
    git: SubprocessGit,
    clock: Clock,
    request_id: str | None = None,
) -> tuple[RunDirectory, str]:
    """Create the run directory and write the leader's artifacts;
    ``credentials.md`` only when ``target_repo`` is a git repository, so a
    run on anything else stops at the NEW gate before any dispatch.

    The request id is ``request_id`` or the clock's time to the second;
    when a directory of that name exists, the next free ``-2``, ``-3``
    suffix is taken, so no run ever continues another."""
    check_single_run(workflow)
    target_repo = Path(target_repo).resolve()
    if not target_repo.is_dir():
        raise EnvironmentFailure(f"target repository not resolvable: {target_repo}")
    # read even for a given id, so a replay under the recorded id sees
    # the same clock ticks as the recorded run
    stamp = "req-" + clock.now().strftime("%Y%m%d-%H%M%S")
    base = request_id or stamp
    runs_root = Path(runs_root)
    runs_root.mkdir(parents=True, exist_ok=True)
    for suffix in itertools.count(1):
        request_id = base if suffix == 1 else f"{base}-{suffix}"
        try:
            (runs_root / request_id).mkdir()
        except FileExistsError:
            continue
        break
    run_dir = RunDirectory(runs_root / request_id).create()

    run_dir.write(
        ArtifactKind.REQUEST,
        (
            f"# Request {request_id}\n\n"
            f"- directive: {directive}\n"
            f"- target repository: {target_repo.name}\n"
            f"- workflow: {workflow.id} ({workflow.name})\n"
        ),
    )
    roles = ", ".join(sorted(r.value for r in workflow.roles()))
    run_dir.write(
        ArtifactKind.IMPACT,
        (
            "# Impact\n\n"
            f"- required agents: {roles}\n"
            f"- ships: {'yes' if workflow.ships else 'no'}\n"
        ),
    )
    remote = git.remote_url(target_repo)
    if remote is not None:  # a repository, with or without an origin
        run_dir.write(
            ArtifactKind.CREDENTIALS,
            f"# Credentials\n\n- repository access: verified\n- remote: {remote or '(none)'}\n",
        )
    write_status(RunState(workflow=workflow), run_dir)
    return run_dir, request_id


# --- orchestrator -----------------------------------------------------------


class _Halt(Exception):
    """Ends the session, carrying the report fields the halt sets:
    ``diagnostics``, ``escalation``, ``pending`` or ``gate_violation``."""

    def __init__(self, **fields) -> None:
        super().__init__()
        self.fields = fields


def _outcome_name(result: tuple[AgentOutcome, dict | None] | GateworkError) -> str:
    """A dispatch's journaled outcome: completed, the signal kind, or failed."""
    if isinstance(result, GateworkError):
        return "failed"
    return result[0].signal.kind.value if result[0].signal else "completed"


class Orchestrator:
    """Owns the run's control loop; RunState changes only by journaling."""

    def __init__(
        self,
        *,
        run_dir: RunDirectory,
        request_id: str,
        workflow: WorkflowType,
        backends: Mapping[AgentRole, AgentBackend],
        channel: UserChannel,
        target_repo: Path,
        git: SubprocessGit,
        clock: Clock,
        workspace: WorkspaceLayout | None = None,
        directive: str = "",
    ) -> None:
        check_single_run(workflow)
        self.run_dir = run_dir
        self.request_id = request_id
        self.plan = compile_plan(workflow)
        self.backends = dict(backends)
        self.channel = channel
        self.target_repo = Path(target_repo).resolve()
        self.git = git
        self.clock = clock
        self.workspace = workspace
        self.directive = directive
        self.profile: LanguageProfile = UNKNOWN_PROFILE
        self.run_state = RunState(workflow=workflow)

    # -- helpers --

    @property
    def workflow(self) -> WorkflowType:
        return self.plan.workflow

    def _resolve_profile(self) -> None:
        """Take the language an earlier session resolved, or detect it and
        ask the user when detection finds none. The result is journaled,
        so a resumed session never asks again."""
        if self.run_state.language is not None:
            self.profile = PROFILES[Language(self.run_state.language)]
        else:
            try:
                self.profile = detect_language(self.target_repo)
            except FileNotFoundError as exc:
                raise _Halt(diagnostics={"environment": str(exc)}) from exc
            if self.profile.language is Language.UNKNOWN:
                answer = self.channel.ask(
                    "No language profile detected in the target repository. "
                    "Which language applies? (R, Python, TypeScript, Stata, Go, Rust, C, C++)"
                )
                by_name = {lang.value.lower(): lang for lang in Language}
                language = by_name.get((answer or "").strip().lower())
                if language is None or language is Language.UNKNOWN:
                    # the question stays pending; the escalation says why, and the
                    # journal keeps an answer that names no language
                    needed = "language profile needed for the target repository"
                    if answer is None:
                        raise _Halt(escalation=needed, pending=needed)
                    rejected = {"language": None, "answer": answer}
                    record_event(self.run_state, self.run_dir, "language", rejected)
                    raise _Halt(escalation=f"unrecognized language {answer!r}", pending=needed)
                self.profile = PROFILES[language]
            record_event(self.run_state, self.run_dir, "language", {"language": self.profile.language.value})
        if self.workspace is not None:
            write_context(
                self.workspace, target_repo=self.target_repo, git=self.git, profile=self.profile
            )

    def _briefing(self, role: AgentRole, sandbox: Sandbox) -> str:
        lines = [
            f"role: {role.value}",
            f"workflow: {self.workflow.id} ({self.workflow.name})",
            f"directive: {self.directive}",
            "granted artifacts: "
            + (", ".join(sorted(k.filename for k in sandbox.visible_artifacts)) or "(none)"),
        ]
        if self.profile.language is not Language.UNKNOWN:
            lines.append(f"language profile: {self.profile.language.value}")
            if role is AgentRole.TESTER:
                lines.append("validation commands: " + "; ".join(self.profile.validation))
            if role in (AgentRole.BUILDER, AgentRole.SCRIBER):
                lines.append(f"documentation convention: {self.profile.doc_convention}")
        lines += self.run_state.briefing.get(role, [])
        return "\n".join(lines) + "\n"

    def _sandbox_clock(self) -> Clock:
        # Parallel dispatches must not interleave on one tick clock, or
        # replay timestamps would depend on thread scheduling.
        if isinstance(self.clock, TickClock):
            return TickClock(start=self.clock.start, step_seconds=self.clock.step_seconds)
        return self.clock

    def _make_sandbox(self, role: AgentRole, attempt: int, slot: int | None) -> Sandbox:
        common = {"run_dir": self.run_dir, "clock": self._sandbox_clock(), "state": self.run_state.current}
        if slot is not None:
            return create_sandbox(
                role, self.target_repo, git=self.git, request_id=self.request_id,
                slot=slot, attempt=attempt, **common,
            )
        return create_plain_sandbox(role, **common)

    def _dispatch_role(
        self, role: AgentRole, attempt: int | None, slot: int | None, made: dict[AgentRole, Sandbox]
    ) -> tuple[AgentOutcome, dict | None]:
        """Dispatch one role, in worktree slot ``slot`` if it has one,
        and collect what it produced or route its signal. The sandbox
        enters ``made`` once it exists, so only a dispatch that ran is
        journaled, with its access events even if it failed."""
        if attempt is None:
            raise MisconfigurationError(f"no backend configured for {role.value}")
        sandbox = made[role] = self._make_sandbox(role, attempt, slot)
        req = DispatchRequest(
            role=role, sandbox=sandbox, briefing=self._briefing(role, sandbox),
            workflow=self.workflow, attempt=attempt,
        )
        log_path = self.run_dir.logs_dir / f"{role.value}.log"
        outcome = dispatch(req, self.backends[role], log_path=log_path)
        routing = route_signal(outcome.signal, self.plan) if outcome.signal else None
        for kind in sorted(outcome.produced, key=lambda k: k.filename):
            source = find_artifact(sandbox.path, kind)
            if source is not None:
                self.run_dir.write(kind, source.read_text(encoding="utf-8"))
        return outcome, routing

    def _dispatch_batch(self, roles: Sequence[AgentRole]) -> None:
        """Dispatch a batch concurrently, one thread per role, and go on
        only once every dispatch has finished. The i-th worktree role of
        the batch, in batch order, runs in worktree slot i. Each dispatch
        has one result, what ``_dispatch_role`` returned or raised: a
        ``GateworkError`` (an unroutable signal included) is a failed
        dispatch, and any other exception is raised once the batch has
        ended, the first in batch order, with nothing of the batch journaled.

        Only this thread journals: after the batch, in batch order, each
        attempt whose sandbox was made, with its outcome and access events,
        failed ones included; then each signal with its routing, which the
        journal's fold turns into owed work. Only then does a failed
        dispatch halt the session, recorded under the role's name, or else
        the first signal past its retry cap."""
        try:
            self.run_dir.sandboxes_dir  # found once, before any worker looks
        except EnvironmentFailure as exc:  # the scratch root was refused
            raise _Halt(diagnostics={"environment": str(exc)}) from exc
        slots = {role: i for i, role in enumerate(r for r in roles if r in WORKTREE_ROLES)}
        # fixed before any worker starts; a role's dispatch count is its attempt
        attempts = {r: self.run_state.dispatches.get(r, 0) + 1 for r in roles if r in self.backends}
        made: dict[AgentRole, Sandbox] = {}
        results: list = [None] * len(roles)

        def work(i: int, role: AgentRole) -> None:
            try:
                results[i] = self._dispatch_role(role, attempts.get(role), slots.get(role), made)
            except BaseException as exc:
                results[i] = exc

        workers = [threading.Thread(target=work, args=item) for item in enumerate(roles)]
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        except KeyboardInterrupt:
            # a subprocess agent runs in a session of its own, which the
            # terminal's interrupt does not reach; end it, then wait for
            # the workers that started
            for role in attempts:
                self.backends[role].kill_running()
            for worker in workers:
                if worker.is_alive():
                    worker.join()
            raise
        for res in results:
            if isinstance(res, BaseException) and not isinstance(res, GateworkError):
                raise res
        batch = [
            (r, _outcome_name(res), made[r].audit.events()) for r, res in zip(roles, results) if r in made
        ]
        record_dispatches(self.run_state, self.run_dir, batch)
        routed = [res for res in results if not isinstance(res, GateworkError) and res[1]]
        capped = [
            outcome.signal for outcome, routing in routed
            if record_signal(self.run_state, outcome.signal, self.run_dir, self.clock, routing)
            is SignalDisposition.ESCALATE_TO_USER
        ]
        failed = {r.value: str(res) for r, res in zip(roles, results) if isinstance(res, GateworkError)}
        if failed:
            raise _Halt(diagnostics=failed)
        if capped:
            kind, payload = capped[0].kind.value, capped[0].payload
            raise _Halt(escalation=f"{kind} retry cap reached; escalating to user: {payload}")

    def _reach(self, state: WorkflowState, label: str) -> None:
        """Advance to ``state`` and never past it, or halt with a gate
        violation naming the state where the run stopped and the gate it
        could not pass. Artifacts left by an earlier session must not carry
        a run past checks still due: the mechanical review, or ship (a
        ship that failed in git writes shipper.md)."""
        while state_order(self.run_state.current, state) < 0:
            result = advance(self.run_state, self.run_dir, self.clock)
            if not result.moved:
                missing = ", ".join(
                    f"{req.artifact.filename}:{req.predicate.value}" for req in result.gate.missing
                )
                raise _Halt(
                    gate_violation=f"{label}: run stopped at {result.state.value} short of "
                    f"{state.value}; {result.gate.state.value} gate unsatisfied ({missing})"
                )

    def _answer_holds(self) -> None:
        """Ask the user each HOLD question the journal leaves pending, in
        turn, and brief its raiser with the answer; an unanswered question
        halts the session."""
        for hold in list(self.run_state.pending_hold):
            question = hold["payload"]
            answer = self.channel.ask(question)
            if answer is None:
                escalation = f"unanswered question from {hold['raiser']}: {question}"
                raise _Halt(escalation=escalation, pending=question)
            record_event(self.run_state, self.run_dir, "answer", {"role": hold["raiser"], "text": answer})

    def _run_mechanical_review(self) -> None:
        # the engine sees a role's reads only through Sandbox.request_read,
        # which no subprocess backend calls
        unseen = frozenset(
            role for role in self.run_state.dispatches
            if role in self.backends and self.backends[role].kind is BackendKind.SUBPROCESS
        )
        report = mechanical_review(self.run_dir, self.run_state.access, self.plan, unseen)
        record_event(self.run_state, self.run_dir, "review", report.to_dict())
        if not report.passed:
            listed = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
            raise _Halt(gate_violation=f"mechanical review failed ({listed})")

    # -- main entry --

    def run(self, authorization: str | None = None) -> RunReport:
        """Run one session of the run and rewrite its report.

        A fresh run is a run directory with an empty journal, so every
        session starts the same way: it rebuilds the state from the
        journal (a tick clock continues after its last time), asks the
        HOLD questions an earlier session left unanswered, and dispatches
        only what the journal says is owed. Every way the session ends
        after the journal was read is one ``halt`` record holding the
        report fields it sets and a finalized run; an interrupt or a crash
        is a diagnostic naming it, and then goes on.
        """
        self.run_state = reconstruct_run_state(self.run_dir, self.workflow)
        if isinstance(self.clock, TickClock) and self.run_state.history:
            last = parse_iso8601(self.run_state.history[-1]["time"])
            step = self.clock.step_seconds
            self.clock = TickClock(start=last + timedelta(seconds=step), step_seconds=step)
        try:
            self._resolve_profile()
            self._answer_holds()
            self._run_stages(authorization)
        except _Halt as halt:
            record_event(self.run_state, self.run_dir, "halt", halt.fields)
        except BaseException as exc:
            # an interrupted or crashed batch is not journaled, but its
            # worktrees are unregistered and its sandboxes freed all the same
            record_event(self.run_state, self.run_dir, "halt", {"diagnostics": {"session": repr(exc)}})
            self._finalize()
            raise
        return self._finalize()

    def _run_stages(self, authorization: str | None) -> None:
        """The one stage loop. At a stage it dispatches one batch at a
        time, the first phase owed, else the stage's roles not done, and
        asks the batch's HOLD questions; then it goes to the first earlier
        stage with a role not done, as a routed STOP leaves one, or stays.
        With nothing left to dispatch it runs the review, where the
        reviewer ran, and reaches the stage's gate."""
        self._reach(self.plan.entry, "entry gate")
        run, stages = self.run_state, self.plan.stages
        index = 0
        while index < len(stages):
            stage = stages[index]
            if AgentRole.SHIPPER in stage.roles:
                if authorization is None and self.channel.mode is ChannelMode.INTERACTIVE:
                    answer = self.channel.ask("Authorize shipping? (yes/no)")
                    if answer is not None and answer.strip().lower() in ("y", "yes"):
                        authorization = "interactive-user-authorization"
                if authorization is None:
                    raise _Halt(
                        pending="awaiting explicit user authorization to ship (run the authorize command)"
                    )
                ship_report = ship(
                    self.run_dir,
                    authorization,
                    target_repo=self.target_repo,
                    git=self.git,
                    clock=self.clock,
                    workspace=self.workspace,
                    slug=self.request_id,
                    run_state=run,
                    dispatch_shipper=lambda: self._dispatch_batch((AgentRole.SHIPPER,)),
                )
                record_event(run, self.run_dir, "ship", ship_report.to_dict())
                if not ship_report.shipped:
                    raise _Halt(gate_violation=ship_report.refusal)
            elif batch := run.owed[0] if run.owed else tuple(r for r in stage.roles if r not in run.done):
                self._dispatch_batch(batch)
                self._answer_holds()
                index = next((s.index for s in stages[:index] if not run.done.issuperset(s.roles)), index)
                continue

            # a review from an earlier session is re-checked too, so no
            # resume ships a run whose mechanical review failed
            if AgentRole.REVIEWER in stage.roles:
                self._run_mechanical_review()

            self._reach(stage.gate, f"stage {index} complete")
            index += 1

    def _finalize(self) -> RunReport:
        report = build_report(self.run_state, self.run_dir, self.request_id, self.directive)
        if self.run_state.access:
            merge_access_logs(self.run_state.access, self.run_dir)
        self._remove_sandboxes()
        self.run_dir.report_json_path.write_text(report.to_json(), encoding="utf-8")
        self.run_dir.report_text_path.write_text(report.render_text(), encoding="utf-8")
        return report

    def _remove_sandboxes(self) -> None:
        """Sandboxes are disposable once artifacts and audit logs are
        collected. Each worktree slot is removed, which frees the role
        branches for a later session, and then the run's sandbox directory
        with whatever else agents left in it, so no checkout outlives its
        session in memory. A refused scratch root holds none."""
        try:
            sandboxes = self.run_dir.sandboxes_dir
        except EnvironmentFailure:
            return
        # a batch fills slots from 0, one per worktree role it holds
        for slot in range(len(self.workflow.roles() & WORKTREE_ROLES)):
            path = worktree_slot(sandboxes, slot)
            if not path.is_symlink() and is_linked_worktree(path):
                self.git.worktree_remove(self.target_repo, path)
        if sandboxes.exists():
            shutil.rmtree(sandboxes)


# --- shipping ---------------------------------------------------------------


class ShipReport(NamedTuple):
    refusal: str | None = None
    git_actions: tuple[GitResult, ...] = ()
    sync_detail: str = ""

    @property
    def shipped(self) -> bool:
        return self.refusal is None

    @property
    def partial(self) -> bool:
        """Refused after git ran, so some of the ship's actions were taken."""
        return not self.shipped and bool(self.git_actions)

    def to_dict(self) -> dict:
        return {
            "shipped": self.shipped,
            "refusal": self.refusal,
            "partial": self.partial,
            "git_actions": [
                {"action": r.action.value, "ok": r.ok, "detail": r.detail, "error": r.error_kind}
                for r in self.git_actions
            ],
            "sync": self.sync_detail,
        }


def _ship_refusal(run_dir: RunDirectory, authorization: str | None, run_state: RunState) -> str | None:
    """Why the ship gate refuses, or None once it clears: the run is
    ready, its verdict parses and passes, the user authorized shipping
    and the target's credentials were verified, in that dominance order."""
    if run_state.current is not WorkflowState.READY_TO_SHIP:
        return f"run is at {run_state.current.value}, not READY_TO_SHIP"
    try:
        verdict = run_dir.verdict()
    except VerdictError as exc:
        return f"no parseable review verdict: {exc}"
    if not verdict.passing:
        return f"review verdict is {verdict.value.value}; ship refused"
    if not authorization:
        return "explicit user authorization required before shipping"
    if not run_dir.exists(ArtifactKind.CREDENTIALS):
        return "credentials.md not present; ship refused"
    return None


def ship(
    run_dir: RunDirectory,
    authorization: str | None,
    *,
    target_repo: Path,
    git: SubprocessGit,
    clock: Clock,
    workspace: WorkspaceLayout | None = None,
    slug: str = "run",
    run_state: RunState,
    dispatch_shipper: Callable[[], None] | None = None,
) -> ShipReport:
    """The hard ship gate, which refuses before the shipper is dispatched
    or any git process starts, then the one ship path.

    ``dispatch_shipper`` (the orchestrator's dispatch of the shipper
    agent) drafts the report; then the target repo is staged, committed
    and pushed, and the workspace synced, each step only if the ones
    before it succeeded. shipper.md says how far it got; only a ship that
    succeeded advances the run to DONE.
    """
    refusal = _ship_refusal(run_dir, authorization, run_state)
    if refusal is not None:
        return ShipReport(refusal)

    # The shipper agent drafts its report, then the engine performs the git
    # actions on its behalf. This is the only path that mutates the repo.
    shipper_draft = ""
    if dispatch_shipper is not None:  # returns only once the shipper completed
        dispatch_shipper()
        shipper_draft = run_dir.read(ArtifactKind.SHIPPER)

    actions = git.stage_commit_push(target_repo, f"ship {slug}", [])
    if not actions[-1].ok:
        name = actions[-1].action.value.lower()
        refusal = f"{name} failed: {actions[-1].error_kind}"
        sync_detail = f"not attempted ({name} failed)"
    elif workspace is None:
        sync_detail = "no workspace configured"
    else:
        sync = sync_workspace(workspace, run_dir, git=git, clock=clock, slug=slug)
        sync_detail = sync.detail
        if not sync.ok:
            refusal = f"workspace sync failed: {sync.detail}"

    lines = ["# Shipper report", ""]
    if shipper_draft.strip():
        lines += [shipper_draft.strip(), ""]
    lines.append("## Git actions taken")
    for result in actions:
        status = "ok" if result.ok else f"FAILED ({result.error_kind})"
        lines.append(f"- {result.action.value}: {result.detail} [{status}]")
    lines += ["", "## Workspace sync", f"- {sync_detail}"]
    run_dir.write(ArtifactKind.SHIPPER, "\n".join(lines) + "\n")
    if refusal is None:
        advance(run_state, run_dir, clock)
    return ShipReport(refusal, tuple(actions), sync_detail)


# --- wrapper workflows ------------------------------------------------------


IssueSource = Callable[[], Sequence[IssueDescriptor]]


def run_issue_patrol(
    source: IssueSource, start: Callable[[IssueDescriptor], RunReport]
) -> list[RunReport]:
    """Workflow 4: fetch issues from the pluggable source and spawn one
    independent code-fix run per issue."""
    return [start(issue) for issue in source()]


#: Inner workflows the scheduled loop may wrap: those that neither ship nor wrap.
SCHEDULABLE_INNER_IDS = frozenset(
    wf.id for wf in WORKFLOW_CATALOG.values() if not wf.ships and wf.inner_id is None
)


def run_scheduled_loop(
    inner_id: int,
    iterations: int,
    interval_seconds: float,
    start: Callable[[int, WorkflowType], RunReport],
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> list[RunReport]:
    """Workflow 8: repeat an inner workflow on an interval."""
    if inner_id not in SCHEDULABLE_INNER_IDS:
        raise MisconfigurationError(
            f"scheduled loop cannot wrap workflow {inner_id}; allowed: "
            f"{sorted(SCHEDULABLE_INNER_IDS)}"
        )
    inner = workflow_by_id(inner_id)
    reports = []
    for iteration in range(iterations):
        if iteration:
            sleep(interval_seconds)
        reports.append(start(iteration, inner))
    return reports
