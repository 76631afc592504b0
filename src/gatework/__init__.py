"""gatework: a deterministic multi-agent workflow engine.

A gated nine-state machine drives role-based agent dispatch through
compiled workflow plans, with information barriers between pipelines,
audited artifact access, interrupt signals with retry caps, and a hard
ship gate (review verdict + explicit user authorization). Agent backends
are pluggable; the scripted backend makes every protocol path testable
without a language model.
"""

from gatework.barrier import (
    DEFAULT_ACCESS_MATRIX,
    AccessMatrix,
    AuditLog,
    Sandbox,
    audit_isolation,
    check_access,
    create_plain_sandbox,
    create_sandbox,
)
from gatework.clock import Clock, SystemClock, TickClock
from gatework.gitlayer import GitAction, GitResult, SubprocessGit
from gatework.model import (
    WORKFLOW_CATALOG,
    AccessDecision,
    AccessEvent,
    AgentOutcome,
    AgentRole,
    ArtifactKind,
    IssueDescriptor,
    OutcomeStatus,
    ReviewVerdict,
    Signal,
    SignalKind,
    VerdictValue,
    WorkflowState,
    WorkflowType,
    contracted_artifacts,
    parse_review_verdict,
    signal_owner_check,
    state_order,
    terminal_state,
    workflow_by_id,
)
from gatework.orchestrator import (
    DispatchPlan,
    MechanicalReviewReport,
    Orchestrator,
    RunReport,
    ShipReport,
    UserChannel,
    ChannelMode,
    compile_plan,
    mechanical_review,
    route_signal,
    run_issue_patrol,
    run_scheduled_loop,
    select_workflow,
    ship,
    start_run,
)
from gatework.rundir import RunDirectory
from gatework.runtime import (
    AgentBackend,
    BackendKind,
    DispatchRequest,
    ScriptedBackend,
    SubprocessBackend,
    dispatch,
    load_backends,
    parse_scenario,
    run_scripted,
)
from gatework.statemachine import (
    RETRY_LIMIT,
    GateCheck,
    Predicate,
    Requirement,
    RunState,
    SignalDisposition,
    advance,
    check_preconditions,
    record_signal,
    reconstruct_run_state,
    required_for,
)
from gatework.workspace import (
    PROFILES,
    HandoffContext,
    Language,
    LanguageProfile,
    WorkspaceLayout,
    detect_language,
    read_handoff,
    sync_workspace,
    validate_workspace,
)

__version__ = "0.1.0"
