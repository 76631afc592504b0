from __future__ import annotations

import subprocess
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import base_copy, init_git_repo
from gatework.barrier import (
    DEFAULT_ACCESS_MATRIX,
    AuditLog,
    audit_isolation,
    check_access,
    create_plain_sandbox,
    create_sandbox,
    merge_access_logs,
)
from gatework.clock import TickClock
from gatework.errors import AuditIncompleteness, BarrierError, EnvironmentFailure, MisconfigurationError
from gatework.gitlayer import SubprocessGit
from gatework.model import (
    AccessDecision,
    AccessEvent,
    AgentRole,
    ArtifactKind,
    WorkflowState,
    workflow_by_id,
)
from gatework.rundir import RunDirectory

K = ArtifactKind
R = AgentRole

ALL_KINDS = frozenset(ArtifactKind)
SPECS = {K.COMPREHENSION, K.SPEC, K.TEST_SPEC, K.SIM_SPEC}
PIPELINE_OUT = {K.IMPLEMENTATION, K.AUDIT, K.SIMULATION}
SCRIBER_OUT = {K.ARCHITECTURE, K.LOG_ENTRY, K.DOCS}

# The full grant table: the three-pipeline isolation rows plus the
# bridge/convergence/ship visibility rules. Stated independently of the
# implementation so the 8x16 sweep below is a real cross-check.
EXPECTED_GRANTS: dict[AgentRole, frozenset[ArtifactKind]] = {
    R.LEADER: frozenset({K.REQUEST, K.IMPACT, K.STATUS, K.CREDENTIALS}),
    R.PLANNER: frozenset({K.REQUEST, K.IMPACT} | SPECS),
    R.BUILDER: frozenset({K.SPEC, K.IMPLEMENTATION}),
    R.TESTER: frozenset({K.TEST_SPEC, K.AUDIT}),
    R.SIMULATOR: frozenset({K.SIM_SPEC, K.SIMULATION}),
    R.SCRIBER: frozenset(PIPELINE_OUT | SCRIBER_OUT),
    R.REVIEWER: frozenset(SPECS | PIPELINE_OUT | SCRIBER_OUT | {K.REVIEW}),
    R.SHIPPER: frozenset(ALL_KINDS),
}


def test_access_matrix_all_128_cells():
    audit = AuditLog()
    clock = TickClock()
    checked = 0
    for role in AgentRole:
        for kind in ArtifactKind:
            decision = check_access(DEFAULT_ACCESS_MATRIX, role, kind, audit=audit, clock=clock)
            expected = AccessDecision.ALLOW if kind in EXPECTED_GRANTS[role] else AccessDecision.DENY
            assert decision is expected, f"({role.value}, {kind.filename})"
            checked += 1
    assert checked == 128
    assert len(audit.events()) == 128  # every check logged exactly once


def test_isolation_table_for_the_three_pipelines():
    m = DEFAULT_ACCESS_MATRIX
    # rows: builder / simulator / tester; columns: spec / sim-spec / test-spec
    assert m.allowed(R.BUILDER, K.SPEC) and not m.allowed(R.BUILDER, K.SIM_SPEC) and not m.allowed(R.BUILDER, K.TEST_SPEC)
    assert not m.allowed(R.SIMULATOR, K.SPEC) and m.allowed(R.SIMULATOR, K.SIM_SPEC) and not m.allowed(R.SIMULATOR, K.TEST_SPEC)
    assert not m.allowed(R.TESTER, K.SPEC) and not m.allowed(R.TESTER, K.SIM_SPEC) and m.allowed(R.TESTER, K.TEST_SPEC)


def test_tester_late_inputs_only_after_pipelines_complete():
    m = DEFAULT_ACCESS_MATRIX
    for kind in (K.IMPLEMENTATION, K.SIMULATION):
        assert not m.allowed(R.TESTER, kind)
        assert not m.allowed(R.TESTER, kind, state=WorkflowState.SPEC_READY)
        assert m.allowed(R.TESTER, kind, state=WorkflowState.PIPELINES_COMPLETE)
        assert m.allowed(R.TESTER, kind, state=WorkflowState.DOCUMENTED)
    # the specifications stay denied in every state
    for state in WorkflowState:
        assert not m.allowed(R.TESTER, K.SPEC, state=state)
        assert not m.allowed(R.TESTER, K.SIM_SPEC, state=state)


def test_check_access_logs_denies_too():
    audit = AuditLog()
    decision = check_access(
        DEFAULT_ACCESS_MATRIX, R.BUILDER, K.TEST_SPEC, audit=audit, clock=TickClock()
    )
    assert decision is AccessDecision.DENY
    events = audit.events()
    assert len(events) == 1
    assert events[0].decision is AccessDecision.DENY


def test_audit_log_complete_under_concurrent_checks():
    audit = AuditLog()
    clock = TickClock()
    per_thread = 50
    threads = [
        threading.Thread(
            target=lambda: [
                check_access(DEFAULT_ACCESS_MATRIX, R.REVIEWER, K.AUDIT, audit=audit, clock=clock)
                for _ in range(per_thread)
            ]
        )
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(audit.events()) == 8 * per_thread


@pytest.fixture
def run_env(tmp_path):
    run_dir = RunDirectory(tmp_path / "run").create()
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "module.py").write_text("print('hi')\n", encoding="utf-8")
    init_git_repo(repo)
    for kind in (K.REQUEST, K.IMPACT, K.CREDENTIALS, K.SPEC, K.TEST_SPEC, K.SIM_SPEC, K.COMPREHENSION):
        run_dir.write(kind, f"content of {kind.filename}\n")
    return run_dir, repo, SubprocessGit(), TickClock()


def test_builder_sandbox_contains_spec_but_not_test_spec(run_env):
    run_dir, repo, git, clock = run_env
    sandbox = create_sandbox(R.BUILDER, base_copy(repo, run_dir, git), run_dir=run_dir, clock=clock)
    assert (sandbox.path / "spec.md").exists()
    assert not (sandbox.path / "test-spec.md").exists()
    assert not (sandbox.path / "sim-spec.md").exists()
    assert sandbox.visible_artifacts == frozenset({K.SPEC})
    assert (sandbox.path / "module.py").exists()  # filled with the target's files
    assert not (sandbox.path / ".git").exists()  # and no repository


def test_scriber_sandbox_docs_only_workflow_has_no_spec_artifacts(run_env):
    run_dir, repo, git, clock = run_env
    sandbox = create_sandbox(R.SCRIBER, base_copy(repo, run_dir, git), run_dir=run_dir, clock=clock)
    # none of the scriber's grants exist yet in this run, so nothing copies in
    assert sandbox.visible_artifacts == frozenset()
    for kind in SPECS:
        assert not (sandbox.path / kind.filename).exists()


def test_tester_sandbox_after_pipelines_complete_gets_implementation(run_env):
    run_dir, repo, git, clock = run_env
    run_dir.write(K.IMPLEMENTATION, "impl report\n")
    base = base_copy(repo, run_dir, git)
    before = create_sandbox(R.TESTER, base, run_dir=run_dir, clock=clock, state=WorkflowState.SPEC_READY)
    assert not (before.path / "implementation.md").exists()
    after = create_sandbox(R.TESTER, base, run_dir=run_dir, clock=clock, state=WorkflowState.PIPELINES_COMPLETE)
    assert after.path == before.path
    assert (after.path / "implementation.md").exists()
    assert (after.path / "test-spec.md").exists()
    assert not (after.path / "spec.md").exists()


def test_create_sandbox_rejects_non_worktree_roles(run_env):
    run_dir, repo, git, clock = run_env
    with pytest.raises(MisconfigurationError):
        create_sandbox(R.PLANNER, base_copy(repo, run_dir, git), run_dir=run_dir, clock=clock)
    sandbox = create_plain_sandbox(R.PLANNER, run_dir=run_dir, clock=clock)
    assert (sandbox.path / "request.md").exists()


@pytest.mark.parametrize("dangling", [False, True], ids=["to-the-target", "dangling"])
def test_a_symlinked_plain_sandbox_is_refused_and_never_followed(run_env, dangling):
    run_dir, repo, git, clock = run_env
    path = run_dir.sandboxes_dir / R.SIMULATOR.value
    path.parent.mkdir()
    path.symlink_to(repo / "absent" if dangling else repo)
    tracked = sorted(p.name for p in repo.iterdir())

    with pytest.raises(EnvironmentFailure, match="is a symlink"):
        create_plain_sandbox(R.SIMULATOR, run_dir=run_dir, clock=clock)

    assert path.is_symlink()
    assert sorted(p.name for p in repo.iterdir()) == tracked
    assert (repo / "module.py").read_text(encoding="utf-8") == "print('hi')\n"


def test_an_input_replaces_a_tracked_symlink_at_its_name(run_env, tmp_path):
    run_dir, repo, git, clock = run_env
    outside = tmp_path / "outside.md"
    outside.write_text("# Outside the sandbox\n", encoding="utf-8")
    (repo / "spec.md").symlink_to(outside)
    subprocess.run(["git", "-C", str(repo), "add", "spec.md"], check=True)
    subprocess.run(["git", "-C", str(repo), "commit", "-q", "-m", "track a symlink"], check=True)

    sandbox = create_sandbox(R.BUILDER, base_copy(repo, run_dir, git), run_dir=run_dir, clock=clock)

    spec = sandbox.path / "spec.md"
    assert not spec.is_symlink() and spec.read_text(encoding="utf-8") == "content of spec.md\n"
    assert outside.read_text(encoding="utf-8") == "# Outside the sandbox\n"


def test_request_read_denied_artifact_returns_nothing_and_logs(run_env):
    run_dir, repo, git, clock = run_env
    sandbox = create_sandbox(R.BUILDER, base_copy(repo, run_dir, git), run_dir=run_dir, clock=clock)
    assert sandbox.request_read("test-spec.md") is None
    assert sandbox.request_read("spec.md") == "content of spec.md\n"
    assert sandbox.request_read("module.py") == "print('hi')\n"  # plain sandbox file
    decisions = [(e.artifact, e.decision) for e in sandbox.audit.events()]
    assert decisions == [
        (K.TEST_SPEC, AccessDecision.DENY),
        (K.SPEC, AccessDecision.ALLOW),
    ]


def test_sandbox_rejects_escape_paths(run_env):
    run_dir, repo, git, clock = run_env
    sandbox = create_sandbox(R.BUILDER, base_copy(repo, run_dir, git), run_dir=run_dir, clock=clock)
    for bad in ("../outside.md", "a/../../x", "/etc/passwd", "a/b/../../../z"):
        with pytest.raises(BarrierError):
            sandbox.resolve(bad)


_SEGMENTS = st.sampled_from(["a", "b", "sub", "..", "file.txt", "notes.md"])


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(_SEGMENTS, min_size=1, max_size=5))
def test_sandbox_containment_property(tmp_path_factory, parts):
    root = tmp_path_factory.mktemp("sandbox-root")
    run_dir = RunDirectory(root / "run").create()
    clock = TickClock()
    sandbox = create_plain_sandbox(R.SHIPPER, run_dir=run_dir, clock=clock)
    relpath = "/".join(parts)
    if ".." in parts:
        with pytest.raises(BarrierError):
            sandbox.write_file(relpath, "x")
    else:
        written = sandbox.write_file(relpath, "x")
        assert written.is_relative_to(sandbox.path.resolve())


def _event(role: AgentRole, kind: ArtifactKind, decision: AccessDecision) -> AccessEvent:
    return AccessEvent(timestamp=TickClock().now(), role=role, artifact=kind, decision=decision)


def test_audit_isolation_clean_for_matrix_consistent_allows():
    logs = {
        R.BUILDER: [_event(R.BUILDER, K.SPEC, AccessDecision.ALLOW)],
        R.TESTER: [_event(R.TESTER, K.TEST_SPEC, AccessDecision.ALLOW)],
    }
    assert audit_isolation(logs, dispatched=frozenset({R.BUILDER, R.TESTER})) == ()


def test_audit_isolation_flags_allow_on_forbidden_pair():
    logs = {R.BUILDER: [_event(R.BUILDER, K.TEST_SPEC, AccessDecision.ALLOW)]}
    violations = audit_isolation(logs, dispatched=frozenset({R.BUILDER}))
    assert [(role, kind) for role, kind, _ in violations] == [(R.BUILDER, K.TEST_SPEC)]


def test_audit_isolation_flags_denied_attempt_too():
    logs = {R.BUILDER: [_event(R.BUILDER, K.TEST_SPEC, AccessDecision.DENY)]}
    assert audit_isolation(logs, dispatched=frozenset({R.BUILDER}))


def test_audit_isolation_judges_each_event_at_the_state_it_records():
    def read(state):
        return _event(R.TESTER, K.IMPLEMENTATION, AccessDecision.ALLOW)._replace(state=state)

    dispatched = frozenset({R.TESTER})
    for state in (None, WorkflowState.SPEC_READY):
        assert audit_isolation({R.TESTER: [read(state)]}, dispatched=dispatched)
    for state in (WorkflowState.PIPELINES_COMPLETE, WorkflowState.DOCUMENTED):
        assert audit_isolation({R.TESTER: [read(state)]}, dispatched=dispatched) == ()


def test_audit_isolation_missing_log_is_incompleteness():
    # oracle: dispatched roles minus logged roles = {tester}
    wf1 = workflow_by_id(1)
    dispatched = frozenset(wf1.roles())
    logs = {role: [] for role in dispatched if role is not R.TESTER}
    with pytest.raises(AuditIncompleteness) as excinfo:
        audit_isolation(logs, dispatched=dispatched)
    assert str(excinfo.value) == "no access log for dispatched agent(s): tester"


def test_access_log_file_round_trip(tmp_path):
    audit = AuditLog()
    clock = TickClock()
    check_access(DEFAULT_ACCESS_MATRIX, R.TESTER, K.TEST_SPEC, audit=audit, clock=clock)
    check_access(DEFAULT_ACCESS_MATRIX, R.TESTER, K.SPEC, audit=audit, clock=clock)
    path = tmp_path / "access.log"
    audit.write_to(path)
    text = path.read_text(encoding="utf-8")
    assert text == (
        "2000-01-01T00:00:00Z\ttester\ttest-spec.md\tALLOW\n"
        "2000-01-01T00:00:01Z\ttester\tspec.md\tDENY\n"
    )


def test_merge_access_logs_writes_run_level_file(tmp_path):
    run_dir = RunDirectory(tmp_path / "run").create()
    logs = {
        R.BUILDER: [_event(R.BUILDER, K.SPEC, AccessDecision.ALLOW)],
        R.TESTER: [_event(R.TESTER, K.TEST_SPEC, AccessDecision.ALLOW)],
    }
    merged = merge_access_logs(logs, run_dir)
    assert merged == run_dir.access_log_path
    assert merged.read_text(encoding="utf-8") == (
        "2000-01-01T00:00:00Z\tbuilder\tspec.md\tALLOW\n"
        "2000-01-01T00:00:00Z\ttester\ttest-spec.md\tALLOW\n"
    )
