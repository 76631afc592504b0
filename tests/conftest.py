from __future__ import annotations

import json
import os
import subprocess
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import pytest

from gatework import rundir
from gatework.barrier import BaseCopy
from gatework.clock import TickClock
from gatework.gitlayer import GitResult, SubprocessGit
from gatework.model import AgentRole, WorkflowType, workflow_by_id
from gatework.orchestrator import ChannelMode, Orchestrator, RunReport, UserChannel, start_run
from gatework.rundir import RunDirectory
from gatework.runtime import AgentBackend, BackendKind, ScriptedBackend

TEST_SPEC_BODY = """\
# Test specification

Behavioral contracts, exact tolerances, edge cases.

- reference comparison tolerance: 1e-6
- empty-input and single-row edge cases must be covered
"""

AUDIT_BODY = """\
# Audit

| check | tolerance | result |
|---|---|---|
| reference comparison | 1e-6 | pass |
| edge cases | exact | pass |

All validation commands succeeded.
"""

LOG_ENTRY_BODY = """\
# Log entry

## What Changed
Implemented the requested change and revalidated the full suite.

## Validation Results
All checks green.

## Handoff Notes
### Prior Decisions
Kept the public interface unchanged.
"""


def _write(path: str, body: str) -> str:
    return f"write {path} <<EOF\n{body}EOF\n"


def planner_script(workflow: WorkflowType, holds: int = 0) -> str:
    roles = workflow.roles()
    steps = ""
    for _ in range(holds):
        steps += 'signal HOLD "which reference implementation should anchor the tests?"\n---\n'
    steps += _write("comprehension.md", "# Comprehension\n\nFully understood.\n")
    if AgentRole.BUILDER in roles:
        steps += _write("spec.md", "# Implementation specification\n\nBuild the estimator.\n")
    if AgentRole.TESTER in roles:
        steps += _write("test-spec.md", TEST_SPEC_BODY)
    if AgentRole.SIMULATOR in roles:
        steps += _write("sim-spec.md", "# Simulation specification\n\nDGP and scenario grid.\n")
    steps += "complete\n"
    return steps


def builder_script(reads: tuple[str, ...] = (), holds: int = 0) -> str:
    steps = ""
    for _ in range(holds):
        steps += 'signal HOLD "which covariance estimator variant?"\n---\n'
    for path in reads:
        steps += f"read {path}\n"
    steps += _write("implementation.md", "# Implementation\n\nFiles changed: core module.\n")
    steps += "complete\n"
    return steps


def tester_script(blocks: int = 0, audit_body: str = AUDIT_BODY) -> str:
    steps = ""
    for _ in range(blocks):
        steps += 'signal BLOCK "placebo test failure: no improvement over baseline"\n---\n'
    steps += "read test-spec.md\n"
    steps += _write("audit.md", audit_body)
    steps += "complete\n"
    return steps


def simulator_script() -> str:
    return _write("simulation.md", "# Simulation\n\nDGP results within acceptance bands.\n") + "complete\n"


def scriber_script() -> str:
    return (
        _write("Architecture.md", "# Architecture\n\nModule and data-flow diagrams.\n")
        + _write("log-entry.md", LOG_ENTRY_BODY)
        + _write("docs.md", "# Docs\n\nUpdated usage documentation.\n")
        + "complete\n"
    )


def reviewer_script(verdict: str = "PASS", stops: int = 0, stop_target: str = "scriber") -> str:
    steps = ""
    for _ in range(stops):
        steps += f'signal STOP <<EOF\ntarget: {stop_target}\nquality gate failed; rework needed\nEOF\n---\n'
    steps += _write("review.md", f"verdict: {verdict}\n\nCross-pipeline audit complete.\n")
    steps += "complete\n"
    return steps


def shipper_script() -> str:
    return _write("shipper.md", "# Shipper\n\nReady to stage and push.\n") + "complete\n"


def scripted_backends(workflow: WorkflowType, **kwargs) -> dict[AgentRole, AgentBackend]:
    texts = script_texts(workflow, **kwargs)
    return {role: ScriptedBackend.from_text(texts[role]) for role in workflow.roles()}


def script_texts(workflow: WorkflowType, **kwargs) -> dict[AgentRole, str]:
    """The raw scenario texts backing :func:`scripted_backends`."""
    return {
        AgentRole.PLANNER: planner_script(workflow, holds=kwargs.get("planner_holds", 0)),
        AgentRole.BUILDER: builder_script(
            reads=kwargs.get("builder_reads", ()), holds=kwargs.get("builder_holds", 0)
        ),
        AgentRole.TESTER: tester_script(
            blocks=kwargs.get("tester_blocks", 0),
            audit_body=kwargs.get("audit_body", AUDIT_BODY),
        ),
        AgentRole.SIMULATOR: simulator_script(),
        AgentRole.SCRIBER: scriber_script(),
        AgentRole.REVIEWER: reviewer_script(
            verdict=kwargs.get("reviewer_verdict", "PASS"),
            stops=kwargs.get("reviewer_stops", 0),
            stop_target=kwargs.get("stop_target", "scriber"),
        ),
        AgentRole.SHIPPER: shipper_script(),
    }


def write_backend_config(directory: Path, workflow_id: int, **kwargs) -> Path:
    """Write scenario files plus a backends.json for CLI-driven runs."""
    directory.mkdir(parents=True, exist_ok=True)
    workflow = workflow_by_id(workflow_id)
    texts = script_texts(workflow, **kwargs)
    entries = {}
    for role in workflow.roles():
        script_path = directory / f"{role.value}.script"
        script_path.write_text(texts[role], encoding="utf-8")
        entries[role.value] = {"kind": "scripted", "script": script_path.name}
    config_path = directory / "backends.json"
    config_path.write_text(json.dumps({"backends": entries}, indent=2), encoding="utf-8")
    return config_path


#: commit dates of the seed commit, so every fixture repository of the
#: same content has the same base commit, which runs journal
_SEED_DATES = {"GIT_AUTHOR_DATE": "2024-01-01T00:00:00Z", "GIT_COMMITTER_DATE": "2024-01-01T00:00:00Z"}


def init_git_repo(path: Path, *, remote: Path | None = None) -> Path:
    """Real git repository fixture (branch main, one seed commit, the same
    commit in every fixture)."""
    path.mkdir(parents=True, exist_ok=True)
    subprocess.run(["git", "init", "-q", "-b", "main", str(path)], check=True)
    for key, value in (("user.email", "dev@example.org"), ("user.name", "dev")):
        subprocess.run(["git", "-C", str(path), "config", key, value], check=True)
    (path / "pyproject.toml").write_text("[project]\nname = 'fixture'\n", encoding="utf-8")
    subprocess.run(["git", "-C", str(path), "add", "-A"], check=True)
    subprocess.run(
        ["git", "-C", str(path), "commit", "-q", "-m", "seed"], check=True, env={**os.environ, **_SEED_DATES}
    )
    if remote is not None:
        subprocess.run(["git", "init", "-q", "--bare", "-b", "main", str(remote)], check=True)
        subprocess.run(["git", "-C", str(path), "remote", "add", "origin", str(remote)], check=True)
        subprocess.run(["git", "-C", str(path), "push", "-q", "-u", "origin", "main"], check=True)
    return path


def repo_without_language(repo: Path) -> Path:
    """A git repository with no marker file: a first session asks for the
    language."""
    repo.mkdir()
    subprocess.run(["git", "init", "-q", "-b", "main", str(repo)], check=True)
    (repo / "notes.txt").write_text("notes\n", encoding="utf-8")
    subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
    subprocess.run(["git", "-C", str(repo), "commit", "-q", "-m", "seed"], check=True)
    return repo


def base_copy(repo: Path, run_dir: RunDirectory, git: SubprocessGit | None = None) -> BaseCopy:
    """The base copy a session of ``run_dir`` makes of ``repo``'s HEAD,
    not yet filled."""
    git = git or SubprocessGit()
    return BaseCopy(git, repo, git.head(repo), run_dir.sandboxes_dir / ".base")


class RecordingGit(SubprocessGit):
    """Real git that records what it was asked: ``calls`` names each fill
    (``add``), a session's one fill of its base copy ``.base``, and each
    filled sandbox freed for a retry (``remove``), with the directory's
    name, and ``actions`` holds the result of every stage, commit and push."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[str, str]] = []
        self.actions: list[GitResult] = []

    def adds(self) -> int:
        return sum(1 for call, _ in self.calls if call == "add")

    def _record(self, result: GitResult) -> GitResult:
        self.actions.append(result)
        return result

    def worktree_add(self, repo, path, base):
        self.calls.append(("add", Path(path).name))
        super().worktree_add(repo, path, base)

    def worktree_remove(self, repo, path):
        self.calls.append(("remove", Path(path).name))
        super().worktree_remove(repo, path)

    def stage(self, repo, paths):
        return self._record(super().stage(repo, paths))

    def commit(self, repo, message, paths):
        return self._record(super().commit(repo, message, paths))

    def push(self, repo):
        return self._record(super().push(repo))


def pytest_report_header(config) -> str:
    # Every scenario runs on the system git, so a log names the one it ran on.
    version = subprocess.run(["git", "--version"], capture_output=True, text=True, check=True).stdout.strip()
    return f"{version}, {os.cpu_count()} CPUs"


_GITCONFIG = """\
[user]
\tname = gatework tests
\temail = tests@example.org
[init]
\tdefaultBranch = main
[core]
\thooksPath = {hooks}
[commit]
\tgpgsign = false
[tag]
\tgpgsign = false
"""


@pytest.fixture(autouse=True, scope="session")
def _isolated_git(tmp_path_factory):
    """Make git read only this session's config, so a developer's global
    settings (hooks, signing, default branch) cannot change a test."""
    home = tmp_path_factory.mktemp("git-home")
    hooks = home / "no-hooks"
    hooks.mkdir()
    config = home / "gitconfig"
    config.write_text(_GITCONFIG.format(hooks=hooks), encoding="utf-8")
    with pytest.MonkeyPatch.context() as env:
        for name in ("GIT_DIR", "GIT_WORK_TREE", "GIT_INDEX_FILE", "GIT_OBJECT_DIRECTORY"):
            env.delenv(name, raising=False)
        env.setenv("GIT_CONFIG_GLOBAL", str(config))
        env.setenv("GIT_CONFIG_NOSYSTEM", "1")
        yield


@pytest.fixture(autouse=True)
def _scratch_root(tmp_path_factory, monkeypatch):
    """Put each test's agent sandboxes under a directory of its own, not
    in the machine's shared memory-backed root, which a test that fails
    before its run's session ends would otherwise fill."""
    memory = tmp_path_factory.mktemp("memory-root")
    monkeypatch.setattr(rundir, "MEMORY_ROOT", memory)
    return memory


class RecordingChannel(UserChannel):
    """A scripted channel that keeps each question asked, as
    ``("question", text)`` in ``transcript``, so a test can see what the
    leader asked."""

    def __init__(self, answers: tuple[str, ...] = ()) -> None:
        super().__init__(mode=ChannelMode.SCRIPTED_ANSWERS, answers=answers, output_fn=lambda _: None)
        self.transcript: list[tuple[str, str]] = []

    def ask(self, question: str) -> str | None:
        self.transcript.append(("question", question))
        return super().ask(question)


def run_scripted_workflow(
    tmp_path: Path,
    workflow_id: int,
    *,
    target_repo: Path | None = None,
    git: SubprocessGit | None = None,
    answers: tuple[str, ...] = (),
    authorization: str | None = None,
    backends: dict[AgentRole, AgentBackend] | None = None,
    **backend_kwargs,
) -> tuple[RunReport, RunDirectory, Orchestrator]:
    """Run one workflow end to end with scripted backends on real git: by
    default on a fresh repository at ``tmp_path / "repo"`` that pushes to
    the bare ``tmp_path / "remote.git"``. Checks that the run left no
    worktree and no agent branch in the target, halted runs included."""
    workflow = workflow_by_id(workflow_id)
    if target_repo is None:
        target_repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    git = git or SubprocessGit()
    clock = TickClock()
    run_dir, request_id = start_run(
        runs_root=tmp_path / "runs",
        target_repo=target_repo,
        directive="scripted protocol exercise",
        workflow=workflow,
        git=git,
        clock=clock,
    )
    orchestrator = Orchestrator(
        run_dir=run_dir,
        request_id=request_id,
        workflow=workflow,
        backends=backends if backends is not None else scripted_backends(workflow, **backend_kwargs),
        channel=RecordingChannel(answers),
        target_repo=target_repo,
        git=git,
        clock=clock,
        directive="scripted protocol exercise",
    )
    report = orchestrator.run(authorization=authorization)
    if (target_repo / ".git").exists():
        assert_target_clean(target_repo)
    return report, run_dir, orchestrator


def assert_target_clean(repo: Path) -> None:
    """Assert that ``repo`` holds no linked worktree and no agent branch."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True
        ).stdout

    listing = git("worktree", "list", "--porcelain").splitlines()
    listed = [line for line in listing if line.startswith("worktree ")]
    assert listed == [f"worktree {repo.resolve()}"], listed
    assert git("for-each-ref", "refs/heads/agent") == ""


def process_ended(pid: int, within: float = 5.0) -> bool:
    """Whether process ``pid`` has ended, or ends within ``within``
    seconds. A killed process that its new parent has not reaped yet reads
    state ``Z`` in ``/proc/<pid>/stat``."""
    deadline = time.monotonic() + within
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
        except FileNotFoundError:
            return True
        if stat.rsplit(")", 1)[1].split()[0] == "Z":
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


class Spy(AgentBackend):
    """Records ``probe(request)`` for every dispatch, then runs ``inner``."""

    kind = BackendKind.SCRIPTED

    def __init__(self, inner: AgentBackend, seen: list, probe) -> None:
        self.inner = inner
        self.seen = seen
        self.probe = probe

    def execute(self, req, log_path=None):
        self.seen.append(self.probe(req))
        return self.inner.execute(req, log_path=log_path)


@dataclass
class Sessions:
    """What :func:`run_in_sessions` saw: each session's report, the run
    directory and every dispatch's (role, briefing) in order."""

    reports: list[RunReport]
    run_dir: RunDirectory
    briefings: list[tuple[str, str]]

    def briefings_by_role(self) -> dict[str, list[str]]:
        """Each role's briefings in order; the roles of a parallel batch
        are dispatched in no fixed order."""
        by_role: dict[str, list[str]] = {}
        for role, briefing in self.briefings:
            by_role.setdefault(role, []).append(briefing)
        return by_role

    def outcomes(self) -> list[tuple[str, str]]:
        return [(e["role"], e["outcome"]) for e in self.run_dir.events() if e["event"] == "dispatch"]


def run_in_sessions(
    tmp_path: Path,
    workflow_id: int,
    *,
    split: bool,
    answers: tuple[str, ...] = (),
    scripts: dict[AgentRole, str] | None = None,
    authorization: str | None = None,
    **script_kwargs,
) -> Sessions:
    """Run a scripted scenario on real git until it stops on something
    no answer or resume gets past, each session with a fresh tick clock,
    as the CLI runs them. The first session gets every answer, or, with
    ``split``, none, and each later session the one answer to the
    question left pending. A session that halts on a failed dispatch is
    resumed as it is. ``scripts`` replaces the default script of a role."""
    workflow = workflow_by_id(workflow_id)
    texts = {**script_texts(workflow, **script_kwargs), **(scripts or {})}
    briefings: list[tuple[str, str]] = []
    backends = {
        role: Spy(ScriptedBackend.from_text(texts[role]), briefings, lambda req: (req.role.value, req.briefing))
        for role in workflow.roles()
    }
    target_repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    run_dir, request_id = start_run(
        runs_root=tmp_path / "runs", target_repo=target_repo, directive="scripted protocol exercise",
        workflow=workflow, git=SubprocessGit(), clock=TickClock(),
    )
    left = deque(answers)
    given = () if split else tuple(left)
    reports: list[RunReport] = []
    while len(reports) < 10:  # a scenario that keeps failing still ends
        channel = RecordingChannel(given)
        reports.append(
            Orchestrator(
                run_dir=run_dir, request_id=request_id, workflow=workflow, backends=backends,
                channel=channel, target_repo=target_repo, git=SubprocessGit(), clock=TickClock(),
                directive="scripted protocol exercise",
            ).run(authorization=authorization)
        )
        question = bool(reports[-1].escalation and reports[-1].pending)
        if not (question or reports[-1].diagnostics):
            break
        if split:
            given = (left.popleft(),) if question and left else ()
        else:
            given = tuple(channel.answers)  # those the session did not use
    return Sessions(reports, run_dir, briefings)
