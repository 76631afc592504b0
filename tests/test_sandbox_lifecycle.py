"""Worktree sandbox lifecycle on real git: one worktree per role per run,
reset between attempts, removed at finalize."""

from __future__ import annotations

import shlex
import subprocess
import types
from pathlib import Path

import pytest

from conftest import init_git_repo, run_scripted_workflow, scripted_backends
from gatework import gitlayer
from gatework.clock import TickClock
from gatework.gitlayer import FakeGit, SubprocessGit
from gatework.model import AgentRole, ArtifactKind, workflow_by_id
from gatework.orchestrator import ChannelMode, Orchestrator, UserChannel
from gatework.runtime import SubprocessBackend

R = AgentRole


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True
    ).stdout


@pytest.fixture
def git_spawns(monkeypatch) -> list[list[str]]:
    """Every git process started through ``gatework.gitlayer``."""
    spawned: list[list[str]] = []

    def run(argv, *args, **kwargs):
        if argv[0] == "git":
            spawned.append(list(argv))
        return subprocess.run(argv, *args, **kwargs)

    monkeypatch.setattr(gitlayer, "subprocess", types.SimpleNamespace(run=run))
    return spawned


class _RecordingGit(SubprocessGit):
    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple[str, str]] = []

    def worktree_add(self, repo, path, branch):
        self.calls.append(("add", Path(path).name))
        return super().worktree_add(repo, path, branch)

    def worktree_reset(self, repo, path, branch):
        self.calls.append(("reset", Path(path).name))
        return super().worktree_reset(repo, path, branch)


# Workflow 9 spawns: is_repo and remote_url at start, then one
# `worktree add -b` and one `worktree remove` per role.
WF9_GIT_SPAWNS = 6
# Workflow 1 with 1 HOLD, 3 BLOCKs and 1 STOP dispatches builder 4x,
# tester 4x, scriber 2x, simulator 1x: 2 start-up queries, 4 adds,
# 7 resets of 2 processes each, and 4 removes.
WF1_FULL_RETRY_GIT_SPAWNS = 24
# Workflow 2 shipping to a bare remote: 2 start-up queries, 3 adds, then
# `add -A`, `symbolic-ref`, `commit` and `push` on the target, and 3 removes.
WF2_SHIP_GIT_SPAWNS = 12


def test_git_spawns_per_run_workflow_9(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    report, _, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=SubprocessGit())
    assert report.final_state == "PIPELINES_COMPLETE"
    assert len(git_spawns) == WF9_GIT_SPAWNS, git_spawns


def test_git_spawns_per_run_workflow_1_full_retry(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    report, _, _ = run_scripted_workflow(
        tmp_path, 1, target_repo=repo, git=SubprocessGit(), answers=("use the reference",),
        planner_holds=1, tester_blocks=3, reviewer_stops=1, stop_target="scriber",
    )
    assert report.final_state == "REVIEW_PASSED"
    assert report.dispatch_counts == {
        "builder": 4, "planner": 2, "reviewer": 2, "scriber": 2, "simulator": 1, "tester": 4,
    }
    assert report.retries == {"BLOCK": 3, "HOLD": 1, "STOP": 1}
    assert len(git_spawns) == WF1_FULL_RETRY_GIT_SPAWNS, git_spawns
    adds = [argv for argv in git_spawns if argv[3:5] == ["worktree", "add"]]
    assert len(adds) == 4
    # every worktree is gone once the run ends
    assert _git(repo, "worktree", "list").count("\n") == 1


def test_git_spawns_per_run_workflow_2_shipping(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    report, _, _ = run_scripted_workflow(
        tmp_path, 2, target_repo=repo, git=SubprocessGit(), authorization="tok"
    )
    assert report.final_state == "DONE"
    assert report.ship["shipped"] is True
    assert len(git_spawns) == WF2_SHIP_GIT_SPAWNS, git_spawns


def _dirtying_builder(record_dir: Path) -> SubprocessBackend:
    """Records the worktree as it finds it, then on its first attempt
    leaves every kind of residue a real agent could leave behind."""
    record = shlex.quote(str(record_dir))
    script = f"""
cat >/dev/null
n=$(ls {record} | wc -l); n=$((n + 1))
{{ git status --porcelain --ignored; git branch --show-current; cat tracked.txt; }} > {record}/attempt-$n.txt
if [ "$n" = 1 ]; then
  git checkout -q -b detour
  echo edited >> tracked.txt
  echo junk > untracked.txt
  echo junk > build.log
  echo stale > audit.md
fi
printf '# Implementation\\n\\nattempt %s\\n' "$n" > implementation.md
echo 'OUTCOME: COMPLETED'
"""
    return SubprocessBackend(["sh", "-c", script])


def test_retry_attempt_starts_from_pristine_checkout(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    (repo / "tracked.txt").write_text("original\n", encoding="utf-8")
    (repo / ".gitignore").write_text("*.log\n", encoding="utf-8")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "fixture")
    record = tmp_path / "record"
    record.mkdir()
    workflow = workflow_by_id(9)
    backends = scripted_backends(workflow, tester_blocks=1)
    backends[R.BUILDER] = _dirtying_builder(record)
    git = _RecordingGit()

    report, run_dir, _ = run_scripted_workflow(
        tmp_path, 9, target_repo=repo, git=git, backends=backends
    )

    assert report.final_state == "PIPELINES_COMPLETE"
    assert report.dispatch_counts == {"builder": 2, "tester": 2}
    assert git.calls == [
        ("add", "builder"), ("add", "tester"), ("reset", "builder"), ("reset", "tester"),
    ]
    first = (record / "attempt-1.txt").read_text(encoding="utf-8")
    second = (record / "attempt-2.txt").read_text(encoding="utf-8")
    assert first == f"agent/builder/{run_dir.path.name}\noriginal\n"
    # The retry finds exactly what the first attempt found: no branch
    # switch, tracked edit, untracked or ignored file or artifact of the
    # first attempt survives, its own implementation.md included.
    assert second == first
    assert "attempt 2" in run_dir.read(ArtifactKind.IMPLEMENTATION)
    assert _git(repo, "status", "--porcelain") == ""


def test_resumed_session_adds_a_fresh_worktree(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    git = _RecordingGit()
    first, run_dir, _ = run_scripted_workflow(
        tmp_path, 2, target_repo=repo, git=git, builder_holds=1
    )
    assert first.escalation is not None
    assert ("add", "builder") in git.calls

    workflow = workflow_by_id(2)
    resumed_git = _RecordingGit()
    resumed = Orchestrator(
        run_dir=run_dir,
        request_id=run_dir.path.name,
        workflow=workflow,
        backends=scripted_backends(workflow, builder_holds=1),
        channel=UserChannel(
            mode=ChannelMode.SCRIPTED_ANSWERS, answers=("use defaults",), output_fn=lambda _: None
        ),
        target_repo=repo,
        git=resumed_git,
        clock=TickClock(),
        directive="scripted protocol exercise",
    ).run()

    assert resumed.final_state == "READY_TO_SHIP"
    assert resumed.dispatch_counts["builder"] == 2
    # attempt 2 of the builder, but the first dispatch of this session:
    # the worktree was removed at the end of session 1, so it is added
    # again on the surviving branch rather than reset
    assert resumed_git.calls[0] == ("add", "builder")
    assert ("reset", "builder") not in resumed_git.calls
    assert _git(repo, "worktree", "list").count("\n") == 1


def test_worktree_add_takes_one_process_and_reuses_an_existing_branch(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    git = SubprocessGit()
    assert git.worktree_add(repo, tmp_path / "wt-new", "agent/builder/req-1").ok
    assert len(git_spawns) == 1
    _git(repo, "branch", "agent/tester/req-1")
    existing = git.worktree_add(repo, tmp_path / "wt-old", "agent/tester/req-1")
    assert existing.ok, existing.output
    assert _git(tmp_path / "wt-old", "rev-parse", "--abbrev-ref", "HEAD").strip() == "agent/tester/req-1"


def test_worktree_reset_refuses_a_directory_that_is_not_a_worktree(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    (repo / "pyproject.toml").write_text("[project]\nname = 'edited'\n", encoding="utf-8")
    (repo / "notes.txt").write_text("keep me\n", encoding="utf-8")
    stray = repo / "stray"
    stray.mkdir()
    outside = tmp_path / "outside"
    outside.mkdir()
    git = SubprocessGit()
    for path in (stray, outside, repo):
        result = git.worktree_reset(repo, path, "main")
        assert not result.ok
        assert "not a linked worktree" in result.output
    # the main checkout keeps its edit and its untracked files
    assert "edited" in (repo / "pyproject.toml").read_text(encoding="utf-8")
    assert (repo / "notes.txt").exists()
    assert stray.is_dir()


def test_fake_worktree_reset_restores_the_repo_tree(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "module.py").write_text("x = 1\n", encoding="utf-8")
    git = FakeGit()
    worktree = tmp_path / "wt"
    branch = "agent/builder/req-1"
    assert not git.worktree_reset(repo, worktree, branch).ok
    assert git.worktree_add(repo, worktree, branch).ok
    (worktree / "module.py").write_text("x = 2\n", encoding="utf-8")
    (worktree / "junk.txt").write_text("junk\n", encoding="utf-8")
    assert git.worktree_reset(repo, worktree, branch).ok
    assert (worktree / "module.py").read_text(encoding="utf-8") == "x = 1\n"
    assert not (worktree / "junk.txt").exists()
