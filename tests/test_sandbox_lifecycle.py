"""Worktree sandbox lifecycle on real git: the i-th worktree role of a
batch runs in worktree slot i, which is added if it does not exist and
reset in place if it does, whichever role ran in it last; every slot is
removed at finalize."""

from __future__ import annotations

import contextlib
import json
import os
import shlex
import shutil
import signal
import subprocess
import threading
import time
import types
from pathlib import Path

import pytest

from conftest import (
    LOG_ENTRY_BODY,
    RecordingGit,
    init_git_repo,
    process_ended,
    run_scripted_workflow,
    scripted_backends,
)
from gatework import gitlayer
from gatework.barrier import create_sandbox
from gatework.clock import TickClock
from gatework.errors import EnvironmentFailure, RunDirectoryError
from gatework.gitlayer import SubprocessGit
from gatework.model import AgentRole, ArtifactKind, workflow_by_id
from gatework.orchestrator import ChannelMode, Orchestrator, UserChannel, start_run
from gatework.runtime import ScriptedBackend, SubprocessBackend

R = AgentRole


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True
    ).stdout


class GitProcesses:
    """The git processes ``gatework.gitlayer`` started: ``argv`` of each
    it spawned itself, and ``total()``, which counts git's own child
    processes too, from the ``start`` events of git's trace2 log."""

    def __init__(self, trace: Path) -> None:
        self.trace = trace
        self.argv: list[list[str]] = []

    def starts(self) -> list[list[str]]:
        """The argv of every git process that started, children included."""
        if not self.trace.exists():
            return []
        events = map(json.loads, self.trace.read_text(encoding="utf-8").splitlines())
        return [event["argv"] for event in events if event["event"] == "start"]

    def total(self) -> int:
        return len(self.starts())

    def clear(self) -> None:
        self.argv.clear()
        self.trace.unlink(missing_ok=True)


@pytest.fixture
def git_spawns(tmp_path, monkeypatch) -> GitProcesses:
    """Every git process started through ``gatework.gitlayer``; git
    processes the test or an agent starts are not counted."""
    spawned = GitProcesses(tmp_path / "git-trace2.json")

    def run(argv, *args, **kwargs):
        if argv[0] == "git":
            spawned.argv.append(list(argv))
            # git's children inherit it, so they log their start too
            kwargs["env"] = {**kwargs.get("env", os.environ), "GIT_TRACE2_EVENT": str(spawned.trace)}
        return subprocess.run(argv, *args, **kwargs)

    monkeypatch.setattr(gitlayer, "subprocess", types.SimpleNamespace(run=run))
    return spawned


# Workflow 9: one start-up query (`remote get-url origin`, whose exit code
# also says whether the target is a repository); the builder's add of slot
# 0 (`worktree add --detach --no-checkout` and the `update-ref` it starts,
# then `checkout -f -b`); the tester's reset of it (`checkout -f -b` into
# the emptied slot); and one `worktree remove`.
WF9_GIT_PROCESSES = 6
# Workflow 1 with 1 HOLD, 3 BLOCKs and 1 STOP dispatches builder 4x,
# tester 4x, scriber 2x, simulator 1x: 1 start-up query, 2 adds of 3
# processes for the parallel stage's slots 0-1 (the simulator's sandbox is
# a plain directory), then 8 one-process resets of slot 0 (`checkout`: 6
# for the BLOCK retries, the scriber's first dispatch and its STOP retry),
# and 2 removes.
WF1_FULL_RETRY_GIT_PROCESSES = 17
# Workflow 2 shipping to a bare remote: 1 start-up query, 2 adds, the
# scriber's one-process reset of slot 0, then `add -A`, `symbolic-ref`,
# `commit` and `push` (and the `receive-pack` it starts) on the target,
# and 2 removes.
WF2_SHIP_GIT_PROCESSES = 15


def test_git_spawns_per_run_workflow_9(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    git = RecordingGit()
    report, _, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git)
    assert report.final_state == "PIPELINES_COMPLETE"
    assert git_spawns.total() == WF9_GIT_PROCESSES, git_spawns.starts()
    # the tester takes over the builder's slot
    assert git.adds() == 1
    assert git.calls == [("add", "worktree-0"), ("reset", "worktree-0")]


def test_git_spawns_per_run_workflow_1_full_retry(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    git = RecordingGit()
    report, _, _ = run_scripted_workflow(
        tmp_path, 1, target_repo=repo, git=git, answers=("use the reference",),
        planner_holds=1, tester_blocks=3, reviewer_stops=1, stop_target="scriber",
    )
    assert report.final_state == "REVIEW_PASSED"
    assert report.dispatch_counts == {
        "builder": 4, "planner": 2, "reviewer": 2, "scriber": 2, "simulator": 1, "tester": 4,
    }
    assert report.retries == {"BLOCK": 3, "HOLD": 1, "STOP": 1}
    assert git_spawns.total() == WF1_FULL_RETRY_GIT_PROCESSES, git_spawns.starts()
    # as many adds as the widest stage has worktree roles, the builder and
    # the tester; every later batch holds one worktree role, which runs in slot 0
    assert git.adds() == 2
    assert sorted(git.calls[:2]) == [("add", f"worktree-{slot}") for slot in range(2)]
    assert git.calls[2:] == [("reset", "worktree-0")] * 8
    # every worktree is gone once the run ends
    assert _git(repo, "worktree", "list").count("\n") == 1


def test_git_spawns_per_run_workflow_2_shipping(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    git = RecordingGit()
    report, _, _ = run_scripted_workflow(
        tmp_path, 2, target_repo=repo, git=git, authorization="tok"
    )
    assert report.final_state == "DONE"
    assert report.ship["shipped"] is True
    assert git_spawns.total() == WF2_SHIP_GIT_PROCESSES, git_spawns.starts()
    assert git.adds() == 2
    assert _git(repo, "worktree", "list").count("\n") == 1


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
    git = RecordingGit()

    report, run_dir, _ = run_scripted_workflow(
        tmp_path, 9, target_repo=repo, git=git, backends=backends
    )

    assert report.final_state == "PIPELINES_COMPLETE"
    assert report.dispatch_counts == {"builder": 2, "tester": 2}
    # one slot, taken in turn by builder and tester
    assert git.calls == [("add", "worktree-0")] + [("reset", "worktree-0")] * 3
    first = (record / "attempt-1.txt").read_text(encoding="utf-8")
    second = (record / "attempt-2.txt").read_text(encoding="utf-8")
    assert first == f"agent/builder/{run_dir.path.name}\noriginal\n"
    # The retry finds exactly what the first attempt found: no branch
    # switch, tracked edit, untracked or ignored file or artifact of the
    # first attempt survives, its own implementation.md included.
    assert second == first
    assert "attempt 2" in run_dir.read(ArtifactKind.IMPLEMENTATION)
    assert _git(repo, "status", "--porcelain") == ""


def _residue_builder(record: Path) -> SubprocessBackend:
    """Commits on its branch, then leaves a staged file, a tracked edit,
    an untracked directory and an ignored file, on a branch of its own."""
    record_q = shlex.quote(str(record))
    script = f"""
cat >/dev/null
echo feature > feature.txt
git add feature.txt
git commit -q -m builder
git rev-parse HEAD > {record_q}/builder-commit
echo staged > staged.txt
git add staged.txt
echo edited >> tracked.txt
mkdir -p scratch/deep
echo junk > scratch/deep/junk.txt
echo junk > build.log
git checkout -q -b detour
printf '# Implementation\\n' > implementation.md
echo 'OUTCOME: COMPLETED'
"""
    return SubprocessBackend(["sh", "-c", script])


def _recording_tester(record: Path) -> SubprocessBackend:
    record_q = shlex.quote(str(record))
    script = f"""
grep '^granted artifacts:' > {record_q}/granted
git status --porcelain --ignored > {record_q}/status
git branch --show-current > {record_q}/branch
git rev-parse HEAD > {record_q}/head
if git merge-base --is-ancestor "$(cat {record_q}/builder-commit)" HEAD; then
  echo yes > {record_q}/ancestor
else
  echo no > {record_q}/ancestor
fi
printf '# Audit\\n\\n| check | result |\\n|---|---|\\n| all | pass |\\n' > audit.md
echo 'OUTCOME: COMPLETED'
"""
    return SubprocessBackend(["sh", "-c", script])


def test_a_slot_taken_over_holds_nothing_of_the_earlier_role(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    (repo / "tracked.txt").write_text("original\n", encoding="utf-8")
    (repo / ".gitignore").write_text("*.log\n", encoding="utf-8")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "fixture")
    record = tmp_path / "record"
    record.mkdir()
    backends = {R.BUILDER: _residue_builder(record), R.TESTER: _recording_tester(record)}
    git = RecordingGit()

    report, run_dir, _ = run_scripted_workflow(
        tmp_path, 9, target_repo=repo, git=git, backends=backends
    )

    assert report.final_state == "PIPELINES_COMPLETE", report.diagnostics
    assert git.calls == [("add", "worktree-0"), ("reset", "worktree-0")]
    read = lambda name: (record / name).read_text(encoding="utf-8")
    granted = read("granted").removeprefix("granted artifacts: ").strip()
    inputs = [] if granted == "(none)" else granted.split(", ")
    # only the tester's own inputs: nothing the builder committed, staged,
    # edited, left untracked or ignored
    assert read("status").splitlines() == [f"?? {name}" for name in inputs]
    assert read("branch") == f"agent/tester/{run_dir.path.name}\n"
    assert read("head") == _git(repo, "rev-parse", "HEAD")
    assert read("ancestor") == "no\n"
    # the builder's commit stays on its own branch
    builder_branch = f"agent/builder/{run_dir.path.name}"
    assert _git(repo, "rev-parse", builder_branch) == read("builder-commit")
    assert _git(repo, "status", "--porcelain") == ""


def _committing_builder(record: Path) -> SubprocessBackend:
    """Commits on its branch on its first attempt; on a later one records
    the worktree as it finds it."""
    record_q = shlex.quote(str(record))
    script = f"""
cat >/dev/null
n=$(cat {record_q}/builder-attempts 2>/dev/null || echo 0); n=$((n + 1))
echo $n > {record_q}/builder-attempts
if [ "$n" = 1 ]; then
  echo feature > feature.txt
  git add feature.txt
  git commit -q -m builder
  git rev-parse HEAD > {record_q}/builder-commit
else
  git rev-parse HEAD > {record_q}/builder-retry
  {{ git branch --show-current; git status --porcelain --ignored; }} >> {record_q}/builder-retry
fi
printf '# Implementation\\n\\nattempt %s\\n' "$n" > implementation.md
echo 'OUTCOME: COMPLETED'
"""
    return SubprocessBackend(["sh", "-c", script])


def _blocking_tester(record: Path) -> SubprocessBackend:
    """On its first attempt commits on its branch, leaves a tracked edit, an
    untracked and an ignored file on a branch of its own, and BLOCKs; on a
    later one records where its branch is and completes."""
    record_q = shlex.quote(str(record))
    script = f"""
cat >/dev/null
n=$(cat {record_q}/tester-attempts 2>/dev/null || echo 0); n=$((n + 1))
echo $n > {record_q}/tester-attempts
if [ "$n" = 1 ]; then
  echo tester > tester.txt
  git add tester.txt
  git commit -q -m tester
  git rev-parse HEAD > {record_q}/tester-commit
  echo edited >> tracked.txt
  echo junk > untracked.txt
  echo junk > build.log
  git checkout -q -b detour
  printf 'placebo test failure\\n' > block.txt
  echo 'OUTCOME: SIGNAL BLOCK block.txt'
else
  git rev-parse HEAD > {record_q}/tester-retry
  {_AUDIT}  echo 'OUTCOME: COMPLETED'
fi
"""
    return SubprocessBackend(["sh", "-c", script])


def test_a_retry_in_a_slot_another_role_used_starts_at_its_own_commit(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    (repo / "tracked.txt").write_text("original\n", encoding="utf-8")
    (repo / ".gitignore").write_text("*.log\n", encoding="utf-8")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "fixture")
    record = tmp_path / "record"
    record.mkdir()
    backends = {R.BUILDER: _committing_builder(record), R.TESTER: _blocking_tester(record)}
    git = RecordingGit()

    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git, backends=backends)

    assert report.final_state == "PIPELINES_COMPLETE", report.diagnostics
    assert report.dispatch_counts == {"builder": 2, "tester": 2}
    # builder, tester, the builder's BLOCK retry and the tester's, in turn in slot 0
    assert git.calls == [("add", "worktree-0")] + [("reset", "worktree-0")] * 3
    read = lambda name: (record / name).read_text(encoding="utf-8")
    head, branch, *status = read("builder-retry").splitlines()
    # the builder's retry starts at the commit its first attempt made, on
    # its own branch, with nothing of the tester's: no commit, edit,
    # untracked or ignored file, branch or artifact
    assert head == read("builder-commit").strip()
    assert branch == f"agent/builder/{run_dir.path.name}"
    assert status == []
    # and the tester's retry starts at its own commit
    assert read("tester-retry") == read("tester-commit")
    assert _git(repo, "status", "--porcelain") == ""


def test_resumed_session_adds_a_fresh_worktree(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    git = RecordingGit()
    first, run_dir, _ = run_scripted_workflow(
        tmp_path, 2, target_repo=repo, git=git, builder_holds=1
    )
    assert first.escalation is not None
    assert sorted(git.calls) == [("add", "worktree-0"), ("add", "worktree-1")]

    workflow = workflow_by_id(2)
    resumed_git = RecordingGit()
    git_spawns.clear()
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
    # the slots were removed at the end of session 1, so slot 0 is added
    # again, and the scriber then takes it over
    assert resumed_git.calls == [("add", "worktree-0"), ("reset", "worktree-0")]
    # the journal says the builder's branch exists: it is checked out as
    # it is, and git is not asked
    builder = f"agent/builder/{run_dir.path.name}"
    checkouts = [argv[3:] for argv in git_spawns.argv if argv[3] == "checkout"]
    assert checkouts[0] == ["checkout", "-q", "-f", "--ignore-other-worktrees", builder, "--"]
    assert not any("rev-parse" in argv for argv in git_spawns.argv)
    assert _git(repo, "worktree", "list").count("\n") == 1


def test_worktree_add_takes_three_processes_and_reuses_an_existing_branch(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    git = SubprocessGit()
    path = tmp_path / "wt-new"
    git.worktree_add(repo, path, "agent/builder/req-1", new_branch=True)
    # an empty worktree, then the checkout step a reset runs too;
    # `worktree add` starts one `update-ref` of its own
    assert [argv[3:] for argv in git_spawns.argv] == [
        ["worktree", "add", "-f", "-f", "--detach", "--no-checkout", str(path.resolve())],
        ["checkout", "-q", "-f", "--no-track", "-b", "agent/builder/req-1", "main-worktree/HEAD", "--"],
    ]
    assert git_spawns.total() == 3, git_spawns.starts()
    assert _git(path, "branch", "--show-current") == "agent/builder/req-1\n"
    assert _git(path, "rev-parse", "HEAD") == _git(repo, "rev-parse", "HEAD")
    assert _git(path, "status", "--porcelain", "--ignored") == ""
    _git(repo, "branch", "agent/tester/req-1")
    # a branch that a session which journaled nothing left behind
    git.worktree_add(repo, tmp_path / "wt-old", "agent/tester/req-1", new_branch=True)
    assert _git(tmp_path / "wt-old", "rev-parse", "--abbrev-ref", "HEAD").strip() == "agent/tester/req-1"
    # a branch the journal says exists is checked out as it is, in 3 processes
    git.worktree_remove(repo, tmp_path / "wt-old")
    git_spawns.clear()
    git.worktree_add(repo, tmp_path / "wt-again", "agent/tester/req-1", new_branch=False)
    assert git_spawns.argv[-1][3:] == [
        "checkout", "-q", "-f", "--ignore-other-worktrees", "agent/tester/req-1", "--",
    ]
    assert git_spawns.total() == 3, git_spawns.starts()


def test_failed_worktree_add_leaves_no_worktree_behind(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    git = SubprocessGit()
    git.worktree_add(repo, tmp_path / "holder", "agent/builder/req-1", new_branch=True)
    listed = _git(repo, "worktree", "list", "--porcelain")
    branches = _git(repo, "branch", "--list")

    # git checks a branch out in one worktree at most, unless the caller
    # vouches that the branch is its own
    with pytest.raises(EnvironmentFailure, match="^worktree creation failed: .*already checked out"):
        git.worktree_add(repo, tmp_path / "second", "agent/builder/req-1", new_branch=True)

    assert _git(repo, "worktree", "list", "--porcelain") == listed
    assert _git(repo, "branch", "--list") == branches
    assert not (tmp_path / "second").exists()


def test_worktree_add_refuses_an_existing_path_and_creates_no_branch(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    occupied = tmp_path / "occupied"
    occupied.mkdir()
    (occupied / "keep.txt").write_text("keep\n", encoding="utf-8")
    branches = _git(repo, "branch", "--list", "agent/*")

    with pytest.raises(EnvironmentFailure) as refused:
        SubprocessGit().worktree_add(repo, occupied, "agent/builder/req-1", new_branch=True)

    assert str(refused.value) == f"worktree creation failed: {occupied} already exists; worktree_add refused"
    assert git_spawns.argv == [] and git_spawns.total() == 0
    assert _git(repo, "branch", "--list", "agent/*") == branches
    assert (occupied / "keep.txt").read_text(encoding="utf-8") == "keep\n"


def test_worktree_reset_takes_one_process_to_hand_a_slot_to_another_role(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    git = SubprocessGit()
    slot, idle = tmp_path / "worktree-0", tmp_path / "worktree-1"
    git.worktree_add(repo, slot, "agent/builder/req-1", new_branch=True)
    git.worktree_add(repo, idle, "agent/tester/req-1", new_branch=True)
    (slot / "feature.txt").write_text("feature\n", encoding="utf-8")
    _git(slot, "add", "feature.txt")
    _git(slot, "commit", "-q", "-m", "builder")
    builder_tip = _git(repo, "rev-parse", "agent/builder/req-1")
    git_spawns.clear()

    # a role's first dispatch: its branch is made at the main checkout's HEAD
    git.worktree_reset(repo, slot, "agent/scriber/req-1", new_branch=True)
    assert [argv[3:] for argv in git_spawns.argv] == [
        ["checkout", "-q", "-f", "--no-track", "-b", "agent/scriber/req-1", "main-worktree/HEAD", "--"],
    ]
    assert git_spawns.total() == 1, git_spawns.starts()
    assert _git(slot, "rev-parse", "HEAD") == _git(repo, "rev-parse", "HEAD")
    assert not (slot / "feature.txt").exists()
    assert _git(slot, "status", "--porcelain", "--ignored") == ""
    # the earlier role's commit stays on its branch
    assert _git(repo, "rev-parse", "agent/builder/req-1") == builder_tip

    # a later dispatch checks its branch out as it is, even the tester's,
    # which the idle slot still has checked out
    for role, tip in (("builder", builder_tip), ("tester", _git(repo, "rev-parse", "HEAD"))):
        git_spawns.clear()
        git.worktree_reset(repo, slot, f"agent/{role}/req-1", new_branch=False)
        assert [argv[3:] for argv in git_spawns.argv] == [
            ["checkout", "-q", "-f", "--ignore-other-worktrees", f"agent/{role}/req-1", "--"],
        ]
        assert git_spawns.total() == 1, git_spawns.starts()
        assert _git(slot, "branch", "--show-current") == f"agent/{role}/req-1\n"
        assert _git(slot, "rev-parse", "HEAD") == tip
        assert _git(slot, "status", "--porcelain", "--ignored") == ""


def test_a_reset_whose_checkout_fails_leaves_the_slot_empty(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    git = SubprocessGit()
    slot, idle = tmp_path / "worktree-0", tmp_path / "worktree-1"
    git.worktree_add(repo, slot, "agent/builder/req-1", new_branch=True)
    git.worktree_add(repo, idle, "agent/tester/req-1", new_branch=True)

    # unless the journal vouches for the branch, git refuses one that
    # another worktree has checked out
    with pytest.raises(EnvironmentFailure, match="^worktree reset failed: .*already checked out"):
        git.worktree_reset(repo, slot, "agent/tester/req-1", new_branch=True)

    # fails closed: nothing of the earlier role is left to work on
    assert [p.name for p in slot.iterdir()] == [".git"]


@pytest.mark.parametrize(
    "branch, new_branch",
    [("agent/tester/req-1", True), ("agent/builder/req-1", False)],
    ids=["takeover", "retry"],
)
def test_a_reset_leaves_nothing_an_agent_made_in_the_slot(tmp_path, branch, new_branch):
    repo = init_git_repo(tmp_path / "repo")
    (repo / "tracked.txt").write_text("original\n", encoding="utf-8")
    (repo / ".gitignore").write_text("*.log\n", encoding="utf-8")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "fixture")
    slot = tmp_path / "sandboxes" / "worktree-0"
    SubprocessGit().worktree_add(repo, slot, "agent/builder/req-1", new_branch=True)
    # what a checkout alone leaves behind: an untracked nested repository,
    # an ignored file, a tracked file replaced by a directory, and a
    # symlink to a directory outside the slot
    init_git_repo(slot / "vendored")
    (slot / "build.log").write_text("junk\n", encoding="utf-8")
    (slot / "tracked.txt").unlink()
    (slot / "tracked.txt").mkdir()
    (slot / "tracked.txt" / "inner.txt").write_text("inner\n", encoding="utf-8")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "keep.txt").write_text("keep\n", encoding="utf-8")
    (slot / "elsewhere").symlink_to(outside)

    SubprocessGit().worktree_reset(repo, slot, branch, new_branch=new_branch)

    assert _git(slot, "status", "--porcelain", "--ignored") == ""
    assert sorted(p.name for p in slot.iterdir()) == [".git", ".gitignore", "pyproject.toml", "tracked.txt"]
    assert (slot / "tracked.txt").read_text(encoding="utf-8") == "original\n"
    # the symlink went, not what it pointed at
    assert [p.name for p in outside.iterdir()] == ["keep.txt"]
    assert _git(slot, "branch", "--show-current") == f"{branch}\n"


def test_a_slot_that_cannot_be_emptied_fails_the_takeover_as_a_diagnostic(tmp_path, monkeypatch):
    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path / "locked"))

    monkeypatch.setattr(gitlayer, "_empty", refuse)
    git = RecordingGit()
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, git=git)

    assert report.exit_code == 4 and list(report.diagnostics) == ["tester"]
    assert "worktree reset failed" in report.diagnostics["tester"]
    assert "Permission denied" in report.diagnostics["tester"]
    assert git.calls == [("add", "worktree-0"), ("reset", "worktree-0")]
    assert report.dispatch_counts == {"builder": 1}
    assert not run_dir.sandboxes_dir.exists()


def test_worktree_reset_refuses_a_symlink_to_another_worktree(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    git = SubprocessGit()
    sandboxes = tmp_path / "sandboxes"
    other = sandboxes / "worktree-1"
    git.worktree_add(repo, other, "agent/builder/req-1", new_branch=True)
    (other / "pyproject.toml").write_text("[project]\nname = 'edited'\n", encoding="utf-8")
    (other / "notes.txt").write_text("keep me\n", encoding="utf-8")
    slot = sandboxes / "worktree-0"
    slot.symlink_to(other)
    git_spawns.clear()

    for new_branch in (True, False):
        with pytest.raises(EnvironmentFailure) as refused:
            git.worktree_reset(repo, slot, "agent/tester/req-1", new_branch=new_branch)
        assert str(refused.value) == f"worktree reset failed: {slot} is a symlink; worktree_reset refused"

    # refused before any git process starts, and before anything is deleted
    assert git_spawns.argv == [] and git_spawns.total() == 0
    assert (other / "notes.txt").read_text(encoding="utf-8") == "keep me\n"
    assert "edited" in (other / "pyproject.toml").read_text(encoding="utf-8")
    assert _git(other, "branch", "--show-current") == "agent/builder/req-1\n"


def test_worktree_add_refuses_a_dangling_symlink(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    slot = tmp_path / "worktree-0"
    slot.symlink_to(tmp_path / "elsewhere")

    with pytest.raises(EnvironmentFailure) as refused:
        SubprocessGit().worktree_add(repo, slot, "agent/builder/req-1", new_branch=True)

    assert str(refused.value) == f"worktree creation failed: {slot} already exists; worktree_add refused"
    assert git_spawns.argv == [] and git_spawns.total() == 0
    assert not (tmp_path / "elsewhere").exists()


def _large_repo(path: Path) -> Path:
    """A repository of 122 tracked files, above git's default
    ``checkout.thresholdForParallelism`` of 100, with an executable
    script and a symlink among them."""
    repo = init_git_repo(path)
    for i in range(120):
        module = repo / "pkg" / f"sub{i % 6}" / f"mod{i}.py"
        module.parent.mkdir(parents=True, exist_ok=True)
        module.write_text(f"VALUE = {i}\n" * (i % 7 + 1), encoding="utf-8")
    script = repo / "run.sh"
    script.write_text("#!/bin/sh\necho ok\n", encoding="utf-8")
    script.chmod(0o755)
    (repo / "latest").symlink_to("pkg/sub0/mod0.py")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "large tree")
    return repo


def test_sequential_checkout_of_a_large_tree_matches_the_main_checkout(tmp_path, git_spawns):
    repo = _large_repo(tmp_path / "repo")
    git = SubprocessGit()
    slot = tmp_path / "sandboxes" / "worktree-0"

    def assert_pristine() -> None:
        assert _git(slot, "status", "--porcelain", "--ignored") == ""
        assert _git(slot, "ls-files", "-s") == _git(repo, "ls-files", "-s")
        assert os.access(slot / "run.sh", os.X_OK)
        assert not os.access(slot / "pkg" / "sub0" / "mod0.py", os.X_OK)
        assert os.readlink(slot / "latest") == "pkg/sub0/mod0.py"

    git.worktree_add(repo, slot, "agent/builder/req-1", new_branch=True)
    assert_pristine()
    # a reset rewrites every file an agent changed
    for module in (slot / "pkg").rglob("*.py"):
        module.write_text("edited\n", encoding="utf-8")
    (slot / "run.sh").chmod(0o644)
    (slot / "latest").unlink()
    git.worktree_reset(repo, slot, "agent/builder/req-1", new_branch=False)
    assert_pristine()

    # git writes the files itself, with no worker processes
    assert len([argv for argv in git_spawns.argv if "checkout" in argv]) == 2
    workers = [argv for argv in git_spawns.starts() if argv[1] == "checkout--worker"]
    assert workers == [], workers


@pytest.mark.parametrize("new_branch", [True, False], ids=["unjournaled", "journaled"])
def test_worktree_reset_checks_out_a_surviving_branch_as_it_is(tmp_path, new_branch):
    repo = init_git_repo(tmp_path / "repo")
    git = SubprocessGit()
    # the tester's branch survives from an earlier session, one commit ahead
    git.worktree_add(repo, tmp_path / "earlier", "agent/tester/req-1", new_branch=True)
    (tmp_path / "earlier" / "kept.txt").write_text("kept\n", encoding="utf-8")
    _git(tmp_path / "earlier", "add", "kept.txt")
    _git(tmp_path / "earlier", "commit", "-q", "-m", "earlier session")
    kept = _git(repo, "rev-parse", "agent/tester/req-1")
    git.worktree_remove(repo, tmp_path / "earlier")
    slot = tmp_path / "worktree-0"
    git.worktree_add(repo, slot, "agent/builder/req-1", new_branch=True)

    # whether or not the journal knows of the branch
    git.worktree_reset(repo, slot, "agent/tester/req-1", new_branch=new_branch)

    assert _git(slot, "rev-parse", "HEAD") == kept
    assert (slot / "kept.txt").exists()


def test_worktree_reset_refuses_a_directory_that_is_not_a_worktree(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    (repo / "pyproject.toml").write_text("[project]\nname = 'edited'\n", encoding="utf-8")
    (repo / "notes.txt").write_text("keep me\n", encoding="utf-8")
    stray = repo / "stray"
    stray.mkdir()
    outside = tmp_path / "outside"
    outside.mkdir()
    git = SubprocessGit()
    for path in (stray, outside, repo, tmp_path / "absent"):
        for new_branch in (True, False):
            with pytest.raises(EnvironmentFailure) as refused:
                git.worktree_reset(repo, path, "main", new_branch=new_branch)
            assert str(refused.value) == (
                f"worktree reset failed: {path.resolve()} is not a linked worktree; worktree_reset refused"
            )
    # refused before any git process starts
    assert git_spawns.argv == [] and git_spawns.total() == 0
    # the main checkout keeps its edit and its untracked files
    assert "edited" in (repo / "pyproject.toml").read_text(encoding="utf-8")
    assert (repo / "notes.txt").exists()
    assert stray.is_dir()


def test_agent_branches_leave_the_target_config_as_it_was(tmp_path, monkeypatch):
    # a user whose every new branch tracks its start point
    config = tmp_path / "gitconfig"
    config.write_text(
        Path(os.environ["GIT_CONFIG_GLOBAL"]).read_text(encoding="utf-8")
        + "[branch]\n\tautoSetupMerge = always\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", str(config))
    repo = init_git_repo(tmp_path / "repo")
    before = (repo / ".git" / "config").read_bytes()
    git = RecordingGit()

    report, _, _ = run_scripted_workflow(tmp_path, 1, target_repo=repo, git=git)

    assert report.final_state == "REVIEW_PASSED"
    assert git.adds() == 2 and ("reset", "worktree-0") in git.calls
    assert (repo / ".git" / "config").read_bytes() == before


def test_git_processes_on_one_repository_never_overlap(tmp_path, monkeypatch):
    repo = init_git_repo(tmp_path / "repo")
    git = SubprocessGit()
    shared, kept = tmp_path / "shared", tmp_path / "kept"
    git.worktree_add(repo, shared, "agent/builder/req-1", new_branch=True)
    git.worktree_add(repo, kept, "agent/tester/req-1", new_branch=True)

    # every process below works on the one repository
    in_flight = peak = 0
    guard = threading.Lock()

    def run(argv, *args, **kwargs):
        nonlocal in_flight, peak
        with guard:
            in_flight += 1
            peak = max(peak, in_flight)
        try:
            time.sleep(0.002)  # widens the window in which unserialized calls overlap
            return subprocess.run(argv, *args, **kwargs)
        finally:
            with guard:
                in_flight -= 1

    monkeypatch.setattr(gitlayer, "subprocess", types.SimpleNamespace(run=run))
    done, failures = [], []

    def adds():
        for i in range(4):
            path, branch = tmp_path / f"add-{i}", f"agent/add-{i}/req-1"
            git.worktree_add(repo, path, branch, new_branch=True)
            done.append(path)

    def takeovers():
        # each a role's first dispatch into the one shared slot
        for i in range(4):
            git.worktree_reset(repo, shared, f"agent/role-{i}/req-1", new_branch=True)
            done.append(shared)

    def resets():
        for _ in range(4):
            git.worktree_reset(repo, kept, "agent/tester/req-1", new_branch=False)
            done.append(kept)

    def record_failure(work):
        try:
            work()
        except EnvironmentFailure as exc:
            failures.append(str(exc))

    threads = [threading.Thread(target=record_failure, args=(work,)) for work in (adds, takeovers, resets)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)

    assert failures == [] and len(done) == 12
    assert peak == 1


# --- what a subprocess agent leaves behind -------------------------------------


_AUDIT = "printf '# Audit\\n\\n| check | result |\\n|---|---|\\n| all | pass |\\n' > audit.md\n"


def test_a_builder_process_left_running_never_writes_into_the_tester_sandbox(tmp_path):
    record = tmp_path / "record"
    record.mkdir()
    record_q = shlex.quote(str(record))
    builder = f"""
cat >/dev/null
( sleep 1; echo planted > planted.txt; printf '| forged |\\n|---|\\n' > audit.md ) >/dev/null 2>&1 &
echo $! > {record_q}/left
printf '# Implementation\\n' > implementation.md
echo 'OUTCOME: COMPLETED'
"""
    # the tester's sandbox is the builder's slot, reset
    tester = f"cat >/dev/null\nsleep 2\nls > {record_q}/seen\n{_AUDIT}echo 'OUTCOME: COMPLETED'\n"
    backends = {R.BUILDER: SubprocessBackend(["sh", "-c", builder]),
                R.TESTER: SubprocessBackend(["sh", "-c", tester])}

    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, backends=backends)

    assert report.final_state == "PIPELINES_COMPLETE" and report.exit_code == 0
    assert process_ended(int((record / "left").read_text(encoding="utf-8")))
    assert "planted.txt" not in (record / "seen").read_text(encoding="utf-8").split()
    assert "| all | pass |" in run_dir.read(ArtifactKind.AUDIT)


def test_an_interrupted_batch_kills_the_agents_it_waits_for(tmp_path):
    record = tmp_path / "record"
    record.mkdir()
    record_q = shlex.quote(str(record))
    builder = f"sleep 20 >/dev/null 2>&1 & echo $! > {record_q}/left; echo $$ > {record_q}/agent; exec sleep 20"
    workflow = workflow_by_id(9)
    backends = {**scripted_backends(workflow), R.BUILDER: SubprocessBackend(["sh", "-c", builder])}
    repo = init_git_repo(tmp_path / "repo")
    git, clock = SubprocessGit(), TickClock()
    run_dir, request_id = start_run(
        runs_root=tmp_path / "runs", target_repo=repo, directive="interrupt", workflow=workflow,
        git=git, clock=clock,
    )
    orchestrator = Orchestrator(
        run_dir=run_dir, request_id=request_id, workflow=workflow, backends=backends,
        channel=UserChannel(mode=ChannelMode.SCRIPTED_ANSWERS), target_repo=repo, git=git, clock=clock,
    )

    def interrupt() -> None:
        # a terminal's Ctrl-C reaches the engine, not the agent's session
        deadline = time.monotonic() + 10
        while not (record / "agent").exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

    interrupter = threading.Thread(target=interrupt)
    interrupter.start()
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        orchestrator.run()
    interrupter.join(timeout=10)
    assert not interrupter.is_alive()

    assert time.monotonic() - started < 10
    for name in ("agent", "left"):
        assert process_ended(int((record / name).read_text(encoding="utf-8")))
    # the session is journaled as a halt and finalized before the interrupt
    # goes on: no checkout stays registered or held in the scratch root
    assert _git(repo, "worktree", "list").count("\n") == 1
    assert not run_dir.sandboxes_dir.exists()
    report = json.loads(run_dir.report_json_path.read_text(encoding="utf-8"))
    assert report["exit_code"] == 4
    assert "KeyboardInterrupt" in report["diagnostics"]["session"]


def test_an_error_that_is_no_failed_dispatch_leaves_the_run_after_its_batch(tmp_path, monkeypatch):
    # a RuntimeError is no failed dispatch: the session's thread raises the
    # first one, in batch order, once every dispatch of the batch has ended,
    # after journaling the session's halt and finalizing the run
    workflow = workflow_by_id(1)

    def refusing(role, *args, **kwargs):
        if role in (R.BUILDER, R.TESTER):
            raise RuntimeError(f"no sandbox for the {role.value}")
        return create_sandbox(role, *args, **kwargs)

    monkeypatch.setattr("gatework.orchestrator.create_sandbox", refusing)
    repo = init_git_repo(tmp_path / "repo")
    git, clock = SubprocessGit(), TickClock()
    run_dir, request_id = start_run(
        runs_root=tmp_path / "runs", target_repo=repo, directive="crash", workflow=workflow,
        git=git, clock=clock,
    )
    session = Orchestrator(
        run_dir=run_dir, request_id=request_id, workflow=workflow, backends=scripted_backends(workflow),
        channel=UserChannel(mode=ChannelMode.SCRIPTED_ANSWERS), target_repo=repo, git=git, clock=clock,
    )
    with pytest.raises(RuntimeError, match="no sandbox for the builder"):
        session.run()
    # the simulator's dispatch ran to its end; nothing of the batch was journaled
    assert "[attempt 1] scripted replay" in (run_dir.logs_dir / "simulator.log").read_text(encoding="utf-8")
    events = run_dir.events()
    assert [e["role"] for e in events if e["event"] == "dispatch"] == ["planner"]
    assert events[-1] == {
        "event": "halt", "diagnostics": {"session": "RuntimeError('no sandbox for the builder')"},
    }
    assert json.loads(run_dir.report_json_path.read_text(encoding="utf-8"))["exit_code"] == 4
    assert _git(repo, "worktree", "list").count("\n") == 1
    assert not run_dir.sandboxes_dir.exists()


def test_a_journal_that_does_not_parse_is_raised_before_the_session_writes(tmp_path):
    # the session's catch-all halt must not append to a journal it cannot read
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, builder_holds=1)
    assert report.pending
    run_dir.report_json_path.unlink()
    run_dir.journal_path.write_bytes(run_dir.journal_path.read_bytes()[:-5])
    journal = run_dir.journal_path.read_bytes()
    workflow = workflow_by_id(9)
    session = Orchestrator(
        run_dir=run_dir, request_id=run_dir.path.name, workflow=workflow,
        backends=scripted_backends(workflow),
        channel=UserChannel(mode=ChannelMode.SCRIPTED_ANSWERS, answers=("use defaults",)),
        target_repo=tmp_path / "repo", git=SubprocessGit(), clock=TickClock(),
    )
    with pytest.raises(RunDirectoryError):
        session.run()
    assert run_dir.journal_path.read_bytes() == journal
    assert not run_dir.report_json_path.exists()


_IMPLEMENTATION = "printf '# Implementation\\n' > implementation.md\n"
_COMPLETES = f"cat >/dev/null\n{_IMPLEMENTATION}echo 'OUTCOME: COMPLETED'\n"


@pytest.mark.parametrize("locker", [R.BUILDER, R.TESTER], ids=lambda role: role.value)
def test_a_worktree_its_agent_locked_is_removed_at_finalize(tmp_path, locker):
    # a builder's locked slot is reset for the tester first
    output = {R.BUILDER: _IMPLEMENTATION, R.TESTER: _AUDIT}[locker]
    script = f"cat >/dev/null\ngit worktree lock --reason mine \"$PWD\"\n{output}echo 'OUTCOME: COMPLETED'\n"
    backends = {**scripted_backends(workflow_by_id(9)), locker: SubprocessBackend(["sh", "-c", script])}
    git = RecordingGit()
    # run_scripted_workflow also checks that no worktree of the target is left
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, git=git, backends=backends)

    assert report.final_state == "PIPELINES_COMPLETE" and report.exit_code == 0, report.diagnostics
    assert git.calls == [("add", "worktree-0"), ("reset", "worktree-0")]
    assert not run_dir.sandboxes_dir.exists()


def test_a_slot_whose_git_link_its_agent_deleted_is_unregistered_at_finalize(tmp_path, git_spawns):
    script = f"cat >/dev/null\nrm .git\n{_IMPLEMENTATION}echo 'OUTCOME: COMPLETED'\n"
    backends = {**scripted_backends(workflow_by_id(9)), R.BUILDER: SubprocessBackend(["sh", "-c", script])}
    repo = init_git_repo(tmp_path / "repo")
    git = RecordingGit()
    # run_scripted_workflow also checks that `git worktree list` shows only the target
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git, backends=backends)

    # outside a linked worktree git would reset the target's own checkout
    assert "not a linked worktree" in report.diagnostics["tester"]
    assert git.calls == [("add", "worktree-0"), ("reset", "worktree-0")]
    assert not run_dir.sandboxes_dir.exists()
    # the start-up query, the add, and one `worktree remove` of the deleted slot
    assert git_spawns.total() == 5, git_spawns.starts()


def test_a_slot_directory_its_agent_deleted_whole_is_unregistered_at_finalize(tmp_path):
    script = f'cat >/dev/null\n{_IMPLEMENTATION}d=$PWD; cd ..; rm -rf "$d"\necho "OUTCOME: COMPLETED"\n'
    backends = {**scripted_backends(workflow_by_id(9)), R.BUILDER: SubprocessBackend(["sh", "-c", script])}
    repo = init_git_repo(tmp_path / "repo")
    git = RecordingGit()
    # run_scripted_workflow also checks that `git worktree list` shows only the target
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git, backends=backends)

    assert "without contracted artifact(s): ['implementation.md']" in report.diagnostics["builder"]
    assert git.calls == [("add", "worktree-0")]
    assert not run_dir.sandboxes_dir.exists()


def test_a_sandboxes_directory_its_agent_replaced_with_a_symlink_is_never_followed(tmp_path):
    # the builder moves the run's sandbox directory aside and links to it in its place
    swap = 'd=$(cd .. && pwd); mv "$d" "$d.moved"; ln -s "$d.moved" "$d"\n'
    script = f'cat >/dev/null\n{_IMPLEMENTATION}{swap}echo "OUTCOME: COMPLETED"\n'
    backends = {**scripted_backends(workflow_by_id(9)), R.BUILDER: SubprocessBackend(["sh", "-c", script])}
    repo = init_git_repo(tmp_path / "repo")
    git = RecordingGit()
    # run_scripted_workflow also checks that `git worktree list` shows only the target
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git, backends=backends)

    sandboxes = run_dir.sandboxes_dir
    assert report.exit_code == 4
    assert report.diagnostics == {"tester": f"sandbox creation failed: {sandboxes} is a symlink"}
    # no slot is reset through the symlink
    assert git.calls == [("add", "worktree-0")]
    assert report.dispatch_counts == {"builder": 1}
    assert run_dir.report_json_path.exists() and run_dir.report_text_path.exists()
    # the symlink is unlinked; the directory it pointed at is the agent's doing
    assert not sandboxes.is_symlink() and not sandboxes.exists()
    assert (sandboxes.with_name(f"{sandboxes.name}.moved") / "worktree-0" / "implementation.md").is_file()


def test_a_tracked_directory_at_an_input_name_fails_its_dispatch_alone(tmp_path):
    diagnostics = []
    for attempt in ("first", "second"):
        repo = init_git_repo(tmp_path / attempt / "repo", remote=tmp_path / attempt / "remote.git")
        (repo / "spec.md").mkdir()
        (repo / "spec.md" / "x").write_text("x\n", encoding="utf-8")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", "a directory named spec.md")
        report, run_dir, _ = run_scripted_workflow(tmp_path / attempt, 2, target_repo=repo)

        # the builder's spec.md cannot be written over the checked-out directory
        assert report.exit_code == 4
        assert list(report.diagnostics) == ["builder"]
        diagnostics.append(report.diagnostics["builder"])
        # the tester beside it ran, and the batch was journaled
        assert report.dispatch_counts["tester"] == 1 and "builder" not in report.dispatch_counts
        assert [(e["role"], e["outcome"]) for e in run_dir.events() if e["event"] == "dispatch"][-1] == (
            "tester", "completed",
        )
    # named by the input, never by the temporary it is written to first
    assert diagnostics == ["sandbox creation failed: input spec.md: Is a directory"] * 2


def test_an_artifact_that_is_not_utf8_fails_its_dispatch(tmp_path):
    script = "cat >/dev/null\nprintf 'caf\\351\\n' > implementation.md\necho 'OUTCOME: COMPLETED'\n"
    backends = {**scripted_backends(workflow_by_id(9)), R.BUILDER: SubprocessBackend(["sh", "-c", script])}
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, backends=backends)

    assert report.exit_code == 4 and list(report.diagnostics) == ["builder"]
    assert "implementation.md is not UTF-8" in report.diagnostics["builder"]
    # journaled like a dispatch that left its artifact missing
    assert [(r["role"], r["outcome"]) for r in run_dir.events() if r["event"] == "dispatch"] == [
        ("builder", "failed")
    ]
    assert report.dispatch_counts == {"builder": 1}
    assert not run_dir.exists(ArtifactKind.IMPLEMENTATION)
    assert not run_dir.sandboxes_dir.exists()


@contextlib.contextmanager
def _fifo_watchdog(record: Path, seconds: float = 5.0):
    """After ``seconds``, keep opening for writing the FIFO whose path the
    agent wrote to ``record``, which lets a reader blocked opening it go
    on; yields the list of the opens that found such a reader. A read that
    blocks on the FIFO so fails its test in seconds instead of hanging."""
    done, unblocked = threading.Event(), []

    def watch() -> None:
        done.wait(seconds)
        while not done.is_set():
            try:
                fifo = record.read_text(encoding="utf-8").strip()
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                unblocked.append(fifo)
            except OSError:  # no reader is blocked on it, or it is gone
                pass
            done.wait(0.1)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        yield unblocked
    finally:
        done.set()
        watcher.join(5)
    assert not watcher.is_alive()


@pytest.mark.parametrize(
    "make", ["mkdir implementation.md", "ln -s {outside} implementation.md",
             "ln -s {outside}.absent implementation.md", "mkfifo implementation.md"],
    ids=["directory", "symlink-out", "dangling-symlink", "fifo"],
)
def test_an_artifact_that_is_a_directory_fails_its_dispatch(tmp_path, make):
    # nor any other name that holds no regular file: none is followed or read
    outside, record = tmp_path / "outside.md", tmp_path / "fifo"
    outside.write_text("# Outside the sandbox\n", encoding="utf-8")
    made = make.format(outside=shlex.quote(str(outside)))
    script = f"cat >/dev/null\n{made}\necho \"$PWD/implementation.md\" > {shlex.quote(str(record))}\n" \
        "echo 'OUTCOME: COMPLETED'\n"
    backends = {**scripted_backends(workflow_by_id(9)), R.BUILDER: SubprocessBackend(["sh", "-c", script])}
    with _fifo_watchdog(record) as unblocked:
        report, run_dir, _ = run_scripted_workflow(tmp_path, 9, backends=backends)

    assert not unblocked, "the engine blocked reading a FIFO"
    assert report.exit_code == 4 and list(report.diagnostics) == ["builder"], report.diagnostics
    assert "implementation.md is not a regular file" in report.diagnostics["builder"]
    assert [(r["role"], r["outcome"]) for r in run_dir.events() if r["event"] == "dispatch"] == [
        ("builder", "failed")
    ]
    assert report.dispatch_counts == {"builder": 1}
    assert not run_dir.exists(ArtifactKind.IMPLEMENTATION)
    assert outside.read_text(encoding="utf-8") == "# Outside the sandbox\n"
    assert not run_dir.sandboxes_dir.exists()


def _tracking(repo: Path, name: str, text: str) -> Path:
    (repo / name).write_text(text, encoding="utf-8")
    _git(repo, "add", name)
    _git(repo, "commit", "-q", "-m", f"track {name}")
    return repo


def test_a_tracked_file_at_an_owed_name_is_not_credited_to_its_role(tmp_path):
    repo = _tracking(init_git_repo(tmp_path / "repo"), "implementation.md", "# The target's own\n")
    backends = {**scripted_backends(workflow_by_id(9)), R.BUILDER: ScriptedBackend.from_text("complete\n")}
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, backends=backends)

    assert report.exit_code == 4 and list(report.diagnostics) == ["builder"], report.diagnostics
    assert "implementation.md was not written by this dispatch" in report.diagnostics["builder"]
    assert not run_dir.exists(ArtifactKind.IMPLEMENTATION)


def test_a_tracked_file_at_an_accepted_alias_is_not_credited_to_its_role(tmp_path):
    repo = _tracking(init_git_repo(tmp_path / "repo"), "ARCHITECTURE.md", "# The target's own\n")
    scriber = "write log-entry.md <<EOF\n{}EOF\nwrite docs.md <<EOF\n# Docs\nEOF\ncomplete\n"
    backends = {
        **scripted_backends(workflow_by_id(3)),
        R.SCRIBER: ScriptedBackend.from_text(scriber.format(LOG_ENTRY_BODY)),
    }
    report, run_dir, _ = run_scripted_workflow(tmp_path, 3, target_repo=repo, backends=backends)

    assert report.exit_code == 4 and list(report.diagnostics) == ["scriber"], report.diagnostics
    assert "ARCHITECTURE.md was not written by this dispatch" in report.diagnostics["scriber"]
    assert report.final_state == "PIPELINES_COMPLETE"
    assert not run_dir.exists(ArtifactKind.ARCHITECTURE)


def test_a_tracked_file_its_role_rewrote_with_the_same_text_is_credited(tmp_path):
    repo = _tracking(init_git_repo(tmp_path / "repo"), "implementation.md", "# Implementation\n")
    backends = {**scripted_backends(workflow_by_id(9)), R.BUILDER: SubprocessBackend(["sh", "-c", _COMPLETES])}
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, backends=backends)

    assert report.final_state == "PIPELINES_COMPLETE" and report.exit_code == 0, report.diagnostics
    assert run_dir.read(ArtifactKind.IMPLEMENTATION) == "# Implementation\n"


def test_the_simulator_sandbox_holds_no_tracked_file_of_the_target(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    (repo / "estimator.py").write_text("def estimate(x):\n    return x\n", encoding="utf-8")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "the algorithm")
    record = tmp_path / "seen"
    script = (
        f"cat >/dev/null\nls -A > {shlex.quote(str(record))}\n"
        "printf '# Simulation\\n\\nwithin acceptance bands\\n' > simulation.md\n"
        "echo 'OUTCOME: COMPLETED'\n"
    )
    backends = {**scripted_backends(workflow_by_id(10)), R.SIMULATOR: SubprocessBackend(["sh", "-c", script])}
    git = RecordingGit()

    report, _, _ = run_scripted_workflow(tmp_path, 10, target_repo=repo, git=git, backends=backends)

    assert report.final_state == "REVIEW_PASSED", report.diagnostics
    seen = record.read_text(encoding="utf-8").split()
    # its input only: no file of the target, and no repository
    assert seen == ["sim-spec.md"]
    assert not set(seen) & set(_git(repo, "ls-files").split())
    # the tester, the batch's one worktree role, adds slot 0; the scriber takes it over
    assert git.calls == [("add", "worktree-0"), ("reset", "worktree-0")]


@pytest.mark.parametrize("locked", [False, True], ids=["registered", "locked"])
def test_a_session_resumes_after_its_scratch_directory_was_wiped(tmp_path, locked):
    """A reboot wipes the memory-backed scratch root, but not the target's
    registration of the worktrees a killed session left there."""
    workflow = workflow_by_id(9)
    repo = init_git_repo(tmp_path / "repo")
    git = RecordingGit()
    run_dir, request_id = start_run(
        runs_root=tmp_path / "runs", target_repo=repo, directive="scripted protocol exercise",
        workflow=workflow, git=git, clock=TickClock(),
    )
    left = run_dir.sandboxes_dir / "worktree-0"
    left.parent.mkdir()
    _git(repo, "worktree", "add", "-q", "--detach", str(left))
    if locked:
        _git(repo, "worktree", "lock", str(left))
    shutil.rmtree(run_dir.sandboxes_dir)
    assert str(left.resolve()) in _git(repo, "worktree", "list")

    report = Orchestrator(
        run_dir=run_dir, request_id=request_id, workflow=workflow, backends=scripted_backends(workflow),
        channel=UserChannel(mode=ChannelMode.SCRIPTED_ANSWERS, output_fn=lambda _: None),
        target_repo=repo, git=git, clock=TickClock(), directive="scripted protocol exercise",
    ).run()

    assert report.final_state == "PIPELINES_COMPLETE" and report.exit_code == 0, report.diagnostics
    assert git.calls == [("add", "worktree-0"), ("reset", "worktree-0")]
    assert _git(repo, "worktree", "list").count("\n") == 1
    assert not run_dir.sandboxes_dir.exists()
