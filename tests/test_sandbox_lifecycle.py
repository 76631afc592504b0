"""Sandbox lifecycle on real git: each role's sandbox is a plain
directory of its own, ``<sandboxes>/<role>``, holding the files of the
run's base commit, copied with no git process from the session's base
copy ``<sandboxes>/.base``, which one git process fills once per session;
a retry frees its sandbox and copies it again; the run's sandbox
directory is deleted at finalize, and nothing is registered in the
target."""

from __future__ import annotations

import contextlib
import errno
import json
import os
import shlex
import shutil
import signal
import stat
import subprocess
import sys
import threading
import time
import types
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    AUDIT_BODY,
    LOG_ENTRY_BODY,
    TEST_SPEC_BODY,
    RecordingGit,
    Spy,
    base_copy,
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
from gatework.rundir import RunDirectory
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
# also says whether the target is a repository), one `rev-parse` of the
# run's base commit, then one `read-tree`, the fill of the session's base
# copy, which the builder's and the tester's sandboxes are copied from:
# 1 + 1 + 1.
WF9_GIT_PROCESSES = 3
# Workflow 1 with 1 HOLD, 3 BLOCKs and 1 STOP dispatches builder 4x,
# tester 4x, scriber 2x, simulator 1x: 1 start-up query, 1 `rev-parse` of
# the base, and the one fill of the base copy; the 10 sandboxes of the
# filled roles are copies of it, and the simulator's is a plain
# directory: 1 + 1 + 1.
WF1_FULL_RETRY_GIT_PROCESSES = 3
# Workflow 2 shipping to a bare remote: 1 start-up query, 1 `rev-parse`,
# the one fill of the base copy (the builder's, tester's and scriber's
# sandboxes are copies), then `add -A`, `symbolic-ref`, `commit` and
# `push` (and the `receive-pack` it starts) on the target: 1 + 1 + 1 + 5.
WF2_SHIP_GIT_PROCESSES = 8


def test_git_spawns_per_run_workflow_9(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    git = RecordingGit()
    report, _, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git)
    assert report.final_state == "PIPELINES_COMPLETE"
    assert git_spawns.total() == WF9_GIT_PROCESSES, git_spawns.starts()
    # one fill per session; each role's sandbox is a copy of it
    assert git.calls == [("add", ".base")]


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
    # one fill for the session; each retry first frees what the role's
    # attempt before it left
    assert Counter(git.calls) == {
        ("add", ".base"): 1, ("remove", "builder"): 3, ("remove", "tester"): 3, ("remove", "scriber"): 1,
    }


def test_git_spawns_per_run_workflow_2_shipping(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo", remote=tmp_path / "remote.git")
    git = RecordingGit()
    report, _, _ = run_scripted_workflow(
        tmp_path, 2, target_repo=repo, git=git, authorization="tok"
    )
    assert report.final_state == "DONE"
    assert report.ship["shipped"] is True
    assert git_spawns.total() == WF2_SHIP_GIT_PROCESSES, git_spawns.starts()
    assert git.adds() == 1


def _fixture_repo(path: Path) -> Path:
    """A target tracking ``tracked.txt`` and a ``.gitignore`` of ``*.log``."""
    repo = init_git_repo(path)
    (repo / "tracked.txt").write_text("original\n", encoding="utf-8")
    (repo / ".gitignore").write_text("*.log\n", encoding="utf-8")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "fixture")
    return repo


#: lists the sandbox as an agent finds it: every path in it with its mode
_LIST = "find . -mindepth 1 -printf '%M %p\\n' | LC_ALL=C sort"


def _listing(repo: Path, names: list[str]) -> list[str]:
    """What ``_LIST`` prints of a sandbox holding ``names``, each a plain
    file, written with the mode ``tracked.txt`` has in ``repo``."""
    mode = stat.filemode((repo / "tracked.txt").lstat().st_mode)
    return sorted(f"{mode} ./{name}" for name in names)


def _dirtying_builder(record_dir: Path) -> SubprocessBackend:
    """Records the sandbox as it finds it, then on its first attempt
    leaves every kind of residue a real agent could leave behind."""
    record = shlex.quote(str(record_dir))
    script = f"""
cat >/dev/null
n=$(ls {record} | wc -l); n=$((n + 1))
{{ {_LIST}; cat tracked.txt; }} > {record}/attempt-$n.txt
if [ "$n" = 1 ]; then
  echo edited >> tracked.txt
  chmod +x tracked.txt
  echo junk > untracked.txt
  echo junk > build.log
  mkdir -p scratch/deep
  echo junk > scratch/deep/junk.txt
  echo stale > audit.md
fi
printf '# Implementation\\n\\nattempt %s\\n' "$n" > implementation.md
echo 'OUTCOME: COMPLETED'
"""
    return SubprocessBackend(["sh", "-c", script])


def test_retry_attempt_starts_from_pristine_checkout(tmp_path):
    repo = _fixture_repo(tmp_path / "repo")
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
    # a retry frees its role's sandbox, then copies it again
    assert git.calls == [("add", ".base"), ("remove", "builder"), ("remove", "tester")]
    first = (record / "attempt-1.txt").read_text(encoding="utf-8")
    second = (record / "attempt-2.txt").read_text(encoding="utf-8")
    assert first.splitlines() == [*_listing(repo, [".gitignore", "pyproject.toml", "tracked.txt"]), "original"]
    # The retry finds exactly what the first attempt found: no tracked
    # edit, mode, untracked or ignored file or artifact of the first
    # attempt survives, its own implementation.md included.
    assert second == first
    assert "attempt 2" in run_dir.read(ArtifactKind.IMPLEMENTATION)
    assert _git(repo, "status", "--porcelain") == ""


def _residue_builder() -> SubprocessBackend:
    """Leaves a new file, a tracked edit, an untracked directory and an
    ignored file."""
    script = f"""
cat >/dev/null
echo feature > feature.txt
echo edited >> tracked.txt
mkdir -p scratch/deep
echo junk > scratch/deep/junk.txt
echo junk > build.log
{_IMPLEMENTATION}echo 'OUTCOME: COMPLETED'
"""
    return SubprocessBackend(["sh", "-c", script])


def _recording_tester(record: Path) -> SubprocessBackend:
    """Records its granted inputs and its sandbox as it finds it, each
    attempt in a file of its own; on its first attempt leaves residue of
    its own and BLOCKs, then completes."""
    record_q = shlex.quote(str(record))
    script = f"""
n=$(ls {record_q} | grep -c '^tester-') ; n=$((n + 1))
grep '^granted artifacts:' > {record_q}/granted-$n
{{ {_LIST}; cat tracked.txt; }} > {record_q}/tester-$n
if [ "$n" = 1 ]; then
  echo tester > tester.txt
  echo edited >> tracked.txt
  echo junk > untracked.txt
  echo junk > test.log
  printf 'placebo test failure\\n' > block.txt
  echo 'OUTCOME: SIGNAL BLOCK block.txt'
else
  {_AUDIT}  echo 'OUTCOME: COMPLETED'
fi
"""
    return SubprocessBackend(["sh", "-c", script])


def test_a_role_finds_nothing_of_an_earlier_role_or_attempt(tmp_path):
    repo = _fixture_repo(tmp_path / "repo")
    record = tmp_path / "record"
    record.mkdir()
    backends = {R.BUILDER: _residue_builder(), R.TESTER: _recording_tester(record)}
    git = RecordingGit()

    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git, backends=backends)

    assert report.final_state == "PIPELINES_COMPLETE", report.diagnostics
    assert report.dispatch_counts == {"builder": 2, "tester": 2}
    read = lambda name: (record / name).read_text(encoding="utf-8")
    for attempt in (1, 2):
        granted = read(f"granted-{attempt}").removeprefix("granted artifacts: ").strip()
        inputs = [] if granted == "(none)" else granted.split(", ")
        # the tree of the base and the tester's own inputs only: nothing
        # the builder or the tester's first attempt made, edited, left
        # untracked or ignored
        files = _listing(repo, [".gitignore", "pyproject.toml", "tracked.txt", *inputs])
        assert read(f"tester-{attempt}").splitlines() == [*files, "original"]
    assert _git(repo, "status", "--porcelain") == ""


def test_a_resumed_session_fills_from_the_journaled_base(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    base = _git(repo, "rev-parse", "HEAD").strip()
    first, run_dir, _ = run_scripted_workflow(tmp_path, 2, target_repo=repo, builder_holds=1)
    assert first.escalation is not None
    # the target moves on between the sessions
    _tracking(repo, "later.txt", "later\n")

    workflow = workflow_by_id(2)
    seen: list = []
    backends = scripted_backends(workflow, builder_holds=1)
    backends[R.BUILDER] = Spy(
        backends[R.BUILDER], seen, lambda req: (sorted(p.name for p in req.sandbox.path.iterdir()), req.briefing)
    )
    resumed_git = RecordingGit()
    git_spawns.clear()
    resumed = Orchestrator(
        run_dir=run_dir,
        request_id=run_dir.path.name,
        workflow=workflow,
        backends=backends,
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
    # the sandboxes and the base copy were freed at the end of session 1,
    # so this session fills its own base copy once; the builder's second
    # attempt and the scriber are copies of it
    assert resumed_git.calls == [("add", ".base")]
    # from the commit session 1 journaled, which git is not asked for again
    assert [e for e in run_dir.events() if e["event"] == "base"] == [{"event": "base", "commit": base}]
    assert [argv[-4:] for argv in git_spawns.argv] == [["read-tree", "--reset", "-u", base]]
    names, briefing = seen[0]
    assert "later.txt" not in names and "pyproject.toml" in names
    assert f"sandbox: a plain copy of the target at commit {base}, not a git repository\n" in briefing


def test_every_fill_of_a_run_holds_its_base_when_the_target_moves_on(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    base = _git(repo, "rev-parse", "HEAD").strip()
    # the builder commits to the target itself, outside its sandbox
    target_q = shlex.quote(str(repo))
    builder = (
        f"cat >/dev/null\necho later > {target_q}/later.txt\n"
        f"git -C {target_q} add later.txt && git -C {target_q} commit -q -m later\n"
        f"{_IMPLEMENTATION}echo 'OUTCOME: COMPLETED'\n"
    )
    seen: list = []
    workflow = workflow_by_id(9)
    backends = {**scripted_backends(workflow), R.BUILDER: SubprocessBackend(["sh", "-c", builder])}
    backends[R.TESTER] = Spy(backends[R.TESTER], seen, lambda req: sorted(p.name for p in req.sandbox.path.iterdir()))

    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, backends=backends)

    assert report.final_state == "PIPELINES_COMPLETE", report.diagnostics
    assert _git(repo, "rev-parse", "HEAD").strip() != base
    # the tester, filled after the commit, holds the base the run journaled
    assert [e for e in run_dir.events() if e["event"] == "base"] == [{"event": "base", "commit": base}]
    assert "later.txt" not in seen[0] and "pyproject.toml" in seen[0]


def test_a_target_without_a_commit_halts_before_any_fill(tmp_path):
    repo = tmp_path / "repo"
    subprocess.run(["git", "init", "-q", "-b", "main", str(repo)], check=True)
    (repo / "pyproject.toml").write_text("[project]\nname = 'fixture'\n", encoding="utf-8")
    git = RecordingGit()

    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git)

    assert report.exit_code == 4
    assert report.diagnostics == {"environment": f"no commit in {repo.resolve()} to fill sandboxes from"}
    assert report.dispatch_counts == {} and git.calls == []
    assert not [e for e in run_dir.events() if e["event"] in ("base", "dispatch")]


def test_only_a_filled_role_is_briefed_that_its_sandbox_is_a_copy_of_the_target(tmp_path):
    seen: list = []
    workflow = workflow_by_id(10)
    backends = {
        role: Spy(backend, seen, lambda req: (req.role, req.briefing))
        for role, backend in scripted_backends(workflow).items()
    }
    report, run_dir, _ = run_scripted_workflow(tmp_path, 10, backends=backends)

    assert report.final_state == "REVIEW_PASSED", report.diagnostics
    (base,) = [e["commit"] for e in run_dir.events() if e["event"] == "base"]
    line = f"sandbox: a plain copy of the target at commit {base}, not a git repository"
    briefed = {role for role, briefing in seen if line in briefing.splitlines()}
    assert briefed == {R.TESTER, R.SCRIBER}
    assert {role for role, _ in seen} > briefed


def test_a_fill_takes_one_git_process_and_registers_nothing_in_the_target(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    base = _git(repo, "rev-parse", "HEAD").strip()
    refs, index = _git(repo, "for-each-ref"), (repo / ".git" / "index").read_bytes()
    path = tmp_path / "sandbox"

    SubprocessGit().worktree_add(repo, path, base)

    assert [argv[3:] for argv in git_spawns.argv] == [
        ["-c", "core.sparseCheckout=false", f"--work-tree={path.resolve()}", "read-tree", "--reset", "-u", base],
    ]
    assert git_spawns.total() == 1, git_spawns.starts()
    # the files of the base, and no repository
    assert sorted(p.name for p in path.iterdir()) == ["pyproject.toml"]
    assert subprocess.run(["git", "-C", str(path), "rev-parse"], capture_output=True).returncode != 0
    # nothing of the target changed: no ref, worktree or index entry
    assert _git(repo, "for-each-ref") == refs
    assert _git(repo, "worktree", "list").count("\n") == 1
    assert (repo / ".git" / "index").read_bytes() == index


def test_a_failed_fill_raises_and_leaves_the_target_as_it_was(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    refs, listed = _git(repo, "for-each-ref"), _git(repo, "worktree", "list", "--porcelain")
    path = tmp_path / "sandbox"

    with pytest.raises(EnvironmentFailure, match="^sandbox creation failed: .*0{40}"):
        SubprocessGit().worktree_add(repo, path, "0" * 40)

    # fails closed: an empty directory, nothing to work on
    assert list(path.iterdir()) == []
    assert _git(repo, "for-each-ref") == refs
    assert _git(repo, "worktree", "list", "--porcelain") == listed


def test_a_fill_refuses_an_existing_path(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    occupied = tmp_path / "occupied"
    occupied.mkdir()
    (occupied / "keep.txt").write_text("keep\n", encoding="utf-8")

    with pytest.raises(EnvironmentFailure) as refused:
        SubprocessGit().worktree_add(repo, occupied, _git(repo, "rev-parse", "HEAD").strip())

    assert str(refused.value) == f"sandbox creation failed: {occupied} already exists; worktree_add refused"
    assert git_spawns.argv == [] and git_spawns.total() == 0
    assert [p.name for p in occupied.iterdir()] == ["keep.txt"]


def test_freeing_a_filled_sandbox_takes_no_git_process(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    git = SubprocessGit()
    sandbox = tmp_path / "sandbox"
    git.worktree_add(repo, sandbox, _git(repo, "rev-parse", "HEAD").strip())
    (sandbox / "deep" / "er").mkdir(parents=True)
    (sandbox / "deep" / "er" / "left.txt").write_text("left\n", encoding="utf-8")
    outside = tmp_path / "outside"
    outside.mkdir()
    (sandbox / "elsewhere").symlink_to(outside)
    git_spawns.clear()

    git.worktree_remove(repo, sandbox)

    assert not sandbox.exists()
    assert git_spawns.argv == [] and git_spawns.total() == 0
    # the symlink went, not what it pointed at
    assert outside.is_dir()


def test_a_refill_leaves_nothing_an_agent_made_in_its_sandbox(tmp_path):
    repo = _fixture_repo(tmp_path / "repo")
    run_dir, clock, git = RunDirectory(tmp_path / "run").create(), TickClock(), SubprocessGit()
    base = base_copy(repo, run_dir, git)
    sandbox = create_sandbox(R.BUILDER, base, run_dir=run_dir, clock=clock).path
    # what a fill of a non-empty directory would leave behind: a nested
    # repository, an ignored file, a tracked file replaced by a directory,
    # and a symlink to a directory outside the sandbox
    init_git_repo(sandbox / "vendored")
    (sandbox / "build.log").write_text("junk\n", encoding="utf-8")
    (sandbox / "tracked.txt").unlink()
    (sandbox / "tracked.txt").mkdir()
    (sandbox / "tracked.txt" / "inner.txt").write_text("inner\n", encoding="utf-8")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "keep.txt").write_text("keep\n", encoding="utf-8")
    (sandbox / "elsewhere").symlink_to(outside)

    again = create_sandbox(R.BUILDER, base, run_dir=run_dir, clock=clock).path

    assert again == sandbox
    assert sorted(p.name for p in sandbox.iterdir()) == [".gitignore", "pyproject.toml", "tracked.txt"]
    assert (sandbox / "tracked.txt").read_text(encoding="utf-8") == "original\n"
    # the symlink went, not what it pointed at
    assert [p.name for p in outside.iterdir()] == ["keep.txt"]


def test_a_sandbox_that_cannot_be_emptied_fails_its_retry_as_a_diagnostic(tmp_path, monkeypatch):
    def refuse(path):
        raise PermissionError(13, "Permission denied", str(Path(path) / "locked"))

    monkeypatch.setattr(gitlayer, "shutil", types.SimpleNamespace(rmtree=refuse))
    git = RecordingGit()
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, git=git, tester_blocks=1)

    assert report.exit_code == 4 and list(report.diagnostics) == ["builder"]
    builder = run_dir.sandboxes_dir / "builder"
    assert report.diagnostics["builder"] == f"sandbox creation failed: {builder}: Permission denied"
    assert git.calls == [("add", ".base"), ("remove", "builder")]
    assert report.dispatch_counts == {"builder": 1, "tester": 1}
    assert not run_dir.sandboxes_dir.exists()


def test_a_symlink_at_a_filled_sandbox_is_refused_and_never_followed(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    run_dir, clock, git = RunDirectory(tmp_path / "run").create(), TickClock(), SubprocessGit()
    other = create_sandbox(R.BUILDER, base_copy(repo, run_dir, git), run_dir=run_dir, clock=clock).path
    (other / "pyproject.toml").write_text("[project]\nname = 'edited'\n", encoding="utf-8")
    (other / "notes.txt").write_text("keep me\n", encoding="utf-8")
    path = run_dir.sandboxes_dir / "tester"
    path.symlink_to(other)
    # a base copy not yet filled, as in a session's first batch
    unfilled = base_copy(repo, run_dir, git)
    git_spawns.clear()

    with pytest.raises(EnvironmentFailure) as refused:
        create_sandbox(R.TESTER, unfilled, run_dir=run_dir, clock=clock)

    assert str(refused.value) == f"sandbox creation failed: {path} is a symlink"
    # refused before any git process starts, and before anything is deleted
    assert git_spawns.argv == [] and git_spawns.total() == 0
    assert (other / "notes.txt").read_text(encoding="utf-8") == "keep me\n"
    assert "edited" in (other / "pyproject.toml").read_text(encoding="utf-8")


def test_worktree_add_refuses_a_dangling_symlink(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    sandbox = tmp_path / "builder"
    sandbox.symlink_to(tmp_path / "elsewhere")

    with pytest.raises(EnvironmentFailure) as refused:
        SubprocessGit().worktree_add(repo, sandbox, _git(repo, "rev-parse", "HEAD").strip())

    assert str(refused.value) == f"sandbox creation failed: {sandbox} already exists; worktree_add refused"
    assert git_spawns.argv == [] and git_spawns.total() == 0
    assert not (tmp_path / "elsewhere").exists()


#: a tracked file name holding a space, a newline and a byte that is not UTF-8
_ODD_NAME = os.fsdecode(b"odd name\nwith \xff.txt")


def _large_repo(path: Path, outside: Path) -> Path:
    """A repository of 124 tracked entries, above git's default
    ``checkout.thresholdForParallelism`` of 100: an executable script, a
    symlink inside the tree and one to ``outside``, a file with an odd
    name, and a submodule entry among them."""
    repo = init_git_repo(path)
    for i in range(120):
        module = repo / "pkg" / f"sub{i % 6}" / f"mod{i}.py"
        module.parent.mkdir(parents=True, exist_ok=True)
        module.write_text(f"VALUE = {i}\n" * (i % 7 + 1), encoding="utf-8")
    script = repo / "run.sh"
    script.write_text("#!/bin/sh\necho ok\n", encoding="utf-8")
    script.chmod(0o755)
    (repo / "latest").symlink_to("pkg/sub0/mod0.py")
    (repo / "outside").symlink_to(outside)
    (repo / "pkg" / _ODD_NAME).write_bytes(b"odd\n")
    _git(repo, "add", "-A")
    # the gitlink `git submodule add` records, to a commit of the target itself
    seed = _git(repo, "rev-parse", "HEAD").strip()
    _git(repo, "update-index", "--add", "--cacheinfo", f"160000,{seed},vendor/lib")
    _git(repo, "commit", "-q", "-m", "large tree")
    return repo


def test_sequential_fill_of_a_large_tree_matches_the_base_commit(tmp_path, git_spawns):
    outside = tmp_path / "outside.txt"
    outside.write_text("outside\n", encoding="utf-8")
    repo = _large_repo(tmp_path / "repo", outside)
    run_dir, clock, git = RunDirectory(tmp_path / "run").create(), TickClock(), SubprocessGit()
    base = base_copy(repo, run_dir, git)
    probe = tmp_path / "probe-index"

    def assert_pristine(sandbox: Path) -> None:
        # the sandbox as git would stage it, in a throwaway index that
        # starts from the base's tree, with no stat data, so git reads
        # every file: every path, mode and blob of the base, and nothing else
        probe.unlink(missing_ok=True)
        env = {**os.environ, "GIT_INDEX_FILE": str(probe)}
        gitdir = f"--git-dir={repo / '.git'}"
        subprocess.run(["git", gitdir, "read-tree", base.commit], env=env, check=True)
        subprocess.run(["git", gitdir, f"--work-tree={sandbox}", "add", "-A"], cwd=sandbox, env=env, check=True)
        staged = subprocess.run(["git", gitdir, "ls-files", "-s"], env=env, capture_output=True, text=True)
        assert staged.stdout == _git(repo, "ls-files", "-s")
        assert os.access(sandbox / "run.sh", os.X_OK)
        assert not os.access(sandbox / "pkg" / "sub0" / "mod0.py", os.X_OK)
        assert os.readlink(sandbox / "latest") == "pkg/sub0/mod0.py"
        # a link, kept as one, and what it names is never written
        assert os.readlink(sandbox / "outside") == str(outside)
        assert outside.read_text(encoding="utf-8") == "outside\n"
        assert (sandbox / "pkg" / _ODD_NAME).read_bytes() == b"odd\n"
        assert list((sandbox / "vendor" / "lib").iterdir()) == []

    sandbox = create_sandbox(R.BUILDER, base, run_dir=run_dir, clock=clock).path
    assert_pristine(sandbox)
    # a retry copies again every file an agent changed
    for module in (sandbox / "pkg").rglob("*.py"):
        module.write_text("edited\n", encoding="utf-8")
    (sandbox / "run.sh").chmod(0o644)
    (sandbox / "latest").unlink()
    (sandbox / "vendor" / "lib" / "junk.txt").write_text("junk\n", encoding="utf-8")
    create_sandbox(R.BUILDER, base, run_dir=run_dir, clock=clock)
    assert_pristine(sandbox)
    # and a sandbox of another role is a copy of the same base
    assert_pristine(create_sandbox(R.TESTER, base, run_dir=run_dir, clock=clock).path)

    # git fills the base copy once, writing the files itself, with no
    # worker processes
    assert len([argv for argv in git_spawns.argv if "read-tree" in argv]) == 1
    workers = [argv for argv in git_spawns.starts() if argv[1] == "checkout--worker"]
    assert workers == [], workers


def test_a_fill_holds_the_base_commit_whatever_the_main_checkout_holds(tmp_path):
    repo = _fixture_repo(tmp_path / "repo")
    base = _git(repo, "rev-parse", "HEAD").strip()
    # the target moves on, and its checkout holds staged, edited and
    # untracked changes
    _tracking(repo, "later.txt", "later\n")
    (repo / "staged.txt").write_text("staged\n", encoding="utf-8")
    _git(repo, "add", "staged.txt")
    (repo / "tracked.txt").write_text("edited\n", encoding="utf-8")
    (repo / "notes.txt").write_text("keep me\n", encoding="utf-8")
    status, index = _git(repo, "status", "--porcelain"), (repo / ".git" / "index").read_bytes()
    sandbox = tmp_path / "sandbox"

    SubprocessGit().worktree_add(repo, sandbox, base)

    assert sorted(p.name for p in sandbox.iterdir()) == [".gitignore", "pyproject.toml", "tracked.txt"]
    assert (sandbox / "tracked.txt").read_text(encoding="utf-8") == "original\n"
    # and the main checkout keeps every change
    assert _git(repo, "status", "--porcelain") == status
    assert (repo / ".git" / "index").read_bytes() == index
    assert (repo / "tracked.txt").read_text(encoding="utf-8") == "edited\n"


def test_a_fill_of_a_sparse_checkout_target_holds_every_file_of_the_base(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    for name in ("kept/a.txt", "skipped/b.txt"):
        (repo / name).parent.mkdir()
        (repo / name).write_text(f"{name}\n", encoding="utf-8")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "two directories")
    # the user's checkout holds kept/ only
    _git(repo, "sparse-checkout", "set", "kept")
    assert not (repo / "skipped").exists()
    sandbox = tmp_path / "sandbox"

    SubprocessGit().worktree_add(repo, sandbox, _git(repo, "rev-parse", "HEAD").strip())

    assert (sandbox / "skipped" / "b.txt").read_text(encoding="utf-8") == "skipped/b.txt\n"
    assert (sandbox / "kept" / "a.txt").read_text(encoding="utf-8") == "kept/a.txt\n"
    # and the user's checkout stays sparse
    assert not (repo / "skipped").exists()
    assert _git(repo, "status", "--porcelain") == ""


def test_a_fill_of_a_submodule_entry_holds_an_empty_directory(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    seed = _git(repo, "rev-parse", "HEAD").strip()
    # the gitlink `git submodule add` records, here to a commit of the
    # target itself; no submodule is cloned
    _git(repo, "update-index", "--add", "--cacheinfo", f"160000,{seed},vendor/lib")
    _git(repo, "commit", "-q", "-m", "a submodule")
    sandbox = tmp_path / "sandbox"

    SubprocessGit().worktree_add(repo, sandbox, _git(repo, "rev-parse", "HEAD").strip())

    assert sorted(p.name for p in sandbox.iterdir()) == ["pyproject.toml", "vendor"]
    assert list((sandbox / "vendor" / "lib").iterdir()) == []


def test_a_fill_writes_its_index_outside_the_sandbox_and_deletes_it(tmp_path, monkeypatch):
    repo = init_git_repo(tmp_path / "repo")
    base = _git(repo, "rev-parse", "HEAD").strip()
    target_index = (repo / ".git" / "index").read_bytes()
    # an index the engine inherits, as it would under a git hook, is
    # neither read nor written
    inherited = tmp_path / "inherited-index"
    monkeypatch.setenv("GIT_INDEX_FILE", str(inherited))
    indexes: list[Path] = []

    def run(argv, *args, **kwargs):
        indexes.append(Path(kwargs["env"]["GIT_INDEX_FILE"]))
        return subprocess.run(argv, *args, **kwargs)

    monkeypatch.setattr(gitlayer, "subprocess", types.SimpleNamespace(run=run))
    sandbox = tmp_path / "sandbox"

    SubprocessGit().worktree_add(repo, sandbox, base)

    (index,) = indexes
    assert sandbox.resolve() not in index.resolve().parents
    assert not index.parent.exists()
    assert sorted(p.name for p in sandbox.iterdir()) == ["pyproject.toml"]
    assert not inherited.exists()
    assert (repo / ".git" / "index").read_bytes() == target_index


def test_a_run_leaves_the_target_config_as_it_was(tmp_path, monkeypatch):
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
    assert git.adds() == 1
    assert (repo / ".git" / "config").read_bytes() == before


def test_git_processes_on_one_repository_never_overlap(tmp_path, monkeypatch):
    repo = init_git_repo(tmp_path / "repo")
    base = _git(repo, "rev-parse", "HEAD").strip()
    git = SubprocessGit()

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

    def fills(name: str):
        # each a first dispatch into a sandbox of its own
        for i in range(4):
            path = tmp_path / f"{name}-{i}"
            git.worktree_add(repo, path, base)
            done.append(path)

    def refills():
        # each a retry into the one sandbox of a role
        kept = tmp_path / "kept"
        for _ in range(4):
            if kept.exists():
                git.worktree_remove(repo, kept)
            git.worktree_add(repo, kept, base)
            done.append(kept)

    def record_failure(work, *args):
        try:
            work(*args)
        except EnvironmentFailure as exc:
            failures.append(str(exc))

    threads = [
        threading.Thread(target=record_failure, args=work)
        for work in ((fills, "builder"), (fills, "tester"), (refills,))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)

    assert failures == [] and len(done) == 12
    assert peak == 1


# --- what a sandbox is not ----------------------------------------------------


def test_the_targets_hooks_never_run_in_a_sandbox(tmp_path):
    repo = init_git_repo(tmp_path / "repo")
    hooks, marker = tmp_path / "hooks", tmp_path / "hook-ran"
    hooks.mkdir()
    hook = hooks / "post-checkout"
    hook.write_text(f"#!/bin/sh\npwd >> {shlex.quote(str(marker))}\n", encoding="utf-8")
    hook.chmod(0o755)
    _git(repo, "config", "core.hooksPath", str(hooks))

    report, _, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo)

    assert report.final_state == "PIPELINES_COMPLETE", report.diagnostics
    assert not marker.exists(), marker.read_text(encoding="utf-8")
    # the hook itself runs on a checkout in the target
    _git(repo, "checkout", "-q", "-b", "probe")
    assert marker.exists()


#: a line of the test specification the tester alone may read
_GROUND_TRUTH = "empty-input and single-row edge cases must be covered"


def test_a_file_one_role_stages_cannot_be_read_through_git_by_another(tmp_path):
    assert _GROUND_TRUTH in TEST_SPEC_BODY
    record = tmp_path / "record"
    record.mkdir()
    record_q = shlex.quote(str(record))
    # a routine `git add -A` in the tester's sandbox, which holds test-spec.md
    tester = f"""
cat >/dev/null
git add -A > {record_q}/tester-add 2>&1
cat > audit.md <<'EOF'
{AUDIT_BODY}EOF
echo 'OUTCOME: COMPLETED'
"""
    # a later role prints every blob git can reach from its own sandbox
    scriber = f"""
cat >/dev/null
git rev-parse > {record_q}/scriber-rev-parse 2>&1; echo "exit $?" >> {record_q}/scriber-rev-parse
git cat-file --batch-all-objects --batch-check='%(objectname) %(objecttype)' 2>/dev/null |
  while read -r name kind; do [ "$kind" = blob ] && git cat-file -p "$name"; done > {record_q}/blobs
printf '# Architecture\\n\\nModules.\\n' > Architecture.md
cat > log-entry.md <<'EOF'
{LOG_ENTRY_BODY}EOF
printf '# Docs\\n\\nUsage.\\n' > docs.md
echo 'OUTCOME: COMPLETED'
"""
    backends = {
        **scripted_backends(workflow_by_id(2)),
        R.TESTER: SubprocessBackend(["sh", "-c", tester]),
        R.SCRIBER: SubprocessBackend(["sh", "-c", scriber]),
    }

    report, _, _ = run_scripted_workflow(tmp_path, 2, backends=backends)

    assert report.final_state == "READY_TO_SHIP", report.diagnostics
    assert report.dispatch_counts["scriber"] == 1
    assert _GROUND_TRUTH not in (record / "blobs").read_text(encoding="utf-8")
    # no git repository encloses a sandbox, so the staged file went nowhere
    assert not (record / "scriber-rev-parse").read_text(encoding="utf-8").endswith("exit 0\n")


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
    # the tester's sandbox is a directory of its own
    tester = f"cat >/dev/null\nsleep 2\nls > {record_q}/seen\n{_AUDIT}echo 'OUTCOME: COMPLETED'\n"
    backends = {R.BUILDER: SubprocessBackend(["sh", "-c", builder]),
                R.TESTER: SubprocessBackend(["sh", "-c", tester])}

    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, backends=backends)

    assert report.final_state == "PIPELINES_COMPLETE" and report.exit_code == 0
    assert process_ended(int((record / "left").read_text(encoding="utf-8")))
    assert "planted.txt" not in (record / "seen").read_text(encoding="utf-8").split()
    assert "| all | pass |" in run_dir.read(ArtifactKind.AUDIT)


def test_a_base_copy_an_agent_altered_fails_the_next_copy_and_reaches_no_sandbox(tmp_path, monkeypatch):
    # the base copy is a sibling of every sandbox, so an agent can write to it
    record = tmp_path / "tampered"
    builder = (
        f"cat >/dev/null\necho tampered >> ../.base/pyproject.toml\ntouch {shlex.quote(str(record))}\n"
        f"{_IMPLEMENTATION}echo 'OUTCOME: COMPLETED'\n"
    )
    workflow = workflow_by_id(9)
    backends = {**scripted_backends(workflow), R.BUILDER: SubprocessBackend(["sh", "-c", builder])}
    made: dict = {}

    def after_the_builder(role, *args, **kwargs):
        # the tester's sandbox is copied once the builder has written
        if role is R.TESTER:
            deadline = time.monotonic() + 10
            while not record.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        path = kwargs["run_dir"].sandboxes_dir / role.value
        try:
            return create_sandbox(role, *args, **kwargs)
        finally:
            made[role] = {p.name: p.read_bytes() for p in path.iterdir() if p.is_file()}

    monkeypatch.setattr("gatework.orchestrator.create_sandbox", after_the_builder)
    repo = init_git_repo(tmp_path / "repo")
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, backends=backends)

    assert record.exists()
    assert report.exit_code == 4
    assert report.diagnostics == {"tester": "sandbox creation failed: base copy altered: pyproject.toml"}
    assert report.dispatch_counts == {"builder": 1}
    assert not any(b"tampered" in data for data in made[R.TESTER].values()), made[R.TESTER]

    # the next session fills a base copy of its own: nothing of the altered
    # one survives into the tester's attempt
    monkeypatch.setattr("gatework.orchestrator.create_sandbox", create_sandbox)
    seen: list = []
    backends = scripted_backends(workflow)
    backends[R.TESTER] = Spy(
        backends[R.TESTER], seen, lambda req: (req.sandbox.path / "pyproject.toml").read_text(encoding="utf-8")
    )
    resumed = _resume_killed(run_dir, run_dir.path.name, repo, SubprocessGit(), backends)
    assert resumed.final_state == "PIPELINES_COMPLETE" and resumed.exit_code == 0, resumed.diagnostics
    assert seen == ["[project]\nname = 'fixture'\n"]


def test_a_base_file_written_while_it_is_copied_leaves_none_of_its_bytes_in_the_sandbox(tmp_path, monkeypatch):
    repo = _fixture_repo(tmp_path / "repo")
    run_dir = RunDirectory(tmp_path / "run").create()
    run_dir.sandboxes_dir.mkdir()
    base = base_copy(repo, run_dir)
    base.copy_to(run_dir.sandboxes_dir / "first")
    sendfile, raced = os.sendfile, []

    def racing(out_fd, in_fd, offset, count):
        # an agent appends to the base file between its checks
        with open(f"/proc/self/fd/{in_fd}", "a", encoding="utf-8") as fh:
            fh.write("raced\n")
        raced.append(os.readlink(f"/proc/self/fd/{in_fd}"))
        return sendfile(out_fd, in_fd, offset, count)

    monkeypatch.setattr(os, "sendfile", racing)
    second = run_dir.sandboxes_dir / "second"
    with pytest.raises(EnvironmentFailure) as refused:
        base.copy_to(second)

    name = Path(raced[0]).name
    assert str(refused.value) == f"sandbox creation failed: base copy altered: {name}"
    assert not (second / name).exists()


def test_a_base_file_that_cannot_be_sent_unaltered_fails_with_the_systems_reason(tmp_path, monkeypatch):
    repo = _fixture_repo(tmp_path / "repo")
    run_dir = RunDirectory(tmp_path / "run").create()
    base = base_copy(repo, run_dir)
    create_sandbox(R.BUILDER, base, run_dir=run_dir, clock=TickClock())

    def failing(out_fd, in_fd, offset, count):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "sendfile", failing)
    # an error reading a file no agent touched is no altered base copy
    with pytest.raises(EnvironmentFailure) as refused:
        create_sandbox(R.TESTER, base, run_dir=run_dir, clock=TickClock())

    assert str(refused.value) == f"sandbox creation failed: {run_dir.sandboxes_dir / 'tester'}: Input/output error"


@pytest.mark.parametrize("make", [Path.mkdir, os.mkfifo, lambda path: path.symlink_to("pyproject.toml")],
                         ids=["directory", "fifo", "symlink"])
def test_a_base_file_an_agent_replaced_fails_the_copy_as_altered(tmp_path, make):
    repo = _fixture_repo(tmp_path / "repo")
    run_dir = RunDirectory(tmp_path / "run").create()
    run_dir.sandboxes_dir.mkdir()
    base = base_copy(repo, run_dir)
    base.copy_to(run_dir.sandboxes_dir / "first")
    (base.path / "tracked.txt").unlink()
    make(base.path / "tracked.txt")
    second = run_dir.sandboxes_dir / "second"

    # none is followed, waited on or read from
    with pytest.raises(EnvironmentFailure) as refused:
        base.copy_to(second)

    assert str(refused.value) == "sandbox creation failed: base copy altered: tracked.txt"
    assert not os.path.lexists(second / "tracked.txt")


def test_a_parallel_batch_fills_its_base_copy_once(tmp_path):
    repo = _fixture_repo(tmp_path / "repo")
    run_dir, git = RunDirectory(tmp_path / "run").create(), RecordingGit()
    run_dir.sandboxes_dir.mkdir()
    base = base_copy(repo, run_dir, git)
    targets = [run_dir.sandboxes_dir / f"copy-{i}" for i in range(8)]  # more threads than cores
    failures: list = []

    def copy(path: Path) -> None:
        try:
            base.copy_to(path)
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=copy, args=(path,)) for path in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    assert failures == []
    assert git.calls == [("add", ".base")]
    for path in targets:
        assert sorted(p.name for p in path.iterdir()) == [".gitignore", "pyproject.toml", "tracked.txt"]
        assert (path / "tracked.txt").read_text(encoding="utf-8") == "original\n"


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


def test_a_sandbox_directory_its_agent_deleted_whole_fails_its_dispatch_alone(tmp_path):
    script = f'cat >/dev/null\n{_IMPLEMENTATION}d=$PWD; cd ..; rm -rf "$d"\necho "OUTCOME: COMPLETED"\n'
    backends = {**scripted_backends(workflow_by_id(9)), R.BUILDER: SubprocessBackend(["sh", "-c", script])}
    repo = init_git_repo(tmp_path / "repo")
    git = RecordingGit()
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git, backends=backends)

    assert "without contracted artifact(s): ['implementation.md']" in report.diagnostics["builder"]
    assert git.calls == [("add", ".base")]
    assert not run_dir.sandboxes_dir.exists()


def test_a_sandboxes_directory_its_agent_replaced_with_a_symlink_is_never_followed(tmp_path):
    # the builder moves the run's sandbox directory aside and links to it in its place
    swap = 'd=$(cd .. && pwd); mv "$d" "$d.moved"; ln -s "$d.moved" "$d"\n'
    script = f'cat >/dev/null\n{_IMPLEMENTATION}{swap}echo "OUTCOME: COMPLETED"\n'
    backends = {**scripted_backends(workflow_by_id(9)), R.BUILDER: SubprocessBackend(["sh", "-c", script])}
    repo = init_git_repo(tmp_path / "repo")
    git = RecordingGit()
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git, backends=backends)

    sandboxes = run_dir.sandboxes_dir
    assert report.exit_code == 4
    assert report.diagnostics == {"tester": f"sandbox creation failed: {sandboxes} is a symlink"}
    # no sandbox is filled or copied through the symlink
    assert git.calls == [("add", ".base")]
    assert report.dispatch_counts == {"builder": 1}
    assert run_dir.report_json_path.exists() and run_dir.report_text_path.exists()
    # the symlink is unlinked; the directory it pointed at is the agent's doing
    assert not sandboxes.is_symlink() and not sandboxes.exists()
    assert (sandboxes.with_name(f"{sandboxes.name}.moved") / "builder" / "implementation.md").is_file()


@pytest.mark.parametrize("role", [R.BUILDER, R.TESTER], ids=lambda role: role.value)
def test_a_sandbox_its_agent_made_a_repository_is_removed_at_finalize(tmp_path, role):
    record = tmp_path / "found-git"
    output = {R.BUILDER: _IMPLEMENTATION, R.TESTER: _AUDIT}[role]
    # the agent finds no repository, then makes one of its sandbox
    script = (
        f"cat >/dev/null\n{output}git rev-parse --git-dir > {shlex.quote(str(record))} 2>&1\n"
        "git init -q . && git add -A && git -c user.name=a -c user.email=a@b commit -q -m mine\n"
        "echo 'OUTCOME: COMPLETED'\n"
    )
    backends = {**scripted_backends(workflow_by_id(9)), role: SubprocessBackend(["sh", "-c", script])}
    repo = init_git_repo(tmp_path / "repo")
    refs, objects = _git(repo, "for-each-ref"), _git(repo, "count-objects")
    git = RecordingGit()
    # run_scripted_workflow also checks that the target holds no worktree
    # and no agent branch
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9, target_repo=repo, git=git, backends=backends)

    assert report.final_state == "PIPELINES_COMPLETE" and report.exit_code == 0, report.diagnostics
    assert "not a git repository" in record.read_text(encoding="utf-8")
    assert git.calls == [("add", ".base")]
    assert not run_dir.sandboxes_dir.exists()
    # what the agent committed went into its own repository, which is gone
    assert _git(repo, "for-each-ref") == refs
    assert _git(repo, "count-objects") == objects


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
    # one fill, which the tester, the batch's one filled role, and later
    # the scriber are copied from
    assert git.calls == [("add", ".base")]


def _killed_session(tmp_path: Path, repo: Path):
    """A run started on ``repo`` whose first session was killed after
    filling its base copy and the builder's sandbox, both of which its
    agent dirtied: no batch was journaled, and both are still there."""
    workflow = workflow_by_id(9)
    run_dir, request_id = start_run(
        runs_root=tmp_path / "runs", target_repo=repo, directive="scripted protocol exercise",
        workflow=workflow, git=SubprocessGit(), clock=TickClock(),
    )
    base = base_copy(repo, run_dir)
    left = create_sandbox(R.BUILDER, base, run_dir=run_dir, clock=TickClock()).path
    for dirtied in (left, base.path):
        (dirtied / "pyproject.toml").write_text("[project]\nname = 'edited'\n", encoding="utf-8")
    (left / "implementation.md").write_text("# Stale\n", encoding="utf-8")
    (base.path / "extra.txt").write_text("extra\n", encoding="utf-8")
    return run_dir, request_id


def _resume_killed(run_dir: RunDirectory, request_id: str, repo: Path, git: SubprocessGit, backends=None):
    workflow = workflow_by_id(9)
    return Orchestrator(
        run_dir=run_dir, request_id=request_id, workflow=workflow,
        backends=backends or scripted_backends(workflow),
        channel=UserChannel(mode=ChannelMode.SCRIPTED_ANSWERS, output_fn=lambda _: None),
        target_repo=repo, git=git, clock=TickClock(), directive="scripted protocol exercise",
    ).run()


def test_a_session_resumes_after_its_scratch_directory_was_wiped(tmp_path):
    """A reboot wipes the memory-backed scratch root; nothing of the
    sandboxes a killed session left there is registered in the target."""
    repo = init_git_repo(tmp_path / "repo")
    run_dir, request_id = _killed_session(tmp_path, repo)
    shutil.rmtree(run_dir.sandboxes_dir)
    git = RecordingGit()

    report = _resume_killed(run_dir, request_id, repo, git)

    assert report.final_state == "PIPELINES_COMPLETE" and report.exit_code == 0, report.diagnostics
    assert git.calls == [("add", ".base")]
    assert _git(repo, "worktree", "list").count("\n") == 1
    assert not run_dir.sandboxes_dir.exists()


def test_a_resumed_session_refills_a_sandbox_a_killed_session_left(tmp_path, git_spawns):
    repo = init_git_repo(tmp_path / "repo")
    run_dir, request_id = _killed_session(tmp_path, repo)
    seen: list = []
    backends = scripted_backends(workflow_by_id(9))
    for role in (R.BUILDER, R.TESTER):
        backends[role] = Spy(
            backends[role], seen,
            lambda req: (req.role, {p.name: p.read_text(encoding="utf-8") for p in req.sandbox.path.iterdir()}),
        )
    git = RecordingGit()
    git_spawns.clear()

    report = _resume_killed(run_dir, request_id, repo, git, backends)

    assert report.final_state == "PIPELINES_COMPLETE" and report.exit_code == 0, report.diagnostics
    # the killed session's base copy is replaced by one fill, never trusted,
    # and the builder's sandbox is freed and copied afresh: nothing the
    # killed session's agent wrote to either survives
    assert sorted(git.calls) == [("add", ".base"), ("remove", "builder")]
    assert len([argv for argv in git_spawns.argv if "read-tree" in argv]) == 1
    pristine = {"pyproject.toml": "[project]\nname = 'fixture'\n"}
    assert sorted(seen) == [(R.BUILDER, pristine), (R.TESTER, pristine)]
    assert run_dir.read(ArtifactKind.IMPLEMENTATION) != "# Stale\n"
    assert not run_dir.sandboxes_dir.exists()
