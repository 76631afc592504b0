"""The engine's git: the system binary, run as a subprocess. Each step of
a ship or a workspace sync returns a :class:`GitResult`, so the shipper
report can list the actions taken; a worktree operation that fails raises
:class:`EnvironmentFailure`, which fails the dispatch it was preparing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import threading
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from gatework.errors import EnvironmentFailure


class GitAction(str, Enum):
    STAGE = "STAGE"
    COMMIT = "COMMIT"
    PUSH = "PUSH"
    RESET = "RESET"


class GitResult(NamedTuple):
    ok: bool
    action: GitAction
    detail: str = ""
    error_kind: str | None = None  # conflict | auth | detached | environment


class SubprocessGit:
    """Operations the engine needs from git, run by the system binary.

    Every git process runs under one lock, because git does not guard
    all of its shared state: concurrent ``worktree add``s read each
    other's half-written administrative directories (``fatal: failed to
    read .git/worktrees/<name>/commondir`` on git 2.39). One lock is
    enough, since the engine never runs git on two repositories at once:
    its only concurrent git calls are a batch's sandbox creations, which
    all work on the target, while ship, workspace sync, ``write_context``
    and ``validate`` each run on one thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def _run(self, repo: Path, *args: str, where: Path | None = None) -> subprocess.CompletedProcess:
        """Run git in ``where`` (default: ``repo``) under the lock, in the
        C locale: the engine reads git's English messages."""
        with self._lock:
            return subprocess.run(
                ["git", "-C", str(where or repo), *args],
                capture_output=True,
                text=True,
                errors="replace",
                env={**os.environ, "LC_ALL": "C"},
                check=False,
            )

    @staticmethod
    def _classify(stderr: str) -> str:
        lowered = stderr.lower()
        if "conflict" in lowered:
            return "conflict"
        if "authentication" in lowered or "could not read username" in lowered or "permission denied" in lowered:
            return "auth"
        if "detached" in lowered:
            return "detached"
        return "environment"

    def _result(self, action: GitAction, proc: subprocess.CompletedProcess, detail: str) -> GitResult:
        if proc.returncode == 0:
            return GitResult(ok=True, action=action, detail=detail)
        return GitResult(ok=False, action=action, detail=detail, error_kind=self._classify(proc.stderr))

    def is_repo(self, repo: Path) -> bool:
        proc = self._run(repo, "rev-parse", "--git-dir")
        return proc.returncode == 0

    def _has_branch(self, repo: Path, branch: str) -> bool:
        # ask git, rather than parse its (translated) error message
        proc = self._run(repo, "rev-parse", "-q", "--verify", f"refs/heads/{branch}")
        return proc.returncode == 0

    def worktree_add(self, repo: Path, path: Path, branch: str, *, new_branch: bool) -> None:
        """Add a worktree of ``repo`` at ``path`` holding a pristine checkout
        of ``branch``, as :meth:`_check_out_branch` makes it. Refuses a
        ``path`` that exists; a failed add leaves no worktree and no branch
        behind. Either raises :class:`EnvironmentFailure`."""
        # git -C <repo> resolves relative worktree paths against the repo,
        # not our working directory, so pass an absolute path
        given, path = Path(path), Path(path).resolve()
        # git adds into an existing empty directory, and a failed add
        # removes its worktree: refuse any existing path, so nothing
        # already there is touched, and a symlink, even a dangling one,
        # so no worktree is added where it points
        if given.is_symlink() or path.exists():
            raise EnvironmentFailure(f"worktree creation failed: {given} already exists; worktree_add refused")
        # an empty worktree, filled by the checkout step a reset runs too;
        # `worktree add -b` would start `branch`, `symbolic-ref` and
        # `reset --hard` of its own. Forced twice, git takes over a path
        # it still lists, even locked, after its directory was wiped (as
        # a reboot wipes /dev/shm); an existing path was refused above
        proc = self._run(repo, "worktree", "add", "-f", "-f", "--detach", "--no-checkout", str(path))
        if proc.returncode == 0:
            proc = self._check_out_branch(repo, path, branch, new_branch)
            if proc.returncode != 0:
                self._run(repo, "worktree", "remove", "--force", str(path))
        _require(proc, "worktree creation failed")

    def worktree_remove(self, repo: Path, path: Path) -> None:
        """Remove the worktree of ``repo`` at ``path`` and unregister it;
        at a ``path`` already gone, git only unregisters it."""
        path = Path(path).resolve()
        # twice: once for a dirty worktree, once for one an agent locked
        self._run(repo, "worktree", "remove", "--force", "--force", str(path))

    def worktree_reset(self, repo: Path, path: Path, branch: str, *, new_branch: bool) -> None:
        """Turn the existing worktree of ``repo`` at ``path``, whatever it
        holds, into a pristine checkout of ``branch``, in one git process:
        every entry but ``.git`` is deleted, then :meth:`_check_out_branch`
        writes every tracked file afresh. Refuses a path that is a symlink
        or not a linked worktree, before anything is deleted, and a slot
        that cannot be emptied. A checkout that fails once the slot was
        emptied leaves it empty. Each raises :class:`EnvironmentFailure`."""
        # a symlink would take the reset to whatever it points at
        if Path(path).is_symlink():
            raise EnvironmentFailure(f"worktree reset failed: {path} is a symlink; worktree_reset refused")
        path = Path(path).resolve()
        # anywhere else, git would reset the enclosing repository's checkout
        if not is_linked_worktree(path):
            raise EnvironmentFailure(
                f"worktree reset failed: {path} is not a linked worktree; worktree_reset refused"
            )
        try:
            _empty(path)
        except OSError as exc:
            raise EnvironmentFailure(
                f"worktree reset failed: {path} could not be emptied: {exc}; worktree_reset refused"
            ) from None
        # like `reset --hard`, but also returns HEAD to the branch if the
        # agent switched branches or detached it; with every file missing,
        # git writes each one and re-hashes none
        _require(self._check_out_branch(repo, path, branch, new_branch), "worktree reset failed")

    def _check_out_branch(
        self, repo: Path, path: Path, branch: str, new_branch: bool
    ) -> subprocess.CompletedProcess:
        """Check out ``branch`` in the worktree of ``repo`` at ``path``. A
        ``new_branch`` is created at the main checkout's HEAD, or checked
        out as it is if a session that journaled nothing left it. Any other
        is checked out as it is, even if another worktree of ``repo`` has
        it checked out: the caller vouches that the branch is its own, so
        that worktree can only be one it holds idle."""
        if not new_branch:
            return self._checkout(repo, path, "--ignore-other-worktrees", branch)
        # --no-track: an agent branch never writes the target's config,
        # whatever the user's branch.autoSetupMerge says
        proc = self._checkout(repo, path, "--no-track", "-b", branch, "main-worktree/HEAD")
        if proc.returncode != 0 and self._has_branch(repo, branch):
            proc = self._checkout(repo, path, branch)
        return proc

    def _checkout(self, repo: Path, path: Path, *args: str) -> subprocess.CompletedProcess:
        """``git checkout -f`` in the worktree of ``repo`` at ``path``."""
        return self._run(repo, "checkout", "-q", "-f", *args, "--", where=path)

    def stage(self, repo: Path, paths: list[str]) -> GitResult:
        proc = self._run(repo, "add", "--", *paths) if paths else self._run(repo, "add", "-A")
        return self._result(GitAction.STAGE, proc, ", ".join(paths) or "all")

    def commit(self, repo: Path, message: str, paths: list[str]) -> GitResult:
        """Commit the staged state of ``paths`` only, leaving every other
        staged change staged; ``[]`` commits the whole index."""
        head = self._run(repo, "symbolic-ref", "-q", "HEAD")
        if head.returncode != 0:
            return GitResult(ok=False, action=GitAction.COMMIT, detail=message, error_kind="detached")
        proc = self._run(repo, "commit", "-m", message, "--", *paths)
        if proc.returncode != 0 and "nothing to commit" in (proc.stdout + proc.stderr):
            return GitResult(ok=True, action=GitAction.COMMIT, detail=f"{message} (nothing to commit)")
        return self._result(GitAction.COMMIT, proc, message)

    def push(self, repo: Path) -> GitResult:
        proc = self._run(repo, "push")
        return self._result(GitAction.PUSH, proc, "push")

    def stage_commit_push(self, repo: Path, message: str, paths: list[str]) -> list[GitResult]:
        """Stage ``paths`` (``[]``: everything), commit them as ``message``
        and push: the result of each step up to the first that failed,
        since each builds on the one before."""
        results = [self.stage(repo, paths)]
        if results[-1].ok:
            results.append(self.commit(repo, message, paths))
        if results[-1].ok:
            results.append(self.push(repo))
        return results

    def head(self, repo: Path) -> str | None:
        """The commit HEAD points at, or None if there is none."""
        proc = self._run(repo, "rev-parse", "-q", "--verify", "HEAD")
        return proc.stdout.strip() if proc.returncode == 0 else None

    def reset_to(self, repo: Path, commit: str, paths: list[str]) -> GitResult:
        """Move the current branch to ``commit`` and reset the index entries
        of ``paths`` to it (``[]``: the whole index), leaving the working
        tree and every other index entry as they are."""
        proc = self._run(repo, "reset", "-q", "--soft", commit)
        if proc.returncode == 0:
            proc = self._run(repo, "reset", "-q", commit, "--", *paths)
        return self._result(GitAction.RESET, proc, commit)

    def ls_tracked(self, repo: Path) -> list[str]:
        # -z: git prints each path as it is, not C-quoted
        proc = self._run(repo, "ls-files", "-z", "--cached")
        if proc.returncode != 0:
            return []
        return [path for path in proc.stdout.split("\0") if path]

    def remote_url(self, repo: Path) -> str | None:
        """The URL of ``origin``: ``""`` in a repository without one (git
        exits 2), None outside a repository (git exits 128)."""
        proc = self._run(repo, "remote", "get-url", "origin")
        if proc.returncode == 0:
            return proc.stdout.strip()
        return "" if proc.returncode == 2 else None

    def default_branch(self, repo: Path) -> str | None:
        proc = self._run(repo, "symbolic-ref", "--short", "HEAD")
        return proc.stdout.strip() if proc.returncode == 0 else None


def is_linked_worktree(path: Path) -> bool:
    """Whether ``path`` holds a linked worktree: its ``.git`` is a file
    pointing into a repository. Inside any other directory, git walks up
    to the enclosing repository."""
    return (Path(path) / ".git").is_file()


def _empty(path: Path) -> None:
    """Delete every entry of the worktree at ``path`` but its ``.git``;
    a symlink is unlinked, never followed."""
    with os.scandir(path) as entries:
        for entry in entries:
            if entry.name == ".git":
                continue
            if entry.is_dir(follow_symlinks=False):
                shutil.rmtree(entry.path)
            else:
                os.unlink(entry.path)


def _require(proc: subprocess.CompletedProcess, failure: str) -> None:
    """Raise EnvironmentFailure, ``failure`` and git's output, if ``proc`` failed."""
    if proc.returncode != 0:
        raise EnvironmentFailure(f"{failure}: {(proc.stdout + proc.stderr).strip()}")
