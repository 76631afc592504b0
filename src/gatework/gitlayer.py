"""The engine's git: the system binary, run as a subprocess. Every
mutation returns a :class:`GitResult`, so the shipper report can list the
actions taken.
"""

from __future__ import annotations

import os
import subprocess
import threading
from collections import defaultdict
from enum import Enum
from pathlib import Path
from typing import NamedTuple


class GitAction(str, Enum):
    WORKTREE_ADD = "WORKTREE_ADD"
    WORKTREE_REMOVE = "WORKTREE_REMOVE"
    WORKTREE_RESET = "WORKTREE_RESET"
    STAGE = "STAGE"
    COMMIT = "COMMIT"
    PUSH = "PUSH"
    RESET = "RESET"


class GitResult(NamedTuple):
    ok: bool
    action: GitAction
    detail: str = ""
    error_kind: str | None = None  # conflict | auth | detached | environment
    output: str = ""


class SubprocessGit:
    """Operations the engine needs from git, run by the system binary.

    Every git process on one repository runs under that repository's
    lock, because git does not guard all of its shared state: concurrent
    ``worktree add``s read each other's half-written administrative
    directories (``fatal: failed to read .git/worktrees/<name>/commondir``
    on git 2.39). Different repositories proceed in parallel."""

    def __init__(self) -> None:
        self._locks: defaultdict[str, threading.Lock] = defaultdict(threading.Lock)
        self._locks_guard = threading.Lock()

    def _lock(self, repo: Path) -> threading.Lock:
        with self._locks_guard:
            return self._locks[str(Path(repo).resolve())]

    def _run(self, repo: Path, *args: str, where: Path | None = None) -> subprocess.CompletedProcess:
        """Run git in ``where`` (default: ``repo``) under ``repo``'s lock,
        in the C locale: the engine reads git's English messages."""
        with self._lock(repo):
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
            return GitResult(ok=True, action=action, detail=detail, output=proc.stdout.strip())
        return GitResult(
            ok=False,
            action=action,
            detail=detail,
            error_kind=self._classify(proc.stderr),
            output=(proc.stdout + proc.stderr).strip(),
        )

    def is_repo(self, repo: Path) -> bool:
        proc = self._run(repo, "rev-parse", "--git-dir")
        return proc.returncode == 0

    def _has_branch(self, repo: Path, branch: str) -> bool:
        # ask git, rather than parse its (translated) error message
        proc = self._run(repo, "rev-parse", "-q", "--verify", f"refs/heads/{branch}")
        return proc.returncode == 0

    def worktree_add(self, repo: Path, path: Path, branch: str, *, new_branch: bool) -> GitResult:
        """Add a worktree of ``repo`` at ``path`` holding a pristine checkout
        of ``branch``, as :meth:`_check_out_branch` makes it. Refuses
        (``ok=False``) a ``path`` that exists; a failed add leaves no
        worktree and no branch behind."""
        # git -C <repo> resolves relative worktree paths against the repo,
        # not our working directory, so pass an absolute path
        path = Path(path).resolve()
        detail = f"{path} on {branch}"
        # git adds into an existing empty directory, and a failed add
        # removes its worktree: refuse any existing path, so nothing
        # already there is touched
        if path.exists():
            return _refused(GitAction.WORKTREE_ADD, detail, f"{path} already exists")
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
        return self._result(GitAction.WORKTREE_ADD, proc, detail)

    def worktree_remove(self, repo: Path, path: Path) -> GitResult:
        path = Path(path).resolve()
        if not path.exists():
            return GitResult(ok=True, action=GitAction.WORKTREE_REMOVE, detail=f"{path} (absent)")
        # twice: once for a dirty worktree, once for one an agent locked
        proc = self._run(repo, "worktree", "remove", "--force", "--force", str(path))
        return self._result(GitAction.WORKTREE_REMOVE, proc, str(path))

    def worktree_reset(self, repo: Path, path: Path, branch: str, *, new_branch: bool) -> GitResult:
        """Turn the existing worktree of ``repo`` at ``path``, whatever it
        holds, into a pristine checkout of ``branch``, as
        :meth:`_check_out_branch` makes it: tracked edits reverted,
        untracked and ignored files deleted. Refuses (``ok=False``) a path
        that is not a linked worktree."""
        path = Path(path).resolve()
        # anywhere else, git would reset the enclosing repository's checkout
        if not is_linked_worktree(path):
            return _refused(GitAction.WORKTREE_RESET, str(path), f"{path} is not a linked worktree")
        # like `reset --hard`, but also returns HEAD to the branch if the
        # agent switched branches or detached it
        proc = self._check_out_branch(repo, path, branch, new_branch)
        return self._result(GitAction.WORKTREE_RESET, self._clean(repo, proc, path), str(path))

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

    def _clean(
        self, repo: Path, checkout: subprocess.CompletedProcess, path: Path
    ) -> subprocess.CompletedProcess:
        """After a successful checkout, delete every untracked and ignored
        file of the worktree at ``path``."""
        if checkout.returncode != 0:
            return checkout
        return self._run(repo, "clean", "-q", "-ffdx", where=path)

    def stage(self, repo: Path, paths: list[str]) -> GitResult:
        proc = self._run(repo, "add", "--", *paths) if paths else self._run(repo, "add", "-A")
        return self._result(GitAction.STAGE, proc, ", ".join(paths) or "all")

    def commit(self, repo: Path, message: str, paths: list[str]) -> GitResult:
        """Commit the staged state of ``paths`` only, leaving every other
        staged change staged; ``[]`` commits the whole index."""
        head = self._run(repo, "symbolic-ref", "-q", "HEAD")
        if head.returncode != 0:
            return GitResult(
                ok=False,
                action=GitAction.COMMIT,
                detail=message,
                error_kind="detached",
                output="HEAD is detached",
            )
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


def _refused(action: GitAction, detail: str, problem: str) -> GitResult:
    """A worktree operation refused before git ran."""
    return GitResult(
        ok=False,
        action=action,
        detail=detail,
        error_kind="environment",
        output=f"{problem}; {action.value.lower()} refused",
    )
