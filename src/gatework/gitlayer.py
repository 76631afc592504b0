"""The engine's git: the system binary, run as a subprocess. Every
mutation returns a :class:`GitResult`, so the shipper report can list the
actions taken.
"""

from __future__ import annotations

import subprocess
import threading
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


class GitAction(str, Enum):
    WORKTREE_ADD = "WORKTREE_ADD"
    WORKTREE_REMOVE = "WORKTREE_REMOVE"
    WORKTREE_RESET = "WORKTREE_RESET"
    WORKTREE_CARRY = "WORKTREE_CARRY"
    STAGE = "STAGE"
    COMMIT = "COMMIT"
    PUSH = "PUSH"
    RESET = "RESET"


@dataclass(frozen=True)
class GitResult:
    ok: bool
    action: GitAction
    detail: str = ""
    error_kind: str | None = None  # conflict | auth | detached | missing_credentials | environment
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
        """Run git in ``where`` (default: ``repo``) under ``repo``'s lock."""
        with self._lock(repo):
            return subprocess.run(
                ["git", "-C", str(where or repo), *args],
                capture_output=True,
                text=True,
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

    def worktree_add(self, repo: Path, path: Path, branch: str) -> GitResult:
        # git -C <repo> resolves relative worktree paths against the repo,
        # not our working directory, so pass an absolute path
        path = Path(path).resolve()
        # git creates the branch before it fails on an existing path
        if path.exists():
            return _refused(GitAction.WORKTREE_ADD, f"{path} on {branch}", f"{path} already exists")
        # --no-track: an agent branch never writes the target's config,
        # whatever the user's branch.autoSetupMerge says
        proc = self._run(repo, "worktree", "add", "--no-track", "-b", branch, str(path))
        # the branch may survive from an earlier session of this run
        if proc.returncode != 0 and self._has_branch(repo, branch):
            proc = self._run(repo, "worktree", "add", str(path), branch)
        return self._result(GitAction.WORKTREE_ADD, proc, f"{path} on {branch}")

    def worktree_remove(self, repo: Path, path: Path) -> GitResult:
        path = Path(path).resolve()
        if not path.exists():
            return GitResult(ok=True, action=GitAction.WORKTREE_REMOVE, detail=f"{path} (absent)")
        proc = self._run(repo, "worktree", "remove", "--force", str(path))
        return self._result(GitAction.WORKTREE_REMOVE, proc, str(path))

    def worktree_reset(self, repo: Path, path: Path, branch: str) -> GitResult:
        """Restore an existing worktree of ``repo`` to a fresh checkout of
        ``branch``: tracked edits reverted, untracked and ignored files
        deleted. Refuses (``ok=False``) a path that is not a worktree."""
        path = Path(path).resolve()
        # A linked worktree's .git is a file. Anywhere else, git would walk
        # up to the enclosing repository and reset that checkout instead.
        if not (path / ".git").is_file():
            return _refused(GitAction.WORKTREE_RESET, str(path), f"{path} is not a linked worktree")
        # like `reset --hard`, but also returns HEAD to the branch if the
        # agent switched branches or detached it
        proc = self._run(repo, "checkout", "-q", "-f", branch, "--", where=path)
        return self._result(GitAction.WORKTREE_RESET, self._clean(repo, proc, path), str(path))

    def worktree_carry(self, repo: Path, source: Path, path: Path, branch: str) -> GitResult:
        """Move the idle worktree of ``repo`` at ``source`` to ``path`` and
        leave there a pristine checkout of ``branch``: created at the main
        checkout's HEAD, as ``worktree_add`` would, or checked out as it is
        if it exists. Refuses (``ok=False``) a ``source`` that is not a
        worktree and a ``path`` that exists."""
        source, path = Path(source).resolve(), Path(path).resolve()
        detail = f"{source} -> {path} on {branch}"
        if not (source / ".git").is_file():
            return _refused(GitAction.WORKTREE_CARRY, detail, f"{source} is not a linked worktree")
        # `worktree move` onto an existing directory moves into it
        if path.exists():
            return _refused(GitAction.WORKTREE_CARRY, detail, f"{path} already exists")
        proc = self._run(repo, "worktree", "move", str(source), str(path))
        if proc.returncode == 0:
            proc = self._run(
                repo, "checkout", "-q", "-f", "--no-track", "-b", branch, "main-worktree/HEAD", "--",
                where=path,
            )
            if proc.returncode != 0 and self._has_branch(repo, branch):
                proc = self._run(repo, "checkout", "-q", "-f", branch, "--", where=path)
        return self._result(GitAction.WORKTREE_CARRY, self._clean(repo, proc, path), detail)

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
        proc = self._run(repo, "ls-files", "--cached")
        if proc.returncode != 0:
            return []
        return [line for line in proc.stdout.splitlines() if line]

    def remote_url(self, repo: Path) -> str | None:
        proc = self._run(repo, "remote", "get-url", "origin")
        return proc.stdout.strip() if proc.returncode == 0 else None

    def default_branch(self, repo: Path) -> str | None:
        proc = self._run(repo, "symbolic-ref", "--short", "HEAD")
        return proc.stdout.strip() if proc.returncode == 0 else None


def _refused(action: GitAction, detail: str, problem: str) -> GitResult:
    """A worktree operation refused before git ran."""
    return GitResult(
        ok=False,
        action=action,
        detail=detail,
        error_kind="environment",
        output=f"{problem}; {action.value.lower()} refused",
    )
