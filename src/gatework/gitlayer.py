"""The engine's git: the system binary, run as a subprocess. Each step of
a ship or a workspace sync returns a :class:`GitResult`, so the shipper
report can list the actions taken; a sandbox fill that fails raises
:class:`EnvironmentFailure`, which fails the dispatch it was preparing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import threading
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple

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

    Every git process runs under one lock, though no two git processes
    of one session overlap: the one fill of a session's base copy runs
    under that copy's own lock (``barrier.BaseCopy``), every sandbox is
    copied from it with no git process, and ship, workspace sync,
    ``write_context`` and ``validate`` each run on one thread. The lock
    stays until runs that share a target are known to need no lock
    across processes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()

    def _run(
        self, repo: Path, *args: str, env: Mapping[str, str] | None = None
    ) -> subprocess.CompletedProcess:
        """Run git in ``repo`` under the lock, in the C locale (the engine
        reads git's English messages), with ``env`` added to the environment."""
        with self._lock:
            return subprocess.run(
                ["git", "-C", str(repo), *args],
                capture_output=True,
                text=True,
                errors="replace",
                env={**os.environ, "LC_ALL": "C", **(env or {})},
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

    def worktree_add(self, repo: Path, path: Path, base: str) -> None:
        """Fill a new directory at ``path`` with the files of commit
        ``base`` of ``repo``, modes and symlinks included, in one git
        process, the one a session runs while it dispatches (the fill of
        its ``barrier.BaseCopy``, which nothing overlaps):
        ``read-tree --reset -u`` with ``path`` as its work tree,
        under a private index outside every sandbox, deleted after, and
        with the target's sparse-checkout patterns off. The
        directory is no repository, nothing is registered in ``repo`` and
        no hook of it runs. A ``path`` that exists, even as a dangling
        symlink, is refused before git runs; the refusal and a failed fill
        raise :class:`EnvironmentFailure`."""
        given, path = Path(path), Path(path).resolve()
        # refuse any existing path, so nothing already there is touched,
        # and a symlink, so nothing is written where it points
        if given.is_symlink() or path.exists():
            raise EnvironmentFailure(f"sandbox creation failed: {given} already exists; worktree_add refused")
        path.mkdir()
        # with no index, read-tree writes every file of the tree; with the
        # target's sparse-checkout patterns off, every path of it
        with tempfile.TemporaryDirectory(prefix="gatework-index-") as private:
            index = {"GIT_INDEX_FILE": str(Path(private) / "index")}
            proc = self._run(
                repo, "-c", "core.sparseCheckout=false", f"--work-tree={path}",
                "read-tree", "--reset", "-u", base, env=index,
            )
        _require(proc, "sandbox creation failed")

    def worktree_remove(self, repo: Path, path: Path) -> None:
        """Free the sandbox at ``path`` that :meth:`worktree_add` filled,
        whatever its agent left in it, with no git process: nothing of it is
        registered in ``repo``. The directory is deleted whole; a symlink
        at ``path`` is never followed, but raises ``OSError``."""
        shutil.rmtree(path)

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


def _require(proc: subprocess.CompletedProcess, failure: str) -> None:
    """Raise EnvironmentFailure, ``failure`` and git's output, if ``proc`` failed."""
    if proc.returncode != 0:
        raise EnvironmentFailure(f"{failure}: {(proc.stdout + proc.stderr).strip()}")
