"""The per-request run directory holding the sixteen runtime artifacts.

Presence and verdict predicates live here; content interpretation beyond
the review verdict header is out of scope by design.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import tempfile
import zlib
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from gatework.errors import ContractError, EnvironmentFailure, RunDirectoryError, VerdictError
from gatework.model import ARTIFACT_NAME_ALIASES, ArtifactKind, VerdictValue, parse_review_verdict


def _names(kind: ArtifactKind) -> tuple[str, ...]:
    """The names a file holding ``kind`` may have: its canonical name,
    then each accepted alias."""
    return (kind.filename, *(alias for alias, aliased in ARTIFACT_NAME_ALIASES.items() if aliased is kind))


def read_artifact(
    directory: Path, kind: ArtifactKind, inherited: frozenset[tuple[int, int]] = frozenset()
) -> str | None:
    """The text of the file holding ``kind`` in ``directory``, at the
    first of its names that holds anything, or None if none does: the one
    read of an artifact. ContractError, naming the file, refuses anything
    but a regular file (a symlink is never followed, a FIFO never waited
    on), a file whose identity is in ``inherited`` (see :func:`identities`),
    and bytes that are not UTF-8."""
    for name in _names(kind):
        try:
            fd = os.open(directory / name, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
        except FileNotFoundError:
            continue
        except OSError as exc:
            reason = "is not a regular file: a symlink" if exc.errno == errno.ELOOP else "cannot be read"
            raise ContractError(f"artifact {name} {reason} ({exc.strerror})") from None
        try:
            found = os.fstat(fd)
            if not stat.S_ISREG(found.st_mode):
                raise ContractError(f"artifact {name} is not a regular file")
            if (found.st_ino, found.st_ctime_ns) in inherited:
                raise ContractError(f"artifact {name} was not written by this dispatch")
            with open(fd, encoding="utf-8", closefd=False) as fh:
                return fh.read()
        except UnicodeDecodeError as exc:
            raise ContractError(f"artifact {name} is not UTF-8: {exc}") from None
        except OSError as exc:
            raise ContractError(f"artifact {name} cannot be read: {exc.strerror}") from None
        finally:
            os.close(fd)
    return None


def identities(directory: Path, kinds: Iterable[ArtifactKind]) -> frozenset[tuple[int, int]]:
    """The identity, inode and ctime, of whatever sits at a name of
    ``kinds`` in ``directory``; a file keeps it until it is written to or
    replaced."""
    found = set()
    for kind in kinds:
        for name in _names(kind):
            try:
                entry = os.lstat(directory / name)
            except FileNotFoundError:
                continue
            found.add((entry.st_ino, entry.st_ctime_ns))
    return frozenset(found)


def write_whole(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: into a sibling
    temporary file, which then replaces ``path``, so a write that fails
    partway, or a process killed in it, leaves the previous file. The one
    write of an artifact, into a run directory or a sandbox: it replaces
    the name, never writing through a symlink there or at the temporary's."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temporary.unlink(missing_ok=True)
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


#: The memory-backed directory agent sandboxes go under when it can hold
#: them; a module constant so tests can point it elsewhere.
MEMORY_ROOT = Path("/dev/shm")


def scratch_root() -> Path:
    """This user's private directory for agent sandboxes, ``gatework-<uid>``,
    made if absent: under :data:`MEMORY_ROOT` when that is a writable
    directory on a mount that allows executing files (agents build and
    load code; Docker mounts ``/dev/shm`` noexec), else under the temp
    directory. Refused unless it is a real directory of this user that
    no one else may enter, because a run deletes what it finds there."""
    base = MEMORY_ROOT
    try:
        usable = (
            base.is_dir()
            and os.access(base, os.W_OK | os.X_OK)
            and not os.statvfs(base).f_flag & os.ST_NOEXEC
        )
    except OSError:
        usable = False
    root = (base if usable else Path(tempfile.gettempdir())) / f"gatework-{os.getuid()}"
    try:
        root.mkdir(mode=0o700)
    except FileExistsError:
        pass
    found = root.lstat()
    if not stat.S_ISDIR(found.st_mode) or found.st_uid != os.getuid() or found.st_mode & 0o077:
        raise EnvironmentFailure(
            f"sandbox root {root} is not a directory of this user with mode 0700; refusing to use it"
        )
    return root


class RunDirectory:
    """Filesystem view of one workflow run."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)

    def create(self) -> "RunDirectory":
        self.path.mkdir(parents=True, exist_ok=True)
        self.logs_dir.mkdir(exist_ok=True)
        return self

    @property
    def logs_dir(self) -> Path:
        return self.path / "logs"

    @cached_property
    def sandboxes_dir(self) -> Path:
        """Where this run's agent sandboxes live: ``<request-id>-<digest>``
        in :func:`scratch_root`, outside the run directory and the runs
        root. The digest is of the run directory's resolved path, so every
        session of this run finds the same directory and no other run
        does. Found once, on the first access that succeeds: a refused
        scratch root raises on every access."""
        digest = zlib.crc32(os.fsencode(self.path.resolve()))
        return scratch_root() / f"{self.path.name}-{digest:08x}"

    @property
    def report_text_path(self) -> Path:
        return self.path / "report"

    @property
    def report_json_path(self) -> Path:
        return self.path / "report.json"

    @property
    def access_log_path(self) -> Path:
        return self.path / "access.log"

    @property
    def journal_path(self) -> Path:
        return self.path / "events.jsonl"

    def append_events(self, records: Sequence[dict]) -> None:
        """Append records to the journal, one JSON object a line; nothing in
        it is ever rewritten."""
        with open(self.journal_path, "a", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(record) + "\n" for record in records))

    def events(self) -> list[dict]:
        """The journal's records in append order. A line that does not parse,
        such as one a killed session left half-written, raises
        RunDirectoryError; it is never dropped or repaired."""
        if not self.journal_path.exists():
            return []
        records = []
        with open(self.journal_path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise RunDirectoryError(
                        f"{self.journal_path} line {number} does not parse: {exc}"
                    ) from None
        return records

    def check_readable(self) -> None:
        """Raise RunDirectoryError when the directory cannot be read.

        An unreadable directory is an I/O failure, distinct from "artifact
        missing" which is an ordinary gate result.
        """
        if not self.path.exists():
            raise RunDirectoryError(f"run directory does not exist: {self.path}")
        if not self.path.is_dir():
            raise RunDirectoryError(f"run directory is not a directory: {self.path}")
        try:
            next(self.path.iterdir(), None)
        except OSError as exc:
            raise RunDirectoryError(f"run directory unreadable: {self.path}: {exc}") from exc

    def artifact_path(self, kind: ArtifactKind) -> Path:
        return self.path / kind.filename

    def exists(self, kind: ArtifactKind) -> bool:
        return any((self.path / name).exists() for name in _names(kind))

    def read(self, kind: ArtifactKind) -> str | None:
        """The artifact's text, or None if the run directory holds none."""
        return read_artifact(self.path, kind)

    def write(self, kind: ArtifactKind, content: str) -> Path:
        """Write an artifact under its canonical name (aliases normalized)."""
        target = self.artifact_path(kind)
        write_whole(target, content)
        return target

    def present(self) -> frozenset[ArtifactKind]:
        found = set()
        for kind in ArtifactKind:
            if self.exists(kind):
                found.add(kind)
        return frozenset(found)

    def verdict(self) -> VerdictValue:
        """Parse review.md's verdict header. Raises when absent/unparseable."""
        text = self.read(ArtifactKind.REVIEW)
        if text is None:
            raise VerdictError(f"review.md not present in {self.path}")
        return parse_review_verdict(text)

    def has_passing_verdict(self) -> bool:
        """HAS_VERDICT predicate: review.md parses to PASS or PASS_WITH_NOTE."""
        try:
            return self.verdict().passing
        except VerdictError:
            return False
