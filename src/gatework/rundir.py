"""The per-request run directory holding the sixteen runtime artifacts.

Presence and verdict predicates live here; content interpretation beyond
the review verdict header is out of scope by design.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from gatework.errors import RunDirectoryError, VerdictError
from gatework.model import (
    ARTIFACT_NAME_ALIASES,
    ArtifactKind,
    ReviewVerdict,
    parse_review_verdict,
)


def find_artifact(directory: Path, kind: ArtifactKind) -> Path | None:
    """The file holding ``kind`` in ``directory``: its canonical name, else
    an accepted alias. A canonical hit costs one stat."""
    canonical = directory / kind.filename
    if canonical.exists():
        return canonical
    for alias, aliased_kind in ARTIFACT_NAME_ALIASES.items():
        if aliased_kind is kind and (directory / alias).exists():
            return directory / alias
    return None


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

    @property
    def sandboxes_dir(self) -> Path:
        return self.path / "sandboxes"

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
        """The journal's records in append order."""
        if not self.journal_path.exists():
            return []
        with open(self.journal_path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

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
        return find_artifact(self.path, kind) is not None

    def read(self, kind: ArtifactKind) -> str:
        found = find_artifact(self.path, kind)
        if found is None:
            raise FileNotFoundError(f"{kind.filename} not present in {self.path}")
        return found.read_text(encoding="utf-8")

    def write(self, kind: ArtifactKind, content: str) -> Path:
        """Write an artifact under its canonical name (aliases normalized)."""
        target = self.artifact_path(kind)
        target.write_text(content, encoding="utf-8")
        return target

    def present(self) -> frozenset[ArtifactKind]:
        found = set()
        for kind in ArtifactKind:
            if self.exists(kind):
                found.add(kind)
        return frozenset(found)

    def verdict(self) -> ReviewVerdict:
        """Parse review.md's verdict header. Raises when absent/unparseable."""
        if not self.exists(ArtifactKind.REVIEW):
            raise VerdictError(f"review.md not present in {self.path}")
        return parse_review_verdict(self.read(ArtifactKind.REVIEW))

    def has_passing_verdict(self) -> bool:
        """HAS_VERDICT predicate: review.md parses to PASS or PASS_WITH_NOTE."""
        try:
            return self.verdict().passing
        except VerdictError:
            return False
