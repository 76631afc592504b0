"""Target-repository profiles and workspace-repository synchronization.

The workspace repository is user-owned and separate from any target
codebase: it archives run logs, keeps the CHANGELOG timeline, and carries
the active HANDOFF so a later session can resume with prior decisions,
known issues, and technical insights intact.
"""

from __future__ import annotations

import os
import re
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from gatework.clock import Clock
from gatework.errors import WorkspaceError
from gatework.gitlayer import SubprocessGit
from gatework.model import ArtifactKind
from gatework.rundir import RunDirectory


class Language(str, Enum):
    R = "R"
    PYTHON = "Python"
    TYPESCRIPT = "TypeScript"
    STATA = "Stata"
    GO = "Go"
    RUST = "Rust"
    C = "C"
    CPP = "C++"
    UNKNOWN = "Unknown"


class LanguageProfile(NamedTuple):
    """A language's detection markers, validation commands and doc
    convention. A repository matches when it has ``manifest`` at its root
    (if set) and a non-hidden ``*<source_suffix>`` file (if set)."""

    language: Language
    manifest: str | None
    source_suffix: str | None
    validation: tuple[str, ...]
    doc_convention: str


PROFILES: dict[Language, LanguageProfile] = {
    p.language: p
    for p in (
        LanguageProfile(Language.R, "DESCRIPTION", None, ("R CMD check --as-cran",), "roxygen2"),
        LanguageProfile(Language.PYTHON, "pyproject.toml", None, ("pytest", "tox"), "docstrings"),
        LanguageProfile(Language.TYPESCRIPT, "package.json", None, ("npm test", "eslint"), "TSDoc"),
        LanguageProfile(Language.STATA, None, ".ado", ("<do-file execution>",), "help files"),
        LanguageProfile(Language.GO, "go.mod", None, ("go test ./...",), "godoc"),
        LanguageProfile(Language.RUST, "Cargo.toml", None, ("cargo test", "clippy"), "rustdoc"),
        LanguageProfile(Language.C, "Makefile", ".c", ("<unit test runner>",), "header comments"),
        LanguageProfile(
            Language.CPP, "CMakeLists.txt", ".cpp", ("<unit test runner>",), "header comments"
        ),
    )
}

UNKNOWN_PROFILE = LanguageProfile(Language.UNKNOWN, None, None, (), "")

#: More specific manifests win in mixed repositories.
DETECTION_PRECEDENCE: tuple[Language, ...] = (
    Language.RUST,
    Language.GO,
    Language.PYTHON,
    Language.TYPESCRIPT,
    Language.R,
    Language.CPP,
    Language.C,
    Language.STATA,
)


def _has_source(repo: Path, suffix: str) -> bool:
    # hidden directories (.git above all) are pruned, not listed
    for root, dirs, files in os.walk(repo):
        dirs[:] = [name for name in dirs if not name.startswith(".")]
        sources = (name for name in files if name.endswith(suffix) and not name.startswith("."))
        if any(os.path.isfile(os.path.join(root, name)) for name in sources):
            return True
    return False


def detect_language(repo: Path) -> LanguageProfile:
    """Detect the target language from each profile's manifest and source
    suffix; the manifest is checked first, so a tree is scanned only for a
    profile whose manifest is present or that has none.

    Multiple matches resolve by the documented precedence; no match yields
    the UNKNOWN profile, which prompts a leader question to the user.
    """
    repo = Path(repo)
    if not repo.is_dir():
        raise FileNotFoundError(f"repository not readable: {repo}")
    for language in DETECTION_PRECEDENCE:
        profile = PROFILES[language]
        if profile.manifest is not None and not (repo / profile.manifest).is_file():
            continue
        if profile.source_suffix is None or _has_source(repo, profile.source_suffix):
            return profile
    return UNKNOWN_PROFILE


# --- workspace layout -------------------------------------------------------

_RUNS_FILE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}-[A-Za-z0-9._-]+\.md$")


class WorkspaceLayout(NamedTuple):
    """Per-target-repo corner of the workspace repository."""

    root: Path
    repo_name: str

    @property
    def repo_dir(self) -> Path:
        return self.root / self.repo_name

    @property
    def context_path(self) -> Path:
        return self.repo_dir / "context.md"

    @property
    def changelog_path(self) -> Path:
        return self.repo_dir / "CHANGELOG.md"

    @property
    def handoff_path(self) -> Path:
        return self.repo_dir / "HANDOFF.md"

    @property
    def docs_path(self) -> Path:
        return self.repo_dir / "docs.md"

    @property
    def ref_dir(self) -> Path:
        return self.repo_dir / "ref"

    @property
    def runs_dir(self) -> Path:
        return self.repo_dir / "runs"

    @property
    def logs_dir(self) -> Path:
        return self.repo_dir / "logs"

    @property
    def tmp_dir(self) -> Path:
        return self.repo_dir / "tmp"

    def ensure(self) -> "WorkspaceLayout":
        for directory in (self.ref_dir, self.runs_dir, self.logs_dir, self.tmp_dir):
            directory.mkdir(parents=True, exist_ok=True)
        return self

    def push_policy(self, relpath: str) -> str:
        """Classify a repo-dir-relative path: ``pushed`` or ``local``."""
        parts = Path(relpath).parts
        if not parts:
            return "local"
        head = parts[0]
        if head in ("logs", "tmp") or head == "context.md":
            return "local"
        if head == "runs":
            # completed run logs are pushed; active run directories are local
            return "pushed" if len(parts) == 2 and parts[1].endswith(".md") else "local"
        if head in ("CHANGELOG.md", "HANDOFF.md", "docs.md", "ref"):
            return "pushed"
        return "local"


def write_context(
    layout: WorkspaceLayout,
    *,
    target_repo: Path,
    git: SubprocessGit,
    profile: LanguageProfile,
) -> Path:
    """Regenerate context.md from repo metadata at run start."""
    layout.ensure()
    remote = git.remote_url(target_repo) or "(no remote)"
    branch = git.default_branch(target_repo) or "(unknown)"
    body = (
        f"# {layout.repo_name}\n\n"
        f"- remote: {remote}\n"
        f"- default branch: {branch}\n"
        f"- language profile: {profile.language.value}\n"
    )
    layout.context_path.write_text(body, encoding="utf-8")
    return layout.context_path


# --- handoff ----------------------------------------------------------------

_SECTION_RES = {
    2: re.compile(r"^##\s+(.+?)\s*$"),
    3: re.compile(r"^#{2,3}\s+(.+?)\s*$"),
}


def split_sections(markdown: str, max_level: int = 2) -> tuple[dict[str, str], list[str]]:
    """Split a markdown document into sections by header lines.

    ``max_level=2`` splits on ``## `` only; ``max_level=3`` also treats
    ``### `` headers as sections (handoff bodies synced out of a log entry
    carry their subsections one level down). Content before the first
    section header, other than a top-level title, produces a warning.
    """
    section_re = _SECTION_RES[max_level]
    sections: dict[str, str] = {}
    warnings: list[str] = []
    current: str | None = None
    buffer: list[str] = []
    preamble: list[str] = []

    def flush() -> None:
        if current is not None:
            sections[current] = "\n".join(buffer).strip()

    for line in markdown.splitlines():
        match = section_re.match(line)
        if match:
            flush()
            current = match.group(1)
            buffer = []
        elif current is None:
            if line.strip() and not line.startswith("# "):
                preamble.append(line)
        else:
            buffer.append(line)
    flush()
    if preamble:
        warnings.append("content before the first section header was ignored")
    return sections, warnings


def extract_section(markdown: str, title: str) -> str | None:
    sections, _ = split_sections(markdown)
    for name, content in sections.items():
        if name.lower() == title.lower():
            return content
    return None


NO_HANDOFF_STANZA = "No handoff items."


def render_handoff(body: str) -> str:
    body = body.strip()
    if not body:
        body = NO_HANDOFF_STANZA
    return f"# Handoff\n\n{body}\n"


# --- sync -------------------------------------------------------------------


class SyncReport(NamedTuple):
    ok: bool
    changed: bool
    detail: str = ""


def _slugify(text: str, fallback: str = "run") -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-").lower()
    return slug or fallback


def sync_workspace(
    layout: WorkspaceLayout,
    run_dir: RunDirectory,
    *,
    git: SubprocessGit,
    clock: Clock,
    slug: str,
) -> SyncReport:
    """Archive a completed run into the workspace and push.

    Copies log-entry.md to ``runs/<date>-<slug>.md``, prepends a dated
    CHANGELOG entry, replaces HANDOFF.md with the run's handoff notes, and
    copies docs.md verbatim. Only the synced files are committed: local-only
    paths and whatever else the user had staged stay out of the commit. A
    failed stage, commit or push rolls the workspace back to its pre-sync
    HEAD, index and files. Running twice for the same run changes nothing
    the second time.
    """
    log_entry = run_dir.read(ArtifactKind.LOG_ENTRY)
    if log_entry is None:
        raise WorkspaceError("sync requires log-entry.md in the run directory")
    if not run_dir.has_passing_verdict():
        raise WorkspaceError("sync requires a PASS-variant review verdict")
    layout.ensure()
    slug = _slugify(slug)
    date = clock.now().date().isoformat()

    runs_file = layout.runs_dir / f"{date}-{slug}.md"
    what_changed = extract_section(log_entry, "What Changed") or "(no what-changed section)"
    entry_header = f"## {date} — {slug}"
    changelog_old = (
        layout.changelog_path.read_text(encoding="utf-8")
        if layout.changelog_path.exists()
        else ""
    )
    if entry_header in changelog_old.splitlines():
        changelog_new = changelog_old
    else:
        entry = f"{entry_header}\n\n{what_changed.strip()}\n"
        changelog_new = entry + ("\n" + changelog_old if changelog_old.strip() else "")

    handoff_new = render_handoff(extract_section(log_entry, "Handoff Notes") or "")
    docs_new = run_dir.read(ArtifactKind.DOCS)

    targets: dict[Path, str] = {
        runs_file: log_entry,
        layout.changelog_path: changelog_new,
        layout.handoff_path: handoff_new,
    }
    if docs_new is not None:
        targets[layout.docs_path] = docs_new

    before: dict[Path, str | None] = {
        path: (path.read_text(encoding="utf-8") if path.exists() else None) for path in targets
    }
    changed_paths = [
        path for path, content in targets.items() if before[path] != content
    ]
    if not changed_paths:
        return SyncReport(ok=True, changed=False, detail="already in sync")

    pre_sync = git.head(layout.root)
    for path in changed_paths:
        path.write_text(targets[path], encoding="utf-8")

    rel = [str(p.relative_to(layout.root)) for p in changed_paths]
    last = git.stage_commit_push(layout.root, f"sync run {date}-{slug}", rel)[-1]
    if last.ok:
        return SyncReport(ok=True, changed=True, detail="synced and pushed")
    # undo the sync commit and unstage the synced files only, so what
    # the user had staged or edited stays as it was
    undone = pre_sync is not None and git.reset_to(layout.root, pre_sync, rel).ok
    detail = f"{last.action.value.lower()} failed ({last.error_kind}); workspace restored"
    if not undone:
        detail += " except its git history"
    for path in changed_paths:
        if before[path] is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(before[path], encoding="utf-8")
    return SyncReport(ok=False, changed=False, detail=detail)


# --- validation -------------------------------------------------------------


def validate_workspace(layout: WorkspaceLayout, git: SubprocessGit | None = None) -> tuple[str, ...]:
    """Lint a workspace: layout conformance, runs/ naming, HANDOFF
    parseability, and push-policy classification. Returns the violations;
    none means the workspace is clean."""
    violations: list[str] = []
    if not layout.repo_dir.is_dir():
        return (f"workspace repo directory missing: {layout.repo_dir}",)
    for directory in (layout.runs_dir, layout.logs_dir, layout.tmp_dir, layout.ref_dir):
        if not directory.is_dir():
            violations.append(f"required directory missing: {directory.relative_to(layout.root)}")
    if layout.runs_dir.is_dir():
        for entry in sorted(layout.runs_dir.iterdir()):
            if entry.is_file() and not _RUNS_FILE_RE.match(entry.name):
                violations.append(
                    f"runs/ file not named <date>-<slug>.md: runs/{entry.name}"
                )
    if layout.handoff_path.exists():
        _, warnings = split_sections(layout.handoff_path.read_text(encoding="utf-8"), max_level=3)
        violations += (f"HANDOFF.md: {warning}" for warning in warnings)
    if git is not None and git.is_repo(layout.root):
        for tracked in git.ls_tracked(layout.root):
            tracked_path = Path(tracked)
            try:
                rel = tracked_path.relative_to(layout.repo_name)
            except ValueError:
                continue
            if layout.push_policy(str(rel)) == "local":
                violations.append(f"local-only path tracked for push: {tracked}")
    return tuple(violations)
