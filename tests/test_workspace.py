from __future__ import annotations

import os
import shutil
import subprocess
from pathlib import Path

import pytest

from conftest import RecordingGit, init_git_repo
from gatework.clock import TickClock
from gatework.errors import WorkspaceError
from gatework.gitlayer import GitAction, SubprocessGit
from gatework.model import ArtifactKind
from gatework.rundir import RunDirectory
from gatework.workspace import (
    PROFILES,
    DETECTION_PRECEDENCE,
    Language,
    WorkspaceLayout,
    detect_language,
    read_handoff,
    sync_workspace,
    validate_workspace,
)

K = ArtifactKind


# --- language detection -------------------------------------------------------


def _fixture_repo(tmp_path: Path, language: Language) -> Path:
    repo = tmp_path / f"repo-{language.name.lower()}"
    repo.mkdir(parents=True, exist_ok=True)
    marker_files = {
        Language.R: ["DESCRIPTION"],
        Language.PYTHON: ["pyproject.toml"],
        Language.TYPESCRIPT: ["package.json"],
        Language.STATA: ["ado/estimator.ado"],
        Language.GO: ["go.mod"],
        Language.RUST: ["Cargo.toml"],
        Language.C: ["Makefile", "src/main.c"],
        Language.CPP: ["CMakeLists.txt", "src/main.cpp"],
    }
    for name in marker_files[language]:
        path = repo / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("marker\n", encoding="utf-8")
    return repo


@pytest.mark.parametrize("language", [l for l in Language if l is not Language.UNKNOWN])
def test_single_marker_fixture_detects_profile(tmp_path, language):
    repo = _fixture_repo(tmp_path, language)
    assert detect_language(repo).language is language


def test_mixed_marker_repo_resolves_by_precedence(tmp_path):
    repo = tmp_path / "mixed"
    repo.mkdir()
    for language in DETECTION_PRECEDENCE:
        _fixture_repo_into(repo, language)
    assert detect_language(repo).language is Language.RUST
    (repo / "Cargo.toml").unlink()
    assert detect_language(repo).language is Language.GO


def _fixture_repo_into(repo: Path, language: Language) -> None:
    files = {
        Language.R: ["DESCRIPTION"],
        Language.PYTHON: ["pyproject.toml"],
        Language.TYPESCRIPT: ["package.json"],
        Language.STATA: ["ado/estimator.ado"],
        Language.GO: ["go.mod"],
        Language.RUST: ["Cargo.toml"],
        Language.C: ["Makefile", "src/main.c"],
        Language.CPP: ["CMakeLists.txt", "src/main.cpp"],
    }
    for name in files[language]:
        path = repo / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("marker\n", encoding="utf-8")


def test_empty_repo_is_unknown(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert detect_language(empty).language is Language.UNKNOWN


def test_unreadable_repo_is_io_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        detect_language(tmp_path / "missing")


def test_c_markers_require_both_manifest_and_source(tmp_path):
    repo = tmp_path / "half-c"
    repo.mkdir()
    (repo / "Makefile").write_text("all:\n", encoding="utf-8")
    assert detect_language(repo).language is Language.UNKNOWN  # no .c file yet
    (repo / "main.c").write_text("int main(void){return 0;}\n", encoding="utf-8")
    assert detect_language(repo).language is Language.C


# Where a Makefile repository's only C source may sit (a file, or a
# symlink to the ``outside`` path given), and whether the scan counts it:
# never under a hidden directory or as a hidden file, never through a
# symlinked directory, and only when the path is a file.
_C_SOURCE_PLACEMENTS = [
    ("main.c", None, Language.C),
    ("src/deep/main.c", None, Language.C),
    ("link.c", "real.c", Language.C),
    (".hidden/main.c", None, Language.UNKNOWN),
    ("src/.cache/main.c", None, Language.UNKNOWN),
    (".main.c", None, Language.UNKNOWN),
    ("src/.main.c", None, Language.UNKNOWN),
    (".git/objects/main.c", None, Language.UNKNOWN),
    ("vendor", "lib", Language.UNKNOWN),
    ("dangling.c", "missing.c", Language.UNKNOWN),
    ("dir.c/readme.txt", None, Language.UNKNOWN),
    (".hidden.c", "real.c", Language.UNKNOWN),
]


@pytest.mark.parametrize("name,target,expected", _C_SOURCE_PLACEMENTS)
def test_c_source_detection_skips_hidden_paths_and_symlinked_directories(tmp_path, name, target, expected):
    outside = tmp_path / "outside"
    (outside / "lib").mkdir(parents=True)
    (outside / "real.c").write_text("int f;\n", encoding="utf-8")
    (outside / "lib" / "main.c").write_text("int g;\n", encoding="utf-8")
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "Makefile").write_text("all:\n", encoding="utf-8")
    path = repo / name
    path.parent.mkdir(parents=True, exist_ok=True)
    if target is None:
        path.write_text("int main(void){return 0;}\n", encoding="utf-8")
    else:
        path.symlink_to(outside / target)
    assert detect_language(repo).language is expected


def test_language_detection_lists_nothing_under_git(tmp_path, monkeypatch):
    repo = _init_real_repo(tmp_path / "repo")
    (repo / "Makefile").write_text("all:\n", encoding="utf-8")
    (repo / "src").mkdir()
    listed: list[Path] = []
    scandir = os.scandir

    def listing(path="."):
        listed.append(Path(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", listing)
    assert detect_language(repo).language is Language.UNKNOWN
    assert repo / "src" in listed
    assert [p for p in listed if ".git" in p.relative_to(repo).parts] == []


def test_validation_commands_verbatim():
    assert PROFILES[Language.GO].validation == ("go test ./...",)
    assert PROFILES[Language.PYTHON].validation == ("pytest", "tox")
    assert PROFILES[Language.R].validation == ("R CMD check --as-cran",)
    assert PROFILES[Language.RUST].validation == ("cargo test", "clippy")
    # placeholder rows require a repo-config override
    assert PROFILES[Language.C].validation == ("<unit test runner>",)


# --- layout and push policy -----------------------------------------------------


def test_push_policy_classification(tmp_path):
    layout = WorkspaceLayout(root=tmp_path, repo_name="myrepo")
    pushed = ["CHANGELOG.md", "HANDOFF.md", "docs.md", "ref/paper.pdf", "runs/2026-01-05-fix.md"]
    local = ["logs/debug.log", "tmp/scratch.bin", "context.md", "runs/req-123/audit.md"]
    for relpath in pushed:
        assert layout.push_policy(relpath) == "pushed", relpath
    for relpath in local:
        assert layout.push_policy(relpath) == "local", relpath


# --- sync ------------------------------------------------------------------------

LOG_ENTRY = """\
# Log entry

## What Changed
Reworked the retry queue and tightened the input validation.

## Validation Results
All suites green.

## Handoff Notes
### Prior Decisions
The retry queue stays bounded at three cycles per signal.

### Known Issues
Large answer files are loaded eagerly.
"""


def _completed_run(tmp_path: Path, log_entry: str = LOG_ENTRY, name: str = "run") -> RunDirectory:
    run_dir = RunDirectory(tmp_path / name).create()
    run_dir.write(K.REVIEW, "verdict: PASS\nall good\n")
    run_dir.write(K.LOG_ENTRY, log_entry)
    run_dir.write(K.DOCS, "# Docs\n\nLatest documentation summary.\n")
    return run_dir


@pytest.fixture
def layout(tmp_path) -> WorkspaceLayout:
    return WorkspaceLayout(root=tmp_path / "workspace", repo_name="panelkit").ensure()


@pytest.fixture
def remote(tmp_path, layout) -> Path:
    """The bare remote that ``layout``, made a git repository, pushes to."""
    bare = tmp_path / "remote.git"
    init_git_repo(layout.root, remote=bare)
    return bare


def test_sync_archives_run_and_prepends_changelog(tmp_path, layout, remote):
    run_dir = _completed_run(tmp_path)
    git = RecordingGit()
    report = sync_workspace(layout, run_dir, git=git, clock=TickClock(), slug="retry queue fix")
    assert report.ok and report.changed
    runs_file = layout.runs_dir / "2000-01-01-retry-queue-fix.md"
    assert runs_file.exists()
    assert runs_file.read_text(encoding="utf-8") == LOG_ENTRY
    changelog = layout.changelog_path.read_text(encoding="utf-8")
    assert changelog.splitlines()[0] == "## 2000-01-01 — retry-queue-fix"
    assert "Reworked the retry queue" in changelog
    assert "Latest documentation summary" in layout.docs_path.read_text(encoding="utf-8")
    # everything staged for push is classified as pushed
    staged = [p for a in git.actions if a.action is GitAction.STAGE for p in a.detail.split(", ")]
    for path in staged:
        rel = Path(path).relative_to("panelkit")
        assert layout.push_policy(str(rel)) == "pushed"


def test_sync_is_idempotent(tmp_path, layout, remote):
    run_dir = _completed_run(tmp_path)
    git = RecordingGit()
    clock = TickClock()
    first = sync_workspace(layout, run_dir, git=git, clock=clock, slug="fix")
    assert first.changed

    def tree() -> dict:
        return {
            str(p.relative_to(layout.root)): p.read_bytes()
            for p in sorted(layout.root.rglob("*"))
            if p.is_file()
        }

    snapshot = tree()
    actions_before = len(git.actions)
    second = sync_workspace(layout, run_dir, git=git, clock=clock, slug="fix")
    assert second.ok and not second.changed
    assert tree() == snapshot
    assert len(git.actions) == actions_before  # no duplicate commits or pushes
    changelog = layout.changelog_path.read_text(encoding="utf-8")
    assert changelog.count("## 2000-01-01 — fix") == 1


def test_two_sequential_runs_handoff_keeps_only_latest(tmp_path, layout, remote):
    git = SubprocessGit()
    clock = TickClock()
    first = _completed_run(tmp_path, name="run1")
    sync_workspace(layout, first, git=git, clock=clock, slug="first")
    second_entry = LOG_ENTRY.replace("The retry queue stays", "The new dispatch policy stays")
    second = _completed_run(tmp_path, log_entry=second_entry, name="run2")
    sync_workspace(layout, second, git=git, clock=clock, slug="second")
    handoff = layout.handoff_path.read_text(encoding="utf-8")
    assert "The new dispatch policy stays" in handoff
    assert "The retry queue stays" not in handoff


def test_sync_empty_handoff_section_writes_explicit_stanza(tmp_path, layout, remote):
    entry = "# Log entry\n\n## What Changed\nSmall fix.\n\n## Handoff Notes\n"
    run_dir = _completed_run(tmp_path, log_entry=entry)
    sync_workspace(layout, run_dir, git=SubprocessGit(), clock=TickClock(), slug="small")
    assert "No handoff items." in layout.handoff_path.read_text(encoding="utf-8")


def test_sync_rolls_back_on_push_failure(tmp_path, layout, remote):
    shutil.rmtree(remote)  # the remote is gone: the push fails
    run_dir = _completed_run(tmp_path)

    def tree() -> dict:
        return {
            str(p.relative_to(layout.root)): p.read_bytes()
            for p in sorted(layout.root.rglob("*"))
            if p.is_file() and ".git" not in p.relative_to(layout.root).parts
        }

    before = tree()
    report = sync_workspace(layout, run_dir, git=SubprocessGit(), clock=TickClock(), slug="fix")
    assert not report.ok
    assert report.detail.startswith("push failed"), report.detail
    assert tree() == before


def test_sync_rollback_on_real_git_undoes_the_sync_commit(tmp_path, layout):
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(layout.root), *args], capture_output=True, text=True, check=True
        ).stdout

    git("init", "-q", "-b", "main")
    layout.changelog_path.write_text("## 1999-12-31 — earlier\n\nOlder entry.\n", encoding="utf-8")
    layout.context_path.write_text("# panelkit\n", encoding="utf-8")
    git("add", "-A")
    git("commit", "-q", "-m", "workspace")
    # a tracked local-only edit the sync must neither commit nor lose
    layout.context_path.write_text("# panelkit\n\n- local note\n", encoding="utf-8")
    # an upstream that cannot be reached
    git("remote", "add", "origin", str(tmp_path / "missing.git"))
    git("config", "branch.main.remote", "origin")
    git("config", "branch.main.merge", "refs/heads/main")

    def snapshot() -> tuple[str, str, dict[Path, bytes]]:
        files = layout.root.rglob("*")
        return (
            git("rev-parse", "HEAD"),
            git("status", "--porcelain", "--untracked-files=all"),
            {p: p.read_bytes() for p in files if ".git" not in p.parts and p.is_file()},
        )

    before = snapshot()
    run_dir = _completed_run(tmp_path)
    report = sync_workspace(layout, run_dir, git=SubprocessGit(), clock=TickClock(), slug="fix")

    assert not report.ok
    assert report.detail.endswith("workspace restored"), report.detail
    assert snapshot() == before


def _workspace_with_staged_user_edit(layout: WorkspaceLayout, remote: Path) -> None:
    """A real-git workspace whose user has staged an edit of notes.md."""
    root = layout.root
    _git(root.parent, "init", "-q", "-b", "main", str(root))
    notes = layout.repo_dir / "notes.md"
    notes.write_text("first draft\n", encoding="utf-8")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "workspace")
    _git(root, "remote", "add", "origin", str(remote))
    _git(root, "config", "branch.main.remote", "origin")
    _git(root, "config", "branch.main.merge", "refs/heads/main")
    notes.write_text("second draft\n", encoding="utf-8")
    _git(root, "add", str(notes))


def test_sync_on_real_git_commits_only_the_synced_files(tmp_path, layout):
    remote = tmp_path / "remote.git"
    subprocess.run(["git", "init", "-q", "--bare", "-b", "main", str(remote)], check=True)
    _workspace_with_staged_user_edit(layout, remote)
    report = sync_workspace(
        layout, _completed_run(tmp_path), git=SubprocessGit(), clock=TickClock(), slug="fix"
    )
    assert report.ok and report.changed, report.detail
    committed = _git(layout.root, "show", "--name-only", "--format=", "HEAD").split()
    assert sorted(committed) == [
        "panelkit/CHANGELOG.md", "panelkit/HANDOFF.md", "panelkit/docs.md",
        "panelkit/runs/2000-01-01-fix.md",
    ]
    assert _git(layout.root, "status", "--porcelain") == "M  panelkit/notes.md\n"
    assert _git(remote, "rev-parse", "main") == _git(layout.root, "rev-parse", "HEAD")


def test_sync_rollback_on_real_git_keeps_what_the_user_had_staged(tmp_path, layout):
    _workspace_with_staged_user_edit(layout, tmp_path / "missing.git")
    before = _git(layout.root, "status", "--porcelain", "--untracked-files=all")
    head = _git(layout.root, "rev-parse", "HEAD")
    report = sync_workspace(
        layout, _completed_run(tmp_path), git=SubprocessGit(), clock=TickClock(), slug="fix"
    )
    assert not report.ok
    assert before == "M  panelkit/notes.md\n"
    assert _git(layout.root, "status", "--porcelain", "--untracked-files=all") == before
    assert _git(layout.root, "rev-parse", "HEAD") == head


def test_sync_requires_log_entry_and_passing_verdict(tmp_path, layout):
    run_dir = RunDirectory(tmp_path / "incomplete").create()
    run_dir.write(K.REVIEW, "verdict: PASS\n")
    with pytest.raises(WorkspaceError):
        sync_workspace(layout, run_dir, git=SubprocessGit(), clock=TickClock(), slug="x")
    run_dir.write(K.LOG_ENTRY, LOG_ENTRY)
    run_dir.write(K.REVIEW, "verdict: STOP\n")
    with pytest.raises(WorkspaceError):
        sync_workspace(layout, run_dir, git=SubprocessGit(), clock=TickClock(), slug="x")


# --- handoff ----------------------------------------------------------------------


def test_read_handoff_fresh_workspace_is_empty(layout):
    context = read_handoff(layout)
    assert context.empty
    assert context.warnings == ()


def test_handoff_round_trips_through_sync(tmp_path, layout, remote):
    # oracle: write-then-read equality on section contents
    run_dir = _completed_run(tmp_path)
    sync_workspace(layout, run_dir, git=SubprocessGit(), clock=TickClock(), slug="fix")
    context = read_handoff(layout)
    assert context.prior_decisions == "The retry queue stays bounded at three cycles per signal."
    assert context.known_issues == "Large answer files are loaded eagerly."
    assert context.technical_insights == ""


def test_read_handoff_preserves_unknown_sections(layout):
    layout.handoff_path.write_text(
        "# Handoff\n\n## Known Issues\nnone\n\n## Deployment Rituals\nchant twice\n",
        encoding="utf-8",
    )
    context = read_handoff(layout)
    assert context.known_issues == "none"
    assert context.other == {"Deployment Rituals": "chant twice"}


def test_read_handoff_malformed_content_warns(layout):
    layout.handoff_path.write_text("stray prose without any section\n", encoding="utf-8")
    context = read_handoff(layout)
    assert context.warnings


# --- git layer ---------------------------------------------------------------------


def _git(repo: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args], capture_output=True, text=True, check=True
    )
    return proc.stdout


def _init_real_repo(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    subprocess.run(["git", "init", "-q", "-b", "main", str(path)], check=True)
    _git(path, "config", "user.email", "dev@example.org")
    _git(path, "config", "user.name", "dev")
    (path / "README.md").write_text("seed\n", encoding="utf-8")
    _git(path, "add", "-A")
    _git(path, "commit", "-q", "-m", "seed")
    return path


def test_subprocess_git_worktree_roundtrip(tmp_path):
    repo = _init_real_repo(tmp_path / "repo")
    git = SubprocessGit()
    worktree = tmp_path / "wt"
    added = git.worktree_add(repo, worktree, "agent/builder/req-1", new_branch=True)
    assert added.ok, added.output
    assert (worktree / "README.md").exists()
    assert _git(worktree, "rev-parse", "--abbrev-ref", "HEAD").strip() == "agent/builder/req-1"
    removed = git.worktree_remove(repo, worktree)
    assert removed.ok
    assert not worktree.exists()
    # removing again is a no-op
    assert git.worktree_remove(repo, worktree).ok


def test_remote_url_tells_a_repository_without_origin_from_no_repository(tmp_path):
    git = SubprocessGit()
    plain = tmp_path / "plain"
    plain.mkdir()
    assert git.remote_url(plain) is None and not git.is_repo(plain)
    assert git.remote_url(tmp_path / "missing") is None
    repo = _init_real_repo(tmp_path / "repo")
    (repo / "sub").mkdir()
    bare = tmp_path / "bare.git"
    subprocess.run(["git", "init", "-q", "--bare", str(bare)], check=True)
    for where in (repo, repo / "sub", bare):
        assert git.remote_url(where) == "" and git.is_repo(where)


def test_subprocess_git_commit_and_push_to_bare_remote(tmp_path):
    remote = tmp_path / "remote.git"
    subprocess.run(["git", "init", "-q", "--bare", "-b", "main", str(remote)], check=True)
    repo = _init_real_repo(tmp_path / "repo")
    _git(repo, "remote", "add", "origin", str(remote))
    _git(repo, "push", "-q", "-u", "origin", "main")

    git = SubprocessGit()
    (repo / "new.txt").write_text("payload\n", encoding="utf-8")
    assert git.stage(repo, ["new.txt"]).ok
    assert git.commit(repo, "add payload", ["new.txt"]).ok
    assert git.push(repo).ok
    listing = subprocess.run(
        ["git", "-C", str(remote), "ls-tree", "-r", "--name-only", "main"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "new.txt" in listing
    assert git.remote_url(repo) == str(remote)
    assert git.default_branch(repo) == "main"


def test_subprocess_git_reads_english_under_a_german_locale(tmp_path, monkeypatch):
    repo = _init_real_repo(tmp_path / "repo")
    monkeypatch.setenv("LANGUAGE", "de")
    monkeypatch.setenv("LC_ALL", "C.UTF-8")
    if "nichts zu committen" not in _git(repo, "status"):
        pytest.skip("git prints no German messages here")
    result = SubprocessGit().commit(repo, "nothing new", [])
    assert result.ok, result.output
    assert result.detail == "nothing new (nothing to commit)"


# --- workspace validation -------------------------------------------------------------


def test_validate_conforming_workspace_is_clean(layout):
    report = validate_workspace(layout)
    assert report.ok


def test_validate_flags_bad_runs_names(layout):
    (layout.runs_dir / "notes.md").write_text("x\n", encoding="utf-8")
    (layout.runs_dir / "2026-01-05-good-fix.md").write_text("x\n", encoding="utf-8")
    (layout.runs_dir / "req-active-run").mkdir()
    report = validate_workspace(layout)
    assert ["runs/ file not named <date>-<slug>.md: runs/notes.md"] == list(report.violations)


def test_validate_flags_tracked_local_paths_with_real_git(tmp_path):
    root = _init_real_repo(tmp_path / "workspace")
    layout = WorkspaceLayout(root=root, repo_name="panelkit").ensure()
    (layout.tmp_dir / "scratch.bin").write_text("x\n", encoding="utf-8")
    _git(root, "add", "panelkit/tmp/scratch.bin")
    report = validate_workspace(layout, git=SubprocessGit())
    assert any("local-only path tracked for push" in v for v in report.violations)


def test_validate_flags_a_tracked_local_path_with_a_non_ascii_name(tmp_path):
    root = _init_real_repo(tmp_path / "workspace")
    layout = WorkspaceLayout(root=root, repo_name="target").ensure()
    (layout.logs_dir / "café.md").write_text("x\n", encoding="utf-8")
    _git(root, "add", "target/logs/café.md")
    report = validate_workspace(layout, git=SubprocessGit())
    assert "local-only path tracked for push: target/logs/café.md" in report.violations


def test_validate_missing_workspace_dirs(tmp_path):
    layout = WorkspaceLayout(root=tmp_path, repo_name="ghost")
    report = validate_workspace(layout)
    assert not report.ok
