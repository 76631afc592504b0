"""Where agent sandboxes live: a private per-user directory under the
memory-backed root, outside the run directory and the runs root, found
again by every session of one run and by no other run."""

from __future__ import annotations

import os
import stat
import tempfile
import types
from pathlib import Path

import pytest

from conftest import run_scripted_workflow
from gatework import rundir
from gatework.errors import EnvironmentFailure
from gatework.rundir import RunDirectory, scratch_root


def _private(memory: Path) -> Path:
    return memory / f"gatework-{os.getuid()}"


def test_the_scratch_root_is_made_private_under_the_memory_root(_scratch_root):
    root = scratch_root()
    assert root == _private(_scratch_root)
    assert stat.S_IMODE(root.lstat().st_mode) == 0o700
    assert scratch_root() == root  # found again as it is


def test_sandboxes_live_outside_the_run_directory_and_the_runs_root(tmp_path, _scratch_root):
    run_dir = RunDirectory(tmp_path / "runs" / "req-1")
    sandboxes = run_dir.sandboxes_dir
    assert sandboxes.parent == _private(_scratch_root)
    assert sandboxes.name.startswith("req-1-")
    assert not sandboxes.is_relative_to(tmp_path)
    assert not sandboxes.exists()  # made by the first sandbox, not by asking


def test_two_runs_never_share_a_sandbox_directory_and_two_sessions_of_one_always_do(
    tmp_path, monkeypatch
):
    one, other = (tmp_path / name / "runs" / "req-1" for name in ("a", "b"))
    assert RunDirectory(one).sandboxes_dir != RunDirectory(other).sandboxes_dir
    # a later session may name the same run by another path
    (tmp_path / "link").symlink_to(tmp_path / "a")
    monkeypatch.chdir(tmp_path)
    names = (one, tmp_path / "link" / "runs" / "req-1", Path("a/runs/req-1"))
    same = {RunDirectory(path).sandboxes_dir for path in names}
    assert same == {RunDirectory(one).sandboxes_dir}


@pytest.mark.parametrize("mode", [0o770, 0o705, 0o701])
def test_a_scratch_root_others_may_enter_is_refused(_scratch_root, mode):
    root = _private(_scratch_root)
    root.mkdir()
    root.chmod(mode)
    with pytest.raises(EnvironmentFailure, match="mode 0700"):
        scratch_root()


def test_a_symlinked_scratch_root_is_refused(tmp_path, _scratch_root):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir(mode=0o700)
    _private(_scratch_root).symlink_to(elsewhere)
    with pytest.raises(EnvironmentFailure, match="mode 0700"):
        scratch_root()


def test_a_scratch_root_another_user_owns_is_refused(_scratch_root, monkeypatch):
    # seen as another user, the directory this process makes is foreign
    other = os.getuid() + 1
    monkeypatch.setattr(os, "getuid", lambda: other)
    _scratch_root.joinpath(f"gatework-{other}").mkdir(mode=0o700)
    with pytest.raises(EnvironmentFailure, match="mode 0700"):
        scratch_root()


def test_a_noexec_memory_root_falls_back_to_the_temp_directory(tmp_path, _scratch_root, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    real_statvfs = os.statvfs
    monkeypatch.setattr(
        os, "statvfs",
        lambda path: types.SimpleNamespace(f_flag=real_statvfs(path).f_flag | os.ST_NOEXEC),
    )
    assert scratch_root() == _private(tmp_path)
    assert not _private(_scratch_root).exists()


def test_a_missing_memory_root_falls_back_to_the_temp_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(rundir, "MEMORY_ROOT", tmp_path / "absent")
    assert scratch_root() == _private(tmp_path)


def test_a_refused_scratch_root_halts_the_session_before_any_dispatch(tmp_path, _scratch_root):
    _private(_scratch_root).mkdir(mode=0o777)
    _private(_scratch_root).chmod(0o777)
    # run_scripted_workflow also checks that nothing is left in the target
    report, run_dir, _ = run_scripted_workflow(tmp_path, 9)
    assert "mode 0700" in report.diagnostics["environment"]
    assert report.dispatch_counts == {}
    assert run_dir.report_json_path.exists()
    assert list(_private(_scratch_root).iterdir()) == []
