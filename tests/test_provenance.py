"""Benchmark provenance names the tree it measured."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess

import pytest

from benchmarks import provenance

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="needs the git executable")


def git(root, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example",
         *args], cwd=root, check=True, capture_output=True,
        text=True).stdout.strip()


def test_revision_is_flagged_dirty_only_when_tracked_files_differ(tmp_path):
    # A copy of the module in its own repository, so the check reads a
    # tree this test controls.
    shutil.copy(provenance.__file__, tmp_path / "provenance.py")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "provenance.py")
    git(tmp_path, "commit", "-q", "-m", "seed")
    spec = importlib.util.spec_from_file_location(
        "provenance_copy", tmp_path / "provenance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    head = git(tmp_path, "rev-parse", "--short", "HEAD")

    assert module._git_revision() == head
    (tmp_path / "untracked.txt").write_text("scratch")
    assert module._git_revision() == head
    with open(tmp_path / "provenance.py", "a", encoding="utf-8") as handle:
        handle.write("\n# edited\n")
    assert module._git_revision() == f"{head}-dirty"
    assert module.host_provenance()["git_revision"] == f"{head}-dirty"
