"""The hot-path lint must pass on the checked-in tree (tier-1 guard)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_hot_modules_are_free_of_boxed_construction():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_no_boxed_hotpath.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_lint_catches_a_violation(tmp_path):
    hot = tmp_path / "src" / "repro" / "core"
    hot.mkdir(parents=True)
    for module in (
        "symbols.py",
        "iatoms.py",
        "factset.py",
        "views.py",
    ):
        (hot / module).write_text("x = 1\n")
    (tmp_path / "src" / "repro" / "tableaux").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "consistency").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "confidence" / "engine").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "tableaux" / "core.py").write_text(
        "bad = Constant('a')\n"
    )
    (tmp_path / "src" / "repro" / "consistency" / "coresearch.py").write_text(
        "ok = set()\nwaived = frozenset([1])  # boxed-ok: ints\n"
    )
    (tmp_path / "src" / "repro" / "confidence" / "engine" / "kernel.py").write_text(
        "s = frozenset(signature)\n"
    )
    (tmp_path / "src" / "repro" / "confidence" / "engine" / "memo.py").write_text(
        '"""Docstrings may say Constant( freely."""\nx = 2\n'
    )
    result = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "check_no_boxed_hotpath.py"),
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "tableaux/core.py" in result.stdout  # Constant( construction
    assert "kernel.py" in result.stdout  # frozenset( construction
    assert "coresearch.py" not in result.stdout  # waiver honoured
    assert "memo.py" not in result.stdout  # docstring mention ignored


def test_shard_merge_boxes_only_at_the_final_decode():
    # Answers stay interned through the shard merge and ordering; the one
    # waived construction is the decode of the final distinct answers.
    source = (REPO_ROOT / "src" / "repro" / "shard" / "merge.py").read_text()
    waived = [line for line in source.splitlines() if "# boxed-ok" in line]
    assert len(waived) == 1
    assert "Constant(" in waived[0]
