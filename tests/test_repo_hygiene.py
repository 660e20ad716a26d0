"""Repo hygiene: build artifacts can never be committed again.

A stray ``src/repro/orchestrate/__pycache__`` once rode into a commit;
``.gitignore`` now blocks the whole class and this test keeps the git
index honest even if an ignore rule is bypassed with ``git add -f``.
"""

import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def tracked_files() -> list[str]:
    try:
        output = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git unavailable or not a work tree")
    if not output.strip():
        pytest.skip("empty git index (exported tree?)")
    return output.splitlines()


def test_no_bytecode_or_pycache_tracked():
    offenders = [
        path
        for path in tracked_files()
        if "__pycache__" in path or path.endswith((".pyc", ".pyo"))
    ]
    assert not offenders, (
        f"compiled python artifacts are tracked: {offenders}; "
        f"git rm -r --cached them (they are .gitignore'd)"
    )


def test_gitignore_blocks_pycache_everywhere():
    text = (REPO_ROOT / ".gitignore").read_text()
    assert "__pycache__/" in text
    assert "src/**/__pycache__/" in text  # belt and braces for src


def test_no_benchmark_output_tracked():
    """Benches rewrite their ``benchmarks/BENCH_*.json`` on every tier-1
    run; tracked, they would dirty the tree each time."""
    offenders = [
        path
        for path in tracked_files()
        if path.startswith("benchmarks/BENCH_") and path.endswith(".json")
    ]
    assert not offenders, (
        f"benchmark outputs are tracked: {offenders}; "
        f"git rm --cached them and list them in .gitignore"
    )
