"""Repository hygiene: nothing the ignore rules exclude is tracked, and
the benchmark's worker still finds what it uses of spectre."""

import importlib
import importlib.util
import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    inside = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                            cwd=ROOT, capture_output=True, text=True)
    if inside.returncode != 0 or \
            pathlib.Path(inside.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this project")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.split()
    assert listed == []


def test_benchmark_targets_resolve():
    """perfbench wraps spectre's functions by dotted name and records
    `_kernels.IMPL`; a rename under src/ must fail here, not in the
    benchmark."""
    path = ROOT / "perfbench" / "tracing.py"
    if not path.exists():
        pytest.skip("perfbench is not part of this tree")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for target in tracing.TARGETS:
        module, _, attr = target.partition(".")
        owner = importlib.import_module(f"spectre.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), target
    assert importlib.import_module("spectre._kernels").IMPL
