"""Repository hygiene: nothing the ignore rules exclude is tracked, and
the benchmark's worker still finds and can call what it uses of
spectre."""

import importlib
import importlib.util
import inspect
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


def test_benchmark_direct_calls_bind():
    """perfbench/workloads.py calls these directly, with these argument
    shapes; a removed or renamed parameter must fail here, not only in the
    benchmark."""
    from spectre import dixmier, model_triples as mt, univdiff
    calls = {
        mt.volume_check: (("circle",),
                          {"schedule": [10, 100, 1000], "spin_offset": 0.5}),
        mt.TorusSpec: ((), {"p": 2, "radii": (1.0, 1.37)}),
        mt.torus_singular_values: (("spec",), {"max_terms": 10}),
        dixmier.SingularValueSeq.runs: (("seq", 10), {}),
        univdiff.junk_basis: (("model", 2), {}),
        univdiff.in_junk_span: (("matrix", "junk", "model"), {}),
        univdiff.omega1_form: (("model", 1, 2), {}),
        univdiff.CircleModel: ((), {}),
        univdiff.CircleModel.words: (("model",), {}),
    }
    for fn, (args, kwargs) in calls.items():
        inspect.signature(fn).bind(*args, **kwargs)
