"""Repository hygiene: nothing the ignore rules exclude is tracked, the
modules depend downward only, and the benchmark's worker still finds and
can call what it uses of spectre."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import shutil
import subprocess
import sys
import textwrap

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


# spectre's modules from the bottom up: each imports only modules before it
LAYERS = ("rationals", "symbols", "wodzicki", "_kernels", "dixmier",
          "model_triples", "clifford", "univdiff", "cli")
PACKAGE = ROOT / "src" / "spectre"


def _imports(module):
    """Every module that `module` imports, inside functions too: a spectre
    module by its short name, any other by its top-level package."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "spectre" if node.level else node.module
            if node.level and node.module:
                base += "." + node.module
            if base == "spectre":
                names.update(f"spectre.{alias.name}" for alias in node.names)
            else:
                names.add(base)
    return {name.split(".")[1] if name.startswith("spectre.") else
            name.split(".")[0] for name in names}


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_modules_depend_downward_only(module):
    above = set(LAYERS[LAYERS.index(module):])
    assert _imports(module) & above == set()


def test_clifford_imports_nothing_from_spectre():
    """The gamma matrices and their numeric oracle need no symbol engine;
    the symbolic word traces live in wodzicki."""
    assert _imports("clifford") & set(LAYERS) == set()


@pytest.mark.parametrize("module", ("rationals", "symbols", "wodzicki"))
def test_exact_layers_import_no_numerics(module):
    assert _imports(module) & {"numpy", "scipy"} == set()


def test_wres_runs_without_numpy():
    code = ("import contextlib, io, sys\n"
            "from spectre import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['wres', '--p', '3'])\n"
            "print(rc, 'numpy' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["0", "False"]


def test_distance_runs_without_scipy(tmp_path):
    """The distance is proved by weak duality; only `lp_distance`, the
    tests' oracle, imports SciPy."""
    graph = tmp_path / "graph.csv"
    graph.write_text("u,v,length\nA,B,1.5\nB,C,2.0\n", encoding="utf-8")
    code = ("import contextlib, io, sys\n"
            "from spectre import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli.main(['distance', '--graph', {str(graph)!r},\n"
            "                   '--from', 'A', '--to', 'C'])\n"
            "print(rc, 'scipy' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["0", "False"]


def _sources():
    return sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("tests/*.py"))


@pytest.mark.parametrize("path", _sources(), ids=lambda path: path.name)
def test_every_import_is_read(path):
    """A name a module imports is read somewhere in that module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported - read == set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_assert_statement_in_the_package(path):
    """python -O strips assert statements; the package's checks raise."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))


# parameters no body reads, each with the reason it stays
UNREAD_PARAMETERS = {
    # perfbench passes it; it goes with the next change to the benchmark
    ("model_triples", "torus_singular_values", "max_terms"),
    # the NumPy array protocol passes both
    ("univdiff", "WeightedShift.__array__", "dtype"),
    ("univdiff", "WeightedShift.__array__", "copy"),
    # the model interface: the circle's reach reads the word tuple
    ("univdiff", "DiagonalModel.reach", "word_tuple"),
}


def _unread_parameters(module):
    """(module, qualified name, parameter) for every parameter of a
    function or lambda that its body never reads; a method's first
    parameter (self or cls) is not counted."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", True)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args]
                if in_class and not isinstance(child, ast.Lambda):
                    params = params[1:]
                params += [a.arg for a in args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a]
                body = child.body if isinstance(child.body, list) \
                    else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                found.update((module, name, p) for p in params
                             if p not in read)
                visit(child, name + ".", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return found


def test_every_parameter_is_read():
    """North star 2, no settings that do nothing: a parameter of a
    function in src/spectre that its body never reads changes no result."""
    found = set().union(*(_unread_parameters(m) for m in LAYERS))
    assert found == UNREAD_PARAMETERS, (
        "a parameter no body reads should go; if it must stay, add it "
        "with its reason to UNREAD_PARAMETERS in tests/test_repository.py "
        f"(unread now: {sorted(found - UNREAD_PARAMETERS)}; listed but "
        f"read or gone: {sorted(UNREAD_PARAMETERS - found)})")


# public names (top-level, or methods of public classes) no command
# reaches, each with the reason it stays
LIBRARY_API = {
    # the (1,infinity) ideal and measurability, where the Dixmier trace of
    # the source paper lives
    "dixmier.pinfty_norm": "the (p, infinity) norm of the singular values",
    "dixmier.p1_norm": "the (p, 1) norm, the dual ideal's",
    "dixmier.is_measurable": "the measurability probe of a sequence",
    "dixmier.partial_sum": "S_N, the sum of the first N + 1 terms",
    "dixmier.partial_ratio": "S_N / log N at one N",
    "model_triples.sphere_volume": "Vol(S^(p-1)), a factor of c(p) Vol",
    "model_triples.volume_identity": "c(p) against its closed form "
                                     "(criterion 6)",
    "model_triples.torus_shells": "the exact lambda^2 shells of a torus",
    "model_triples.shortest_path_distance": "the distance without its "
                                            "certificate",
    "univdiff.JunkBasis": "what junk_basis returns",
    "univdiff.junk_basis": "the junk forms of the model",
    "univdiff.in_junk_span": "membership in the junk span",
    "univdiff.omega1_form": "the trace pairing on one-forms",
    "univdiff.chain": "builds a chain from its word tuples",
    "univdiff.chain_star": "the involution of the differential algebra",
    "univdiff.CircleModel.star_word": "the word of a*, which chain_star "
                                      "reads",
    "univdiff.DiagonalModel.star_word": "the word of a*, which chain_star "
                                        "reads",
    "wodzicki.gravity_action": "the action coefficients of one p",
    "wodzicki.quadratic_form_coeff": "the torsion quadratic form of one p",
    "wodzicki.inverse_power": "the symbols of a negative power of D^2",
    "wodzicki.parametrix_D2": "the parametrix jets of D^2",
    "wodzicki.gamma_word_trace": "the spinor trace of one gamma word",
    "wodzicki.spinor_trace": "the spinor trace of a matrix-word expression",
}
# public names that stay in src/ because perfbench binds them; they move
# with the next change to the benchmark
BENCHMARK_BOUND = {
    "_kernels.IMPL": "perfbench records it as the kernel's provenance",
    "model_triples.torus_eigenvalue_grid": "perfbench traces it; the torus "
                                           "oracle of the tests",
    "model_triples.lp_distance": "perfbench traces it; criterion 7's "
                                 "oracle",
    "dixmier.SingularValueSeq.runs": "perfbench's irrational torus reads "
                                     "its runs",
}


def _is_function(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _definitions():
    """{(module, name): (the reads that reach it, the nodes it reads)} for
    every function, class and assigned name at the top level of
    src/spectre, and for every public method of a public class, named
    `Class.method`.  A top-level name is reached by its bare name or as an
    attribute, a method as an attribute only.  A class reads its nodes
    but its public methods: each of those is reached on its own."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if _is_function(node) or isinstance(node, ast.ClassDef):
                names, nodes = [node.name], [node]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
                nodes = [node]
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                names, nodes = [node.target.id], [node]
            else:
                continue
            if isinstance(node, ast.ClassDef) and \
                    not node.name.startswith("_"):
                methods = [n for n in node.body if _is_function(n)
                           and not n.name.startswith("_")]
                found.update(((path.stem, f"{node.name}.{n.name}"),
                              ({"." + n.name}, [n])) for n in methods)
                nodes = [n for n in node.body if n not in methods] + \
                    node.bases + node.decorator_list
            found.update(((path.stem, name), ({name, "." + name}, nodes))
                         for name in names)
    return found


def _names_read(nodes):
    """Every name the nodes read: a bare name as itself, an attribute
    with a leading dot."""
    return {n.id if isinstance(n, ast.Name) else "." + n.attr
            for node in nodes for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def _reached_from_cli():
    """The static closure of the names cli.py reads: a definition, in any
    module, whose name a reached body reads is reached too.  Names are
    matched without their module or class, so a shared name reaches every
    definition that bears it."""
    definitions = _definitions()
    read = _names_read([ast.parse((PACKAGE / "cli.py").read_text(
        encoding="utf-8"))])
    reached = set()
    while True:
        new = {key for key, (reads, _) in definitions.items()
               if reads & read and key not in reached}
        if not new:
            return definitions, reached
        reached |= new
        for key in new:
            read |= _names_read(definitions[key][1])


def test_every_public_name_is_reached_or_listed():
    """North star 2: src/ holds what a command runs.  A public top-level
    name, or a public method of a public class, that no command reaches
    is library API or bound by the benchmark, and says so; anything else
    belongs in tests/ or nowhere."""
    assert LIBRARY_API.keys() & BENCHMARK_BOUND.keys() == set()
    definitions, reached = _reached_from_cli()
    unreached = {f"{module}.{name}" for module, name in definitions
                 if (module, name) not in reached
                 and not name.startswith("_")}
    listed = LIBRARY_API.keys() | BENCHMARK_BOUND.keys()
    assert unreached == listed, (
        "a public name no command reaches belongs in tests/ or nowhere; if "
        "it must stay in src/, add it with a one-line reason to "
        "LIBRARY_API, or to BENCHMARK_BOUND if perfbench calls it, in "
        "tests/test_repository.py (unreached and unlisted: "
        f"{sorted(unreached - listed)}; listed but reached or gone: "
        f"{sorted(listed - unreached)})")


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


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    """Under the project's warning filters a failing @given test is one
    failure and the session goes on: hypothesis imports libcst to write
    the failure's patch, and that import warns of a deprecation."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
