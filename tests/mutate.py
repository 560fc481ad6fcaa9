"""Mutation testing of named functions, with the standard library only.

Each mutant changes one operator or literal inside one target function:
a comparison turned to its boundary or its negation, an arithmetic or
boolean operator swapped, an int literal plus one, a unary minus or `not`
dropped, or `max`/`min` (`any`/`all`) exchanged.  The tool copies the
working tree into a scratch directory, runs the tests once on the
unmutated copy to learn which already fail, then writes each mutant into
the copy's module in turn and runs the tests on it.  A mutant is
killed when a test that passes unmutated fails, or when the run times
out; otherwise it survives.  The working tree is never written.

    python tests/mutate.py --scratch /tmp/mut \\
        --target symbols:_add_products --target symbols:SymbolExpr.grade \\
        -- tests/test_symbols.py tests/test_cli.py tests/test_acceptance.py

A target is `module:qualified.name` of a module of src/spectre.  The
arguments after `--` go to pytest, which runs with a fixed Hypothesis seed
and stops once more tests fail than fail unmutated.  The
scratch directory must lie outside the working tree and be empty or one
this tool made before.
"""

import argparse
import ast
import copy
import os
import pathlib
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

ROOT = pathlib.Path(__file__).resolve().parent.parent
MARKER = ".mutate-scratch"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".perfbench_work",
                              ".benchmarks", "BENCH_*.json")

_COMPARE = {
    ast.Lt: (ast.LtE, ast.GtE), ast.LtE: (ast.Lt, ast.Gt),
    ast.Gt: (ast.GtE, ast.LtE), ast.GtE: (ast.Gt, ast.Lt),
    ast.Eq: (ast.NotEq,), ast.NotEq: (ast.Eq,),
    ast.Is: (ast.IsNot,), ast.IsNot: (ast.Is,),
    ast.In: (ast.NotIn,), ast.NotIn: (ast.In,),
}
_ARITH = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
    ast.Div: ast.Mult, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult,
}
_BOOL = {ast.And: ast.Or, ast.Or: ast.And}
_BUILTINS = {"max": "min", "min": "max", "any": "all", "all": "any"}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
           ast.In: "in", ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-",
           ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%",
           ast.Pow: "**", ast.And: "and", ast.Or: "or"}


def _variants(node):
    """(description, replacement node) for every mutant of one node."""
    out = []

    def swapped(**changes):
        new = copy.deepcopy(node)
        for field, value in changes.items():
            setattr(new, field, value)
        return new

    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for new in _COMPARE.get(type(op), ()):
                ops = node.ops[:i] + [new()] + node.ops[i + 1:]
                out.append((f"{_SYMBOL[type(op)]} -> {_SYMBOL[new]}",
                            swapped(ops=ops)))
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
            type(node.op) in _ARITH:
        new = _ARITH[type(node.op)]
        out.append((f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[new]}",
                    swapped(op=new())))
    elif isinstance(node, ast.BoolOp):
        new = _BOOL[type(node.op)]
        out.append((f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[new]}",
                    swapped(op=new())))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        out.append((f"{node.value} -> {node.value + 1}",
                    swapped(value=node.value + 1)))
    elif isinstance(node, ast.Constant) and type(node.value) is bool:
        out.append((f"{node.value} -> {not node.value}",
                    swapped(value=not node.value)))
    elif isinstance(node, ast.Name) and node.id in _BUILTINS:
        out.append((f"{node.id} -> {_BUILTINS[node.id]}",
                    swapped(id=_BUILTINS[node.id])))
    elif isinstance(node, ast.UnaryOp) and \
            isinstance(node.op, (ast.USub, ast.Not)):
        sign = "-" if isinstance(node.op, ast.USub) else "not"
        out.append((f"drop {sign}", copy.deepcopy(node.operand)))
    return out


def _find(tree, qualname):
    """The function node of a qualified name."""
    node = tree
    for part in qualname.split("."):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and \
                    child.name == part:
                node = child
                break
        else:
            raise SystemExit(f"mutate: no function {qualname}")
    if not isinstance(node, ast.FunctionDef):
        raise SystemExit(f"mutate: {qualname} is not a function")
    return node


def mutants(source, qualname):
    """(site, line, description, mutated source) of every mutant of the
    body of one function of a module's source.  Only the mutated node's
    span of the source is rewritten; every other byte is kept."""
    func = _find(ast.parse(source), qualname)
    data = source.encode("utf-8")
    offsets = [0]
    for line in data.splitlines(keepends=True):
        offsets.append(offsets[-1] + len(line))
    nodes = [n for stmt in func.body for n in ast.walk(stmt)]
    out = []
    for site, node in enumerate(nodes):
        for desc, new in _variants(node):
            lo = offsets[node.lineno - 1] + node.col_offset
            hi = offsets[node.end_lineno - 1] + node.end_col_offset
            text = ast.unparse(new)
            if not isinstance(node, ast.stmt):
                text = f"({text})"
            out.append((site, node.lineno, desc,
                        (data[:lo] + text.encode("utf-8") +
                         data[hi:]).decode("utf-8")))
    return out


def _prepare(scratch):
    """A fresh copy of the working tree under scratch; scratch must lie
    outside the tree and be empty or made by this tool."""
    scratch = scratch.resolve()
    if scratch == ROOT or ROOT in scratch.parents:
        raise SystemExit("mutate: the scratch directory must lie outside "
                         f"the working tree {ROOT}")
    if scratch.exists() and any(scratch.iterdir()) and \
            not (scratch / MARKER).exists():
        raise SystemExit(f"mutate: {scratch} is neither empty nor made by "
                         "this tool")
    tree = scratch / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    scratch.mkdir(parents=True, exist_ok=True)
    (scratch / MARKER).write_text("made by tests/mutate.py\n")
    shutil.copytree(ROOT, tree, ignore=SKIP)
    return tree


def _run(tree, pytest_args, timeout=None, maxfail=None):
    """The node ids of the tests that fail on the copy, or None when the
    run times out."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    report = tree.parent / "report.xml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", f"--junitxml={report}", *pytest_args]
    if maxfail is not None:
        cmd.append(f"--maxfail={maxfail}")
    report.unlink(missing_ok=True)
    try:
        subprocess.run(cmd, cwd=tree, env=env, timeout=timeout,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    if not report.exists():
        return {"pytest wrote no report"}
    failed = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or \
                case.find("error") is not None:
            failed.add(f"{case.get('classname')}::{case.get('name')}")
    return failed


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(
        prog="mutate.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--scratch", type=pathlib.Path, required=True)
    parser.add_argument("--target", action="append", required=True,
                        help="module:qualified.name, repeatable")
    args = parser.parse_args(argv[:split])
    pytest_args = argv[split + 1:]

    tree = _prepare(args.scratch)
    t0 = time.monotonic()
    # a test that fails on the unmutated copy kills nothing
    known = _run(tree, pytest_args)
    timeout = max(60.0, 5 * (time.monotonic() - t0))
    for node in sorted(known):
        print(f"fails unmutated, kills nothing: {node}", flush=True)

    results = []
    for target in args.target:
        module, qualname = target.split(":")
        path = tree / "src" / "spectre" / f"{module}.py"
        original = path.read_text(encoding="utf-8")
        try:
            for site, line, desc, text in mutants(original, qualname):
                path.write_text(text, encoding="utf-8")
                failed = _run(tree, pytest_args, timeout, len(known) + 1)
                outcome = "timeout" if failed is None else \
                    "killed" if failed - known else "survived"
                results.append({"target": target, "site": site,
                                "line": line, "mutant": desc,
                                "outcome": outcome})
                print(f"{target} line {line}: {desc}: {outcome}",
                      flush=True)
        finally:
            path.write_text(original, encoding="utf-8")

    print("\n| target | sites | mutants | killed | survived |")
    print("| --- | --- | --- | --- | --- |")
    for target in args.target:
        rows = [r for r in results if r["target"] == target]
        survived = [r for r in rows if r["outcome"] == "survived"]
        print(f"| `{target}` | {len({r['site'] for r in rows})} | "
              f"{len(rows)} | {len(rows) - len(survived)} | "
              f"{len(survived)} |")
    for r in results:
        if r["outcome"] == "survived":
            print(f"survivor: {r['target']} line {r['line']}: {r['mutant']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
