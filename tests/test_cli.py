"""Command-line surface: schema-valid JSON, determinism, exit codes."""

import json
import math
import pathlib
import random
import re
import shlex

import jsonschema
import pytest

import cli_cases
import distance_cases
import volume_torus_cases
from spectre import (cli, clifford, dixmier, model_triples, univdiff,
                     wodzicki)
from spectre.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SCHEMAS = pathlib.Path(__file__).resolve().parent.parent / "schemas"
GOLDEN = pathlib.Path(__file__).resolve().parent / "data"


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def validate(payload, name):
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


def test_clifford_table_schema_and_content(capsys):
    rc, out = run(capsys, ["clifford-table"])
    assert rc == 0
    payload = json.loads(out)
    validate(payload, "clifford_table")
    rows = {r["p"]: r for r in payload["table"]}
    assert rows[1]["eps"] == 1 and rows[1]["eps_prime"] == -1
    assert rows[2] == {"p": 2, "eps": -1, "eps_prime": 1,
                       "eps_double_prime": -1}
    assert rows[4]["eps_double_prime"] == 1


def test_hochschild_suite(capsys):
    rc, out = run(capsys, ["hochschild", "--seed", "3", "--chains", "5"])
    assert rc == 0
    payload = json.loads(out)
    validate(payload, "hochschild")
    assert payload["pass"] is True
    assert set(payload["models"]) == {"circle", "diagonal"}


def _doubled_in_degree(degree):
    """A wrong operation: the right chain, doubled when the first argument
    has the given degree."""
    def make(op):
        def wrong(c, *rest):
            out = op(c, *rest)
            return out.scale(2) if c.degree == degree else out
        return wrong
    return make


def _always_false(op):
    return lambda *args: False


@pytest.mark.parametrize("owner, name, make_wrong, failing", [
    (univdiff.UniversalChain, "is_zero", _always_false, {"b_squared"}),
    (univdiff, "delta", _doubled_in_degree(3), {"homotopy"}),
    (univdiff, "sigma_op", _doubled_in_degree(2), {"cycles", "homotopy"}),
    (univdiff, "chain_mul", _doubled_in_degree(1), {"leibniz"}),
    (univdiff, "window_is_zero", _always_false, {"pi_b_zero"}),
], ids=["b_squared", "homotopy", "cycles", "leibniz", "pi_b_zero"])
def test_hochschild_reports_a_failing_check(capsys, monkeypatch, owner, name,
                                            make_wrong, failing):
    """One univdiff operation made wrong turns false exactly the checks
    that use it, on both models (only the homotopy check takes delta of a
    degree-3 chain; sigma serves the homotopy and cycle checks alike); the
    run still prints schema-valid JSON and exits 1."""
    monkeypatch.setattr(owner, name, make_wrong(getattr(owner, name)))
    rc, out = run(capsys, ["hochschild", "--seed", "0", "--chains", "5"])
    assert rc == 1
    payload = json.loads(out)
    validate(payload, "hochschild")
    assert payload["pass"] is False
    assert set(payload["models"]) == {"circle", "diagonal"}
    for checks in payload["models"].values():
        assert {k for k, ok in checks.items() if not ok} == failing


def test_dixmier_builtin_and_csv(capsys, tmp_path):
    rc, out = run(capsys, ["dixmier", "--seq", "harmonic",
                           "--schedule", "10000,100000,1000000"])
    assert rc == 0
    payload = json.loads(out)
    validate(payload, "dixmier")
    assert abs(payload["value"] - 1) < 0.01
    # CSV runs input
    f = tmp_path / "runs.csv"
    rows = [f"{1.0/k},{2}" for k in range(1, 300000)]
    f.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc, out = run(capsys, ["dixmier", "--csv", str(f),
                           "--schedule", "1000,10000,100000"])
    assert rc == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 2) < 0.05


def test_dixmier_usage_errors(capsys):
    rc, _ = run(capsys, ["dixmier"])
    assert rc == 2
    rc, _ = run(capsys, ["dixmier", "--seq", "nope"])
    assert rc == 2


def test_volume_circle(capsys):
    rc, out = run(capsys, ["volume", "--model", "circle",
                           "--schedule", "10000,100000,1000000"])
    assert rc == 0
    payload = json.loads(out)
    validate(payload, "volume")
    assert abs(payload["ratio"] - 1) < 0.02


def test_distance_csv_roundtrip(capsys, tmp_path):
    f = tmp_path / "graph.csv"
    f.write_text("u,v,length\nA,B,1.5\nB,C,2.0\n", encoding="utf-8")
    rc, out = run(capsys, ["distance", "--graph", str(f),
                           "--from", "A", "--to", "C"])
    assert rc == 0
    payload = json.loads(out)
    validate(payload, "distance")
    assert payload["distance"] == pytest.approx(3.5)


def test_distance_disconnected_exit_code(capsys, tmp_path):
    f = tmp_path / "graph.csv"
    f.write_text("u,v,length\nA,B,1.0\nC,D,1.0\n", encoding="utf-8")
    rc = main(["distance", "--graph", str(f), "--from", "A", "--to", "D"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: vertices are not connected")


@pytest.mark.parametrize("rows, to, distance", [
    ("A,B,1e20\n", "B", 1e20),
    ("A,B,1e-200\nB,C,1e200\n", "C", 1e200)])
def test_distance_long_edges(capsys, tmp_path, rows, to, distance):
    """A long edge is its own distance, not unbounded or an overflow."""
    f = tmp_path / "graph.csv"
    f.write_text("u,v,length\n" + rows, encoding="utf-8")
    rc, out = run(capsys, ["distance", "--graph", str(f),
                           "--from", "A", "--to", to])
    assert rc == 0
    assert json.loads(out)["distance"] == distance


def test_distance_with_lengths_past_the_old_tolerance(tmp_path):
    """Lengths in (1e6, 2e7) put the distance where one float64 ulp
    exceeds 1e-9; every pair prints the shortest path and exits 0."""
    rng = random.Random(5)
    edges = distance_cases.tree_with_chords(rng, 300, 1e6, 2e7)
    g = model_triples.MetricGraph(list(range(300)), edges)
    text = distance_cases.graph_csv(edges)
    for _ in range(20):
        x, y = rng.sample(range(300), 2)
        rc, out = distance_cases.replay(main, tmp_path, text, f"v{x}",
                                        f"v{y}")
        assert rc == 0
        assert json.loads(out)["distance"] == \
            model_triples.shortest_path_distance(g, x, y)


def test_distance_failed_certificate_is_one_error_line(capsys, monkeypatch,
                                                      tmp_path):
    f = tmp_path / "graph.csv"
    f.write_text(distance_cases.README_GRAPH, encoding="utf-8")
    real = model_triples._shortest_path_tree

    def label_off(graph, x, y):
        dist, pred = real(graph, x, y)
        return {**dist, y: dist[y] * (1 + 1e-9)}, pred

    monkeypatch.setattr(model_triples, "_shortest_path_tree", label_off)
    rc = main(["distance", "--graph", str(f), "--from", "A", "--to", "C"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: distance certificate failed: the potential breaks the edge "
        "'B'-'C' of length 2.0\n")


def test_distance_overflow_is_named(capsys, tmp_path):
    f = tmp_path / "graph.csv"
    f.write_text("u,v,length\nA,B,1e308\nB,C,1e308\n", encoding="utf-8")
    rc = main(["distance", "--graph", str(f), "--from", "A", "--to", "C"])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: shortest path length overflows float64\n"


def test_distance_bad_header(capsys, tmp_path):
    f = tmp_path / "graph.csv"
    for text in ("a,b,c\nA,B,1.0\n", ""):
        f.write_text(text, encoding="utf-8")
        assert_usage_error(capsys, ["distance", "--graph", str(f),
                                    "--from", "A", "--to", "B"])


def test_wres_even_output(capsys):
    rc, out = run(capsys, ["wres", "--p", "4", "--parity", "even",
                           "--torsion", "on"])
    assert rc == 0
    payload = json.loads(out)
    validate(payload, "wres")
    assert payload["coeff_R"]["rational_of_c_p"] == "-1/6"
    assert payload["coeff_t2"]["rational_of_c_p"] == "3"
    cp4 = 1 / (8 * math.pi ** 2)
    assert payload["coeff_R"]["decimal"] == pytest.approx(-cp4 / 6)


def test_wres_odd_output(capsys):
    rc, out = run(capsys, ["wres", "--p", "3", "--torsion", "off"])
    assert rc == 0
    payload = json.loads(out)
    validate(payload, "wres")
    assert payload["coeff_R"]["rational_of_c_p"] == "-1/12"
    assert payload["coeff_t2"]["rational_of_c_p"] == "0"


def test_unknown_subcommand_usage_exit(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_determinism_byte_identical(capsys):
    _, out1 = run(capsys, ["hochschild", "--seed", "7", "--chains", "4"])
    _, out2 = run(capsys, ["hochschild", "--seed", "7", "--chains", "4"])
    assert out1 == out2
    _, out3 = run(capsys, ["clifford-table"])
    _, out4 = run(capsys, ["clifford-table"])
    assert out3 == out4


def test_csv_format_output(capsys):
    rc, out = run(capsys, ["--format", "csv", "dixmier", "--seq",
                           "harmonic", "--schedule", "1000,10000,100000"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,partial_ratio"
    assert len(lines) == 4


def assert_usage_error(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_distance_short_row_usage_error(capsys, tmp_path):
    f = tmp_path / "graph.csv"
    f.write_text("u,v,length\nA,B,1.0\nB,C\n", encoding="utf-8")
    assert_usage_error(capsys, ["distance", "--graph", str(f),
                                "--from", "A", "--to", "C"])


@pytest.mark.parametrize("length", ["nan", "0", "-1.5", "abc"])
def test_distance_bad_edge_length_usage_error(capsys, tmp_path, length):
    f = tmp_path / "graph.csv"
    f.write_text(f"u,v,length\nA,B,1.0\nB,C,{length}\n", encoding="utf-8")
    assert_usage_error(capsys, ["distance", "--graph", str(f),
                                "--from", "A", "--to", "C"])


@pytest.mark.parametrize("row", ["inf,2", "nan,2", "0,2", "-1,2", "0.5,0",
                                 "0.5"])
def test_dixmier_bad_csv_row_usage_error(capsys, tmp_path, row):
    f = tmp_path / "runs.csv"
    rows = [f"{1.0/k},2" for k in range(2, 2000)]
    f.write_text(row + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert_usage_error(capsys, ["dixmier", "--csv", str(f),
                                "--schedule", "10,100,1000"])


@pytest.mark.parametrize("rows, schedule", [
    (["1e308,1000000"], "10,100,1000"),
    (["1e308,1"] * 13, "2,3,10"),
])
def test_dixmier_overflowing_sum_is_one_error_line(capsys, tmp_path, rows,
                                                   schedule):
    """A partial sum past the float64 range is a check failure that names
    the overflow, with no numpy warning and no NaN."""
    f = tmp_path / "runs.csv"
    f.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main(["dixmier", "--csv", str(f), "--schedule", schedule])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: partial sum overflows float64\n"
    assert "RuntimeWarning" not in err and "nan" not in err


def test_dixmier_overflowing_ratio_is_one_error_line(capsys, tmp_path):
    """A partial sum that fits float64 but whose ratio to log N does not
    is a check failure that names the overflow, with no numpy warning and
    no NaN."""
    f = tmp_path / "runs.csv"
    f.write_text("5e307,3\n1,5\n", encoding="utf-8")
    rc = main(["dixmier", "--csv", str(f), "--schedule", "2,3,4"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: partial ratio overflows float64\n"
    assert "RuntimeWarning" not in err and "nan" not in err


def test_dixmier_sum_overflowing_past_the_schedule_is_answered(capsys,
                                                               tmp_path):
    """Only the sums at the schedule must fit in float64: the terms after
    the last checkpoint may overflow the running total unread."""
    f = tmp_path / "runs.csv"
    f.write_text("1e307,20\n", encoding="utf-8")
    rc, out = run(capsys, ["dixmier", "--csv", str(f),
                           "--schedule", "2,3,10"])
    assert rc == 0 and capsys.readouterr().err == ""
    payload = json.loads(out)
    validate(payload, "dixmier")
    assert math.isfinite(payload["value"])


def _no_computation(*args, **kwargs):
    raise AssertionError("a usage error must be caught before computing")


@pytest.mark.parametrize("argv", [
    ["dixmier", "--seq", "harmonic", "--schedule", "1,10,100"],
    ["volume", "--model", "circle", "--schedule", "1,10,100"],
    ["dixmier", "--seq", "harmonic", "--schedule", "10,1e2,1000"],
    ["dixmier", "--seq", "harmonic", "--schedule", "100,10,1000"],
    ["dixmier", "--seq", "harmonic", "--schedule", "10,100,100"],
    ["dixmier", "--seq", "harmonic", "--schedule", "10,100"],
    ["volume", "--model", "torus", "--schedule", "1000,10000"],
    ["wres", "--p", "13"],
    ["wres", "--p", "1"],
    ["wres", "--p", "3", "--parity", "even"],
    ["wres", "--p", "2", "--parity", "odd"],
    ["volume", "--model", "torus", "--p", "5"],
    ["volume", "--model", "torus", "--p", "0"],
    ["volume", "--model", "circle", "--p", "5"],
    ["--format", "csv", "wres", "--p", "3"],
    ["--format", "csv", "clifford-table"],
    ["dixmier", "--csv", "no-such-dir/runs.csv", "--schedule", "10,100,1000"],
    ["dixmier", "--csv", ".", "--schedule", "10,100,1000"],
    ["distance", "--graph", "no-such-dir/g.csv", "--from", "A", "--to", "B"],
    ["hochschild", "--chains", "0"],
    ["hochschild", "--chains", "-3"],
    ["distance", "--graph", "graph.csv", "--from", "A", "--to", "z"],
    ["dixmier", "--seq", "harmonic", "--csv", "runs.csv"],
    # int64 term counts: N + 1 must fit, and so must the CSV counts and
    # their running total
    ["dixmier", "--seq", "harmonic",
     "--schedule", "10000,100000,99999999999999999999"],
    ["dixmier", "--seq", "geometric",
     "--schedule", "10000,100000,9223372036854775807"],
    ["dixmier", "--csv", "huge.csv", "--schedule", "10,100,1000"],
    ["dixmier", "--csv", "wide.csv", "--schedule", "10,100,1000"],
])
def test_schedule_usage_error(capsys, monkeypatch, tmp_path, argv):
    # relative inputs resolve in a directory holding a valid graph and runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.csv").write_text("u,v,length\nA,B,1.0\n",
                                        encoding="utf-8")
    (tmp_path / "runs.csv").write_text("1.0,2\n", encoding="utf-8")
    (tmp_path / "huge.csv").write_text(f"1.0,{2**63}\n", encoding="utf-8")
    (tmp_path / "wide.csv").write_text(f"1.0,{2**62}\n0.5,{2**62}\n",
                                       encoding="utf-8")
    for module, name in ((wodzicki, "integrand"),
                         (model_triples, "volume_check"),
                         (dixmier, "dixmier_estimate"),
                         (clifford, "find_real_structure"),
                         (model_triples, "connes_distance"),
                         (univdiff, "random_chain")):
        monkeypatch.setattr(module, name, _no_computation)
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("argv, text", [
    (["dixmier", "--csv", "{}", "--schedule", "10,100,1000"],
     "# caf\xe9\n1.0,2\n"),
    (["distance", "--graph", "{}", "--from", "A", "--to", "B"],
     "u,v,length\nA,B,1.0\n\xe9,B,2\n")])
def test_non_utf8_input_is_a_usage_error(capsys, monkeypatch, tmp_path,
                                         argv, text):
    """Rows that would parse, in a file that does not decode as UTF-8."""
    f = tmp_path / "latin1.csv"
    f.write_text(text, encoding="latin-1")
    monkeypatch.setattr(dixmier, "dixmier_estimate", _no_computation)
    monkeypatch.setattr(model_triples, "connes_distance", _no_computation)
    argv = [arg.format(f) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: {argv[1]} {f}: not UTF-8 text\n"


@pytest.mark.parametrize("argv", [["dixmier", "--seq", "harmonic"],
                                  ["volume", "--model", "circle"]])
def test_schedule_default_is_the_library_default(capsys, monkeypatch, argv):
    """Without --schedule, dixmier and volume run
    dixmier.default_schedule(), and follow it."""
    def schedule():
        main(argv)
        return json.loads(capsys.readouterr().out)["schedule"]

    default = schedule()
    assert default == dixmier.default_schedule()
    assert default == [10000, 100000, 1000000, 10000000]
    monkeypatch.setattr(dixmier, "default_schedule", lambda: [10, 20, 30])
    assert schedule() == [10, 20, 30]


def test_wres_computes_the_integrand_once(capsys, monkeypatch):
    from spectre import wodzicki
    calls = []
    original = wodzicki.integrand

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(wodzicki, "integrand", counted)
    rc, out = run(capsys, ["wres", "--p", "4"])
    assert rc == 0
    assert json.loads(out)["coeff_R"]["rational_of_c_p"] == "-1/6"
    assert len(calls) == 1


def test_wres_p2_has_no_action_terms(capsys):
    rc, out = run(capsys, ["wres", "--p", "2"])
    assert rc == 0
    payload = json.loads(out)
    validate(payload, "wres")
    assert payload["coeff_R"]["rational_of_c_p"] == "0"
    assert payload["coeff_t2"]["rational_of_c_p"] == "0"


@pytest.mark.parametrize(
    "p, torsion",
    [(p, "on") for p in range(2, 13)] + [(2, "off"), (12, "off")],
    ids=[str(p) for p in range(2, 13)] + ["2-torsion-off", "12-torsion-off"])
def test_wres_matches_golden_output(capsys, p, torsion):
    rc, out = run(capsys, ["wres", "--p", str(p), "--torsion", torsion])
    assert rc == 0
    name = f"wres_p{p}.json" if torsion == "on" else \
        f"wres_p{p}_torsion_off.json"
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("p", [2, 3, 4])
def test_volume_torus_matches_golden_output(capsys, p):
    rc, out = run(capsys, ["volume", "--model", "torus", "--p", str(p)])
    assert rc == 0
    assert out.encode("utf-8") == \
        (GOLDEN / f"volume_torus_p{p}.json").read_bytes()


@pytest.mark.parametrize("p", volume_torus_cases.DIMENSIONS)
def test_volume_torus_1e8_matches_golden_output(capsys, p):
    """A schedule to 1e8 terms passes many more doublings of the shells'
    reach than the default one."""
    rc, out = run(capsys, volume_torus_cases.argv(p))
    assert rc == 0
    assert out.encode("utf-8") == volume_torus_cases.golden(p).read_bytes()


@pytest.mark.parametrize("seq", sorted(dixmier.BUILTINS))
def test_dixmier_csv_matches_golden_output(capsys, seq):
    rc, out = run(capsys, ["--format", "csv", "dixmier", "--seq", seq])
    assert rc == 0
    assert out.encode("utf-8") == \
        (GOLDEN / f"dixmier_{seq}.csv").read_bytes()


def test_volume_circle_matches_golden_output(capsys):
    rc, out = run(capsys, ["volume", "--model", "circle"])
    assert rc == 0
    assert out.encode("utf-8") == (GOLDEN / "volume_circle.json").read_bytes()


@pytest.mark.parametrize("argv, name", [
    (["clifford-table"], "clifford_table.json"),
    (["hochschild", "--seed", "0"], "hochschild_seed0.json")])
def test_json_matches_golden_output(capsys, argv, name):
    rc, out = run(capsys, argv)
    assert rc == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


DISTANCE_CASES = distance_cases.cases()
DISTANCE_GOLDEN = json.loads((GOLDEN / "distance.json").read_text(
    encoding="utf-8"))


@pytest.mark.parametrize("name", DISTANCE_CASES)
def test_distance_matches_golden_output(tmp_path, name):
    rc, out = distance_cases.replay(main, tmp_path, *DISTANCE_CASES[name])
    assert rc == 0
    assert out == DISTANCE_GOLDEN[name]


def test_distance_golden_covers_every_case():
    assert sorted(DISTANCE_GOLDEN) == sorted(DISTANCE_CASES)


def test_wres_sweep_in_one_process_matches_goldens(capsys):
    """The power chain and the traced group are built once per process
    and serve every p; a sweep that builds them for p = 12 and then
    descends leaks no state into the golden outputs."""
    wodzicki.power_symbol.cache_clear()
    wodzicki._inverse_square_full.cache_clear()
    wodzicki.abs_symbol.cache_clear()
    wodzicki._group_trace_poly.cache_clear()
    wodzicki.word_trace_poly.cache_clear()
    assert run(capsys, ["wres", "--p", "12"])[0] == 0
    for p in (6, 5, 4, 3):
        rc, out = run(capsys, ["wres", "--p", str(p)])
        assert rc == 0
        assert out.encode("utf-8") == \
            (GOLDEN / f"wres_p{p}.json").read_bytes()


CLI_CASES = cli_cases.cases()


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_matches_corpus(tmp_path, name):
    """stdout, stderr and the exit code, byte for byte, of every corpus
    case; the recorded inputs are the case's own."""
    record = json.loads(cli_cases.path(name).read_text(encoding="utf-8"))
    argv, files = CLI_CASES[name]
    assert (record["argv"], record["files"]) == (argv, files)
    assert cli_cases.replay(main, tmp_path, argv, files) == \
        (record["exit_code"], record["stdout"], record["stderr"])


def test_one_parser_serves_every_call_in_a_process(tmp_path, monkeypatch):
    """main() builds its parser on the first call and reuses it: a usage
    error, the help, two commands and the usage error again, in one
    process, each give their corpus case byte for byte."""
    built, real = [], cli.build_parser

    def build_parser():
        built.append(None)
        return real()

    monkeypatch.setattr(cli, "build_parser", build_parser)
    monkeypatch.setattr(cli, "_parser", None)
    for name in ("usage-p-not-an-integer", "help", "wres-p4-torsion-on",
                 "readme-volume-torus", "usage-p-not-an-integer"):
        record = json.loads(cli_cases.path(name).read_text(encoding="utf-8"))
        assert cli_cases.replay(main, tmp_path, record["argv"],
                                record["files"]) == \
            (record["exit_code"], record["stdout"], record["stderr"]), name
    assert len(built) == 1


def test_cli_corpus_covers_every_case():
    recorded = sorted(p.stem for p in cli_cases.CORPUS.glob("*.json"))
    assert recorded == sorted(CLI_CASES)


def test_cli_corpus_covers_every_readme_command():
    """Each command of the README's "Command line" section is a corpus
    case, argv for argv."""
    section = README.read_text(encoding="utf-8").split(
        "## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("spectre")]
    assert commands
    argvs = [argv for argv, _ in CLI_CASES.values()]
    assert [c for c in commands if c not in argvs] == []
