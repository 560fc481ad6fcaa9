"""Inputs of the command-line byte corpus, `tests/data/cli/*.json`.

Each case is an argv and the input files it reads.  Its file in
`tests/data/cli/` holds both, with the stdout, stderr and exit code that
`spectre.cli.main` gave for them.  The cases cover every command of the
README's "Command line" section, the option variants around them and
one case per documented usage error.  Rewrite the corpus, only from a
commit whose output is known good, with

    PYTHONPATH=src python tests/cli_cases.py
"""

import contextlib
import io
import json
import os
import pathlib
import tempfile
from unittest import mock

CORPUS = pathlib.Path(__file__).resolve().parent / "data" / "cli"

# argparse wraps its usage and help text to the terminal's width
COLUMNS = "80"

README_GRAPH = "u,v,length\nA,B,1.5\nB,C,2.0\n"
# 2^25 - 1 terms in blocks of equal sum: the partial sums grow as log2 N
RUNS = "".join(f"{2.0 ** -j!r},{2 ** j}\n" for j in range(25))
SHORT_RUNS = "0.5,4\n0.25,8\n"
GOOD_ROWS = "0.5,2000\n0.25,2000\n"


def _dixmier_csv(text, schedule="10,100,1000"):
    return (["dixmier", "--csv", "runs.csv", "--schedule", schedule],
            {"runs.csv": text})


def _distance(text, x="A", y="C"):
    return (["distance", "--graph", "g.csv", "--from", x, "--to", y],
            {"g.csv": text})


def cases():
    """{case id: (argv, {file name: text})}.  Files are written as
    Latin-1 bytes, so a non-ASCII character makes a file that is not
    UTF-8; every other file is ASCII."""
    out = {
        # the README's "Command line" section, line for line
        "readme-clifford-table": (["clifford-table"], {}),
        "readme-hochschild": (["hochschild", "--seed", "0", "--chains",
                               "20"], {}),
        "readme-dixmier-seq": (["dixmier", "--seq", "harmonic"], {}),
        "readme-dixmier-csv": (["dixmier", "--csv", "runs.csv"],
                               {"runs.csv": RUNS}),
        "readme-volume-circle": (["volume", "--model", "circle"], {}),
        "readme-volume-torus": (["volume", "--model", "torus", "--p", "2"],
                                {}),
        "readme-distance": (["distance", "--graph", "g.csv", "--from", "A",
                             "--to", "B"], {"g.csv": README_GRAPH}),
        "readme-wres": (["wres", "--p", "4", "--parity", "even",
                         "--torsion", "on"], {}),
        # variants
        "hochschild-chains-500": (["hochschild", "--chains", "500"], {}),
        "hochschild-seed-3": (["hochschild", "--seed", "3", "--chains",
                               "5"], {}),
        "help": (["--help"], {}),
        "dixmier-csv-format-csv": (["--format", "csv", "dixmier", "--csv",
                                    "runs.csv"], {"runs.csv": RUNS}),
        "dixmier-csv-schedule": _dixmier_csv(RUNS, "2,3,10,1000,33554430"),
        "dixmier-csv-comments": _dixmier_csv(
            "# value,count\n\n" + GOOD_ROWS),
        "dixmier-csv-past-the-schedule": _dixmier_csv("1e307,20\n",
                                                      "2,3,10"),
        "dixmier-csv-sum-overflows": _dixmier_csv("1e308,1000000\n"),
        "dixmier-csv-ratio-overflows": _dixmier_csv("5e307,3\n1,5\n",
                                                    "2,3,4"),
        "dixmier-csv-shorter-than-schedule": _dixmier_csv(SHORT_RUNS),
        "volume-circle-format-csv": (["--format", "csv", "volume",
                                      "--model", "circle"], {}),
        "volume-circle-fails-check": (["volume", "--model", "circle",
                                       "--schedule", "2,3,4"], {}),
        "volume-torus-default-p": (["volume", "--model", "torus"], {}),
        "distance-readme-C-A": _distance(README_GRAPH, "C", "A"),
        "distance-readme-A-C": _distance(README_GRAPH, "A", "C"),
        "distance-readme-B-B": _distance(README_GRAPH, "B", "B"),
        "distance-self-loop": _distance("u,v,length\nA,A,1.0\nA,B,2.5\n"
                                        "B,C,0.5\n"),
        "distance-long-edges": _distance("u,v,length\nA,B,1e-200\n"
                                         "B,C,1e200\n"),
        "distance-disconnected": _distance("u,v,length\nA,B,1.0\n"
                                           "C,D,1.0\n"),
        "distance-overflows": _distance("u,v,length\nA,B,1e308\n"
                                        "B,C,1e308\n"),
        "wres-p3-parity-odd": (["wres", "--p", "3", "--parity", "odd"], {}),
        "wres-p5-parity-odd": (["wres", "--p", "5", "--parity", "odd"], {}),
        "wres-p6-parity-even-torsion-off": (
            ["wres", "--p", "6", "--parity", "even", "--torsion", "off"],
            {}),
        # usage errors, one documented rule each
        "usage-schedule-too-few": (["dixmier", "--seq", "harmonic",
                                    "--schedule", "10,100"], {}),
        "usage-schedule-not-integer": (["dixmier", "--seq", "harmonic",
                                        "--schedule", "10,1e2,1000"], {}),
        "usage-schedule-below-2": (["volume", "--model", "circle",
                                    "--schedule", "1,10,100"], {}),
        "usage-schedule-past-int64": (
            ["dixmier", "--seq", "geometric",
             "--schedule", f"10000,100000,{2 ** 63 - 1}"], {}),
        "usage-schedule-not-increasing": (["dixmier", "--seq", "harmonic",
                                           "--schedule", "100,10,1000"],
                                          {}),
        "usage-schedule-repeated": (["volume", "--model", "torus",
                                     "--schedule", "10,100,100"], {}),
        "usage-wres-p-13": (["wres", "--p", "13"], {}),
        "usage-wres-p-1": (["wres", "--p", "1"], {}),
        "usage-wres-p3-parity-even": (["wres", "--p", "3", "--parity",
                                       "even"], {}),
        "usage-wres-p2-parity-odd": (["wres", "--p", "2", "--parity",
                                      "odd"], {}),
        "usage-volume-torus-p-5": (["volume", "--model", "torus", "--p",
                                    "5"], {}),
        "usage-volume-torus-p-1": (["volume", "--model", "torus", "--p",
                                    "1"], {}),
        "usage-volume-circle-p": (["volume", "--model", "circle", "--p",
                                   "1"], {}),
        "usage-dixmier-csv-short-row": _dixmier_csv("0.5\n" + GOOD_ROWS),
        "usage-dixmier-csv-not-a-number": _dixmier_csv("abc,2\n"
                                                       + GOOD_ROWS),
        "usage-dixmier-csv-count-not-an-integer": _dixmier_csv(
            "0.5,2.5\n" + GOOD_ROWS),
        "usage-dixmier-csv-infinite-value": _dixmier_csv("inf,2\n"
                                                         + GOOD_ROWS),
        "usage-dixmier-csv-nan-value": _dixmier_csv("nan,2\n" + GOOD_ROWS),
        "usage-dixmier-csv-zero-value": _dixmier_csv("0,2\n" + GOOD_ROWS),
        "usage-dixmier-csv-negative-value": _dixmier_csv("-1,2\n"
                                                         + GOOD_ROWS),
        "usage-dixmier-csv-zero-count": _dixmier_csv("0.5,0\n" + GOOD_ROWS),
        "usage-dixmier-csv-count-past-int64": _dixmier_csv(
            f"1.0,{2 ** 63}\n"),
        "usage-dixmier-csv-total-past-int64": _dixmier_csv(
            f"1.0,{2 ** 62}\n0.5,{2 ** 62}\n"),
        "usage-distance-short-row": _distance("u,v,length\nA,B,1.0\nB,C\n"),
        "usage-distance-length-not-a-number": _distance(
            "u,v,length\nA,B,1.0\nB,C,abc\n"),
        "usage-distance-length-nan": _distance("u,v,length\nA,B,1.0\n"
                                               "B,C,nan\n"),
        "usage-distance-length-infinite": _distance("u,v,length\nA,B,1.0\n"
                                                    "B,C,inf\n"),
        "usage-distance-length-zero": _distance("u,v,length\nA,B,1.0\n"
                                                "B,C,0\n"),
        "usage-distance-length-negative": _distance("u,v,length\nA,B,1.0\n"
                                                    "B,C,-1.5\n"),
        "usage-distance-no-header": _distance("A,B,1.0\nB,C,2.0\n"),
        "usage-distance-empty-file": _distance(""),
        "usage-dixmier-unknown-seq": (["dixmier", "--seq", "fibonacci"], {}),
        "usage-dixmier-neither-input": (["dixmier"], {}),
        "usage-dixmier-both-inputs": (["dixmier", "--seq", "harmonic",
                                       "--csv", "runs.csv"],
                                      {"runs.csv": RUNS}),
        "usage-distance-unknown-from": _distance(README_GRAPH, "Z", "C"),
        "usage-distance-unknown-to": _distance(README_GRAPH, "A", "z"),
        "usage-hochschild-chains-0": (["hochschild", "--chains", "0"], {}),
        "usage-hochschild-chains-negative": (["hochschild", "--chains",
                                              "-3"], {}),
        "usage-dixmier-csv-missing": (["dixmier", "--csv",
                                       "no-such-dir/runs.csv"], {}),
        "usage-dixmier-csv-directory": (["dixmier", "--csv", "."], {}),
        "usage-dixmier-csv-not-utf8": _dixmier_csv("# caf\xe9\n1.0,2\n"),
        "usage-distance-graph-missing": (["distance", "--graph",
                                          "no-such-dir/g.csv", "--from",
                                          "A", "--to", "B"], {}),
        "usage-distance-graph-not-utf8": _distance(
            "u,v,length\nA,B,1.0\n\xe9,B,2\n"),
        "usage-unknown-subcommand": (["frobnicate"], {}),
        "usage-unknown-option": (["volume", "--model", "circle", "--q",
                                  "2"], {}),
        "usage-no-subcommand": ([], {}),
        "usage-unknown-model": (["volume", "--model", "sphere"], {}),
        "usage-p-not-an-integer": (["wres", "--p", "four"], {}),
        "usage-missing-required-option": (["volume"], {}),
    }
    # --format csv on every subcommand without a CSV output
    for name, (argv, files) in (
            ("clifford-table", (["clifford-table"], {})),
            ("hochschild", (["hochschild"], {})),
            ("distance", _distance(README_GRAPH)),
            ("wres", (["wres", "--p", "3"], {}))):
        out[f"usage-format-csv-{name}"] = (["--format", "csv"] + argv,
                                           files)
    for p in range(2, 13):
        for torsion in ("on", "off"):
            out[f"wres-p{p}-torsion-{torsion}"] = (
                ["wres", "--p", str(p), "--torsion", torsion], {})
    for p in (2, 3, 4):
        out[f"volume-torus-p{p}-format-csv"] = (
            ["--format", "csv", "volume", "--model", "torus", "--p",
             str(p)], {})
    for seq in ("harmonic", "harmonic-doubled", "geometric",
                "telescoping-log", "block-oscillator"):
        out[f"dixmier-seq-{seq}"] = (["dixmier", "--seq", seq], {})
    return out


def replay(main, tmp_dir, argv, files):
    """(exit code, stdout, stderr) of `main(argv)`, run in `tmp_dir`
    with the input files written there."""
    tmp_dir = pathlib.Path(tmp_dir)
    for name, text in files.items():
        (tmp_dir / name).write_bytes(text.encode("latin-1"))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    try:
        os.chdir(tmp_dir)
        with mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = main(list(argv))
    finally:
        os.chdir(cwd)
        for name in files:
            (tmp_dir / name).unlink()
    return rc, out.getvalue(), err.getvalue()


def path(name):
    return CORPUS / f"{name}.json"


if __name__ == "__main__":
    from spectre.cli import main
    CORPUS.mkdir(parents=True, exist_ok=True)
    for stale in CORPUS.glob("*.json"):
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, files) in cases().items():
            rc, stdout, stderr = replay(main, tmp, argv, files)
            record = {"argv": argv, "files": files, "exit_code": rc,
                      "stdout": stdout, "stderr": stderr}
            path(name).write_text(
                json.dumps(record, indent=1, sort_keys=True) + "\n",
                encoding="utf-8")
