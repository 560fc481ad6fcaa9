"""Inputs of the long-stream torus goldens, `tests/data/volume_torus_p*_1e8.json`.

Each golden holds the stdout of

    spectre volume --model torus --p P --schedule 10000,1000000,100000000

for one P: a stream ten times longer than the default schedule's, which
passes many more doublings of the torus shells' reach.  Rewrite the
goldens, only from a commit whose output is known good, with

    PYTHONPATH=src python tests/volume_torus_cases.py
"""

import contextlib
import io
import pathlib

DATA = pathlib.Path(__file__).resolve().parent / "data"

DIMENSIONS = (2, 3, 4)
SCHEDULE = "10000,1000000,100000000"


def argv(p):
    return ["volume", "--model", "torus", "--p", str(p),
            "--schedule", SCHEDULE]


def golden(p):
    return DATA / f"volume_torus_p{p}_1e8.json"


if __name__ == "__main__":
    from spectre.cli import main
    for p in DIMENSIONS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(argv(p))
        if rc != 0:
            raise SystemExit(f"p = {p}: exit code {rc}")
        golden(p).write_text(out.getvalue(), encoding="utf-8")
