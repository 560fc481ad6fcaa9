"""The four workloads: seeded inputs, a fixed list of operations, and the
checks of every output against `oracles`.

An operation goes through `spectre.cli.main(argv)` with stdout captured
and parsed wherever the README documents a command for it; otherwise it
calls the library directly.  Operations run in list order, and every
pass runs the same number of them whatever the seed.
"""

import contextlib
import csv
import functools
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from spectre import cli, model_triples, univdiff

import oracles


SEQUENCES = ("harmonic", "harmonic-doubled", "telescoping-log",
             "block-oscillator")
TORUS_DIMS = (2, 3, 4)
GRAPHS = 6
WRES_DIMS = range(3, 13)
HOCHSCHILD_CHAINS = 20
# anticommutator pairs of the criterion-9 junk test
JUNK_PAIRS = ((1, 1), (1, 2), (2, -1), (-2, 1), (-1, -1))
OMEGA1_PAIRS = 4

CIRCLE_TRACE = 2.0          # c(1) * 2 pi = (1/pi) * 2 pi
CIRCLE_TOL = 1e-3           # the fit's bias at these N is below 4e-5
VOLUME_TOL = 0.02           # the relative tolerance `spectre volume` uses
SUM_RTOL = 1e-9             # float64 partial sums over <= 1e8 terms
TORUS_RTOL = 1e-12
IRRATIONAL_RADII = (1.0, 1.37)
IRRATIONAL_TERMS = 10**5


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


@dataclass
class Op:
    name: str
    run: object              # callable; raises CheckFailed on a wrong output
    known_fault: str = ""    # why this operation fails on every pass today


def run(ops):
    """Run each op in order and time it.  The outcome is ok, wrong (a
    check failed), failed (a check of an op with a known fault failed) or
    error (the op raised)."""
    records = []
    for op in ops:
        start = time.perf_counter()
        try:
            op.run()
            outcome, detail = "ok", ""
        except CheckFailed as exc:
            outcome = "failed" if op.known_fault else "wrong"
            detail = str(exc)
        except Exception as exc:    # a crash inside spectre fails the op
            traceback.print_exc()
            outcome, detail = "error", repr(exc)
        records.append({"op": op.name, "s": time.perf_counter() - start,
                        "outcome": outcome, "detail": detail})
        if outcome == "wrong":
            print(f"{op.name}: {detail}", file=sys.stderr)
    return records


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(value, ref, rtol, what):
    check(math.isclose(value, ref, rel_tol=rtol, abs_tol=0.0),
          f"{what}: {value!r} against {ref!r}")


def spectre_cli(*argv):
    """Run a spectre command in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def cli_json(*argv):
    rc, out = spectre_cli(*argv)
    check(rc == 0, f"spectre {' '.join(map(str, argv))} exited {rc}")
    return json.loads(out)


def seeded_schedule(rng, top):
    """One checkpoint per decade from 1e4 below `top`, each moved up by a
    seeded factor below sqrt(10), then `top` itself: the seed changes
    the checkpoints but not the number of terms summed."""
    decades = round(math.log10(top))
    return [int(10 ** (k + 0.5 * rng.random()))
            for k in range(4, decades)] + [top]


def check_ratios(ratios, schedule, sequence):
    """Partial ratios (1/log N) sum_{k<=N} mu_k against the oracle sums
    of the first N + 1 terms."""
    check(len(ratios) == len(schedule), f"{sequence}: ratio count")
    total = oracles.SEQUENCE_SUMS[sequence]
    for n, ratio in zip(schedule, ratios):
        close(ratio, total(n + 1) / math.log(n), SUM_RTOL,
              f"{sequence} partial ratio at N={n}")


# ----------------------------------------------------------------------
# spectrum: 1-D Dixmier sequences up to 1e7 and 1e8 terms

def spectrum(rng, workdir):
    stress = seeded_schedule(rng, 10**8)
    sched = seeded_schedule(rng, 10**7)

    def circle_volume():
        out = cli_json("volume", "--model", "circle",
                       "--schedule", ",".join(map(str, stress)))
        close(out["c_p_vol"], CIRCLE_TRACE, 1e-12, "circle c(1) Vol")
        close(out["estimate"], CIRCLE_TRACE, CIRCLE_TOL, "circle trace")

    def sequence_op(name):
        def op():
            rc, out = spectre_cli("--format", "csv", "dixmier", "--seq",
                                  name, "--schedule",
                                  ",".join(map(str, sched)))
            check(rc == 0, f"dixmier --seq {name} exited {rc}")
            rows = list(csv.reader(io.StringIO(out)))
            check(rows and rows[0] == ["N", "partial_ratio"],
                  f"dixmier --seq {name}: CSV header {rows[:1]}")
            check([int(r[0]) for r in rows[1:]] == sched,
                  f"dixmier --seq {name}: schedule")
            check_ratios([float(r[1]) for r in rows[1:]], sched, name)
        return op

    def spin_circle():
        est, expected = model_triples.volume_check(
            "circle", schedule=sched, spin_offset=0.5)
        close(expected, CIRCLE_TRACE, 1e-12, "spin circle c(1) Vol")
        close(est.value, CIRCLE_TRACE, CIRCLE_TOL, "spin circle trace")
        check_ratios(est.ratios, sched, "circle-spin")

    return ([Op("volume-circle-1e8", circle_volume)]
            + [Op(f"dixmier-{name}", sequence_op(name))
               for name in SEQUENCES]
            + [Op("circle-spin-half", spin_circle)])


# ----------------------------------------------------------------------
# torus: lattice spectra, graph distances, and the irrational radius

def random_graph(rng):
    """Random spanning tree plus chords on 400..800 vertices, lengths in
    (0.1, 2); returns (vertex count, edges, source, target)."""
    n = rng.randint(400, 800)
    edges = [(rng.randrange(v), v, rng.uniform(0.1, 2.0))
             for v in range(1, n)]
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.uniform(0.1, 2.0)))
    src, dst = rng.sample(range(n), 2)
    return n, edges, src, dst


def write_graph(path, edges):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["u", "v", "length"])
        for u, v, length in edges:
            w.writerow([f"v{u}", f"v{v}", repr(length)])


def torus(rng, workdir):
    def volume_op(p):
        def op():
            out = cli_json("volume", "--model", "torus", "--p", p)
            ref = oracles.trace_of_volume(p)
            close(out["c_p_vol"], ref, 1e-12, f"torus p={p} c(p) Vol")
            close(out["estimate"], ref, VOLUME_TOL, f"torus p={p} trace")
        return op

    def distance_op(path, src, dst, reference):
        def op():
            out = cli_json("distance", "--graph", path,
                           "--from", f"v{src}", "--to", f"v{dst}")
            close(out["distance"], reference(), 1e-9, f"distance in {path}")
        return op

    ops = [Op(f"volume-torus-p{p}", volume_op(p)) for p in TORUS_DIMS]
    for i in range(GRAPHS):
        n, edges, src, dst = random_graph(rng)
        path = workdir / f"graph{i}.csv"
        write_graph(path, edges)
        ops.append(Op(f"distance-graph{i}", distance_op(
            path, src, dst,
            functools.partial(oracles.graph_distance, n, edges, src, dst))))

    n = 2 * rng.randint(100, 200)
    path = workdir / "circle.csv"
    write_graph(path, [(i, (i + 1) % n, 2 * math.pi / n) for i in range(n)])
    ops.append(Op("distance-circle-antipodes",
                  distance_op(path, 0, n // 2, lambda: math.pi)))

    def irrational_torus():
        spec = model_triples.TorusSpec(p=2, radii=IRRATIONAL_RADII)
        seq = model_triples.torus_singular_values(
            spec, max_terms=IRRATIONAL_TERMS)
        values, counts = seq.runs(IRRATIONAL_TERMS)
        got = np.repeat(values, counts)[:IRRATIONAL_TERMS]
        reference = oracles.torus_inverse_singular_values(
            IRRATIONAL_RADII, IRRATIONAL_TERMS)
        worst = float(np.max(abs(got / reference - 1)))
        check(worst <= TORUS_RTOL,
              f"irrational torus: singular values off by {worst:.3g}")

    ops.append(Op("torus-irrational-radius", irrational_torus,
                  known_fault="torus_singular_values merges ties by "
                              "rounding lambda^2 * 4 * prod(r^2) to an "
                              "integer, so distinct eigenvalues merge"))
    return ops


# ----------------------------------------------------------------------
# residue: exact gravity-action coefficients and the mod-8 table

def residue(rng, workdir):
    def wres_op(p):
        def op():
            out = cli_json("wres", "--p", p)
            want_r = Fraction(-(p - 2), 12)
            want_t2 = Fraction(3 * (p - 2), 2)
            check(Fraction(out["coeff_R"]["rational_of_c_p"]) == want_r,
                  f"wres p={p}: coeff_R {out['coeff_R']}")
            check(Fraction(out["coeff_t2"]["rational_of_c_p"]) == want_t2,
                  f"wres p={p}: coeff_t2 {out['coeff_t2']}")
            close(out["coeff_R"]["decimal"],
                  float(want_r) * oracles.c_p(p), 1e-12, f"wres p={p} R")
            close(out["coeff_t2"]["decimal"],
                  float(want_t2) * oracles.c_p(p), 1e-12, f"wres p={p} t2")
        return op

    def clifford_table():
        rows = cli_json("clifford-table")["table"]
        got = {r["p"]: (r["eps"], r["eps_prime"], r["eps_double_prime"])
               for r in rows}
        want = {p: oracles.KO_SIGNS[p % 8] for p in range(1, 9)}
        check(got == want, f"clifford-table {got}")

    return ([Op(f"wres-p{p}", wres_op(p)) for p in WRES_DIMS]
            + [Op("clifford-table", clifford_table)])


# ----------------------------------------------------------------------
# algebra: Fraction arithmetic in the universal differential algebra

def algebra(rng, workdir):
    seed = rng.randrange(10**6)
    model = univdiff.CircleModel()
    state = {}
    words = model.words()
    pairs = [(a, a) for a in rng.sample([w for w in words if w], 2)]
    pairs += [(rng.choice(words), rng.choice(words))
              for _ in range(OMEGA1_PAIRS - len(pairs))]

    def hochschild():
        out = cli_json("hochschild", "--chains", HOCHSCHILD_CHAINS,
                       "--seed", seed)
        check(out["pass"] is True and out["seed"] == seed,
              f"hochschild: {out}")
        check(all(v is True for checks in out["models"].values()
                  for v in checks.values()), f"hochschild: {out['models']}")

    def junk():
        jb = univdiff.junk_basis(model, 2)
        side = len(model.window)
        check(jb.matrices and all(m.shape == (side, side)
                                  for m in jb.matrices),
              "circle junk basis is empty or misshapen")
        state["junk"] = jb

    def anticommutator_op(a, b):
        # [D, u^a] = a u^a on the window, so the anticommutator of the
        # differentials there is 2ab u^(a+b); in_junk_span reads the window
        anti = 2 * a * b * np.roll(np.eye(model.n, dtype=np.int64), a + b,
                                   axis=0)

        def op():
            check(univdiff.in_junk_span(anti, state["junk"], model),
                  f"d u^{a} d u^{b} + d u^{b} d u^{a} outside the junk span")
        return op

    def omega1_op(a, b):
        # [D, u^a] = a u^a on the window, so (du^a)* du^b = ab u^(b-a),
        # whose normalized window trace is ab when a = b and 0 otherwise
        def op():
            got = univdiff.omega1_form(model, a, b)
            check(got == (a * b if a == b else 0),
                  f"omega1_form({a}, {b}) = {got}")
        return op

    return ([Op("hochschild", hochschild), Op("junk-basis", junk)]
            + [Op(f"junk-span-{a}-{b}", anticommutator_op(a, b))
               for a, b in JUNK_PAIRS]
            + [Op(f"omega1-{a}-{b}", omega1_op(a, b)) for a, b in pairs])


BY_NAME = {"spectrum": spectrum, "torus": torus, "residue": residue,
           "algebra": algebra}


def build(workload, seed, workdir):
    """Generate the workload's inputs under `workdir`; returns its ops."""
    return BY_NAME[workload](random.Random(f"{workload}:{seed}"), workdir)
