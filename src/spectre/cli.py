"""Batch command-line front end.

Subcommands mirror the library modules and emit deterministic JSON (or
CSV where a table is the natural shape).  Exit codes: 0 success, 1 check
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys


class UsageError(Exception):
    """Bad command-line input, reported on stderr with exit code 2."""


# term counts are int64; a checkpoint N is summed as N + 1 terms
MAX_TERMS = 2**63 - 1


def _number(text, kind, where):
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{where}: not a number: {text!r}") from None


def _schedule(text):
    """The --schedule entries; dixmier's default when it is unset."""
    if text is None:
        from .dixmier import default_schedule
        return default_schedule()
    schedule = [_number(x, int, "--schedule") for x in text.split(",")]
    if len(schedule) < 3:
        raise UsageError("--schedule: needs at least 3 entries")
    if min(schedule) < 2:
        raise UsageError("--schedule: entries must be >= 2")
    if max(schedule) > MAX_TERMS - 1:
        raise UsageError(f"--schedule: entries must be <= {MAX_TERMS - 1}")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise UsageError("--schedule: entries must increase strictly")
    return schedule


def _csv_rows(path, option):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            yield from ((reader.line_num, row) for row in reader)
    except OSError as exc:
        raise UsageError(f"{option} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise UsageError(f"{option} {path}: not UTF-8 text") from None


def _emit(payload, fmt="json"):
    if fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(
            payload["csv_rows"])
    else:
        print(json.dumps(payload, sort_keys=True, indent=2,
                         allow_nan=False))


# ----------------------------------------------------------------------
# subcommands

def cmd_clifford_table(args):
    from .clifford import find_real_structure
    rows = []
    for p in range(1, 9):
        rs = find_real_structure(p)
        rows.append({"p": p, "eps": rs.eps, "eps_prime": rs.eps_prime,
                     "eps_double_prime": rs.eps_double_prime})
    _emit({"table": rows}, args.format)
    return 0


def cmd_hochschild(args):
    from . import univdiff as ud
    if args.chains < 1:
        raise UsageError(f"--chains: {args.chains} runs no check; needs >= 1")
    rng = random.Random(args.seed)
    results = {}
    for model in (ud.CircleModel(), ud.DiagonalModel()):
        checks = {"b_squared": True, "homotopy": True, "cycles": True,
                  "leibniz": True, "pi_b_zero": True}
        for deg in (1, 2, 3):
            for _ in range(args.chains):
                c = ud.random_chain(model, deg, rng)
                bc = ud.hochschild_b(c)
                lhs = ud.hochschild_b(ud.delta(c)) + ud.delta(bc)
                checks["homotopy"] &= lhs == c - ud.sigma_op(c)
                if deg >= 2:
                    checks["b_squared"] &= ud.hochschild_b(bc).is_zero()
                    cyc = ud.hochschild_b(ud.random_chain(model, deg, rng))
                    checks["cycles"] &= (cyc - ud.sigma_op(cyc)
                                         == ud.hochschild_b(ud.delta(cyc)))
                checks["pi_b_zero"] &= ud.window_is_zero(ud.represent(bc),
                                                         model)
        for _ in range(args.chains):
            w = ud.random_chain(model, 1, rng, nterms=2)
            r = ud.random_chain(model, 1, rng, nterms=2)
            rhs = ud.chain_mul(ud.delta(w), r) - ud.chain_mul(w, ud.delta(r))
            checks["leibniz"] &= ud.delta(ud.chain_mul(w, r)) == rhs
        results[model.name()] = checks
    ok = all(v for checks in results.values() for v in checks.values())
    _emit({"models": results, "pass": ok, "seed": args.seed}, args.format)
    return 0 if ok else 1


def cmd_dixmier(args):
    import numpy as np

    from . import dixmier as dx
    if (args.seq is None) == (args.csv is None):
        raise UsageError("dixmier needs exactly one of --seq and --csv")
    schedule = _schedule(args.schedule)
    if args.csv is not None:
        runs, total = [], 0
        for line, row in _csv_rows(args.csv, "--csv"):
            if not row or row[0].startswith("#"):
                continue
            where = f"{args.csv}:{line}"
            if len(row) < 2:
                raise UsageError(f"{where}: row needs value,count")
            value = _number(row[0], float, where)
            count = _number(row[1], int, where)
            if not (math.isfinite(value) and value > 0 and count >= 1):
                raise UsageError(f"{where}: needs a finite value > 0 "
                                 "and a count >= 1")
            total += count
            if total > MAX_TERMS:
                raise UsageError(f"{where}: counts up to this row sum "
                                 f"to more than {MAX_TERMS}")
            runs.append((value, count))
        values = np.array([v for v, _ in runs])
        counts = np.array([c for _, c in runs], dtype=np.int64)

        def chunks(n):
            if total < n:
                raise ValueError("CSV runs shorter than the schedule")
            yield values, counts
        seq = dx.SingularValueSeq(chunks, name=args.csv)
    else:
        if args.seq not in dx.BUILTINS:
            raise UsageError(f"unknown sequence {args.seq!r}; known: "
                             f"{sorted(dx.BUILTINS)}")
        seq = dx.BUILTINS[args.seq]()
    est = dx.dixmier_estimate(seq, schedule)
    payload = est.as_dict()
    payload["sequence"] = seq.name
    payload["csv_rows"] = [["N", "partial_ratio"]] + [
        [n, r] for n, r in zip(est.schedule, est.ratios)]
    if args.format == "json":
        payload.pop("csv_rows")
    _emit(payload, args.format)
    return 0


def cmd_volume(args):
    from . import model_triples as mt
    if args.p is not None:
        if args.model == "circle":
            raise UsageError("--p: the circle model is 1-dimensional; "
                             "omit --p")
        if not 2 <= args.p <= mt.MAX_TORUS_P:
            raise UsageError(f"--p: torus dimension {args.p} outside "
                             f"2..{mt.MAX_TORUS_P}")
    schedule = _schedule(args.schedule)
    est, expected = mt.volume_check(args.model, p=args.p, schedule=schedule)
    ratio = est.value / expected
    payload = {"model": args.model, "p": args.p or
               (1 if args.model == "circle" else 2),
               "estimate": est.value, "error_bar": est.error_bar,
               "c_p_vol": expected, "ratio": ratio,
               "schedule": schedule}
    payload["csv_rows"] = [["key", "value"]] + \
        [[k, v] for k, v in payload.items() if k != "csv_rows"]
    if args.format == "json":
        payload.pop("csv_rows")
    _emit(payload, args.format)
    return 0 if abs(ratio - 1) < 0.02 else 1


def cmd_distance(args):
    from . import model_triples as mt
    verts = set()
    edges = []
    rows = _csv_rows(args.graph, "--graph")
    _, header = next(rows, (0, []))
    if [h.strip() for h in header] != ["u", "v", "length"]:
        raise UsageError(f"{args.graph}: needs header u,v,length")
    for line, row in rows:
        if not row:
            continue
        where = f"{args.graph}:{line}"
        if len(row) < 3:
            raise UsageError(f"{where}: row needs u,v,length")
        u, v = row[0].strip(), row[1].strip()
        l = _number(row[2], float, where)
        verts.add(u)
        verts.add(v)
        edges.append((u, v, l))
    try:
        g = mt.MetricGraph(sorted(verts), edges)
    except ValueError as exc:
        raise UsageError(f"{args.graph}: {exc}") from None
    for option, vertex in (("--from", args.src), ("--to", args.dst)):
        if vertex not in verts:
            raise UsageError(f"{option}: unknown vertex {vertex!r} in "
                             f"{args.graph}")
    d = mt.connes_distance(g, args.src, args.dst)
    _emit({"from": args.src, "to": args.dst, "distance": d}, args.format)
    return 0


def cmd_wres(args):
    from . import wodzicki as w
    p = args.p
    if not 2 <= p <= w.MAX_P:
        raise UsageError(f"--p: {p} outside 2..{w.MAX_P}")
    parity = "even" if p % 2 == 0 else "odd"
    if args.parity not in (None, parity):
        raise UsageError(f"--parity {args.parity}: p = {p} is {parity}")
    raw = w.integrand(p)
    inv = w.cosphere_integrate(raw, p)
    payload = w.action_from_invariant(inv, p, args.torsion == "on").as_dict()
    payload["parity"] = parity
    payload["integrand"] = [
        {"spow": str(spow), "tens": _fmt_factors(tens),
         "mat": _fmt_factors(mat),
         "coeff": {"re": str(c.re), "im": str(c.im)}}
        for spow, tens, mat, c in raw.printed_terms()]
    payload["cosphere_invariant"] = {k: str(v) for k, v in
                                     inv.as_dict().items()}
    _emit(payload, args.format)
    return 0


def _fmt_factors(factors):
    return ["{}({})".format(f[0], ",".join(map(str, f[1:])))
            for f in factors]


# ----------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="spectre",
        description="numeric and symbolic checks for commutative "
                    "spectral geometry")
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="command")

    sub.add_parser("clifford-table", help="mod-8 real structure signs")

    hp = sub.add_parser("hochschild", help="differential identity suite")
    hp.add_argument("--seed", type=int, default=0)
    hp.add_argument("--chains", type=int, default=20)

    dp = sub.add_parser("dixmier", help="trace estimate of a sequence")
    dp.add_argument("--seq")
    dp.add_argument("--csv")
    dp.add_argument("--schedule")

    vp = sub.add_parser("volume", help="trace-versus-volume check")
    vp.add_argument("--model", choices=("circle", "torus"), required=True)
    vp.add_argument("--p", type=int)
    vp.add_argument("--schedule")

    gp = sub.add_parser("distance", help="spectral distance on a graph")
    gp.add_argument("--graph", required=True)
    gp.add_argument("--from", dest="src", required=True)
    gp.add_argument("--to", dest="dst", required=True)

    wp = sub.add_parser("wres", help="residue gravity-action coefficients")
    wp.add_argument("--p", type=int, required=True)
    wp.add_argument("--parity", choices=("even", "odd"))
    wp.add_argument("--torsion", choices=("on", "off"), default="on")
    return ap


# subcommands whose payload carries "csv_rows"
_CSV_COMMANDS = ("dixmier", "volume")

_DISPATCH = {
    "clifford-table": cmd_clifford_table,
    "hochschild": cmd_hochschild,
    "dixmier": cmd_dixmier,
    "volume": cmd_volume,
    "distance": cmd_distance,
    "wres": cmd_wres,
}


# built by the first main() call; parsing leaves it unchanged, so every
# later call in the process reuses it
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    ap = _parser
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    if not args.command:
        ap.print_usage(sys.stderr)
        return 2
    try:
        if args.format == "csv" and args.command not in _CSV_COMMANDS:
            raise UsageError(f"--format csv: {args.command} has no CSV "
                             "output")
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
