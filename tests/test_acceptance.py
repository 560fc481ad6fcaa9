"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -s  to see the lines.

Three golden sub-assertions in criterion 2 compare against tabulated
expressions that are provably inconsistent with each other and with the
criterion-3 coefficients under any single composition calculus (they
differ by factors of two on curvature terms that average to zero on the
cosphere).  The derivation rule set fixed by the build reproduces the
criterion-3 action exactly; those three sub-assertions are expected to
fail and are reported honestly rather than reconciled.  The analysis
lives in the project notes.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fixtures import (closed_form_inverse_power, delta_R_xixi, dense_model,
                      discretized_circle, fresh_label, numeric_word_trace,
                      random_connected_graph, same_window, xixi_R_xixi)
from spectre import clifford as cl
from spectre import model_triples as mt
from spectre import univdiff as ud
from spectre import wodzicki as w
from spectre.rationals import GQ, I
from spectre.symbols import SymbolExpr


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {tag}  {detail}")
    return ok


def test_criterion_01_real_structure_table():
    t0 = time.monotonic()
    table = {1: (1, -1, None), 2: (-1, 1, -1), 3: (-1, 1, None),
             4: (-1, 1, 1), 5: (-1, -1, None), 6: (1, 1, -1),
             7: (1, 1, None), 8: (1, 1, 1)}
    ok = True
    for p, row in table.items():
        rs = cl.find_real_structure(p)
        ok &= (rs.eps, rs.eps_prime, rs.eps_double_prime) == row
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert report(1, ok, f"mod-8 table, {elapsed:.3f}s"), \
        "real-structure table mismatch"


def _printed_sigma_m4():
    """The tabulated order -4 display (traced-curvature coefficient 2/3)."""
    d0, d1 = fresh_label(), fresh_label()
    e = SymbolExpr.mono(coeff=GQ(-1), spow=-2, mat=(('b',),))
    r0, r1, c = fresh_label(), fresh_label(), fresh_label()
    e = e + SymbolExpr.mono(coeff=GQ(Fraction(2, 3)), spow=-3,
                            tens=(('R', r0, r1, c, c), ('xi', r0),
                                  ('xi', r1)))
    e = e + SymbolExpr.mono(coeff=GQ(2), spow=-3,
                            tens=(('xi', d0), ('xi', d1)),
                            mat=(('da', d0, d1),))
    a0, a1 = fresh_label(), fresh_label()
    e = e + SymbolExpr.mono(coeff=GQ(-1), spow=-3,
                            tens=(('xi', a0), ('xi', a1)),
                            mat=(('a', a0), ('a', a1)))
    r = [fresh_label() for _ in range(4)]
    e = e + SymbolExpr.mono(coeff=GQ(Fraction(-4, 3)), spow=-4,
                            tens=(('R',) + tuple(r), ('xi', r[0]),
                                  ('xi', r[1]), ('xi', r[2]),
                                  ('xi', r[3])))
    return e


def _printed_closed_form(m):
    """Tabulated five-term closed form for the (-2m)-th power."""
    par = w.parametrix_D2()
    s3, s4 = par[-3], par[-4]
    out = s4.at_base().scale(GQ(m)) * SymbolExpr.mono(spow=-m + 1)
    out = out + (s3.at_base() * s3.at_base() *
                 SymbolExpr.mono(spow=-m + 2)
                 ).scale(GQ(Fraction(m * (m - 1), 2)))
    lab = fresh_label()
    xi_dx = (SymbolExpr.mono(tens=(('xi', lab),)) *
             s3.diff_x(lab).at_base())
    out = out + (xi_dx * SymbolExpr.mono(spow=-m)
                 ).scale(I * GQ(m * (m - 1)))
    out = out + delta_R_xixi(spow=-m - 2).scale(
        GQ(Fraction(m * (m - 1), 6)))
    out = out + xixi_R_xixi(spow=-m - 3).scale(
        GQ(Fraction(-4 * m * (m + 1) * (m - 1), 9)))
    return out


def test_criterion_02_symbol_golden_tests():
    t0 = time.monotonic()
    failures = []
    for p in (4, 6):
        par = w.parametrix_D2()
        if par[-2].at_base().terms != \
                SymbolExpr.mono(spow=-1).terms:
            failures.append(f"sigma_-2 p={p}")
        d = fresh_label()
        s3_expect = SymbolExpr.mono(coeff=-I, spow=-2,
                                    tens=(('xi', d),), mat=(('a', d),))
        if par[-3].at_base().terms != s3_expect.terms:
            failures.append(f"sigma_-3 p={p}")
        if par[-4].at_base().terms != _printed_sigma_m4().terms:
            failures.append(f"sigma_-4 p={p} (known: traced-curvature "
                            "term 1/3 vs tabulated 2/3)")
    for m in (1, 2, 3):
        _, G = w.inverse_power(m)
        if G.terms != _printed_closed_form(m).terms:
            failures.append(f"inverse_power m={m} (known: quartic "
                            "curvature term -2/9 vs tabulated -4/9)")
    for p in (4, 6):
        out = w.integrand(p).mod_norm()
        expected = {
            'b': Fraction(-(p - 2), 2),
            'da': Fraction(p * (p - 2), 4),
            'aa': Fraction(-p * (p - 2), 8),
            'dR': Fraction(p * (p - 2), 24),
            'quartic': Fraction(-(p - 2) * (p * p - 4 * p + 6), 18),
        }
        got = _standard_coefficients(out)
        for key, val in expected.items():
            if got.get(key) != val:
                known = (" (known: cosphere-null quartic)"
                         if key == 'quartic' else "")
                failures.append(
                    f"even integrand p={p} {key}: {got.get(key)} != "
                    f"{val}{known}")
    for p in (3, 5):
        out = w.integrand(p).mod_norm()
        got = _standard_coefficients(out)
        expected = {
            'b': Fraction(-(p - 2), 2),
            'da': Fraction(p * (p - 2), 4),
            'aa': Fraction(-p * (p - 2), 8),
            'dR': Fraction(p * (p - 2), 24),
        }
        for key, val in expected.items():
            if got.get(key) != val:
                failures.append(f"odd integrand p={p} {key}")
        if not _extras_moment_zero(out, p):
            failures.append(f"odd integrand p={p} extra terms")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 5.0
    assert report(2, ok,
                  f"symbol goldens, {elapsed:.2f}s"
                  + (f"; mismatches: {failures}" if failures else "")), \
        f"golden mismatches: {failures}"


def _standard_coefficients(expr):
    got = {'b': Fraction(0), 'da': Fraction(0), 'aa': Fraction(0),
           'dR': Fraction(0), 'quartic': Fraction(0)}
    for (spow, tens, mat), c in expr.terms.items():
        if mat == (('b',),) and not tens:
            got['b'] += c.re
        elif len(mat) == 1 and mat[0][0] == 'da':
            got['da'] += c.re
        elif len(mat) == 2 and all(f[0] == 'a' for f in mat):
            got['aa'] += c.re
        elif not mat and len(tens) == 3:
            got['dR'] += c.re
        elif not mat and len(tens) == 5:
            got['quartic'] += c.re
    return got


def _extras_moment_zero(expr, p):
    for (h, tens, mat), c in expr.terms.items():
        if mat or len(tens) in (3, 5):
            continue
        probe = SymbolExpr()
        probe._accum(h, tens, mat, c)
        if any(w.cosphere_integrate(probe, p).as_dict().values()):
            return False
    return True


def test_criterion_03_gravity_action():
    t0 = time.monotonic()
    ok = True
    for p in (3, 4, 5, 6):
        ga = w.gravity_action(p, torsion=True)
        ok &= ga.coeff_R == Fraction(-(p - 2), 12)
        ok &= ga.coeff_t2 == Fraction(3 * (p - 2), 2)
    for p in (4, 6):
        a = w.gravity_action(p)
        b = w.action_from_invariant(w.cosphere_integrate(
            closed_form_inverse_power((p - 2) // 2), p), p)
        ok &= (a.coeff_R, a.coeff_t2) == (b.coeff_R, b.coeff_t2)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    assert report(3, ok, f"gravity action p=3..6, {elapsed:.2f}s")


def test_criterion_04_quadratic_form():
    ok = w.gravity_action(2, torsion=True).coeff_t2 == 0
    for p in range(3, 9):
        ok &= w.gravity_action(p, torsion=True).coeff_t2 > 0
    assert report(4, ok, "torsion quadratic form")


def test_criterion_05_dixmier_volume_checks():
    t0 = time.monotonic()
    sched = [10**4, 10**5, 10**6, 10**7]
    est_c, exp_c = mt.volume_check("circle", schedule=sched)
    ok = abs(est_c.value / exp_c - 1) < 0.02 and \
        exp_c == pytest.approx(2.0)
    est_t, exp_t = mt.volume_check("torus", p=2, schedule=sched)
    ok &= abs(est_t.value / exp_t - 1) < 0.02 and \
        exp_t == pytest.approx(2 * math.pi)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    assert report(5, ok,
                  f"circle {est_c.value:.5f}/2, torus "
                  f"{est_t.value:.5f}/{2*math.pi:.5f}, {elapsed:.1f}s")


def test_criterion_06_volume_constant_identity():
    mt.volume_identity(1)   # warm the gamma-function path
    t0 = time.monotonic()
    ok = all(mt.volume_identity(p)[2] for p in range(1, 13))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1e-3
    assert report(6, ok, f"c(p) identity p=1..12, {elapsed*1e6:.0f}us")


def test_criterion_07_connes_distance():
    t0 = time.monotonic()
    g = discretized_circle(200)
    d = mt.connes_distance(g, 0, 100)
    ok = abs(d - math.pi) <= math.pi / 200
    rng = random.Random(20240)
    for _ in range(100):
        gr = random_connected_graph(rng, max_vertices=50)
        x = rng.randrange(len(gr.vertices))
        y = rng.randrange(len(gr.vertices))
        ok &= abs(mt.shortest_path_distance(gr, x, y)
                  - mt.lp_distance(gr, x, y)) <= 1e-9
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    assert report(7, ok, f"antipodes {d:.6f} vs pi, 100 LP checks, "
                  f"{elapsed:.1f}s")


def test_criterion_08_hochschild_identity_suite():
    t0 = time.monotonic()
    rng = random.Random(777)
    circle = ud.CircleModel()
    diag = ud.DiagonalModel()
    ok = True
    count = 0
    while count < 500:
        model = circle if count % 2 == 0 else diag
        deg = 1 + (count % 3)
        c = ud.random_chain(model, deg, rng, nterms=2)
        count += 1
        if deg >= 2:
            ok &= ud.hochschild_b(ud.hochschild_b(c)).is_zero()
        lhs = ud.hochschild_b(ud.delta(c)) + ud.delta(ud.hochschild_b(c))
        ok &= lhs == c - ud.sigma_op(c)
        if deg >= 2:
            cyc = ud.hochschild_b(c)
            ok &= cyc - ud.sigma_op(cyc) == \
                ud.hochschild_b(ud.delta(cyc))
        ok &= ud.window_is_zero(ud.represent(ud.hochschild_b(c)), model)
        if count % 5 == 0:
            r = ud.random_chain(model, 1, rng, nterms=2)
            lhs = ud.delta(ud.chain_mul(c, r))
            rhs = ud.chain_mul(ud.delta(c), r) + \
                ud.chain_mul(c, ud.delta(r)).scale(Fraction(-1) ** deg)
            ok &= lhs == rhs
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    assert report(8, ok, f"500 chains, both models, {elapsed:.1f}s")


def test_criterion_09_junk_reproduction():
    circle = ud.CircleModel()
    _, pi, comm = dense_model(circle)
    u = ud.chain(circle, (1,))
    xi = ud.chain_mul(ud.delta(u), u) - ud.chain_mul(u, ud.delta(u))
    ok = ud.window_is_zero(ud.represent(xi), circle)
    rep_dxi = ud.represent(ud.delta(xi))
    ok &= same_window(rep_dxi, -2 * pi[2], circle)
    cyc = ud.chain(circle, (-1, 1))
    ok &= ud.hochschild_b(cyc).is_zero()
    ok &= same_window(ud.represent(cyc), np.eye(circle.n, dtype=np.int64),
                      circle)
    a = ud.chain(circle, (2,))
    cda = ud.chain_mul(cyc, ud.delta(a))
    lhs = cda - ud.sigma_op(cda)
    ok &= same_window(ud.represent(lhs), 2 * comm[2], circle)
    assert report(9, ok, "junk element and cycle identity on the window")


def test_criterion_10_spinor_trace_identities():
    t0 = time.monotonic()
    ok = True
    # both torsion trace identities, symbolically
    for p in (2, 3, 4):
        pw = 2 ** (p // 2)
        d = fresh_label()
        tt = SymbolExpr.mono(mat=(('T', d), ('T', d)))
        ok &= _t2_total(w.spinor_trace(tt, p)) == Fraction(-pw, 2)
        m, n = fresh_label(), fresh_label()
        e = SymbolExpr.mono(coeff=GQ(Fraction(1, 2)),
                            mat=(('g2', m, n), ('T', m), ('T', n)))
        e = e + SymbolExpr.mono(coeff=GQ(Fraction(-1, 2)),
                                mat=(('g2', m, n), ('T', n), ('T', m)))
        ok &= _t2_total(w.spinor_trace(e, p)) == Fraction(-pw)
    # gamma word traces against concrete matrices: every perfect-matching
    # pattern of length 2, 4, 6 (these span all contracted words by
    # multilinearity), plus odd words
    for p in (2, 3, 4):
        for word in _matching_words(6):
            sym = w.gamma_word_trace(word, p)
            val = sum((complex(c) for c in sym.terms.values()), 0j)
            ok &= abs(val - numeric_word_trace(word, p)) < 1e-9
        ok &= w.gamma_word_trace((0, 1, 0, 1, 2), p).is_zero()
    elapsed = time.monotonic() - t0
    assert report(10, ok, f"torsion traces + word oracle, {elapsed:.1f}s")


def _t2_total(expr):
    tot = Fraction(0)
    for (spow, tens, mat), c in expr.terms.items():
        s = w._t_squared_sign(tens)
        if s is not None:
            tot += s * c.re
    return tot


def _matching_words(max_len):
    """Every perfect-matching contraction pattern of lengths 2, 4, 6."""
    out = []
    for k in (1, 2, 3):
        if 2 * k > max_len:
            break
        out.extend(_expand_matchings(list(range(2 * k))))
    return out


def _expand_matchings(slots):
    def rec(remaining):
        if not remaining:
            return [[]]
        first, rest = remaining[0], remaining[1:]
        result = []
        for i in range(len(rest)):
            pair = (first, rest[i])
            for sub in rec(rest[:i] + rest[i + 1:]):
                result.append([pair] + sub)
        return result

    words = []
    for pairing in rec(list(slots)):
        word = [0] * len(slots)
        for label, (a, b) in enumerate(pairing):
            word[a] = label
            word[b] = label
        words.append(tuple(word))
    return words
