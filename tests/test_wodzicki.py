"""Residue calculus: parametrix goldens, recursions, cosphere moments,
torsion traces and the assembled action."""

from fractions import Fraction

import numpy as np
import pytest

import fixtures
from fixtures import fresh_label, numeric_word_trace
from spectre.rationals import GQ, I, ONE
from spectre.symbols import SymbolExpr, compose, relabel_free, sigma2_pow
from spectre import symbols
from spectre import wodzicki as w
from test_clifford import gamma_word_trace_reference


def fl():
    return fresh_label()


def mono(**kw):
    return SymbolExpr.mono(**kw)


def xi(i):
    return ('xi', i)


# -- expected expressions (hand-entered) --------------------------------

def expected_sigma_m2():
    return mono(spow=-1)


def expected_sigma_m3():
    d = fl()
    return mono(coeff=-I, spow=-2, tens=(xi(d),), mat=(('a', d),))


def expected_sigma_m4(delta_R_coeff):
    """-b S^-2 + delta_R_coeff * (traced R) xi xi S^-3 + 2 xi da xi S^-3
    - a xi a xi S^-3 - 4/3 (xi xi R xi xi) S^-4."""
    d0, d1 = fl(), fl()
    e = mono(coeff=GQ(-1), spow=-2, mat=(('b',),))
    r0, r1, c = fl(), fl(), fl()
    e = e + mono(coeff=GQ(delta_R_coeff), spow=-3,
                 tens=(('R', r0, r1, c, c), xi(r0), xi(r1)))
    e = e + mono(coeff=GQ(2), spow=-3, tens=(xi(d0), xi(d1)),
                 mat=(('da', d0, d1),))
    a0, a1 = fl(), fl()
    e = e + mono(coeff=GQ(-1), spow=-3, tens=(xi(a0), xi(a1)),
                 mat=(('a', a0), ('a', a1)))
    r = [fl() for _ in range(4)]
    e = e + mono(coeff=GQ(Fraction(-4, 3)), spow=-4,
                 tens=(('R',) + tuple(r), xi(r[0]), xi(r[1]), xi(r[2]),
                       xi(r[3])))
    return e


def test_parametrix_sigma_m2_m3_as_printed():
    par = w.parametrix_D2()
    assert par[-2].at_base().terms == expected_sigma_m2().terms
    assert par[-3].at_base().terms == expected_sigma_m3().terms


def test_parametrix_sigma_m4_engine_form():
    """The derivation-consistent sigma_-4 (traced-curvature coefficient
    1/3, forced by the stored derivative table and by the final
    integrand)."""
    par = w.parametrix_D2()
    assert par[-4].at_base().terms == \
        expected_sigma_m4(Fraction(1, 3)).terms


def test_parametrix_defining_property():
    """compose(symbol of the square, parametrix) - 1 has no term of
    degree >= -2 (in the tracked calculus, i.e. modulo the curvature
    budget ideal that the three-order window cannot see)."""
    par = w.parametrix_D2()
    total = par[-2] + par[-3] + par[-4]
    left = compose(w.symbol_D2(), total, cutoff=-2,
                   drop=w._curvature_budget)
    assert left.terms == SymbolExpr.const(ONE).terms


def test_inverse_power_base_case_matches_parametrix():
    par = w.parametrix_D2()
    F, G = w.inverse_power(1)
    assert F.terms == par[-3].at_base().terms
    assert G.terms == par[-4].at_base().terms


def test_inverse_power_leading_odd_term():
    # sigma_{-2m-1} = m S^{-m+1} sigma_{-3}
    for m in (2, 3):
        F, _ = w.inverse_power(m)
        expect = (expected_sigma_m3() * mono(spow=-m + 1)).scale(GQ(m))
        assert F.terms == expect.terms


def test_inverse_power_closed_form_cross_check():
    for m in (1, 2, 3):
        _, G = w.inverse_power(m)
        cf = fixtures.closed_form_inverse_power(m)
        assert cf.terms == G.terms


def test_even_integrand_moment_relevant_coefficients():
    """The four coefficients that survive the cosphere average equal the
    tabulated set {-(p-2)/2, p(p-2)/4, -p(p-2)/8, p(p-2)/24}."""
    for p in (4, 6):
        out = w.integrand(p).mod_norm()
        coeffs = _extract_standard_coefficients(out, p)
        assert coeffs['b'] == Fraction(-(p - 2), 2)
        assert coeffs['da'] == Fraction(p * (p - 2), 4)
        assert coeffs['aa'] == Fraction(-p * (p - 2), 8)
        assert coeffs['dR'] == Fraction(p * (p - 2), 24)


def test_odd_integrand_as_printed():
    for p in (3, 5):
        out = w.integrand(p).mod_norm()
        coeffs = _extract_standard_coefficients(out, p)
        assert coeffs['b'] == Fraction(-(p - 2), 2)
        assert coeffs['da'] == Fraction(p * (p - 2), 4)
        assert coeffs['aa'] == Fraction(-p * (p - 2), 8)
        assert coeffs['dR'] == Fraction(p * (p - 2), 24)
        # everything beyond the four tabulated terms must average to zero
        assert coeffs['extra_moment_zero']


def _extract_standard_coefficients(expr, p):
    out = {'b': Fraction(0), 'da': Fraction(0), 'aa': Fraction(0),
           'dR': Fraction(0), 'quartic': Fraction(0),
           'extra_moment_zero': True}
    for (h, tens, mat), c in expr.terms.items():
        assert h == 0
        if mat == (('b',),) and not tens:
            out['b'] += c.re
        elif len(mat) == 1 and mat[0][0] == 'da':
            out['da'] += c.re
        elif len(mat) == 2 and all(f[0] == 'a' for f in mat):
            out['aa'] += c.re
        elif not mat and len(tens) == 3 and \
                any(f[0] == 'R' and f[3] == f[4] for f in tens
                    if len(f) == 5):
            out['dR'] += c.re
        elif not mat and len(tens) == 5:
            out['quartic'] += c.re
        else:
            # any other residue must vanish under the moment average
            probe = SymbolExpr()
            probe._accum(h, tens, mat, c)
            inv = w.cosphere_integrate(probe, p)
            if any(inv.as_dict().values()):
                out['extra_moment_zero'] = False
    return out


def test_integrand_homogeneity_bookkeeping():
    """Every integrand term is homogeneous of degree -p before the norm
    is set to 1, so the cosphere restriction is well-defined."""
    for p in (3, 4, 5, 6):
        raw = w.integrand(p)
        parts = raw.xi_degree_parts()
        assert set(parts) == {Fraction(-p)}


def test_p2_integrand_vanishes():
    assert w.integrand(2).is_zero()


# -- absolute-value symbols ---------------------------------------------

def test_abs_symbol_principal_square():
    s1, _, _ = w.abs_symbol()
    sq = compose(s1, s1, cutoff=1).grade(2)
    assert sq.terms == sigma2_pow(1).grade(2).terms


def test_abs_symbol_order_zero_coefficient():
    _, s0, _ = w.abs_symbol()
    d = fl()
    expect = mono(coeff=GQ(0, Fraction(1, 2)), spow=Fraction(-1, 2),
                  tens=(xi(d),), mat=(('a', d),))
    assert s0.at_base().terms == expect.terms


def test_abs_symbol_order_minus_one_consistent_with_display():
    """The derived sigma_{-1} keeps the tabulated b/2 and -1/24 curvature
    terms; the a-quadratic and a-derivative coefficients come out 1/8 and
    -1/4 where the display shows 1/2 and -1/8 (the display is not
    consistent with the final odd coefficients, which this derivation
    reproduces exactly)."""
    _, _, sm1 = w.abs_symbol()
    got = {}
    for (spow, tens, mat), c in sm1.mod_norm().terms.items():
        if mat == (('b',),):
            got['b'] = c.re
        elif len(mat) == 2:
            got['aa'] = c.re
        elif len(mat) == 1 and mat[0][0] == 'da':
            got['da'] = c.re
        elif not mat and len(tens) == 3:
            got['dR'] = c.re
    assert got['b'] == Fraction(1, 2)
    assert got['dR'] == Fraction(-1, 24)
    assert got['aa'] == Fraction(1, 8)
    assert got['da'] == Fraction(-1, 4)


# -- cosphere moments ----------------------------------------------------

def test_cosphere_moment_rules():
    p = 4
    d = fl()
    # odd moment vanishes: a single xi against a free slot
    odd = mono(tens=(xi(60),))
    assert not any(w.cosphere_integrate(odd, p).as_dict().values())
    # xi xi against two a-factors: a.a / p
    a0, a1 = fl(), fl()
    e = mono(tens=(xi(a0), xi(a1)), mat=(('a', a0), ('a', a1)))
    inv = w.cosphere_integrate(e, p)
    assert inv.a_dot_a == Fraction(1, p)


def test_cosphere_quartic_curvature_vanishes():
    p = 4
    e = fixtures.xixi_R_xixi(spow=0)
    inv = w.cosphere_integrate(e, p)
    assert not any(inv.as_dict().values())


def test_cosphere_rejects_moments_beyond_degree_four():
    p = 4
    labs = [fl() for _ in range(6)]
    e = mono(tens=tuple(('xi', l) for l in labs),
             mat=tuple(('a', l) for l in labs))
    with pytest.raises(ValueError):
        w.cosphere_integrate(e, p)


def test_cosphere_rejects_inhomogeneous_input():
    p = 4
    e = mono(mat=(('b',),)) + mono(spow=-1, mat=(('b',),))
    with pytest.raises(ValueError):
        w.cosphere_integrate(e, p)


def test_curvature_trace_rules_hold_for_true_curvature_tensors():
    """Instantiate the stored jet tensor from random tensors with the
    symmetries of a curvature tensor and verify, numerically, the two
    reduction rules and the quartic moment cancellation."""
    rng = np.random.default_rng(5)
    n = 4
    T = rng.standard_normal((n, n, n, n))
    # project onto curvature symmetries: antisymmetrize both pairs, then
    # symmetrize under pair exchange
    R = T - T.transpose(1, 0, 2, 3)
    R = R - R.transpose(0, 1, 3, 2)
    R = R + R.transpose(2, 3, 0, 1)
    # jet tensor H(a,b,c,d) = (R_{acbd} + R_{adbc})/2
    H = (R.transpose(0, 2, 1, 3) + R.transpose(0, 3, 1, 2)) / 2
    # stored symmetries
    assert np.allclose(H, H.transpose(1, 0, 3, 2))
    assert np.allclose(H, H.transpose(0, 1, 3, 2) .transpose(0, 1, 3, 2))
    assert np.allclose(H, H.transpose(2, 3, 0, 1))
    full = np.einsum('aabb->', H)
    cross = np.einsum('abab->', H)
    assert abs(cross + full / 2) < 1e-10
    # quartic moment: sum of the three pairings cancels
    quartic = (np.einsum('aabb->', H) + np.einsum('abab->', H)
               + np.einsum('abba->', H))
    assert abs(quartic) < 1e-10


# -- squaring and traces --------------------------------------------------

def test_square_dirac_first_order_coefficient():
    a_on, _ = w.square_dirac(torsion=True)
    d = w.FREE_MU
    expect = mono(coeff=GQ(-2), mat=(('om', d),)) + \
        mono(coeff=GQ(-6), mat=(('T', d),))
    assert a_on.terms == expect.terms
    a_off, _ = w.square_dirac(torsion=False)
    assert a_off.terms == mono(coeff=GQ(-2), mat=(('om', d),)).terms


def test_square_dirac_b_contains_lichnerowicz_and_group_terms():
    a, b = w.square_dirac(torsion=True)
    # b carries the R/4 term
    rs = [c for (spow, tens, mat), c in b.terms.items()
          if tens == (('Rs',),) and not mat]
    assert rs and rs[0] == GQ(Fraction(1, 4))
    # and the grouped view: b - (1/2) div a + (1/4) a.a has no bare
    # connection terms left
    res = w.group_residual(torsion=True)
    for (spow, tens, mat), c in res.terms.items():
        kinds = [f[0] for f in mat]
        assert kinds.count('om') + kinds.count('dom') <= 1 or 'T' in kinds


def test_spinor_trace_torsion_identities():
    """trace(T^m T_m) = -1/2 t.t 2^[p/2];
    trace(g2[T,T]/2) = -t.t 2^[p/2]."""
    for p in (2, 3, 4):
        pw = 2 ** (p // 2)
        d = fl()
        tt = mono(mat=(('T', d), ('T', d)))
        assert _t2_value(w.spinor_trace(tt, p)) == Fraction(-pw, 2)
        m, n = fl(), fl()
        e = mono(coeff=GQ(Fraction(1, 2)),
                 mat=(('g2', m, n), ('T', m), ('T', n)))
        e = e + mono(coeff=GQ(Fraction(-1, 2)),
                     mat=(('g2', m, n), ('T', n), ('T', m)))
        assert _t2_value(w.spinor_trace(e, p)) == Fraction(-pw)


def _t2_value(expr):
    tot = Fraction(0)
    for (spow, tens, mat), c in expr.terms.items():
        s = w._t_squared_sign(tens)
        assert s is not None and not mat
        tot += s * c.re
    return tot


def test_trace_reduce_group_post():
    """trace(b + a.a/4 - div(a)/2) = 2^[p/2] (R/4 - 3 t.t) + boundary."""
    for p in (3, 4):
        pw = 2 ** (p // 2)
        tr = w.spinor_trace(w.group_residual(torsion=True), p)
        rs = Fraction(0)
        t2 = Fraction(0)
        for (spow, tens, mat), c in tr.terms.items():
            if tens == (('Rs',),):
                rs += c.re
            else:
                s = w._t_squared_sign(tens)
                if s is not None:
                    t2 += s * c.re
        assert rs == Fraction(pw, 4)
        assert t2 == Fraction(-3 * pw)
        # torsion off leaves curvature only
        tr0 = w.spinor_trace(w.group_residual(torsion=False), p)
        assert all(tens == (('Rs',),) for (s_, tens, m_), c in
                   tr0.terms.items())


def spinor_trace_reference(expr, p):
    """The spinor trace at a fixed p: the matrix factors expanded and each
    gamma word traced by the fixed-p recursion, for one p at a time.  The
    oracle for the p-polynomial of `wodzicki.spinor_trace_poly`."""
    w._check_p(p)
    total = SymbolExpr()
    for (h, tens, mat), c in expr.terms.items():
        tens, mat = relabel_free(tens, mat)
        pieces = [SymbolExpr.mono(coeff=c, spow=Fraction(h, 2), tens=tens)]
        for f in mat:
            kind = f[0]
            if kind == 'g':
                rep = SymbolExpr.mono(mat=(f,))
            elif kind == 'g2':
                m, n = f[1], f[2]
                rep = SymbolExpr.mono(mat=(('g', m), ('g', n))) + \
                    SymbolExpr.mono(tens=(('dl', m, n),))
            elif kind in w._EXPAND_GAMMA:
                tname, pref, arity = w._EXPAND_GAMMA[kind]
                tfac = (tname,) + f[1:2] + (-1, -2) + f[2:]
                rep = SymbolExpr.mono(coeff=GQ(pref), tens=(tfac,),
                                      mat=(('g', -1), ('g', -2)))
            elif kind == 'b':
                raise ValueError("expand b before tracing")
            else:
                raise ValueError(f"cannot trace factor {f}")
            pieces.append(rep)
        term = pieces[0]
        for rep in pieces[1:]:
            term = term * rep
        total = total + term
    out = SymbolExpr()
    for (h, tens, mat), c in total.terms.items():
        tens, mat = relabel_free(tens, mat)
        labels = []
        for f in mat:
            assert f[0] == 'g'
            labels.append(f[1])
        tr = gamma_word_trace_reference(labels, p)
        pre = SymbolExpr.mono(coeff=c, spow=Fraction(h, 2), tens=tens)
        out = out + pre * tr
    return out


def _criterion_10_expressions():
    d, m, n = 1, 2, 3
    tt = mono(mat=(('T', d), ('T', d)))
    e = mono(coeff=GQ(Fraction(1, 2)), mat=(('g2', m, n), ('T', m), ('T', n)))
    e = e + mono(coeff=GQ(Fraction(-1, 2)),
                 mat=(('g2', m, n), ('T', n), ('T', m)))
    return {"T.T": tt, "g2[T,T]/2": e}


@pytest.mark.parametrize("name", ["group torsion", "group no torsion",
                                  "T.T", "g2[T,T]/2", "g T g T"])
def test_spinor_trace_matches_reference(name):
    """The group and the criterion-10 expressions trace to p-free
    polynomials apart from 2^[p/2]; g^m T g_m T carries a factor p."""
    exprs = {"group torsion": w.group_residual(True),
             "group no torsion": w.group_residual(False),
             "g T g T": mono(mat=(('g', 1), ('T', 2), ('g', 1), ('T', 2))),
             **_criterion_10_expressions()}
    expr = exprs[name]
    for p in range(1, 13):
        assert w.spinor_trace(expr, p).terms == \
            spinor_trace_reference(expr, p).terms, p


def test_trace_reduce_reads_the_group_trace_built_once():
    """Each p evaluates the cached polynomial; no p traces a word or
    canonicalizes a monomial again."""
    inv = w.cosphere_integrate(w.integrand(4), 4)
    w.trace_reduce(inv, 3)
    words = w.word_trace_poly.cache_info()
    misses = symbols._canon_cached.cache_info().misses
    for p in range(3, 13):
        w.trace_reduce(inv, p)
    assert w.word_trace_poly.cache_info() == words
    assert symbols._canon_cached.cache_info().misses == misses
    assert w._group_trace_poly.cache_info().currsize >= 1


def test_gamma_word_trace_oracle_small():
    from spectre.wodzicki import gamma_word_trace
    for p in (2, 3, 4):
        for word in [(0, 0), (0, 1, 0, 1), (0, 1, 1, 0),
                     (0, 1, 2, 0, 1, 2), (0, 1, 2, 2, 1, 0)]:
            sym = gamma_word_trace(word, p)
            val = complex(sum((complex(c) for c in sym.terms.values()),
                              0j)) if sym.terms else 0j
            num = numeric_word_trace(word, p)
            assert abs(val - num) < 1e-9


# -- assembled action -----------------------------------------------------

def test_gravity_action_exact():
    for p in (3, 4, 5, 6):
        ga = w.gravity_action(p, torsion=True)
        assert ga.coeff_R == Fraction(-(p - 2), 12)
        assert ga.coeff_t2 == Fraction(3 * (p - 2), 2)
        off = w.gravity_action(p, torsion=False)
        assert off.coeff_R == Fraction(-(p - 2), 12)
        assert off.coeff_t2 == 0


def test_gravity_action_path_independent():
    for p in (4, 6):
        a = w.gravity_action(p)
        b = w.action_from_invariant(w.cosphere_integrate(
            fixtures.closed_form_inverse_power((p - 2) // 2), p), p)
        assert (a.coeff_R, a.coeff_t2) == (b.coeff_R, b.coeff_t2)


def test_quadratic_form_coeff():
    assert w.quadratic_form_coeff(2) == 0
    for p in range(3, 9):
        assert w.quadratic_form_coeff(p) == Fraction(3 * (p - 2), 2) > 0
    with pytest.raises(ValueError):
        w.quadratic_form_coeff(1)


def test_dimension_guard():
    with pytest.raises(ValueError):
        w.integrand(13)


@pytest.mark.parametrize("p", [3, 5])
def test_repeated_gravity_action_adds_no_cache_misses(p):
    """Canonical dummies make the canonicalization keys of a repeated
    computation the same as the first time."""
    first = w.gravity_action(p)
    misses = symbols._canon_cached.cache_info().misses
    assert w.gravity_action(p) == first
    assert symbols._canon_cached.cache_info().misses == misses


def test_power_chain_is_shared_across_dimensions(monkeypatch):
    """The symbols carry no dimension, so the (-10)-th power that
    integrand(11) composes with |D| is the one integrand(12) reads: the
    second call composes nothing and canonicalizes nothing new."""
    w.integrand(11)
    calls = []
    original = w.compose

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(w, "compose", counted)
    misses = symbols._canon_cached.cache_info().misses
    w.integrand(12)
    assert calls == []
    assert symbols._canon_cached.cache_info().misses == misses


class _NoLabels:
    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("the engine drew a global fresh label")


def test_engine_draws_no_global_labels(monkeypatch):
    """The only global label source is the tests' `fresh_label`; the
    engine's results do not touch it."""
    def run():
        return (w.gravity_action(4), w.gravity_action(5),
                w.spinor_trace(w.group_residual(), 4))

    expected = run()
    monkeypatch.setattr(fixtures, "_fresh_counter", _NoLabels())
    assert run() == expected
