"""Canonicalization and composition engine properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spectre.rationals import GQ, I, ONE
from spectre.symbols import (JetExhausted, SymbolExpr, canon_mono, compose,
                             fresh_label, sigma2_pow)


def mono(**kw):
    return SymbolExpr.mono(**kw)


def test_gaussian_rational_field():
    a = GQ(Fraction(1, 2), Fraction(-1, 3))
    b = GQ(2, 5)
    assert a + b - b == a
    assert (a * b) / b == a
    assert I * I == GQ(-1)
    assert bool(GQ(0, 0)) is False


def test_canonical_idempotent():
    res = canon_mono(Fraction(-2),
                     (('xi', 1000), ('R', 1001, 1000, 1002, 1003),
                      ('xi', 1001), ('x', 1002), ('x', 1003)),
                     (), ONE)
    spow, tens, mat, coeff = res
    again = canon_mono(spow, tens, mat, coeff)
    assert again == res


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(1000, 1006))))
def test_dummy_relabel_invariance(perm):
    base = list(range(1000, 1006))
    ren = dict(zip(base, perm))

    def build(labels):
        l = labels
        return canon_mono(
            Fraction(-1),
            (('R', l[0], l[1], l[2], l[3]), ('xi', l[0]), ('xi', l[1]),
             ('xi', l[2]), ('xi', l[3]), ('xi', l[4]), ('xi', l[4]),
             ('x', l[5]), ('x', l[5])),
            (), ONE)

    assert build(base) == build([ren[i] for i in base])


def test_antisymmetric_self_contraction_vanishes():
    assert canon_mono(Fraction(0), (('t', 1000, 1001, 1001),), (), ONE) \
        is None


def test_xi_pair_becomes_norm_power():
    e = mono(tens=(('xi', 1000), ('xi', 1000)))
    assert e.terms == {(Fraction(1), (), ()): ONE}


def test_delta_trace_is_left_to_the_gamma_trace():
    """The engine carries no dimension: a traced delta is refused, and the
    gamma-word trace contracts g^m g_m to -p itself."""
    from spectre.clifford import gamma_word_trace, numeric_word_trace
    with pytest.raises(ValueError):
        SymbolExpr.mono(tens=(('dl', 1, 1),))
    # g^m g_m = -7 on spinors of dimension 2^3
    assert numeric_word_trace((0, 0), 7) == -56
    assert gamma_word_trace((0, 0), 7).terms == \
        {(Fraction(0), (), ()): GQ(-56)}


def test_mul_contracts_shared_free_labels():
    a = mono(tens=(('xi', 5),))
    b = mono(tens=(('xi', 5),))
    prod = a * b
    # xi_5 xi_5 with 5 free on both sides: contraction makes it the norm
    assert prod.terms == {(Fraction(1), (), ()): ONE}


def test_compose_identity_symbol():
    q = sigma2_pow(-1) + mono(mat=(('b',),))
    one = SymbolExpr.const(ONE)
    assert compose(one, q, cutoff=-4).terms == q.terms
    assert compose(q, one, cutoff=-4).terms == q.terms


def test_compose_first_leibniz_term():
    # c^m xi_m composed with an order-0 symbol f(x) carrying a first jet:
    # result c xi f - i c^m f_{,m}
    c_xi = mono(tens=(('xi', 1000),), mat=(('a', 1000),))
    f = mono(mat=(('b',),)) + \
        mono(tens=(('x', 1001),), mat=(('da', 50, 1001),))
    out = compose(c_xi, f, cutoff=-1)
    expect = (c_xi * f) + \
        mono(coeff=GQ(0, -1), mat=(('a', 1002), ('da', 50, 1002)))
    assert out.terms == expect.terms


def test_compose_associative_on_random_small_symbols():
    rng = random.Random(11)
    pool = [
        lambda: sigma2_pow(rng.choice([-1, 1])),
        lambda: mono(tens=(('xi', fresh_label()),)).scale(
            GQ(rng.randint(1, 3))),
        lambda: mono(mat=(('b',),)),
        lambda: mono(tens=(('xi', 1000),), mat=(('a', 1000),)),
    ]
    for _ in range(8):
        P = pool[rng.randrange(len(pool))]()
        Q = pool[rng.randrange(len(pool))]()
        R = pool[rng.randrange(len(pool))]()
        # three-grade windows keep every composition inside the stored
        # jet depth and make the truncations compatible
        pP, pQ, pR = (e.max_grade() for e in (P, Q, R))
        cut = pP + pQ + pR - 2
        lhs = compose(compose(P, Q, cutoff=pP + pQ - 2), R, cutoff=cut)
        rhs = compose(P, compose(Q, R, cutoff=pQ + pR - 2), cutoff=cut)
        lparts = lhs.xi_degree_parts()
        rparts = rhs.xi_degree_parts()
        for g in set(lparts) | set(rparts):
            if g >= cut:
                assert lparts.get(g, SymbolExpr()).terms == \
                    rparts.get(g, SymbolExpr()).terms


def test_jet_exhausted_raises():
    # an order-6 symbol against deep jets forces three x-derivatives
    P = mono(spow=3)
    Q = sigma2_pow(-1)
    with pytest.raises(JetExhausted):
        compose(P, Q, cutoff=-1)


def test_grading_bookkeeping():
    e = sigma2_pow(Fraction(-3, 2))
    parts = e.xi_degree_parts()
    assert set(parts) == {Fraction(-3)}
