"""Differential-algebra identities on the truncated circle and diagonal
models, all with exact arithmetic on the interior window."""

import random
from fractions import Fraction

import numpy as np
import pytest

from spectre import univdiff as ud


CIRCLE = ud.CircleModel()
DIAG = ud.DiagonalModel()
RNG = random.Random(2024)


def test_boundary_of_simple_tensor_vanishes():
    c = ud.chain(CIRCLE, (1, 2))
    assert ud.hochschild_b(c).is_zero()


def test_boundary_degree_zero_errors():
    with pytest.raises(ValueError):
        ud.hochschild_b(ud.chain(CIRCLE, (1,)))


def test_random_chains_are_never_zero():
    """A zero chain checks nothing, so no draw may cancel to zero or land
    a unit in a differential slot of every term."""
    rng = random.Random(0)
    for model in (CIRCLE, DIAG):
        for deg in (1, 2, 3):
            for _ in range(2000):
                assert not ud.random_chain(model, deg, rng).is_zero()


def test_b_squared_zero_randomized():
    for model in (CIRCLE, DIAG):
        for deg in (2, 3, 4):
            for _ in range(15):
                c = ud.random_chain(model, deg, RNG)
                assert ud.hochschild_b(ud.hochschild_b(c)).is_zero()


def test_homotopy_identity_randomized():
    for model in (CIRCLE, DIAG):
        for deg in (1, 2, 3):
            for _ in range(15):
                c = ud.random_chain(model, deg, RNG)
                lhs = ud.hochschild_b(ud.delta(c)) + \
                    ud.delta(ud.hochschild_b(c))
                assert lhs == c - ud.sigma_op(c)


def test_cycles_map_to_boundaries():
    for deg in (2, 3):
        for _ in range(15):
            cyc = ud.hochschild_b(ud.random_chain(CIRCLE, deg + 1, RNG))
            assert ud.hochschild_b(cyc).is_zero()
            assert cyc - ud.sigma_op(cyc) == \
                ud.hochschild_b(ud.delta(cyc))


def test_delta_squares_to_zero_and_kills_unit():
    for _ in range(10):
        c = ud.random_chain(CIRCLE, 2, RNG)
        assert ud.delta(ud.delta(c)).is_zero()
    assert ud.delta(ud.chain(CIRCLE, (CIRCLE.unit,))).is_zero()


def test_delta_of_degree_one():
    # a0 d a1 -> d a0 d a1
    c = ud.chain(CIRCLE, (2, 1))
    assert ud.delta(c) == ud.chain(CIRCLE, (CIRCLE.unit, 2, 1))


def test_graded_leibniz_randomized():
    for d1 in (0, 1, 2):
        for d2 in (0, 1, 2):
            for _ in range(8):
                w = ud.random_chain(CIRCLE, d1, RNG, nterms=2)
                r = ud.random_chain(CIRCLE, d2, RNG, nterms=2)
                lhs = ud.delta(ud.chain_mul(w, r))
                rhs = ud.chain_mul(ud.delta(w), r) + \
                    ud.chain_mul(w, ud.delta(r)).scale(Fraction(-1) ** d1)
                assert lhs == rhs


def test_involution_convention():
    a = ud.chain(CIRCLE, (2,))
    lhs = ud.chain_star(ud.delta(a))
    rhs = ud.delta(ud.chain(CIRCLE, (-2,))).scale(-1)
    assert lhs == rhs
    # involution is an anti-homomorphism on products
    for _ in range(8):
        w = ud.random_chain(CIRCLE, 1, RNG, nterms=2)
        r = ud.random_chain(CIRCLE, 1, RNG, nterms=2)
        assert ud.chain_star(ud.chain_mul(w, r)) == \
            ud.chain_mul(ud.chain_star(r), ud.chain_star(w))


def test_sigma_bimodule_example():
    # sigma(a0 d a1) = d(a1 a0) - a1 d a0
    c = ud.chain(CIRCLE, (2, 1))
    rhs = ud.delta(ud.chain(CIRCLE, (3,))) - \
        ud.chain_mul(ud.chain(CIRCLE, (1,)),
                     ud.delta(ud.chain(CIRCLE, (2,))))
    assert ud.sigma_op(c) == rhs


def test_sigma_degree_zero_fixed():
    c = ud.chain(CIRCLE, (2,))
    assert ud.sigma_op(c) == c


def test_represent_cycle_is_identity_on_window():
    c = ud.chain(CIRCLE, (-1, 1))
    rep = ud.represent(c)
    assert ud.window_equal(rep, np.eye(CIRCLE.n, dtype=np.int64), CIRCLE)


def test_represent_unit_tensor_is_commutator():
    c = ud.chain(CIRCLE, (CIRCLE.unit, 2))
    rep = ud.represent(c)
    pw = CIRCLE.pi(2)
    assert np.array_equal(np.array(rep, dtype=object),
                          np.array(CIRCLE.D @ pw - pw @ CIRCLE.D,
                                   dtype=object))


def test_represent_kills_boundaries_on_window():
    for model in (CIRCLE, DIAG):
        for deg in (2, 3):
            for _ in range(10):
                c = ud.random_chain(model, deg, RNG)
                assert ud.window_is_zero(
                    ud.represent(ud.hochschild_b(c)), model)


def test_first_order_condition_on_window():
    for wa in (1, 2, -1):
        for wb in (1, -2):
            pa, pb = CIRCLE.pi(wa), CIRCLE.pi(wb)
            comm = CIRCLE.D @ pa - pa @ CIRCLE.D
            double = comm @ pb - pb @ comm
            assert ud.window_is_zero(double, CIRCLE)


def test_junk_detected_on_circle():
    u = ud.chain(CIRCLE, (1,))
    xi = ud.chain_mul(ud.delta(u), u) - ud.chain_mul(u, ud.delta(u))
    assert ud.window_is_zero(ud.represent(xi), CIRCLE)
    dxi = ud.delta(xi)
    rep = ud.represent(dxi)
    assert ud.window_equal(rep, -2 * CIRCLE.pi(2), CIRCLE)
    jb = ud.junk_basis(CIRCLE, 2)
    assert jb.matrices
    assert ud.in_junk_span(rep, jb, CIRCLE)


def test_junk_trivial_on_diagonal_model():
    jb = ud.junk_basis(DIAG, 2)
    assert jb.matrices == []


def test_pre_clifford_anticommutator_in_junk_span():
    jb = ud.junk_basis(CIRCLE, 2)
    for wa, wb in [(1, 1), (1, 2), (2, -1), (-2, 1), (-1, -1)]:
        da = ud.represent(ud.delta(ud.chain(CIRCLE, (wa,))))
        db = ud.represent(ud.delta(ud.chain(CIRCLE, (wb,))))
        anti = da @ db + db @ da
        assert ud.in_junk_span(anti, jb, CIRCLE)


def test_one_minus_sigma_of_cycle_times_da():
    cyc = ud.chain(CIRCLE, (-1, 1))
    a = ud.chain(CIRCLE, (2,))
    cda = ud.chain_mul(cyc, ud.delta(a))
    lhs = cda - ud.sigma_op(cda)
    target = 2 * (CIRCLE.D @ CIRCLE.pi(2) - CIRCLE.pi(2) @ CIRCLE.D)
    assert ud.window_equal(ud.represent(lhs), target, CIRCLE)


def test_omega1_form_values():
    assert ud.omega1_form(CIRCLE, 1, 1) == 1
    assert ud.omega1_form(CIRCLE, CIRCLE.unit, 1) == 0
    # positive semidefinite on the generators
    for word in (1, 2, -1, -2):
        assert ud.omega1_form(CIRCLE, word, word) >= 0


def test_degree_guard_on_junk():
    with pytest.raises(ValueError):
        ud.junk_basis(CIRCLE, 3)


def test_margin_guard():
    big = ud.chain(CIRCLE, (2, 2, 2, 2, 2, 2, 2))
    with pytest.raises(ValueError):
        ud.represent(big)


# ----------------------------------------------------------------------
# dense oracle: the models as explicit n x n matrices with Python-int
# object entries, multiplied out in full

def _dense_model(model):
    """The model's D and pi(word) as dense object matrices."""
    n = model.n
    if isinstance(model, ud.CircleModel):
        # u: the cyclic shift e_j -> e_(j+1)
        u = np.roll(np.eye(n, dtype=np.int64), -1, axis=0).T.astype(object)
        d = np.diag(range(n)).astype(object)
        return d, lambda w: np.linalg.matrix_power(u, w % n)
    a = np.diag([i % 3 - 1 for i in range(n)]).astype(object)
    d = np.diag(range(1, n + 1)).astype(object)
    return d, lambda w: np.linalg.matrix_power(a, w)


def _dense_represent(c):
    dense_d, pi = _dense_model(c.model)
    out = np.zeros(dense_d.shape, dtype=object)
    for wt, coeff in c.terms.items():
        acc = pi(wt[0])
        for w in wt[1:]:
            pw = pi(w)
            acc = acc @ (dense_d @ pw - pw @ dense_d)
        out = out + coeff * acc
    return out


def test_represent_matches_dense_oracle_on_full_matrix():
    rng = random.Random(7)
    for model in (CIRCLE, DIAG):
        dense_d, pi = _dense_model(model)
        assert np.array_equal(np.asarray(model.D), dense_d)
        for w in model.words():
            assert np.array_equal(np.asarray(model.pi(w)), pi(w))
        for deg in (0, 1, 2, 3):
            for _ in range(8):
                c = ud.random_chain(model, deg, rng)
                got = np.asarray(ud.represent(c))
                # every entry, wrap-around included, and exact types only
                assert got.shape == (model.n, model.n)
                assert np.array_equal(got, _dense_represent(c))
                assert all(type(x) in (int, Fraction) for x in got.flat)
                assert np.array_equal(ud.window_part(ud.represent(c), model),
                                      ud.window_part(got, model))


def test_omega1_form_matches_dense_trace():
    d = {w: _dense_represent(ud.delta(ud.chain(CIRCLE, (w,))))
         for w in CIRCLE.words()}
    for a in CIRCLE.words():
        for b in CIRCLE.words():
            # ((da)^T db)[i, i] summed over the window, every row k counted
            tr = sum(d[a][k, i] * d[b][k, i]
                     for i in CIRCLE.window for k in range(CIRCLE.n))
            want = Fraction(tr, len(CIRCLE.window))
            assert ud.omega1_form(CIRCLE, a, b) == want


def test_represent_is_a_star_homomorphism_on_the_full_matrix():
    """pi(w r) = pi(w) pi(r) and pi(c*) = pi(c)^T (every weight is real)
    on the full cyclic matrices, wrap-around included: an oracle for the
    word algebra's product and involution that shares no code with them."""
    rng = random.Random(11)
    for model in (CIRCLE, DIAG):
        for d1 in (0, 1, 2):
            for d2 in (0, 1, 2):
                for _ in range(6):
                    w = ud.random_chain(model, d1, rng, nterms=2)
                    r = ud.random_chain(model, d2, rng, nterms=2)
                    rep_w = np.asarray(ud.represent(w))
                    rep_r = np.asarray(ud.represent(r))
                    assert np.array_equal(
                        np.asarray(ud.represent(ud.chain_mul(w, r))),
                        rep_w @ rep_r)
                    assert np.array_equal(
                        np.asarray(ud.represent(ud.chain_star(w))), rep_w.T)


def test_operators_of_another_size_are_rejected():
    """An operator that is not model.n x model.n has no window on the
    model: a larger one must not be windowed into a junk-span answer, and
    a smaller one must not fail with an IndexError."""
    jb = ud.junk_basis(CIRCLE, 2)
    big = ud.CircleModel(n=60)
    da = ud.represent(ud.delta(ud.chain(big, (1,))))
    db = ud.represent(ud.delta(ud.chain(big, (2,))))
    anti = da @ db + db @ da
    for mat in (anti, np.asarray(anti), np.eye(10, dtype=np.int64),
                ud.WeightedShift(10)):
        with pytest.raises(ValueError):
            ud.in_junk_span(mat, jb, CIRCLE)
        with pytest.raises(ValueError):
            ud.window_equal(mat, np.asarray(CIRCLE.D), CIRCLE)
        with pytest.raises(ValueError):
            ud.window_equal(CIRCLE.D, mat, CIRCLE)
        with pytest.raises(ValueError):
            ud.window_is_zero(mat, CIRCLE)
    # the same anticommutator on the model's own size, dense or not
    da = ud.represent(ud.delta(ud.chain(CIRCLE, (1,))))
    db = ud.represent(ud.delta(ud.chain(CIRCLE, (2,))))
    anti = da @ db + db @ da
    assert ud.in_junk_span(anti, jb, CIRCLE)
    assert ud.in_junk_span(np.asarray(anti), jb, CIRCLE)


def test_in_junk_span_rejects_outside_targets():
    jb = ud.junk_basis(CIRCLE, 2)
    assert not ud.in_junk_span(CIRCLE.D, jb, CIRCLE)
    assert not ud.in_junk_span(np.asarray(CIRCLE.D), jb, CIRCLE)
    assert ud.in_junk_span(ud.WeightedShift(CIRCLE.n), jb, CIRCLE)
    # with no junk, only the zero window is in the span
    empty = ud.junk_basis(DIAG, 2)
    assert ud.in_junk_span(DIAG.pi(0) - DIAG.pi(0), empty, DIAG)
    assert not ud.in_junk_span(DIAG.D, empty, DIAG)


def test_margin_guard_holds_at_zero_margin():
    # with no margin the window holds the wrap-around entry of [D, u]
    # (-7 where the continuum gives 1), so any word that travels is refused
    small = ud.CircleModel(n=8, margin=0)
    with pytest.raises(ValueError):
        ud.represent(ud.chain(small, (0, 1)))
    assert ud.window_equal(ud.represent(ud.chain(small, (small.unit,))),
                           np.eye(8, dtype=np.int64), small)
