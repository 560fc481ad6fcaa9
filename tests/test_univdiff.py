"""Differential-algebra identities on the truncated circle and diagonal
models, all with exact arithmetic on the interior window."""

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import dense_model, dense_represent, same_window
from spectre import cli, univdiff as ud


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


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from([CIRCLE, DIAG]), degree=st.integers(0, 3),
       nterms=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_chains_stay_integral(model, degree, nterms, seed):
    """Every chain the suite builds has Python-int coefficients, whatever
    operation made it, and so has the representation of each one small
    enough to represent."""
    rng = random.Random(seed)
    c = ud.random_chain(model, degree, rng, nterms=nterms)
    other = ud.random_chain(model, degree, rng, nterms=nterms)
    chains = [c, ud.chain(model, *c.terms), ud.delta(c), ud.sigma_op(c),
              ud.chain_star(c), c + other, c - other, c.scale(-1)]
    if degree >= 1:
        chains.append(ud.hochschild_b(c))
    for ch in chains + [ud.chain_mul(c, other)]:
        assert all(type(x) is int for x in ch.terms.values())
    for ch in chains:
        assert all(type(x) is int
                   for w in ud.represent(ch).terms.values() for x in w)


def test_chain_equality_with_a_non_chain():
    c = ud.chain(CIRCLE, (1, 2))
    assert not c == 0
    assert c != 0
    assert c != "x"
    assert c == ud.chain(CIRCLE, (1, 2))


def test_random_chain_refuses_fewer_than_one_term():
    """nterms < 1 draws the empty chain every time, so a redraw loop would
    never end; the call runs in a subprocess so that a hang fails."""
    src = str(pathlib.Path(ud.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import random\n"
            "from spectre import univdiff as ud\n"
            "for n in (0, -1):\n"
            "    try:\n"
            "        ud.random_chain(ud.CircleModel(), 1, random.Random(0),\n"
            "                        nterms=n)\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=30).stdout
    assert out.splitlines() == ["nterms must be >= 1, got 0",
                                "nterms must be >= 1, got -1"]


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
    assert ud.delta(ud.chain(CIRCLE, (0,))).is_zero()


def test_delta_of_degree_one():
    # a0 d a1 -> d a0 d a1
    c = ud.chain(CIRCLE, (2, 1))
    assert ud.delta(c) == ud.chain(CIRCLE, (0, 2, 1))


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
    assert same_window(rep, np.eye(CIRCLE.n, dtype=np.int64), CIRCLE)


def test_represent_unit_tensor_is_commutator():
    c = ud.chain(CIRCLE, (0, 2))
    rep = ud.represent(c)
    _, _, comm = dense_model(CIRCLE)
    assert np.array_equal(np.array(rep, dtype=object), comm[2])


def test_represent_kills_boundaries_on_window():
    for model in (CIRCLE, DIAG):
        for deg in (2, 3):
            for _ in range(10):
                c = ud.random_chain(model, deg, RNG)
                assert ud.window_is_zero(
                    ud.represent(ud.hochschild_b(c)), model)


def test_first_order_condition_on_window():
    _, pi, comm = dense_model(CIRCLE)
    for wa in (1, 2, -1):
        for wb in (1, -2):
            double = comm[wa] @ pi[wb] - pi[wb] @ comm[wa]
            assert ud.window_is_zero(double, CIRCLE)


def test_junk_detected_on_circle():
    u = ud.chain(CIRCLE, (1,))
    xi = ud.chain_mul(ud.delta(u), u) - ud.chain_mul(u, ud.delta(u))
    assert ud.window_is_zero(ud.represent(xi), CIRCLE)
    dxi = ud.delta(xi)
    rep = ud.represent(dxi)
    _, pi, _ = dense_model(CIRCLE)
    assert same_window(rep, -2 * pi[2], CIRCLE)
    jb = ud.junk_basis(CIRCLE, 2)
    assert jb.matrices
    assert ud.in_junk_span(rep, jb, CIRCLE)


def test_junk_trivial_on_diagonal_model():
    jb = ud.junk_basis(DIAG, 2)
    assert jb.matrices == []


def test_pre_clifford_anticommutator_in_junk_span():
    jb = ud.junk_basis(CIRCLE, 2)
    for wa, wb in [(1, 1), (1, 2), (2, -1), (-2, 1), (-1, -1)]:
        da = np.asarray(ud.represent(ud.delta(ud.chain(CIRCLE, (wa,)))))
        db = np.asarray(ud.represent(ud.delta(ud.chain(CIRCLE, (wb,)))))
        anti = da @ db + db @ da
        assert ud.in_junk_span(anti, jb, CIRCLE)


def test_one_minus_sigma_of_cycle_times_da():
    cyc = ud.chain(CIRCLE, (-1, 1))
    a = ud.chain(CIRCLE, (2,))
    cda = ud.chain_mul(cyc, ud.delta(a))
    lhs = cda - ud.sigma_op(cda)
    _, _, comm = dense_model(CIRCLE)
    assert same_window(ud.represent(lhs), 2 * comm[2], CIRCLE)


def test_omega1_form_values():
    assert ud.omega1_form(CIRCLE, 1, 1) == 1
    assert ud.omega1_form(CIRCLE, 0, 1) == 0
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
# dense oracle (`fixtures.dense_model`): the models as explicit n x n
# matrices, multiplied out in full

def test_dense_model_powers_match_matrix_power():
    """The oracle's closed-form pi(w) is the |w|-th matrix power of its
    generator (of u^-1 = u^T for w < 0), for every word with |w| <= 2."""
    for model in (CIRCLE, ud.CircleModel(31, 8), DIAG):
        _, pi, _ = dense_model(model)
        if isinstance(model, ud.CircleModel):
            # u, the cyclic shift e_j -> e_(j+1)
            gen = np.roll(np.eye(model.n, dtype=np.int64), -1, axis=0).T
        else:
            gen = np.diag([i % 3 - 1 for i in range(model.n)])
        for w in model.words():
            if abs(w) <= 2:
                assert np.array_equal(pi[w], np.linalg.matrix_power(
                    gen if w >= 0 else gen.T, abs(w)))


@pytest.mark.parametrize("model", [CIRCLE, ud.CircleModel(31, 8),
                                   ud.CircleModel(60, 12), DIAG],
                         ids=["circle", "circle-31-8", "circle-60-12",
                              "diagonal"])
def test_represent_matches_dense_oracle_on_full_matrix(model):
    """The closed-form terms against the operators multiplied out in full,
    on even and odd n; at n = 31 the margin 8 is the largest reach of a
    degree-3 tuple, so the wrap-around rows are as full as they get."""
    rng = random.Random(7)
    dense = dense_model(model)
    _, pi, comm = dense
    # pi(w) and [D, pi(w)] of every word, from the one-word chains
    for w in model.words():
        assert np.array_equal(
            np.asarray(ud.represent(ud.chain(model, (w,)))), pi[w])
        assert np.array_equal(
            np.asarray(ud.represent(ud.chain(model, (0, w)))), comm[w])
    for deg in (0, 1, 2, 3):
        for _ in range(8):
            c = ud.random_chain(model, deg, rng)
            got = np.asarray(ud.represent(c))
            # every entry, wrap-around included, and exact types only
            assert got.shape == (model.n, model.n)
            assert np.array_equal(got, dense_represent(c, dense))
            assert all(type(x) in (int, Fraction) for x in got.flat)
            assert np.array_equal(ud.window_part(ud.represent(c), model),
                                  ud.window_part(got, model))


@pytest.mark.parametrize("model", [CIRCLE, DIAG], ids=["circle", "diagonal"])
def test_omega1_form_matches_dense_trace(model):
    dense = dense_model(model)
    d = {w: dense_represent(ud.delta(ud.chain(model, (w,))), dense)
         for w in model.words()}
    for a in model.words():
        for b in model.words():
            # ((da)^T db)[i, i] summed over the window, every row k counted
            tr = sum(d[a][k, i] * d[b][k, i]
                     for i in model.window for k in range(model.n))
            want = Fraction(tr, len(model.window))
            got = ud.omega1_form(model, a, b)
            assert got == want and type(got) is Fraction
            if model is DIAG:
                # D commutes with every diagonal pi(w): no differential
                assert got == 0


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
    anti = _anticommutator(big, 1, 2)
    for mat in (anti, np.asarray(anti), np.eye(10, dtype=np.int64),
                ud.WeightedShift(10)):
        with pytest.raises(ValueError):
            ud.in_junk_span(mat, jb, CIRCLE)
        with pytest.raises(ValueError):
            ud.window_part(mat, CIRCLE)
        with pytest.raises(ValueError):
            ud.window_is_zero(mat, CIRCLE)
    # the same anticommutator on the model's own size, dense or not
    anti = _anticommutator(CIRCLE, 1, 2)
    assert ud.in_junk_span(anti, jb, CIRCLE)
    assert ud.in_junk_span(np.asarray(anti), jb, CIRCLE)


def _anticommutator(model, a, b):
    """[D, u^a] [D, u^b] + [D, u^b] [D, u^a] as the weighted shift of the
    chain du^a du^b + du^b du^a, checked against the dense product."""
    anti = ud.represent(ud.chain(model, (0, a, b), (0, b, a)))
    _, _, comm = dense_model(model)
    assert np.array_equal(np.asarray(anti),
                          comm[a] @ comm[b] + comm[b] @ comm[a])
    return anti


def test_junk_basis_of_another_window_is_rejected():
    """A junk basis built on a model with another window answers nothing
    about this one, so in_junk_span refuses it rather than answer False
    for an anticommutator that lies in the span."""
    anti = _anticommutator(CIRCLE, 1, 2)
    assert ud.in_junk_span(anti, ud.junk_basis(CIRCLE, 2), CIRCLE)
    for other in (ud.CircleModel(60, 12), ud.CircleModel(30, 6)):
        with pytest.raises(ValueError, match="junk matrix of shape"):
            ud.in_junk_span(anti, ud.junk_basis(other, 2), CIRCLE)


def test_in_junk_span_rejects_outside_targets():
    jb = ud.junk_basis(CIRCLE, 2)
    d, _, _ = dense_model(CIRCLE)
    assert not ud.in_junk_span(_diagonal(d), jb, CIRCLE)
    assert not ud.in_junk_span(d, jb, CIRCLE)
    assert ud.in_junk_span(ud.WeightedShift(CIRCLE.n), jb, CIRCLE)
    # with no junk, only the zero window is in the span
    empty = ud.junk_basis(DIAG, 2)
    d, pi, _ = dense_model(DIAG)
    assert ud.in_junk_span(pi[0] - pi[0], empty, DIAG)
    assert ud.in_junk_span(ud.WeightedShift(DIAG.n), empty, DIAG)
    assert not ud.in_junk_span(_diagonal(d), empty, DIAG)
    assert not ud.in_junk_span(d, empty, DIAG)


def _diagonal(dense):
    """A diagonal dense matrix as a WeightedShift on shift 0."""
    return ud.WeightedShift(len(dense), {0: dense.diagonal().copy()})


@pytest.mark.parametrize("n, margin", [(10, 5), (24, 12), (48, -1)])
def test_circle_model_refuses_a_window_it_cannot_hold(n, margin):
    """An empty window (n <= 2 margin) leaves the trace pairing nothing to
    normalize by; a negative margin asks for more sites than there are."""
    with pytest.raises(ValueError, match="margin"):
        ud.CircleModel(n=n, margin=margin)


def test_circle_model_takes_a_window_of_one_site():
    model = ud.CircleModel(n=25, margin=12)
    assert list(model.window) == [12]
    assert ud.omega1_form(model, 1, 1) == 1


def test_margin_guard_holds_at_zero_margin():
    # with no margin the window holds the wrap-around entry of [D, u]
    # (-7 where the continuum gives 1), so any word that travels is refused
    small = ud.CircleModel(n=8, margin=0)
    with pytest.raises(ValueError):
        ud.represent(ud.chain(small, (0, 1)))
    assert same_window(ud.represent(ud.chain(small, (0,))),
                       np.eye(8, dtype=np.int64), small)


# ----------------------------------------------------------------------
# junk oracle: dense Fraction rows of every window entry, the kernel of
# pi by a separate nullspace step, then a dense reduction of the junk rows

def _dense_rref(rows):
    """Reduced row echelon over the rationals; returns (basis rows,
    pivot columns)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _dense_nullspace(rows):
    """Rational nullspace basis of the row matrix."""
    if not rows:
        return []
    basis, pivots = _dense_rref(rows)
    ncols = len(rows[0])
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in zip(basis, pivots):
            v[pc] = -r[fc]
        out.append(v)
    return out


def _window_vector(mat, model):
    return [Fraction(x) for x in ud.window_part(mat, model).flatten().tolist()]


def junk_basis_dense(model):
    """The degree-2 junk matrices by dense elimination: the reference for
    `junk_basis`."""
    words = model.words()
    monos = [(a, b) for a in words for b in words if b != 0]
    cols = [_window_vector(ud.represent(ud.chain(model, wt)), model)
            for wt in monos]
    kernel = _dense_nullspace([list(row) for row in zip(*cols)])
    junk_rows = []
    for v in kernel:
        ker_chain = ud.UniversalChain(model, 1)
        for coef, wt in zip(v, monos):
            ker_chain.accum(wt, coef)
        img = ud.represent(ud.delta(ker_chain))
        if not ud.window_is_zero(img, model):
            junk_rows.append(_window_vector(img, model))
    side = len(model.window)
    return [np.array(row, dtype=object).reshape(side, side)
            for row in _dense_rref(junk_rows)[0]]


def in_junk_span_dense(mat, matrices, model):
    rows = [[Fraction(x) for x in m.flatten().tolist()] for m in matrices]
    _, pivots = _dense_rref(rows + [_window_vector(mat, model)])
    return len(pivots) == len(matrices)


def test_sparse_rref_matches_dense_oracle():
    """Random small integer matrices, with dependent and zero rows: the
    sparse rows hold only nonzeros and reduce to the dense RREF."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        nrows, ncols = rng.integers(1, 7), rng.integers(1, 8)
        dense = rng.integers(-2, 3, (nrows, ncols)) * \
            (rng.random((nrows, ncols)) < 0.5)
        if nrows > 1:
            dense[-1] = dense[0] - 2 * dense[-2]
        rows = [[Fraction(int(x)) for x in r] for r in dense]
        want = _dense_rref(rows)[0]
        got = ud._rref([{c: x for c, x in enumerate(r) if x} for r in rows])
        assert [[row.get(c, 0) for c in range(ncols)] for row in got] == want
        assert all(x for row in got for x in row.values())


JUNK_MODELS = [CIRCLE, DIAG, ud.CircleModel(60, 12), ud.CircleModel(30, 6)]


@pytest.mark.parametrize("model", JUNK_MODELS,
                         ids=["circle", "diagonal", "circle-60-12",
                              "circle-30-6"])
def test_junk_basis_matches_dense_oracle(model):
    """The sparse elimination and the dense one give the same reduced
    basis: the same matrices in the same order, shape and entry type."""
    want = junk_basis_dense(model)
    got = ud.junk_basis(model, 2).matrices
    assert len(got) == len(want)
    side = len(model.window)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (side, side) and g.dtype == object
        assert all(type(x) is Fraction for x in g.flat)
        assert np.array_equal(g, w)


def test_src_represents_integer_chains_only(monkeypatch):
    """The junk basis, the trace pairing and the Hochschild suite hand
    `represent` chains with Python-int coefficients only: `Fraction` stays
    in the elimination and the normalized trace."""
    seen = []
    represent = ud.represent

    def recording(c):
        seen.extend(type(x) for x in c.terms.values())
        return represent(c)

    monkeypatch.setattr(ud, "represent", recording)
    for model in JUNK_MODELS:
        ud.junk_basis(model, 2)
    for a in CIRCLE.words():
        for b in CIRCLE.words():
            ud.omega1_form(CIRCLE, a, b)
    assert cli.main(["hochschild", "--chains", "5"]) == 0
    assert seen and set(seen) == {int}


@pytest.mark.parametrize("model", JUNK_MODELS,
                         ids=["circle", "diagonal", "circle-60-12",
                              "circle-30-6"])
def test_in_junk_span_matches_dense_oracle(model):
    """Random weighted shifts, random dense arrays and integer combinations
    of the basis (which must lie in the span) get the oracle's answer."""
    rng = np.random.default_rng(5)
    jb = ud.junk_basis(model, 2)
    n = model.n
    targets = []
    for _ in range(6):
        shifts = rng.choice(n, size=rng.integers(1, 4), replace=False)
        targets.append(ud.WeightedShift(n, {
            int(s): np.array(rng.integers(-3, 4, n).tolist(), dtype=object)
            for s in shifts}))
        targets.append(rng.integers(-2, 3, (n, n)))
    for _ in range(6):
        coefs = rng.integers(-3, 4, len(jb.matrices)).tolist()
        full = np.zeros((n, n), dtype=object)
        full[np.ix_(model.window, model.window)] = sum(
            (c * m for c, m in zip(coefs, jb.matrices)),
            np.zeros((len(model.window),) * 2, dtype=object))
        assert ud.in_junk_span(full, jb, model)
        targets.append(full)
    for target in targets:
        assert ud.in_junk_span(target, jb, model) == \
            in_junk_span_dense(target, jb.matrices, model)
