"""Gamma sets, chirality, real structures and symbolic traces."""

import functools
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixtures import numeric_word_trace
from spectre import clifford as cl
from spectre import wodzicki
from spectre.rationals import GQ, ONE
from spectre.symbols import SymbolExpr


def test_dimension_one():
    g = cl.build_gammas(cl.Signature(1, 0))
    assert g.gammas[0].shape == (1, 1)
    assert g.gammas[0][0, 0] == 1j
    assert (g.gammas[0] @ g.gammas[0])[0, 0] == -1


def test_euclidean_two_dimensional():
    g = cl.build_gammas(cl.Signature(2, 0))
    a, b = g.gammas
    eye = np.eye(2)
    assert np.array_equal(a @ b + b @ a, 0 * eye)
    assert np.array_equal(a @ a, -eye)
    assert np.array_equal(b @ b, -eye)
    assert np.array_equal(a.conj().T, -a)
    assert np.array_equal(b.conj().T, -b)


def test_anticommutators_all_signatures():
    for r, s in [(1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (4, 0), (2, 2),
                 (5, 0), (6, 0)]:
        cl.build_gammas(cl.Signature(r, s))  # construction self-checks


def test_indefinite_pair_matches_reference_generators():
    """The (1,1) generators satisfy the same relations as the reference
    matrix pair [[v2, v1], [-v1, -v2]], and an explicit intertwiner
    exists."""
    e1 = np.array([[0, 1], [-1, 0]], dtype=complex)   # v = (1, 0)
    e2 = np.array([[1, 0], [0, -1]], dtype=complex)   # v = (0, 1)
    eye = np.eye(2)
    assert np.array_equal(e1 @ e1, -eye)   # plus direction squares to -1
    assert np.array_equal(e2 @ e2, eye)    # minus direction squares to +1
    assert np.array_equal(e1 @ e2 + e2 @ e1, 0 * eye)
    g = cl.build_gammas(cl.Signature(1, 1))
    f1, f2 = g.gammas
    assert np.array_equal(f1 @ f1, -eye)
    assert np.array_equal(f2 @ f2, eye)
    assert np.array_equal(f1 @ f2 + f2 @ f1, 0 * eye)
    # solve S f_i = e_i S by stacking the linear conditions
    rows = []
    for e, f in ((e1, f1), (e2, f2)):
        m = np.kron(np.eye(2), f.T) - np.kron(e, np.eye(2))
        rows.append(m)
    null = _nullspace(np.vstack(rows))
    assert null.shape[1] >= 1
    S = null[:, 0].reshape(2, 2)
    assert abs(np.linalg.det(S)) > 1e-12


def _nullspace(m):
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > 1e-10))
    return vh[rank:].conj().T


def test_chirality_even():
    for p in (2, 4):
        g = cl.build_gammas(cl.Signature(p, 0))
        w = cl.chirality(g)
        assert np.array_equal(w @ w, np.eye(g.dim))
        for ga in g.gammas:
            assert np.array_equal(w @ ga, -ga @ w)
    w4 = cl.chirality(cl.build_gammas(cl.Signature(4, 0)))
    assert np.trace(w4) == 0


def test_chirality_odd_central():
    g = cl.build_gammas(cl.Signature(3, 0))
    w = cl.chirality(g)
    for ga in g.gammas:
        assert np.array_equal(w @ ga, ga @ w)


def test_real_structure_table():
    table = {1: (1, -1, None), 2: (-1, 1, -1), 3: (-1, 1, None),
             4: (-1, 1, 1), 5: (-1, -1, None), 6: (1, 1, -1),
             7: (1, 1, None), 8: (1, 1, 1)}
    for p, (eps, epsp, epp) in table.items():
        rs = cl.find_real_structure(p)
        assert (rs.eps, rs.eps_prime, rs.eps_double_prime) == \
            (eps, epsp, epp)


def test_real_structure_constraints_hold():
    for p in (2, 4, 5):
        rs = cl.find_real_structure(p)
        g = cl.build_gammas(cl.Signature(p, 0))
        eye = np.eye(g.dim)
        assert np.allclose(rs.C @ rs.C.conj(), rs.eps * eye)
        for ga in g.gammas:
            assert np.allclose(rs.C @ ga.conj(), rs.eps_prime * ga @ rs.C)


def _scalar_of(m):
    """c with m = c * Id, else None."""
    c = m[0, 0]
    if np.array_equal(m, c * np.eye(m.shape[0], dtype=complex)):
        return c
    return None


def _searched_real_structures(p):
    """The reference search: every product of distinct generators, in
    construction order, with sign +1 before -1, kept when C conj(g) =
    s g C for every generator and C conj(C) is +-1; C is phase-normalized
    and eps'' read through matrix inverses.  Rows (C, eps, eps', eps'')."""
    gs = cl.build_gammas(cl.Signature(p, 0))
    omega = cl.chirality(gs) if p % 2 == 0 else None
    monomials = [np.eye(gs.dim, dtype=complex)]
    for g in gs.gammas:
        monomials += [m @ g for m in monomials]
    found = []
    for m in monomials:
        eps = _scalar_of(m @ m.conj())
        for sgn in (1, -1):
            if eps not in (1, -1) or not all(
                    np.array_equal(m @ g.conj(), sgn * (g @ m))
                    for g in gs.gammas):
                continue
            C = cl._normalize_phase(m)
            epp = None
            if omega is not None:
                val = _scalar_of(np.linalg.inv(omega) @ C @ omega.conj()
                                 @ np.linalg.inv(C))
                epp = int(val.real) if val is not None else None
            found.append((C, int(eps.real), sgn, epp))
    return gs, found


def test_real_structure_candidates_match_the_direct_search():
    """Every C the 2^p search finds is, up to phase, the product of the
    imaginary or of the real generators, and find_real_structure returns
    exactly the search's first candidate that meets the table."""
    for p in range(1, 9):
        gs, found = _searched_real_structures(p)
        imaginary = [g for g in gs.gammas if np.array_equal(g.conj(), -g)]
        real = [g for g in gs.gammas if np.array_equal(g.conj(), g)]
        products = [cl._normalize_phase(functools.reduce(
            np.matmul, gens, np.eye(gs.dim, dtype=complex)))
            for gens in (imaginary, real)]
        assert found, p
        for C, *_ in found:
            assert any(np.array_equal(C, m) for m in products), p
        want = next(row for row in found
                    if row[1:] == cl.REAL_STRUCTURE_TABLE[p % 8])
        rs = cl.find_real_structure(p)
        assert np.array_equal(rs.C, want[0]), p
        assert (rs.eps, rs.eps_prime, rs.eps_double_prime) == want[1:], p


def test_real_structure_without_a_matching_candidate(monkeypatch):
    monkeypatch.setitem(cl.REAL_STRUCTURE_TABLE, 4, (1, 1, 1))
    with pytest.raises(ValueError, match=(
            r"tabulated signs for p=4; "
            r"candidates found: \[\(-1, 1, 1\), \(-1, -1, 1\)\]")):
        cl.find_real_structure(4)


def test_real_structure_needs_real_or_imaginary_generators(monkeypatch):
    monkeypatch.setattr(cl, "build_gammas", lambda sig: cl.GammaSet(
        sig, [np.array([[1 + 1j]])]))
    with pytest.raises(AssertionError, match="neither real nor imaginary"):
        cl.find_real_structure(1)


def test_real_structure_out_of_range():
    with pytest.raises(ValueError):
        cl.find_real_structure(9)


def test_gamma_checks_survive_optimized_mode():
    """The construction's self-checks are explicit raises, so python -O
    still refuses a gamma set whose anticommutators fail."""
    src = str(pathlib.Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys, spectre.clifford as cl\n"
            "good = cl._euclidean_gammas\n"
            "cl._euclidean_gammas = lambda p: [good(p)[0]] * p\n"
            "try:\n"
            "    cl.build_gammas(cl.Signature(4, 0))\n"
            "except AssertionError as exc:\n"
            "    print(sys.flags.optimize, exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.strip() == "1 anticommutator (0,1) violated"


def test_matrix_size_guard():
    with pytest.raises(ValueError):
        cl.build_gammas(cl.Signature(13, 0))


def test_word_trace_trivial_cases():
    for p in (2, 3, 4):
        pw = 2 ** (p // 2)
        empty = wodzicki.gamma_word_trace((), p)
        assert empty.terms == {(0, (), ()): GQ(pw)}
        assert wodzicki.gamma_word_trace((7,), p).is_zero()
        pair = wodzicki.gamma_word_trace((7, 8), p)
        ((spow, tens, mat),) = pair.terms.keys()
        assert tens == (('dl', 7, 8),)
        assert list(pair.terms.values())[0] == GQ(-pw)


def test_word_trace_oracle_exhaustive_small():
    rng = random.Random(3)
    for p in (2, 3, 4):
        for length in (2, 4, 6):
            for _ in range(8):
                labels = list(range(length // 2)) * 2
                rng.shuffle(labels)
                word = tuple(labels)
                sym = wodzicki.gamma_word_trace(word, p)
                val = sum((complex(c) for c in sym.terms.values()), 0j)
                num = numeric_word_trace(word, p)
                assert abs(val - num) < 1e-9, (p, word)


def test_word_length_guard():
    with pytest.raises(ValueError):
        wodzicki.gamma_word_trace(tuple(range(5)) + tuple(range(5)), 4)
    for p in (0, 13):
        with pytest.raises(ValueError):
            wodzicki.gamma_word_trace((1, 1), p)


@pytest.mark.parametrize("word", [(1, 1, 1, 2), (1, 1, 1, 1), (3, 1, 3, 3),
                                  (1, 2, 1, 2, 1, 2)])
def test_word_trace_rejects_a_label_used_three_times(word):
    """A label is free or contracted once: a third use has no meaning, and
    the numeric oracle rejects such words too."""
    for p in (2, 4):
        with pytest.raises(ValueError, match="once or twice"):
            wodzicki.gamma_word_trace(word, p)


def gamma_word_trace_reference(word, p):
    """The gamma-word trace as a recursion at a fixed p, the factor p of a
    self-contraction applied on the spot: the oracle for the
    p-polynomial of `wodzicki.word_trace_poly`."""
    if not 1 <= p <= cl.MAX_DIM:
        raise ValueError(f"dimension {p} outside supported range "
                         f"1..{cl.MAX_DIM}")
    if len(word) > 8:
        raise ValueError("gamma words longer than 8 are not supported")
    return _reference_rec(tuple(word), p)


@functools.cache
def _reference_rec(lbls, p):
    # memoized on (word, p) only to keep the exhaustive sweep fast; a
    # cached expression is never mutated
    if len(lbls) % 2 == 1:
        return SymbolExpr()
    if not lbls:
        return SymbolExpr.const(GQ(2 ** (p // 2)))
    a = lbls[0]
    out = SymbolExpr()
    for j in range(1, len(lbls)):
        sign = ONE if j % 2 == 0 else GQ(-1)
        b, rest = lbls[j], lbls[1:j] + lbls[j + 1:]
        if a == b:
            term = _reference_rec(rest, p).scale(GQ(p))
        elif a in rest or b in rest:
            old, new = (a, b) if a in rest else (b, a)
            term = _reference_rec(tuple(new if l == old else l
                                        for l in rest), p)
        else:
            term = SymbolExpr.mono(tens=(('dl', a, b),)) * \
                _reference_rec(rest, p)
        out = out + term.scale(sign)
    return out


def _words_up_to_renaming(max_len=8, n_labels=4):
    """Every word of length <= max_len over at most n_labels labels, each
    used once or twice, with labels 1, 2, ... in order of first
    appearance."""
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (l,) for w in frontier
                    for l in range(1, min(max(w, default=0) + 1,
                                          n_labels) + 1)
                    if w.count(l) < 2]
        out += frontier
    return out


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_word_trace_matches_reference_on_small_words(order):
    """Every word of length <= 8 over <= 4 labels, free labels in both
    orders, for p = 1..12."""
    words = _words_up_to_renaming()
    # by length; length 8 over four labels is every perfect matching, 7!!
    assert [sum(len(w) == n for w in words) for n in range(9)] == \
        [1, 1, 2, 4, 10, 25, 60, 105, 105]
    for word in words:
        if order == "descending":
            word = tuple(5 - l for l in word)
        for p in range(1, 13):
            assert wodzicki.gamma_word_trace(word, p).terms == \
                gamma_word_trace_reference(word, p).terms, (word, p)


@st.composite
def gamma_words(draw):
    """Words of length <= 8 over arbitrary labels, each used once or
    twice."""
    labels = draw(st.lists(st.integers(0, 2000), unique=True, max_size=8))
    twice = draw(st.lists(st.booleans(), min_size=len(labels),
                          max_size=len(labels)))
    word = [l for l, t in zip(labels, twice) for _ in range(1 + t)][:8]
    return tuple(draw(st.permutations(word)))


@settings(max_examples=100, deadline=None)
@given(gamma_words())
def test_word_trace_matches_reference_on_random_words(word):
    for p in range(1, 13):
        assert wodzicki.gamma_word_trace(word, p).terms == \
            gamma_word_trace_reference(word, p).terms, p


def test_word_trace_poly_is_built_once_for_every_p():
    """The polynomial is p-free: the trace at every p reads the one cached
    entry of the word."""
    word = (1, 2, 3, 1, 2, 3)
    wodzicki.gamma_word_trace(word, 4)
    misses = wodzicki.word_trace_poly.cache_info().misses
    for p in range(1, 13):
        wodzicki.gamma_word_trace(word, p)
    assert wodzicki.word_trace_poly.cache_info().misses == misses


def test_clifford_does_not_import_the_symbol_engine():
    src = str(pathlib.Path(cl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys, spectre.clifford; "
            "print('spectre.wodzicki' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_quaternionic_relations_low_dimensions():
    """e = J, f = i, g = Ji square to -1 and obey the cyclic relations in
    dimensions 2, 3, 4."""
    for p in (2, 3, 4):
        rs = cl.find_real_structure(p)
        dim = rs.C.shape[0]

        def J(v):
            return rs.C @ v.conj()

        rng = np.random.default_rng(1)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        assert np.allclose(J(J(v)), -v)            # e^2 = -1
        assert np.allclose(J(1j * J(1j * v)), -v)  # g^2 = -1
        ef = J(1j * v)
        fe = 1j * J(v)
        assert np.allclose(ef, -fe)                # ef = -fe
