"""Gamma sets, chirality, real structures and symbolic traces."""

import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from spectre import clifford as cl
from spectre.rationals import GQ


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


def test_real_structure_out_of_range():
    with pytest.raises(ValueError):
        cl.find_real_structure(9)


def test_matrix_size_guard():
    with pytest.raises(ValueError):
        cl.build_gammas(cl.Signature(13, 0))


def test_word_trace_trivial_cases():
    for p in (2, 3, 4):
        pw = 2 ** (p // 2)
        empty = cl.gamma_word_trace((), p)
        assert empty.terms == {(0, (), ()): GQ(pw)}
        assert cl.gamma_word_trace((7,), p).is_zero()
        pair = cl.gamma_word_trace((7, 8), p)
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
                sym = cl.gamma_word_trace(word, p)
                val = sum((complex(c) for c in sym.terms.values()), 0j)
                num = cl.numeric_word_trace(word, p)
                assert abs(val - num) < 1e-9, (p, word)


def test_word_length_guard():
    with pytest.raises(ValueError):
        cl.gamma_word_trace(tuple(range(5)) + tuple(range(5)), 4)
    for p in (0, 13):
        with pytest.raises(ValueError):
            cl.gamma_word_trace((1, 1), p)


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
