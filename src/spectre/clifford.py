"""Gamma matrices for any signature, chirality and real structures.

Conventions: generators obey  g^a g^b + g^b g^a = -2 eta^{ab}  with
eta = diag(+1 x r, -1 x s); the first r generators are anti-Hermitian and
square to -1.  All matrix entries lie in {0, +-1, +-i}, so complex
floating point arithmetic on them is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 12

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class Signature:
    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0 or self.r + self.s < 1:
            raise ValueError("signature needs r, s >= 0 and r + s >= 1")

    @property
    def p(self):
        return self.r + self.s


@dataclass
class GammaSet:
    signature: Signature
    gammas: list                # p complex matrices

    @property
    def dim(self):
        return self.gammas[0].shape[0]

    def eta(self, a, b):
        if a != b:
            return 0
        return 1 if a < self.signature.r else -1


@dataclass
class RealStructure:
    p: int
    C: np.ndarray               # J acts as v -> C conj(v)
    eps: int
    eps_prime: int
    eps_double_prime: int | None   # absent for odd p


def _euclidean_gammas(p):
    """Recursive tensor ladder for the Euclidean algebra: start from
    gamma^1 = [i], extend p -> p+2 by (g x s3, 1 x i s1, 1 x i s2); an odd
    top generator is a phase-normalized product of the previous ones."""
    if p == 1:
        return [np.array([[1j]], dtype=complex)]
    if p % 2 == 1:
        base = _euclidean_gammas(p - 1)
        top = np.eye(base[0].shape[0], dtype=complex)
        for g in base:
            top = top @ g
        # normalize so top^2 = -1 and top is anti-Hermitian
        sq = (top @ top)[0, 0]
        if sq == 1:
            top = 1j * top
        return base + [top]
    if p == 2:
        return [1j * _S1, 1j * _S2]
    sub = _euclidean_gammas(p - 2)
    eye = np.eye(sub[0].shape[0], dtype=complex)
    out = [np.kron(g, _S3) for g in sub]
    out.append(np.kron(eye, 1j * _S1))
    out.append(np.kron(eye, 1j * _S2))
    return out


def build_gammas(sig):
    """Deterministic generators for the given signature; the last s
    generators are multiplied by i to flip their squares."""
    p = sig.p
    if p > MAX_DIM:
        raise ValueError(f"matrix size guard: p = {p} > {MAX_DIM}")
    gammas = _euclidean_gammas(p)
    for k in range(sig.r, p):
        gammas[k] = 1j * gammas[k]
    gs = GammaSet(signature=sig, gammas=gammas)
    _check_gammas(gs)
    return gs


def _check_gammas(gs):
    p = gs.signature.p
    d = gs.dim
    eye = np.eye(d, dtype=complex)
    for a in range(p):
        ga = gs.gammas[a]
        if a < gs.signature.r:
            if not np.array_equal(ga.conj().T, -ga):
                raise AssertionError(f"generator {a} not anti-Hermitian")
        elif not np.array_equal(ga.conj().T, ga):
            raise AssertionError(f"generator {a} not Hermitian")
        for b in range(p):
            anti = ga @ gs.gammas[b] + gs.gammas[b] @ ga
            if not np.array_equal(anti, -2 * gs.eta(a, b) * eye):
                raise AssertionError(f"anticommutator ({a},{b}) violated")


def chirality(gs):
    """Complex volume form i^[(p+1)/2] g^1 ... g^p for Euclidean sets."""
    if gs.signature.s != 0:
        raise ValueError("chirality defined here for Euclidean signature")
    p = gs.signature.p
    w = np.eye(gs.dim, dtype=complex)
    for g in gs.gammas:
        w = w @ g
    w = (1j) ** ((p + 1) // 2) * w
    eye = np.eye(gs.dim, dtype=complex)
    if p % 2 == 0 and not np.array_equal(w @ w, eye):
        raise AssertionError("chirality does not square to 1")
    sign = -1 if p % 2 == 0 else 1      # anticommuting, or central
    for g in gs.gammas:
        if not np.array_equal(w @ g, sign * (g @ w)):
            raise AssertionError("chirality breaks (anti)commutation")
    return w


REAL_STRUCTURE_TABLE = {
    0: (1, 1, 1),
    1: (1, -1, None),
    2: (-1, 1, -1),
    3: (-1, 1, None),
    4: (-1, 1, 1),
    5: (-1, -1, None),
    6: (1, 1, -1),
    7: (1, 1, None),
}


def _sign(lhs, rhs):
    """s in {1, -1} with lhs = s * rhs exactly, else None."""
    for s in (1, -1):
        if np.array_equal(lhs, s * rhs):
            return s
    return None


def _normalize_phase(m):
    flat = m.flatten()
    for z in flat:
        if z != 0:
            return m * (abs(z) / z)
    raise ValueError("zero matrix")


def find_real_structure(p):
    """Charge-conjugation data matching the mod-8 table row; fails loudly
    if neither candidate reproduces the tabulated signs.

    Every generator of the Euclidean set is real or imaginary.  The product
    of the imaginary ones and the product of the real ones each intertwine
    conj(g^a) with g^a up to one common sign, and by Schur's lemma every
    such C is one of the two up to phase.  Each sign is read with one
    exact test: C conj(C) = eps, C conj(g) = eps' g C, and for even p
    C conj(omega) = eps'' omega C."""
    if not (1 <= p <= 8):
        raise ValueError("real structures tabulated for p = 1..8")
    gs = build_gammas(Signature(p, 0))
    omega = chirality(gs) if p % 2 == 0 else None
    eye = np.eye(gs.dim, dtype=complex)
    imaginary, real = eye, eye
    for a, g in enumerate(gs.gammas):
        if np.array_equal(g.conj(), -g):
            imaginary = imaginary @ g
        elif np.array_equal(g.conj(), g):
            real = real @ g
        else:
            raise AssertionError(
                f"generator {a} is neither real nor imaginary")
    rows = []
    for C in (_normalize_phase(imaginary), _normalize_phase(real)):
        eps_prime = {_sign(C @ g.conj(), g @ C) for g in gs.gammas}
        row = (_sign(C @ C.conj(), eye),
               eps_prime.pop() if len(eps_prime) == 1 else None,
               None if omega is None else
               _sign(C @ omega.conj(), omega @ C))
        if row == REAL_STRUCTURE_TABLE[p % 8]:
            if not np.array_equal(C @ C.conj().T, eye):
                raise AssertionError("C not unitary")
            return RealStructure(p, C, *row)
        rows.append(row)
    raise ValueError(
        f"no antilinear solution matches the tabulated signs for p={p}; "
        f"candidates found: {rows}")

