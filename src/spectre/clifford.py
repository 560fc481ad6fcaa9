"""Gamma matrices for any signature, chirality and real structures.

Conventions: generators obey  g^a g^b + g^b g^a = -2 eta^{ab}  with
eta = diag(+1 x r, -1 x s); the first r generators are anti-Hermitian and
square to -1.  Every matrix is exact by type: a unitary monomial matrix,
held as the tuple of its rows' (column, k mod 4) pairs, row i holding i^k
in that column.  So a generator is anti-Hermitian iff it squares to -1,
and Hermitian iff it squares to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_DIM = 12


def _identity(d):
    return tuple((i, 0) for i in range(d))


def _mul(m, n):
    """The matrix product m n: row i of m picks row c of n, times i^k."""
    return tuple((n[c][0], (k + n[c][1]) % 4) for c, k in m)


def _times(m, k):
    """i^k m."""
    return tuple((c, (j + k) % 4) for c, j in m)


def _conj(m):
    return tuple((c, -k % 4) for c, k in m)


def _kron(m, n):
    return tuple((cm * len(n) + cn, (km + kn) % 4)
                 for cm, km in m for cn, kn in n)


_IS1 = ((1, 1), (0, 1))     # i sigma_1
_IS2 = ((1, 0), (0, 2))     # i sigma_2
_S3 = ((0, 0), (1, 2))      # sigma_3


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
    gammas: list                # p monomial matrices

    @property
    def dim(self):
        return len(self.gammas[0])


@dataclass
class RealStructure:
    p: int
    C: tuple                    # J acts as v -> C conj(v)
    eps: int
    eps_prime: int
    eps_double_prime: int | None   # absent for odd p


def _euclidean_gammas(p):
    """Recursive tensor ladder for the Euclidean algebra, from p = 0, no
    generators on C^1: p -> p+2 by (g x s3, 1 x i s1, 1 x i s2); an odd top
    generator is a phase-normalized product of the previous ones."""
    if p == 0:
        return []
    if p % 2 == 1:
        base = _euclidean_gammas(p - 1)
        top = _identity(2 ** (p // 2))
        for g in base:
            top = _mul(top, g)
        # normalize so top^2 = -1 and top is anti-Hermitian
        if _mul(top, top)[0][1] == 0:
            top = _times(top, 1)
        return base + [top]
    sub = _euclidean_gammas(p - 2)
    eye = _identity(2 ** (p // 2 - 1))
    out = [_kron(g, _S3) for g in sub]
    out.append(_kron(eye, _IS1))
    out.append(_kron(eye, _IS2))
    return out


def build_gammas(sig):
    """Deterministic generators for the given signature; the last s
    generators are multiplied by i to flip their squares."""
    p = sig.p
    if p > MAX_DIM:
        raise ValueError(f"matrix size guard: p = {p} > {MAX_DIM}")
    gammas = _euclidean_gammas(p)
    for k in range(sig.r, p):
        gammas[k] = _times(gammas[k], 1)
    gs = GammaSet(signature=sig, gammas=gammas)
    _check_gammas(gs)
    return gs


def _check_gammas(gs):
    eye = _identity(gs.dim)
    for a, ga in enumerate(gs.gammas):
        for b, gb in enumerate(gs.gammas):
            if a != b:
                want = _times(_mul(gb, ga), 2)
            else:       # g^a g^a = -eta^{aa}
                want = _times(eye, 2 if a < gs.signature.r else 0)
            if _mul(ga, gb) != want:
                raise AssertionError(f"anticommutator ({a},{b}) violated")


def chirality(gs):
    """Complex volume form i^[(p+1)/2] g^1 ... g^p for Euclidean sets."""
    if gs.signature.s != 0:
        raise ValueError("chirality defined here for Euclidean signature")
    p = gs.signature.p
    w = _identity(gs.dim)
    for g in gs.gammas:
        w = _mul(w, g)
    w = _times(w, (p + 1) // 2)
    if _mul(w, w) != _identity(gs.dim):     # for odd p too
        raise AssertionError("chirality does not square to 1")
    sign = 2 if p % 2 == 0 else 0       # i^2: anticommuting, or central
    for g in gs.gammas:
        if _mul(w, g) != _times(_mul(g, w), sign):
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
    for s, k in ((1, 0), (-1, 2)):
        if lhs == _times(rhs, k):
            return s
    return None


def find_real_structure(p):
    """Charge-conjugation data matching the mod-8 table row; fails loudly
    if neither candidate reproduces the tabulated signs.

    Every generator of the Euclidean set is real or imaginary.  The product
    of the imaginary ones and the product of the real ones each intertwine
    conj(g^a) with g^a up to one common sign, and by Schur's lemma every
    such C is one of the two up to phase, fixed here by a 1 in row 0.
    Each sign is read with one exact test: C conj(C) = eps,
    C conj(g) = eps' g C, and for even p C conj(omega) = eps'' omega C."""
    if not (1 <= p <= 8):
        raise ValueError("real structures tabulated for p = 1..8")
    gs = build_gammas(Signature(p, 0))
    omega = chirality(gs) if p % 2 == 0 else None
    eye = _identity(gs.dim)
    imaginary, real = eye, eye
    for a, g in enumerate(gs.gammas):
        if _conj(g) == _times(g, 2):
            imaginary = _mul(imaginary, g)
        elif _conj(g) == g:
            real = _mul(real, g)
        else:
            raise AssertionError(
                f"generator {a} is neither real nor imaginary")
    rows = []
    for m in (imaginary, real):
        C = _times(m, -m[0][1])
        eps_prime = {_sign(_mul(C, _conj(g)), _mul(g, C)) for g in gs.gammas}
        row = (_sign(_mul(C, _conj(C)), eye),
               eps_prime.pop() if len(eps_prime) == 1 else None,
               None if omega is None else
               _sign(_mul(C, _conj(omega)), _mul(omega, C)))
        if row == REAL_STRUCTURE_TABLE[p % 8]:
            return RealStructure(p, C, *row)
        rows.append(row)
    raise ValueError(
        f"no antilinear solution matches the tabulated signs for p={p}; "
        f"candidates found: {rows}")
