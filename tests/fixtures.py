"""Fixtures and independent oracles that several test modules share.

Nothing under src/ uses them: the commands never call them, and each
oracle computes its answer without the code it checks.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from spectre import symbols
from spectre import univdiff as ud
from spectre import wodzicki
from spectre.clifford import Signature, build_gammas
from spectre.dixmier import SingularValueSeq
from spectre.model_triples import MetricGraph
from spectre.rationals import GQ, I
from spectre.symbols import SymbolExpr

# ----------------------------------------------------------------------
# rationals: the Gaussian rationals as a pair of Fractions, the form
# `spectre.rationals.GQ` had before it moved to one int triple; the
# oracle of that triple's arithmetic

class PairGQ:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _as_pair_gq(other)
        return PairGQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_pair_gq(other)
        return PairGQ(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_pair_gq(other) - self

    def __mul__(self, other):
        other = _as_pair_gq(other)
        return PairGQ(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_pair_gq(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return PairGQ((self.re * other.re + self.im * other.im) / den,
                      (self.im * other.re - self.re * other.im) / den)

    def __neg__(self):
        return PairGQ(-self.re, -self.im)

    def __eq__(self, other):
        other = _as_pair_gq(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i)"


def _as_pair_gq(x):
    if isinstance(x, PairGQ):
        return x
    if isinstance(x, (int, Fraction)):
        return PairGQ(x)
    raise TypeError(f"cannot coerce {type(x)!r} to PairGQ")


# ----------------------------------------------------------------------
# symbols: xi-grades read without the engine, the product on a pair loop
# of its own, and labels for expressions built by hand

def xi_grade(key):
    """The xi-grade of a key (h, tens, mat) of `SymbolExpr.terms`: h, the
    norm power in half-powers, plus the number of xi factors."""
    h, tens, _ = key
    return h + sum(1 for f in tens if f[0] == 'xi')


def xi_grade_parts(expr):
    """Map each xi-grade of expr to the expression of its terms."""
    parts = {}
    for key, c in expr.terms.items():
        parts.setdefault(xi_grade(key), SymbolExpr()).terms[key] = c
    return parts


def mul_reference(P, Q):
    """Oracle of `SymbolExpr.__mul__`: its own pair loop.  Each left
    monomial keeps its canonical dummies -1..-k and the right one's are
    shifted below them; a pair with more x factors than the stored jet
    order is dropped."""
    out = SymbolExpr()
    for (h1, t1, m1), c1 in P.terms.items():
        k = symbols._dummy_depth(t1 + m1)
        for (h2, t2, m2), c2 in Q.terms.items():
            if symbols._xdeg_t(t1) + symbols._xdeg_t(t2) > \
                    symbols.X_JET_ORDER:
                continue
            out._accum(h1 + h2, t1 + symbols._shift_dummies(t2, k),
                       m1 + symbols._shift_dummies(m2, k), c1 * c2)
    return out


# fresh_label() hands out distinct positive labels from FRESH_BASE upward;
# the engine itself never calls it
FRESH_BASE = 1000
_fresh_counter = itertools.count(FRESH_BASE)


def fresh_label():
    return next(_fresh_counter)


# ----------------------------------------------------------------------
# clifford: monomial matrices as dense complex arrays; the tensor ladder
# on NumPy arrays, the form `spectre.clifford` had before it held each
# matrix as a permutation with a phase per row, and the oracle of that
# form; the gamma-word trace from concrete matrices

_PHASES = (1, 1j, -1, -1j)


def dense(m):
    """The complex array of a monomial matrix of `spectre.clifford`: row i
    holds i**k in column c for its pair (c, k).  Anything else, a NumPy
    array included, is refused, so no array is ever read as a list of
    pairs."""
    if not isinstance(m, tuple) or not all(
            isinstance(row, tuple) and len(row) == 2
            and all(type(x) is int for x in row) for row in m):
        raise TypeError(f"not a monomial matrix: {m!r}")
    if sorted(c for c, _ in m) != list(range(len(m))) or \
            not all(0 <= k < 4 for _, k in m):
        raise ValueError(f"not a monomial matrix: {m!r}")
    out = np.zeros((len(m), len(m)), dtype=complex)
    for i, (c, k) in enumerate(m):
        out[i, c] = _PHASES[k]
    return out


_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)


def euclidean_gammas_reference(p):
    """The Euclidean tensor ladder on complex arrays: gamma^1 = [i],
    p -> p+2 by (g x s3, 1 x i s1, 1 x i s2); an odd top generator is the
    product of the previous ones, times i where it squares to 1."""
    if p == 1:
        return [np.array([[1j]], dtype=complex)]
    if p % 2 == 1:
        base = euclidean_gammas_reference(p - 1)
        top = np.eye(base[0].shape[0], dtype=complex)
        for g in base:
            top = top @ g
        if (top @ top)[0, 0] == 1:
            top = 1j * top
        return base + [top]
    if p == 2:
        return [1j * _S1, 1j * _S2]
    sub = euclidean_gammas_reference(p - 2)
    eye = np.eye(sub[0].shape[0], dtype=complex)
    out = [np.kron(g, _S3) for g in sub]
    out.append(np.kron(eye, 1j * _S1))
    out.append(np.kron(eye, 1j * _S2))
    return out


def gammas_reference(sig):
    """The ladder's generators for a signature, the last s times i."""
    gammas = euclidean_gammas_reference(sig.p)
    return gammas[:sig.r] + [1j * g for g in gammas[sig.r:]]


def chirality_reference(gammas):
    """i^[(p+1)/2] g^1 ... g^p."""
    w = np.eye(gammas[0].shape[0], dtype=complex)
    for g in gammas:
        w = w @ g
    return (1j) ** ((len(gammas) + 1) // 2) * w


def numeric_word_trace(word, p):
    """Oracle of `wodzicki.gamma_word_trace`: the same trace from concrete
    matrices, contracting repeated labels by explicit index summation."""
    gammas = [dense(g) for g in build_gammas(Signature(p, 0)).gammas]
    labels = sorted(set(word))
    free = [l for l in labels if word.count(l) == 1]
    dummies = [l for l in labels if word.count(l) == 2]
    if len(free) + 2 * len(dummies) != len(word):
        raise ValueError("labels must appear once or twice")

    def rec(assign, remaining):
        if not remaining:
            m = np.eye(len(gammas[0]), dtype=complex)
            for l in word:
                m = m @ gammas[assign[l]]
            return np.trace(m)
        tot = 0
        for v in range(p):
            assign[remaining[0]] = v
            tot += rec(assign, remaining[1:])
        return tot

    if free:
        raise ValueError("numeric oracle needs fully contracted words")
    return rec({}, dummies)


# ----------------------------------------------------------------------
# symbols and wodzicki: norm powers as keys hold them, and the closed form
# of the even case

def half_powers(spow):
    """The norm power spow as a key of `SymbolExpr.terms` holds it: the
    int 2 spow, its count of half-powers."""
    h = 2 * Fraction(spow)
    if h.denominator != 1:
        raise ValueError(f"norm power {spow} is not a multiple of 1/2")
    return h.numerator


def closed_form_inverse_power(m):
    """Base-point closed form of sigma_{-2m-2} of the (-2m)-th power,
    solving the composition recursion; the reference of
    `wodzicki.inverse_power` and of the even integrand:

        m S^{1-m} s4 + m(m-1)/2 S^{2-m} s3^2 + i m(m-1) S^{-m} xi.dx(s3)
        + m(m-1)/6 S^{-m-2} (delta-traced R) xi xi
        - (2/9) m(m+1)(m-1) S^{-m-3} xi xi R xi xi

    The xi xi R xi xi coefficient differs from the tabulated -4/9 value;
    the recursion with the stored derivative table forces -2/9 (see the
    golden tests for the comparison).
    """
    par = wodzicki.parametrix_D2()
    s3 = par[-3]
    s4 = par[-4]
    out = s4.at_base().scale(GQ(m)) * SymbolExpr.mono(spow=-m + 1)
    out = out + (s3.at_base() * s3.at_base() *
                 SymbolExpr.mono(spow=-m + 2)
                 ).scale(GQ(Fraction(m * (m - 1), 2)))
    # label 1 is free in both factors, so the product contracts it
    xi_dx_s3 = (SymbolExpr.mono(tens=(('xi', 1),)) *
                s3.diff_x(1).at_base())
    out = out + (xi_dx_s3 * SymbolExpr.mono(spow=-m)
                 ).scale(I * GQ(m * (m - 1)))
    out = out + delta_R_xixi(spow=-m - 2).scale(
        GQ(Fraction(m * (m - 1), 6)))
    out = out + xixi_R_xixi(spow=-m - 3).scale(
        GQ(Fraction(-2 * m * (m + 1) * (m - 1), 9)))
    return out


def delta_R_xixi(spow):
    """S^spow R(a, b, c, c) xi_a xi_b."""
    return SymbolExpr.mono(spow=spow, tens=(('R', -1, -2, -3, -3),
                                            ('xi', -1), ('xi', -2)))


def xixi_R_xixi(spow):
    """S^spow R(a, b, c, d) xi_a xi_b xi_c xi_d."""
    return SymbolExpr.mono(spow=spow, tens=(('R', -1, -2, -3, -4),
                                            ('xi', -1), ('xi', -2),
                                            ('xi', -3), ('xi', -4)))


# ----------------------------------------------------------------------
# dixmier: sequences edited by hand

def scaled(seq, lam):
    """The sequence lam * seq."""
    return seq.mapped(lambda v: v * lam, f"{lam}*{seq.name}")


def with_prefix(seq, prefix_values):
    """Replace the first len(prefix_values) terms (finite-rank edit);
    prefix must keep the sequence admissible.  Each prefix value is
    held back until the chunk where it belongs, and comes first among
    equal values."""
    prefix = np.asarray(sorted(prefix_values, reverse=True), dtype=float)

    def chunks_fn(n):
        pending, drop = prefix, len(prefix)
        for values, counts in seq.chunks(n + len(prefix)):
            # a 0-d count is written out one per run
            if counts.ndim == 0:
                counts = np.broadcast_to(counts, values.shape)
            values, counts, drop = _drop_terms(values, counts, drop)
            # values of this chunk strictly above each pending value
            pos = np.searchsorted(-values, -pending, side='left')
            k = int(np.count_nonzero(pos < len(values)))
            yield (np.insert(values, pos[:k], pending[:k]),
                   np.insert(counts, pos[:k], 1))
            pending = pending[k:]
        if len(pending):
            yield pending, np.ones(len(pending), dtype=np.int64)
    return SingularValueSeq(name=f"{seq.name}+prefix",
                            kernel_dim=seq.kernel_dim, chunks_fn=chunks_fn)


def _drop_terms(values, counts, k):
    """Remove the first k terms of a chunk; also returns how many terms
    later chunks must still drop."""
    if k == 0:
        return values, counts, 0
    total = int(counts.sum())
    if k >= total:
        return values[:0], counts[:0], k - total
    ends = np.cumsum(counts)
    i = int(np.searchsorted(ends, k, side='right'))  # runs dropped whole
    counts = counts[i:].copy()
    counts[0] = ends[i] - k
    return values[i:], counts, 0


# ----------------------------------------------------------------------
# model_triples: graphs for the spectral distance

def discretized_circle(n=200, radius=1.0):
    """Cycle graph with n vertices and equal edge lengths 2 pi r / n."""
    verts = list(range(n))
    step = 2 * math.pi * radius / n
    edges = [(i, (i + 1) % n, step) for i in range(n)]
    return MetricGraph(verts, edges)


def random_connected_graph(rng, max_vertices=50):
    """Random tree plus chords, with lengths in (0.1, 2)."""
    n = rng.randint(2, max_vertices)
    verts = list(range(n))
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.uniform(0.1, 2.0)))
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.uniform(0.1, 2.0)))
    return MetricGraph(verts, edges)


# ----------------------------------------------------------------------
# univdiff: the models as explicit n x n matrices with Python-int object
# entries, multiplied out in full

def dense_model(model):
    """The model's D, pi(w) and [D, pi(w)] for every word w, as dense
    object matrices: on the circle pi(w) = u^w, u the cyclic shift
    e_j -> e_(j+1), is the identity with its rows rolled by w."""
    n = model.n
    if isinstance(model, ud.CircleModel):
        eye = np.eye(n, dtype=np.int64)
        d = np.diag(range(n)).astype(object)
        pi = {w: np.roll(eye, w, axis=0).astype(object)
              for w in model.words()}
    else:
        a = [i % 3 - 1 for i in range(n)]
        d = np.diag(range(1, n + 1)).astype(object)
        pi = {w: np.diag([x ** w for x in a]).astype(object)
              for w in model.words()}
    return d, pi, {w: d @ pw - pw @ d for w, pw in pi.items()}


def dense_represent(c, dense):
    """pi(a0) [D, pi(a1)] ... [D, pi(an)] summed over the chain's terms,
    from `dense_model(c.model)`."""
    _, pi, comm = dense
    out = np.zeros((c.model.n,) * 2, dtype=object)
    for wt, coeff in c.terms.items():
        acc = pi[wt[0]]
        for w in wt[1:]:
            acc = acc @ comm[w]
        out = out + coeff * acc
    return out


def same_window(a, b, model):
    """Two operators (weighted shifts or dense arrays) agree on the
    model's window."""
    return np.array_equal(ud.window_part(a, model), ud.window_part(b, model))
