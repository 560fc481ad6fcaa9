"""Universal differential algebra and Hochschild complex over small model
algebras, with the induced commutator representation and junk forms.

Chains are exact: a degree-n chain is a rational linear combination of
word tuples (w0, w1, ..., wn), normal form C_n = A (x) Abar^n (a unit in
any slot past the first kills the term).  In both models a word is an int,
the power of one generator, so words multiply by addition and the unit
is 0.  In both models pi(a) and D are weighted shifts, and so is every
represented chain: a `WeightedShift` holds sum_s diag(w_s) P^s with exact
integer or rational weights, so every window identity is checked with
exact arithmetic and no dense matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


# ----------------------------------------------------------------------
# weighted shifts

class WeightedShift:
    """Exact n x n operator sum_s diag(w_s) P^s: the s-term holds w_s[i] at
    (i, (i + s) mod n).  Weights are object vectors of Python ints or
    Fractions, so no product can overflow.  `np.asarray` gives the dense
    matrix."""

    __array_ufunc__ = None      # numpy operands must not densify silently

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = terms or {}    # shift in range(n) -> weight vector

    @classmethod
    def diagonal(cls, weights):
        return cls(len(weights), {0: np.array(weights, dtype=object)})

    def __add__(self, other):
        terms = dict(self.terms)
        for s, g in other.terms.items():
            terms[s] = terms.get(s, 0) + g
        return WeightedShift(self.n, terms)

    def __sub__(self, other):
        return self + -1 * other

    def __mul__(self, k):
        return WeightedShift(self.n, {s: k * w for s, w in self.terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        # diag(w) P^s diag(g) P^t = diag(w * roll(g, -s)) P^(s+t)
        terms = {}
        for s, w in self.terms.items():
            for t, g in other.terms.items():
                st = (s + t) % self.n
                terms[st] = terms.get(st, 0) + w * np.roll(g, -s)
        return WeightedShift(self.n, terms)

    def __array__(self, dtype=None, copy=None):
        out = np.zeros((self.n, self.n), dtype=object)
        rows = np.arange(self.n)
        for s, w in self.terms.items():
            out[rows, (rows + s) % self.n] += w
        return out


# ----------------------------------------------------------------------
# model algebras

class CircleModel:
    """Cyclic truncation of the smooth circle algebra: words are integer
    powers of the cyclic shift u (an exactly commutative algebra), the
    operator D = diag(0..N-1) so that commutators reproduce the continuum
    identities away from the wrap-around, i.e. on the interior window."""

    unit = 0                    # words are ints k <-> u^k; u^j u^k = u^(j+k)
    power_cap = 2

    def __init__(self, n=48, margin=12):
        self.n = n
        self.margin = margin
        self.D = WeightedShift.diagonal(range(n))
        self.window = np.arange(margin, n - margin)

    def words(self):
        return list(range(-self.power_cap, self.power_cap + 1))

    def star_word(self, w):
        return -w

    def pi(self, w):
        # u^w maps e_j to e_(j+w): ones on the shift -w
        return WeightedShift(self.n,
                             {-w % self.n: np.ones(self.n, dtype=object)})

    def reach(self, word_tuple):
        # wrap-around contamination travels this many slots at most
        return sum(abs(w) for w in word_tuple)

    def name(self):
        return "circle"


class DiagonalModel:
    """Commuting diagonal generators with D diagonal in the same basis;
    every commutator with D vanishes, so the junk space is trivial."""

    unit = 0                    # words are ints k <-> d^k; d^j d^k = d^(j+k)
    power_cap = 3
    n = 12
    margin = 0

    def __init__(self):
        self.D = WeightedShift.diagonal(range(1, self.n + 1))
        self.window = np.arange(self.n)
        self._d = np.array([i % 3 - 1 for i in range(self.n)], dtype=object)

    def words(self):
        return list(range(self.power_cap + 1))

    def star_word(self, w):
        return w

    def pi(self, w):
        return WeightedShift.diagonal(self._d ** w)

    def reach(self, word_tuple):
        return 0

    def name(self):
        return "diagonal"


# ----------------------------------------------------------------------
# chains

@dataclass
class UniversalChain:
    """Formal sum of elementary tensors over a model's word basis."""
    model: object
    degree: int
    terms: dict = field(default_factory=dict)   # tuple(words) -> Fraction

    def copy(self):
        return UniversalChain(self.model, self.degree, dict(self.terms))

    def accum(self, word_tuple, coeff):
        if not coeff:
            return
        if len(word_tuple) != self.degree + 1:
            raise ValueError("degree mismatch")
        # reduced complex: a unit in any differential slot kills the term
        if self.model.unit in word_tuple[1:]:
            return
        cur = self.terms.get(word_tuple)
        new = coeff if cur is None else cur + coeff
        if new:
            self.terms[word_tuple] = new
        else:
            self.terms.pop(word_tuple, None)

    def __add__(self, other):
        assert self.degree == other.degree
        out = self.copy()
        for wt, c in other.terms.items():
            out.accum(wt, c)
        return out

    def scale(self, c):
        out = UniversalChain(self.model, self.degree)
        for wt, v in self.terms.items():
            out.accum(wt, v * c)
        return out

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (self.degree == other.degree and self.terms == other.terms)


def chain(model, *word_tuples):
    if not word_tuples:
        raise ValueError("empty chain needs an explicit degree")
    out = UniversalChain(model, len(word_tuples[0]) - 1)
    for wt in word_tuples:
        out.accum(tuple(wt), Fraction(1))
    return out


def _merge(wt, k):
    """The word tuple with its adjacent words k and k + 1 multiplied (words
    are ints, so the product is their sum)."""
    return wt[:k] + (wt[k] + wt[k + 1],) + wt[k + 2:]


def _right_mul(wt, word):
    """(a0 da1 ... dan) b in normal form, as (word tuple, sign) pairs.
    Unrolling da b = d(ab) - a db gives sum_k (-1)^(n-k) times
    (a0, ..., a_k a_(k+1), ..., b): the words of wt + (b,) merged at k."""
    full = wt + (word,)
    n = len(wt) - 1
    return [(_merge(full, k), (-1) ** (n - k)) for k in range(n, -1, -1)]


def hochschild_b(c):
    """Alternating-sum boundary with the cyclic last term."""
    if c.degree < 1:
        raise ValueError("no boundary in degree 0")
    out = UniversalChain(c.model, c.degree - 1)
    for wt, coeff in c.terms.items():
        n = len(wt) - 1
        for i in range(n):
            out.accum(_merge(wt, i), coeff * (-1) ** i)
        out.accum(_merge(wt[n:] + wt[:n], 0), coeff * (-1) ** n)
    return out


def delta(c):
    """Universal differential: a0 (x) a1 ... -> 1 (x) a0 (x) a1 ...;
    terms whose leading word is the unit are annihilated."""
    out = UniversalChain(c.model, c.degree + 1)
    for wt, coeff in c.terms.items():
        out.accum((c.model.unit,) + wt, coeff)
    return out


def sigma_op(c):
    """sigma(w da) = (-1)^|w| (da) w, expanded to normal form; degree-0
    chains are fixed."""
    if c.degree == 0:
        return c.copy()
    m = c.model
    out = UniversalChain(m, c.degree)
    sign = (-1) ** (c.degree - 1)
    for wt, coeff in c.terms.items():
        # (da)(a0 da1 ... ) = d(a a0) da1 ... - a d(a0) da1 ...
        flipped = (m.unit, wt[-1]) + wt[:-1]
        out.accum(_merge(flipped, 1), coeff * sign)
        out.accum(flipped[1:], -coeff * sign)
    return out


def chain_star(c):
    """Involution with (da)* = -d(a*) and (wr)* = r* w*:
    (a0 da1 ... dan)* = (-1)^n d(an*) ... d(a1*) a0*, one right product
    of the term (1, an*, ..., a1*) by a0*."""
    m = c.model
    out = UniversalChain(m, c.degree)
    sign = (-1) ** c.degree
    for wt, coeff in c.terms.items():
        starred = (m.unit,) + tuple(m.star_word(w) for w in wt[:0:-1])
        for piece, pc in _right_mul(starred, m.star_word(wt[0])):
            out.accum(piece, coeff * pc * sign)
    return out


def chain_mul(c1, c2):
    """Graded product in normal form: the leading word of each right-hand
    term multiplies in through the bimodule relation, the differential
    slots concatenate."""
    out = UniversalChain(c1.model, c1.degree + c2.degree)
    for wt2, coeff2 in c2.terms.items():
        for wt1, coeff1 in c1.terms.items():
            for piece, pc in _right_mul(wt1, wt2[0]):
                out.accum(piece + wt2[1:], coeff1 * coeff2 * pc)
    return out


def random_chain(model, degree, rng, nterms=3):
    """Nonzero chain of `nterms` random terms: coefficients +-1..+-3 and
    non-unit words in the differential slots; a sum that cancels is
    redrawn."""
    words = model.words()
    slot_words = [w for w in words if w != model.unit]
    while True:
        out = UniversalChain(model, degree)
        for _ in range(nterms):
            wt = [rng.choice(words)] + [rng.choice(slot_words)
                                        for _ in range(degree)]
            out.accum(tuple(wt), Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
        if out.terms:
            return out


# ----------------------------------------------------------------------
# representation by commutators

def represent(c):
    """pi(a0 da1 ... dan) = pi(a0) [D, pi(a1)] ... [D, pi(an)], as a
    WeightedShift."""
    m = c.model
    out = WeightedShift(m.n)
    for wt, coeff in c.terms.items():
        if m.reach(wt) > m.margin:
            raise ValueError("chain reaches past the truncation margin; "
                             "enlarge the model")
        acc = m.pi(wt[0])
        for w in wt[1:]:
            pw = m.pi(w)
            acc = acc @ (m.D @ pw - pw @ m.D)
        # an integral coefficient keeps the weights cheap Python ints
        k = coeff.numerator if coeff.denominator == 1 else coeff
        out = out + k * acc
    return out


def window_part(mat, model):
    """The window block of a WeightedShift or a dense n x n array, as a
    dense object array; an operator of another size is a ValueError."""
    w = model.window
    if not isinstance(mat, WeightedShift):
        mat = np.array(mat, dtype=object)
        if mat.shape != (model.n, model.n):
            raise ValueError(f"operator of shape {mat.shape} on a model of "
                             f"size {model.n}")
        return mat[np.ix_(w, w)]
    if mat.n != model.n:
        raise ValueError(f"operator of size {mat.n} on a model of size "
                         f"{model.n}")
    pos = np.full(mat.n, -1)        # column index -> place in the window
    pos[w] = np.arange(len(w))
    out = np.zeros((len(w), len(w)), dtype=object)
    for s, weights in mat.terms.items():
        cols = pos[(w + s) % mat.n]
        rows = np.flatnonzero(cols >= 0)
        out[rows, cols[rows]] += weights[w[rows]]
    return out


def window_equal(m1, m2, model):
    return np.array_equal(window_part(m1, model), window_part(m2, model))


def window_is_zero(mat, model):
    return not window_part(mat, model).any()


# ----------------------------------------------------------------------
# junk forms

def _sparse_row(window):
    """A window block as a sparse row {flat index: Fraction}, nonzeros only."""
    flat = window.ravel()
    return {k: Fraction(flat[k]) for k in np.flatnonzero(flat).tolist()}


def _subtract(row, f, other):
    """row -= f * other in place, dropping the entries that cancel."""
    for c, x in other.items():
        v = row.get(c, 0) - f * x
        if v:
            row[c] = v
        else:
            del row[c]


def _rref(rows):
    """Reduced row echelon form over the rationals of sparse rows, built
    one row at a time; returns the nonzero rows in pivot order.  A new row
    is reduced by the rows so far (each is zero on the others' pivots, so
    one pass suffices), scaled to 1 on its leading column, then cleared
    from the rows so far."""
    basis = {}                      # pivot column -> row
    for row in rows:
        row = dict(row)
        for p in [c for c in row if c in basis]:
            _subtract(row, row[p], basis[p])
        if not row:
            continue
        p = min(row)
        inv = 1 / row[p]
        row = {c: x * inv for c, x in row.items()}
        for other in basis.values():
            if p in other:
                _subtract(other, other[p], row)
        basis[p] = row
    return [basis[p] for p in sorted(basis)]


@dataclass
class JunkBasis:
    matrices: list


def junk_basis(model, degree=2):
    """Junk in the given degree: represent d(ker pi) for the kernel of pi
    in degree-1 forms, computed by exact linear algebra on the window.
    Each monomial's window row carries the tag column top + k past the
    window's columns; the reduced rows with no window part left are the
    pi-kernel chains, their tags the monomials' coefficients."""
    if degree != 2:
        raise ValueError("junk computed in degree 2")
    words = model.words()
    monos = [(a, b) for a in words for b in words if b != model.unit]
    side = len(model.window)
    top = side * side
    rows = [{**_sparse_row(window_part(represent(chain(model, wt)), model)),
             top + k: Fraction(1)} for k, wt in enumerate(monos)]
    junk_rows = []
    for row in _rref(rows):
        if min(row) >= top:
            ker_chain = UniversalChain(model, 1)
            for col, coef in row.items():
                ker_chain.accum(monos[col - top], coef)
            img = represent(delta(ker_chain))
            junk_rows.append(_sparse_row(window_part(img, model)))
    mats = []
    for row in _rref(junk_rows):
        mat = np.full(top, Fraction(0), dtype=object)
        mat[list(row)] = list(row.values())
        mats.append(mat.reshape(side, side))
    return JunkBasis(matrices=mats)


def in_junk_span(mat, jb, model):
    """Exact membership of the window part in the junk span.  The basis
    rows are already independent, so the target lies in their span exactly
    when adding it leaves the rank at len(jb.matrices)."""
    rows = [_sparse_row(m) for m in jb.matrices]
    target = _sparse_row(window_part(mat, model))
    return len(_rref(rows + [target])) == len(rows)


def omega1_form(model, a_word, b_word):
    """Normalized trace pairing (da, db) = Trace((da)* db)/M, the trace
    restricted to the window.  The weights are real, so
    ((da)* db)[i, i] = sum_k da[k, i] db[k, i]; an entry (k, i) lies on one
    shift only, so the sum pairs equal shifts, with every row k counted
    (wrap-around rows included) and i in the window."""
    da = represent(delta(chain(model, (a_word,))))
    db = represent(delta(chain(model, (b_word,))))
    inside = np.zeros(model.n, dtype=bool)
    inside[model.window] = True
    rows = np.arange(model.n)
    tr = 0
    for s, w in da.terms.items():
        if s in db.terms:
            hit = inside[(rows + s) % model.n]
            tr += (w[hit] * db.terms[s][hit]).sum()
    return Fraction(tr, len(model.window))
