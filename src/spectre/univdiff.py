"""Universal differential algebra and Hochschild complex over small model
algebras, with the induced commutator representation and junk forms.

Chains are exact: a degree-n chain is an integer linear combination of
word tuples (w0, w1, ..., wn), normal form C_n = A (x) Abar^n (a unit in
any slot past the first kills the term).  In both models a word is an int,
the power of one generator, so words multiply by addition and the unit
is 0.  In both models every represented word tuple is a weighted shift:
each model's `term` gives pi(w0) [D, pi(w1)] ... [D, pi(wn)] in closed
form as one diag(v) P^s, and `represent` sums these into a
`WeightedShift`, sum_s diag(w_s) P^s.  No operator is ever multiplied,
and the weights are Python ints, so every window identity is checked with
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
    matrix; `represent` builds integer weights directly."""

    __array_ufunc__ = None      # numpy operands must not densify silently

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = terms or {}    # shift in range(n) -> weight vector

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

    # words are ints k <-> u^k; u^j u^k = u^(j+k), and the unit is u^0
    power_cap = 2

    def __init__(self, n=48, margin=12):
        if margin < 0 or n <= 2 * margin:
            raise ValueError(f"circle window needs 0 <= margin < n/2; got "
                             f"n = {n}, margin = {margin}")
        self.n = n
        self.margin = margin
        self.window = np.arange(margin, n - margin)

    def words(self):
        return list(range(-self.power_cap, self.power_cap + 1))

    def star_word(self, w):
        return -w

    def term(self, word_tuple):
        """pi(w0) [D, pi(w1)] ... [D, pi(wk)] as (s, v), the one weighted
        shift diag(v) P^s.  u^w maps e_j to e_(j+w), ones on the shift -w,
        and [D, P^t] = diag(j - (j + t) mod n) P^t; each commutator is read
        at the shift s reached so far."""
        j = np.arange(self.n)
        s = -word_tuple[0]
        v = np.ones(self.n, dtype=object)
        for w in word_tuple[1:]:
            v = v * ((j + s) % self.n - (j + s - w) % self.n).astype(object)
            s -= w
        return s % self.n, v

    def reach(self, word_tuple):
        # wrap-around contamination travels this many slots at most
        return sum(abs(w) for w in word_tuple)

    def name(self):
        return "circle"


class DiagonalModel:
    """Commuting diagonal generators with D diagonal in the same basis;
    every commutator with D vanishes, so the junk space is trivial."""

    # words are ints k <-> d^k; d^j d^k = d^(j+k), and the unit is d^0
    power_cap = 3
    n = 12
    margin = 0

    def __init__(self):
        self.window = np.arange(self.n)
        self._d = np.array([i % 3 - 1 for i in range(self.n)], dtype=object)

    def words(self):
        return list(range(self.power_cap + 1))

    def star_word(self, w):
        return w

    def term(self, word_tuple):
        """pi(w0) as (0, d^w0); D commutes with every pi(w), so a tuple
        with a differential slot represents to 0 and has no term."""
        if len(word_tuple) > 1:
            return None
        return 0, self._d ** word_tuple[0]

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
    terms: dict = field(default_factory=dict)   # word tuple -> int or Fraction

    def copy(self):
        return UniversalChain(self.model, self.degree, dict(self.terms))

    def accum(self, word_tuple, coeff):
        if not coeff:
            return
        if len(word_tuple) != self.degree + 1:
            raise ValueError("degree mismatch")
        # reduced complex: the unit 0 in any differential slot kills the term
        if 0 in word_tuple[1:]:
            return
        new = self.terms.get(word_tuple, 0) + coeff
        if new:
            self.terms[word_tuple] = new
        else:
            self.terms.pop(word_tuple, None)

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
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
        return self + other.scale(-1)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, UniversalChain):
            return NotImplemented
        return (self.degree == other.degree and self.terms == other.terms)


def chain(model, *word_tuples):
    if not word_tuples:
        raise ValueError("empty chain needs an explicit degree")
    out = UniversalChain(model, len(word_tuples[0]) - 1)
    for wt in word_tuples:
        out.accum(tuple(wt), 1)
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
        out.accum((0,) + wt, coeff)
    return out


def sigma_op(c):
    """sigma(w da) = (-1)^|w| (da) w, expanded to normal form; degree-0
    chains are fixed."""
    if c.degree == 0:
        return c.copy()
    out = UniversalChain(c.model, c.degree)
    sign = (-1) ** (c.degree - 1)
    for wt, coeff in c.terms.items():
        # (da)(a0 da1 ... ) = d(a a0) da1 ... - a d(a0) da1 ...
        flipped = (0, wt[-1]) + wt[:-1]
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
        starred = (0,) + tuple(m.star_word(w) for w in wt[:0:-1])
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
    if nterms < 1:
        raise ValueError(f"nterms must be >= 1, got {nterms}")
    words = model.words()
    slot_words = [w for w in words if w != 0]
    while True:
        out = UniversalChain(model, degree)
        for _ in range(nterms):
            wt = [rng.choice(words)] + [rng.choice(slot_words)
                                        for _ in range(degree)]
            out.accum(tuple(wt), rng.choice((-3, -2, -1, 1, 2, 3)))
        if out.terms:
            return out


# ----------------------------------------------------------------------
# representation by commutators

def represent(c):
    """pi(a0 da1 ... dan) = pi(a0) [D, pi(a1)] ... [D, pi(an)], as a
    WeightedShift: each term's closed form from the model, summed per
    shift."""
    m = c.model
    terms = {}
    for wt, coeff in c.terms.items():
        if m.reach(wt) > m.margin:
            raise ValueError("chain reaches past the truncation margin; "
                             "enlarge the model")
        term = m.term(wt)
        if term is not None:
            s, v = term
            terms[s] = terms.get(s, 0) + coeff * v
    return WeightedShift(m.n, terms)


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
    Each degree-1 monomial m gives one row: pi(m)'s window in the columns
    below top, pi(dm)'s window from top up.  A reduced row whose pivot is
    at or past top has no pi part left, so it is d of a kernel chain; these
    rows, shifted down by top, are the reduced basis of pi(d ker pi)."""
    if degree != 2:
        raise ValueError("junk computed in degree 2")
    words = model.words()
    monos = [(a, b) for a in words for b in words if b != 0]
    side = len(model.window)
    top = side * side
    rows = []
    for wt in monos:
        m = chain(model, wt)
        row = _sparse_row(window_part(represent(m), model))
        drow = _sparse_row(window_part(represent(delta(m)), model))
        rows.append({**row, **{top + k: x for k, x in drow.items()}})
    mats = []
    for row in _rref(rows):
        if min(row) >= top:
            mat = np.full(top, Fraction(0), dtype=object)
            mat[[k - top for k in row]] = list(row.values())
            mats.append(mat.reshape(side, side))
    return JunkBasis(matrices=mats)


def in_junk_span(mat, jb, model):
    """Exact membership of the window part in the junk span.  The basis
    rows are already independent, so the target lies in their span exactly
    when adding it leaves the rank at len(jb.matrices).  A basis built on
    a model with another window is a ValueError, like an operator of
    another size."""
    side = len(model.window)
    for m in jb.matrices:
        if m.shape != (side, side):
            raise ValueError(f"junk matrix of shape {m.shape} on a window "
                             f"of side {side}")
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
