"""Abstract-index tensor monomials and the symbol composition engine.

A monomial is coeff * S^k * (commuting tensor factors) * (ordered matrix
factors), where S stands for the squared covector norm at the base point
of a Riemann normal chart.  Tensor factors carry integer index labels; a
label appearing twice in a monomial is contracted, a label appearing once
is free.  Matrix factors (spinor-endomorphism valued coefficients) keep
their order.

A monomial's key is (h, tens, mat), where the int h = 2k counts the norm
power in half-powers: k lies in (1/2)Z (|D| has S^(1/2)), so every power
and xi-grade the engine computes is int arithmetic.  A Fraction k is made
only where a power is read or written: `SymbolExpr.mono(spow=k)`,
`sigma2_pow(k)` and `SymbolExpr.printed_terms`.

Tensor factor kinds
    ('xi', i)            covector component
    ('x', i)             chart coordinate (jets are explicit x-polynomials)
    ('dl', i, j)         Kronecker delta (kept only when both indices free)
    ('R', a, b, c, d)    curvature coefficient of the metric jet; symmetric
                         in (a,b), in (c,d), and under pair exchange
    ('t', a, b, c)       totally antisymmetric torsion components
    ('dt', m, a, b, n)   derivative of the torsion along n; antisymmetric
                         in (a,b)
    ('w', m, a, b)       spin-connection coefficient; antisymmetric in (a,b)
    ('dw', m, a, b, n)   its derivative along n; antisymmetric in (a,b)
    ('Rs',)              scalar curvature

Every kind but xi and x is "heavy" and sorts below 'x', which the
canonicalizer's pruning relies on.

Matrix factor kinds: ('a', i), ('da', i, j), ('b',), ('om', i),
('dom', i, j), ('T', i), ('dT', i, j), ('g', i) gamma, ('W', i, j) the
commutator of covariant derivatives (antisymmetric).

The engine is dimension-free: nothing here depends on the dimension p, and
a traced delta dl(i,i), which would be p, raises ValueError.  p enters
after composition: cosphere moments and spinor traces (`spectre.wodzicki`),
gamma contractions g^m g_m = -p (`wodzicki.gamma_word_trace`).

Label convention: a negative label is a dummy, summed inside its
monomial, and a positive label is free.  Canonical form writes the dummies
of a monomial as -1, -2, ..., -k, so constructors may write dummies as
literal negative labels.  Products shift the dummies of the right factor
below those of the left one, and compositions pick derivative labels above
every label of their inputs, so the engine draws no global labels.

Metric jet convention: the engine expands the squared norm as
S - (1/6) R(r0,r1,c0,c1) xi_{r0} xi_{r1} x^{c0} x^{c1}, which realizes the
derivative table rule  d^2/dx^mu dx^nu S^{-1} -> (1/3) R^{..}_{mu nu} xi xi S^{-2}
used throughout the residue computation.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .rationals import GQ, ONE


class JetExhausted(Exception):
    """A composition requested an x-derivative beyond the stored jet order."""


# ----------------------------------------------------------------------
# monomial canonicalization

def _indices_of(factor):
    return factor[1:]


def _replace_indices(factor, mapping):
    return (factor[0],) + tuple(mapping.get(i, i) for i in factor[1:])


def _r_images(f):
    _, a, b, c, d = f
    out = set()
    for (x, y) in ((a, b), (b, a)):
        for (z, w) in ((c, d), (d, c)):
            out.add(('R', x, y, z, w))
            out.add(('R', z, w, x, y))
    return [(g, 1) for g in out]


def _t_images(f):
    vals = f[1:]
    out = []
    for perm in itertools.permutations(range(len(vals))):
        sign = perm_parity(perm)
        out.append((('t',) + tuple(vals[i] for i in perm), sign))
    return out


def perm_parity(idx):
    """Sign of an integer position permutation."""
    sign = 1
    seen = [False] * len(idx)
    for i in range(len(idx)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = idx[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _dl_images(f):
    _, i, j = f
    return [(('dl', i, j), 1), (('dl', j, i), 1)]


def _pair_antisym_images(f):
    """Antisymmetry in the middle index pair of (mu, a, b[, nu])."""
    head, mid = f[:2], f[2:4]
    tail = f[4:]
    return [(head + mid + tail, 1),
            (head + (mid[1], mid[0]) + tail, -1)]


_IMAGE_FNS = {
    'R': _r_images,
    't': _t_images,
    'dl': _dl_images,
    'w': _pair_antisym_images,
    'dt': _pair_antisym_images,
    'dw': _pair_antisym_images,
}


def _factor_images(f):
    fn = _IMAGE_FNS.get(f[0])
    if fn is None:
        return [(f, 1)]
    return fn(f)


def _resolve_deltas(tens, mat):
    """Contract deltas against other factors; a traced one raises."""
    tens = list(tens)
    changed = True
    while changed:
        changed = False
        counts = {}
        for f in tens:
            for i in _indices_of(f):
                counts[i] = counts.get(i, 0) + 1
        for f in mat:
            for i in _indices_of(f):
                counts[i] = counts.get(i, 0) + 1
        for pos, f in enumerate(tens):
            if f[0] != 'dl':
                continue
            _, i, j = f
            if i == j:
                raise ValueError("a traced delta needs the dimension; "
                                 "contract it where p is known")
            if counts.get(j, 0) > 1 or counts.get(i, 0) > 1:
                tens.pop(pos)
                mapping = {j: i} if counts.get(j, 0) > 1 else {i: j}
                tens = [_replace_indices(g, mapping) for g in tens]
                mat = tuple(_replace_indices(g, mapping) for g in mat)
                changed = True
                break
    return tuple(tens), mat


_LIGHT = ('xi', 'x')


def canon_mono(h, tens, mat, coeff):
    """Canonical (h, tens, mat, coeff) under dummy renaming, commuting
    factor reordering and symmetries; each folded xi_i xi_i pair adds one
    norm power, two half-powers, to h."""
    if not coeff:
        return None
    res = _canon_cached(tens, mat)
    if res is None:
        return None
    pairs, tens, mat, sign = res
    return h + 2 * pairs, tens, mat, coeff if sign > 0 else -coeff


@functools.lru_cache(maxsize=500_000)
def _canon_cached(tens, mat):
    """Canonical (pairs, tens, mat, sign) of the factors alone, for every
    norm power and coefficient: pairs counts the xi_i xi_i pairs folded into
    the norm power.  None when the monomial cancels against itself.

    The representative is the least (sorted tensor factors, matrix
    factors) over every candidate: an ordering of the heavy factors
    (everything except xi and x) within their shape groups, times one
    symmetry image of each, with dummies renamed -1, -2, ... in order of
    first appearance (matrix factors first, then the heavy factors, then
    the xi/x factors).  The totally symmetric xi/x factors inherit labels
    from their attachments, which keeps the search small.

    The search is pruned without changing the result: the matrix labels
    and the xi/x labels of light-light pairs are the same for every
    candidate, and a candidate whose sorted heavy factors already compare
    above the best is dropped before its xi/x factors are labelled.
    `tests/test_symbols.py` keeps the unpruned enumeration as its oracle.
    """
    tens, mat = _resolve_deltas(tens, mat)

    # xi_i xi_i pairs are the squared norm itself; a label occurs at most
    # twice, so one seen twice among the xi factors is a pair
    xi = [f[1] for f in tens if f[0] == 'xi']
    pairs = {i for i in xi if xi.count(i) == 2}
    tens = [f for f in tens if f[0] != 'xi' or f[1] not in pairs]

    counts = {}
    for f in tens + list(mat):
        for i in _indices_of(f):
            counts[i] = counts.get(i, 0) + 1
    dummies = {i for i, c in counts.items() if c == 2}

    heavy = [f for f in tens if f[0] not in _LIGHT]
    light = [f for f in tens if f[0] in _LIGHT]

    # labels fixed before any heavy factor is visited: every non-dummy
    # keeps its own, and the matrix dummies are numbered in matrix order.
    # Canonical dummy labels are negative so they can never collide with
    # free labels when sub-expressions are recombined
    fixed = {i: i for i in counts if i not in dummies}
    nxt = -1
    for f in mat:
        for i in _indices_of(f):
            if i not in fixed:
                fixed[i] = nxt
                nxt -= 1
    mat = tuple((f[0],) + tuple(fixed[i] for i in _indices_of(f))
                for f in mat)
    heavy_labels = {i for f in heavy for i in _indices_of(f)}
    start = {i: fixed[i] for i in heavy_labels if i in fixed}

    # an xi/x label fixed above is the same in every candidate, and one
    # shared with a heavy factor takes the candidate's label; light-light
    # dummies are numbered below every heavy label, pair by pair in order
    # of their sorted kinds
    lit_fixed = []
    lit_heavy = []
    pending = {}
    for kind, i in light:
        if i in fixed:
            lit_fixed.append((kind, fixed[i]))
        elif i in heavy_labels:
            lit_heavy.append((kind, i))
        else:
            pending.setdefault(i, []).append(kind)
    nxt_light = nxt - len(heavy_labels) + len(start)
    for kinds in sorted(pending.values(), key=sorted):
        lit_fixed.extend((kind, nxt_light) for kind in kinds)
        nxt_light -= 1

    # group heavy factors by shape; permute within groups only
    order = sorted(range(len(heavy)),
                   key=lambda k: (heavy[k][0], len(heavy[k])))
    groups = []
    for k in order:
        key = (heavy[k][0], len(heavy[k]))
        if groups and groups[-1][0] == key:
            groups[-1][1].append(k)
        else:
            groups.append((key, [k]))
    per_factor_images = [_factor_images(f) for f in heavy]

    best_heavy = best_light = None
    best_signs = set()
    group_perms = [list(itertools.permutations(g[1])) for g in groups]
    for perm_choice in itertools.product(*group_perms):
        seq = [k for block in perm_choice for k in block]
        image_lists = [per_factor_images[k] for k in seq]
        for images in itertools.product(*image_lists):
            mapping = dict(start)
            nxt_heavy = nxt
            sign = 1
            rel = []
            for f, s in images:
                sign *= s
                out = [f[0]]
                for i in f[1:]:
                    j = mapping.get(i)
                    if j is None:
                        j = mapping[i] = nxt_heavy
                        nxt_heavy -= 1
                    out.append(j)
                rel.append(tuple(out))
            rel.sort()
            # every heavy kind sorts below 'x' and 'xi', so the sorted
            # tensor factors are the sorted heavy ones followed by the
            # sorted light ones: the heavy part decides first
            if best_heavy is not None and rel > best_heavy:
                continue
            lit = [(kind, mapping[i]) for kind, i in lit_heavy]
            lit.extend(lit_fixed)
            lit.sort()
            if best_heavy is None or rel < best_heavy or lit < best_light:
                best_heavy, best_light = rel, lit
                best_signs = {sign}
            elif lit == best_light:
                best_signs.add(sign)
    if len(best_signs) == 2:
        # the monomial maps to minus itself under its symmetries
        return None
    return len(pairs), tuple(best_heavy + best_light), mat, best_signs.pop()


# ----------------------------------------------------------------------
# symbol expressions

class SymbolExpr:
    """Canonicalized sum of tensor monomials, valid in every dimension:
    `terms` maps each canonical key (h, tens, mat), h the norm power in
    half-powers, to its nonzero GQ coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    # -- constructors -------------------------------------------------
    @classmethod
    def mono(cls, coeff=ONE, spow=0, tens=(), mat=()):
        e = cls()
        e._accum(_half_powers(spow), tuple(tens), tuple(mat), _gq(coeff))
        return e

    def _accum(self, h, tens, mat, coeff):
        c = canon_mono(h, tens, mat, coeff)
        if c is None:
            return
        h, tens, mat, coeff = c
        self._put((h, tens, mat), coeff)

    def _put(self, key, coeff):
        """Add coeff at a key that is already canonical, such as a key of
        another expression's terms.  A canonical key is a fixed point of
        the canonicalizer, with sign +1, so it is not canonicalized
        again."""
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if new:
            self.terms[key] = new
        elif cur is not None:
            del self.terms[key]

    # -- ring ops ------------------------------------------------------
    def __add__(self, other):
        out = SymbolExpr(self.terms)
        for key, c in other.terms.items():
            out._put(key, c)
        return out

    def __sub__(self, other):
        return self + other.scale(GQ(-1))

    def scale(self, coeff):
        coeff = _gq(coeff)
        out = SymbolExpr()
        if not coeff:
            return out
        for key, c in self.terms.items():
            out._put(key, c * coeff)
        return out

    def __neg__(self):
        return self.scale(GQ(-1))

    def __mul__(self, other):
        """Product; shared free labels contract.  Each left monomial keeps
        its canonical dummies -1..-k and the right one's are shifted below
        them."""
        out = SymbolExpr()
        _add_products(out, self, other, ONE, -math.inf, None)
        return out

    # -- structure -----------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, SymbolExpr) and self.terms == other.terms

    def grade(self, deg):
        """The terms of xi-grade deg (x factors count 0)."""
        return _pruned(self, lambda key: _xi_grade(key) != deg)

    def max_grade(self):
        """The top xi-grade, None for zero."""
        return max(map(_xi_grade, self.terms), default=None)

    def at_base(self):
        """Drop every monomial carrying an x factor."""
        out = SymbolExpr()
        for key, c in self.terms.items():
            if _xdeg_t(key[1]) == 0:
                out._put(key, c)
        return out

    def mod_norm(self):
        """Set the squared covector norm to 1 (cosphere restriction)."""
        out = SymbolExpr()
        for (_, tens, mat), c in self.terms.items():
            out._accum(0, tens, mat, c)
        return out

    # -- calculus --------------------------------------------------------
    def diff_xi(self, idx):
        out = SymbolExpr()
        for (h, tens, mat), c in self.terms.items():
            if h:
                # d/dxi_idx S^k = 2 k xi_idx S^(k-1), and 2 k = h
                out._accum(h - 2, tens + (('xi', idx),), mat, c * GQ(h))
            for pos, f in enumerate(tens):
                if f[0] != 'xi':
                    continue
                rest = tens[:pos] + tens[pos + 1:] + (('dl', idx, f[1]),)
                out._accum(h, rest, mat, c)
        return out

    def diff_x(self, idx):
        out = SymbolExpr()
        for (h, tens, mat), c in self.terms.items():
            for pos, f in enumerate(tens):
                if f[0] != 'x':
                    continue
                rest = tens[:pos] + tens[pos + 1:] + (('dl', idx, f[1]),)
                out._accum(h, rest, mat, c)
        return out

    def printed_terms(self):
        """(spow, tens, mat, coeff) of every term, spow the norm power as
        a Fraction, in print order: sorted by str((spow, tens, mat)).
        `wres` lists its integrand in this order, and repr its terms."""
        out = [(Fraction(h, 2), tens, mat, c)
               for (h, tens, mat), c in self.terms.items()]
        out.sort(key=lambda t: str(t[:3]))
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for spow, tens, mat, c in self.printed_terms():
            s = [repr(c)]
            if spow:
                s.append(f"S^{spow}")
            s.extend(_fmt_factor(f) for f in tens)
            s.extend(_fmt_factor(f) for f in mat)
            bits.append("*".join(s))
        return " + ".join(bits)


def _fmt_factor(f):
    return f"{f[0]}({','.join(map(str, f[1:]))})"


def _labels(factors):
    return (i for f in factors for i in f[1:])


def _top_label(factors):
    """Largest positive label of the factors, 0 if there is none."""
    return max(0, max(_labels(factors), default=0))


def _dummy_depth(factors):
    """k for canonical dummies -1..-k, 0 if there is none."""
    return max(0, -min(_labels(factors), default=0))


def _shift_dummies(factors, k):
    return tuple((f[0],) + tuple(i - k if i < 0 else i for i in f[1:])
                 for f in factors)


def relabel_free(tens, mat):
    """Map the dummies of a canonical monomial to positive labels above its
    free ones, so that its factors can be split apart and multiplied back
    together: a label shared by two factors contracts in the product."""
    top = _top_label(tens + mat)

    def conv(factors):
        return tuple((f[0],) + tuple(top - i if i < 0 else i for i in f[1:])
                     for f in factors)

    return conv(tens), conv(mat)


def _xdeg_t(tens):
    return sum(1 for f in tens if f[0] == 'x')


def _xi_grade(key):
    """xi-homogeneity degree of a monomial key, an int: h + #xi."""
    h, tens, _ = key
    return h + sum(1 for f in tens if f[0] == 'xi')


def _half_powers(spow):
    """The norm power spow as its int count of half-powers, 2 spow; a
    power outside (1/2)Z raises ValueError."""
    if isinstance(spow, int):
        return 2 * spow
    h = 2 * Fraction(spow)
    if h.denominator != 1:
        raise ValueError(f"norm power {spow} is not a multiple of 1/2")
    return h.numerator


def _gq(c):
    if isinstance(c, GQ):
        return c
    return GQ(c)


# ----------------------------------------------------------------------
# composition of symbols

X_JET_ORDER = 2     # x-order to which every jet is stored


def compose(P, Q, cutoff, drop=None):
    """Symbol of the operator product: sum over multi-indices alpha of
    (-i)^|alpha|/alpha! (d_xi^alpha P)(d_x^alpha Q), truncated below
    `cutoff` xi-degree.

    Implemented as iterated single derivatives summed over ordered index
    tuples, divided by k!; equal to the multi-index form because mixed
    partials commute.  A term that would need an x-derivative beyond the
    stored jet order raises JetExhausted instead of silently truncating.

    `drop(key)` may mark monomials as irrelevant (pruned from the inputs
    and from every intermediate sum).

    Only monomials that can contribute are canonicalized.  A term of P
    whose next xi-derivative falls below `cutoff` against the top grade
    of Q is not differentiated.  Each product pair is filtered on its raw
    key: it is discarded when its x count exceeds the jet order, its
    xi-grade falls below `cutoff`, or `drop` marks it.  That is exact
    because canonicalization keeps the x count and the xi-grade, and the
    kind and count of every factor but two: an xi pair becomes a norm
    power and a contracted delta is absorbed.  So `drop` may read only
    the kinds and counts of the other factors, never labels or the order
    of the commuting factors.
    """
    # every grade is an int, so g < cutoff exactly when g < ceil(cutoff)
    cutoff = math.ceil(cutoff)
    if drop is not None:
        P = _pruned(P, drop)
        Q = _pruned(Q, drop)
    out = SymbolExpr()
    p_max = P.max_grade()
    q_max = Q.max_grade()
    if p_max is None or q_max is None:
        return out
    q_has_x = any(f[0] == 'x' for (_, tens, _m) in Q.terms for f in tens)
    # the k-th derivative label sits above every label of P and Q
    base = max((_top_label(tens + mat) for expr in (P, Q)
                for (_, tens, mat) in expr.terms), default=0)
    k = 0
    Pk = P
    Qk = Q
    pref = ONE
    fact = 1
    while True:
        if p_max - k + q_max < cutoff:
            break
        if k > X_JET_ORDER:
            if Pk.is_zero() or not q_has_x:
                break   # further terms are genuinely absent
            raise JetExhausted(
                f"composition needs {k} x-derivatives; jets stored to "
                f"order {X_JET_ORDER}")
        # the terms of Pk * Qk, scaled by (-i)^k/k!
        _add_products(out, Pk, Qk, pref * GQ(Fraction(1, fact)), cutoff,
                      drop)
        k += 1
        fact *= k
        pref = pref * GQ(0, -1)
        # each xi-derivative lowers a grade by one, and Qk's grade stays
        # at most q_max: a term whose derivative cannot reach the cutoff
        # adds nothing to this or any later term
        Pk = _pruned(Pk, lambda key: _xi_grade(key) - 1 + q_max < cutoff)
        Pk = Pk.diff_xi(base + k)
        Qk = Qk.diff_x(base + k)
        if drop is not None:
            Pk = _pruned(Pk, drop)
            Qk = _pruned(Qk, drop)
        if Pk.is_zero():
            break
    return out


def _add_products(out, P, Q, scalar, cutoff, drop):
    """Add scalar times the product of P and Q to out.  Each pair of terms
    keeps the left one's canonical dummies and shifts the right one's
    below them, and is filtered on its raw key before it is canonicalized:
    it is discarded when its x count exceeds the jet order, its xi-grade
    falls below `cutoff`, or `drop` marks it (see `compose`)."""
    right = [(_xdeg_t(key[1]), _xi_grade(key), key, c)
             for key, c in Q.terms.items()]
    for key1, c1 in P.terms.items():
        h1, t1, m1 = key1
        x1 = _xdeg_t(t1)
        g1 = _xi_grade(key1)
        shift = _dummy_depth(t1 + m1)
        c1 = c1 * scalar
        for x2, g2, (h2, t2, m2), c2 in right:
            if x1 + x2 > X_JET_ORDER or g1 + g2 < cutoff:
                continue
            raw = (h1 + h2, t1 + _shift_dummies(t2, shift),
                   m1 + _shift_dummies(m2, shift))
            if drop is not None and drop(raw):
                continue
            out._accum(*raw, c1 * c2)


def _pruned(expr, drop):
    out = SymbolExpr()
    for key, c in expr.terms.items():
        if not drop(key):
            out.terms[key] = c
    return out


# ----------------------------------------------------------------------
# jets of powers of the squared covector norm

def sigma2_pow(k):
    """Jet of (squared covector norm)^k in a Riemann normal chart:
    S^k - (k/6) R(r0,r1,c0,c1) xi xi x x S^(k-1) + O(x^4), for k in
    (1/2)Z."""
    h = _half_powers(k)
    r0, r1, c0, c1 = -1, -2, -3, -4
    e = SymbolExpr()
    e._accum(h, (), (), ONE)
    e._accum(h - 2,
             (('R', r0, r1, c0, c1), ('xi', r0), ('xi', r1),
              ('x', c0), ('x', c1)),
             (),
             GQ(Fraction(-h, 12)))
    return e
