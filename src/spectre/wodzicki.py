"""Residue symbol calculus in a Riemann normal chart.

Builds the squared-Dirac elliptic symbol, its parametrix, inverse powers,
the absolute-value symbols, the order-(-p) integrand, cosphere moments,
gamma-word traces, spinor-trace reduction and the gravity-action
coefficients (multiples of c(p)), all in exact Gaussian rationals.

The symbols are dimension-free, so each is built once per process for
every p (cached expressions are never mutated).  The dimension p enters at
`cosphere_integrate` and the spinor traces, which are polynomials in p
(`word_trace_poly`, `spinor_trace_poly`), so the traced group of
`trace_reduce` is also built once per process and only evaluated per p.

Grading note: a symbol's order counts xi-degree only; explicit x factors
are jet bookkeeping and count zero.  Every jet is stored to second order
in x; a composition that would need a third x-derivative raises
JetExhausted rather than silently truncating.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .rationals import GQ, I, ONE
from .symbols import (SymbolExpr, _pruned, _xi_grade, compose, perm_parity,
                      relabel_free, sigma2_pow)

# Reserved free index used for the open slot of first-order coefficients.
FREE_MU = 90

MAX_P = 12


def _check_p(p):
    if not (1 <= p <= MAX_P):
        raise ValueError(f"dimension {p} outside supported range 1..{MAX_P}")


# ----------------------------------------------------------------------
# elliptic form of the squared Dirac operator

def symbol_D2():
    """Symbol of -g^{mn} d_m d_n + a^m d_m + b with first jets of a:
    sigma2(x) + i a^m(x) xi_m + b."""
    e = sigma2_pow(1)
    e = e + SymbolExpr.mono(coeff=I, tens=(('xi', -1),), mat=(('a', -1),))
    e = e + SymbolExpr.mono(coeff=I, tens=(('xi', -1), ('x', -2)),
                            mat=(('da', -1, -2),))
    e = e + SymbolExpr.mono(mat=(('b',),))
    return e


_MAT_DEFICIT = {'a': 1, 'da': 2, 'b': 2}


def _curvature_budget(key):
    """Prune monomials that cannot reach a tracked base-point order.

    Once a jet monomial's x factors have been consumed by compositions it
    sits exactly 2*(#curvature factors) plus the weights of its matrix
    factors below the leading order; the tracked window is two orders
    deep, so a final deficit above 2 can never contribute."""
    _, tens, mat = key
    deficit = 2 * sum(1 for f in tens if f[0] in ('R', 'Rs'))
    for f in mat:
        deficit += _MAT_DEFICIT.get(f[0], 0)
    return deficit > 2


def parametrix_D2():
    """Jets of the order -2, -3, -4 symbols of the inverse of the squared
    Dirac operator, from the geometric-series parametrix."""
    full = power_symbol(1)
    return {-2: full.grade(-2), -3: full.grade(-3), -4: full.grade(-4)}


@functools.cache
def power_symbol(m):
    """Jets of the three leading symbols of the (-2m)-th power, grades
    -2m .. -2m-2: for m = 1 the geometric-series parametrix of the squared
    Dirac operator, and the (-2m+2)-th power composed with it above."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > 1:
        return compose(power_symbol(m - 1), power_symbol(1),
                       cutoff=-2 * m - 2, drop=_curvature_budget)
    P0 = sigma2_pow(-1)
    sD2 = symbol_D2()
    one = SymbolExpr.mono(coeff=ONE)
    r = compose(sD2, P0, cutoff=-2, drop=_curvature_budget) - one
    rr = compose(r, r, cutoff=-2, drop=_curvature_budget)
    u = one - r + rr
    return compose(P0, u, cutoff=-4, drop=_curvature_budget)


def inverse_power(m):
    """(sigma_{-2m-1}, sigma_{-2m-2}) of the (-2m)-th power at the base
    point."""
    acc = power_symbol(m)
    return acc.grade(-2 * m - 1).at_base(), acc.grade(-2 * m - 2).at_base()


# ----------------------------------------------------------------------
# absolute-value symbols (odd dimensions)

@functools.cache
def abs_symbol():
    """(sigma_1 jet, sigma_0 jet, sigma_{-1} at base) of the absolute
    value, solved order by order from |D| o |D| = D^2."""
    s1 = sigma2_pow(Fraction(1, 2))
    sD2 = symbol_D2()
    inv_half = sigma2_pow(Fraction(-1, 2))

    c11 = compose(s1, s1, cutoff=0, drop=_curvature_budget)
    rem1 = sD2.grade(1) - c11.grade(1)
    s0 = _pruned(inv_half * rem1, _curvature_budget).scale(GQ(Fraction(1, 2)))

    known = s1 + s0
    c_known = compose(known, known, cutoff=0, drop=_curvature_budget)
    rem0 = sD2.grade(0) - c_known.grade(0)
    sm1 = (inv_half * rem0).scale(GQ(Fraction(1, 2))).at_base()
    return s1, s0, sm1


# ----------------------------------------------------------------------
# the order-(-p) integrand

def integrand(p):
    """sigma_{-p} of |D|^(2-p) at the base point (norm powers intact): a
    grade of the power chain for even p, its composition with |D| for odd
    p, and zero for p = 2."""
    _check_p(p)
    if p < 2:
        raise ValueError("the integrand needs p >= 2")
    if p == 2:
        return SymbolExpr()
    if p % 2 == 0:
        return power_symbol((p - 2) // 2).grade(-p).at_base()
    s1, s0, sm1 = abs_symbol()
    out = compose(s1 + s0 + sm1, power_symbol((p - 1) // 2), cutoff=-p,
                  drop=_curvature_budget)
    return out.grade(-p).at_base()


# ----------------------------------------------------------------------
# cosphere moments and scalar invariants

_BASIS = ("bbar", "a_dot_a", "div_a", "R", "t2", "boundary")


@dataclass
class ScalarInvariant:
    """Rational combination over the invariant basis."""
    coeffs: dict = field(default_factory=dict)

    def __getattr__(self, name):
        if name in _BASIS:
            return self.coeffs.get(name, Fraction(0))
        raise AttributeError(name)

    def add(self, name, value):
        if name not in _BASIS:
            raise ValueError(f"unknown invariant {name!r}")
        new = self.coeffs.get(name, Fraction(0)) + Fraction(value)
        if new:
            self.coeffs[name] = new
        else:
            self.coeffs.pop(name, None)

    def as_dict(self):
        return {k: self.coeffs.get(k, Fraction(0)) for k in _BASIS}


def cosphere_integrate(expr, p):
    """Average over the unit cosphere: replace xi-monomials by moment
    tensors, contract, and reduce curvature traces.  Input must be
    homogeneous of degree 0 after the norm has been set to 1."""
    _check_p(p)
    expr = expr.at_base()
    if len({_xi_grade(key) for key in expr.terms}) > 1:
        raise ValueError("cosphere integrand must be homogeneous")
    expr = expr.mod_norm()
    out = SymbolExpr()
    for (h, tens, mat), c in expr.terms.items():
        xis = [f for f in tens if f[0] == 'xi']
        rest = tuple(f for f in tens if f[0] != 'xi')
        n = len(xis)
        if n % 2 == 1:
            continue
        if n == 0:
            out._accum(h, rest, mat, c)
        elif n == 2:
            i, j = xis[0][1], xis[1][1]
            out._accum(h, rest + (('dl', i, j),), mat,
                       c * GQ(Fraction(1, p)))
        elif n == 4:
            i, j, k, l = (f[1] for f in xis)
            w = GQ(Fraction(1, p * (p + 2)))
            for pairing in (((i, j), (k, l)), ((i, k), (j, l)),
                            ((i, l), (j, k))):
                dls = tuple(('dl',) + pr for pr in pairing)
                out._accum(h, rest + dls, mat, c * w)
        else:
            raise ValueError("moments beyond degree four are not supported")
    out = _reduce_curvature_traces(out)
    return _classify_invariants(out)


def _reduce_curvature_traces(expr):
    """Map the two fully traced curvature patterns onto the scalar:
    R(a,a,b,b) -> Rs and the cross trace R(a,b,a,b) -> -1/2 Rs."""
    out = SymbolExpr()
    for (h, tens, mat), c in expr.terms.items():
        tens = list(tens)
        coeff = c
        changed = True
        while changed:
            changed = False
            for pos, f in enumerate(tens):
                if f[0] != 'R':
                    continue
                _, a, b, cc, d = f
                if a == b and cc == d and a != cc:
                    # both pairs traced: the scalar itself
                    tens[pos] = ('Rs',)
                    changed = True
                    break
                if (a, b) in ((cc, d), (d, cc)) and a != b:
                    # cross trace equals -1/2 of the scalar
                    tens[pos] = ('Rs',)
                    coeff = coeff * GQ(Fraction(-1, 2))
                    changed = True
                    break
        for f in tens:
            if f[0] == 'R':
                raise ValueError(f"unreduced curvature factor {f} after "
                                 "cosphere moments")
        out._accum(h, tuple(tens), mat, coeff)
    return out


def _classify_invariants(expr, scale=1):
    """The one map of a fully contracted scalar expression onto the
    invariant basis, each coefficient times `scale`.  A word with a
    first-derivative-of-torsion factor (`dt`, `dT`), or with connection
    and torsion factors together (`w` with `t`), is a covariant curl: a
    total divergence under the volume integral."""
    inv = ScalarInvariant()
    for (_, tens, mat), c in expr.terms.items():
        if c.im != 0:
            raise ValueError("imaginary coefficient in a scalar invariant")
        val = c.re * scale
        kinds = {f[0] for f in tens}
        tsq = _t_squared_sign(tens)
        if not tens and _is_a_dot_a(mat):
            inv.add('a_dot_a', val)
        elif not tens and _is_div_a(mat):
            inv.add('div_a', val)
        elif mat == (('b',),) and not tens:
            inv.add('bbar', val)
        elif not mat and tens == (('Rs',),):
            inv.add('R', val)
        elif not mat and tsq is not None:
            inv.add('t2', tsq * val)
        elif ('dt' in kinds or {'w', 't'} <= kinds
              or any(f[0] == 'dT' for f in mat)):
            inv.add('boundary', val)
        else:
            raise ValueError(f"monomial outside the invariant basis: "
                             f"{tens} {mat}")
    return inv


def _is_a_dot_a(mat):
    return (len(mat) == 2 and mat[0][0] == mat[1][0] == 'a'
            and mat[0][1] == mat[1][1])


def _is_div_a(mat):
    return len(mat) == 1 and mat[0][0] == 'da' and mat[0][1] == mat[0][2]


def _t_squared_sign(tens):
    """Sign s with monomial = s * t.t for a fully contracted pair of
    torsion factors, else None."""
    if len(tens) != 2 or tens[0][0] != 't' or tens[1][0] != 't':
        return None
    l1, l2 = tens[0][1:], tens[1][1:]
    if sorted(l1) != sorted(l2) or len(set(l1)) != 3:
        return None
    perm = tuple(l1.index(x) for x in l2)
    return perm_parity(perm)


# ----------------------------------------------------------------------
# squaring the Dirac operator

def square_dirac(torsion=True):
    """Elliptic-form coefficients of the square of gamma^m (nabla_m + T_m):
    returns (a_expr, b_expr) with the open index of a on label FREE_MU.

    Expansion rules: gamma g gamma h = -delta(gh) + g2(gh); the contracted
    torsion commutation  gamma^m [T_m, gamma^n] = -4 T^n;  covariant
    constancy of gamma at the base point; the curvature commutator
    contracted with g2 is inserted as the scalar-curvature term R/4.
    """
    # a^mu
    a = SymbolExpr.mono(coeff=GQ(-2), mat=(('om', FREE_MU),))
    if torsion:
        a = a + SymbolExpr.mono(coeff=GQ(-6), mat=(('T', FREE_MU),))

    # b: start from -nabla^m nabla_m + R/4; the dummies d, m, n are summed
    # within each monomial
    d, m, n = -1, -2, -3
    b = SymbolExpr.mono(coeff=GQ(-1), mat=(('dom', d, d),))
    b = b + SymbolExpr.mono(coeff=GQ(-1), mat=(('om', d), ('om', d)))
    b = b + SymbolExpr.mono(coeff=GQ(Fraction(1, 4)), tens=(('Rs',),))

    if torsion:
        # zero-order terms of
        #   gamma nabla (gamma T) + gamma T gamma nabla + gamma T gamma T
        # reduced with the rules above:
        #   (-delta+g2)(mn)[dT(n,m) + om(m)T(n) - T(n)om(m)]   (covariant dT)
        # + (-delta+g2)(mn) T(n) om(m)                          (from term 1)
        # + (-delta+g2)(mn) T(m) om(n) - 4 T(n) om(n)           (from term 2)
        # + (-delta+g2)(mn) T(m) T(n) - 4 T(n) T(n)             (from term 3)
        def mono(coeff, *mats):
            return SymbolExpr.mono(coeff=coeff, mat=tuple(mats))

        b = b + mono(GQ(-1), ('dT', d, d))
        b = b + mono(GQ(-1), ('om', d), ('T', d)) + mono(ONE, ('T', d),
                                                         ('om', d))
        b = b + mono(ONE, ('g2', m, n), ('dT', n, m))
        b = b + mono(ONE, ('g2', m, n), ('om', m), ('T', n))
        b = b + mono(GQ(-1), ('g2', m, n), ('T', n), ('om', m))
        # T(n) om(m) from gamma nabla (gamma T); T(m) om(n) - 4 T om from
        # gamma T gamma nabla
        b = b + mono(GQ(-1), ('T', d), ('om', d))
        b = b + mono(ONE, ('g2', m, n), ('T', n), ('om', m))
        b = b + mono(GQ(-1), ('T', d), ('om', d))
        b = b + mono(ONE, ('g2', m, n), ('T', m), ('om', n))
        b = b + mono(GQ(-4), ('T', d), ('om', d))
        # T T terms
        b = b + mono(GQ(-5), ('T', d), ('T', d))
        b = b + mono(ONE, ('g2', m, n), ('T', m), ('T', n))
    return a, b


def _divergence_of_a(a_expr):
    """a^m_{,m}: close the open slot with a derivative index."""
    out = SymbolExpr()
    deriv_kind = {'om': 'dom', 'T': 'dT'}
    for (h, tens, mat), c in a_expr.terms.items():
        if len(mat) != 1 or mat[0][0] not in deriv_kind:
            raise ValueError("first-order coefficient must be a sum of "
                             "single connection/torsion factors")
        kind, idx = mat[0][0], mat[0][1]
        if idx != FREE_MU:
            raise AssertionError(f"open slot {idx} is not FREE_MU")
        out._accum(h, tens, ((deriv_kind[kind], -1, -1),), c)
    return out


def group_residual(torsion=True):
    """b + (1/4) a.a - (1/2) div a, the combination whose spinor trace
    carries the curvature and torsion content."""
    a, b = square_dirac(torsion)
    # both factors carry the free label FREE_MU, so the product contracts it
    return b + (a * a).scale(GQ(Fraction(1, 4))) \
        - _divergence_of_a(a).scale(GQ(Fraction(1, 2)))


# ----------------------------------------------------------------------
# spinor traces

def gamma_word_trace(word, p):
    """Symbolic spinor trace of a gamma word (sequence of index labels;
    a repeated label is a contraction) with the -2 delta anticommutator,
    in dimension p: `word_trace_poly(word)` evaluated at p."""
    _check_p(p)
    return _trace_poly_at(word_trace_poly(tuple(word)), p)


@functools.cache
def word_trace_poly(word):
    """The trace of a gamma word as a polynomial in the dimension p: a
    tuple (c_0, c_1, ...) of p-free delta polynomials with trace
    2^[p/2] * sum_k c_k p^k.  p enters only through the spinor dimension
    2^[p/2] and a factor p for each self-contraction g^a g_a, so a word
    is traced once for every p.  Odd-length words are traceless (the
    empty tuple).  Only deltas of two distinct free labels are kept."""
    if len(word) > 8:
        raise ValueError("gamma words longer than 8 are not supported")
    if any(word.count(l) > 2 for l in word):
        raise ValueError("labels must appear once or twice")
    if len(word) % 2 == 1:
        return ()
    if not word:
        return (SymbolExpr.mono(coeff=ONE),)
    a = word[0]
    out = ()
    for j in range(1, len(word)):
        # (-1)^j with 1-based j for positions 2..n, times the -delta
        # from the anticommutator
        sign = ONE if j % 2 == 0 else GQ(-1)
        b, rest = word[j], word[1:j] + word[j + 1:]
        if a == b:
            term = (SymbolExpr(),) + word_trace_poly(rest)
        elif a in rest or b in rest:
            old, new = (a, b) if a in rest else (b, a)
            term = word_trace_poly(tuple(new if l == old else l
                                         for l in rest))
        else:
            dl = SymbolExpr.mono(tens=(('dl', a, b),))
            term = tuple(dl * c for c in word_trace_poly(rest))
        out = _add_trace_polys(out, tuple(c.scale(sign) for c in term))
    return out


def _add_trace_polys(u, v):
    """Coefficient-wise sum of two trace polynomials."""
    zero = SymbolExpr()
    return tuple((u[k] if k < len(u) else zero) +
                 (v[k] if k < len(v) else zero)
                 for k in range(max(len(u), len(v))))


def _trace_poly_at(poly, p):
    """2^[p/2] * sum_k c_k p^k for a trace polynomial (c_0, c_1, ...)."""
    out = SymbolExpr()
    for k, c in enumerate(poly):
        out = out + c.scale(GQ(2 ** (p // 2) * p ** k))
    return out


_EXPAND_GAMMA = {
    'T': ('t', Fraction(1, 2), 3),
    'dT': ('dt', Fraction(1, 2), 4),
    'om': ('w', Fraction(1, 4), 3),
    'dom': ('dw', Fraction(1, 4), 4),
}


def spinor_trace(expr, p):
    """Spinor trace of a matrix-word expression built from connection,
    torsion and gamma factors; divides out nothing (the 2^[p/2] factor is
    carried in the result)."""
    _check_p(p)
    return _trace_poly_at(spinor_trace_poly(expr), p)


def spinor_trace_poly(expr):
    """The spinor trace as a polynomial in p (see `word_trace_poly`):
    the matrix factors are expanded into
    gamma words once, and each word is traced once, for every p."""
    # expand matrix factors into gamma bilinears
    total = SymbolExpr()
    for (h, tens, mat), c in expr.terms.items():
        tens, mat = relabel_free(tens, mat)
        pieces = [SymbolExpr.mono(coeff=c, spow=Fraction(h, 2), tens=tens)]
        for f in mat:
            kind = f[0]
            if kind == 'g':
                rep = SymbolExpr.mono(mat=(f,))
            elif kind == 'g2':
                # half the gamma commutator: gamma gamma + delta
                m, n = f[1], f[2]
                rep = SymbolExpr.mono(mat=(('g', m), ('g', n))) + \
                    SymbolExpr.mono(tens=(('dl', m, n),))
            elif kind in _EXPAND_GAMMA:
                tname, pref, arity = _EXPAND_GAMMA[kind]
                # the gamma pair is summed inside rep; the product below
                # keeps it apart from the dummies of the other factors
                tfac = (tname,) + f[1:2] + (-1, -2) + f[2:]
                rep = SymbolExpr.mono(coeff=GQ(pref), tens=(tfac,),
                                      mat=(('g', -1), ('g', -2)))
            elif kind == 'b':
                raise ValueError("expand b before tracing")
            else:
                raise ValueError(f"cannot trace factor {f}")
            pieces.append(rep)
        term = pieces[0]
        for rep in pieces[1:]:
            term = term * rep
        total = total + term
    # trace pure gamma words
    out = ()
    for (h, tens, mat), c in total.terms.items():
        tens, mat = relabel_free(tens, mat)
        labels = []
        for f in mat:
            if f[0] != 'g':
                raise AssertionError(f"non-gamma factor {f[0]!r} left "
                                     "to trace")
            labels.append(f[1])
        pre = SymbolExpr.mono(coeff=c, spow=Fraction(h, 2), tens=tens)
        out = _add_trace_polys(out, tuple(
            pre * tr for tr in word_trace_poly(tuple(labels))))
    return out


@functools.cache
def _group_trace_poly(torsion):
    """spinor_trace_poly of the (b, a.a, div a) group, built once per
    process."""
    return spinor_trace_poly(group_residual(torsion))


def trace_reduce(inv, p, torsion=True):
    """Spinor-trace reduction of a cosphere invariant: the (b, a.a, div a)
    group is replaced by its traced value 2^[p/2](R/4 - 3 t^2) + boundary,
    classified like any scalar with the factor bbar / 2^[p/2]."""
    _check_p(p)
    lam = inv.bbar
    if inv.a_dot_a != lam / 4 or inv.div_a != -lam / 2:
        raise ValueError("invariant does not fit the traced group pattern "
                         "b + a.a/4 - div(a)/2")
    traced = _trace_poly_at(_group_trace_poly(torsion), p)
    out = _classify_invariants(traced, scale=lam / 2 ** (p // 2))
    out.add('R', inv.R)
    out.add('t2', inv.t2)
    out.add('boundary', inv.boundary)
    return out


# ----------------------------------------------------------------------
# assembled gravity action

def c_p(p):
    """2^[p/2] / ((4 pi)^(p/2) Gamma(p/2 + 1))."""
    return 2 ** (p // 2) / ((4 * math.pi) ** (p / 2) * math.gamma(p / 2 + 1))


@dataclass
class GravityAction:
    p: int
    torsion: bool
    coeff_R: Fraction      # rational multiple of c(p)
    coeff_t2: Fraction     # rational multiple of c(p)

    def as_dict(self):
        cp = c_p(self.p)
        return {
            "p": self.p,
            "torsion": self.torsion,
            "coeff_R": {"rational_of_c_p": str(self.coeff_R),
                        "decimal": float(self.coeff_R) * cp},
            "coeff_t2": {"rational_of_c_p": str(self.coeff_t2),
                         "decimal": float(self.coeff_t2) * cp},
        }


def gravity_action(p, torsion=True):
    """Coefficients of the curvature and squared-torsion terms of the
    residue of |D|^(2-p), as exact rational multiples of c(p)."""
    return action_from_invariant(cosphere_integrate(integrand(p), p), p,
                                 torsion)


def action_from_invariant(inv, p, torsion=True):
    """Gravity-action coefficients from the cosphere invariant of the
    order-(-p) integrand; p = 2 has neither term and reads no invariant."""
    if p == 2:
        return GravityAction(p, torsion, Fraction(0), Fraction(0))
    traced = trace_reduce(inv, p, torsion)
    coeff_t2 = traced.t2 if torsion else Fraction(0)
    # the boundary term integrates to zero against the volume form
    return GravityAction(p, torsion, traced.R, coeff_t2)
