"""Canonicalization and composition engine properties."""

import contextlib
import importlib
import io
import itertools
import operator
import pkgutil
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import spectre
from fixtures import (fresh_label, half_powers, mul_reference,
                      numeric_word_trace, xi_grade, xi_grade_parts)
from spectre import clifford, symbols, wodzicki
from spectre.cli import main
from spectre.rationals import GQ, I, ONE
from spectre.symbols import (JetExhausted, SymbolExpr, canon_mono, compose,
                             sigma2_pow)


def mono(**kw):
    return SymbolExpr.mono(**kw)


def test_gaussian_rational_field():
    a = GQ(Fraction(1, 2), Fraction(-1, 3))
    b = GQ(2, 5)
    assert a + b - b == a
    assert (a * b) / b == a
    assert I * I == GQ(-1)
    assert bool(GQ(0, 0)) is False


def test_canonical_idempotent():
    res = canon_mono(half_powers(-2),
                     (('xi', 1000), ('R', 1001, 1000, 1002, 1003),
                      ('xi', 1001), ('x', 1002), ('x', 1003)),
                     (), ONE)
    spow, tens, mat, coeff = res
    again = canon_mono(spow, tens, mat, coeff)
    assert again == res


@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(1000, 1006))))
def test_dummy_relabel_invariance(perm):
    base = list(range(1000, 1006))
    ren = dict(zip(base, perm))

    def build(labels):
        l = labels
        return canon_mono(
            half_powers(-1),
            (('R', l[0], l[1], l[2], l[3]), ('xi', l[0]), ('xi', l[1]),
             ('xi', l[2]), ('xi', l[3]), ('xi', l[4]), ('xi', l[4]),
             ('x', l[5]), ('x', l[5])),
            (), ONE)

    assert build(base) == build([ren[i] for i in base])


def test_antisymmetric_self_contraction_vanishes():
    assert canon_mono(half_powers(0), (('t', 1000, 1001, 1001),), (), ONE) \
        is None


def test_xi_pair_becomes_norm_power():
    e = mono(tens=(('xi', 1000), ('xi', 1000)))
    assert e.terms == {(half_powers(1), (), ()): ONE}
    # an expression compares by its mutable terms, so it has no hash
    with pytest.raises(TypeError):
        hash(SymbolExpr())


def test_delta_trace_is_left_to_the_gamma_trace():
    """The engine carries no dimension: a traced delta is refused, and the
    gamma-word trace contracts g^m g_m to -p itself."""
    from spectre.wodzicki import gamma_word_trace
    with pytest.raises(ValueError):
        SymbolExpr.mono(tens=(('dl', 1, 1),))
    # g^m g_m = -7 on spinors of dimension 2^3
    assert numeric_word_trace((0, 0), 7) == -56
    assert gamma_word_trace((0, 0), 7).terms == \
        {(Fraction(0), (), ()): GQ(-56)}


def test_mul_contracts_shared_free_labels():
    a = mono(tens=(('xi', 5),))
    b = mono(tens=(('xi', 5),))
    prod = a * b
    # xi_5 xi_5 with 5 free on both sides: contraction makes it the norm
    assert prod.terms == {(half_powers(1), (), ()): ONE}


def test_compose_identity_symbol():
    q = sigma2_pow(-1) + mono(mat=(('b',),))
    one = SymbolExpr.mono(coeff=ONE)
    assert compose(one, q, cutoff=-4).terms == q.terms
    assert compose(q, one, cutoff=-4).terms == q.terms


def test_compose_first_leibniz_term():
    # c^m xi_m composed with an order-0 symbol f(x) carrying a first jet:
    # result c xi f - i c^m f_{,m}
    c_xi = mono(tens=(('xi', 1000),), mat=(('a', 1000),))
    f = mono(mat=(('b',),)) + \
        mono(tens=(('x', 1001),), mat=(('da', 50, 1001),))
    out = compose(c_xi, f, cutoff=-1)
    expect = (c_xi * f) + \
        mono(coeff=GQ(0, -1), mat=(('a', 1002), ('da', 50, 1002)))
    assert out.terms == expect.terms


def test_compose_associative_on_random_small_symbols():
    rng = random.Random(11)
    pool = [
        lambda: sigma2_pow(rng.choice([-1, 1])),
        lambda: mono(tens=(('xi', fresh_label()),)).scale(
            GQ(rng.randint(1, 3))),
        lambda: mono(mat=(('b',),)),
        lambda: mono(tens=(('xi', 1000),), mat=(('a', 1000),)),
    ]
    for _ in range(8):
        P = pool[rng.randrange(len(pool))]()
        Q = pool[rng.randrange(len(pool))]()
        R = pool[rng.randrange(len(pool))]()
        # three-grade windows keep every composition inside the stored
        # jet depth and make the truncations compatible
        pP, pQ, pR = (e.max_grade() for e in (P, Q, R))
        cut = pP + pQ + pR - 2
        lhs = compose(compose(P, Q, cutoff=pP + pQ - 2), R, cutoff=cut)
        rhs = compose(P, compose(Q, R, cutoff=pQ + pR - 2), cutoff=cut)
        lparts = xi_grade_parts(lhs)
        rparts = xi_grade_parts(rhs)
        for g in set(lparts) | set(rparts):
            if g >= cut:
                assert lparts.get(g, SymbolExpr()).terms == \
                    rparts.get(g, SymbolExpr()).terms


def test_jet_exhausted_raises():
    # an order-6 symbol against deep jets forces three x-derivatives
    P = mono(spow=3)
    Q = sigma2_pow(-1)
    with pytest.raises(JetExhausted):
        compose(P, Q, cutoff=-1)


def test_compose_past_the_jets_with_an_x_free_right_factor():
    """The terms past the stored jet order differentiate the right factor
    in x, so against a factor without x they are absent, not exhausted."""
    P = mono(spow=3)
    Q = mono(tens=(('xi', 1000),), mat=(('b',),))
    assert compose(P, Q, cutoff=-1).terms == \
        mono(spow=3, tens=(('xi', 1000),), mat=(('b',),)).terms


def test_compose_with_a_zero_factor_is_zero():
    q = sigma2_pow(-1) + mono(mat=(('b',),))
    assert compose(SymbolExpr(), q, cutoff=-4).is_zero()
    assert compose(q, SymbolExpr(), cutoff=-4).is_zero()


def test_compose_derivative_labels_avoid_free_labels():
    """The derivative labels sit above every free label of both factors,
    not only of some terms: here the constant term has none, and xi_1
    and x^2 keep theirs."""
    P = mono(tens=(('xi', 1),)) + mono()
    Q = mono(tens=(('x', 2),))
    expect = mono(tens=(('xi', 1), ('x', 2))) + Q + \
        mono(coeff=GQ(0, -1), tens=(('dl', 1, 2),))
    assert compose(P, Q, cutoff=-2).terms == expect.terms


def test_grading_bookkeeping():
    e = sigma2_pow(Fraction(-3, 2))
    parts = xi_grade_parts(e)
    assert set(parts) == {Fraction(-3)}


def test_norm_power_outside_half_integers_is_refused():
    """A key counts the norm power in half-powers, so S^(1/3) has no key:
    both constructors that take a power refuse it, naming it."""
    for build in (lambda k: mono(spow=k), sigma2_pow):
        with pytest.raises(ValueError, match="norm power 1/3 "):
            build(Fraction(1, 3))
    assert mono(spow=Fraction(-3, 2)).terms == {(-3, (), ()): ONE}
    assert set(xi_grade_parts(sigma2_pow(Fraction(1, 2)))) == {1}


def _engine_keys():
    """Every key of the symbols the residue computation builds: the power
    chain to the (-10)-th power, |D|, the integrands p = 3..12 and the
    traced group polynomial with torsion on and off."""
    exprs = [wodzicki.power_symbol(m) for m in range(1, 6)]
    exprs += wodzicki.abs_symbol()
    exprs += [wodzicki.integrand(p) for p in range(3, 13)]
    for torsion in (True, False):
        exprs += wodzicki._group_trace_poly(torsion)
    return [key for e in exprs for key in e.terms]


def test_engine_keys_hold_int_half_powers():
    """Every norm power and xi-grade the engine computes is a plain int,
    never a Fraction equal to one."""
    keys = _engine_keys()
    assert len(keys) > 100
    assert {type(key[0]) for key in keys} == {int}
    assert {type(symbols._xi_grade(key)) for key in keys} == {int}
    assert {key[0] % 2 for key in keys} == {0, 1}


# ----------------------------------------------------------------------
# the pruned canonicalizer against the unpruned enumeration

def canon_brute_force(h, tens, mat):
    """The canonicalizer before pruning: every candidate ordering and
    image of the heavy factors is relabelled in full and compared.  The
    oracle of `canon_mono`, with its coefficient's sign as +1 or -1 (see
    `_at_power`); h is the key's norm power in half-powers."""
    tens, mat = symbols._resolve_deltas(tens, mat)

    # xi_i xi_i pairs are the squared norm itself
    tens = list(tens)
    changed = True
    while changed:
        changed = False
        seen = {}
        for pos, f in enumerate(tens):
            if f[0] != 'xi':
                continue
            if f[1] in seen:
                other = seen[f[1]]
                for q in sorted((pos, other), reverse=True):
                    tens.pop(q)
                h = h + half_powers(1)
                changed = True
                break
            seen[f[1]] = pos
    tens = tuple(tens)

    counts = {}
    for f in list(tens) + list(mat):
        for i in f[1:]:
            counts[i] = counts.get(i, 0) + 1
    dummies = {i for i, c in counts.items() if c == 2}

    heavy = [f for f in tens if f[0] not in symbols._LIGHT]
    light = [f for f in tens if f[0] in symbols._LIGHT]

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
    per_factor_images = [symbols._factor_images(f) for f in heavy]

    best = None
    best_signs = set()
    group_perms = [list(itertools.permutations(g[1])) for g in groups]
    for perm_choice in itertools.product(*group_perms):
        seq = [k for block in perm_choice for k in block]
        image_lists = [per_factor_images[k] for k in seq]
        for images in itertools.product(*image_lists):
            sign = 1
            factors = []
            for f, s in images:
                sign *= s
                factors.append(f)
            mapping = {}
            nxt = -1

            def label(i):
                nonlocal nxt
                if i not in dummies:
                    return i
                if i not in mapping:
                    mapping[i] = nxt
                    nxt -= 1
                return mapping[i]

            relabeled_mat = tuple(
                (f[0],) + tuple(label(i) for i in f[1:]) for f in mat)
            relabeled_heavy = [
                (f[0],) + tuple(label(i) for i in f[1:]) for f in factors]
            pending = {}
            fixed_light = []
            for f in light:
                i = f[1]
                if i in dummies and i not in mapping:
                    pending.setdefault(i, []).append(f[0])
                else:
                    fixed_light.append((f[0], label(i)))
            for i, kinds in sorted(pending.items(),
                                   key=lambda kv: tuple(sorted(kv[1]))):
                lab = label(i)
                for kd in kinds:
                    fixed_light.append((kd, lab))
            relabeled_tens = tuple(sorted(relabeled_heavy + fixed_light))
            key = (h, relabeled_tens, relabeled_mat)
            if best is None or key < best:
                best = key
                best_signs = {sign}
            elif key == best:
                best_signs.add(sign)
    if len(best_signs) == 2:
        return None
    h, tens, mat = best
    return h, tens, mat, best_signs.pop()


def _at_power(canon):
    """`canon_mono` at coefficient 1 built on `canon`, the cached
    canonicalizer or its uncached search: the folded pairs are added to
    the key's norm power, and the sign stays +1 or -1, the form
    `canon_brute_force` returns."""
    def at(h, tens, mat):
        res = canon(tens, mat)
        if res is None:
            return None
        pairs, tens, mat, sign = res
        return h + half_powers(pairs), tens, mat, sign
    return at


def _outcome(canon, key):
    try:
        return canon(*key)
    except ValueError as exc:
        return ValueError, str(exc)


ENGINE_MODULES = (symbols, wodzicki, clifford)


def _caches(modules):
    """The distinct `cache_clear`-able attributes of the modules."""
    found = {}
    for module in modules:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                found[id(obj)] = obj
    return list(found.values())


def test_every_cache_is_cleared_before_the_sweep():
    """A cache the sweep fixture does not clear makes the counters depend
    on the tests that ran before it."""
    package = [importlib.import_module(f"spectre.{m.name}")
               for m in pkgutil.iter_modules(spectre.__path__)]
    cleared = {id(c) for c in _caches(ENGINE_MODULES)}
    assert id(symbols._canon_cached) in cleared
    missed = [c.__qualname__ for c in _caches(package)
              if id(c) not in cleared]
    assert missed == []


@pytest.fixture(scope="module")
def wres_sweep():
    """Every key, with its norm power, that a fresh-cache
    `wres --p 3..12` sweep canonicalizes in one process, mapped to the
    number of calls; and the cache counters after it."""
    real = symbols.canon_mono
    for cache in _caches(ENGINE_MODULES):
        cache.cache_clear()
    keys = {}

    def spy(h, tens, mat, coeff):
        keys[h, tens, mat] = keys.get((h, tens, mat), 0) + 1
        return real(h, tens, mat, coeff)

    symbols.canon_mono = spy
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for p in range(3, 13):
                assert main(["wres", "--p", str(p)]) == 0
    finally:
        symbols.canon_mono = real
    return keys, symbols._canon_cached.cache_info()


def test_wres_sweep_cache_counters(wres_sweep):
    """The counts perfbench reports as symbols.canon_*: the search is
    all inside the cached function, every call reaches it, and it misses
    once per tensor part, whatever the norm powers it is met with."""
    keys, info = wres_sweep
    assert (info.misses, info.hits) == (213, 771)
    assert len({(tens, mat) for _, tens, mat in keys}) == info.misses
    assert sum(keys.values()) == info.misses + info.hits
    assert len(keys) == 498


def test_canon_matches_brute_force_on_wres_sweep(wres_sweep):
    keys, _ = wres_sweep
    bad = [k for k in keys
           if _outcome(_at_power(symbols._canon_cached), k)
           != _outcome(canon_brute_force, k)]
    assert bad == []


HEAVY_ARITY = {'R': 4, 't': 3, 'w': 3, 'dt': 4, 'dl': 2, 'Rs': 0}
MAT_ARITY = {'a': 1, 'da': 2, 'b': 0, 'g': 1, 'W': 2}


@st.composite
def monomials(draw):
    """A monomial of 0-2 R, t, w or dt, deltas, Rs, x/xi and matrix
    factors.  Besides up to two explicit x-x or x-xi pairs, labels are
    paired at random across all slots: free and contracted deltas,
    light-light dummies and dummies shared with matrix factors all
    occur."""
    kinds = (['R'] * draw(st.integers(0, 2))
             + ['t'] * draw(st.integers(0, 1))
             + draw(st.lists(st.sampled_from(['w', 'dt']), max_size=1))
             + ['dl'] * draw(st.integers(0, 2))
             + ['Rs'] * draw(st.integers(0, 1))
             + ['xi'] * draw(st.integers(0, 4))
             + ['x'] * draw(st.integers(0, 3)))
    # light-light dummies, placed as the first pairs below
    light_pairs = draw(st.lists(st.sampled_from([('x', 'x'), ('x', 'xi')]),
                                max_size=2))
    mat_kinds = draw(st.lists(st.sampled_from(sorted(MAT_ARITY)),
                              max_size=2))
    kinds = [k for pair in light_pairs for k in pair] + kinds
    shapes = [(k, HEAVY_ARITY.get(k, 1)) for k in kinds] + \
        [(k, MAT_ARITY[k]) for k in mat_kinds]
    n = sum(a for _, a in shapes)
    fixed_pairs = 2 * len(light_pairs)
    slots = list(range(fixed_pairs)) + \
        draw(st.permutations(range(fixed_pairs, n)))
    pairs = draw(st.integers(len(light_pairs), n // 2))
    labels = draw(st.lists(st.integers(1, 99), unique=True,
                           min_size=n - pairs, max_size=n - pairs))
    negate = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    # slots[2m] and slots[2m + 1] share a dummy; the rest are free
    at = [0] * n
    for m in range(pairs):
        lab = -labels[m] if negate[m] else labels[m]
        at[slots[2 * m]] = at[slots[2 * m + 1]] = lab
    for pos, lab in zip(slots[2 * pairs:], labels[pairs:]):
        at[pos] = lab
    factors, pos = [], 0
    for kind, arity in shapes:
        factors.append((kind,) + tuple(at[pos:pos + arity]))
        pos += arity
    order = draw(st.permutations(range(len(kinds))))
    tens = tuple(factors[k] for k in order)
    mat = tuple(factors[len(kinds):])
    spow = Fraction(draw(st.integers(-12, 4)), draw(st.sampled_from([1, 2])))
    return half_powers(spow), tens, mat


@settings(max_examples=300, deadline=None)
@given(monomials())
def test_canon_matches_brute_force_on_random_monomials(key):
    assert _outcome(_at_power(symbols._canon_cached.__wrapped__), key) == \
        _outcome(canon_brute_force, key)


@settings(max_examples=200, deadline=None)
@given(monomials(), st.integers(-12, 4), st.sampled_from([1, 2]))
def test_canonicalization_commutes_with_the_norm_power(key, num, den):
    """canon_mono at two norm powers gives the same factors and sign, and
    powers that differ as the inputs' do; each result is the brute-force
    one at its own power."""
    h, tens, mat = key
    powers = (h, half_powers(Fraction(num, den)))

    def signed(s, tens, mat):
        res = canon_mono(s, tens, mat, ONE)
        if res is None:
            return None
        s, tens, mat, coeff = res
        return s, tens, mat, 1 if coeff == ONE else -1

    at = [_outcome(signed, (s, tens, mat)) for s in powers]
    for s, res in zip(powers, at):
        assert res == _outcome(canon_brute_force, (s, tens, mat))
    if at[0] is None or at[0][0] is ValueError:
        assert at[1] == at[0]
    else:
        assert at[1][1:] == at[0][1:]
        assert at[1][0] - at[0][0] == powers[1] - powers[0]


def _docstring_tensor_kinds():
    doc = symbols.__doc__
    section = doc[doc.index("Tensor factor kinds"):
                  doc.index("Matrix factor kinds")]
    return set(re.findall(r"\('(\w+)'", section))


def test_heavy_kinds_sort_below_light_ones():
    """The canonicalizer compares the sorted heavy factors first, which
    is exact only while every heavy kind sorts below 'x' and 'xi'."""
    named = _docstring_tensor_kinds()
    assert set(symbols._LIGHT) == {'x', 'xi'} <= named
    heavy = (named | set(symbols._IMAGE_FNS)) - set(symbols._LIGHT)
    assert heavy >= {'R', 'Rs', 'dl', 't', 'w', 'dt', 'dw'}
    assert all(kind < 'x' for kind in heavy)


def test_wres_sweep_uses_only_documented_kinds(wres_sweep):
    keys, _ = wres_sweep
    seen = {f[0] for _, tens, _ in keys for f in tens}
    assert seen <= _docstring_tensor_kinds()


# ----------------------------------------------------------------------
# each monomial is canonicalized once

def _canonical(key):
    """The canonical key of a monomial, or None when it cancels against
    itself or holds a traced delta."""
    try:
        res = _at_power(symbols._canon_cached.__wrapped__)(*key)
    except ValueError:
        return None
    return None if res is None else res[:3]


def _filter_quantities(key):
    """What compose reads of a product before canonicalizing it: the x
    count, the xi-grade and its `drop` (the curvature budget)."""
    return (symbols._xdeg_t(key[1]), symbols._xi_grade(key),
            wodzicki._curvature_budget(key))


def _assert_canonicalized_once(key):
    """A canonical key is its own representative, with no xi_i xi_i pair
    left to fold and sign +1, which SymbolExpr._put relies on; and it
    keeps the quantities compose's filters read of the raw key."""
    canonical = _canonical(key)
    if canonical is not None:
        _, tens, mat = canonical
        assert symbols._canon_cached.__wrapped__(tens, mat) == \
            (0, tens, mat, 1)
        assert _filter_quantities(key) == _filter_quantities(canonical)


def test_canonical_keys_are_fixed_points_on_wres_sweep(wres_sweep):
    keys, _ = wres_sweep
    for key in keys:
        _assert_canonicalized_once(key)


@settings(max_examples=300, deadline=None)
@given(monomials())
def test_canonical_keys_are_fixed_points_on_random_monomials(key):
    _assert_canonicalized_once(key)


def compose_reference(P, Q, cutoff, drop=None):
    """`compose` as it was before it filtered product pairs ahead of
    canonicalization: each k-th term is the canonical product Pk * Qk,
    scaled by (-i)^k/k!, then filtered by cutoff and `drop`.  The product
    is `mul_reference` and the grades are `xi_grade`, so the oracle shares
    no pair loop and no grade bookkeeping with `compose`."""
    cutoff = Fraction(cutoff)
    if drop is not None:
        P = symbols._pruned(P, drop)
        Q = symbols._pruned(Q, drop)
    out = SymbolExpr()
    p_max = max(map(xi_grade, P.terms), default=None)
    q_max = max(map(xi_grade, Q.terms), default=None)
    if p_max is None or q_max is None:
        return out
    q_has_x = any(f[0] == 'x' for (_, tens, _m) in Q.terms for f in tens)
    base = max((symbols._top_label(tens + mat) for expr in (P, Q)
                for (_, tens, mat) in expr.terms), default=0)
    k = 0
    Pk = P
    Qk = Q
    pref = ONE
    fact = 1
    while True:
        if p_max - k + q_max < cutoff:
            break
        if k > symbols.X_JET_ORDER:
            if Pk.is_zero() or not q_has_x:
                break
            raise JetExhausted("jets exhausted")
        term = mul_reference(Pk, Qk).scale(pref * GQ(Fraction(1, fact)))
        for key, c in term.terms.items():
            h, tens, mat = key
            if xi_grade(key) < cutoff:
                continue
            if drop is not None and drop(key):
                continue
            out._accum(h, tens, mat, c)
        k += 1
        fact *= k
        pref = pref * GQ(0, -1)
        Pk = Pk.diff_xi(base + k)
        Qk = Qk.diff_x(base + k)
        if drop is not None:
            Pk = symbols._pruned(Pk, drop)
            Qk = symbols._pruned(Qk, drop)
        if Pk.is_zero():
            break
    return out


def _engine_compositions():
    """(name, P, Q, cutoff) of every composition the residue computation
    makes, all with the curvature budget as `drop`: the three steps of
    the inverse square, the power chain up to the (-10)-th power, the
    two of |D|, and the odd-p integrands p = 3..11."""
    w = wodzicki
    P0 = sigma2_pow(-1)
    one = SymbolExpr.mono(coeff=ONE)
    r = compose(w.symbol_D2(), P0, cutoff=-2, drop=w._curvature_budget)
    u = one - r + compose(r, r, cutoff=-2, drop=w._curvature_budget)
    out = [("sD2*P0", w.symbol_D2(), P0, -2), ("r*r", r, r, -2),
           ("P0*u", P0, u, -4)]
    out += [(f"power{m}", w.power_symbol(m - 1), w.power_symbol(1),
             -2 * m - 2) for m in range(2, 6)]
    s1, s0, sm1 = w.abs_symbol()
    out += [("s1*s1", s1, s1, 0), ("known*known", s1 + s0, s1 + s0, 0)]
    out += [(f"odd{p}", s1 + s0 + sm1, w.power_symbol((p - 1) // 2), -p)
            for p in range(3, 12, 2)]
    return out


@pytest.fixture(scope="module")
def reference_run():
    """For every composition of the residue computation, whether compose
    and compose_reference give the same terms; and every key, with its
    norm power, the reference canonicalizes, which is every product the
    engine formed before it filtered them."""
    drop = wodzicki._curvature_budget
    real = symbols.canon_mono
    keys = {}

    def spy(h, tens, mat, coeff):
        keys[h, tens, mat] = None
        return real(h, tens, mat, coeff)

    same = {}
    for name, P, Q, cut in _engine_compositions():
        symbols.canon_mono = spy
        try:
            ref = compose_reference(P, Q, cut, drop)
        finally:
            symbols.canon_mono = real
        same[name] = compose(P, Q, cut, drop).terms == ref.terms
    return same, list(keys)


def test_compose_matches_reference_on_engine_compositions(reference_run):
    """Filtering product pairs before canonicalizing them gives the terms
    of canonicalizing every product, scaling, then filtering."""
    same, _ = reference_run
    assert [name for name, ok in same.items() if not ok] == []


def test_canon_matches_brute_force_on_reference_products(reference_run):
    """The products compose no longer canonicalizes stay under the
    brute-force oracle."""
    _, keys = reference_run
    assert len(keys) > 3000
    bad = [k for k in keys
           if _outcome(_at_power(symbols._canon_cached), k)
           != _outcome(canon_brute_force, k)]
    assert bad == []


def test_compose_matches_reference_without_drop():
    P = wodzicki.symbol_D2()
    Q = wodzicki.power_symbol(1)
    for cut in (-1, -2, -3):
        assert compose(P, Q, cut).terms == \
            compose_reference(P, Q, cut).terms


# ----------------------------------------------------------------------
# the product, which shares the pair loop of compose, against its own

def _caller(frame):
    """The function a product was written in, through any generator
    expression around it."""
    while frame.f_code.co_name.startswith('<'):
        frame = frame.f_back
    return frame.f_code.co_name


def test_mul_matches_reference_on_engine_products(monkeypatch):
    """Every product a fresh `wres --p 3..12` sweep makes, torsion on and
    off: abs_symbol's inv_half * rem, group_residual's a * a, and the
    piece and word products of the spinor traces."""
    real = SymbolExpr.__mul__
    seen = []

    def spy(P, Q):
        seen.append((_caller(sys._getframe(1)), P, Q))
        return real(P, Q)

    for cache in _caches(ENGINE_MODULES):
        cache.cache_clear()
    monkeypatch.setattr(SymbolExpr, "__mul__", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        for p in range(3, 13):
            for torsion in ("on", "off"):
                assert main(["wres", "--p", str(p),
                             "--torsion", torsion]) == 0
    monkeypatch.undo()
    assert {name for name, _, _ in seen} == \
        {"abs_symbol", "group_residual", "spinor_trace_poly",
         "word_trace_poly"}
    bad = [(name, P, Q) for name, P, Q in seen
           if P * Q != mul_reference(P, Q)]
    assert bad == []


@st.composite
def small_monomials(draw):
    """A monomial of up to two xi, R, t, w or Rs factors, up to two x
    factors and up to two matrix factors.  Its free labels are drawn from
    1..4, so that the monomials of two symbols share some and contract in
    their product; the other labels are paired into dummies."""
    kinds = draw(st.lists(st.sampled_from(['xi', 'R', 't', 'w', 'Rs']),
                          max_size=2)) + ['x'] * draw(st.integers(0, 2))
    mat_kinds = draw(st.lists(st.sampled_from(sorted(MAT_ARITY)),
                              max_size=2))
    shapes = [(k, HEAVY_ARITY.get(k, 1)) for k in kinds] + \
        [(k, MAT_ARITY[k]) for k in mat_kinds]
    n = sum(a for _, a in shapes)
    slots = draw(st.permutations(range(n)))
    pairs = draw(st.integers(max(0, n - 3) // 2, n // 2))
    free = draw(st.lists(st.integers(1, 4), unique=True,
                         min_size=n - 2 * pairs, max_size=n - 2 * pairs))
    at = [0] * n
    for m in range(pairs):
        at[slots[2 * m]] = at[slots[2 * m + 1]] = -m - 1
    for pos, lab in zip(slots[2 * pairs:], free):
        at[pos] = lab
    factors, pos = [], 0
    for kind, arity in shapes:
        factors.append((kind,) + tuple(at[pos:pos + arity]))
        pos += arity
    return mono(coeff=GQ(draw(st.integers(1, 3)), draw(st.integers(-3, 3))),
                spow=Fraction(draw(st.integers(-4, 2)), 2),
                tens=factors[:len(kinds)], mat=factors[len(kinds):])


@st.composite
def small_symbols(draw):
    """A sum of one to three `small_monomials`."""
    e = SymbolExpr()
    for term in draw(st.lists(small_monomials(), min_size=1, max_size=3)):
        e = e + term
    return e


@settings(max_examples=150, deadline=None)
@given(small_symbols(), small_symbols())
def test_mul_matches_reference_on_random_symbols(P, Q):
    assert _outcome(operator.mul, (P, Q)) == _outcome(mul_reference, (P, Q))
