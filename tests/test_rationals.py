"""Gaussian rationals: the int-triple GQ against the Fraction-pair oracle,
and the equality contract a dict or set relies on."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fixtures import PairGQ
from spectre.rationals import GQ

BIG = 10**40

# ints and Fractions, with zero, negative parts and large numerators
scalars = st.one_of(
    st.just(0),
    st.integers(-10, 10),
    st.integers(-BIG, BIG),
    st.fractions(max_denominator=1000),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 10**30)))
# (the GQ, the oracle) of one value
pairs = st.tuples(scalars, scalars).map(
    lambda reim: (GQ(*reim), PairGQ(*reim)))
# a GQ with its oracle, or the same int or Fraction on both sides
operands = st.one_of(pairs, scalars.map(lambda v: (v, v)))


def _triple(z):
    return z._a, z._b, z._d


def _agrees(new, old):
    """`new` holds `old`'s value in lowest terms, and reads like it."""
    a, b, d = _triple(new)
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (new.re, new.im) == (old.re, old.im)
    assert type(new.re) is Fraction and type(new.im) is Fraction
    assert repr(new) == repr(old)
    assert complex(new) == complex(old)
    assert bool(new) is bool(old)
    # a real value hashes like the number it equals; the oracle's own
    # hash is that of its pair of parts
    assert hash(new) == (hash(old.re) if old.im == 0 else hash(old))


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_unary_matches_the_fraction_pair_oracle(x):
    new, old = x
    _agrees(new, old)
    _agrees(-new, -old)


@settings(max_examples=500, deadline=None)
@given(operands, operands,
       st.sampled_from([operator.add, operator.sub, operator.mul,
                        operator.truediv]))
def test_arithmetic_matches_the_fraction_pair_oracle(x, y, op):
    """+ - * / with a GQ on either side or both; an int or a Fraction on
    the other side works on both sides as it does in the oracle."""
    (new_x, old_x), (new_y, old_y) = x, y
    assume(isinstance(new_x, GQ) or isinstance(new_y, GQ))
    try:
        want = op(old_x, old_y)
    except (TypeError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            op(new_x, new_y)
        return
    _agrees(op(new_x, new_y), want)


@settings(max_examples=300, deadline=None)
@given(operands, operands)
def test_equality_matches_the_fraction_pair_oracle(x, y):
    (new_x, old_x), (new_y, old_y) = x, y
    assume(isinstance(new_x, GQ) or isinstance(new_y, GQ))
    assert (new_x == new_y) is (old_x == old_y)
    assert (new_y == new_x) is (old_y == old_x)
    assert (new_x != new_y) is (old_x != old_y)
    if new_x == new_y:
        assert hash(new_x) == hash(new_y)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_equal_values_have_equal_triples(x, y):
    (x, _), (y, _) = x, y
    assume(y)
    for z in ((x * y) / y, x + y - y, -(-x), x * 1, GQ(x.re, x.im)):
        assert z == x and _triple(z) == _triple(x)


def test_a_real_gq_hashes_like_the_number_it_equals():
    assert len({GQ(2), 2}) == 1
    assert {2: "x"}.get(GQ(2)) == "x"
    assert {Fraction(1, 2): "half"}.get(GQ(Fraction(1, 2))) == "half"
    assert {GQ(Fraction(-3, 4)): "q"}.get(Fraction(-3, 4)) == "q"
    assert {GQ(0): "zero"}.get(0) == "zero"


def test_other_types_compare_unequal():
    """Equality with a type GQ does not take is False, not an error."""
    assert (GQ(1) == None) is False  # noqa: E711
    assert (GQ(1) == "a") is False
    assert (GQ(1) == 1.0) is False
    assert GQ(1) != "a"
    assert GQ(1) in [None, GQ(1)]
    assert GQ(1).__eq__(1.0) is NotImplemented


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv])
def test_arithmetic_with_a_float_raises(op):
    with pytest.raises(TypeError):
        op(GQ(1), 1.0)
    with pytest.raises(TypeError):
        op(1.0, GQ(1))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GQ(1, 2) / GQ(0)
    with pytest.raises(ZeroDivisionError):
        GQ(1) / 0
