"""Rationals and dense univariate polynomials."""

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from etainv.coeffcore import (
    RATIONAL_BACKEND,
    Rational,
    UniPoly,
    rat_to_str,
)
from etainv.invariants import FamilyParams, InvalidParams, a1_poly_in_s

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
).map(lambda f: Rational(f.numerator, f.denominator))


def _poly(coeffs):
    """The UniPoly in s with these rational coefficients, numerators over their lcm."""
    cs = [Fraction(c) for c in coeffs]
    d = lcm(*[c.denominator for c in cs])
    return UniPoly("s", [c.numerator * (d // c.denominator) for c in cs], d)


small_polys = st.lists(rationals, min_size=0, max_size=6).map(_poly)


def test_backend_is_declared():
    assert Rational is Fraction and RATIONAL_BACKEND == "fraction"


def test_rational_is_exact():
    q = Rational(1, 3) + Rational(1, 3) + Rational(1, 3)
    assert q == 1
    assert rat_to_str(q) == "1/1"


def test_rat_str_round_trip():
    for text in ("3/1", "-7/8", "0/1", "517/16"):
        assert rat_to_str(Fraction(text)) == text


def test_rat_str_normalizes():
    assert rat_to_str(Fraction(4, 8)) == "1/2"
    assert rat_to_str(Fraction(3, -6)) == "-1/2"


def test_rational_arithmetic():
    a, b = Rational(1, 2), Rational(1, 3)
    assert a + b == Rational(5, 6)
    assert a - b == Rational(1, 6)
    assert a * b == Rational(1, 6)
    assert a / b == Rational(3, 2)
    with pytest.raises(ZeroDivisionError):
        a / Rational(0)


def test_gcd_sign_convention():
    # the coprimality check takes a nonnegative gcd, so signs of s and t do not matter
    FamilyParams(2, 1, -2, -1)
    FamilyParams(2, 1, 4, -3)
    with pytest.raises(InvalidParams, match=r"got gcd\(10,-15\)=5"):
        FamilyParams(2, 1, 10, -15)
    with pytest.raises(InvalidParams, match=r"got gcd\(-6,-9\)=3"):
        FamilyParams(2, 1, -6, -9)


def test_unipoly_basics():
    p = UniPoly("s", [1, -1, 3])
    assert p.degree() == 2
    assert p.coeffs == (1, -1, 3)
    assert p(Rational(2)) == 11
    assert p(Rational(1, 2)) == Rational(5, 4)


def test_unipoly_trailing_zeros_dropped():
    p = UniPoly("s", [1, 2, 0, 0])
    assert p.degree() == 1
    assert p == UniPoly("s", [1, 2])
    assert UniPoly("s", [0, 0]).degree() == -1
    assert not UniPoly("s", [])


def test_unipoly_strings_round_trip():
    p = _poly([Rational(0), Rational(-1, 48), Rational(0), Rational(-5, 192)])
    assert p.to_strings() == ["0/1", "-1/48", "0/1", "-5/192"]
    assert _poly(map(Fraction, p.to_strings())) == p


@given(small_polys, st.integers(1, 2**70))
def test_unipoly_strings_are_each_coefficient_in_lowest_terms(p, scale):
    # to_strings reduces each numerator against den by one gcd; the strings
    # are those of the Fractions, for any common factor of nums and den
    assert p.to_strings() == [rat_to_str(c) for c in p.coeffs]
    q = UniPoly("s", [scale * x for x in p.nums], scale * p.den)
    assert q.to_strings() == p.to_strings()


def test_unipoly_refuses_a_float_argument():
    p = UniPoly("s", [1, 2])
    assert p(Fraction(1, 2)) == 2 and p(3) == 7
    for x in (0.5, 2.0, "1/2", None):
        message = f"^UniPoly argument must be int or Fraction, got {type(x).__name__} "
        with pytest.raises(TypeError, match=message):
            p(x)


def test_unipoly_immutable():
    p = UniPoly("s", [0, 1])
    for name in ("coeffs", "nums", "den"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())


def _add(a, b):
    # UniPoly has no + of its own; distributivity is checked coefficientwise
    return _poly([x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)])


def _canonical(p):
    return (
        (not p.nums or p.nums[-1] != 0)
        and all(type(x) is int for x in p.nums + (p.den,))
        and p.den > 0
        and gcd(p.den, *p.nums) == 1
    )


def test_unipoly_canonical_form():
    p = UniPoly("s", [0, 2, 4], 4)
    assert (p.nums, p.den) == ((0, 1, 2), 2)
    assert p.coeffs == (0, Rational(1, 2), 1) and p == _poly([0, Rational(1, 2), 1])
    a1 = a1_poly_in_s(2)
    assert (a1.nums, a1.den) == ((0, -4, 0, -5), 192)
    assert repr(a1) == "UniPoly('s', [0, -4, 0, -5], 192)"
    # the product's denominator 2 divides out of its numerators
    assert (UniPoly("s", [0, 1], 2) * UniPoly("s", [0, 2])).den == 1
    assert (UniPoly("s", [], 6).nums, UniPoly("s", [], 6).den) == ((), 1)
    for nums, den in (([Fraction(1, 2)], 1), ([0.5], 1), ([1], 2.0), ([1], 0), ([1], -1)):
        with pytest.raises(TypeError):
            UniPoly("s", nums, den)


@given(small_polys, small_polys, small_polys)
def test_unipoly_ring_axioms(a, b, c):
    one = UniPoly("s", [1])
    assert a * b == b * a
    assert _add(a, b) * c == _add(a * c, b * c)
    assert (a * b) * c == a * (b * c)
    assert a * one == a and _canonical(a * b)
    assert (a * b).degree() == (a.degree() + b.degree() if a and b else -1)


@given(small_polys, small_polys, rationals)
def test_unipoly_evaluation_is_homomorphism(p, q, x):
    assert (p * q)(x) == p(x) * q(x)


def test_unipoly_pow_and_div():
    # powers are repeated products; UniPoly has no ** and no / of its own
    s1 = UniPoly("s", [1, 1])
    assert s1 * s1 * s1 == UniPoly("s", [1, 3, 3, 1])
    with pytest.raises(TypeError):
        s1 ** 2
    with pytest.raises(TypeError):
        s1 / 2


def test_unipoly_scalars_are_int_or_fraction():
    s = UniPoly("s", [0, 1])
    assert _poly((True, Fraction(1, 2))).coeffs == (1, Rational(1, 2))
    assert UniPoly("s", (True, 1), 2).coeffs == (Rational(1, 2), Rational(1, 2))
    with pytest.raises(TypeError):
        UniPoly("s", (0.5,))
    # arithmetic is polynomial by polynomial only
    for bad in (0.5, "1", 2, Fraction(1, 2)):
        with pytest.raises(TypeError):
            s * bad
        with pytest.raises(TypeError):
            bad * s
        with pytest.raises(TypeError):
            s + bad
    assert (s == "s") is False and (UniPoly("s", [3]) == 3) is False
    with pytest.raises(ValueError, match="variable mismatch"):
        s * UniPoly("t", [0, 1])


# pairwise coprime Mersenne primes, so clearing an operand's denominators
# multiplies them together
LARGE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)

# int 0 among the rationals, as in the coefficients a1_poly_in_s clears
kernel_coeffs = st.one_of(
    st.just(0),
    rationals,
    st.builds(Rational, st.integers(-(10**30), 10**30), st.sampled_from(LARGE_PRIMES)),
)


def _fraction_horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@settings(max_examples=100, deadline=None)
@given(
    st.lists(kernel_coeffs, max_size=9),
    st.one_of(
        st.integers(-(10**20), 10**20),
        rationals,
        st.builds(Rational, st.integers(-(10**30), 10**30), st.sampled_from(LARGE_PRIMES)),
    ),
)
def test_unipoly_call_is_fraction_horner(coeffs, x):
    # the homogenised integer Horner against Horner on Fractions
    p = _poly(coeffs)
    value = p(x)
    assert value == _fraction_horner(p.coeffs, x)
    assert isinstance(value, Rational)


@pytest.mark.parametrize("x", [0, 1, 3, -7, Rational(-5, 3), Rational(1, 2**89 - 1), Rational(0)])
def test_unipoly_call_at_every_kind_of_point(x):
    p = _poly([Rational(1, 3), 0, Rational(-7, 2), Rational(5, 2**61 - 1), 4])
    assert p(x) == _fraction_horner(p.coeffs, x)
    assert UniPoly("s", [])(x) == 0
    assert _poly([Rational(-9, 4)])(x) == Rational(-9, 4)
    assert _poly([0, 0, Rational(2, 3)])(x) == Rational(2, 3) * x * x
