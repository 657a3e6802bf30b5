"""Truncated power series: arithmetic, division, composition, reversion."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from etainv import invariants
from etainv.coeffcore import Rational
from etainv.invariants import _ahat_factor
from etainv.series import (
    NonUnitConstantTerm,
    NonzeroConstantInner,
    NotReversible,
    OrderExceeded,
    PowerSeries,
    VariableMismatch,
    ps_exp,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
).map(lambda f: Rational(f.numerator, f.denominator))

# pairwise coprime Mersenne primes, so the running denominator of the
# integer recurrences is rescaled whenever a new one appears
LARGE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1)
big_rationals = st.builds(
    Rational, st.integers(-(10**30), 10**30), st.sampled_from(LARGE_PRIMES + (1, 6))
)


def series8(coeffs):
    return PowerSeries("x", coeffs, 8)


def test_exp_multiplicativity():
    a = ps_exp(Rational(1, 2), 8)
    b = ps_exp(Rational(-1, 2), 8)
    assert a * b == PowerSeries.constant("x", 1, 8)
    assert a * a == ps_exp(Rational(1), 8)


def test_exp_known_coeffs():
    e = ps_exp(Rational(1), 6)
    assert e.coeff(0) == 1
    assert e.coeff(3) == Rational(1, 6)
    assert e.coeff(5) == Rational(1, 120)


def test_coeff_out_of_range():
    with pytest.raises(OrderExceeded):
        ps_exp(Rational(1), 4).coeff(5)
    assert ps_exp(Rational(1), 4).coeff(4) == Rational(1, 24)


def test_arithmetic_aligns_to_min_order():
    a = ps_exp(Rational(1), 8)
    b = ps_exp(Rational(1), 5)
    assert (a + b).order == 5
    assert (a * b).order == 5


def test_scalar_mixing():
    # +, - and * take two series; scale is the one operation with a rational
    f = series8([1, 2, 3])
    for mixed in (
        lambda: f + 1, lambda: 1 + f, lambda: f - Rational(1, 2), lambda: 2 - f,
        lambda: f * 2, lambda: Rational(1, 2) * f,
    ):
        with pytest.raises(TypeError):
            mixed()
    assert (-f).coeff(1) == -2
    assert f.scale(Rational(1, 2)).coeff(2) == Rational(3, 2)


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        PowerSeries("x", [1], 3) + PowerSeries("y", [1], 3)


def test_divide_round_trip():
    f = series8([1, Rational(1, 3), 0, 5])
    g = series8([2, -1, Rational(7, 2)])
    assert f.divide(g) * g == f
    assert f.divide(g) == f * PowerSeries.constant("x", 1, 8).divide(g)


def test_divide_nonunit_raises():
    with pytest.raises(NonUnitConstantTerm):
        series8([1]).divide(series8([0, 1]))
    big = [Rational(3, LARGE_PRIMES[2]), Rational(-1, LARGE_PRIMES[0])]
    with pytest.raises(NonUnitConstantTerm):
        PowerSeries("x", big, 129).divide(PowerSeries("x", [0] + big, 129))


@settings(max_examples=10, deadline=None)
@given(
    st.lists(big_rationals, min_size=1, max_size=12),
    big_rationals.filter(bool),
    st.lists(big_rationals, max_size=12),
)
def test_divide_times_divisor_is_dividend_at_order_129(num, head, tail):
    f = PowerSeries("x", num, 129)
    g = PowerSeries("x", [head] + tail, 129)
    h = f.divide(g)
    assert h * g == f
    assert all(isinstance(c, Rational) for c in h.coeffs)


def test_compose_requires_nilpotent_inner():
    f = series8([1, 1])
    with pytest.raises(NonzeroConstantInner):
        f.compose(series8([1, 1]))


def test_compose_known():
    # exp(2x) through composition
    e = ps_exp(Rational(1), 6)
    double = PowerSeries("x", [0, 2], 6)
    assert e.compose(double) == ps_exp(Rational(2), 6)


def test_revert_requires_unit_linear_term():
    with pytest.raises(NotReversible):
        series8([0, 0, 1]).revert()
    with pytest.raises(NotReversible):
        series8([1, 1]).revert()


def test_revert_known_sinh():
    w = ps_exp(Rational(1, 2), 6, "u") - ps_exp(Rational(-1, 2), 6, "u")
    rev = w.revert()
    assert [rev.coeff(i) for i in range(6)] == [
        0,
        1,
        0,
        Rational(-1, 24),
        0,
        Rational(3, 640),
    ]


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals, min_size=0, max_size=8))
def test_revert_round_trip(tail):
    g = PowerSeries("x", [0, 1] + tail, 10)
    ident = PowerSeries.identity("x", 10)
    assert g.compose(g.revert()) == ident
    assert g.revert().compose(g) == ident


@settings(max_examples=40, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=6),
    st.lists(rationals, min_size=1, max_size=6),
    st.lists(rationals, min_size=1, max_size=6),
)
def test_ring_axioms(xs, ys, zs):
    a = series8(xs)
    b = series8(ys)
    c = series8(zs)
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


# PowerSeries pads with int 0, so product inputs mix it with rationals; the
# Mersenne primes are pairwise coprime, so clearing an operand's
# denominators multiplies them together
product_coeffs = st.one_of(
    st.just(0),
    rationals,
    st.builds(
        Rational,
        st.integers(-(10**30), 10**30),
        st.sampled_from(LARGE_PRIMES + (2**127 - 1,)),
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(product_coeffs, max_size=7),
    st.lists(product_coeffs, max_size=7),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)
def test_product_is_truncated_convolution(a, b, order_a, order_b):
    # an order past a list's end pads it with int 0; the product has the shorter order
    f = PowerSeries("x", a, order_a)
    g = PowerSeries("x", b, order_b)
    n = min(order_a, order_b)
    full = [sum(f.coeffs[i] * g.coeffs[m - i] for i in range(m + 1)) for m in range(n + 1)]
    h = f * g
    assert h.order == n and h.coeffs == tuple(full)
    assert all(isinstance(x, Rational) for x in h.coeffs if x)


def test_product_scales_each_numerator_to_the_shared_denominator():
    p, q = LARGE_PRIMES[:2]
    # f is padded with an int 0 at x^3; g has the shorter order, so the product
    # stops at x^2, whose coefficient cancels to exact 0
    f = PowerSeries("x", [Rational(1, p), Rational(-3, 7 * q), Rational(1, 5)], 3)
    g = PowerSeries("x", [Rational(5, q), Rational(2, 3), Rational(-5 * p, 7 * q)], 2)
    expected = (Rational(5, p * q), Rational(2, 3 * p) - Rational(15, 7 * q * q), 0)
    for h in (f * g, g * f):
        assert h.order == 2 and h.coeffs == expected
        assert all(isinstance(x, Rational) for x in h.coeffs if x)


# references in plain Fraction lists, with no PowerSeries operation


def _mul_reference(a, b, n):
    """The product of two coefficient lists of length n + 1, truncated after x^n."""
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] += x * y
    return out


def _compose_reference(f, g, n):
    """sum_i f_i g^i to order n, for coefficient lists f and g of length n + 1."""
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for c in f:
        out = [x + c * y for x, y in zip(out, power)]
        power = _mul_reference(power, g, n)
    return out


def _padded(coeffs, order):
    return [Fraction(c) for c in coeffs[: order + 1]] + [Fraction(0)] * (order + 1 - len(coeffs))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(product_coeffs, max_size=21),
    st.integers(min_value=0, max_value=20),
    st.sampled_from([1, 2]),
    product_coeffs.filter(bool),
    st.lists(product_coeffs, max_size=20),
    st.integers(min_value=0, max_value=20),
)
@example([1, Rational(1, 2), Rational(-3, LARGE_PRIMES[0]), 5], 20, 1, Rational(3), [1, 0, -2], 6)
@example([Rational(2, 7), 0, 1, Rational(10**30, LARGE_PRIMES[1])], 4, 2, Rational(-1, 5), [Rational(1, 3)], 20)
@example([Rational(10**29, LARGE_PRIMES[2])] * 21, 20, 1, Rational(7, LARGE_PRIMES[0]), [Rational(1, LARGE_PRIMES[1])] * 19, 20)
def test_compose_is_the_sum_of_powers(f_coeffs, f_order, valuation, lead, g_tail, g_order):
    # inner series of valuation 1 and 2 with a leading coefficient other than 1;
    # the outer order above and below the inner one
    g_coeffs = [0] * valuation + [lead] + g_tail
    f = PowerSeries("x", f_coeffs, f_order)
    g = PowerSeries("y", g_coeffs, g_order)
    n = min(f_order, g_order)
    expected = _compose_reference(_padded(f_coeffs, n), _padded(g_coeffs, n), n)
    h = f.compose(g)
    assert (h.variable, h.order) == ("y", n)
    assert list(h.coeffs) == expected


def _revert_reference(f, n):
    """g with f(g) = x to order n; g_m solves [x^m] f(g) = 0, which is f_1 g_m plus lower g."""
    g = [Fraction(0), 1 / f[1]] + [Fraction(0)] * (n - 1)
    for m in range(2, n + 1):
        g[m] = -_compose_reference(f[: m + 1], g[: m + 1], m)[m] / f[1]
    return g


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.sampled_from([Rational(3), Rational(-1, 5)]), product_coeffs.filter(bool)),
    st.lists(product_coeffs, max_size=11),
    st.integers(min_value=1, max_value=12),
)
@example(Rational(3), [], 8)
@example(Rational(-1, 5), [Rational(1, 2), 0, Rational(-7, LARGE_PRIMES[0])], 12)
@example(Rational(10**30, LARGE_PRIMES[2]), [Rational(1, LARGE_PRIMES[1]), 4], 1)
def test_revert_is_solved_coefficient_by_coefficient(lead, tail, order):
    coeffs = [0, lead] + tail
    g = PowerSeries("x", coeffs, order).revert()
    assert g.order == order
    assert list(g.coeffs) == _revert_reference(_padded(coeffs, order), order)


def _repeated_mul(f, n):
    out = PowerSeries.constant(f.variable, 1, f.order)
    for _ in range(n):
        out = out * f
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.lists(st.one_of(rationals, big_rationals), min_size=0, max_size=8),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=7),
)
@example(0, [], 0, 0)
@example(0, [Rational(3)], 0, 5)
@example(2, [Rational(-1, 2), 1], 9, 4)
@example(3, [Rational(2)], 9, 4)
@example(0, [Rational(-7, 3), Rational(1, LARGE_PRIMES[0]), 0, Rational(5, LARGE_PRIMES[1])], 9, 5)
@example(2, [Rational(-3, LARGE_PRIMES[2]), Rational(10**30, LARGE_PRIMES[0])], 9, 4)
def test_pow_matches_repeated_multiplication(zeros, tail, order, n):
    # leading zeros exercise the x^{nv} factoring of a zero constant term;
    # large coprime denominators make the running denominator grow
    f = PowerSeries("x", [0] * zeros + tail, order)
    assert f ** n == _repeated_mul(f, n)


def _binary_pow(f, n):
    out = PowerSeries.constant(f.variable, 1, f.order)
    square = f
    while n:
        if n & 1:
            out = out * square
        square = square * square
        n >>= 1
    return out


@pytest.mark.parametrize("k", [16, 64])
def test_pow_of_ahat_factor_is_binary_exponentiation(k):
    # the powers that ahat_Bc (2k - 1) and a1_poly_in_s (2k) raise
    f = _ahat_factor(2 * k)
    for n in (2 * k - 1, 2 * k):
        assert f ** n == _binary_pow(f, n)


def test_pow_past_truncation_is_zero():
    # x^{nv} beyond the order leaves nothing, and no coefficient list of length nv is built
    assert PowerSeries("x", [0, 1], 4) ** 10**9 == PowerSeries("x", [], 4)


def test_immutability():
    f = series8([1, 2])
    for name in ("coeffs", "variable", "order", "den", "nums"):
        with pytest.raises(AttributeError):
            setattr(f, name, ())
    assert (f.variable, f.order, f.den, f.nums) == ("x", 8, 1, (1, 2) + (0,) * 7)


def test_float_coefficients_raise_type_error():
    # as the parameter gate refuses a float s: a float is never taken as exact
    assert PowerSeries("x", [1, Fraction(1, 2)], 3).nums == (2, 1, 0, 0)
    message = "^PowerSeries coefficients must be int or Fraction, got float "
    # a float past the truncation order is refused too, though it would be dropped
    for coeffs, order in (([0.5], 3), ([1, 2, 0.25], 3), ([Fraction(1, 3), 1.0], 3), ([1, 0.5], 0)):
        with pytest.raises(TypeError, match=message):
            PowerSeries("x", coeffs, order)


def test_revert_calls_no_divide_and_no_pow(monkeypatch):
    # the reversion oracle builds each h^{-m} by its own Miller recurrence:
    # it shares neither ** (the production power) nor divide
    w = ps_exp(Rational(1, 2), 12, "u") - ps_exp(Rational(-1, 2), 12, "u")
    g = PowerSeries("x", [0, Rational(-3, 7), 2, Rational(1, 5), 0, -4], 9)
    expected = [w.revert(), g.revert()]
    calls = []

    def recording(name):
        original = getattr(PowerSeries, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("divide", "__pow__"):
        monkeypatch.setattr(PowerSeries, name, recording(name))
    assert w.divide(PowerSeries.constant("u", 1, 12)) == w and w**1 == w
    assert calls == ["divide", "__pow__"]
    calls.clear()
    assert [w.revert(), g.revert()] == expected
    assert calls == []
    assert g.compose(expected[1]) == PowerSeries.identity("x", 9)


# -- the integer layout: nums over one reduced den ---------------------------


def _assert_canonical(f):
    assert type(f.den) is int and f.den > 0
    assert type(f.nums) is tuple and len(f.nums) == f.order + 1
    assert all(type(x) is int for x in f.nums)
    assert math.gcd(f.den, *f.nums) == 1
    assert all(type(c) is Fraction for c in f.coeffs)
    assert PowerSeries(f.variable, f.coeffs, f.order) == f


@settings(max_examples=60, deadline=None)
@given(
    st.lists(product_coeffs, max_size=8),
    st.lists(product_coeffs, max_size=8),
    st.integers(min_value=0, max_value=8),
    rationals.filter(bool),
    st.integers(min_value=0, max_value=4),
)
def test_every_result_is_canonical(a, b, order, unit, n):
    f = PowerSeries("x", a, order)
    g = PowerSeries("x", [unit] + b, order)
    nilpotent = PowerSeries("x", [0] + b, order)
    results = [
        f,
        f + g,
        f - g,
        f * g,
        f.divide(g),
        f ** n,
        f.compose(nilpotent),
        ps_exp(unit, order),
        PowerSeries("x", [0, unit] + b, order + 1).revert(),
    ]
    for h in results:
        _assert_canonical(h)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(product_coeffs, max_size=9),
    st.lists(product_coeffs, max_size=8),
    rationals.filter(bool),
)
def test_equal_series_share_one_integer_form(a, b, w):
    f = PowerSeries("x", a, 8)
    g = PowerSeries("x", [w] + b, 8)
    longer = PowerSeries("x", f.coeffs + (w,), 9)
    routes = [
        PowerSeries("x", f.coeffs, 8),
        PowerSeries._canonical("x", 8, 6 * f.den, [6 * x for x in f.nums]),
        PowerSeries._canonical("x", 8, longer.den, longer.nums[:9]),
        f * PowerSeries.constant("x", 1, 8),
        (f + g) - g,
        f.divide(g) * g,
        (f * g).divide(g),
        f.scale(w).scale(1 / w),
        (f + PowerSeries.constant("x", w, 8)) - PowerSeries.constant("x", w, 8),
        f.compose(PowerSeries.identity("x", 8)),
    ]
    for h in routes:
        assert (h.variable, h.order, h.den, h.nums) == (f.variable, f.order, f.den, f.nums)
        assert hash(h) == hash(f)
    assert ps_exp(w, 8) * ps_exp(w, 8) == ps_exp(2 * w, 8)
    assert ps_exp(w, 8) ** 3 == ps_exp(3 * w, 8)


def test_coeffs_are_fractions_and_the_integers_are_immutable():
    f = PowerSeries("x", [1, Rational(1, 2), 0, 3], 5)
    assert (f.den, f.nums) == (2, (2, 1, 0, 6, 0, 0))
    assert f.coeffs == (1, Rational(1, 2), 0, 3, 0, 0)
    assert all(type(c) is Fraction for c in f.coeffs)
    assert type(f.coeff(0)) is Fraction and type(f.coeff(2)) is Fraction
    for name in ("variable", "order", "den", "nums", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    assert f == PowerSeries("x", [1, Rational(1, 2), 0, 3], 5)
    # the order is a required argument, so repr passes it
    assert eval(repr(f)) == f


@settings(max_examples=60, deadline=None)
@given(st.one_of(rationals, big_rationals), st.integers(min_value=0, max_value=12))
@example(3, 5)
@example(0, 4)
@example(Rational(-7, 2), 0)
def test_ps_exp_is_a_power_over_a_factorial_term_by_term(a, order):
    e = ps_exp(a, order)
    assert e.order == order
    assert e.coeffs == tuple(Fraction(a) ** n / math.factorial(n) for n in range(order + 1))


def test_closed_form_series_are_canonical_at_order_128():
    # F_n = (2^{1-n} - 1) B_n / n! and G_{2m} = E_{2m} / (2 4^m (2m)!), as Fractions
    order = 128
    L, lb = invariants._bernoulli_over(order)
    secant = invariants._secant_numbers(order // 2)
    f_closed = [Fraction((2 - 2**n) * lb[n], L * 2**n * math.factorial(n)) for n in range(order + 1)]
    g_closed = [
        Fraction(0 if n % 2 else (-1) ** (n // 2) * secant[n // 2], 2**(n + 1) * math.factorial(n))
        for n in range(order + 1)
    ]
    for series, closed in ((_ahat_factor(order), f_closed), (invariants._inv_two_cosh(order), g_closed)):
        _assert_canonical(series)
        assert series.coeffs == tuple(closed)
        assert series.den == math.lcm(*[c.denominator for c in closed])
