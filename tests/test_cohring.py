"""Normal-form arithmetic in Q[u,v]/(v^2, u^{2k} - c*u^{2k-1}*v)."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from etainv import cohring
from etainv.cohring import (
    CohClass,
    InsufficientOrder,
    InvalidParams,
    NonNilpotentArgument,
    RingSpec,
    SpecMismatch,
    coh_eval_series,
    coh_integrate,
)
from etainv.coeffcore import Rational
from etainv.invariants import ahat_Bc
from etainv.series import PowerSeries, ps_exp


def test_spec_validation():
    with pytest.raises(InvalidParams, match=r"^k must be >= 2 \(standing assumption\), got k=1$"):
        RingSpec(1, 1)
    with pytest.raises(InvalidParams, match=r"^c must be odd \(standing assumption\), got c=2$"):
        RingSpec(2, 2)
    # c is held to the same work limit as in FamilyParams
    with pytest.raises(InvalidParams, match=r"^\|c\| must be < 2\^63 \(work limit\), got a 81-bit c$"):
        RingSpec(2, 2**80 + 1)


@pytest.mark.parametrize(
    "k, c", [(2.0, 1), (2, 1.0), (True, 1), (2, True), (Fraction(2), 1), (2, Fraction(1)), ("2", 1)]
)
def test_spec_refuses_a_k_or_c_that_is_not_an_int(k, c):
    # RingSpec(2, 1.0) used to be accepted, and u**4 then failed inside gcd
    name, value = ("k", k) if type(k) is not int else ("c", c)
    with pytest.raises(InvalidParams, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        RingSpec(k, c)


def test_defining_relations():
    for k, c in ((2, 1), (2, 3), (3, -1)):
        spec = RingSpec(k, c)
        u = CohClass.u(spec)
        v = CohClass.v(spec)
        assert v * v == CohClass(spec)
        assert u ** (2 * k) == (u ** (2 * k - 1) * v).scale(c)
        assert not u ** (2 * k) * v
        assert not u ** (2 * k + 1)


def test_normal_form_is_canonical():
    spec = RingSpec(2, 3)
    # u^4 and 3*u^3*v must be literally equal after reduction
    a = CohClass.u(spec) ** 4
    b = (CohClass.u(spec) ** 3 * CohClass.v(spec)).scale(3)
    assert a == b
    assert hash(a) == hash(b)


def test_constructor_refuses_more_than_2k_coefficients_per_part():
    spec = RingSpec(2, 3)
    with pytest.raises(ValueError, match=r"^at most 2k = 4 coefficients per part, got 5 and 0$"):
        CohClass(spec, [0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match=r"^at most 2k = 4 coefficients per part, got 1 and 5$"):
        CohClass(spec, [1], [0, 0, 0, 0, Fraction(1, 2)])
    assert CohClass(spec, [0] * 4, [0, 0, 0, 1]) == CohClass.u(spec) ** 3 * CohClass.v(spec)


def _rationals(x):
    """The u- and v-part coefficients of x as Fractions."""
    return [Fraction(n, x.den) for n in x.P], [Fraction(n, x.den) for n in x.Q]


def _chern_total(spec):
    # (1 + 2v) * ((1+u)^{2k} - c*v*(1+u)^{2k-1}), the total Chern class of the base
    one, u, v = CohClass.one(spec), CohClass.u(spec), CohClass.v(spec)
    pow_2k1 = (one + u) ** (2 * spec.k - 1)
    return (one + v.scale(2)) * (pow_2k1 * (one + u) - v.scale(spec.c) * pow_2k1)


def test_chern_total_frozen():
    got = _chern_total(RingSpec(2, 1))
    assert got == CohClass(RingSpec(2, 1), [1, 4, 6, 4], [1, 5, 9, 8])
    got3 = _chern_total(RingSpec(2, 3))
    assert got3 == CohClass(RingSpec(2, 3), [1, 4, 6, 4], [-1, -1, 3, 8])


def test_chern_degree2_part():
    # degree-2 part is 2k*u + (2-c)*v
    for k, c in ((2, 1), (2, 3), (3, 5)):
        spec = RingSpec(k, c)
        p, q = _rationals(_chern_total(spec))
        part = CohClass.from_uv(spec, p[1], q[0])
        assert part == CohClass(spec, [0, 2 * k], [2 - c])


def _degrees(x):
    """The cohomological degrees of x's nonzero components: u^i in 2i, u^i*v in 2i + 2."""
    return {2 * i for i, c in enumerate(x.P) if c} | {2 * i + 2 for i, c in enumerate(x.Q) if c}


def test_from_uv_and_graded_parts():
    spec = RingSpec(2, 1)
    e = CohClass.from_uv(spec, 2, 3)
    assert _degrees(e) == {2}
    assert _degrees(e * e) == {4}
    mixed = e + CohClass.one(spec)
    assert _degrees(mixed) == {0, 2}
    # the degree-0 and degree-2 parts, read from P, Q and den, add back up to the class
    p, q = _rationals(mixed)
    assert CohClass(spec, p[:1]) + CohClass.from_uv(spec, p[1], q[0]) == mixed


def test_spec_mismatch():
    a = CohClass.u(RingSpec(2, 1))
    b = CohClass.u(RingSpec(2, 3))
    with pytest.raises(SpecMismatch):
        a + b
    with pytest.raises(SpecMismatch):
        a * b
    with pytest.raises(SpecMismatch):
        b * a
    assert a != b
    # distinct but equal specs name one ring
    c = CohClass.u(RingSpec(2, 1))
    assert c.spec is not a.spec
    assert a == c and hash(a) == hash(c)
    assert a * c == CohClass(RingSpec(2, 1), (0, 0, 1))
    assert a + c == a.scale(2)


@pytest.mark.parametrize("k", [2, 5])
def test_equal_specs_multiply_and_different_ones_raise(k):
    # the product takes the identity of the two specs as the fast case and
    # falls back to ==, on the kernel (2k <= 8) and on the loop (2k = 10)
    x = CohClass(RingSpec(k, 3), [1, Fraction(1, 2), 3], [0, -1, Fraction(2, 3)])
    y = CohClass(RingSpec(k, 3), [2, 0, Fraction(-1, 5)], [4, 1])
    same = CohClass(x.spec, [2, 0, Fraction(-1, 5)], [4, 1])
    assert y.spec is not x.spec and y.spec == x.spec
    assert x * y == x * same and y * x == same * x
    assert (x * y).spec is x.spec and (y * x).spec is y.spec
    for other in (RingSpec(k, 1), RingSpec(k + 1, 3)):
        z = CohClass(other, [1], [1])
        with pytest.raises(SpecMismatch, match=re.escape(f"{x.spec} vs {other}")):
            x * z
        with pytest.raises(SpecMismatch, match=re.escape(f"{other} vs {x.spec}")):
            z * x


def test_scalar_multiplication():
    spec = RingSpec(2, 1)
    u = CohClass.u(spec)
    assert u.scale(Rational(1, 2)).scale(2) == u
    assert u.scale(3) == u + u + u
    # * takes two classes: a scalar goes through scale
    for product in (lambda: 2 * u, lambda: u * 2, lambda: u * Rational(1, 2)):
        with pytest.raises(TypeError):
            product()


def test_scale_takes_only_an_int_or_a_fraction():
    # scale(0.1) would hold 3602879701896397/36028797018963968, and a str
    # is no number: a scale factor is exact or refused
    u = CohClass.u(RingSpec(2, 1))
    for factor in (0.1, 2.0, "1/2"):
        message = f"^scale factor must be int or Fraction, got {type(factor).__name__} "
        with pytest.raises(TypeError, match=message):
            u.scale(factor)
    assert u.scale(Fraction(1, 10)) == CohClass(u.spec, (0, Fraction(1, 10)))


def test_equality_compares_one_shared_spec_by_identity(monkeypatch):
    # classes of one ring hold the same RingSpec: comparing them calls no
    # RingSpec.__eq__, while equal but distinct specs still name one ring
    calls = []
    spec_eq = RingSpec.__eq__

    def counting_eq(self, other):
        calls.append((self, other))
        return spec_eq(self, other)

    monkeypatch.setattr(RingSpec, "__eq__", counting_eq)
    spec = RingSpec(3, 1)
    u = CohClass.u(spec)
    assert u == CohClass.u(spec) and u != CohClass.v(spec)
    assert calls == []
    twin = RingSpec(3, 1)
    assert u == CohClass.u(twin)
    assert calls == [(spec, twin)]
    assert u != CohClass.u(RingSpec(3, -1)) and u != CohClass.u(RingSpec(4, 1))


def test_integration_reads_top_class():
    spec = RingSpec(2, 1)
    u = CohClass.u(spec)
    v = CohClass.v(spec)
    assert coh_integrate(u ** 3 * v) == 1
    assert coh_integrate(u ** 4) == 1
    assert coh_integrate(u ** 3) == 0
    assert coh_integrate(CohClass.one(spec)) == 0


def test_eval_series_geometric():
    spec = RingSpec(2, 1)
    u = CohClass.u(spec)
    geom = PowerSeries("x", [1] * 11, 10)
    got = coh_eval_series(geom, u)
    expected = CohClass.one(spec) + u + u ** 2 + u ** 3 + u ** 4
    assert got == expected


def test_eval_series_exp_additivity():
    spec = RingSpec(2, 1)
    x = CohClass.from_uv(spec, 1, 2)
    y = CohClass.from_uv(spec, 3, -1)
    e = ps_exp(Rational(1), 10)
    assert coh_eval_series(e, x) * coh_eval_series(e, y) == coh_eval_series(e, x + y)


def test_eval_series_guards():
    spec = RingSpec(2, 1)
    u = CohClass.u(spec)
    with pytest.raises(NonNilpotentArgument):
        coh_eval_series(ps_exp(Rational(1), 10), CohClass.one(spec))
    with pytest.raises(InsufficientOrder):
        coh_eval_series(ps_exp(Rational(1), 3), u)
    v = CohClass.v(spec)
    message = r"^series are evaluated only at degree-2 classes a\*u \+ b\*v$"
    for x in (u * u, u * v, u + u * v):
        with pytest.raises(ValueError, match=message):
            coh_eval_series(ps_exp(Rational(1), 10), x)


def test_repr_prints_each_nonzero_coefficient_in_lowest_terms():
    spec = RingSpec(2, 1)
    mixed = CohClass(spec, [Fraction(1, 2), 0, -3], [0, Fraction(-2, 3), 0, 5])
    assert repr(mixed) == "CohClass((1/2)u^0 + (-3/1)u^2 + (-2/3)u^1v + (5/1)u^3v)"
    assert repr(CohClass(spec)) == "CohClass(0)"
    assert repr(CohClass.u(spec) ** 4) == "CohClass((1/1)u^3v)"


def test_immutable():
    a = CohClass.u(RingSpec(2, 1))
    for name in ("spec", "den", "P", "Q"):
        with pytest.raises(AttributeError):
            setattr(a, name, ())
    assert (a.den, a.P, a.Q) == (1, (0, 1, 0, 0), (0, 0, 0, 0))


def test_float_coefficients_raise_type_error():
    # 0.1 would be held as 3602879701896397/36028797018963968; as the
    # parameter gate refuses a float s, a float is never taken as exact
    spec = RingSpec(2, 1)
    message = "^CohClass coefficients must be int or Fraction, got float "
    for p, q in (((0.1,), ()), ((1, 2), (0, 0.5)), ((Fraction(1, 3), 2.0), ())):
        with pytest.raises(TypeError, match=message):
            CohClass(spec, p, q)
    assert CohClass(spec, (Fraction(1, 10),)) == CohClass(spec, (1,)).scale(Fraction(1, 10))


def _assert_normal_form(x):
    n = 2 * x.spec.k
    assert len(x.P) == len(x.Q) == n
    assert all(type(c) is int for c in x.P + x.Q)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.P, *x.Q) == 1
    rebuilt = CohClass(x.spec, *_rationals(x))
    assert x == rebuilt
    assert hash(x) == hash(rebuilt)


_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
# large pairwise coprime (Mersenne prime) denominators: clearing a factor
# multiplies them together
_big_fractions = st.builds(
    Fraction, st.integers(-(10**20), 10**20), st.sampled_from((2**61 - 1, 2**89 - 1, 2**107 - 1))
)


@st.composite
def _class_pairs(draw, coeff=_fractions):
    # k = 2..4 multiply through the generated kernel, k = 5, 6 through _mul_loop
    k = draw(st.integers(2, 6))
    spec = RingSpec(k, draw(st.sampled_from((1, -1, 3, -5))))
    coeffs = st.lists(coeff, min_size=2 * k, max_size=2 * k)
    a = CohClass(spec, draw(coeffs), draw(coeffs))
    b = CohClass(spec, draw(coeffs), draw(coeffs))
    return a, b


@settings(max_examples=40, deadline=None)
@given(_class_pairs(), _fractions, st.integers(-7, 7), st.integers(0, 5))
def test_ring_results_stay_in_normal_form(pair, frac, m, power):
    a, b = pair
    spec = a.spec
    p, q = _rationals(a)
    degree_2 = CohClass.from_uv(spec, p[1], q[0])
    results = [
        a * b,
        a + b,
        a - b,
        -a,
        a.scale(m),
        a.scale(frac),
        a * CohClass.one(spec).scale(m),
        a ** power,
        coh_eval_series(ps_exp(frac, 2 * spec.k + 1), degree_2),
        CohClass(spec, [m] * (2 * spec.k), [1]),
    ]
    for x in results:
        _assert_normal_form(x)


@settings(max_examples=60, deadline=None)
@given(_class_pairs(st.one_of(st.just(0), _fractions, _big_fractions)), _fractions)
def test_equal_classes_share_one_integer_form(pair, w):
    # (den, P, Q) is canonical: one class built by different routes has one
    # integer form and one hash
    a, b = pair
    spec = a.spec
    n = 2 * spec.k
    one = CohClass.one(spec)
    p, q = _rationals(a)
    # w*u^{2k} reduces to c*w*u^{2k-1}*v, so this sum reduces to a
    q_less_fold = q[:-1] + [q[-1] - spec.c * w]
    routes = [
        CohClass(spec, p, q),
        CohClass(spec, a.P, a.Q).scale(Fraction(1, a.den)),
        CohClass(spec, p, q_less_fold) + (CohClass.u(spec) ** n).scale(w),
        a * one,
        one * a,
        (a + b) - b,
        a.scale(2) * one.scale(Fraction(1, 2)),
    ]
    for x in routes:
        _assert_normal_form(x)
        assert (x.den, x.P, x.Q) == (a.den, a.P, a.Q)
        assert x == a and hash(x) == hash(a)
    # an integer class built from ints and from Fractions
    whole = CohClass(spec, a.P, a.Q)
    assert whole.den == 1
    assert CohClass(spec, [Fraction(x) for x in a.P], [Fraction(x) for x in a.Q]) == whole
    assert (a - a).den == 1 and not (a - a)


def _full_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _untruncated_product(a, b):
    """a * b with every degree kept, then reduced: u^{2k} folds into c*u^{2k-1}*v."""
    (p1, q1), (p2, q2) = _rationals(a), _rationals(b)
    p = _full_product(p1, p2)
    q = [x + y for x, y in zip(_full_product(p1, q2), _full_product(q1, p2))]
    n = 2 * a.spec.k
    q[n - 1] += a.spec.c * p[n]
    return CohClass(a.spec, p[:n], q[:n])


@settings(max_examples=60, deadline=None)
@given(_class_pairs())
def test_product_is_reduced_untruncated_product(pair):
    # (p1 + v q1)(p2 + v q2) = p1 p2 + v (p1 q2 + q1 p2), every degree kept, then reduced
    a, b = pair
    assert a * b == _untruncated_product(a, b)


@settings(max_examples=40, deadline=None)
@given(_class_pairs(st.one_of(st.just(0), _fractions, _big_fractions)))
def test_product_with_large_coprime_denominators(pair):
    a, b = pair
    product = a * b
    assert product == _untruncated_product(a, b)
    _assert_normal_form(product)


@pytest.mark.parametrize("k", [5, 8, 12, 16])
@pytest.mark.parametrize("c", [1, -5])
def test_products_of_ahat_classes_past_the_kernel_bound(k, c):
    # the A-hat class has entries of about 100 bits at k = 16, far past what
    # the hypothesis strategies draw; every 2k here is past _KERNEL_MAX_N
    spec = RingSpec(k, c)
    ahat = ahat_Bc(spec)
    assert 2 * k > cohring._KERNEL_MAX_N
    for s, t in ((2, 3), (-6, 7)):
        degree_2 = CohClass.from_uv(spec, s, t)
        assert ahat * degree_2 == degree_2 * ahat == _untruncated_product(ahat, degree_2)
    assert ahat * ahat == _untruncated_product(ahat, ahat)


_BIG = 2**63 - 1


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_kernel_is_the_row_loop(n):
    # built past _KERNEL_MAX_N too: the bound chooses speed, not results.  The
    # one-step kernel returns the finished class that _canonical builds from
    # the loop's numerators, over den = den1*den2
    rng = random.Random(n)
    zero = (0,) * n

    def row():
        entries = (rng.choice((0, rng.randint(-9, 9), rng.randint(-_BIG, _BIG))) for _ in range(n))
        return tuple(entries)

    def multiple(g):
        # entries sharing the factor g, so the product's numerators share g^2
        return tuple(g * rng.randint(-9, 9) for _ in range(n))

    ahat = ahat_Bc(RingSpec(n // 2, 3))
    cases = [
        (1, (zero, zero, zero, zero)),
        (6, (zero, row(), row(), row())),
        (1, (row(), zero, row(), zero)),
        (ahat.den**2, (ahat.P, ahat.Q, ahat.P, ahat.Q)),
        (ahat.den, (ahat.P, ahat.Q, row(), row())),
        # the gcd of the result with den is 36, 2^62 or a 64-bit odd number
        (72, (multiple(6), multiple(6), multiple(6), multiple(6))),
        (2**63, (multiple(2**31), multiple(2**31), multiple(2**31), multiple(2**31))),
        (3 * _BIG, (multiple(_BIG), row(), multiple(_BIG), zero)),
        *[(rng.randint(2, _BIG), (row(), row(), row(), row())) for _ in range(10)],
    ]
    kernel = cohring._kernel(n)
    for den, args in cases:
        for c in (1, -5, _BIG, -_BIG):
            spec = RingSpec(n // 2, c)
            expected = CohClass._canonical(spec, den, *cohring._mul_loop(*args, c))
            got = kernel(spec, den, *args, c)
            assert type(got) is CohClass and got.spec is spec
            assert (got.den, got.P, got.Q) == (expected.den, expected.P, expected.Q)
    for den, args in cases[5:8]:
        pp, vq = cohring._mul_loop(*args, 1)
        assert gcd(den, *pp, *vq) > 1


def test_kernels_are_built_on_first_use_up_to_the_bound():
    # nothing is compiled at import; the first product at 2k <= _KERNEL_MAX_N
    # builds that kernel, later ones reuse it, and larger rings run the loop
    code = """
import etainv.cli
from etainv import cohring
from etainv.cohring import CohClass, RingSpec
assert cohring._KERNEL_MAX_N == 8
info = [cohring._kernel.cache_info()[:2]]
for k in (2, 2, 4, 5, 6):
    u = CohClass.u(RingSpec(k, 1))
    assert u * u == CohClass(u.spec, (0, 0, 1))
    info.append(cohring._kernel.cache_info()[:2])
print(info)
"""
    src = str(Path(cohring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[(0, 0), (0, 1), (1, 1), (1, 2), (1, 2), (1, 2)]\n"


def _eval_series_by_products(f, x):
    # sum_n f_n x^n by repeated ring products: the reference for coh_eval_series
    acc = CohClass.one(x.spec).scale(f.coeffs[0])
    power = CohClass.one(x.spec)
    for n in range(1, 2 * x.spec.k + 1):
        power = power * x
        if f.coeffs[n]:
            acc = acc + power.scale(f.coeffs[n])
    return acc


_big_ints = st.integers(-(2**62), 2**62)


@st.composite
def _series_and_degree_2_class(draw):
    k = draw(st.integers(2, 6))
    spec = RingSpec(k, draw(st.sampled_from((1, -1, 3, -5))))
    # a = 0 is the 2v factor of A-hat(B_c); integers up to 2^62 are the Euler
    # class su + tv at the parameter bound; small fractions and dense or
    # sparse small-fraction series are the general cases
    a = draw(st.one_of(st.just(0), _fractions, _big_ints, _big_fractions))
    b = draw(st.one_of(_fractions, _big_ints, _big_fractions))
    coeff = draw(st.sampled_from((
        _fractions,
        st.one_of(st.just(0), _fractions),
        st.one_of(st.just(0), _big_fractions),
    )))
    order = 2 * k + draw(st.integers(0, 3))
    f = PowerSeries("x", draw(st.lists(coeff, min_size=order + 1, max_size=order + 1)), order)
    return f, CohClass.from_uv(spec, a, b)


@settings(max_examples=120, deadline=None)
@given(_series_and_degree_2_class())
def test_eval_series_at_degree_2_classes_matches_repeated_products(case):
    f, x = case
    got = coh_eval_series(f, x)
    assert got == _eval_series_by_products(f, x)
    _assert_normal_form(got)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5),
    st.sampled_from((1, -3, 5)),
    st.integers(-(10**20), 10**20),
    st.integers(-(10**20), 10**20),
    st.lists(st.integers(-9, 9), max_size=10),
    st.lists(st.integers(-9, 9), max_size=10),
)
def test_int_constructors_equal_their_fraction_builds(k, c, a, b, p, q):
    spec = RingSpec(k, c)
    p, q = p[: 2 * k], q[: 2 * k]
    pairs = [
        (CohClass.one(spec), CohClass(spec, (Fraction(1),))),
        (CohClass.u(spec), CohClass(spec, (Fraction(0), Fraction(1)))),
        (CohClass.v(spec), CohClass(spec, (), (Fraction(1),))),
        (CohClass.from_uv(spec, a, b), CohClass.from_uv(spec, Fraction(a), Fraction(b))),
        (CohClass(spec, p, q), CohClass(spec, [Fraction(x) for x in p], [Fraction(x) for x in q])),
    ]
    for x, y in pairs:
        _assert_normal_form(x)
        assert (x.den, x.P, x.Q) == (y.den, y.P, y.Q)
        assert x == y and hash(x) == hash(y)


def test_int_classes_are_built_without_a_rational(monkeypatch):
    spec = RingSpec(3, -1)
    u_minus_v = CohClass.from_uv(spec, 1, -1)

    def refuse(*args):
        raise AssertionError("an all-int class built a rational")

    monkeypatch.setattr(cohring, "Rational", refuse)
    built = [
        CohClass.one(spec),
        CohClass.u(spec),
        CohClass.v(spec),
        CohClass.from_uv(spec, 1, -1),
        CohClass(spec, [0, 2, 0, 1], [5]),
    ]
    assert built[3] == u_minus_v
    assert all(x.den == 1 for x in built)
