"""Local datum, eta reports, the three A1 paths, and family scans."""

import math
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from etainv import invariants
from etainv.cohring import MAX_K, CohClass, RingSpec, coh_eval_series, coh_integrate
from etainv.coeffcore import Rational, UniPoly
from etainv.invariants import (
    AffinityViolation,
    EtaReport,
    FamilyParams,
    InvalidParams,
    SIGN_PLUS,
    a1_direct,
    a1_poly_in_s,
    a1_residue,
    ahat_Bc,
    decompose_affine_in_t,
    family_scan,
    find_good_s,
    local_datum,
    relative_eta,
)
from etainv.series import PowerSeries, ps_exp
from etainv.zcohomology import cohomology_Mbar


# -- parameter validation --------------------------------------------------


def test_params_validation():
    FamilyParams(2, 1, 2, 1)
    with pytest.raises(InvalidParams):
        FamilyParams(1, 1, 2, 1)
    with pytest.raises(InvalidParams):
        FamilyParams(2, 2, 2, 1)
    with pytest.raises(InvalidParams):
        FamilyParams(2, 1, 3, 1)
    with pytest.raises(InvalidParams):
        FamilyParams(2, 1, 0, 1)
    with pytest.raises(InvalidParams):
        FamilyParams(2, 1, 2, 4)
    with pytest.raises(InvalidParams):
        FamilyParams(2, 1, 6, 3)


def test_negative_parameters_allowed():
    assert local_datum(FamilyParams(2, 1, -2, 1)) is not None
    assert local_datum(FamilyParams(2, -1, 2, -1)) is not None


# -- integrand ----------------------------------------------------------------


def test_integrand_frozen_normal_form():
    # the four-factor product that local_datum integrates, at (k, c, s, t) = (2, 1, 2, 1)
    spec = RingSpec(2, 1)
    got = ahat_Bc(spec) * invariants._sech_factor(spec, 2, 1)
    expected = CohClass(
        RingSpec(2, 1),
        [Rational(1, 2), 0, Rational(-1, 3), 0],
        [0, Rational(-5, 24), 0, Rational(3, 8)],
    )
    assert got == expected
    assert coh_integrate(got) == Rational(3, 8)


# -- local datum and eta ----------------------------------------------------


def test_local_datum_frozen():
    vals = [local_datum(FamilyParams(2, 1, 2, t)) for t in (1, 3, 5, 7)]
    assert vals == [Rational(3, 8), Rational(7, 8), Rational(11, 8), Rational(15, 8)]


def test_decompose_affine_frozen():
    assert decompose_affine_in_t(2, 1, 2) == (Rational(1, 8), Rational(-1, 4))
    assert decompose_affine_in_t(2, 3, 2) == (Rational(3, 8), Rational(-1, 4))
    assert decompose_affine_in_t(2, 1, -2) == (Rational(1, 8), Rational(1, 4))


def test_decompose_handles_probe_noncoprime_s():
    # probes use t in {1,3,5}; s divisible by 3 and 5 must still work
    a0, a1 = decompose_affine_in_t(2, 1, 6)
    assert a1 == a1_direct(2, 6)
    a0, a1 = decompose_affine_in_t(2, 1, 10)
    assert a1 == a1_direct(2, 10)


def test_relative_eta_report():
    report = relative_eta(FamilyParams(2, 1, 2, 3))
    assert report.a_value == Rational(7, 8)
    assert report.eta_rel == Rational(-7, 4)
    assert report.eta_rel == -2 * report.a_value
    assert report.A0 == Rational(1, 8)
    assert report.A1 == Rational(-1, 4)
    assert report.sign_convention == SIGN_PLUS


def test_report_to_dict_exact_and_approx():
    report = relative_eta(FamilyParams(2, 1, 2, 3))
    d = report.to_dict()
    assert d["a_value"] == "7/8"
    assert d["eta_rel"] == "-7/4"
    assert d["A1"] == "-1/4"
    assert "a_value_approx" not in d
    da = report.to_dict(approx=True)
    assert da["a_value_approx"] == 0.875
    assert da["eta_rel_approx"] == -1.75


@pytest.mark.parametrize("a_value, name", [
    (Rational(2**1030, 3), "a_value"),  # both out of range; a_value is rendered first
    (Rational(2**1023), "eta_rel"),  # a_value fits, eta_rel = -2^1024 does not
])
def test_report_approx_outside_float_range_is_a_value_error(a_value, name):
    # no parameter is invalid there: a plain ValueError, which the CLI still maps to exit 1
    report = EtaReport(FamilyParams(2, 1, 2, 3), a_value, -2 * a_value, Rational(0), Rational(0))
    assert report.to_dict()["a_value"] == f"{a_value.numerator}/{a_value.denominator}"
    with pytest.raises(ValueError, match=rf"^--approx: {name} is outside float range") as info:
        report.to_dict(approx=True)
    assert not isinstance(info.value, InvalidParams)


def test_eta_rational_in_general():
    # integer-valued eta is not expected; rationals with denominators are fine
    report = relative_eta(FamilyParams(3, 1, 2, 1))
    assert report.eta_rel == -2 * report.a_value


@pytest.mark.parametrize("k", [2, 3, 5, 8, 16])
def test_reports_truncated_at_2k_are_exact(k):
    # the integrand built here from series at 8k+4, four times the 2k that
    # reports use, and with A-hat(B_c) as ring powers rather than the series
    # power inside ahat_Bc, must give the same datum and split
    ahat_series = invariants._ahat_factor(8 * k + 4)
    sech_series = invariants._inv_two_cosh(8 * k + 4)

    def f(x):
        return coh_eval_series(ahat_series, x)

    for c, s, t in ((1, 2, 3), (-3, 4, -5), (5, -6, 7)):
        params = FamilyParams(k, c, s, t)
        spec = params.spec
        ahat = (
            f(CohClass.v(spec).scale(2))
            * f(CohClass.u(spec)) ** (2 * k - 1)
            * f(CohClass.from_uv(spec, 1, -c))
        )
        a = coh_integrate(ahat * coh_eval_series(sech_series, CohClass.from_uv(spec, s, t)))
        report = relative_eta(params)
        assert report.a_value == a
        assert local_datum(params) == a
        assert decompose_affine_in_t(k, c, s) == (report.A0, report.A1)


def test_report_builds_one_entry_of_each_series_cache(cold_caches):
    relative_eta(FamilyParams(6, 1, 2, 3))
    assert invariants._ahat_factor.cache_info().misses == 1
    assert invariants._inv_two_cosh.cache_info().misses == 1


@pytest.mark.parametrize("k", [2, 9, 64])
def test_a1_poly_builds_no_series(cold_caches, monkeypatch, k):
    # A1(s) comes from the Euler and central factorial numbers: on cold
    # caches it builds no F, no G, no F^{2k-1} and no series power
    def refuse(*args):
        raise AssertionError("a1_poly_in_s raised a series to a power")

    monkeypatch.setattr(PowerSeries, "__pow__", refuse)
    poly = a1_poly_in_s(k)
    monkeypatch.undo()
    for cache in (invariants._ahat_factor, invariants._inv_two_cosh, invariants._ahat_power):
        assert cache.cache_info().misses == 0, cache
    assert poly(2) == Rational((-1) ** (k - 1) * k, 2 ** (k + 1))


def test_warm_request_raises_no_series_power(cold_caches, monkeypatch):
    # F^{2k-1}, A1(s) and the ring certificate are built once per k; a request
    # at a warm k with new (c, s, t) builds no ring object and no series power
    relative_eta(FamilyParams(8, 1, 2, 3))
    calls = {"pow": 0, "ahat_Bc": 0, "coh_eval_series": 0, "mul": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def refuse(*args, **kwargs):
        raise AssertionError("a warm request built a RingSpec")

    monkeypatch.setattr(PowerSeries, "__pow__", counted("pow", PowerSeries.__pow__))
    monkeypatch.setattr(CohClass, "__mul__", counted("mul", CohClass.__mul__))
    monkeypatch.setattr(invariants, "RingSpec", refuse)
    for name in ("ahat_Bc", "coh_eval_series"):
        monkeypatch.setattr(invariants, name, counted(name, getattr(invariants, name)))
    report = relative_eta(FamilyParams(8, -5, 6, 7))
    assert calls == {"pow": 0, "ahat_Bc": 0, "coh_eval_series": 0, "mul": 0}
    monkeypatch.undo()
    assert report.a_value == local_datum(FamilyParams(8, -5, 6, 7))


def test_ring_certificate_builds_for_every_k(cold_caches):
    for k in range(2, MAX_K + 1):
        Y, Z = invariants._ring_moments(k)
        assert isinstance(Y, UniPoly) and isinstance(Z, UniPoly), k
        assert (Y.degree(), Z.degree()) == (2 * k, 2 * k - 1), k
        # Y = -s A1(s)/(2k) is even and Z = -A1(s) is odd
        assert not any(Y.nums[1::2]) and not any(Z.nums[0::2]), k
        # the certificate accepted the polynomial that reports read
        a1 = a1_poly_in_s(k)
        assert Z == UniPoly("s", [-x for x in a1.nums], a1.den), k
    assert invariants._ring_moments.cache_info().misses == MAX_K - 1
    assert invariants._a1_poly.cache_info().misses == MAX_K - 1


def _shift_moments(which, shift):
    """A _moments_at that adds shift(c) * d to coefficient 1 of M or N at each c."""
    moments_at = invariants._moments_at

    def shifted(k, c):
        d, M, N = moments_at(k, c)
        poly = M if which == "M" else N
        poly[1] += shift(c) * d
        return d, M, N

    return shifted


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("which, shift, message", [
    # shifted alike at every c: X(s) moves by s, the fit in c still holds
    ("M", lambda c: 1, r"identity fails at k=\d+: X\(s\) != 0$"),
    # shifted by c: Y(s) moves by s
    ("M", lambda c: c, r"identity fails at k=\d+: Y\(s\) != -s\*A1\(s\)/\(2k\)$"),
    ("N", lambda c: 1, r"identity fails at k=\d+: Z\(s\) != -A1\(s\)$"),
    # only at one c: that build leaves the fit
    ("M", lambda c: c == -5, r"at c=-5 is not X\(s\) \+ c\*Y\(s\) \+ t\*Z\(s\)"),
    ("N", lambda c: c == 3, r"at c=3 is not X\(s\) \+ c\*Y\(s\) \+ t\*Z\(s\)"),
])
def test_corrupted_ring_certificate_is_refused(cold_caches, monkeypatch, k, which, shift, message):
    monkeypatch.setattr(invariants, "_moments_at", _shift_moments(which, shift))
    with pytest.raises(AffinityViolation, match=r"^ring integral " + message):
        invariants._ring_moments(k)
    with pytest.raises(AffinityViolation, match=r"^ring integral " + message):
        relative_eta(FamilyParams(k, 1, 2, 3))
    monkeypatch.undo()
    assert relative_eta(FamilyParams(k, 1, 2, 3)).a_value == local_datum(FamilyParams(k, 1, 2, 3))


@pytest.mark.parametrize("k", [2, 16, 64])
def test_production_calls_no_exp_and_no_division(cold_caches, monkeypatch, k):
    def refuse(*args, **kwargs):
        raise AssertionError("production built a series through exp or division")

    monkeypatch.setattr(invariants, "ps_exp", refuse)
    monkeypatch.setattr(PowerSeries, "divide", refuse)
    relative_eta(FamilyParams(k, 3, 2, 5))
    assert family_scan(k, -1, 4, [1, 3, 5]).distinct_count == 3
    assert a1_poly_in_s(k).degree() == 2 * k - 1
    assert find_good_s(k, [2, -6]) == [2, -6]


def test_non_int_k_is_refused_before_any_cache(cold_caches):
    # a k-keyed cache would answer k = 2.0 with the entry of k = 2
    for warm in (False, True):
        for route in (a1_poly_in_s, lambda k: find_good_s(k, [2]), lambda k: FamilyParams(k, 1, 2, 3)):
            with pytest.raises(InvalidParams, match=r"^k must be an int, got 2\.0$"):
                route(2.0)
        relative_eta(FamilyParams(2, 1, 2, 3))
    with pytest.raises(InvalidParams, match=r"^k must be an int, got True$"):
        a1_poly_in_s(True)


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, True, 2, 3), "c must be an int, got True"),
        ((2, 1, 2.0, 3), "s must be an int, got 2.0"),
        ((2, 1, 2, 3.0), "t must be an int, got 3.0"),
        ((2, 1, 2, True), "t must be an int, got True"),
        # the type is checked before the standing assumptions
        ((1, 1.0, 2, 3), "c must be an int, got 1.0"),
        ((2, 2, 2, 1e30), "t must be an int, got 1e+30"),
    ],
)
def test_non_int_c_s_t_are_refused(args, message):
    with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
        FamilyParams(*args)


def test_non_int_t_is_refused_on_its_own_row():
    result = family_scan(2, 1, 2, [1, 3.0, True, 1e30, 5])
    assert [e.t for e in result.entries if e.report is not None] == [1, 5]
    assert [e.error for e in result.entries if e.report is None] == [
        "t must be an int, got 3.0",
        "t must be an int, got True",
        "t must be an int, got 1e+30",
    ]
    assert result.distinct_count == 2


def test_non_int_s_candidate_is_refused_before_a1(monkeypatch):
    def refuse(k):
        raise AssertionError("A1(s) was built for a non-int candidate")

    monkeypatch.setattr(invariants, "a1_poly_in_s", refuse)
    for bad in (2.0, True, "2", None):
        message = f"s must be an int, got {bad!r}"
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            find_good_s(2, [2, bad])


# -- the ps_exp/divide route as the oracle for the two closed forms ------------


def _ahat_factor_by_series(order: int) -> PowerSeries:
    denom = ps_exp(Rational(1, 2), order + 1) - ps_exp(Rational(-1, 2), order + 1)
    # divide numerator and denominator by x; the shifted series is a unit
    shifted = PowerSeries("x", denom.coeffs[1:], order)
    return PowerSeries.constant("x", 1, order).divide(shifted)


def _inv_two_cosh_by_series(order: int) -> PowerSeries:
    denom = ps_exp(Rational(1, 2), order) + ps_exp(Rational(-1, 2), order)
    return PowerSeries.constant("x", 1, order).divide(denom)


def test_ahat_factor_is_the_bernoulli_closed_form():
    # F_n = (2^{1-n} - 1) B_n / n! = (2 - 2^n) (L B_n) / (L 2^n n!), compared crosswise
    order = 128
    f = invariants._ahat_factor(order)
    assert f == _ahat_factor_by_series(order)
    L, lb = invariants._bernoulli_over(order)
    assert lb[:3] == [L, L // 2, L // 6]
    for n in range(order + 1):
        num, den = (2 - 2**n) * lb[n], L * 2**n * math.factorial(n)
        assert f.coeffs[n].numerator * den == num * f.coeffs[n].denominator, n


def test_inv_two_cosh_is_the_euler_closed_form():
    # G_{2m} = E_{2m} / (2 * 4^m * (2m)!) with E_{2m} = (-1)^m |E_{2m}|; odd G_n vanish
    order = 128
    g = invariants._inv_two_cosh(order)
    assert g == _inv_two_cosh_by_series(order)
    secant = invariants._secant_numbers(order // 2)
    assert secant[:4] == [1, 1, 5, 61]
    assert (g.coeffs[2], g.coeffs[4]) == (Rational(-1, 16), Rational(5, 768))
    for n in range(order + 1):
        if n % 2:
            assert not g.coeffs[n], n
            continue
        m = n // 2
        num, den = (-1) ** m * secant[m], 2 * 4**m * math.factorial(n)
        assert g.coeffs[n].numerator * den == num * g.coeffs[n].denominator, n


@pytest.mark.parametrize("order", [0, 1, 2, 5, 16, 49])
def test_closed_forms_match_the_series_route_at_every_order(order):
    assert invariants._ahat_factor(order) == _ahat_factor_by_series(order)
    assert invariants._inv_two_cosh(order) == _inv_two_cosh_by_series(order)


# -- A1 paths ----------------------------------------------------------------


def test_a1_direct_frozen_table():
    table = {
        (2, 2): Rational(-1, 4),
        (2, -2): Rational(1, 4),
        (3, 2): Rational(3, 16),
        (2, 4): Rational(-7, 4),
        (4, 2): Rational(-1, 8),
        (5, 2): Rational(5, 64),
        (2, 6): Rational(-23, 4),
        (3, 4): Rational(9, 2),
        (3, 6): Rational(517, 16),
    }
    for (k, s), expected in table.items():
        assert a1_direct(k, s) == expected, (k, s)


def test_a1_residue_matches_direct():
    for k in (2, 3, 4):
        for s in (2, -2, 4, 6):
            assert a1_residue(k, s) == a1_direct(k, s), (k, s)


@pytest.mark.parametrize("k", [16, 32])
def test_a1_residue_matches_direct_at_large_order(k):
    # reversion and composition at order 2k - 1, where the integers are largest
    assert a1_residue(k, 6) == a1_direct(k, 6)


def test_s2_closed_form_extends():
    # the closed form that the s2_closed_form criterion checks at k = 2..5
    for k in range(2, 17):
        assert a1_direct(k, 2) == Rational((-1) ** (k - 1) * k, 2 ** (k + 1))


def test_a1_poly_evaluations():
    # a1_direct and a1_residue truncate every series at u^{2k-1}, the
    # coefficient they read: one order lower cannot give it
    for k in range(2, 17):
        poly = a1_poly_in_s(k)
        assert isinstance(poly, UniPoly)
        for s in (2, -4, 6, 18, 1022):
            value = poly(Rational(s))
            assert value == a1_direct(k, s) == a1_residue(k, s), (k, s)


def test_a1_poly_matches_series_over_q_s():
    # oracle: the univariate generating series, run over Q at 2k distinct
    # rational s; both sides have degree <= 2k-1 in s, so they agree as polynomials
    for k in range(2, 25):
        poly = a1_poly_in_s(k)
        for s in (Rational(n, 3) for n in range(-k, k + 1) if n):
            assert poly(s) == invariants._a1_series(k, s), (k, s)
    with pytest.raises(InvalidParams):
        a1_poly_in_s(1)


def test_a1_poly_sign_pattern():
    # A1(s)/s has only even powers, all nonzero and of one sign (-1)^(k-1), so
    # it has no real root: A1(s) != 0 for every s != 0
    for k in range(2, 65):
        coeffs = a1_poly_in_s(k).coeffs
        assert len(coeffs) == 2 * k, k
        assert not any(coeffs[0::2]), k
        sign = (-1) ** (k - 1)
        assert all(c * sign > 0 for c in coeffs[1::2]), k


def test_a1_odd_in_s():
    for k in (2, 3):
        for s in (2, 4, 6):
            assert a1_direct(k, -s) == -a1_direct(k, s)


# -- s filtering and family scans -------------------------------------------


def test_find_good_s():
    assert find_good_s(2, [2, 4, -2, 6]) == [2, 4, -2, 6]
    with pytest.raises(InvalidParams):
        find_good_s(2, [3])
    with pytest.raises(InvalidParams):
        find_good_s(2, [0])


def test_family_scan_counts_and_errors():
    result = family_scan(2, 1, 2, [1, 3, 5])
    assert result.distinct_count == 3
    assert all(e.error is None for e in result.entries)
    mixed = family_scan(2, 1, 2, [1, 2, 3])
    assert mixed.distinct_count == 2
    bad = [e for e in mixed.entries if e.error is not None]
    assert len(bad) == 1 and bad[0].t == 2


def test_family_scan_rejects_invalid_k_c_s_before_any_row(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ring work started for invalid (k, c, s)")

    for name in ("ahat_Bc", "_ring_moments"):
        monkeypatch.setattr(invariants, name, refuse)
    for k, c, s, message in (
        (1, 1, 2, "k must be >= 2"),
        (2, 2, 2, "c must be odd"),
        (2, 1, 3, "s must be a nonzero even integer"),
        (2, 1, 0, "s must be a nonzero even integer"),
    ):
        with pytest.raises(InvalidParams, match=message):
            family_scan(k, c, s, [1, 2, 3])


def test_family_scan_to_dict_rows():
    d = family_scan(2, 1, 2, [1, 2]).to_dict()
    ok_rows = [r for r in d["rows"] if "error" not in r]
    err_rows = [r for r in d["rows"] if "error" in r]
    assert len(ok_rows) == 1 and ok_rows[0]["eta_rel"] == "-3/4"
    assert len(err_rows) == 1 and err_rows[0]["t"] == 2


def test_family_scan_large_all_distinct():
    result = family_scan(2, 1, 2, list(range(1, 40, 2)))
    assert result.distinct_count == len(result.entries) == 20


def _single_report_or_error(k, c, s, t):
    try:
        params = FamilyParams(k, c, s, t)
    except InvalidParams as exc:
        return None, str(exc)
    return relative_eta(params), None


def test_family_scan_matches_single_reports():
    # s = 6 and 18 make every t divisible by 3 an invalid row
    t_values = list(range(-5, 10))
    for k in (2, 3):
        for c in (1, -3):
            for s in (2, -4, 6, 18):
                result = family_scan(k, c, s, t_values)
                assert [e.t for e in result.entries] == t_values
                for entry in result.entries:
                    report, error = _single_report_or_error(k, c, s, entry.t)
                    assert entry.error == error, (k, c, s, entry.t)
                    assert entry.report == report, (k, c, s, entry.t)
                valid = [e.report for e in result.entries if e.report is not None]
                assert valid
                assert result.distinct_count == len({r.eta_rel for r in valid})


def test_family_scan_all_invalid_builds_no_ring_class(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ring certificate read for a scan with no valid t")

    for name in ("ahat_Bc", "_ring_moments"):
        monkeypatch.setattr(invariants, name, refuse)
    result = family_scan(2, 1, 6, [2, 3, 4, 9, 15])
    assert result.distinct_count == 0
    assert all(e.report is None and e.error for e in result.entries)


def _refuse(*args, **kwargs):
    raise AssertionError("series or ring work started before the limits were checked")


@st.composite
def _family_members(draw):
    k = draw(st.integers(2, 5))
    c = 2 * draw(st.integers(-5, 4)) + 1
    s = draw(st.sampled_from((1, -1))) * 2 * draw(st.integers(1, 9))
    t = 2 * draw(st.integers(-9, 9)) + 1
    assume(math.gcd(s, t) == 1)
    return FamilyParams(k, c, s, t)


@settings(max_examples=40, deadline=None)
@given(_family_members())
def test_univariate_split_matches_ring_probes(params):
    k, c, s = params.k, params.c, params.s
    report = relative_eta(params)
    assert (report.A0, report.A1) == decompose_affine_in_t(k, c, s)
    assert report.A0 == -c * s * report.A1 / (2 * k)
    assert report.a_value == -report.A1 * (params.t + Rational(c * s, 2 * k))
    assert report.a_value == local_datum(params)


def test_every_valid_row_checks_its_ring_integral(monkeypatch):
    # the certificate is one per-k entry, read once per family; a wrong Y
    # alone (a wrong t^0 coefficient with the right slope), a wrong slope Z
    # alone, or both, must fail every route that publishes a row
    moments = invariants._ring_moments
    calls = []

    def shifted(wrong):
        # adding 1 to the constant term of Y moves c Y(s) by c = 1 and leaves
        # the slope; adding 1 to that of Z moves the slope Z(s) by 1
        def perturbed(k):
            calls.append(k)
            Y, Z = moments(k)
            if "Y" in wrong:
                Y = UniPoly("s", (Y.nums[0] + Y.den,) + Y.nums[1:], Y.den)
            if "Z" in wrong:
                Z = UniPoly("s", (Z.nums[0] + Z.den,) + Z.nums[1:], Z.den)
            return Y, Z

        return perturbed

    monkeypatch.setattr(invariants, "_ring_moments", shifted(set()))
    t_values = [1, 3, 5, 7, 9, 11]  # s = 6 makes t = 3 and 9 invalid
    assert family_scan(2, 1, 6, t_values).distinct_count == 4
    assert calls == [2]
    rat = r"-?\d+(/\d+)?"
    message = (
        rf"^ring integral {rat} \+ \({rat}\)\*t disagrees with A0 - A1\*t = {rat} - \({rat}\)\*t "
        r"at \(k=2, c=1, s=6\)$"
    )
    A1 = a1_poly_in_s(2)(6)
    A0 = -6 * A1 / 4
    for wrong in ({"Y"}, {"Z"}, {"Y", "Z"}):
        perturbed = shifted(wrong)
        Y, Z = perturbed(2)
        assert (Y(6) != A0, Z(6) != -A1) == ("Y" in wrong, "Z" in wrong)
        monkeypatch.setattr(invariants, "_ring_moments", perturbed)
        calls.clear()
        with pytest.raises(AffinityViolation, match=message):
            family_scan(2, 1, 6, t_values)
        assert calls == [2]
        for t in (1, 5, 7, 11):
            with pytest.raises(AffinityViolation, match=message):
                relative_eta(FamilyParams(2, 1, 6, t))


@pytest.mark.parametrize("k", [2, 3, 16, 64])
@pytest.mark.parametrize("s", [2, -6, 2**63 - 2])
def test_certificate_integrals_are_the_ring_datum_at_t_0_and_1(k, s):
    # c Y(s) and c Y(s) + Z(s) against G(su + tv) summed as G_m (su + tv)^m by
    # ring products, with no coh_eval_series; at k = 64, where that loop is
    # slow, against the univariate split.  The certificate is built at
    # c = 1, 3 and -5; the other c test its extrapolation in c.
    g = invariants._inv_two_cosh(2 * k).coeffs
    Y, Z = invariants._ring_moments(k)
    for c in (1, -7, 2**63 - 1, -(2**63 - 1)):
        integrals = (c * Y(s), c * Y(s) + Z(s))
        if k == 64:
            A1 = a1_poly_in_s(k)(s)
            assert integrals == (-c * s * A1 / (2 * k), -c * s * A1 / (2 * k) - A1)
            continue
        spec = RingSpec(k, c)
        ahat = invariants.ahat_Bc(spec)
        expected = []
        for t in (0, 1):
            x = CohClass.from_uv(spec, s, t)
            acc, power = CohClass.one(spec).scale(g[0]), CohClass.one(spec)
            for m in range(1, 2 * k + 1):
                power = power * x
                acc = acc + power.scale(g[m])
            expected.append(coh_integrate(ahat * acc))
        assert integrals == tuple(expected)


def test_k_limit():
    FamilyParams(64, 1, 2, 1)
    RingSpec(64, 1)
    assert cohomology_Mbar(64, 2)[4 * 64 + 1].free_rank == 1
    with pytest.raises(InvalidParams, match=r"k must be <= 64 \(work limit\), got k=65"):
        FamilyParams(65, 1, 2, 1)
    with pytest.raises(InvalidParams, match=r"k must be <= 64 \(work limit\), got k=65"):
        family_scan(65, 1, 2, [1])
    for route in (
        a1_poly_in_s,
        lambda k: a1_direct(k, 2),
        lambda k: a1_residue(k, 2),
        lambda k: find_good_s(k, [2]),
    ):
        with pytest.raises(InvalidParams, match=r"^k must be <= 64 \(work limit\), got k=65$"):
            route(65)
    with pytest.raises(InvalidParams, match=r"^k must be <= 64 \(work limit\), got k=65$"):
        RingSpec(65, 1)
    with pytest.raises(InvalidParams, match=r"^k must be <= 64 \(work limit\), got k=65$"):
        cohomology_Mbar(65, 2)


def test_family_scan_t_count_limit(monkeypatch):
    for name in ("ahat_Bc", "_ring_moments"):
        monkeypatch.setattr(invariants, name, _refuse)
    # 1000 even t values: accepted, every row invalid, so no ring work
    result = family_scan(2, 1, 2, range(0, 2000, 2))
    assert len(result.entries) == 1000 and result.distinct_count == 0
    message = r"at most 1000 t values per scan \(work limit\), got 1001"
    with pytest.raises(InvalidParams, match=message):
        family_scan(2, 1, 2, range(1, 2003, 2))
    with pytest.raises(InvalidParams, match=r"got 100000000$"):
        family_scan(2, 1, 2, range(1, 2 * 10**8, 2))
    # len() of these ranges overflows a C ssize_t; the count must not
    bound = 2**63 - 1
    with pytest.raises(InvalidParams, match=rf"got {2**64 - 1}$"):
        family_scan(2, 1, 2, range(-bound, bound + 1))
    with pytest.raises(InvalidParams, match=rf"got {10**29}$"):
        family_scan(2, 1, 2, range(1, 10**29 + 1))


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-7, 7).filter(bool))
def test_t_count_is_len_of_a_range(start, stop, step):
    # a range is counted by arithmetic, a list by len() and an iterator by islice,
    # all three as len() would, on both sides of the limit
    t_values = range(start, stop, step)
    limit = 10
    for values in (t_values, list(t_values), iter(t_values)):
        if len(t_values) <= limit:
            assert list(invariants._at_most(limit, "t values", values)) == list(t_values)
        else:
            got = len(t_values) if hasattr(values, "__len__") else "more than 10"
            message = f"^at most 10 t values \\(work limit\\), got {got}$"
            with pytest.raises(InvalidParams, match=message):
                invariants._at_most(limit, "t values", values)
