"""The one parameter gate, check_params, and the bounded counts of t values and s candidates."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from etainv import invariants, zcohomology
from etainv.cohring import PARAM_BOUND, InvalidParams, RingSpec, check_params
from etainv.invariants import (
    FamilyParams,
    a1_direct,
    a1_poly_in_s,
    a1_residue,
    decompose_affine_in_t,
    family_scan,
    find_good_s,
)
from etainv.zcohomology import cohomology_Mbar, gysin_step_matrix, h4_M_order

# every public entry point, with the parameters it hands to the gate
ENTRY_POINTS = {
    "FamilyParams": (FamilyParams, "kcst"),
    "RingSpec": (RingSpec, "kc"),
    "a1_poly_in_s": (a1_poly_in_s, "k"),
    "find_good_s": (lambda k, s: find_good_s(k, [s]), "ks"),
    "a1_direct": (a1_direct, "ks"),
    "a1_residue": (a1_residue, "ks"),
    "decompose_affine_in_t": (decompose_affine_in_t, "kcs"),
    # a bad t is reported on its own row, not raised (see test_non_int_t_is_refused_on_its_own_row)
    "family_scan": (lambda k, c, s: family_scan(k, c, s, [1]), "kcs"),
    "cohomology_Mbar": (cohomology_Mbar, "ks"),
    "h4_M_order": (h4_M_order, "s"),
    "gysin_step_matrix": (gysin_step_matrix, "st"),
}

# what the first series, ring or matrix step of any entry point calls
SERIES_WORK = {
    invariants: (
        "ahat_Bc", "_sech_factor", "ps_exp", "_ahat_factor", "_inv_two_cosh", "_ahat_power",
        "_a1_poly", "_t_factor", "_ring_moments", "_moments_at", "PowerSeries",
    ),
    zcohomology: ("IntMatrix", "snf", "cokernel"),
}


def _refuse(*args, **kwargs):
    raise AssertionError("series, ring or matrix work started before the gate")


_NOT_INTS = st.one_of(
    st.booleans(),
    st.floats(),
    st.fractions(),
    st.text(max_size=3),
    st.none(),
)
_PAST_BOUND = st.integers(PARAM_BOUND, 2 * PARAM_BOUND) | st.integers(-2 * PARAM_BOUND, -PARAM_BOUND)
# the standing assumption each parameter can break while an int inside the bound
_BROKEN = {
    "k": (st.sampled_from([1, 65]) | st.integers(-10, 1) | st.integers(65, 10**6),
          "k must be "),
    "c": (st.integers(-10**6, 10**6).map(lambda n: 2 * n), "c must be odd (standing assumption), got c="),
    "s": (st.integers(-10**6, 10**6).map(lambda n: 2 * n + 1) | st.just(0),
          "s must be a nonzero even integer (standing assumption), got s="),
    "t": (st.integers(-10**6, 10**6).map(lambda n: 2 * n), "t must be odd (standing assumption), got t="),
}


@st.composite
def _bad_call(draw):
    """(entry point, its arguments, the expected message prefix): one parameter, or s and t, spoilt."""
    name = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    fn, names = ENTRY_POINTS[name]
    # valid values: s = +-2^j and t odd are coprime
    args = {
        "k": draw(st.integers(2, 64)),
        "c": draw(st.integers(-(PARAM_BOUND // 2), PARAM_BOUND // 2 - 1).map(lambda n: 2 * n + 1)),
        "s": draw(st.integers(1, 62).map(lambda j: 2**j)) * draw(st.sampled_from([1, -1])),
        "t": draw(st.integers(-(PARAM_BOUND // 2), PARAM_BOUND // 2 - 1).map(lambda n: 2 * n + 1)),
    }
    kinds = ["type", "assumption"] + (["bound"] if names != "k" else []) + (
        ["gcd"] if "t" in names and "s" in names else []
    )
    kind = draw(st.sampled_from(kinds))
    if kind == "gcd":
        p = draw(st.sampled_from([3, 5, 7, 9]))
        args["s"] = 2 * p * draw(st.integers(1, 10**6))
        args["t"] = p * draw(st.integers(-10**6, 10**6).map(lambda n: 2 * n + 1))
        prefix = f"s and t must be coprime (standing assumption), got gcd({args['s']},{args['t']})="
    else:
        bad = draw(st.sampled_from(names if kind != "bound" else names.replace("k", "")))
        if kind == "type":
            args[bad] = draw(_NOT_INTS)
            prefix = f"{bad} must be an int, got {args[bad]!r}"
        elif kind == "bound":
            args[bad] = draw(_PAST_BOUND)
            prefix = f"|{bad}| must be < 2^63 (work limit), got a "
        else:
            strategy, prefix = _BROKEN[bad]
            args[bad] = draw(strategy)
    return name, fn, [args[n] for n in names], prefix


@given(_bad_call())
def test_every_entry_point_refuses_a_bad_parameter_before_any_work(call):
    name, fn, args, prefix = call
    with pytest.MonkeyPatch.context() as mp:
        for module, attributes in SERIES_WORK.items():
            for attribute in attributes:
                mp.setattr(module, attribute, _refuse)
        with pytest.raises(InvalidParams) as exc:
            fn(*args)
    assert str(exc.value).startswith(prefix), (name, args, str(exc.value))


@pytest.mark.parametrize("bad", [None, True, 2.0, Fraction(2), "2"])
def test_gate_refuses_none_and_every_other_non_int(bad):
    # None is a value like any other: it is never read as a parameter left out
    for name in "kcst":
        with pytest.raises(InvalidParams, match=f"^{name} must be an int, got "):
            check_params(**{name: bad})


def test_gate_order_and_texts():
    # the type of every parameter first, then k, then the bounds, then the standing assumptions
    for args, message in [
        ((1, 2.0, 3, 4), "c must be an int, got 2.0"),
        ((1, 2, 3, 4), "k must be >= 2 (standing assumption), got k=1"),
        ((65, 2, 3, 4), "k must be <= 64 (work limit), got k=65"),
        ((2, 2, 3, 2**63), "|t| must be < 2^63 (work limit), got a 64-bit t"),
        ((2, 2, 3, 4), "c must be odd (standing assumption), got c=2"),
        ((2, 1, 3, 4), "s must be a nonzero even integer (standing assumption), got s=3"),
        ((2, 1, 2, 4), "t must be odd (standing assumption), got t=4"),
        ((2, 1, 6, -9), "s and t must be coprime (standing assumption), got gcd(6,-9)=3"),
    ]:
        with pytest.raises(InvalidParams) as exc:
            check_params(*args)
        assert str(exc.value) == message
    check_params(64, -(2**63 - 1), 2**63 - 2, 2**63 - 1)
    check_params()


# -- bounded counts ------------------------------------------------------------


def test_find_good_s_counts_a_range_without_building_it(monkeypatch):
    monkeypatch.setattr(invariants, "a1_poly_in_s", _refuse)
    # list() of this range used to raise MemoryError
    with pytest.raises(InvalidParams, match=r"^at most 1000 s candidates \(work limit\), got 999999999$"):
        find_good_s(2, range(2, 2 * 10**9, 2))
    # len() of this range raises OverflowError
    huge = range(2, 2**70, 2)
    assert huge.stop > sys.maxsize
    with pytest.raises(InvalidParams, match=rf"^at most 1000 s candidates \(work limit\), got {2**69 - 1}$"):
        find_good_s(2, huge)


def test_find_good_s_and_family_scan_take_an_iterator():
    assert find_good_s(2, (s for s in [2, 4, -2])) == [2, 4, -2]
    # len() of a generator used to raise TypeError
    result = family_scan(2, 1, 2, (t for t in [1, 3]))
    assert [e.t for e in result.entries] == [1, 3] and result.distinct_count == 2


@pytest.mark.parametrize("scan", [
    lambda ts: family_scan(2, 1, 2, ts),
    lambda ts: find_good_s(2, (2 * t for t in ts)),
])
def test_an_iterator_is_read_one_item_past_the_limit(monkeypatch, scan):
    for name in ("_ring_moments", "a1_poly_in_s"):
        monkeypatch.setattr(invariants, name, _refuse)
    ts = itertools.count(1, 2)
    with pytest.raises(InvalidParams, match=r"^at most 1000 .* \(work limit\), got more than 1000$"):
        scan(ts)
    assert next(ts) == 2 * 1001 + 1
