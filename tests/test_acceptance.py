"""Acceptance gate: the ten exact criteria of ``etainv verify --suite paper``.

Each entry of ``verify.PAPER_SUITE`` runs as one test, named
``test_c<NN>_<criterion>``, and fails with the line that ``etainv verify``
prints.  The criteria live only in :mod:`etainv.verify`; the two tests below
them are larger randomized runs that would slow the CLI suite about fivefold.
"""

import random
from itertools import islice

import pytest

from etainv.cohring import CohClass, RingSpec
from etainv.coeffcore import Rational
from etainv.series import PowerSeries
from etainv import verify
from etainv.verify import PAPER_SUITE, _check_ring_engine, _draws
from etainv.zcohomology import IntMatrix


def _suite_test(number: int, name: str, check):
    def test():
        ok, detail = check()
        line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
        print(line)
        assert ok, line

    test.__name__ = f"test_c{number:02d}_{name}"
    return test


for _number, (_name, _check) in enumerate(PAPER_SUITE, 1):
    _test = _suite_test(_number, _name, _check)
    globals()[_test.__name__] = _test


def test_h4_order_is_checked_against_the_gysin_table(monkeypatch):
    # a wrong order formula fails the criterion, which reads s^2 off the SNF
    monkeypatch.setattr(verify, "h4_M_order", lambda s: 4 * s)
    ok, detail = verify._check_h4_order()
    assert not ok
    assert detail == "h4_M_order(2) = 8, but H^4 of the cover at (k=2, s=2) is Z_4: 4 * |H^4| = 16"


def test_series_compose_and_revert_both_ways():
    rng = random.Random(20240)
    identity = PowerSeries.identity("x", 12)
    for trial in range(10):
        coeffs = [0, 1] + [
            Rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(11)
        ]
        g = PowerSeries("x", coeffs, 12)
        assert g.compose(g.revert()) == identity, trial
        assert g.revert().compose(g) == identity, trial


def _degrees(x):
    """The cohomological degrees of x's nonzero components: u^i in 2i, u^i*v in 2i + 2."""
    return {2 * i for i, c in enumerate(x.P) if c} | {2 * i + 2 for i, c in enumerate(x.Q) if c}


def test_ring_engine_randomized_with_grading():
    rng = random.Random(20241)
    checks = 0
    for k in (2, 3):
        for c in (1, 3):
            spec = RingSpec(k, c)
            for _ in range(250):
                a, b, d = (
                    CohClass(
                        spec,
                        [rng.randint(-5, 5) for _ in range(2 * k)],
                        [rng.randint(-5, 5) for _ in range(2 * k)],
                    )
                    for _ in range(3)
                )
                assert (a * b) * d == a * (b * d), (k, c)
                assert a * b == b * a, (k, c)
                # a product of homogeneous pieces of degrees d1 and d2 only
                # ever lands in degree d1 + d2
                i = rng.randrange(2 * k)
                j = rng.randrange(2 * k)
                ha = CohClass(spec, [0] * i + [rng.randint(1, 5)])
                hb = CohClass(spec, (), [0] * j + [rng.randint(1, 5)])
                assert _degrees(ha * hb) <= {2 * i + 2 * j + 2}, (k, c, i, j)
                checks += 1
    assert checks == 1000


def test_ring_engine_catches_a_product_without_the_fold(monkeypatch):
    # the reference product of the numerators over den1*den2, with u^{2k}
    # dropped instead of folded into c*u^{2k-1}*v
    def unfolded(self, other):
        if not isinstance(other, CohClass):
            return self.scale(other)
        n = 2 * self.spec.k
        p1, q1, p2, q2 = self.P, self.Q, other.P, other.Q
        p = [sum(p1[i] * p2[m - i] for i in range(m + 1)) for m in range(n)]
        q = [
            sum(p1[i] * q2[m - i] + q1[i] * p2[m - i] for i in range(m + 1))
            for m in range(n)
        ]
        return CohClass(self.spec, p, q).scale(Rational(1, self.den * other.den))

    assert _check_ring_engine()[0]
    monkeypatch.setattr(CohClass, "__mul__", unfolded)
    ok, detail = _check_ring_engine()
    assert not ok
    assert detail == "ring relations fail at (k=2, c=1)"


def test_ring_engine_draws_are_randint():
    # ring_engine takes 2 * 2k entries for each of the 3 classes of a triple,
    # 50 triples per (k, c): the same 6,000 values as randint(-5, 5) on this
    # interpreter, so it multiplies the same 200 triples as a randint loop
    counts = [50 * 3 * 2 * 2 * k for k in (2, 3) for c in (1, 3)]
    rng = random.Random(11)
    expected = [rng.randint(-5, 5) for _ in range(sum(counts))]
    assert sum(counts) == 6000
    rng = random.Random(11)
    assert [x for count in counts for x in _draws(rng, count)] == expected


class _RecordingRandom(random.Random):
    """A generator that records the width of each getrandbits call."""

    def __init__(self, seed):
        self.widths = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("count", [0, 1, 2, 11, 300 * 4, 300 * 6])
def test_draws_equal_randint_and_leave_its_state(count, seed):
    # the same values as count calls of randint(-5, 5), and the generator
    # ends where those calls leave it: no 32-bit output is drawn past the last
    rng, reference = _RecordingRandom(seed), random.Random(seed)
    assert _draws(rng, count) == [reference.randint(-5, 5) for _ in range(count)]
    assert rng.getstate() == reference.getstate()
    assert all(k % 32 == 0 for k in rng.widths)
    if count == 0:
        assert rng.widths == []
    if count >= 300:
        # about 5 outputs in 16 are refused, so the first round falls short
        # and the rest are topped up in several more
        assert rng.widths[0] == 32 * count and len(rng.widths) >= 3


def test_ring_engine_multiplies_the_randint_triples(monkeypatch):
    # the criterion builds its classes in normal form from _draws; each of
    # the 200 triples must be the one a loop of CohClass(spec, p, q) over
    # randint(-5, 5) builds, 2k entries for p and then 2k for q, a, b, d in turn
    product = CohClass.__mul__
    seen = {}

    def recording(self, other):
        seen.setdefault(self.spec, []).append((self, other))
        return product(self, other)

    monkeypatch.setattr(CohClass, "__mul__", recording)
    assert _check_ring_engine()[0]
    monkeypatch.undo()
    rng = random.Random(11)
    for k in (2, 3):
        for c in (1, 3):
            spec = RingSpec(k, c)
            # the ring relations come first; then 5 products per triple:
            # a * b, (a * b) * d, b * d, a * (b * d), b * a
            pairs = seen[spec][-250:]
            for t in range(50):
                a, b, d = (
                    CohClass(
                        spec,
                        [rng.randint(-5, 5) for _ in range(2 * k)],
                        [rng.randint(-5, 5) for _ in range(2 * k)],
                    )
                    for _ in range(3)
                )
                ab, abd, bd, abd2, ba = pairs[5 * t : 5 * t + 5]
                assert ab == (a, b), (k, c, t)
                assert abd == (a * b, d), (k, c, t)
                assert bd == (b, d), (k, c, t)
                assert abd2 == (a, b * d), (k, c, t)
                assert ba == (b, a), (k, c, t)


def test_ring_engine_catches_a_noncommutative_product(monkeypatch):
    # xy + (x_v y_u - x_u y_v) u^{2k-1} v, with x_u and x_v the coefficients
    # of u and v in x.  The added term is a product of two derivations to the
    # top class, so the product stays associative; it leaves the powers of u
    # and u^{2k-1} v alone.  Only the commutativity check, which compares the
    # reused a * b with b * a, can see it.
    product = CohClass.__mul__

    def skewed(self, other):
        xy = product(self, other)
        if not isinstance(other, CohClass):
            return xy
        skew = Rational(self.Q[0] * other.P[1] - self.P[1] * other.Q[0], self.den * other.den)
        return xy + CohClass(self.spec, (), [0] * (2 * self.spec.k - 1) + [skew])

    spec = RingSpec(2, 1)
    draws = iter(_draws(random.Random(11), 24))
    a, b, d = (CohClass(spec, list(islice(draws, 4)), list(islice(draws, 4))) for _ in range(3))
    monkeypatch.setattr(CohClass, "__mul__", skewed)
    assert (a * b) * d == a * (b * d)
    assert a * b != b * a
    assert _check_ring_engine() == (False, "associativity/commutativity fail at (k=2, c=1)")


def test_gysin_check_catches_a_wrong_ring_route(monkeypatch, capsys):
    # the transpose has the same SNF (1, s^2), so only the matrix comparison sees it
    def transposed(spec, s, t, l):
        return IntMatrix.from_lists([[s, 0], [t, s]])

    monkeypatch.setattr(verify, "gysin_step_matrix_via_ring", transposed)
    assert not verify.run_paper_suite()
    assert capsys.readouterr().out.splitlines()[0] == (
        "FAIL  gysin_cokernel_orders: Gysin matrix at (k=2, s=2, t=1, l=1): "
        "[[2, 1], [0, 2]], but [[2, 0], [1, 2]] via the ring"
    )


def test_gysin_check_catches_a_wrong_snf(monkeypatch, capsys):
    # a diagonal that is not (1, s^2) fails at the first (s, t)
    monkeypatch.setattr(verify, "snf", lambda m: (1, 2))
    assert not verify.run_paper_suite()
    assert capsys.readouterr().out.splitlines()[0] == (
        "FAIL  gysin_cokernel_orders: snf(s=2, t=1) = (1, 2)"
    )


def _counted(monkeypatch, name):
    """Wrap the name verify imported; the returned list grows by one per call."""
    calls, original = [], getattr(verify, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify, name, counted)
    return calls


def test_a1_three_way_builds_each_ahat_class_once(monkeypatch):
    # four (k, c): each class is probed at the three s, not rebuilt for each
    calls = _counted(monkeypatch, "ahat_Bc")
    assert verify._check_a1_three_way()[0] is True
    assert sorted((spec.k, spec.c) for spec, in calls) == [(2, 1), (2, 3), (3, 1), (3, 3)]


def test_gysin_check_runs_one_snf_per_distinct_matrix(monkeypatch):
    # [[s, t], [0, s]] for the four (s, t); every (k, s, t, l) still compares the matrices
    snfs = _counted(monkeypatch, "snf")
    via_ring = _counted(monkeypatch, "gysin_step_matrix_via_ring")
    assert verify._check_gysin_snf()[0] is True
    assert sorted(m.to_lists() for m, in snfs) == [
        [[2, 1], [0, 2]], [[2, 3], [0, 2]], [[4, 3], [0, 4]], [[6, 5], [0, 6]]
    ]
    assert len(via_ring) == 4 * sum(2 * k - 2 for k in (2, 3, 4))
