"""Smith normal form, cokernels, and the Gysin-sequence cohomology tables."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etainv import zcohomology
from etainv.cohring import InvalidParams, RingSpec
from etainv.zcohomology import (
    AbelianGroupDesc,
    IntMatrix,
    RangeError,
    cohomology_Mbar,
    cokernel,
    gysin_step_matrix,
    gysin_step_matrix_via_ring,
    h4_M_order,
    snf,
)


# -- matrices and SNF --------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    # int() would truncate these to [[2, 3]]
    with pytest.raises(ValueError, match="must be integers"):
        IntMatrix(1, 2, (2.7, Fraction(7, 2)))
    # True would pass for 1: snf gave (1,)
    with pytest.raises(ValueError, match="must be integers"):
        IntMatrix(1, 2, (True, 2))
    m = IntMatrix.from_lists([[1, 2], [3, 4]])
    assert m.to_lists() == [[1, 2], [3, 4]]
    # rows of unequal length are refused, not refilled row-major into [[1, 2], [3, 4], [5, 6]]
    with pytest.raises(ValueError, match=r"^every row must have 2 entries, got \[2, 3, 1\]$"):
        IntMatrix.from_lists([[1, 2], [3, 4, 5], [6]])
    with pytest.raises(ValueError, match=r"^every row must have 2 entries, got \[2, 1\]$"):
        IntMatrix.from_lists([[1, 2], [3]])


def test_snf_known_cases():
    assert snf(IntMatrix.from_lists([[2, 1], [0, 2]])) == (1, 4)
    assert snf(IntMatrix.from_lists([[2, 0], [0, 2]])) == (2, 2)
    assert snf(IntMatrix.from_lists([[0, 0], [0, 0]])) == (0, 0)
    assert snf(IntMatrix.from_lists([[6]])) == (6,)
    assert snf(IntMatrix.from_lists([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])) == (2, 2, 156)


def test_snf_rectangular():
    assert snf(IntMatrix.from_lists([[1, 2, 3]])) == (1,)
    assert snf(IntMatrix.from_lists([[2], [4]])) == (2,)


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_snf_invariants_random_3x3(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    diag = snf(IntMatrix.from_lists(rows))
    # nonnegative, divisibility chain, product of nonzeros = |det| when nonsingular
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0
    det = _det(rows)
    if det:
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(det)


def test_cokernel():
    g = cokernel(IntMatrix.from_lists([[2, 1], [0, 2]]))
    assert g == AbelianGroupDesc(0, (4,))
    g = cokernel(IntMatrix.from_lists([[2, 0], [0, 0]]))
    assert g == AbelianGroupDesc(1, (2,))


# -- group descriptors -------------------------------------------------------


def test_group_desc_validation():
    with pytest.raises(ValueError):
        AbelianGroupDesc(0, (1,))
    # int() would truncate 2.5 to the torsion (2,)
    with pytest.raises(ValueError, match="must be integers"):
        AbelianGroupDesc(0, (2.5,))
    with pytest.raises(ValueError):
        AbelianGroupDesc(0, (4, 6))
    AbelianGroupDesc(0, (2, 4))
    # a negative rank would print as "0", True as "Z" with "free_rank": true;
    # a non-int rank has no meaning
    for rank in (-1, 1.5, True):
        with pytest.raises(ValueError, match="free rank"):
            AbelianGroupDesc(rank, ())


def test_group_desc_str_and_to_dict():
    assert str(AbelianGroupDesc(0, (4,))) == "Z_4"
    assert str(AbelianGroupDesc(1, (2, 4))) == "Z + Z_2 + Z_4"
    assert str(AbelianGroupDesc(0, ())) == "0"
    assert AbelianGroupDesc(0, (4,)).to_dict() == {"free_rank": 0, "torsion": [4]}


# -- Gysin steps -------------------------------------------------------------


def test_gysin_step_matrix_shape():
    m = gysin_step_matrix(2, 3)
    assert m.to_lists() == [[2, 3], [0, 2]]
    # int() would truncate s = 1/2 to [[0, 1], [0, 0]], with SNF (1, 0)
    with pytest.raises(InvalidParams, match=r"^s must be an int, got Fraction\(1, 2\)$"):
        gysin_step_matrix(Fraction(1, 2), 1)


def test_gysin_step_matrix_matches_ring_computation():
    # the step matrix depends on (s, t) only; the ring gives it at every step l in [1, 2k-2]
    for k, c in ((2, 1), (3, 3)):
        spec = RingSpec(k, c)
        for s, t in ((2, 1), (4, 3), (6, 5)):
            for l in range(1, 2 * k - 1):
                assert gysin_step_matrix(s, t).to_lists() == (
                    gysin_step_matrix_via_ring(spec, s, t, l).to_lists()
                ), (k, c, s, t, l)
        for l in (0, 2 * k - 1):
            with pytest.raises(RangeError, match=rf"^l={l} outside \[1, {2 * k - 2}\] for k={k}$"):
                gysin_step_matrix_via_ring(spec, 2, 3, l)


def test_gysin_step_matrix_via_ring_refuses_non_integral_entries():
    # s = 1/2 gives the image (1/2) v u^l: an integer matrix cannot hold it
    with pytest.raises(ValueError, match="non-integral entries"):
        gysin_step_matrix_via_ring(RingSpec(2, 1), Fraction(1, 2), 1, 1)


# -- tables ------------------------------------------------------------------


def test_cohomology_table_k3():
    z = AbelianGroupDesc(1, ())
    o = AbelianGroupDesc(0, ())
    z16 = AbelianGroupDesc(0, (16,))
    expected = [z, o, z, o] + [z16, o] * 3 + [z16, z, o, z]
    got = cohomology_Mbar(3, 4)
    assert len(got) == 14
    assert got == expected


@pytest.mark.parametrize("k", [2, 12])
def test_cohomology_table_takes_one_snf(monkeypatch, k):
    # the Gysin step matrix [[s, 1], [0, s]] does not depend on the step l
    calls = []

    def counted(m):
        calls.append(m.to_lists())
        return snf(m)

    monkeypatch.setattr(zcohomology, "snf", counted)
    table = cohomology_Mbar(k, -6)
    assert calls == [[[-6, 1], [0, -6]]]
    assert table[4 : 4 * k : 2] == [AbelianGroupDesc(0, (36,))] * (2 * k - 2)


def test_cohomology_table_validation():
    with pytest.raises(InvalidParams):
        cohomology_Mbar(1, 2)
    # k is checked before s
    with pytest.raises(InvalidParams, match=r"^k must be >= 2 \(standing assumption\), got k=1$"):
        cohomology_Mbar(1, 3)
    with pytest.raises(InvalidParams):
        cohomology_Mbar(2, 3)
    with pytest.raises(InvalidParams):
        cohomology_Mbar(2, 0)


def test_h4_order_validation():
    assert h4_M_order(-2) == 16
    with pytest.raises(InvalidParams):
        h4_M_order(3)
    with pytest.raises(InvalidParams):
        h4_M_order(0)
