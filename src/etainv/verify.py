"""Built-in verification suite: re-derives the published values and internal
cross-checks from scratch and reports one pass/fail line per criterion.

The same checks are the pytest acceptance module, which runs each entry of
PAPER_SUITE as one test; here they are wired into the CLI
(`etainv verify --suite paper`) so a user can validate an install without a
test harness.
"""

from __future__ import annotations

import random
from math import prod

from .cohring import CohClass, RingSpec
from .coeffcore import Rational
from .invariants import (
    FamilyParams,
    _probe_split,
    a1_direct,
    a1_poly_in_s,
    a1_residue,
    ahat_Bc,
    family_scan,
    local_datum,
)
from .series import PowerSeries, ps_exp
from .zcohomology import (
    AbelianGroupDesc,
    cohomology_Mbar,
    gysin_step_matrix,
    gysin_step_matrix_via_ring,
    h4_M_order,
    snf,
)


def _check_gysin_snf():
    specs = [RingSpec(k, 1) for k in (2, 3, 4)]
    # the step matrix and its SNF depend on (s, t) only; the ring route is checked at every step
    for s, t in ((2, 1), (2, 3), (4, 3), (6, 5)):
        m = gysin_step_matrix(s, t)
        for spec in specs:
            for l in range(1, 2 * spec.k - 1):
                via_ring = gysin_step_matrix_via_ring(spec, s, t, l)
                if m != via_ring:
                    return False, (f"Gysin matrix at (k={spec.k}, s={s}, t={t}, l={l}): "
                                   f"{m.to_lists()}, but {via_ring.to_lists()} via the ring")
        got = snf(m)
        if got != (1, s * s):
            return False, f"snf(s={s}, t={t}) = {got}"
    return True, "SNF = (1, s^2) for all k in {2,3,4}, (s,t) pairs, l in [1, 2k-2]"


def _check_h4_order():
    # the s^2 comes from the Gysin SNF of the double cover; the 4 is the paper's
    for k in (2, 3):
        for s in (2, 4, 6):
            h4 = cohomology_Mbar(k, s)[4]
            got, expected = h4_M_order(s), 4 * prod(h4.torsion)
            if h4.free_rank != 0 or got != expected:
                return False, (f"h4_M_order({s}) = {got}, but H^4 of the cover "
                               f"at (k={k}, s={s}) is {h4}: 4 * |H^4| = {expected}")
    return True, "|H^4| = 4s^2 for s in {2,4,6}"


def _check_cohomology_table():
    z = AbelianGroupDesc(1, ())
    zero = AbelianGroupDesc(0, ())
    z4 = AbelianGroupDesc(0, (4,))
    expected = [z, zero, z, zero, z4, zero, z4, z, zero, z]
    got = cohomology_Mbar(2, 2)
    if got != expected:
        return False, f"table = {[str(g) for g in got]}"
    return True, "cohomology table (k=2, s=2) = [Z, 0, Z, 0, Z_4, 0, Z_4, Z, 0, Z]"


def _check_a1_three_way():
    for k in (2, 3):
        # the ring probes of decompose_affine_in_t, with each A-hat class built once per (k, c)
        specs = [RingSpec(k, c) for c in (1, 3)]
        ahats = [ahat_Bc(spec) for spec in specs]
        for s in (2, 4, 6):
            direct = a1_direct(k, s)
            residue = a1_residue(k, s)
            if direct != residue:
                return False, f"direct {direct} != residue {residue} at (k={k}, s={s})"
            for spec, ahat in zip(specs, ahats):
                _, affine = _probe_split(spec, ahat, s)
                if affine != direct:
                    return False, (
                        f"affine A1 {affine} != direct {direct} at (k={k}, c={spec.c}, s={s})"
                    )
    return True, "a1_direct = a1_residue = affine A1 on {2,3} x {2,4,6} x {1,3}"


def _check_s2_closed_form():
    for k in range(2, 6):
        expected = Rational((-1) ** (k - 1) * k, 2 ** (k + 1))
        direct = a1_direct(k, 2)
        if direct != expected:
            return False, f"k={k}: closed {expected}, direct {direct}"
    return True, "a1_direct(k,2) = (-1)^(k-1) k/2^(k+1) for k = 2..5"


def _check_affinity():
    vals = [local_datum(FamilyParams(2, 1, 2, t)) for t in (1, 3, 5, 7)]
    diffs = [vals[i] - 2 * vals[i + 1] + vals[i + 2] for i in range(2)]
    if any(diffs):
        return False, f"second differences {diffs}"
    if vals != [Rational(3, 8), Rational(7, 8), Rational(11, 8), Rational(15, 8)]:
        return False, f"local datum at t = 1,3,5,7: {[str(x) for x in vals]}"
    return True, "local datum affine in t over t in {1,3,5,7} at (k,c,s)=(2,1,2)"


def _check_family_distinct():
    result = family_scan(2, 1, 2, list(range(1, 50, 2)))
    if result.distinct_count != 25:
        return False, f"distinct_count = {result.distinct_count}"
    etas = []
    for entry in result.entries:
        r = entry.report
        if r is None or r.eta_rel != -2 * r.a_value:
            return False, f"bad entry at t={entry.t}"
        etas.append(r.eta_rel)
    if len(set(etas)) != 25:
        return False, f"{len(set(etas))} distinct eta values in the rows"
    return True, "25 pairwise distinct eta values, eta = -2a in every row"


# frozen from an independent symbolic computation
_A1_POLY_STRINGS = {
    2: ["0/1", "-1/48", "0/1", "-5/192"],
    3: ["0/1", "1/240", "0/1", "5/768", "0/1", "61/15360"],
}


def _check_a1_poly():
    for k in (2, 3):
        poly = a1_poly_in_s(k)
        if poly.to_strings() != _A1_POLY_STRINGS[k]:
            return False, f"k={k}: coefficients {poly.to_strings()}"
        if poly.degree() > 2 * k - 1:
            return False, f"degree {poly.degree()} > {2 * k - 1} at k={k}"
        if any(poly.nums[0::2]):
            return False, f"even-degree terms present at k={k}"
        for s in (2, 4, 6):
            if poly(Rational(s)) != a1_direct(k, s):
                return False, f"poly({s}) != a1_direct at k={k}"
    return True, "A1 polynomial odd of degree <= 2k-1, matches a1_direct on s in {2,4,6}"


def _check_series_engine():
    f = PowerSeries("x", [1, 0, Rational(-1, 24), 0, Rational(7, 5760)], 4)
    denom = ps_exp(Rational(1, 2), 5) - ps_exp(Rational(-1, 2), 5)
    ahat = PowerSeries.constant("x", 1, 4).divide(PowerSeries("x", denom.coeffs[1:], 4))
    if ahat != f:
        return False, f"A-hat factor = {list(ahat.coeffs)}"
    w = ps_exp(Rational(1, 2), 6, "u") - ps_exp(Rational(-1, 2), 6, "u")
    rev = w.revert()
    expected = [0, 1, 0, Rational(-1, 24), 0, Rational(3, 640), 0]
    if any(a - b for a, b in zip(rev.coeffs, expected)):
        return False, f"revert = {list(rev.coeffs)}"
    rng = random.Random(7)
    for _ in range(5):
        coeffs = [0, 1] + [Rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(11)]
        g = PowerSeries("x", coeffs, 12)
        if g.compose(g.revert()) != PowerSeries.identity("x", 12):
            return False, "compose(revert) != identity"
    return True, "series engine: A-hat factor, reversion, compose/revert round trips"


def _draws(rng: random.Random, count: int) -> list:
    """count values of rng.randint(-5, 5), drawn in bulk; rng ends in the same state.

    randint(-5, 5) is -5 + randrange(11), and randrange takes getrandbits(4),
    the top nibble of one 32-bit output of the generator, until it is below
    11.  getrandbits(32 * m) packs m outputs, the first in the lowest word,
    so byte 4i + 3 of its little-endian bytes is the top byte of output i,
    and a top byte below 176 = 11 * 16 is a nibble below 11.  Each round
    draws as many outputs as values are still missing, so no output is
    drawn past the last one randint would use.
    """
    values = []
    while len(values) < count:
        m = count - len(values)
        top = rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
        values += [(x >> 4) - 5 for x in top if x < 176]
    return values


def _check_ring_engine():
    rng = random.Random(11)
    for k in (2, 3):
        n = 2 * k
        for c in (1, 3):
            spec = RingSpec(k, c)
            u = CohClass.u(spec)
            v = CohClass.v(spec)
            top = u ** (n - 1) * v
            if u ** n != top.scale(c) or (u ** (n + 1)):
                return False, f"ring relations fail at (k={k}, c={c})"
            # 50 triples of classes (P + v*Q)/1, each P and Q the next n draws,
            # built in normal form: den = 1 and integer entries need no reduction
            values = tuple(_draws(rng, 300 * n))
            classes = (
                CohClass._canonical(spec, 1, values[i : i + n], values[i + n : i + 2 * n])
                for i in range(0, 300 * n, 2 * n)
            )
            for a, b, d in zip(classes, classes, classes):
                ab = a * b
                if ab * d != a * (b * d) or ab != b * a:
                    return False, f"associativity/commutativity fail at (k={k}, c={c})"
    return True, "ring engine: defining relations and randomized associativity/commutativity"


PAPER_SUITE = [
    ("gysin_cokernel_orders", _check_gysin_snf),
    ("h4_order", _check_h4_order),
    ("cohomology_table_k2_s2", _check_cohomology_table),
    ("a1_three_way_agreement", _check_a1_three_way),
    ("s2_closed_form", _check_s2_closed_form),
    ("affinity_in_t", _check_affinity),
    ("family_distinctness", _check_family_distinct),
    ("a1_polynomial_structure", _check_a1_poly),
    ("series_engine", _check_series_engine),
    ("ring_engine", _check_ring_engine),
]


def run_paper_suite() -> bool:
    """Run every criterion, print one line each; True iff all pass."""
    all_ok = True
    for name, check in PAPER_SUITE:
        ok, detail = check()
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
