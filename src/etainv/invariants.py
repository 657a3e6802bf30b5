"""Characteristic classes, the fixed-point local datum and the relative
eta-invariant for the (4k+1)-dimensional circle-bundle quotient families.

The local datum a(k, c, s, t) is the top-degree coefficient of a four-factor
characteristic-class product in the ring Q[u,v]/(v^2, u^{2k} - c*u^{2k-1}*v);
the relative eta-invariant is -2 times that value.  As a function of t the
datum is affine, a = A0 - A1*t, and A1 is computed here along three
independent routes (ring integral, univariate series, residue after
substitution) that must agree exactly.  As a polynomial in s, A1 is built in
integers from the Euler and central factorial numbers (:func:`a1_poly_in_s`).
Tests check it against the univariate series at 2k distinct rational s,
which determine a polynomial of degree <= 2k-1.

Reports take the affine split from the univariate route.  With
F(x) = x/(2 sinh(x/2)) and G(x) = 1/(2 cosh(x/2)), both even, and v^2 = 0:
F(2v) = 1, so A-hat(B_c) = F(u)^{2k} - (c/2k) v (F^{2k})'(u), and
G(su + tv) = G(su) + t v G'(su).  Integrating gives A1 = a1_poly_in_s(k)(s)
and A0 = -c*s*A1/(2k), that is a = -A1(s) * (t + c*s/(2k)).  No ring work
enters (A0, A1).

The ring route certifies the split once per k, for every (c, s, t) at once.
Write A-hat(B_c) = p + v q.  Its moments mu_j = integral of A-hat u^j =
q_{2k-1-j} + c p_{2k-j} and nu_j = integral of A-hat u^j v = p_{2k-1-j}, and
G(su + tv) = G(su) + t v G'(su) with v^2 = 0, give the ring integral of
A-hat(B_c) times G(su + tv) exactly as
I(s, t) = sum_j G_j mu_j s^j + t sum_j (j+1) G_{j+1} nu_j s^j.
c enters affinely, so I = X(s) + c Y(s) + t Z(s) with three polynomials that
depend on k alone.  They are built once per k from ahat_Bc at c = 1, 3 and
-5 and checked coefficient by coefficient: X = 0, Y = -s A1(s)/(2k) and
Z = -A1(s), or AffinityViolation is raised.  The certificate is the pair of
UniPoly objects Y and Z (:func:`_ring_moments`).  Each request still
compares: c Y(s) must equal A0 and Z(s) must equal -A1, with no ring work.
relative_eta and family_scan share this check; each row is then
a = A0 - A1*t.  decompose_affine_in_t (ring probes t = 1, 3, 5, through
_probe_split) and local_datum (the full four-factor product) stay as the
oracles that verify and the tests compare against; verify builds each A-hat
class once per (k, c) and probes it at every s through _probe_split.

Every series on the report path is truncated at u^{2k}: the ring has top
class u^{2k-1}v in degree 4k and u^m = 0 there for m > 2k, so no higher
coefficient can change a, eta_rel, (A0, A1) or A1(s).  Production code reads
one cache entry per k from each of _ahat_factor and _inv_two_cosh, built from
the integer closed forms of F (Bernoulli numbers) and G (Euler numbers), and
one from each of _ahat_power (F^{2k-1}), the polynomial A1(s) and the ring
certificate _ring_moments, which depend on k alone.  It calls no ps_exp and
no series division; that route builds F and G again in a1_direct, a1_residue
and verify's series_engine criterion, so the closed forms are checked against
it at run time.  A request at a warm k does no ring work.

Every public function here passes its parameters to cohring.check_params,
the package's one gate, before any series work; InvalidParams and
PARAM_BOUND are imported from there.  The count limits are checked here,
also before any series work: at most MAX_T_VALUES (1000) t values per family
scan and at most MAX_S_CANDIDATES (1000) candidates per find_good_s call.

The sign convention: the integral carries an undetermined global sign coming
from the lift of the involution to the Spin^c structure.  We always take the
plus branch and record sign_convention = "PLUS" in every report; distinctness
and nonvanishing statements are insensitive to this choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice

from .coeffcore import Rational, UniPoly, rat_to_str
from .cohring import (
    PARAM_BOUND,
    CohClass,
    InvalidParams,
    RingSpec,
    WorkLimit,
    check_params,
    coh_eval_series,
    coh_integrate,
)
from .series import PowerSeries, ps_exp

__all__ = [
    "InvalidParams",
    "AffinityViolation",
    "FamilyParams",
    "EtaReport",
    "ScanEntry",
    "ScanResult",
    "ahat_Bc",
    "local_datum",
    "relative_eta",
    "decompose_affine_in_t",
    "a1_direct",
    "a1_residue",
    "a1_poly_in_s",
    "find_good_s",
    "family_scan",
    "SIGN_PLUS",
    "MAX_T_VALUES",
    "MAX_S_CANDIDATES",
    "PARAM_BOUND",
]

SIGN_PLUS = "PLUS"

# work limit on one family scan; k is bounded too
MAX_T_VALUES = 1_000
# work limit on one find_good_s call, the same count as a family scan
MAX_S_CANDIDATES = MAX_T_VALUES


class AffinityViolation(AssertionError):
    """The local datum failed to be affine in t; indicates an implementation bug."""


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (k, c, s, t) of one family member, checked by :func:`check_params`."""

    k: int
    c: int
    s: int
    t: int

    def __post_init__(self):
        check_params(self.k, self.c, self.s, self.t)

    @property
    def spec(self) -> RingSpec:
        return RingSpec(self.k, self.c)


@dataclass(frozen=True)
class EtaReport:
    """One computed family member: local datum, eta-invariant and the affine data."""

    params: FamilyParams
    a_value: object
    eta_rel: object
    A0: object
    A1: object
    sign_convention: str = SIGN_PLUS

    def to_dict(self, approx: bool = False) -> dict:
        """Exact 'num/den' fields; approx adds float renderings of a_value and eta_rel.

        A value outside float range under approx raises ValueError.
        """
        d = {
            "k": self.params.k,
            "c": self.params.c,
            "s": self.params.s,
            "t": self.params.t,
            "a_value": rat_to_str(self.a_value),
            "eta_rel": rat_to_str(self.eta_rel),
            "A0": rat_to_str(self.A0),
            "A1": rat_to_str(self.A1),
            "sign_convention": self.sign_convention,
        }
        if approx:
            for name in ("a_value", "eta_rel"):
                try:
                    d[f"{name}_approx"] = float(getattr(self, name))
                except OverflowError:
                    raise ValueError(
                        f"--approx: {name} is outside float range; omit --approx for the exact value"
                    ) from None
        return d


# ---------------------------------------------------------------------------
# characteristic classes
# ---------------------------------------------------------------------------


def _bernoulli_over(n_max: int):
    """(L, [L*B_0, ..., L*B_n_max]) by the Akiyama-Tanigawa algorithm, in integers.

    Kaneko, J. Integer Seq. 3 (2000): a_m = 1/(m+1), then
    a_{j-1} = j (a_{j-1} - a_j) for j = m..1, and B_m = a_0 (with B_1 = +1/2).
    Every step is an integer combination, so the a_j stay integers over
    L = lcm(1..n_max+1).
    """
    L = math.lcm(*range(1, n_max + 2))
    a, out = [], []
    for m in range(n_max + 1):
        a.append(L // (m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return L, out


def _secant_numbers(m_max: int):
    """|E_0|, |E_2|, ..., |E_{2 m_max}| from the Seidel boustrophedon.

    Row n is E(n, 0) = 0 (n > 0), E(n, j) = E(n, j-1) + E(n-1, n-j), that is
    the running sums of row n-1 read backwards; its last entry is the zigzag
    number A_n, and A_{2m} = |E_{2m}| (Millar, Sloane & Young, JCTA 1996).
    """
    row, zigzag = [1], [1]
    for _ in range(2 * m_max):
        row = list(accumulate(reversed(row), initial=0))
        zigzag.append(row[-1])
    return zigzag[::2]


@lru_cache(maxsize=None)
def _ahat_factor(order: int) -> PowerSeries:
    """F(x) = x / (e^{x/2} - e^{-x/2}) = 1 - x^2/24 + 7x^4/5760 - ..., truncated.

    From the closed form F_n = (2^{1-n} - 1) B_n / n!, with the Bernoulli
    numbers as integers L*B_n over one L (:func:`_bernoulli_over`): over the
    one denominator L 2^N N! (N = order) the numerator of F_n is
    (2 - 2^n) (L B_n) 2^(N-n) N!/n!.
    """
    L, lb = _bernoulli_over(order)
    nums, fall = [], 1  # fall = N!/n!, from n = N down
    for n in range(order, -1, -1):
        nums.append(((2 - 2**n) * lb[n] << (order - n)) * fall)
        fall *= n
    return PowerSeries._canonical("x", order, L * 2**order * math.factorial(order), nums[::-1])


@lru_cache(maxsize=None)
def _inv_two_cosh(order: int) -> PowerSeries:
    """G(x) = 1 / (e^{x/2} + e^{-x/2}) = 1/2 - x^2/16 + 5x^4/768 - ..., truncated.

    From the closed form G_{2m} = E_{2m} / (2 4^m (2m)!), with the Euler
    numbers E_{2m} = (-1)^m |E_{2m}| from :func:`_secant_numbers`; G is even.
    Over the one denominator 2 2^N N! (N = order) the numerator of G_{2m} is
    E_{2m} 2^(N-2m) N!/(2m)!.
    """
    secant = _secant_numbers(order // 2)
    nums, fall = [], 1  # fall = N!/n!, from n = N down
    for n in range(order, -1, -1):
        m, odd = divmod(n, 2)
        nums.append(0 if odd else ((-1) ** m * secant[m] << (order - n)) * fall)
        fall *= n
    return PowerSeries._canonical("x", order, 2**(order + 1) * math.factorial(order), nums[::-1])


@lru_cache(maxsize=None)
def _ahat_power(k: int) -> PowerSeries:
    """F^{2k-1} at order 2k, the series ahat_Bc evaluates at u: one entry per k."""
    return _ahat_factor(2 * k) ** (2 * k - 1)


def ahat_Bc(spec: RingSpec) -> CohClass:
    """The A-hat class of the base, via the Chern-root factorization.

    The stable splitting has formal roots 2v, u with multiplicity 2k-1, and
    u - c*v; each contributes one factor x/(e^{x/2}-e^{-x/2}).  F(u)^{2k-1}
    needs only u^0..u^{2k}: the cached series power is evaluated once.
    """
    f = _ahat_factor(2 * spec.k)
    two_v = CohClass.from_uv(spec, 0, 2)
    u = CohClass.u(spec)
    u_minus_cv = CohClass.from_uv(spec, 1, -spec.c)
    return (
        coh_eval_series(f, two_v)
        * coh_eval_series(_ahat_power(spec.k), u)
        * coh_eval_series(f, u_minus_cv)
    )


def _sech_factor(spec: RingSpec, s: int, t: int) -> CohClass:
    """1/(e^{y/2} + e^{-y/2}) at the normal Euler class y = su + tv."""
    return coh_eval_series(_inv_two_cosh(2 * spec.k), CohClass.from_uv(spec, s, t))


def local_datum(params: FamilyParams):
    """a = + integral over the base of the four-factor product (PLUS branch).

    The product is A-hat(B_c) times 1/(e^{y/2} + e^{-y/2}) at the normal
    Euler class y = su + tv.
    """
    return coh_integrate(ahat_Bc(params.spec) * _sech_factor(params.spec, params.s, params.t))


# ---------------------------------------------------------------------------
# affine structure in t
# ---------------------------------------------------------------------------


def decompose_affine_in_t(k: int, c: int, s: int):
    """(A0, A1) with local datum = A0 - A1*t, from ring probes t = 1, 3, checked at t = 5.

    The ring-route oracle for the univariate split that reports use.
    """
    check_params(k, c, s)
    spec = RingSpec(k, c)
    return _probe_split(spec, ahat_Bc(spec), s)


def _probe_split(spec: RingSpec, ahat: CohClass, s: int):
    """(A0, A1) from the ring integrals of ahat times G(su + tv) at t = 1, 3, checked at t = 5.

    ahat is ahat_Bc(spec), which does not depend on s, so a caller that probes
    several s builds it once.
    """
    a1, a3, a5 = (coh_integrate(ahat * _sech_factor(spec, s, t)) for t in (1, 3, 5))
    A1 = (a1 - a3) / 2
    A0 = a1 + A1
    if a5 != A0 - A1 * 5:
        raise AffinityViolation(
            f"probes t=1,3,5 not collinear for (k={spec.k}, c={spec.c}, s={s}): {a1}, {a3}, {a5}"
        )
    return A0, A1


# the c at which _ring_moments builds A-hat(B_c): 1 and 3 fix the fit in c, -5 checks it
_BUILD_C = (1, 3, -5)


def _moments_at(k: int, c: int):
    """(d, M, N): integer polynomials with I(s, t) = (M(s) + t N(s)) / d at this c.

    Over the numerators of ahat_Bc(RingSpec(k, c)) = (P + v Q)/D and of
    G = g/d_G, with d = D d_G: M_j = g_j mu_j and N_j = (j+1) g_{j+1} nu_j,
    where mu_j = Q_{2k-1-j} + c P_{2k-j} (u^{2k} folds into c u^{2k-1} v, and
    P_{2k} = Q_{-1} = 0) and nu_j = P_{2k-1-j}.
    """
    n = 2 * k
    ahat = ahat_Bc(RingSpec(k, c))
    g = _inv_two_cosh(n)
    P, Q, G = ahat.P, ahat.Q, g.nums
    mu = [Q[n - 1]] + [Q[n - 1 - j] + c * P[n - j] for j in range(1, n)] + [c * P[0]]
    M = [x * m for x, m in zip(G, mu)]
    N = [(j + 1) * G[j + 1] * P[n - 1 - j] for j in range(n)]
    return ahat.den * g.den, M, N


@lru_cache(maxsize=None)
def _ring_moments(k: int):
    """(Y, Z): the polynomials with I(s, t) = c Y(s) + t Z(s) for every c.

    The ring certificate of the split, proved once per k.  c enters
    A-hat(B_c) = p + v q affinely: as series, F(2v) and F(u)^{2k-1} are free
    of c and F(u - cv) = F(u) - c v F'(u) is affine in it, and the ring's
    fold u^{2k} -> c u^{2k-1} v moves c only into v-parts.  As v^2 = 0, no
    product multiplies two v-parts, so p is free of c and q is affine in c;
    then nu_j is free of c, mu_j is affine in c, and
    I(s, t) = X(s) + c Y(s) + t Z(s).  The builds at c = 1 and 3
    fix X, Y and Z; every build, c = -5 included, must equal that fit.  Then
    X = 0, Y = -s A1(s)/(2k) and Z = -A1(s) are checked coefficient by
    coefficient against A1(s), so I(t) = -A1(s) (t + cs/(2k)) = A0 - A1 t
    for every (c, s, t).  Any failed check raises AffinityViolation.
    """
    builds = [_moments_at(k, c) for c in _BUILD_C]
    (d1, M1, N1), (d3, M3, _) = builds[:2]
    D = math.lcm(d1, d3)
    f1, f3 = D // d1, D // d3
    # over 2D: M1 = X + Y and M3 = X + 3Y
    X = [3 * x * f1 - y * f3 for x, y in zip(M1, M3)]
    Y = [y * f3 - x * f1 for x, y in zip(M1, M3)]
    Z = UniPoly("s", N1, d1)
    for c, (d, M, N) in zip(_BUILD_C, builds):
        fit = UniPoly("s", [x + c * y for x, y in zip(X, Y)], 2 * D)
        if UniPoly("s", M, d) != fit or UniPoly("s", N, d) != Z:
            raise AffinityViolation(
                f"ring integral at c={c} is not X(s) + c*Y(s) + t*Z(s) as fitted at c=1, 3 (k={k})"
            )
    Y = UniPoly("s", Y, 2 * D)
    a1 = _a1_poly(k)
    for name, ok in (
        ("X(s) != 0", not any(X)),
        ("Y(s) != -s*A1(s)/(2k)", Y == UniPoly("s", [0] + [-x for x in a1.nums], 2 * k * a1.den)),
        ("Z(s) != -A1(s)", Z == UniPoly("s", [-x for x in a1.nums], a1.den)),
    ):
        if not ok:
            raise AffinityViolation(f"ring integral identity fails at k={k}: {name}")
    return Y, Z


def _certified_split(k: int, c: int, s: int):
    """(A0, A1) from the univariate identity, checked against the ring certificate.

    F is even, so F(2v) = 1 and A-hat(B_c) = F^{2k} - (c/2k) v (F^{2k})';
    integrating against G(su + tv) = G(su) + t v G'(su) gives
    A1 = a1_poly_in_s(k)(s) and A0 = -c*s*A1/(2k).  The ring integral
    I(t) = c Y(s) + t Z(s), from the polynomials that :func:`_ring_moments`
    proved once per k, must have c Y(s) = A0 and Z(s) = -A1 at this (c, s);
    the check runs on every request.
    """
    A1 = a1_poly_in_s(k)(s)
    A0 = -c * s * A1 / (2 * k)
    Y, Z = _ring_moments(k)
    i0, slope = c * Y(s), Z(s)
    if i0 != A0 or slope != -A1:
        raise AffinityViolation(
            f"ring integral {i0} + ({slope})*t disagrees with A0 - A1*t = {A0} - ({A1})*t "
            f"at (k={k}, c={c}, s={s})"
        )
    return A0, A1


def _report(params: FamilyParams, A0, A1) -> EtaReport:
    """The report at params.t from a certified split: a = A0 - A1*t."""
    a = A0 - A1 * params.t
    return EtaReport(
        params=params,
        a_value=a,
        eta_rel=Rational(-2) * a,
        A0=A0,
        A1=A1,
        sign_convention=SIGN_PLUS,
    )


def relative_eta(params: FamilyParams) -> EtaReport:
    """Full report: eta_rel = -2 * local datum, plus the affine decomposition.

    (A0, A1) come from the univariate identity, checked against the per-k
    ring certificate, as for a family of one t.
    """
    return _report(params, *_certified_split(params.k, params.c, params.s))


# ---------------------------------------------------------------------------
# the degree-one coefficient A1, three ways
# ---------------------------------------------------------------------------


def _a1_series(k: int, s_val):
    """Coefficient of u^{2k-1} in the purely univariate A1 generating series.

    The series is (u/(e^{u/2}-e^{-u/2}))^{2k} * S/(2*C^2) with
    S = e^{su/2}-e^{-su/2}, C = e^{su/2}+e^{-su/2}, at a rational s_val.
    Every series is truncated at u^{2k-1}, the coefficient read; truncated
    products, divisions and powers are exact up to their order.  That
    coefficient of the product F^{2k} T is one integer dot product of the two
    numerator tuples over f.den * t.den.  F = u/(e^{u/2}-e^{-u/2}) is built
    here by ps_exp and series division, not read from the closed form that
    reports use.
    """
    order = 2 * k - 1
    half = Rational(1, 2)
    w = ps_exp(half, order + 1, "u") - ps_exp(-half, order + 1, "u")
    # F = 1/(w/u), and w/u is a unit
    shifted = PowerSeries._canonical("u", order, w.den, w.nums[1:])
    f = PowerSeries.constant("u", 1, order).divide(shifted) ** (2 * k)
    t = _t_factor(s_val * half, order)
    return Rational(sum(f.nums[i] * t.nums[order - i] for i in range(order + 1)), f.den * t.den)


def _t_factor(half, order: int) -> PowerSeries:
    """S/(2*C^2) in u, with S = e^{half*u}-e^{-half*u} and C = e^{half*u}+e^{-half*u}."""
    e_plus = ps_exp(half, order, "u")
    e_minus = ps_exp(-half, order, "u")
    sinh2 = e_plus - e_minus
    cosh2 = e_plus + e_minus
    return sinh2.divide((cosh2 * cosh2).scale(2))


def a1_direct(k: int, s: int):
    """A1 as the u^{2k-1} coefficient of the univariate generating series."""
    check_params(k, s=s)
    return _a1_series(k, s)


def a1_residue(k: int, s: int):
    """A1 as a residue after the substitution w = 2*sinh(u/2).

    Computes the compositional inverse u(w), substitutes into
    sinh(su/2)/(2cosh(su/2))^2 * 1/cosh(u/2), and reads the w^{2k-1}
    coefficient (the residue of w^{-2k} times that expression).  Every series
    is truncated at that order, 2k-1: reversion and composition are exact up
    to it.
    """
    check_params(k, s=s)
    order = 2 * k - 1
    half = Rational(1, 2)
    e_half, e_minus_half = ps_exp(half, order, "u"), ps_exp(-half, order, "u")
    u_of_w = (e_half - e_minus_half).revert()
    cosh_u2 = (e_half + e_minus_half).scale(half)
    integrand_u = _t_factor(s * half, order).divide(cosh_u2)
    return integrand_u.compose(u_of_w).coeff(2 * k - 1)


def a1_poly_in_s(k: int) -> UniPoly:
    """A1 as an exact element of Q[s]: odd, of degree 2k-1, built with no series.

    For m = 1..k, [s^{2m-1}] A1 = -E_{2m} t(2k, 2m) / (2^{2m+1} (2k-1)!), with
    the Euler numbers E_{2m} = (-1)^m |E_{2m}| (:func:`_secant_numbers`) and
    the central factorial numbers t(2k, 2m) = [y^m] y (y - 1^2)...(y - (k-1)^2).
    Lagrange inversion gives it from A1 = [u^{2k-1}] F(u)^{2k} T(su), with
    F(u) = u/(2 sinh(u/2)) and T(x) = sinh(x/2)/(2cosh(x/2))^2 (README,
    "Theorem").  The numerators are -E_{2m} t(2k, 2m) 2^{2k-2m} over
    2^{2k+1} (2k-1)!.  The polynomial depends on k alone and is built once per k.
    """
    check_params(k)  # before the per-k cache, where 2.0 would read the entry of k = 2
    return _a1_poly(k)


@lru_cache(maxsize=None)
def _a1_poly(k: int) -> UniPoly:
    secant = _secant_numbers(k)
    t = [0, 1]  # y, then times (y - j^2) for j = 1..k-1: t[m] = t(2k, 2m)
    for j in range(1, k):
        t = [a - j * j * b for a, b in zip([0] + t, t + [0])]
    nums = [0] * (2 * k)
    nums[1::2] = [(-1) ** (m + 1) * secant[m] * t[m] << 2 * (k - m) for m in range(1, k + 1)]
    return UniPoly("s", nums, 2 ** (2 * k + 1) * math.factorial(2 * k - 1))


def find_good_s(k: int, s_candidates) -> list[int]:
    """Filter even nonzero candidates to those with A1(s) != 0: all of them.

    A1(s) != 0 for every s != 0 (README, "Theorem"), so every candidate is
    kept, in order.  More than MAX_S_CANDIDATES candidates, or one that the
    gate refuses, raise before A1(s) is built.
    """
    check_params(k)
    s_candidates = _at_most(MAX_S_CANDIDATES, "s candidates", s_candidates)
    for s in s_candidates:
        check_params(s=s)
    poly = a1_poly_in_s(k)
    return [s for s in s_candidates if poly(s)]


# ---------------------------------------------------------------------------
# family sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanEntry:
    t: int
    report: EtaReport | None = None
    error: str | None = None


@dataclass(frozen=True)
class ScanResult:
    entries: tuple[ScanEntry, ...]
    distinct_count: int

    def to_dict(self, approx: bool = False) -> dict:
        rows = []
        for entry in self.entries:
            if entry.report is not None:
                rows.append(entry.report.to_dict(approx=approx))
            else:
                rows.append({"t": entry.t, "error": entry.error})
        return {"rows": rows, "distinct_count": self.distinct_count}


def _at_most(limit: int, what: str, values):
    """values, or a list of an iterator's items, refused past limit items.

    A range is counted by arithmetic (len() overflows past sys.maxsize) and
    any other sized collection by len(); an iterator is read with islice, at
    most one item past the limit, so past it its length is not known.
    """
    if isinstance(values, range):
        got = count = (values[-1] - values[0]) // values.step + 1 if values else 0
    elif hasattr(values, "__len__"):
        got = count = len(values)
    else:
        values = list(islice(values, limit + 1))
        count, got = len(values), f"more than {limit}"
    if count > limit:
        raise WorkLimit(f"at most {limit} {what} (work limit), got {got}")
    return values


def family_scan(k: int, c: int, s: int, t_values) -> ScanResult:
    """Per-t eta reports plus the number of distinct eta values.

    A k, c or s that the gate refuses, more than MAX_T_VALUES t values, or
    any int t past PARAM_BOUND, raise before any row.  Any other t that the
    gate refuses, a t that is not an int among them, is reported on its own
    row and the scan continues; results are assembled in the order of
    t_values.  (A0, A1) depend only on (k, c, s): at the first valid t they
    are checked once, for every t, against the per-k ring certificate, and
    each valid row is then a = A0 - A1*t.
    """
    check_params(k, c, s)
    rows = []
    for t in _at_most(MAX_T_VALUES, "t values per scan", t_values):
        try:
            rows.append(FamilyParams(k, c, s, t))
        except WorkLimit:  # a t past PARAM_BOUND refuses the whole scan, like the count
            raise
        except InvalidParams as exc:
            rows.append(ScanEntry(t=t, error=str(exc)))
    entries = []
    split = None
    for row in rows:
        if isinstance(row, FamilyParams):
            split = split or _certified_split(k, c, s)
            row = ScanEntry(t=row.t, report=_report(row, *split))
        entries.append(row)
    distinct = {entry.report.eta_rel for entry in entries if entry.report}
    return ScanResult(entries=tuple(entries), distinct_count=len(distinct))
