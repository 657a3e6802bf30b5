"""Exact arithmetic in the rational cohomology ring Q[u,v]/(v^2, u^{2k} - c*u^{2k-1}*v).

Classes are kept in the normal form p(u) + v*q(u) with deg p, deg q <= 2k-1;
reduction by the defining relations happens eagerly in every operation, so
equality is a syntactic check.  u and v both sit in degree 2 and the top
nonzero degree is 4k, spanned by u^{2k-1}*v.

A product builds only the terms that can survive reduction: p1*p2 up to
u^{2k} (which folds into c*u^{2k-1}*v) and p1*q2 + q1*p2 up to u^{2k-1}*v.
It runs coeffcore's integer kernel directly: each of p1, q1, p2, q2 is
cleared of denominators once and p1*q2 + q1*p2 is summed in integers, one
rational per coefficient.  ``**`` is the package's one binary
exponentiation.

Because v^2 = 0 the ring is nearly univariate: :func:`coh_eval_series`
evaluates f(p + v*q) as f(p) + v*q*f'(p) from the powers of the u-polynomial
p alone, and :func:`coh_integrate_product` reads the integral of a product
from its two factors in O(k) without forming it.  Both take the product's
integer path: each operand is cleared of denominators once, the sums run in
integers, and each result coefficient is one rational.  No k above MAX_K
(64) is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .coeffcore import (
    Rational,
    _cleared,
    _int_convolve,
    rat_to_str,
)
from .series import PowerSeries

__all__ = [
    "MAX_K",
    "RingSpec",
    "CohClass",
    "SpecMismatch",
    "NonNilpotentArgument",
    "InsufficientOrder",
    "coh_eval_series",
    "coh_integrate",
    "coh_integrate_product",
]


# work limit: the largest k accepted anywhere in the package
MAX_K = 64


class SpecMismatch(ValueError):
    """Operation on classes living in rings with different (k, c)."""


class NonNilpotentArgument(ValueError):
    """Series evaluation at a class with a nonzero constant part."""


class InsufficientOrder(ValueError):
    """Series truncation order too small to evaluate exactly in the ring."""


@dataclass(frozen=True)
class RingSpec:
    """Parameters (k, c) of the ring; k >= 2 and c odd are standing assumptions."""

    k: int
    c: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.k > MAX_K:
            raise ValueError(f"k must be <= {MAX_K} (work limit), got {self.k}")
        if self.c % 2 == 0:
            raise ValueError(f"c must be odd, got {self.c}")

    @property
    def top_u_degree(self) -> int:
        return 2 * self.k - 1


class CohClass:
    """Normal-form ring element p(u) + v*q(u).

    p and q are stored as coefficient tuples of length 2k indexed by the
    u-degree; immutable.
    """

    __slots__ = ("spec", "p", "q")

    def __init__(self, spec: RingSpec, p=(), q=()):
        n = 2 * spec.k
        p = list(p)
        q = list(q)
        if len(p) > n or len(q) > n:
            raise ValueError("coefficients exceed normal-form degree bound; reduce first")
        # only the supplied entries are coerced; the padding shares one zero
        zero = Rational(0)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "p", tuple(Rational(c) for c in p) + (zero,) * (n - len(p)))
        object.__setattr__(self, "q", tuple(Rational(c) for c in q) + (zero,) * (n - len(q)))

    @classmethod
    def _trusted(cls, spec: RingSpec, p: tuple, q: tuple) -> "CohClass":
        """Wrap tuples that are already length 2k and hold only Rational values.

        Ring operations produce such tuples themselves, so they skip the
        length check and per-coefficient coercion of the public constructor.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "spec", spec)
        object.__setattr__(obj, "p", p)
        object.__setattr__(obj, "q", q)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("CohClass is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec) -> "CohClass":
        return cls(spec)

    @classmethod
    def one(cls, spec: RingSpec) -> "CohClass":
        return cls(spec, (1,))

    @classmethod
    def u(cls, spec: RingSpec) -> "CohClass":
        return cls(spec, (0, 1))

    @classmethod
    def v(cls, spec: RingSpec) -> "CohClass":
        return cls(spec, (), (1,))

    @classmethod
    def from_uv(cls, spec: RingSpec, cu, cv) -> "CohClass":
        """The degree-2 class cu*u + cv*v."""
        return cls(spec, (0, cu), (cv,))

    @classmethod
    def reduce(cls, spec: RingSpec, p_raw, q_raw) -> "CohClass":
        """Reduce arbitrary-degree (p, q) by v^2 = 0, u^{2k} = c*u^{2k-1}*v.

        Consequently u^{2k}*v = 0 and u^m = 0 for m > 2k.
        """
        n = 2 * spec.k
        zero = Rational(0)
        p = [Rational(c) for c in p_raw]
        q = [Rational(c) for c in q_raw]
        p += [zero] * (n - len(p))
        q += [zero] * (n - len(q))
        return cls._reduce_padded(spec, p, q)

    @classmethod
    def _reduce_padded(cls, spec: RingSpec, p: list, q: list) -> "CohClass":
        """reduce() for Rational lists already at least 2k long."""
        n = 2 * spec.k
        q = q[:n]
        # only u^{2k} survives reduction into the v-part
        if len(p) > n and p[n]:
            q[n - 1] = q[n - 1] + p[n] * spec.c
        return cls._trusted(spec, tuple(p[:n]), tuple(q))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.p) and not any(self.q)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def constant_part(self):
        return self.p[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        return self.spec == other.spec and self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.spec, self.p, self.q))

    def graded_parts(self) -> dict[int, "CohClass"]:
        """Decompose into components of pure cohomological degree."""
        out: dict[int, CohClass] = {}
        for i, c in enumerate(self.p):
            if c:
                cur = out.setdefault(2 * i, CohClass.zero(self.spec))
                out[2 * i] = cur + CohClass(self.spec, [0] * i + [c])
        for i, c in enumerate(self.q):
            if c:
                deg = 2 * i + 2
                cur = out.setdefault(deg, CohClass.zero(self.spec))
                out[deg] = cur + CohClass(self.spec, (), [0] * i + [c])
        return out

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "CohClass"):
        if self.spec != other.spec:
            raise SpecMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        return CohClass._trusted(
            self.spec,
            tuple(a + b for a, b in zip(self.p, other.p)),
            tuple(a + b for a, b in zip(self.q, other.q)),
        )

    def __neg__(self) -> "CohClass":
        return CohClass._trusted(
            self.spec, tuple(-c for c in self.p), tuple(-c for c in self.q)
        )

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def scale(self, c) -> "CohClass":
        c = Rational(c)
        return CohClass._trusted(
            self.spec, tuple(c * a for a in self.p), tuple(c * a for a in self.q)
        )

    def __mul__(self, other):
        if not isinstance(other, CohClass):
            return self.scale(other)
        self._check(other)
        n = 2 * self.spec.k
        # (p1 + v q1)(p2 + v q2) = p1 p2 + v (p1 q2 + q1 p2)   [v^2 = 0];
        # u^m = 0 for m > 2k and u^{2k} v = 0, so nothing past these lengths survives.
        # Each of p1, q1, p2, q2 is cleared once, and p1 q2 + q1 p2 is summed in
        # integers over one denominator, one Rational per coefficient
        (dp1, p1), (dq1, q1) = _cleared(self.p), _cleared(self.q)
        (dp2, p2), (dq2, q2) = _cleared(other.p), _cleared(other.q)
        zero = Rational(0)
        d = dp1 * dp2
        pp = [Rational(c, d) if c else zero for c in _int_convolve(n + 1, p1, p2)]
        d1, d2 = dp1 * dq2, dq1 * dp2
        d = lcm(d1, d2)
        f1, f2 = d // d1, d // d2
        vq = [x * f1 + y * f2 for x, y in zip(_int_convolve(n, p1, q2), _int_convolve(n, q1, p2))]
        vq = [Rational(c, d) if c else zero for c in vq]
        return CohClass._reduce_padded(self.spec, pp, vq)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CohClass":
        if n < 0:
            raise ValueError("negative power in cohomology ring")
        result = CohClass.one(self.spec)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "k": self.spec.k,
            "c": self.spec.c,
            "p": [rat_to_str(c) for c in self.p],
            "q": [rat_to_str(c) for c in self.q],
        }

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.p):
            if c:
                terms.append(f"({rat_to_str(c)})u^{i}")
        for i, c in enumerate(self.q):
            if c:
                terms.append(f"({rat_to_str(c)})u^{i}v")
        return "CohClass(" + (" + ".join(terms) or "0") + ")"


def coh_eval_series(f: PowerSeries, x: CohClass) -> CohClass:
    """sum_n f_n * x^n for a positive-degree class x; a finite sum by nilpotency.

    With x = p(u) + v*q(u) and v^2 = 0, f(x) = f(p) + v*q*f'(p).  As p(0) = 0,
    p = u*r and p^m = u^m * r^m, so only r^m is formed, to the 2k + 1 - m
    terms that survive below u^{2k+1}; u^{2k} then folds into c*u^{2k-1}*v.

    One integer path for every class: f is cleared once (f_m = F_m/d_f), r
    once (r = R/d_r) and q once, R^m is formed in integers, and f(p) and
    f'(p) are accumulated as numerators over the one denominator
    d_f*d_r^{2k}.  Each output coefficient is then one Rational.  For a
    degree-2 class R is one integer and the evaluation costs O(k) integer
    products.  Requires order(f) >= 2k so the truncation cannot hide a
    surviving term.
    """
    if x.constant_part():
        raise NonNilpotentArgument("class has a nonzero constant part")
    n = 2 * x.spec.k
    if f.order < n:
        raise InsufficientOrder(
            f"series order {f.order} < 2k = {n}; higher terms would be lost"
        )
    d_f, f_terms = _cleared(f.coeffs[: n + 1])
    d_r, r = _cleared(x.p[1:])
    d_q, q = _cleared(x.q)
    coeff = dict(f_terms)
    # lift[m] = d_r^(2k - m) takes a term over d_f*d_r^m to d_f*d_r^(2k)
    lift = [1]
    for _ in range(n):
        lift.append(lift[-1] * d_r)
    lift.reverse()
    fp = [0] * (n + 1)  # f(p) numerators, up to u^{2k}
    dfp = [0] * n  # f'(p) numerators, up to u^{2k-1}
    fp[0] = coeff.get(0, 0) * lift[0]
    r_pow = [(0, 1)]  # R^(m-1) on entry to step m, as (index, integer) terms
    for m in range(1, n + 1):
        cm = coeff.get(m)
        if cm:
            w = m * cm * lift[m - 1]
            for i, y in r_pow:
                if i > n - m:
                    break
                dfp[m - 1 + i] += w * y
        r_pow = [(i, y) for i, y in enumerate(_int_convolve(n + 1 - m, r_pow, r)) if y]
        if not r_pow:
            break
        if cm:
            w = cm * lift[m]
            for i, y in r_pow:
                fp[m + i] += w * y
    vq = _int_convolve(n, q, [(i, y) for i, y in enumerate(dfp) if y])
    # u^{2k} folds into c*u^{2k-1}*v; the v-part's denominator carries d_q too
    vq[n - 1] += fp[n] * x.spec.c * d_q
    zero = Rational(0)
    d = d_f * lift[0]
    p = tuple(Rational(y, d) if y else zero for y in fp[:n])
    d *= d_q
    return CohClass._trusted(x.spec, p, tuple(Rational(y, d) if y else zero for y in vq))


def coh_integrate(a: CohClass):
    """Integration over the 4k-manifold: the coefficient of u^{2k-1}*v."""
    return a.q[2 * a.spec.k - 1]


def coh_integrate_product(a: CohClass, b: CohClass):
    """coh_integrate(a * b) in O(k), without forming the product.

    The u^{2k-1}*v coefficient of (p1 + v q1)(p2 + v q2) is
    [u^{2k-1}](p1 q2 + q1 p2) + c * [u^{2k}](p1 p2).  Each of p1, q1, p2, q2
    is cleared once; the three terms are integer dot products, one Rational
    each.
    """
    a._check(b)
    n = 2 * a.spec.k
    (dp1, p1), (dq1, q1) = _cleared(a.p), _cleared(a.q)
    (dp2, p2), (dq2, q2) = _cleared(b.p), _cleared(b.q)
    p2, q2 = dict(p2), dict(q2)
    return (
        Rational(sum(x * q2.get(n - 1 - i, 0) for i, x in p1), dp1 * dq2)
        + Rational(sum(x * p2.get(n - 1 - i, 0) for i, x in q1), dq1 * dp2)
        + Rational(a.spec.c * sum(x * p2.get(n - i, 0) for i, x in p1), dp1 * dp2)
    )
