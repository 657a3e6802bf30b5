"""Exact arithmetic in the rational cohomology ring Q[u,v]/(v^2, u^{2k} - c*u^{2k-1}*v).

Classes are kept in the normal form (P(u) + v*Q(u)) / den with integer
coefficient tuples P, Q of length 2k, den > 0 and gcd(den, *P, *Q) = 1.
Reduction by the defining relations happens eagerly in every operation and
the common factor is divided out once per result, so equality compares
integers.  u and v both sit in degree 2 and the top nonzero degree is 4k,
spanned by u^{2k-1}*v.

A product is one integer convolution over den1*den2 that builds only the
terms that can survive reduction: P1*P2 up to u^{2k} (which folds into
c*u^{2k-1}*v) and P1*Q2 + Q1*P2 up to u^{2k-1}*v.  No rational is built per
coefficient.  :func:`_mul_loop` runs it as three calls of
:func:`~etainv.coeffcore._int_convolve`, the convolution that series and
polynomial products run on, and then ``_canonical``.  Up to
2k = _KERNEL_MAX_N = 8 the same convolution is unrolled into one
straight-line step per ring size, whose source is generated from 2k alone and
compiled on the first product at that size (:func:`_kernel`): it takes the
two classes' integers and returns the finished class through ``_canonical``.
At these sizes a product's cost is the interpreter's per-call work, not the
arithmetic, so ``*`` and ``==`` try the specs' identity before their
``==``, and a class's slots are set through their own descriptors rather
than ``object.__setattr__``.  Past k = 4 the kernel's compile time grows as
k^2, the big-int entries of real classes leave it little to save (nothing
at k = 64), and a request makes too few products per ring to repay the
compile.
``**`` is the package's one binary exponentiation; ``*`` takes two classes,
and :meth:`CohClass.scale` takes a rational.  Coefficients and scale factors
are ``int`` or ``Fraction``; a float is a ``TypeError``.

Because v^2 = 0 the ring is nearly univariate: :func:`coh_eval_series`
evaluates f at a degree-2 class a*u + b*v in closed form, as
f(a*u) + b*v*f'(a*u).  It runs on integer numerators, the series' and the
class's, so the sums run in integers and the result is one canonical class.
The package's one parameter gate, :func:`check_params`, lives here beside
MAX_K, in the lowest module that needs it; every public entry point of the
package, RingSpec included, calls it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, mul

from .coeffcore import Rational, _check_exact, _int_convolve, _terms, rat_to_str
from .series import PowerSeries

__all__ = [
    "MAX_K",
    "PARAM_BOUND",
    "InvalidParams",
    "WorkLimit",
    "check_params",
    "RingSpec",
    "CohClass",
    "SpecMismatch",
    "NonNilpotentArgument",
    "InsufficientOrder",
    "coh_eval_series",
    "coh_integrate",
]


# work limit: the largest k accepted anywhere in the package
MAX_K = 64
# work limit: every accepted c, s and t has absolute value below this, so the
# largest value printed, A1(s) at k = MAX_K, stays far inside the
# interpreter's 4300-digit limit on int-to-string conversion
PARAM_BOUND = 2**63


class SpecMismatch(ValueError):
    """Operation on classes living in rings with different (k, c)."""


class NonNilpotentArgument(ValueError):
    """Series evaluation at a class with a nonzero constant part."""


class InsufficientOrder(ValueError):
    """Series truncation order too small to evaluate exactly in the ring."""


class InvalidParams(ValueError):
    """Family parameters violating the standing assumptions or a work limit."""


class WorkLimit(InvalidParams):
    """Input past a work limit: it refuses the whole request, never one family row."""


def check_params(k=2, c=1, s=2, t=1):
    """The one parameter gate: raise InvalidParams unless k, c, s and t are valid.

    Every public entry point calls it, with the parameters it takes, before
    any series or ring work.  A parameter left out keeps its default, a
    valid value, so only the given ones can fail; None is a value like any
    other, and is refused.  The checks run in this order, and the first
    failure raises:

    1. every value is an int (a bool is refused);
    2. k >= 2, then k <= MAX_K (work limit);
    3. |c|, |s| and |t| < PARAM_BOUND (work limit);
    4. c odd, s even and nonzero, t odd;
    5. gcd(s, t) = 1.

    k >= 2 and steps 4 and 5 are the paper's standing assumptions; k <= MAX_K
    and step 3 are work limits, and raise WorkLimit, an InvalidParams.
    """
    # each failure names the first parameter in the order k, c, s, t that breaks it
    if not type(k) is type(c) is type(s) is type(t) is int:
        name, value = next((n, v) for n, v in zip("kcst", (k, c, s, t)) if type(v) is not int)
        raise InvalidParams(f"{name} must be an int, got {value!r}")
    if k < 2:
        raise InvalidParams(f"k must be >= 2 (standing assumption), got k={k}")
    if k > MAX_K:
        raise WorkLimit(f"k must be <= {MAX_K} (work limit), got k={k}")
    if abs(c) | abs(s) | abs(t) >= PARAM_BOUND:  # the or reaches 2^63 when one of them does
        name, value = next((n, v) for n, v in zip("cst", (c, s, t)) if abs(v) >= PARAM_BOUND)
        raise WorkLimit(
            f"|{name}| must be < 2^63 (work limit), got a {abs(value).bit_length()}-bit {name}"
        )
    if c % 2 == 0:
        raise InvalidParams(f"c must be odd (standing assumption), got c={c}")
    if s == 0 or s % 2 != 0:
        raise InvalidParams(f"s must be a nonzero even integer (standing assumption), got s={s}")
    if t % 2 == 0:
        raise InvalidParams(f"t must be odd (standing assumption), got t={t}")
    if gcd(s, t) != 1:
        raise InvalidParams(
            f"s and t must be coprime (standing assumption), got gcd({s},{t})={gcd(s, t)}"
        )


@dataclass(frozen=True)
class RingSpec:
    """Parameters (k, c) of the ring, checked by :func:`check_params`."""

    k: int
    c: int

    def __post_init__(self):
        check_params(self.k, self.c)


class CohClass:
    """Normal-form ring element (P(u) + v*Q(u)) / den.

    P and Q are tuples of 2k integers indexed by the u-degree, den > 0 and
    gcd(den, *P, *Q) == 1, so the form is canonical and equality compares
    integers.  Immutable.
    """

    __slots__ = ("spec", "den", "P", "Q")

    def __init__(self, spec: RingSpec, p=(), q=()):
        n = 2 * spec.k
        p, q = list(p), list(q)
        if len(p) > n or len(q) > n:
            raise ValueError(f"at most 2k = {n} coefficients per part, got {len(p)} and {len(q)}")
        den = 1  # ints are their own numerators; rationals go over the lcm of their denominators
        if not all(type(c) is int for c in p + q):
            _check_exact(p + q, "CohClass coefficients")
            den = lcm(*[c.denominator for c in p + q])
            p, q = ([c.numerator * (den // c.denominator) for c in cs] for cs in (p, q))
        self._assign(spec, den, tuple(p) + (0,) * (n - len(p)), tuple(q) + (0,) * (n - len(q)))

    @classmethod
    def _canonical(cls, spec: RingSpec, den: int, P: tuple, Q: tuple) -> "CohClass":
        """The class (P + v*Q)/den from length-2k integer tuples and den > 0.

        Ring operations build their results here, with no per-coefficient
        rational: the common factor of den, P and Q is divided out once.
        """
        return object.__new__(cls)._assign(spec, den, P, Q)

    def _assign(self, spec: RingSpec, den: int, P: tuple, Q: tuple) -> "CohClass":
        g = gcd(den, *P, *Q)
        if g != 1:
            den //= g
            P = tuple(x // g for x in P)
            Q = tuple(x // g for x in Q)
        # the slots' own setters: __setattr__ below refuses every write
        _set_spec(self, spec)
        _set_den(self, den)
        _set_P(self, P)
        _set_Q(self, Q)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CohClass is immutable")

    # -- constructors ------------------------------------------------------

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

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.P) or any(self.Q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohClass):
            return NotImplemented
        return (
            (self.spec is other.spec or self.spec == other.spec)
            and self.den == other.den
            and self.P == other.P
            and self.Q == other.Q
        )

    def __hash__(self):
        return hash((self.spec, self.den, self.P, self.Q))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "CohClass"):
        if self.spec != other.spec:
            raise SpecMismatch(f"{self.spec} vs {other.spec}")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        den = lcm(self.den, other.den)
        f1, f2 = den // self.den, den // other.den
        return CohClass._canonical(
            self.spec,
            den,
            tuple(a * f1 + b * f2 for a, b in zip(self.P, other.P)),
            tuple(a * f1 + b * f2 for a, b in zip(self.Q, other.Q)),
        )

    def __neg__(self) -> "CohClass":
        return CohClass._canonical(
            self.spec, self.den, tuple(-x for x in self.P), tuple(-x for x in self.Q)
        )

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def scale(self, c) -> "CohClass":
        """c * self for an int or Fraction c."""
        _check_exact((c,), "scale factor")
        a = c.numerator
        return CohClass._canonical(
            self.spec,
            self.den * c.denominator,
            tuple(a * x for x in self.P),
            tuple(a * x for x in self.Q),
        )

    def __mul__(self, other):
        if not isinstance(other, CohClass):
            return NotImplemented
        spec = self.spec
        if other.spec is not spec:  # classes of one ring usually share its RingSpec
            self._check(other)
        n = 2 * spec.k
        # the numerators multiply over den1*den2
        if n <= _KERNEL_MAX_N:
            return _kernel(n)(spec, self.den * other.den, self.P, self.Q, other.P, other.Q, spec.c)
        pp, vq = _mul_loop(self.P, self.Q, other.P, other.Q, spec.c)
        return CohClass._canonical(spec, self.den * other.den, pp, vq)

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

    def __repr__(self):
        terms = [
            f"({rat_to_str(Rational(x, self.den))})u^{i}{part}"
            for part, xs in (("", self.P), ("v", self.Q))
            for i, x in enumerate(xs)
            if x
        ]
        return "CohClass(" + (" + ".join(terms) or "0") + ")"


_set_spec, _set_den, _set_P, _set_Q = (
    CohClass.__dict__[name].__set__ for name in CohClass.__slots__
)

# the largest 2k whose products run through a generated kernel: past it the
# compile cost grows as n^2 and the big-int products erase the saving
_KERNEL_MAX_N = 8


def _mul_loop(P1, Q1, P2, Q2, c):
    """Numerators (pp, vq) of (P1 + v Q1)(P2 + v Q2) in the ring, by _int_convolve.

    (p1 + v q1)(p2 + v q2) = p1 p2 + v (p1 q2 + q1 p2)   [v^2 = 0];
    u^m = 0 for m > 2k and u^{2k} v = 0, so p1 p2 is kept up to u^{2k}, whose
    coefficient folds into c*u^{2k-1}*v, and p1 q2 + q1 p2 up to u^{2k-1}.
    """
    n = len(P1)
    p1, p2 = _terms(P1), _terms(P2)
    pp = _int_convolve(n + 1, p1, p2)
    vq = list(map(add, _int_convolve(n, p1, _terms(Q2)), _int_convolve(n, _terms(Q1), p2)))
    vq[-1] += c * pp.pop()
    return tuple(pp), tuple(vq)


@lru_cache(maxsize=None)
def _kernel(n: int):
    """The product of two classes at 2k = n, in one straight-line step.

    The function takes (spec, den, P1, Q1, P2, Q2, c), with den = den1*den2,
    and returns ``CohClass._canonical(spec, den, *_mul_loop(P1, Q1, P2, Q2, c))``.
    It unpacks the four tuples into locals a_i, b_i, x_i, y_i and builds
    pp[m] = sum a_i x_{m-i} and vq[m] = sum (a_i y_{m-i} + b_i x_{m-i}),
    with c * sum_{i>=1} a_i x_{n-i} (the u^{2k} fold) added to vq[n-1].
    As ``dataclasses`` builds ``__init__``, the source is generated and run
    by ``exec``; it is made from the int n alone, through ``range(n)``, so
    no class data reaches ``exec``.  Built once per n, on first use.
    """

    def conv(left, right, m):
        return " + ".join(f"{left}{i}*{right}{m - i}" for i in range(m + 1))

    pp = [conv("a", "x", m) for m in range(n)]
    vq = [f"{conv('a', 'y', m)} + {conv('b', 'x', m)}" for m in range(n)]
    vq[-1] += " + c*(" + " + ".join(f"a{i}*x{n - i}" for i in range(1, n)) + ")"
    lines = ["def product(spec, den, P1, Q1, P2, Q2, c):"]
    for name, arg in zip("abxy", ("P1", "Q1", "P2", "Q2")):
        lines.append("    " + "".join(f"{name}{i}, " for i in range(n)) + f"= {arg}")
    lines.append(f"    return canonical(spec, den, ({', '.join(pp)},), ({', '.join(vq)},))")
    namespace = {"canonical": CohClass._canonical}
    exec("\n".join(lines), namespace)
    return namespace["product"]


def coh_eval_series(f: PowerSeries, x: CohClass) -> CohClass:
    """sum_n f_n * x^n at a degree-2 class x = a*u + b*v; a finite sum by nilpotency.

    As v^2 = 0, f(x) = f(a*u) + b*v*f'(a*u).  With x = (A*u + B*v)/D from the
    class's numerators and f_m = F_m/d_f from the series', over d_f*D^{2k+1}
    the coefficient of u^m is F_m A^m D^{2k+1-m} and that of u^m*v is
    B (m+1) F_{m+1} A^m D^{2k-m}; the u^{2k} term F_{2k} A^{2k} D folds into
    c*u^{2k-1}*v.  O(k) integer products and one canonical class.  Requires
    order(f) >= 2k so the truncation cannot hide a surviving term.
    """
    if x.P[0]:
        raise NonNilpotentArgument("class has a nonzero constant part")
    if any(x.P[2:]) or any(x.Q[1:]):
        raise ValueError("series are evaluated only at degree-2 classes a*u + b*v")
    n = 2 * x.spec.k
    if f.order < n:
        raise InsufficientOrder(
            f"series order {f.order} < 2k = {n}; higher terms would be lost"
        )
    F = f.nums
    A, B, D = x.P[1], x.Q[0], x.den
    # A^m and D^m, one multiply per step
    a_pow = list(accumulate(repeat(A, n), mul, initial=1))
    d_pow = list(accumulate(repeat(D, n + 1), mul, initial=1))
    P = tuple(F[m] * a_pow[m] * d_pow[n + 1 - m] for m in range(n))
    Q = [B * (m + 1) * F[m + 1] * a_pow[m] * d_pow[n - m] for m in range(n)]
    # u^{2k} folds into c*u^{2k-1}*v
    Q[n - 1] += x.spec.c * F[n] * a_pow[n] * D
    return CohClass._canonical(x.spec, f.den * d_pow[n + 1], P, tuple(Q))


def coh_integrate(a: CohClass):
    """Integration over the 4k-manifold: the coefficient of u^{2k-1}*v."""
    return Rational(a.Q[-1], a.den)

