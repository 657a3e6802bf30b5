"""Truncated formal power series over Q.

A series carries its variable tag and an explicit truncation order N; the
coefficient list always has exactly N+1 rationals (``int`` or ``Fraction``)
and no operation ever reports a coefficient beyond the truncation.
Mixed-order arithmetic truncates to the minimum order.

A product clears both operands once (:func:`~etainv.coeffcore._cleared`),
convolves the integer numerators (:func:`~etainv.coeffcore._int_convolve`)
and builds one ``Fraction`` per nonzero output coefficient.  The two
triangular recurrences, :meth:`PowerSeries.__pow__` and
:meth:`PowerSeries.divide`, run on integers too.  Each input is cleared once
(:func:`~etainv.coeffcore._cleared`); the outputs found so far are kept as
integer numerators over one running denominator, the lcm of their
denominators (:func:`_append_over`); so the sum behind each new coefficient
is integer multiply-adds, and the coefficient is one ``Fraction``, reduced
by one gcd.  Every output stays in lowest terms, so the running denominator
is no larger than the lcm of the outputs' own denominators.
"""

from __future__ import annotations

import math

from .coeffcore import Rational, _cleared, _int_convolve

__all__ = [
    "PowerSeries",
    "VariableMismatch",
    "NonUnitConstantTerm",
    "NonzeroConstantInner",
    "NotReversible",
    "OrderExceeded",
    "ps_exp",
]


class VariableMismatch(ValueError):
    """Arithmetic between series in different variables."""


class NonUnitConstantTerm(ZeroDivisionError):
    """Series division by a series whose constant term is not a unit."""


class NonzeroConstantInner(ValueError):
    """Composition with an inner series having a nonzero constant term."""


class NotReversible(ValueError):
    """Reversion of a series without a unit linear term (or nonzero f(0))."""


class OrderExceeded(IndexError):
    """Coefficient request beyond the truncation order."""


def _append_over(nums: list, den: int, q) -> int:
    """Append the rational q to nums, integer numerators over den; return the new den.

    When q's denominator does not divide den, every entry of nums is first
    rescaled to the lcm of the two, which becomes the new den.
    """
    d = q.denominator
    if den % d:
        scale = d // math.gcd(den, d)
        nums[:] = [x * scale for x in nums]
        den *= scale
    nums.append(q.numerator * (den // d))
    return den


class PowerSeries:
    """f = sum_{n=0}^{order} coeffs[n] * variable^n, exact."""

    __slots__ = ("variable", "order", "coeffs")

    def __init__(self, variable: str, coeffs, order: int | None = None):
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = cs[: order + 1]
        cs += [0] * (order + 1 - len(cs))
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, variable: str, value, order: int) -> "PowerSeries":
        return cls(variable, (value,), order)

    @classmethod
    def identity(cls, variable: str, order: int) -> "PowerSeries":
        """The series f(x) = x."""
        return cls(variable, (0, 1), order)

    # -- access ------------------------------------------------------------

    def coeff(self, n: int):
        """The exact coefficient of variable^n; OrderExceeded past truncation."""
        if n < 0:
            raise OrderExceeded(f"negative degree {n}")
        if n > self.order:
            raise OrderExceeded(f"degree {n} exceeds truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self
        return PowerSeries(self.variable, self.coeffs, order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (self.variable, self.order, self.coeffs) == (other.variable, other.order, other.coeffs)

    def __hash__(self):
        return hash((self.variable, self.order, self.coeffs))

    # -- ring arithmetic ---------------------------------------------------

    def _align(self, other: "PowerSeries") -> int:
        if self.variable != other.variable:
            raise VariableMismatch(
                f"series in {self.variable!r} vs {other.variable!r}"
            )
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return self.shift_const(other)
        n = self._align(other)
        return PowerSeries(
            self.variable, (self.coeffs[i] + other.coeffs[i] for i in range(n + 1)), n
        )

    __radd__ = __add__

    def shift_const(self, c) -> "PowerSeries":
        cs = list(self.coeffs)
        cs[0] = cs[0] + c
        return PowerSeries(self.variable, cs, self.order)

    def __neg__(self):
        return PowerSeries(self.variable, (-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return self.shift_const(-other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return self.scale(other)
        n = self._align(other)
        da, a_terms = _cleared(self.coeffs[: n + 1])
        db, b_terms = _cleared(other.coeffs[: n + 1])
        out = _int_convolve(n + 1, a_terms, b_terms)
        return PowerSeries(self.variable, (Rational(c, da * db) if c else 0 for c in out), n)

    __rmul__ = __mul__

    def scale(self, c) -> "PowerSeries":
        return PowerSeries(self.variable, (c * a for a in self.coeffs), self.order)

    def __pow__(self, n: int):
        """self**n by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), O(order^2).

        For g = f**n with f(0) a unit: g_0 = f_0^n and
        g_m = (1/(m f_0)) * sum_{j=1..m} ((n+1) j - m) f_j g_{m-j}.
        A series whose lowest nonzero term is f_v x^v is raised as
        x^{nv} (f/x^v)**n; f_v is nonzero, so a unit of Q.

        f/x^v is cleared once, f_j = a_j/D, and g_0..g_{m-1} are kept as
        integers G_i over one running denominator L, so the D cancels and
        g_m = sum_j ((n+1) j - m) a_j G_{m-j} / (m a_0 L): an integer sum and
        one Fraction per coefficient.
        """
        if n < 0:
            raise ValueError("negative series power; use divide")
        order = self.order
        if n == 0:
            return PowerSeries.constant(self.variable, 1, order)
        v = next((i for i, c in enumerate(self.coeffs) if c), None)
        if v is None or n * v > order:
            return PowerSeries(self.variable, (), order)
        top = order - n * v
        f = self.coeffs[v : v + top + 1]
        _, a_terms = _cleared(f)
        (_, a0), *a_terms = a_terms
        g = [f[0] ** n]
        nums = [g[0].numerator]
        den = g[0].denominator
        for m in range(1, top + 1):
            acc = 0
            for j, a in a_terms:
                if j > m:
                    break
                acc += ((n + 1) * j - m) * a * nums[m - j]
            g.append(Rational(acc, m * a0 * den))
            den = _append_over(nums, den, g[m])
        return PowerSeries(self.variable, [0] * (n * v) + g, order)

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """h with h * other = self to the common truncation order.

        Requires other(0) to be nonzero.  Both operands are cleared once,
        self_m = c_m/C and other_j = b_j/B, and h_0..h_{m-1} are kept as
        integers H_i over one running denominator L, so
        h_m = (c_m B L - C sum_{j>=1} b_j H_{m-j}) / (C L b_0): an integer
        sum and one Fraction per coefficient.
        """
        n = self._align(other)
        if not other.coeffs[0]:
            raise NonUnitConstantTerm("constant term is zero")
        c_den, c_terms = _cleared(self.coeffs[: n + 1])
        b_den, b_terms = _cleared(other.coeffs[: n + 1])
        (_, b0), *b_terms = b_terms
        cb = [0] * (n + 1)
        for m, c in c_terms:
            cb[m] = c * b_den
        out = []
        nums = []
        den = 1
        for m in range(n + 1):
            acc = 0
            for j, b in b_terms:
                if j > m:
                    break
                acc += b * nums[m - j]
            out.append(Rational(cb[m] * den - c_den * acc, c_den * den * b0))
            den = _append_over(nums, den, out[m])
        return PowerSeries(self.variable, out, n)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner), exact to min(self.order, inner.order); inner(0) must vanish."""
        if inner.coeffs[0]:
            raise NonzeroConstantInner("inner series has a nonzero constant term")
        n = min(self.order, inner.order)
        g = inner.truncate(n)
        # Horner in the outer variable; truncation keeps every step O(n^2)
        acc = PowerSeries.constant(g.variable, self.coeffs[n], n)
        for m in range(n - 1, -1, -1):
            acc = acc * g + self.coeffs[m]
        return acc

    def revert(self) -> "PowerSeries":
        """Compositional inverse g with self(g) = id, by Lagrange inversion.

        Requires f(0) = 0 and a nonzero linear coefficient.
        """
        if self.order < 1 or self.coeffs[0]:
            raise NotReversible("series must have zero constant term")
        if not self.coeffs[1]:
            raise NotReversible("linear coefficient must be a unit")
        n = self.order
        # self = x * h with h(0) a unit; q = 1/h, g_m = [x^{m-1}] q^m / m
        h = PowerSeries(self.variable, self.coeffs[1:], n - 1)
        one = PowerSeries.constant(self.variable, 1, h.order)
        q = one.divide(h)
        out = [0, q.coeffs[0]]
        power = q
        for m in range(2, n + 1):
            power = power * q
            c = power.coeffs[m - 1]
            out.append(c / m if c else 0)
        return PowerSeries(self.variable, out, n)

    def __repr__(self):
        return f"PowerSeries({self.variable!r}, {list(self.coeffs)!r})"


def ps_exp(a, order: int, variable: str = "x") -> PowerSeries:
    """exp(a*x) truncated: sum_{n<=order} a^n x^n / n!."""
    if order < 0:
        raise ValueError("order must be >= 0")
    a = Rational(a)
    coeffs = [1]
    num = 1
    for n in range(1, order + 1):
        num = num * a
        coeffs.append(num / math.factorial(n))
    return PowerSeries(variable, coeffs, order)
