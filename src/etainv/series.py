"""Truncated formal power series over Q, stored as integers.

A series carries its variable tag, an explicit truncation order N, and its
N+1 coefficients as integer numerators ``nums`` over one denominator ``den``,
as ``CohClass`` and ``UniPoly`` store theirs: den > 0 and
gcd(den, *nums) == 1, so equal series have equal integers.  The constructor
takes ``int`` or ``Fraction`` coefficients (any other type, a float
included, is a ``TypeError``); ``coeffs`` and :meth:`coeff` build
``Fraction``s only when asked.  No coefficient beyond the truncation is
ever reported, and mixed-order arithmetic truncates to the minimum order.
``+``, ``-`` and ``*`` take two series; :meth:`PowerSeries.scale` is the one
operation with a rational, an ``int`` or a ``Fraction``.

Every operation runs on the integers and reduces its result by one gcd
(:meth:`PowerSeries._canonical`): a product is one integer convolution
over den_a*den_b, by :func:`~etainv.coeffcore._int_convolve`, which
polynomial and ring products run on too.  The triangular
recurrences of ``**`` and :meth:`PowerSeries.divide` keep the outputs found so
far as integers over one running denominator, the lcm of their reduced
denominators (:func:`_append_over`), so each new coefficient is an integer
sum and one gcd.  :meth:`PowerSeries.compose` (Horner's rule) is an integer
recurrence too: each step is one integer convolution over a running
denominator, reduced by one gcd (:func:`_reduced`).
:meth:`PowerSeries.revert` (Lagrange's formula) builds each h^{-m} by its
own copy of Miller's recurrence, with no ``**`` and no division.  No series
is built until the result.
"""

from __future__ import annotations

from math import factorial, gcd, lcm
from operator import mul

from .coeffcore import Rational, _check_exact, _int_convolve, _terms

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


def _append_over(nums: list, den: int, num: int, q: int) -> int:
    """Append num/q (q != 0) to nums, integer numerators over den; return the new den.

    num/q is reduced first; when its denominator does not divide den, every
    entry of nums is rescaled to the lcm of the two, which becomes the new den.
    """
    g = gcd(num, q) if q > 0 else -gcd(num, q)
    num, q = num // g, q // g
    if den % q:
        scale = q // gcd(den, q)
        nums[:] = [x * scale for x in nums]
        den *= scale
    nums.append(num * (den // q))
    return den


def _reduced(den: int, nums: list) -> tuple:
    """(den, nums) with the common factor of den and every entry of nums divided out."""
    g = gcd(den, *nums)
    if g == 1:
        return den, nums
    return den // g, [x // g for x in nums]


class PowerSeries:
    """f = sum_{n=0}^{order} (nums[n]/den) * variable^n: order + 1 ints over den, immutable."""

    __slots__ = ("variable", "order", "den", "nums")

    def __init__(self, variable: str, coeffs, order: int):
        cs = list(coeffs)
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        _check_exact(cs, "PowerSeries coefficients")
        cs = cs[: order + 1]
        den = lcm(*[c.denominator for c in cs])
        nums = [c.numerator * (den // c.denominator) for c in cs]
        self._assign(variable, order, den, nums + [0] * (order + 1 - len(cs)))

    @classmethod
    def _canonical(cls, variable: str, order: int, den: int, nums) -> "PowerSeries":
        """The series nums/den from order + 1 ints and an int den > 0, reduced by one gcd."""
        return object.__new__(cls)._assign(variable, order, den, nums)

    def _assign(self, variable: str, order: int, den: int, nums) -> "PowerSeries":
        den, nums = _reduced(den, nums)
        # the slots' own setters: __setattr__ below refuses every write
        _set_variable(self, variable)
        _set_order(self, order)
        _set_den(self, den)
        _set_nums(self, tuple(nums))
        return self

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

    @property
    def coeffs(self) -> tuple:
        """The order + 1 coefficients as Rationals, lowest degree first."""
        return tuple(Rational(x, self.den) for x in self.nums)

    def coeff(self, n: int):
        """The exact coefficient of variable^n; OrderExceeded past truncation."""
        if n < 0:
            raise OrderExceeded(f"negative degree {n}")
        if n > self.order:
            raise OrderExceeded(f"degree {n} exceeds truncation order {self.order}")
        return Rational(self.nums[n], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (self.variable, self.order, self.den, self.nums) == (
            other.variable, other.order, other.den, other.nums
        )

    def __hash__(self):
        return hash((self.variable, self.order, self.den, self.nums))

    # -- ring arithmetic ---------------------------------------------------

    def _align(self, other: "PowerSeries") -> int:
        if self.variable != other.variable:
            raise VariableMismatch(
                f"series in {self.variable!r} vs {other.variable!r}"
            )
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = self._align(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        nums = [a * fa + b * fb for a, b in zip(self.nums[: n + 1], other.nums)]
        return PowerSeries._canonical(self.variable, n, den, nums)

    def __neg__(self):
        return PowerSeries._canonical(self.variable, self.order, self.den, [-x for x in self.nums])

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = self._align(other)
        out = _int_convolve(n + 1, _terms(self.nums[: n + 1]), _terms(other.nums[: n + 1]))
        return PowerSeries._canonical(self.variable, n, self.den * other.den, out)

    def scale(self, c) -> "PowerSeries":
        """c * self for an int or Fraction c."""
        _check_exact((c,), "scale factor")
        p = c.numerator
        nums = [p * x for x in self.nums]
        return PowerSeries._canonical(self.variable, self.order, self.den * c.denominator, nums)

    def __pow__(self, n: int):
        """self**n by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), O(order^2).

        For g = f**n with f(0) a unit: g_0 = f_0^n and
        g_m = (1/(m f_0)) * sum_{j=1..m} ((n+1) j - m) f_j g_{m-j}.
        A series whose lowest nonzero term is f_v x^v is raised as
        x^{nv} (f/x^v)**n; f_v is nonzero, so a unit of Q.

        With f/x^v = (a_0 + a_1 x + ...)/den and g_0..g_{m-1} kept as integers
        G_i over one running denominator L, the den cancels past g_0 and
        g_m = sum_j ((n+1) j - m) a_j G_{m-j} / (m a_0 L): an integer sum and
        one gcd per coefficient.
        """
        if n < 0:
            raise ValueError("negative series power; use divide")
        order = self.order
        if n == 0:
            return PowerSeries.constant(self.variable, 1, order)
        v = next((i for i, c in enumerate(self.nums) if c), None)
        if v is None or n * v > order:
            return PowerSeries(self.variable, (), order)
        top = order - n * v
        a0 = self.nums[v]
        a_terms = _terms(self.nums[v : v + top + 1])[1:]
        nums = []
        den = _append_over(nums, 1, a0**n, self.den**n)
        for m in range(1, top + 1):
            acc = 0
            for j, a in a_terms:
                if j > m:
                    break
                acc += ((n + 1) * j - m) * a * nums[m - j]
            den = _append_over(nums, den, acc, m * a0 * den)
        return PowerSeries._canonical(self.variable, order, den, [0] * (n * v) + nums)

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """h with h * other = self to the common truncation order.

        Requires other(0) to be nonzero.  With self = c/C and other = b/B,
        h = h'/C where h' * other = c; h'_0..h'_{m-1} are kept as integers
        H_i over one running denominator L, so
        h'_m = (c_m B L - sum_{j>=1} b_j H_{m-j}) / (b_0 L): an integer sum
        and one gcd per coefficient.
        """
        n = self._align(other)
        b0 = other.nums[0]
        if not b0:
            raise NonUnitConstantTerm("constant term is zero")
        b_terms = _terms(other.nums[: n + 1])[1:]
        nums, den = [], 1
        for m, c in enumerate(self.nums[: n + 1]):
            acc = c * other.den * den
            for j, b in b_terms:
                if j > m:
                    break
                acc -= b * nums[m - j]
            den = _append_over(nums, den, acc, b0 * den)
        return PowerSeries._canonical(self.variable, n, den * self.den, nums)

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner), exact to n = min(self.order, inner.order); inner(0) must vanish.

        Horner's rule on the integer numerators: with self = f/F and
        inner = g/G, acc_n = f_n and acc_m = f_m + inner * acc_{m+1}, kept as
        integers A over one running denominator L, so
        acc_m = (f_m L G + A * g) / (L G): one integer convolution and one
        gcd per step, and F is applied once at the end.  acc_m is multiplied
        by inner^m, whose valuation is at least m, so it is kept only to
        order n - m; the steps take about n^3/6 multiply-adds in all.
        """
        if inner.nums[0]:
            raise NonzeroConstantInner("inner series has a nonzero constant term")
        n = min(self.order, inner.order)
        g_terms = _terms(inner.nums[: n + 1])
        acc, den = [self.nums[n]], 1
        for m in range(n - 1, -1, -1):
            acc = _int_convolve(n - m + 1, _terms(acc), g_terms)
            den *= inner.den
            acc[0] = self.nums[m] * den  # g_0 = 0, so the convolution left 0 here
            den, acc = _reduced(den, acc)
        return PowerSeries._canonical(inner.variable, n, den * self.den, acc)

    def revert(self) -> "PowerSeries":
        """Compositional inverse g with self(g) = id, by Lagrange inversion.

        Requires f(0) = 0 and a nonzero linear coefficient.  With self = x*h,
        g_m = [x^{m-1}] h^{-m} / m.  For each m, h^{-m} is built to order
        m - 1 by J.C.P. Miller's recurrence at exponent -m, written out here
        rather than taken from ``**`` or :meth:`divide`, so the reversion
        oracle runs no series routine of the production power.  With
        h = (b_0 + b_1 x + ...)/B and p = (h/h_0)^{-m}: p_0 = 1 and
        p_j = sum_{i=1..j} ((1-m) i - j) b_i p_{j-i} / (j b_0), two integer
        dot products and one gcd per coefficient over a running denominator
        (:func:`_append_over`); then g_m = B^m p_{m-1} / (m b_0^m).
        """
        if self.order < 1 or self.nums[0]:
            raise NotReversible("series must have zero constant term")
        if not self.nums[1]:
            raise NotReversible("linear coefficient must be a unit")
        n = self.order
        b0 = self.nums[1]
        b = self.nums[2:]  # b_1 .. b_{n-1}
        ib = [i * x for i, x in enumerate(b, 1)]
        nums, den = [0], 1
        for m in range(1, n + 1):
            # (b/b_0)^{-m} to order m - 1, from p_0 = 1
            p, p_den = [1], 1
            for j in range(1, m):
                tail = p[::-1]  # p_{j-1}, ..., p_0
                acc = (1 - m) * sum(map(mul, ib, tail)) - j * sum(map(mul, b, tail))
                p_den = _append_over(p, p_den, acc, j * b0 * p_den)
            den = _append_over(nums, den, self.den**m * p[m - 1], m * b0**m * p_den)
        return PowerSeries._canonical(self.variable, n, den, nums)

    def __repr__(self):
        return f"PowerSeries({self.variable!r}, {list(self.coeffs)!r}, {self.order})"


_set_variable, _set_order, _set_den, _set_nums = (
    PowerSeries.__dict__[name].__set__ for name in PowerSeries.__slots__
)


def ps_exp(a, order: int, variable: str = "x") -> PowerSeries:
    """exp(a*x) truncated: sum_{n<=order} a^n x^n / n!.

    For a = p/q and N = order, the coefficient of x^n is
    p^n q^(N-n) N!/n! over q^N N!; each numerator is the one before times p,
    divided exactly by q n.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    p, q = a.numerator, a.denominator
    nums = [q**order * factorial(order)]
    for n in range(1, order + 1):
        nums.append(nums[-1] * p // (q * n))
    return PowerSeries._canonical(variable, order, nums[0], nums)
