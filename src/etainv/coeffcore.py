"""Exact rationals, the package's one integer convolution, and ``UniPoly``,
the polynomial ``A1(s)``.

Rationals are stdlib ``fractions.Fraction``: arbitrary precision, always in
lowest terms with a positive denominator.  They are the input and output
form only: ``PowerSeries``, ``CohClass`` and ``UniPoly`` all keep integer
numerators over one denominator, so a product convolves the numerators
(:func:`_int_convolve`, on the nonzero terms that :func:`_terms` lists) over
the product of the denominators and reduces the result by one gcd, rather
than one gcd per term (Knuth, TAOCP vol. 2, 4.5.1).  Ring classes up to
2k = 8 run the same convolution unrolled, in ``cohring._kernel``.

``UniPoly`` is the return type of ``a1_poly_in_s``, stored as ``CohClass``
stores a class: integer numerators over one positive denominator, with the
common factor divided out.  It is evaluated by Horner's rule in integers, one
rational per value, and printed with ``to_strings``, one gcd per coefficient.
It is evaluated only at an ``int`` or a ``Fraction``: a float is a
``TypeError`` (:func:`_check_exact`), as it is in ``PowerSeries`` and
``CohClass``.  Its polynomial product
is kept for the layer tracer in ``perfbench/tracing.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "Rational",
    "RATIONAL_BACKEND",
    "rat_to_str",
    "UniPoly",
]


Rational = Fraction
# the name of the rational type, recorded in benchmark provenance
RATIONAL_BACKEND = "fraction"


def _int_convolve(n: int, a_terms, b_terms) -> list:
    """acc[m] = sum of x*y over the int terms (i, x), (j, y), sorted by index, with i + j = m < n."""
    acc = [0] * n
    for i, x in a_terms:
        limit = n - i
        for j, y in b_terms:
            if j >= limit:
                break
            acc[i + j] += x * y
    return acc


def _terms(nums) -> list:
    """The (i, x) of each nonzero entry, the operand form of _int_convolve."""
    return [(i, x) for i, x in enumerate(nums) if x]


def _check_exact(values, what: str) -> None:
    """Raise TypeError unless every value is an int or a Fraction: a float is never exact."""
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"{what} must be int or Fraction, got {type(x).__name__} {x!r}")


def rat_to_str(q) -> str:
    """Serialize as 'num/den' in lowest terms, e.g. '3/1' for the integer 3."""
    return f"{q.numerator}/{q.denominator}"


class UniPoly:
    """Univariate polynomial over Q: coefficient i is nums[i]/den.

    Canonical form: nums are ints with no trailing zero (the zero polynomial
    has none), den is an int > 0 and gcd(den, *nums) == 1, so equal
    polynomials have equal integers.  Instances are immutable.
    """

    __slots__ = ("variable", "den", "nums")

    def __init__(self, variable: str, nums=(), den: int = 1):
        nums = list(nums)
        if not (isinstance(den, int) and den > 0 and all(isinstance(x, int) for x in nums)):
            raise TypeError("UniPoly takes int numerators over an int denominator > 0")
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "nums", tuple(x // g for x in nums))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Rationals, lowest degree first."""
        return tuple(Rational(x, self.den) for x in self.nums)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return (self.variable, self.den, self.nums) == (other.variable, other.den, other.nums)
        return NotImplemented

    def __hash__(self):
        return hash((self.variable, self.den, self.nums))

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.variable != self.variable:
            raise ValueError(f"variable mismatch: {self.variable!r} vs {other.variable!r}")
        n = len(self.nums) + len(other.nums) - 1
        nums = _int_convolve(n, _terms(self.nums), _terms(other.nums))
        return UniPoly(self.variable, nums, self.den * other.den)

    def __call__(self, x):
        """The value at a rational point x, an int or Fraction (TypeError otherwise).

        Horner's rule in integers: x = p/q is homogenised, so for degree n
        the value is sum_i a_i p^i q^(n+1-i) / (den q^(n+1)), the sum by
        Horner's rule over integers and one Fraction at the end.  (The spare
        factor q keeps the zero polynomial, n = -1, on the same path.)
        """
        _check_exact((x,), "UniPoly argument")
        p, q = x.numerator, x.denominator
        acc, qn = 0, 1
        for a in reversed(self.nums):
            qn *= q
            acc = acc * p + a * qn
        return Rational(acc, self.den * qn)

    # -- serialization -----------------------------------------------------

    def to_strings(self) -> list[str]:
        """Ordered coefficient array of 'num/den' strings, each in lowest terms."""
        den = self.den
        return [f"{x // g}/{den // g}" for x in self.nums for g in (gcd(x, den),)]

    def __repr__(self):
        return f"UniPoly({self.variable!r}, {list(self.nums)!r}, {self.den!r})"
