"""Exact rationals, the truncated convolution behind ``PowerSeries``
products, and ``UniPoly``, the polynomial ``A1(s)``.

Rationals are stdlib ``fractions.Fraction``: arbitrary precision, always in
lowest terms with a positive denominator.

:func:`convolve_into` multiplies rational coefficient sequences.  It clears
each operand's denominators once, with the lcm of that operand's
denominators, accumulates the products of the integer numerators, and
builds one rational per nonzero output coefficient, so a product costs one
gcd per coefficient rather than one per term.  The other products run their
own integer loops: a ``CohClass`` keeps integer numerators over one
denominator, so its product needs no clearing; series evaluation in the
ring clears only the series, with ``_cleared``, and convolves with
``_int_convolve``; the series powers and division clear their inputs with
``_cleared``, each building one rational per result coefficient.

``UniPoly`` is the return type of ``a1_poly_in_s``.  It is evaluated by
Horner's rule in integers, one rational per value (``find_good_s`` clears
the coefficients once for all its candidates), and printed with
``to_strings``.  Its polynomial product is kept for the layer tracer in
``perfbench/tracing.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

__all__ = [
    "Rational",
    "RATIONAL_BACKEND",
    "convolve_into",
    "rat_to_str",
    "UniPoly",
]


Rational = Fraction
# the name of the rational type, recorded in benchmark provenance
RATIONAL_BACKEND = "fraction"


def convolve_into(out: list, a, b) -> list:
    """Add the product of rational sequences a and b, truncated to len(out), into out.

    out[m] += sum_{i+j=m} a[i]*b[j] for m < len(out).  Returns out.

    Each operand is cleared once (:func:`_cleared`), the multiply-adds run on
    integers (:func:`_int_convolve`) and each nonzero sum becomes one Rational
    over da*db, normalised by one gcd (Knuth, TAOCP vol. 2, 4.5.1).
    """
    n = len(out)
    da, a_terms = _cleared(a[:n])
    db, b_terms = _cleared(b[:n])
    d = da * db
    for m, c in enumerate(_int_convolve(n, a_terms, b_terms)):
        if c:
            q = Rational(c, d)
            out[m] = out[m] + q if out[m] else q
    return out


def _cleared(seq) -> tuple:
    """(d, terms): d the lcm of seq's denominators, terms the integer (i, seq[i]*d) of each nonzero entry."""
    d = lcm(*[x.denominator for x in seq])
    return d, [(i, x.numerator * (d // x.denominator)) for i, x in enumerate(seq) if x]


def _int_convolve(n: int, a_terms, b_terms) -> list:
    """acc[m] = sum of x*y over the terms (i, x), (j, y) of _cleared with i + j = m < n."""
    acc = [0] * n
    for i, x in a_terms:
        limit = n - i
        for j, y in b_terms:
            if j >= limit:
                break
            acc[i + j] += x * y
    return acc


def rat_to_str(q) -> str:
    """Serialize as 'num/den' in lowest terms, e.g. '3/1' for the integer 3."""
    return f"{q.numerator}/{q.denominator}"


class UniPoly:
    """Univariate polynomial over Q, coefficients indexed by degree.

    Canonical form: no trailing zero coefficients (the zero polynomial has an
    empty coefficient tuple).  Instances are immutable.
    """

    __slots__ = ("variable", "coeffs")

    def __init__(self, variable: str, coeffs=()):
        raw = list(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in raw):
            raise TypeError("UniPoly coefficients must be rational numbers")
        cs = [Rational(c) for c in raw]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, variable: str, coeffs: tuple) -> "UniPoly":
        """Wrap a tuple that is already canonical: Rational values, no trailing zero.

        A product builds such a tuple itself, so it skips the per-coefficient
        checks and coercion of the public constructor.
        """
        obj = object.__new__(cls)
        object.__setattr__(obj, "variable", variable)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, degree: int):
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return Rational(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.variable == other.variable and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.variable, self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.variable != self.variable:
            raise ValueError(f"variable mismatch: {self.variable!r} vs {other.variable!r}")
        if not self or not other:
            return UniPoly._trusted(self.variable, ())
        # Q has no zero divisors, so the leading coefficient of the product is nonzero
        out = [Rational(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        return UniPoly._trusted(self.variable, tuple(convolve_into(out, self.coeffs, other.coeffs)))

    def __call__(self, x):
        """The value at a rational point x, an int or Fraction (see _evaluator)."""
        return self._evaluator()(x)

    def _evaluator(self):
        """The map x -> self(x), with the coefficients cleared once for every x.

        Horner's rule in integers: the coefficients are cleared, c_i = a_i/D,
        and x = p/q is homogenised: for degree n the value is
        sum_i a_i p^i q^(n+1-i) / (D q^(n+1)), the sum by Horner's rule over
        integers and one Fraction at the end.  (The spare factor q keeps the
        zero polynomial, n = -1, on the same path.)
        """
        d = lcm(*[c.denominator for c in self.coeffs])
        nums = [c.numerator * (d // c.denominator) for c in reversed(self.coeffs)]

        def value_at(x):
            p, q = x.numerator, x.denominator
            acc, qn = 0, 1
            for a in nums:
                qn *= q
                acc = acc * p + a * qn
            return Rational(acc, d * qn)

        return value_at

    # -- serialization -----------------------------------------------------

    def to_strings(self) -> list[str]:
        """Ordered coefficient array of 'num/den' strings."""
        return [rat_to_str(c) for c in self.coeffs]

    def __repr__(self):
        if not self.coeffs:
            return f"UniPoly({self.variable!r}, 0)"
        terms = " + ".join(
            f"({rat_to_str(c)})*{self.variable}^{i}" for i, c in enumerate(self.coeffs) if c
        )
        return f"UniPoly({terms})"
