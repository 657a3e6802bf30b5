"""Integer cohomology of the circle-bundle total spaces via the Gysin sequence.

The only linear algebra needed is the Smith normal form of the tiny
cup-with-Euler-class matrices [[s, t], [0, s]]; their cokernels give the
cyclic groups Z_{s^2} in the middle degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohring import CohClass, RingSpec, check_params

__all__ = [
    "IntMatrix",
    "AbelianGroupDesc",
    "RangeError",
    "snf",
    "cokernel",
    "gysin_step_matrix",
    "cohomology_Mbar",
    "h4_M_order",
]


class RangeError(ValueError):
    """Gysin step index outside the valid range [1, 2k-2]."""


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, entries row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        if not all(type(e) is int for e in self.entries):  # bool is refused too
            raise ValueError(f"matrix entries must be integers, got {self.entries}")
        object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def from_lists(cls, lists) -> "IntMatrix":
        rows = len(lists)
        cols = len(lists[0]) if rows else 0
        if any(len(row) != cols for row in lists):
            lengths = [len(row) for row in lists]
            raise ValueError(f"every row must have {cols} entries, got {lengths}")
        flat = [e for row in lists for e in row]
        return cls(rows, cols, tuple(flat))

    def to_lists(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]


@dataclass(frozen=True)
class AbelianGroupDesc:
    """Finitely generated abelian group: free rank plus invariant factors d1|d2|..."""

    free_rank: int
    torsion: tuple

    def __post_init__(self):
        if type(self.free_rank) is not int or self.free_rank < 0:  # bool is refused too
            raise ValueError(f"free rank must be an integer >= 0, got {self.free_rank!r}")
        if not all(isinstance(d, int) for d in self.torsion):
            raise ValueError(f"torsion coefficients must be integers, got {self.torsion}")
        tor = tuple(self.torsion)
        for d in tor:
            if d <= 1:
                raise ValueError(f"torsion coefficients must be > 1, got {d}")
        for a, b in zip(tor, tor[1:]):
            if b % a != 0:
                raise ValueError(f"torsion chain not divisible: {a} does not divide {b}")
        object.__setattr__(self, "torsion", tor)

    def to_dict(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z_{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def snf(m: IntMatrix) -> tuple:
    """Smith normal form diagonal d1 | d2 | ..., nonnegative.

    Standard row/column reduction over arbitrary-precision integers; the
    matrices here are tiny, so clarity wins over asymptotics.
    """
    a = m.to_lists()
    rows, cols = m.rows, m.cols
    n = min(rows, cols)
    diag = []
    top = 0
    while top < n:
        pivot = next(
            (
                (i, j)
                for i in range(top, rows)
                for j in range(top, cols)
                if a[i][j]
            ),
            None,
        )
        if pivot is None:
            diag.extend([0] * (n - top))
            return tuple(diag)
        pi, pj = pivot
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        while True:
            # Euclidean steps until the pivot clears its row and column
            changed = False
            for i in range(top + 1, rows):
                if a[i][top]:
                    q = a[i][top] // a[top][top]
                    for j in range(top, cols):
                        a[i][j] -= q * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                    changed = True
            for j in range(top + 1, cols):
                if a[top][j]:
                    q = a[top][j] // a[top][top]
                    for i in range(top, rows):
                        a[i][j] -= q * a[i][top]
                    if a[top][j]:
                        for i in range(top, rows):
                            a[i][top], a[i][j] = a[i][j], a[i][top]
                    changed = True
            if changed:
                continue
            # pivot must divide every remaining entry; mix in an offending
            # row and keep reducing (strictly shrinks the pivot)
            d = a[top][top]
            offender = next(
                (
                    i
                    for i in range(top + 1, rows)
                    for j in range(top + 1, cols)
                    if a[i][j] % d != 0
                ),
                None,
            )
            if offender is None:
                break
            for jj in range(top, cols):
                a[top][jj] += a[offender][jj]
        diag.append(abs(a[top][top]))
        top += 1
    return tuple(diag)


def cokernel(m: IntMatrix) -> AbelianGroupDesc:
    """Cokernel read off the Smith normal form: sum of Z/d_i plus a free part."""
    diag = snf(m)
    rank = sum(1 for d in diag if d)
    torsion = [d for d in diag if d > 1]
    free = m.cols - rank
    return AbelianGroupDesc(free_rank=free, torsion=tuple(torsion))


def gysin_step_matrix(s: int, t: int) -> IntMatrix:
    """Cup product with e = su + tv from (v*u^{l-1}, u^l) to (v*u^l, u^{l+1}).

    e * (v*u^{l-1}) = s*v*u^l and e * u^l = t*v*u^l + s*u^{l+1}, giving
    [[s, t], [0, s]] for every k and every step 1 <= l <= 2k-2.
    """
    check_params(s=s, t=t)
    return IntMatrix.from_lists([[s, t], [0, s]])


def gysin_step_matrix_via_ring(spec: RingSpec, s: int, t: int, l: int) -> IntMatrix:
    """Same matrix computed through the cohomology ring (cross-module check)."""
    if not 1 <= l <= 2 * spec.k - 2:
        raise RangeError(f"l={l} outside [1, {2 * spec.k - 2}] for k={spec.k}")
    e = CohClass.from_uv(spec, s, t)
    vu = CohClass(spec, (), [0] * (l - 1) + [1])
    ul = CohClass(spec, [0] * l + [1])
    img_vu = e * vu
    img_ul = e * ul
    for img in (img_vu, img_ul):
        if img.den != 1:
            raise ValueError(f"cup product with {s}u + {t}v has non-integral entries: {img}")
    # target basis (v*u^l, u^{l+1})
    return IntMatrix.from_lists(
        [
            [img_vu.Q[l], img_ul.Q[l]],
            [img_vu.P[l + 1], img_ul.P[l + 1]],
        ]
    )


def cohomology_Mbar(k: int, s: int) -> list[AbelianGroupDesc]:
    """Integer cohomology table of the bundle total space, degrees 0..4k+1.

    H^0 = H^2 = Z, H^{2i} = Z_{s^2} for 2 <= i <= 2k-1 (torsion read off the
    Gysin step cokernel, the same for every step), H^{4k-1} = H^{4k+1} = Z,
    everything else zero.
    """
    check_params(k, s=s)
    zero = AbelianGroupDesc(0, ())
    z = AbelianGroupDesc(1, ())
    table: list[AbelianGroupDesc] = [zero] * (4 * k + 2)
    table[0] = z
    table[2] = z
    # every Gysin step matrix is [[s, 1], [0, s]], whatever l, so one cokernel serves
    group = cokernel(gysin_step_matrix(s, 1))
    for i in range(2, 2 * k):
        table[2 * i] = group
    table[4 * k - 1] = z
    table[4 * k + 1] = z
    return table


def h4_M_order(s: int) -> int:
    """Order of H^4 of the Z_2-quotient: 4*s^2.

    The s^2 is the order of H^4 of the double cover, which verify checks
    against the Gysin cokernel; the factor 4 for the Z_2 quotient is quoted
    from the paper and unchecked.
    """
    check_params(s=s)
    return 4 * s * s
