"""Exact computation of relative eta-invariants for circle-bundle quotient
families, together with the integer-cohomology computations classifying them.

All arithmetic is exact rational, on the stdlib ``fractions.Fraction``; see
:mod:`etainv.coeffcore`.
"""

from .coeffcore import RATIONAL_BACKEND, Rational, UniPoly
from .cohring import CohClass, RingSpec, coh_eval_series, coh_integrate
from .invariants import (
    EtaReport,
    FamilyParams,
    a1_direct,
    a1_poly_in_s,
    a1_residue,
    decompose_affine_in_t,
    family_scan,
    find_good_s,
    local_datum,
    relative_eta,
)
from .series import PowerSeries, ps_exp
from .zcohomology import cohomology_Mbar, gysin_step_matrix, h4_M_order, snf

__version__ = "0.1.0"

__all__ = [
    "RATIONAL_BACKEND",
    "Rational",
    "UniPoly",
    "CohClass",
    "RingSpec",
    "coh_eval_series",
    "coh_integrate",
    "EtaReport",
    "FamilyParams",
    "a1_direct",
    "a1_poly_in_s",
    "a1_residue",
    "decompose_affine_in_t",
    "family_scan",
    "find_good_s",
    "local_datum",
    "relative_eta",
    "PowerSeries",
    "ps_exp",
    "cohomology_Mbar",
    "gysin_step_matrix",
    "h4_M_order",
    "snf",
    "__version__",
]
