"""Exact symbolic-numeric engine for the formal degree of the generalized
Steinberg discrete series of p-adic GL(n), built from a cuspidal block.

The kernel (:mod:`qdegree.qform`) does exact arithmetic on products of
factors (1 - q^E) with affine exponents; on top of it sit the coordinate
layer, the Harish-Chandra mu-function, the iterated residue data, the
degree assembly, and a numeric contour-quadrature cross-check.
"""

from .checks import CheckReport
from .coords import (Weight, discrete_series_point, generic_weight, pairing_coroot,
                     residue_plan, z_to_s)
from .degree import (DegreeResult, assemble_degree, closed_form_degree,
                     gamma_factor, gl_order, verify_theorem)
from .model import InvalidParamsError, OutOfRangeError, SetupParams, validate
from .mu import (mu_full, mu_level_ratio_closed, mu_level_ratio_telescoped,
                 mu_on_z, rank_one_factor)
from .qform import (AffineExponent, DivisionByZeroError, FactoredForm,
                    HigherOrderPoleError, PoleAtSubstitutionError, SumForm,
                    residue)
from .resdata import iterated_residue, res_a1_mu, res_al, residue_closed_form

__version__ = "0.1.0"

__all__ = [
    "AffineExponent", "CheckReport", "DegreeResult", "DivisionByZeroError",
    "FactoredForm", "HigherOrderPoleError", "InvalidParamsError",
    "OutOfRangeError", "PoleAtSubstitutionError", "SetupParams",
    "SumForm", "Weight", "assemble_degree",
    "closed_form_degree", "discrete_series_point", "gamma_factor",
    "generic_weight", "gl_order", "iterated_residue",
    "mu_full", "mu_level_ratio_closed", "mu_level_ratio_telescoped", "mu_on_z",
    "pairing_coroot", "rank_one_factor", "res_a1_mu", "res_al", "residue",
    "residue_closed_form", "residue_plan", "validate", "verify_theorem",
    "z_to_s",
]
