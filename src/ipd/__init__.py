"""Irregular period duality for rank-1 connections on the projective line.

Exact de Rham cohomology and rapid-decay homology dimensions, Stokes
geometry, certified cycle construction, and numerical period matrices for
connections d + alpha with rational alpha.
"""

__version__ = "0.1.0"

from .connection import (
    INFINITY,
    Connection,
    canonicalize,
    connection_from_json,
    connection_to_json,
    dualize,
    singular_profile,
)
from .cycles import candidate_basis, load_cycles, save_cycles, validate_cycle
from .derham import euler_characteristics, h0_dimension, h1_basis, reduce_form
from .errors import IpdError
from .exact import GaussianRational, RationalFunction, as_scalar, parse_scalar
from .families import bessel_connection, gamma_connection, gaussian_connection
from .homology import rd_profile
from .oracles import reference_oracle
from .quadrature import (
    flat_section_eval,
    integrate_cycle,
    parametric_derivative_period,
    period_matrix,
)
from .stokes import stokes_geometry
from .suites import run_suite

__all__ = [
    "__version__",
    "INFINITY",
    "Connection",
    "GaussianRational",
    "IpdError",
    "RationalFunction",
    "as_scalar",
    "bessel_connection",
    "candidate_basis",
    "canonicalize",
    "connection_from_json",
    "connection_to_json",
    "dualize",
    "euler_characteristics",
    "flat_section_eval",
    "gamma_connection",
    "gaussian_connection",
    "h0_dimension",
    "h1_basis",
    "integrate_cycle",
    "load_cycles",
    "parametric_derivative_period",
    "parse_scalar",
    "period_matrix",
    "rd_profile",
    "reduce_form",
    "reference_oracle",
    "run_suite",
    "save_cycles",
    "singular_profile",
    "stokes_geometry",
    "validate_cycle",
]
