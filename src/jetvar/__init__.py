"""Exact variational calculus for one-dimensional higher-derivative
Lagrangians.

Expressions are ratios of multivariate integer polynomials in
the time atom, the jet atoms q, q', q'', ..., free parameters, and
logarithms of such ratios.  Every expression is kept in a canonical
reduced form, so structural equality coincides with semantic equality.
"""

from .atoms import TIME, Jet, LogAtom, Param, TimeAtom
from .errors import (
    DivisionByZero,
    IntegrationUnsupported,
    JetvarError,
    MissingAtom,
    NoJet,
    NonexactTop,
    NonlinearTop,
    NotNull,
    NullODE,
    NumericOverflow,
    NumericSingularity,
    ParseError,
    ReservedParameter,
    UnsupportedAtom,
    UnsupportedExponent,
    UnsupportedLogArgument,
    UnsupportedOrder,
)
from .expr import Expr
from .hierarchy import BUILTIN_NAMES, builtin, l2, pre_schwarzian, schippers, sigma
from .jets import jet_order, prolong, total_derivative
from .numeric import (
    DriftReport,
    ODESystem,
    derive_ode,
    eval_expr,
    integrate_rk4,
    monitor,
)
from .parser import parse_expr
from .render import render
from .sl2 import (
    InvarianceReport,
    mobius_substitute,
    sl2_finite_check,
    sl2_residues,
)
from .variational import (
    GaugeResult,
    TopIsolation,
    euler_lagrange,
    extract_gauge,
    is_null,
    isolate_top,
    jacobi,
)

__version__ = "0.1.0"

__all__ = [
    "TIME",
    "TimeAtom",
    "Jet",
    "Param",
    "LogAtom",
    "Expr",
    "parse_expr",
    "render",
    "total_derivative",
    "jet_order",
    "prolong",
    "euler_lagrange",
    "jacobi",
    "is_null",
    "extract_gauge",
    "isolate_top",
    "GaugeResult",
    "TopIsolation",
    "pre_schwarzian",
    "l2",
    "sigma",
    "schippers",
    "builtin",
    "BUILTIN_NAMES",
    "sl2_residues",
    "sl2_finite_check",
    "mobius_substitute",
    "InvarianceReport",
    "derive_ode",
    "integrate_rk4",
    "monitor",
    "eval_expr",
    "ODESystem",
    "DriftReport",
    "JetvarError",
    "DivisionByZero",
    "UnsupportedAtom",
    "UnsupportedLogArgument",
    "NotNull",
    "NonexactTop",
    "IntegrationUnsupported",
    "NonlinearTop",
    "NoJet",
    "UnsupportedOrder",
    "ReservedParameter",
    "MissingAtom",
    "NullODE",
    "NumericSingularity",
    "NumericOverflow",
    "ParseError",
    "UnsupportedExponent",
]
