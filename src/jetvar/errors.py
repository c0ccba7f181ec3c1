"""Typed errors raised by the engine.

Everything derives from JetvarError so callers (and the CLI) can map the
whole family to one failure path while still catching specific conditions.
Floating-point evaluation raises NumericSingularity, or its subclass
NumericOverflow when a coefficient or a power does not fit in a float,
never a bare OverflowError.
"""

from __future__ import annotations


class JetvarError(Exception):
    """Base class for all engine errors."""


class DivisionByZero(JetvarError):
    """A denominator normalized to the zero polynomial."""


class UnsupportedAtom(JetvarError):
    """Partial differentiation with respect to a log atom is undefined."""


class UnsupportedLogArgument(JetvarError):
    """log applied to zero or to a nonunit constant has no exact form here."""


class NotNull(JetvarError):
    """Gauge extraction requires a vanishing Euler-Lagrange expression."""


class NonexactTop(JetvarError):
    """The top-derivative coefficient still depends on the top jet variable."""


class IntegrationUnsupported(JetvarError):
    """A peeled integrand is outside the polynomial + c/(linear) class."""


class NonlinearTop(JetvarError):
    """The expression is not degree one in its top jet variable."""


class NoJet(JetvarError):
    """The expression contains no jet variable."""


class UnsupportedOrder(JetvarError):
    """The requested hierarchy order is not defined."""


class ReservedParameter(JetvarError):
    """The expression uses a parameter name reserved for the group action."""


class MissingAtom(JetvarError):
    """A numeric evaluation point does not cover every atom."""


class NullODE(JetvarError):
    """A null Lagrangian generates no dynamics to integrate."""


class NumericSingularity(JetvarError):
    """Evaluation hit a vanishing denominator, a nonpositive log argument,
    or the singular set of an ODE system.

    When raised mid-integration, ``trajectory`` holds the partial trajectory
    computed before the abort.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = list(trajectory) if trajectory is not None else []


class NumericOverflow(NumericSingularity):
    """A coefficient, or a power at the evaluation point, is too large for
    a float."""


class ParseError(JetvarError):
    """Syntax error in expression source, annotated with line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnsupportedExponent(ParseError):
    """Exponents must be integer constants."""
