"""Shared exception hierarchy.

Concrete error types live next to the code that raises them; everything
derives from one of the two categories below so that callers (the CLI in
particular) can map failures to exit codes without importing every module.
"""

import math


class SymCocycleError(Exception):
    """Base class for all library errors."""


class ValidationError(SymCocycleError):
    """Bad input: configuration, expressions, windows, references."""


class NumericalError(SymCocycleError):
    """A computation could not produce a trustworthy result."""


class NonconvergenceError(NumericalError):
    """An iterative or adaptive scheme hit its refinement cap."""


def positive(v, what):
    """``v`` as a float, or ValidationError unless it is positive and
    finite: a NaN or infinite step or tolerance would switch checks off."""
    v = float(v)
    if not (v > 0 and math.isfinite(v)):
        raise ValidationError(f"{what} must be positive and finite, got {v}")
    return v
