"""Shared exception hierarchy.

Concrete error types live next to the code that raises them; everything
derives from one of the two categories below so that callers (the CLI in
particular) can map failures to exit codes without importing every module.

Two rules decide the kind of a value that is not finite:

* an input that is not positive and finite where it must be (a step, a
  tolerance, window bounds, a point, grid samples) is a ValidationError,
  as ``positive`` raises;
* a computed value that is not finite (an image, a tangent, a defect, an
  action, a field or form sampled on a check grid) is a NumericalError,
  as ``finite`` raises.
"""

import math

import numpy as np


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


def finite(what, remedy, *arrays):
    """``arrays`` as given, or NumericalError naming how many points are
    not finite.  The points are the entries of the first array; an array
    with more axes holds its extra ones in front, as a tangent holds its
    two input directions, and a point counts once however many of its
    entries are not finite."""
    n = np.ndim(arrays[0])
    lost = np.zeros(np.shape(arrays[0]), dtype=bool)
    for x in arrays:
        lost = lost | ~np.isfinite(x).all(axis=tuple(range(np.ndim(x) - n)))
    if lost.any():
        raise NumericalError(f"{what} overflowed: it is not finite at "
                             f"{np.count_nonzero(lost)} of {lost.size} points; {remedy}")
    return arrays
