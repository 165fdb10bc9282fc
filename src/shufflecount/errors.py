"""Exception types shared across the package, and the input checks that raise them.

What counts as a valid count, real, choice, array, sampler shape or PMF
evaluation point is decided here once;
every public entry point validates its inputs through these checks. Each
returns the normalized value or raises :class:`ParameterError` naming the
parameter and the value. None of them draws randomness or loops in Python
over array elements. They run on every draw call, so an exact ``int`` or
``float`` skips the ``numbers`` ABC lookup, which costs several times the
rest of a check.
"""

import math
from numbers import Integral, Real

import numpy as np


class ParameterError(ValueError):
    """A distribution or protocol parameter is outside its valid domain."""


class DegenerateInputError(ParameterError):
    """The privacy budget is below 1/n; the protocol degenerates to outputting zero."""


class InfeasibleParametersError(ParameterError):
    """The derivation recipe produced parameters that cannot run (e.g. a drop probability >= 1)."""


class AuditInconclusiveError(RuntimeError):
    """An audit could not reach its required coverage within the configured grid cap.

    Distinct from an audit *failure*: the guarantee was neither confirmed nor
    refuted on the examined region.
    """


def check_count(name: str, value, low=0, high=math.inf) -> int:
    """``value`` as an ``int`` in ``[low, high]``: a Python or numpy integer, never a bool."""
    if type(value) is int or isinstance(value, Integral) and not isinstance(value, bool):
        if low <= int(value) <= high:
            return int(value)
    raise ParameterError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def check_real(name: str, value, low=0.0, high=math.inf, closed="()") -> float:
    """``value`` as a ``float`` in the interval from ``low`` to ``high``.

    ``closed`` holds the interval's brackets, ``"()"``, ``"(]"``, ``"[)"`` or
    ``"[]"``; the default is the positive reals. An infinite end is always
    open, so NaN and the infinities fail every interval; bools fail too.
    """
    if type(value) is float or isinstance(value, Real) and not isinstance(value, bool):
        if (low < value or closed[0] == "[" and value == low) and (
            value < high or closed[1] == "]" and value == high
        ):
            return float(value)
    raise ParameterError(
        f"{name} must be a real in {closed[0]}{low}, {high}{closed[1]}, got {value!r}"
    )


def check_choice(name: str, value, choices: tuple):
    """``value`` if it equals one of ``choices`` and is of that choice's type (never a bool)."""
    if isinstance(value, bool) or not any(
        isinstance(value, type(c)) and value == c for c in choices
    ):
        raise ParameterError(f"{name} must be one of {choices}, got {value!r}")
    return value


def check_array(name: str, values, low, high, kinds: str = "iu") -> np.ndarray:
    """``values`` as a non-empty 1-d array with every entry in ``[low, high]``.

    ``kinds`` lists the accepted numpy dtype kinds: integers by default,
    ``"iuf"`` for reals. A bool or string array fails, and so does a NaN,
    which fails the range. The range is one ``np.minimum.reduce`` and one
    ``np.maximum.reduce`` pass.
    """
    arr = np.asarray(values)
    if not (
        arr.ndim == 1
        and arr.size
        and arr.dtype.kind in kinds
        and low <= np.minimum.reduce(arr)
        and np.maximum.reduce(arr) <= high
    ):
        what = "integers" if kinds == "iu" else "reals"
        raise ParameterError(
            f"{name} must be a non-empty 1-d array of {what} in [{low}, {high}], "
            f"got {np.array2string(arr, threshold=6, edgeitems=3)}"
        )
    return arr


def check_shape(name: str, size) -> tuple | None:
    """A sampler's ``size`` as a tuple of counts: ``None``, a count, or a sequence of counts."""
    if size is None:
        return None
    if isinstance(size, (tuple, list)):
        return tuple(check_count(name, d) for d in size)
    return (check_count(name, size),)


def check_points(name: str, values) -> np.ndarray:
    """``values`` as an integer array of any shape: evaluation points of a PMF.

    The test is the dtype kind alone, so an integer array passes in O(1)
    whatever its size. Reals (even ``2.0``), bools and strings fail; negative
    points are legal (off the support).
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ParameterError(
            f"{name} must be integers, got {np.array2string(arr, threshold=6, edgeitems=3)}"
        )
    return arr
