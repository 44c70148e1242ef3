"""The package's one rule for number arguments.

A number is a value with a float value (``__float__``): ints, floats, numpy scalars,
``Fraction`` and ``Decimal`` are numbers; text, None, complex numbers and containers are
not.  A number argument must be finite as a float, so NaN, the infinities and ints beyond
float range are refused; a tolerance must also be >= 0, and a count, seed or grid year is
an int as ``operator.index`` decides.  Every refusal is a ValueError naming the argument:
no TypeError or OverflowError escapes a public function, and no result comes back.
"""

import math
from operator import index
from sys import float_info


def _float(x) -> float | None:
    """x's float value (inf beyond float range), or None when x is no number."""
    try:
        return float(x) if hasattr(x, "__float__") else None
    except OverflowError:  # an int or Fraction beyond float range
        return math.inf
    except (TypeError, ValueError):  # a __float__ that refuses, as a numpy array's does
        return None


def number(x, what: str) -> float:
    """x as a finite float, or ValueError naming it as ``what``."""
    f = _float(x)
    if f is None:
        raise ValueError(f"{what} must be a number, got {x!r}")
    if not math.isfinite(f):
        raise ValueError(f"{what} must be finite")
    return f


def tolerance(tol, what: str) -> float:
    """tol as a finite float >= 0, or ValueError naming it as the ``what`` tolerance."""
    f = _float(tol)
    if f is not None and not f >= 0.0:  # NaN fails too
        raise ValueError(f"{what} tolerance must be >= 0, got {tol!r}")
    return number(tol, f"{what} tolerance")


def whole(x, what: str) -> int:
    """x as an int within float range, by ``operator.index``, or ValueError naming it."""
    try:
        n = index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None
    if not abs(n) <= float_info.max:
        raise ValueError(f"{what} must be finite")
    return n


def triple(values, what: str) -> tuple[float, float, float]:
    """values as three finite floats, or ValueError naming them as ``what``."""
    try:
        out = tuple(map(_float, values))
    except TypeError:  # not iterable
        out = ()
    if len(out) != 3 or None in out:
        raise ValueError(f"{what} must be three numbers, got {values!r}")
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{what} must be finite, got {values!r}")
    return out


def floats(values, what: str) -> tuple[float, ...]:
    """values as a non-empty tuple of finite floats, or ValueError naming them as ``what``."""
    try:
        values = tuple(values)
        out = tuple(map(float, values))  # C speed; float() also reads text, refused below
    except (TypeError, ValueError, ArithmeticError):  # no sequence, text, beyond float range
        out = None
    if out is None or out != values:  # floats equal their conversion; only other input pays
        if not isinstance(values, tuple):
            raise ValueError(f"{what} must be a sequence of numbers, got {values!r}")
        out = tuple(map(_float, values))
        if None in out:
            raise ValueError(f"{what} must be numbers, got {values[out.index(None)]!r}")
    if not out:
        raise ValueError(f"{what} must contain at least one entry")
    if not all(map(math.isfinite, out)):
        bad = next(v for v in out if not math.isfinite(v))
        raise ValueError(f"{what} must be finite, got {bad!r}")
    return out


def pairs(points) -> list[tuple[float, float]]:
    """points as (x, v) pairs of finite floats, or ValueError naming them."""
    try:
        out = [(_float(x), _float(v)) for x, v in points]
    except (TypeError, ValueError):  # not a sequence of pairs
        out = [(None, None)]
    if any(None in p for p in out):
        raise ValueError(f"points must be (x, v) pairs of numbers, got {points!r}")
    for x, v in out:
        if not (math.isfinite(x) and math.isfinite(v)):
            raise ValueError(f"points must be finite, got ({x!r}, {v!r})")
    return out


def grid_years(indices, size) -> tuple[int, int, int]:
    """Years n < m < k on the grid 1..size as ints by ``operator.index``, or ValueError."""
    try:
        n, m, k = map(index, indices)
        if 1 <= n < m < k <= size:
            return n, m, k
    except (TypeError, ValueError):
        pass
    raise ValueError(f"need 1 <= n < m < k <= {size}, got {indices}")
