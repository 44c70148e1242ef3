"""Discrete convexity/concavity classification of curve points.

A triple of points (x1, v1), (x2, v2), (x3, v3) with x1 < x2 < x3 is
classified through the signed margin

    margin = (x3 - x2) * v1 + (x2 - x1) * v3 - (x3 - x1) * v2

which is positive when the middle point sits below the chord (convex),
negative when above (concave) and within tolerance of zero when the
points are collinear (affine).  The margin depends only on second
differences of the values, so adding any affine function of the abscissa
leaves it unchanged.

The same test applied to (base annuity, shifted annuity) pairs of a
bootstrapped curve pins down how shifted discount factors drift against
base ones: the chord slope between the annuity points at consecutive
years (n, n+1) is the shifted/base factor ratio at n+1, so every triple
is concave-or-affine exactly when those ratios are non-increasing from
year 2 onward.  The year-1 ratio positions a point without entering any
slope; :func:`ratio_monotonicity` nevertheless checks the full range,
because a rise anywhere breaks the one-sided drift that a parallel move
of a sane curve produces.
"""

from __future__ import annotations

import math
from itertools import count
from operator import lt

from .curves import MONOTONE_TOL, CheckResult, DiscountCurve, _grid_years, _Record, _require_tol

CONVEX = "convex"
CONCAVE = "concave"
AFFINE = "affine"

CONSECUTIVE = "consecutive"
ALL_TRIPLES = "all_triples"

CONCAVE_EVERYWHERE = "concave_everywhere"
CONVEX_SOMEWHERE = "convex_somewhere"

# Margins are O(basis points x years); below this they are treated as
# collinear rather than a real kink.
CLASSIFY_TOL = 1e-9

# all-triples scans are O(N^3); longer point sequences are refused.
ALL_TRIPLES_CAP = 200


class TripleClassification(_Record):
    __slots__ = ("verdict", "margin")

    def __init__(self, verdict: str, margin: float) -> None:
        self._set(verdict, margin)


class ShapeReport(_Record):
    """Classification of every scanned triple plus the overall verdict.

    ``triples`` holds (i, j, k, classification) with 0-based positions
    into the scanned points, in lexicographic (i, j, k) order.  The
    overall verdict is ``concave_everywhere`` exactly when no triple
    classified convex, and ``convex_somewhere`` otherwise.
    """

    __slots__ = ("triples", "overall")

    def __init__(
        self, triples: tuple[tuple[int, int, int, TripleClassification], ...], overall: str
    ) -> None:
        self._set(triples, overall)


def _verdict(margin: float, tol: float = CLASSIFY_TOL) -> str:
    return CONVEX if margin > tol else CONCAVE if margin < -tol else AFFINE


def classify_triple(points, tol: float = CLASSIFY_TOL) -> TripleClassification:
    """Classify three (abscissa, value) points as convex, concave or affine.

    Raises ValueError unless the abscissas strictly increase and every
    coordinate is finite.
    """
    _require_tol(tol, "classification")
    (x1, v1), (x2, v2), (x3, v3) = points
    if not (x1 < x2 < x3):
        raise ValueError("abscissas must be strictly increasing")
    _require_finite(((x1, v1), (x2, v2), (x3, v3)))
    # The difference form of w1*v1 + w3*v3 - (w1 + w3)*v2: identical
    # algebraically, exactly zero for equal values, and bit-identical to
    # the weight-based carry expressions elsewhere in the package.
    margin = (x3 - x2) * (v1 - v2) + (x2 - x1) * (v3 - v2)
    return TripleClassification(_verdict(margin, tol), margin)


def _require_finite(points) -> None:
    """Refuse a point with an infinite or NaN coordinate: its triples' margins are not
    finite, and a NaN margin would classify affine silently."""
    for x, v in points:
        if not (math.isfinite(x) and math.isfinite(v)):
            raise ValueError(f"points must be finite, got ({x!r}, {v!r})")


def _window_margins(xs, vs) -> list[float]:
    """The consecutive margin kernel: the margins of the windows (i, i+1, i+2) of the
    points (xs[i], vs[i]), as classify_triple's, in window order.

    The list stops before the first window whose abscissas do not strictly increase
    (NaN is no increase); callers refuse a short list with _require_all_windows.
    """
    if not all(map(lt, xs, xs[1:])):
        # The first pair that does not increase ends the first window that holds it.
        stop = max(list(map(lt, xs, xs[1:])).index(False) - 1, 0)
        xs, vs = xs[: stop + 2], vs[: stop + 2]
    return [
        (x3 - x2) * (v1 - v2) + (x2 - x1) * (v3 - v2)
        for x1, x2, x3, v1, v2, v3 in zip(xs, xs[1:], xs[2:], vs, vs[1:], vs[2:])
    ]


def _require_all_windows(margins: list[float], n: int) -> list[float]:
    """The kernel's margins over n points, refused as _margins refuses unless they
    cover all N-2 windows."""
    if n < 3:
        raise ValueError("shape scan needs at least 3 points")
    if len(margins) < n - 2:
        raise ValueError("abscissas must be strictly increasing")
    return margins


def _margins(points, mode: str):
    """Yield (i, j, k, margin) in (i, j, k) order; margins as classify_triple's."""
    pts = [(float(x), float(v)) for x, v in points]
    n = len(pts)
    if n < 3:
        raise ValueError("shape scan needs at least 3 points")
    if mode != CONSECUTIVE and not all(b > a for (a, _), (b, _) in zip(pts, pts[1:])):
        raise ValueError("abscissas must be strictly increasing")  # NaN is no increase
    if mode == CONSECUTIVE:
        # Refused per window, as classify_triple: early stops keep its order.
        margins = _window_margins(*zip(*pts))
        yield from zip(count(), count(1), count(2), margins)
        _require_all_windows(margins, n)
    elif mode == ALL_TRIPLES:
        if n > ALL_TRIPLES_CAP:
            raise ValueError(
                f"all-triples scan over {n} points exceeds the cap of {ALL_TRIPLES_CAP}"
            )
        # Right legs (k, x3 - x2, v3 - v2) per middle point j: a triple costs two products.
        right = [
            [(k, x3 - x2, v3 - v2) for k, (x3, v3) in enumerate(pts[j + 1 :], j + 1)]
            for j, (x2, v2) in enumerate(pts)
        ]
        for i, (x1, v1) in enumerate(pts):
            for j in range(i + 1, n):
                x2, v2 = pts[j]
                dx, dv = x2 - x1, v1 - v2
                for k, a, b in right[j]:
                    yield i, j, k, a * dv + dx * b
    else:
        raise ValueError(f"unknown scan mode {mode!r}")


def scan_curve_shape(
    points, mode: str = CONSECUTIVE, tol: float = CLASSIFY_TOL
) -> ShapeReport:
    """Classify the requested triples of a point sequence.

    ``consecutive`` scans the N-2 windows (i, i+1, i+2); ``all_triples``
    scans every i < j < k and refuses more than ``ALL_TRIPLES_CAP`` points.
    Points must be finite; as in :func:`classify_triple`, a NaN abscissa
    is refused as no increase.
    """
    _require_tol(tol, "classification")
    points = [(float(x), float(v)) for x, v in points]
    new = object.__new__
    set_verdict, set_margin = TripleClassification._setters
    triples = []
    for i, j, k, margin in _margins(points, mode):
        c = new(TripleClassification)
        set_verdict(c, _verdict(margin, tol))
        set_margin(c, margin)
        triples.append((i, j, k, c))
    _require_finite(points)  # after _margins' refusals: a NaN abscissa is no increase
    triples = tuple(triples)
    any_convex = any(c.verdict == CONVEX for _, _, _, c in triples)
    overall = CONVEX_SOMEWHERE if any_convex else CONCAVE_EVERYWHERE
    return ShapeReport(triples, overall)


def annuity_point_classification(
    base: DiscountCurve,
    shifted: DiscountCurve,
    indices: tuple[int, int, int],
) -> TripleClassification:
    """Classify the (base annuity, shifted annuity) points at three years.

    ``indices`` are 1-based years n < m < k on the common grid of both
    curves.  A zero shift puts the points on the diagonal, hence affine.
    """
    years = _grid_years(indices, len(base))
    if len(base) != len(shifted):
        raise ValueError("curves must share one grid")
    pts = tuple(
        (base.annuities[i - 1], shifted.annuities[i - 1]) for i in years
    )
    return classify_triple(pts)


def ratio_monotonicity(
    base: DiscountCurve,
    shifted: DiscountCurve,
    direction: str = "non_increasing",
) -> CheckResult:
    """Check the per-year ratio shifted/base of discount factors is monotone.

    Default direction is non-increasing, the response of a bootstrapped
    curve to a parallel rise when the underlying swap rates do not
    decrease; pass ``direction="non_decreasing"`` for the mirrored check.
    On failure the result carries the 1-based year n at which the ratio
    moves the wrong way towards n+1.
    """
    if len(base) != len(shifted):
        raise ValueError("curves must share one grid")
    for n, p in enumerate(base.factors, start=1):
        if p == 0.0:
            raise ValueError(f"base discount factor at year {n} is zero")
    if direction not in ("non_increasing", "non_decreasing"):
        raise ValueError(f"unknown direction {direction!r}")
    ratios = [s / b for s, b in zip(shifted.factors, base.factors)]
    for n, (r, r_next) in enumerate(zip(ratios, ratios[1:]), start=1):
        if direction == "non_increasing":
            bad = r_next > r + MONOTONE_TOL
        else:
            bad = r_next < r - MONOTONE_TOL
        if bad:
            return CheckResult(
                "discount_ratio_monotone",
                False,
                n,
                f"ratio rises {r:.12g} -> {r_next:.12g} after year {n}"
                if direction == "non_increasing"
                else f"ratio falls {r:.12g} -> {r_next:.12g} after year {n}",
            )
    return CheckResult("discount_ratio_monotone", True)
