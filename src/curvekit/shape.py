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

from itertools import count
from operator import lt

from . import _args
from .curves import MONOTONE_TOL, CheckResult, DiscountCurve, _Record

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

    Raises ValueError unless every coordinate is a finite number and the
    abscissas strictly increase, and for a ``tol`` that is not a finite
    number >= 0.
    """
    tol = _args.tolerance(tol, "classification")
    pairs = _args.pairs(points)
    if len(pairs) != 3:
        raise ValueError(f"points must be three (x, v) pairs, got {len(pairs)}")
    (x1, v1), (x2, v2), (x3, v3) = pairs
    if not (x1 < x2 < x3):
        raise ValueError("abscissas must be strictly increasing")
    # The difference form of w1*v1 + w3*v3 - (w1 + w3)*v2: identical
    # algebraically, exactly zero for equal values, and bit-identical to
    # the weight-based carry expressions elsewhere in the package.
    margin = (x3 - x2) * (v1 - v2) + (x2 - x1) * (v3 - v2)
    return TripleClassification(_verdict(margin, tol), margin)


def _window_margins(xs, vs) -> list[float]:
    """The consecutive margin kernel: the margins of the windows (i, i+1, i+2) of the
    points (xs[i], vs[i]), as classify_triple's, in window order.

    The list stops before the first window whose abscissas do not strictly increase
    (NaN is no increase); callers refuse a list shorter than N-2.
    """
    if not all(map(lt, xs, xs[1:])):
        # The first pair that does not increase ends the first window that holds it.
        stop = max(list(map(lt, xs, xs[1:])).index(False) - 1, 0)
        xs, vs = xs[: stop + 2], vs[: stop + 2]
    return [
        (x3 - x2) * (v1 - v2) + (x2 - x1) * (v3 - v2)
        for x1, x2, x3, v1, v2, v3 in zip(xs, xs[1:], xs[2:], vs, vs[1:], vs[2:])
    ]


def _consecutive_margins(xs, vs) -> list[float]:
    """The margins of all N-2 windows, after _margins' refusals of a consecutive scan."""
    n = len(xs)
    if n < 3:
        raise ValueError("shape scan needs at least 3 points")
    margins = _window_margins(xs, vs)
    if len(margins) < n - 2:
        raise ValueError("abscissas must be strictly increasing")
    return margins


def _margins(xs, vs, mode: str):
    """The (i, j, k, margin) of the triples ``mode`` scans over the points (xs[i], vs[i]),
    in (i, j, k) order; margins as classify_triple's.

    Every refusal comes before the first triple, in this order: fewer than 3 points;
    abscissas that do not strictly increase (NaN is no increase); for any mode but
    consecutive, an unknown mode and then more than ALL_TRIPLES_CAP points.
    """
    n = len(xs)
    if mode == CONSECUTIVE or n < 3:  # fewer than 3 points: the first refusal of every mode
        return zip(count(), count(1), count(2), _consecutive_margins(xs, vs))
    if not all(map(lt, xs, xs[1:])):
        raise ValueError("abscissas must be strictly increasing")
    if mode != ALL_TRIPLES:
        raise ValueError(f"unknown scan mode {mode!r}")
    if n > ALL_TRIPLES_CAP:
        raise ValueError(f"all-triples scan over {n} points exceeds the cap of {ALL_TRIPLES_CAP}")
    return _all_margins(xs, vs)


def _all_margins(xs, vs):
    """Yield (i, j, k, margin) for every i < j < k, streamed: the cap scan has 1.3M."""
    n = len(xs)
    # Right legs (k, x3 - x2, v3 - v2) per middle point j: a triple costs two products.
    right = [
        [(k, x3 - x2, v3 - v2) for k, x3, v3 in zip(count(j + 1), xs[j + 1 :], vs[j + 1 :])]
        for j, (x2, v2) in enumerate(zip(xs, vs))
    ]
    for i, (x1, v1) in enumerate(zip(xs, vs)):
        for j in range(i + 1, n):
            dx, dv = xs[j] - x1, v1 - vs[j]
            for k, a, b in right[j]:
                yield i, j, k, a * dv + dx * b


def scan_curve_shape(
    points, mode: str = CONSECUTIVE, tol: float = CLASSIFY_TOL
) -> ShapeReport:
    """Classify the requested triples of a point sequence.

    ``consecutive`` scans the N-2 windows (i, i+1, i+2); ``all_triples``
    scans every i < j < k and refuses more than ``ALL_TRIPLES_CAP`` points.
    Points must be pairs of finite numbers: a NaN margin would classify
    affine silently.
    """
    tol = _args.tolerance(tol, "classification")
    points = _args.pairs(points)
    xs, vs = [x for x, _ in points], [v for _, v in points]
    new = object.__new__
    set_verdict, set_margin = TripleClassification._setters
    triples = []
    for i, j, k, margin in _margins(xs, vs, mode):
        c = new(TripleClassification)
        set_verdict(c, _verdict(margin, tol))
        set_margin(c, margin)
        triples.append((i, j, k, c))
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
    years = _args.grid_years(indices, len(base))
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
    if 0.0 in base.factors:  # -0.0 included
        raise ValueError(f"base discount factor at year {base.factors.index(0.0) + 1} is zero")
    if direction not in ("non_increasing", "non_decreasing"):
        raise ValueError(f"unknown direction {direction!r}")
    rising = direction == "non_increasing"  # a rise is the wrong way
    ratios = [s / b for s, b in zip(shifted.factors, base.factors)]
    for n, (r, r_next) in enumerate(zip(ratios, ratios[1:]), start=1):
        if (r_next > r + MONOTONE_TOL) if rising else (r_next < r - MONOTONE_TOL):
            move = "rises" if rising else "falls"
            detail = f"ratio {move} {r:.12g} -> {r_next:.12g} after year {n}"
            return CheckResult("discount_ratio_monotone", False, n, detail)
    return CheckResult("discount_ratio_monotone", True)
