"""Zero-cost butterfly portfolios and their profit under curve shifts.

A butterfly is long two outer legs and short the middle one.  Weights are
stored in their natural scale -- differences of maturities for zero-bond
butterflies, differences of base annuities for swap butterflies -- with
the middle weight built as the exact sum of the outer two, so the
zero-cost identity w1 + w3 = w2 holds bit-for-bit and an unmoved
portfolio values to exactly zero.  Any positive rescaling describes the
same trade; ``Butterfly.normalized_weights`` returns the scale with a
unit middle leg for comparing across triples.

Sign conventions: a positive shift moves all rates up; values and P&L are
per unit of the stored weight scale.  Zero-bond P&L uses continuous
compounding in the revaluation exponentials, while the swap machinery
stays annually compounded end to end -- a deliberate mismatch documented
in the README formula map.
"""

from __future__ import annotations

import math
from operator import itemgetter

from . import _args
from .bootstrap import _recursion, bootstrap
from .curves import RATE_HI, RATE_LO, SwapCurve, ZeroCurve, _check_rate_range, _Record
from .curves import MONOTONE_TOL, _require_valid
from .shape import CLASSIFY_TOL, CONSECUTIVE, _margins

ZERO_BOND = "zero_bond"
SWAP = "swap"

# One float per leg, in leg order.
Triple = tuple[float, float, float]


class Butterfly(_Record):
    """Three-leg, zero-cost portfolio: long the wings, short the body.

    ``legs`` holds maturities in years (zero-bond kind) or 1-based grid
    years n < m < k (swap kind).  For the swap kind the base annuities
    that produced the weights are kept alongside.
    """

    __slots__ = ("kind", "legs", "weights", "base_annuities")

    def __init__(
        self, kind: str, legs: tuple, weights: Triple, base_annuities: Triple | None = None
    ) -> None:
        self._set(kind, legs, weights, base_annuities)

    def normalized_weights(self) -> Triple:
        """The weight triple rescaled to a unit middle (short) leg."""
        w1, w2, w3 = self.weights
        return (w1 / w2, 1.0, w3 / w2)


class PnlBreakdown(_Record):
    """Swap-butterfly P&L split into accrual carry and revaluation.

    ``remaining_annuities`` are the shifted annuities of the three legs
    net of the elapsed share of the first payment, in leg order.
    """

    __slots__ = ("carry", "mark_to_market", "total", "remaining_annuities")

    def __init__(
        self, carry: float, mark_to_market: float, total: float, remaining_annuities: Triple
    ) -> None:
        self._set(carry, mark_to_market, total, remaining_annuities)


class SafetyCheck(_Record):
    """Outcome of the non-parallel safety conditions.

    ``shifted_yield_margin`` is the slack of the shifted-yield convexity
    requirement, ``instantaneous_margin`` the slack of the weighted
    move-times-maturity requirement; both are in the raw weight scale.
    The check passes only when both are non-negative (to tolerance) and
    ``binding_margin`` is the smaller of the two.
    """

    __slots__ = ("passed", "shifted_yield_margin", "instantaneous_margin", "binding_margin")

    def __init__(
        self,
        passed: bool,
        shifted_yield_margin: float,
        instantaneous_margin: float,
        binding_margin: float,
    ) -> None:
        self._set(passed, shifted_yield_margin, instantaneous_margin, binding_margin)


class ArbitrageCandidate(_Record):
    """One convex triple found by a scan, with its ready-made butterfly.

    ``indices`` are 1-based positions in the scanned curve; ``legs``
    repeats the butterfly's legs (maturities or grid years); ``margin``
    is the convexity margin the ranking sorts on, largest first.
    """

    __slots__ = ("indices", "legs", "margin", "butterfly")

    def __init__(
        self, indices: tuple[int, int, int], legs: tuple, margin: float, butterfly: Butterfly
    ) -> None:
        self._set(indices, legs, margin, butterfly)


def zero_butterfly(t1: float, t2: float, t3: float) -> Butterfly:
    """Zero-coupon butterfly over maturities 0 < t1 < t2 < t3.

    The weights (t3 - t2, t3 - t1, t2 - t1) are the unique solution, up
    to scale, of zero cost (w1 + w3 = w2) combined with zero weighted
    maturity exposure (w1*t1 + w3*t3 = w2*t2).  Each maturity must be a
    finite number.
    """
    t1, t2, t3 = map(_args.number, (t1, t2, t3), ("t1", "t2", "t3"))
    if not 0.0 < t1 < t2 < t3:
        raise ValueError(f"maturities must satisfy 0 < t1 < t2 < t3, got {(t1, t2, t3)}")
    w1 = t3 - t2
    w3 = t2 - t1
    return Butterfly(ZERO_BOND, (t1, t2, t3), (w1, w1 + w3, w3))


def zero_butterfly_pnl(fly: Butterfly, yields: Triple, shift: float, horizon: float) -> float:
    """Value of a zero-bond butterfly after all yields move by ``shift``.

    Each leg of initial yield y and maturity T revalues, ``horizon``
    years on, to exp(-shift * (T - horizon) + y * horizon) per unit
    invested (continuous compounding).  At shift 0 and horizon 0 the
    value is exactly zero.  Refusals come in order: the legs, a horizon
    that is not a finite number in [0, t1], a shift, the yields and the
    weights that are not finite numbers, then a value beyond float range.
    """
    if fly.kind != ZERO_BOND:
        raise ValueError(f"expected a zero_bond butterfly, got kind {fly.kind!r}")
    try:  # a hand-built butterfly's legs: three finite numbers in order
        t1, t2, t3 = _args.triple(fly.legs, "maturities")
        if not 0.0 < t1 < t2 < t3:
            raise ValueError
    except ValueError:
        raise ValueError(f"maturities must satisfy 0 < t1 < t2 < t3, got {fly.legs}") from None
    t = _args.number(horizon, "horizon")
    if not 0.0 <= t <= t1:
        raise ValueError(f"horizon must lie in [0, first maturity {t1}], got {horizon}")
    a = _args.number(shift, "shift amount")
    y1, y2, y3 = _args.triple(yields, "yields")
    w1, w2, w3 = _args.triple(fly.weights, "weights")
    try:
        value = (
            w1 * math.exp(-a * (t1 - t) + y1 * t)
            + w3 * math.exp(-a * (t3 - t) + y3 * t)
            - w2 * math.exp(-a * (t2 - t) + y2 * t)
        )
    except OverflowError:
        value = math.inf  # an exponential itself left float range
    if not math.isfinite(value):
        raise ValueError(f"butterfly value overflows at shift {shift}")
    return value


def nonparallel_weights(moves: Triple, maturities: Triple) -> Triple:
    """Butterfly weights that keep zero cost under per-leg moves.

    With products m_i = a_i * T_i the weights are (m3 - m2, m3 - m1,
    m2 - m1); all three must come out positive and finite, which requires
    a1*T1 < a2*T2 < a3*T3.  Equal moves reduce to the zero-butterfly
    weights scaled by the common move.  Each triple must be three finite numbers.
    """
    a1, a2, a3 = _args.triple(moves, "moves")
    t1, t2, t3 = _args.triple(maturities, "maturities")
    w1 = a3 * t3 - a2 * t2
    w3 = a2 * t2 - a1 * t1
    if not (w1 > 0.0 and w3 > 0.0 and w1 + w3 < math.inf):  # an overflowing product fails
        raise ValueError(
            "moves must satisfy a1*T1 < a2*T2 < a3*T3 for positive weights, "
            f"got products ({a1 * t1}, {a2 * t2}, {a3 * t3})"
        )
    return (w1, w1 + w3, w3)


def nonparallel_safe(
    weights: Triple, maturities: Triple, yields: Triple, moves: Triple
) -> SafetyCheck:
    """Evaluate both safety conditions for per-leg moves, given as triples of finite numbers.

    Passing needs (in the raw weight scale, w2-normalizable by the
    caller), each to within 1e-12:

    - shifted-yield condition: w1*(y1+a1) + w3*(y3+a3) >= w2*(y2+a2);
    - instantaneous condition: w1*a1*T1 + w3*a3*T3 <= w2*a2*T2.
    """
    w1, w2, w3 = _args.triple(weights, "weights")
    if not (w1 > 0.0 and w2 > 0.0 and w3 > 0.0):
        raise ValueError("weights must all be positive")
    if not abs((w1 + w3) - w2) <= 1e-9 * max(w1, w2, w3):  # an overflowing sum fails too
        raise ValueError("weights must satisfy w1 + w3 = w2")
    t1, t2, t3 = _args.triple(maturities, "maturities")
    y1, y2, y3 = _args.triple(yields, "yields")
    a1, a2, a3 = _args.triple(moves, "moves")
    _check_rate_range((y1 + a1, y2 + a2, y3 + a3), "shifted yields")
    yield_margin = w1 * ((y1 + a1) - (y2 + a2)) + w3 * ((y3 + a3) - (y2 + a2))
    instant_margin = w2 * a2 * t2 - w1 * a1 * t1 - w3 * a3 * t3
    binding = min(yield_margin, instant_margin)
    return SafetyCheck(
        passed=(yield_margin >= -1e-12 and instant_margin >= -1e-12),
        shifted_yield_margin=yield_margin,
        instantaneous_margin=instant_margin,
        binding_margin=binding,
    )


def swap_butterfly(swaps: SwapCurve, indices: tuple[int, int, int]) -> Butterfly:
    """Swap butterfly at grid years n < m < k, weighted by base annuities.

    Notionals (P_k - P_m, P_k - P_n, P_m - P_n) come from the
    bootstrapped base annuities; long the fixed legs at n and k, short
    the fixed leg at m.  Each swap being at-market makes the package
    costless at inception.  The bootstrap runs strict, so an invalid
    discount curve raises rather than producing meaningless weights.
    """
    n, m, k = _args.grid_years(indices, len(swaps))
    annuities = _recursion(swaps.rates, True)[1]
    a_n, a_m, a_k = annuities[n - 1], annuities[m - 1], annuities[k - 1]
    w1 = a_k - a_m
    w3 = a_m - a_n
    return Butterfly(SWAP, (n, m, k), (w1, w1 + w3, w3), (a_n, a_m, a_k))


def swap_butterfly_pnl(
    fly: Butterfly, swaps: SwapCurve, shift: float, horizon: float
) -> PnlBreakdown:
    """Carry and mark-to-market of a swap butterfly after a parallel shift.

    Carry accrues linearly over ``horizon`` (a fraction of the annual
    coupon period, capped at 1): horizon * (w1*x_n + w3*x_k - w2*x_m).
    Mark-to-market revalues each received-fixed leg against the shifted
    par rate: a leg of weight w changes by -shift * w * A where A is the
    leg's remaining annuity on the shifted curve, taken as the shifted
    annuity minus the elapsed share of the shifted first-year factor.
    An instantaneous view is horizon = 0, where A is the shifted annuity
    itself.

    A horizon, hand-built legs or weights, or a shift that is not a finite
    number is refused first.  Each shift is one pass over the rates.  Its
    refusals come in order: the shift, the first shifted rate out of range,
    then the first invalid shifted factor (BootstrapError).
    """
    if fly.kind != SWAP:
        raise ValueError(f"expected a swap butterfly, got kind {fly.kind!r}")
    t = _args.number(horizon, "horizon")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"horizon must lie in [0, 1] years, got {horizon}")
    try:  # a hand-built butterfly's legs: whole years in order, as swap_butterfly takes
        n, m, k = _args.grid_years(fly.legs, math.inf)
    except ValueError:
        raise ValueError(f"need 1 <= n < m < k <= {len(swaps)}, got {fly.legs}") from None
    if len(swaps) < k:
        raise ValueError("curve is shorter than the butterfly's last leg")
    w1, w2, w3 = _args.triple(fly.weights, "weights")
    x = swaps.rates
    # Difference form of w1*x_n + w3*x_k - w2*x_m (w2 = w1 + w3): exactly
    # zero on a flat curve and bit-identical to the classification margin
    # of the (annuity, rate) triple.
    carry = t * (w1 * (x[n - 1] - x[m - 1]) + w3 * (x[k - 1] - x[m - 1]))
    shift = _args.number(shift, "shift amount")
    # One pass shifts, range-tests and recurses; at a failing year the reference path refuses.
    annuities, annuity, prev = [], 0.0, 1.0
    for r in x:
        r += shift
        if not RATE_LO < r < RATE_HI:
            break
        p = (1.0 - r * annuity) / (1.0 + r)
        if not MONOTONE_TOL < p < prev - MONOTONE_TOL:
            break
        annuity += p
        annuities.append(annuity)
        prev = p
    if len(annuities) < len(x):
        rates = [r + shift for r in x]
        _check_rate_range(rates, "rates")
        annuities = _recursion(rates, True)[1]
    elapsed = t * annuities[0]  # the first factor: the sums start from 0.0
    remaining = (annuities[n - 1] - elapsed, annuities[m - 1] - elapsed, annuities[k - 1] - elapsed)
    mark = -shift * w1 * remaining[0] - shift * w3 * remaining[2] + shift * w2 * remaining[1]
    set_carry, set_mark, set_total, set_remaining = PnlBreakdown._setters
    pnl = object.__new__(PnlBreakdown)
    set_carry(pnl, carry)
    set_mark(pnl, mark)
    set_total(pnl, carry + mark)
    set_remaining(pnl, remaining)
    return pnl


def _scan_hits(curve: ZeroCurve | SwapCurve, kind: str, mode: str, tol: float):
    """Abscissae, legs per position and the (i, j, k, margin) hits, largest margin first.

    The abscissae are tenors (zero-bond kind) or base annuities (swap
    kind); a hit's weights are their differences, as in ``zero_butterfly``
    and ``swap_butterfly``.  Legs are tenors or 1-based grid years.
    """
    tol = _args.tolerance(tol, "classification")
    if kind == ZERO_BOND:
        if not isinstance(curve, ZeroCurve):
            raise ValueError("zero_bond scan expects a ZeroCurve")
        xs, values, legs = curve.tenors, curve.yields, curve.tenors
        prev = 1.0
        for pos, (t, y) in enumerate(zip(xs, values), start=1):
            try:  # a price that overflows does not decrease either
                p = (1.0 + y) ** (-t)
            except OverflowError:
                p = math.inf
            if p >= prev:
                raise ValueError(
                    f"curve fails validation: zero price does not decrease at point {pos}"
                )
            prev = p
    elif kind == SWAP:
        if not isinstance(curve, SwapCurve):
            raise ValueError("swap scan expects a SwapCurve")
        disc = _require_valid(bootstrap(curve), "curve")
        xs, values, legs = disc.annuities, curve.rates, range(1, len(curve) + 1)
    else:
        raise ValueError(f"unknown butterfly kind {kind!r}")
    # Convex as classify_triple decides; a stable sort keeps ties in (i, j, k) order.
    hits = [hit for hit in _margins(xs, values, mode) if hit[3] > tol]
    hits.sort(key=itemgetter(3), reverse=True)
    return xs, legs, hits


def scan_arbitrage(
    curve: ZeroCurve | SwapCurve,
    kind: str = ZERO_BOND,
    mode: str = CONSECUTIVE,
    tol: float = CLASSIFY_TOL,
) -> tuple[ArbitrageCandidate, ...]:
    """List the convex triples of a curve, ranked by margin.

    Zero-bond kind scans (tenor, yield) points of a zero curve; swap kind
    scans (annuity, swap rate) points of a swap curve.  Either way a
    convex triple is the entry condition for a profitable butterfly under
    common moves, so each hit is returned with its weights.  The curve
    must be arbitrage-clean at the individual-instrument level first
    (positive, decreasing discount factors); otherwise this raises, as
    does a ``tol`` that is not a finite number >= 0.  Candidates are sorted by margin
    descending, ties by indices, so results are deterministic.
    """
    xs, legs, hits = _scan_hits(curve, kind, mode, tol)
    new, swap = object.__new__, kind == SWAP
    set_kind, set_fly_legs, set_weights, set_base_annuities = Butterfly._setters
    set_indices, set_legs, set_margin, set_butterfly = ArbitrageCandidate._setters
    candidates = []
    for i, j, k, margin in hits:
        w1, w3 = xs[k] - xs[j], xs[j] - xs[i]
        fly_legs = (legs[i], legs[j], legs[k])
        fly = new(Butterfly)
        set_kind(fly, kind)
        set_fly_legs(fly, fly_legs)
        set_weights(fly, (w1, w1 + w3, w3))
        set_base_annuities(fly, (xs[i], xs[j], xs[k]) if swap else None)
        hit = new(ArbitrageCandidate)
        set_indices(hit, (i + 1, j + 1, k + 1))
        set_legs(hit, fly_legs)
        set_margin(hit, margin)
        set_butterfly(hit, fly)
        candidates.append(hit)
    return tuple(candidates)
