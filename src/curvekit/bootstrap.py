"""Swap-curve bootstrap, curve shifting and shift-response checks.

The bootstrap converts par swap rates on the annual grid into discount
factors by the standard recursion

    p_1 = 1 / (1 + x_1)
    p_n = (1 - x_n * (p_1 + ... + p_{n-1})) / (1 + x_n)

and :func:`swap_rates_from_discounts` inverts it exactly via
``x_n = (1 - p_n) / (p_1 + ... + p_n)``.

The ``check_*`` functions verify how bootstrapped discounts and annuities
respond to rate shifts.  They evaluate the *conclusions* only; callers are
responsible for supplying scenarios that meet each check's hypothesis
(noted per function).  :func:`shift_response` runs the same checks on a
pair of curves the caller has already bootstrapped, choosing the ones
whose hypothesis the scenario meets.  Results come back as structured
:class:`~curvekit.curves.CheckResult` records so the first violating grid
index is reportable, not just a boolean.
"""

from __future__ import annotations

import operator

from . import _args
from .curves import (
    MONOTONE_TOL,
    NON_DECREASING_DISCOUNT,
    NON_POSITIVE_DISCOUNT,
    CheckResult,
    DiscountCurve,
    SwapCurve,
    Violation,
    _check_rate_range,
    _Record,
    _violations,
)
from .shape import (
    CONCAVE,
    CONVEX,
    _verdict,
    _window_margins,
    ratio_monotonicity,
)

PARALLEL = "parallel"
PER_TENOR = "per_tenor"


class BootstrapError(ValueError):
    """Strict-mode bootstrap failure at a specific grid position."""

    def __init__(self, index: int, kind: str, value: float):
        self.index = index
        self.kind = kind
        self.value = value
        super().__init__(
            f"bootstrap produced an invalid discount factor at year {index}: "
            f"{kind} (p = {value})"
        )


class ShiftScenario(_Record):
    """Additive shift of a swap curve: one amount, or one per tenor, each a finite number."""

    __slots__ = ("kind", "amount", "amounts")

    def __init__(
        self, kind: str, amount: float | None = None, amounts: tuple[float, ...] | None = None
    ) -> None:
        if kind == PARALLEL:
            if amount is None or amounts is not None:
                raise ValueError("parallel shift takes a single amount")
            amount = _args.number(amount, "shift amount")
        elif kind == PER_TENOR:
            if amounts is None or amount is not None:
                raise ValueError("per-tenor shift takes a vector of amounts")
            amounts = _args.floats(amounts, "shift amounts")
        else:
            raise ValueError(f"unknown shift kind {kind!r}")
        self._set(kind, amount, amounts)

    @classmethod
    def parallel(cls, amount: float) -> "ShiftScenario":
        return cls(PARALLEL, amount=amount)

    @classmethod
    def per_tenor(cls, amounts) -> "ShiftScenario":
        return cls(PER_TENOR, amounts=amounts)

    def amounts_for(self, n: int) -> tuple[float, ...]:
        """The per-tenor amounts for a curve of length n, an integer."""
        n = _args.whole(n, "curve length")
        if self.kind == PARALLEL:
            return (self.amount,) * n
        if len(self.amounts) != n:
            raise ValueError(
                f"per-tenor shift has {len(self.amounts)} amounts for a "
                f"curve of length {n}"
            )
        return self.amounts


def bootstrap(swaps: SwapCurve, *, strict: bool = False) -> DiscountCurve:
    """Discount factors implied by par swap rates.

    In strict mode the recursion stops at the first year whose factor is
    non-positive or fails to decrease, validate's first finding, and raises
    :class:`BootstrapError`, which holds no partial curve.  The
    default is lenient: the factors are returned as computed and
    :func:`curvekit.curves.validate` yields the violation report, since
    shifted curves can transiently break monotonicity and callers usually
    want to observe that.
    """
    return _bootstrap_rates(swaps.rates, strict)


def _bootstrap_rates(rates: tuple[float, ...], strict: bool) -> DiscountCurve:
    """The bootstrap recursion over rates already checked as a SwapCurve's."""
    factors, annuities = _recursion(rates, strict)
    return DiscountCurve._computed(tuple(factors), tuple(annuities))


def _recursion(rates, strict: bool) -> tuple[list[float], list[float]]:
    """The factors and their running sums from 0.0; strict raises BootstrapError."""
    factors, annuities = [], []
    annuity = 0.0
    prev = 1.0
    for x in rates:
        p = (1.0 - x * annuity) / (1.0 + x)
        if strict and not MONOTONE_TOL < p < prev - MONOTONE_TOL:  # rates in range: p is finite
            kind = NON_POSITIVE_DISCOUNT if p <= MONOTONE_TOL else NON_DECREASING_DISCOUNT
            n = len(factors) + 1
            del factors, annuities, rates  # a kept error pins no list
            raise BootstrapError(n, kind, p)
        factors.append(p)
        annuity += p
        annuities.append(annuity)
        prev = p
    return factors, annuities


def _strict_bootstrap(rates) -> DiscountCurve | Violation:
    """The strict bootstrap of rates in range, or validate's first finding on their curve:
    the recursion stops at a discount finding, and a curve that passes can fail only the
    forward test, whose least value comes from the least factor ratio (x - 1.0 is monotone)."""
    try:
        curve = _bootstrap_rates(rates, True)
    except BootstrapError as exc:
        return Violation(exc.index, exc.kind, exc.value)
    factors = curve.factors
    if min(map(operator.truediv, (1.0, *factors), factors)) - 1.0 > MONOTONE_TOL:
        return curve
    return next(_violations(curve))  # the reference walk finds it


def swap_rates_from_discounts(curve: DiscountCurve) -> SwapCurve:
    """Par swap rates implied by discount factors; exact inverse of bootstrap."""
    annuities = curve.annuities
    if 0.0 in annuities:  # -0.0 included
        raise ValueError(f"annuity through year {annuities.index(0.0) + 1} is zero")
    return SwapCurve(tuple([(1.0 - p) / acc for p, acc in zip(curve.factors, annuities)]))


def apply_shift(swaps: SwapCurve, shift: ShiftScenario) -> SwapCurve:
    """Swap curve with the scenario's amounts added to each rate."""
    amounts = shift.amounts_for(len(swaps))
    return SwapCurve(tuple(x + a for x, a in zip(swaps.rates, amounts)))


def shifted_bootstrap(swaps: SwapCurve, shift: ShiftScenario) -> DiscountCurve:
    """Lenient bootstrap of the shifted swap curve.

    Same factors and refusals as ``bootstrap(apply_shift(swaps, shift))``,
    without building the intermediate curve: the sum of finite rates and
    finite amounts is finite, so only the range check is left to run.
    """
    return _bootstrap_rates(_shifted_rates(swaps, shift), False)


def _shifted_rates(swaps: SwapCurve, shift: ShiftScenario) -> tuple[float, ...]:
    """The shifted rates, or ValueError naming the first out of range."""
    return _check_rate_range(
        tuple(map(operator.add, swaps.rates, shift.amounts_for(len(swaps)))), "rates"
    )


def shift_response(
    base: DiscountCurve, shifted: DiscountCurve, scenario: ShiftScenario
) -> list[tuple[str, CheckResult | None]]:
    """The six shift-response rows of a scenario, as (name, outcome) pairs.

    ``base`` and ``shifted`` are the curves before and after ``scenario``,
    each bootstrapped once and validated by the caller, as
    :func:`curvekit.sampling.verify_trials` does.  An outcome is
    None when the scenario is outside the check's hypothesis: the annuity
    bound needs a uniformly signed shift; the bracket, discount-drop and
    annuity-ratio checks a parallel rise; the triple check three tenors.
    A uniformly non-positive shift flips the factor-ratio and triple
    checks: the ratio must then not fall, and a concave triple fails.
    The consecutive annuity-point triples decide the triple check, by
    the chord-slope argument in :mod:`curvekit.shape`.
    """
    if len(base) != len(shifted):
        raise ValueError("curves must share one grid")
    amounts = scenario.amounts_for(len(base))
    rising = any(a > 0.0 for a in amounts)
    falling = any(a < 0.0 for a in amounts)
    down = falling and not rising
    y = scenario.amount
    up = scenario.kind == PARALLEL and y > 0.0
    direction = "non_decreasing" if down else "non_increasing"
    bad = CONCAVE if down else CONVEX
    return [
        (
            "annuity_bound",
            None if rising and falling else _annuity_bound(base, shifted, not down),
        ),
        ("bracket_identity", _parallel_brackets(base, shifted, y) if up else None),
        ("discount_drop", _parallel_discount_drop(base, shifted) if up else None),
        (
            "annuity_ratio_decreasing",
            _annuity_ratio_decreasing(base, shifted) if up else None,
        ),
        ("discount_ratio_monotone", ratio_monotonicity(base, shifted, direction=direction)),
        ("annuity_triples", _annuity_triples(base, shifted, bad) if len(base) >= 3 else None),
    ]


def check_annuity_bound(swaps: SwapCurve, shift: ShiftScenario) -> CheckResult:
    """Shifting all rates one way bounds every annuity the opposite way.

    For a uniformly non-negative shift, each shifted annuity must not
    exceed its base value; mirrored for uniformly non-positive shifts.
    Raises ValueError for mixed-sign shifts, where no bound applies.
    """
    amounts = shift.amounts_for(len(swaps))
    has_pos = any(a > 0.0 for a in amounts)
    has_neg = any(a < 0.0 for a in amounts)
    if has_pos and has_neg:
        raise ValueError("annuity bound needs a uniformly signed shift")
    return _annuity_bound(bootstrap(swaps), shifted_bootstrap(swaps, shift), not has_neg)


def _annuity_bound(base: DiscountCurve, shifted: DiscountCurve, upward: bool) -> CheckResult:
    for n, (a_base, a_shift) in enumerate(
        zip(base.annuities, shifted.annuities), start=1
    ):
        diff = a_base - a_shift if upward else a_shift - a_base
        if diff < -MONOTONE_TOL:
            side = "above" if upward else "below"
            return CheckResult(
                "annuity_bound",
                False,
                n,
                f"shifted annuity at year {n} is {side} the base by {-diff:.3e}",
            )
    return CheckResult("annuity_bound", True)


def check_parallel_brackets(swaps: SwapCurve, y: float) -> CheckResult:
    """Decomposition of a parallel rise y into two non-negative brackets.

    With b1 = p_n/P_n - p_n(y)/P_n(y) and b2 = 1/P_n(y) - 1/P_n, each year
    must satisfy b1, b2 in [0, y] and b1 + b2 = y.  At year 1 the
    decomposition is degenerate by construction: b1 = 0 and b2 = y
    exactly; both inequalities are strict from year 2 on.
    """
    return _parallel_brackets(*_rise(swaps, y, "bracket decomposition"))


def _rise(swaps: SwapCurve, y: float, what: str) -> tuple[DiscountCurve, DiscountCurve, float]:
    """(base, shifted, y) of a parallel rise y, or ValueError unless y is a finite number > 0."""
    y = _args.number(y, "rise y")
    if y <= 0.0:
        raise ValueError(f"{what} is defined for a rise y > 0")
    return bootstrap(swaps), shifted_bootstrap(swaps, ShiftScenario.parallel(y)), y


def _parallel_brackets(base: DiscountCurve, shifted: DiscountCurve, y: float) -> CheckResult:
    for n, (p_base, a_base, p_shift, a_shift) in enumerate(
        zip(base.factors, base.annuities, shifted.factors, shifted.annuities), start=1
    ):
        b1 = p_base / a_base - p_shift / a_shift
        b2 = 1.0 / a_shift - 1.0 / a_base
        if b1 < -MONOTONE_TOL or b1 > y + MONOTONE_TOL:
            detail = f"share bracket {b1:.3e} outside [0, {y}]"
        elif b2 < -MONOTONE_TOL or b2 > y + MONOTONE_TOL:
            detail = f"annuity bracket {b2:.3e} outside [0, {y}]"
        elif abs(b1 + b2 - y) > MONOTONE_TOL:
            detail = f"brackets sum to {b1 + b2:.3e}, expected {y}"
        else:
            continue
        return CheckResult("bracket_identity", False, n, detail)
    return CheckResult("bracket_identity", True)


def check_parallel_discount_drop(swaps: SwapCurve, y: float) -> CheckResult:
    """A parallel rise y > 0 strictly lowers every discount factor."""
    return _parallel_discount_drop(*_rise(swaps, y, "discount drop")[:2])


def _parallel_discount_drop(base: DiscountCurve, shifted: DiscountCurve) -> CheckResult:
    for n, (pb, ps) in enumerate(zip(base.factors, shifted.factors), start=1):
        if not ps < pb:
            return CheckResult(
                "discount_drop", False, n, f"p({n}) moved {pb:.12g} -> {ps:.12g}"
            )
    return CheckResult("discount_drop", True)


def check_annuity_ratio_decreasing(swaps: SwapCurve, y: float) -> CheckResult:
    """Under a parallel rise y > 0 the shifted/base annuity ratio falls with n.

    The reported index is the first position n whose ratio fails to
    exceed the ratio at n+1.
    """
    return _annuity_ratio_decreasing(*_rise(swaps, y, "annuity ratio monotonicity")[:2])


def _annuity_ratio_decreasing(base: DiscountCurve, shifted: DiscountCurve) -> CheckResult:
    ratios = [s / b for s, b in zip(shifted.annuities, base.annuities)]
    for n, (r, r_next) in enumerate(zip(ratios, ratios[1:]), start=1):
        if not r_next < r:
            return CheckResult(
                "annuity_ratio_decreasing",
                False,
                n,
                f"ratio {r:.12g} -> {r_next:.12g} is not a decrease",
            )
    return CheckResult("annuity_ratio_decreasing", True)


def _annuity_triples(
    base: DiscountCurve, shifted: DiscountCurve, bad_verdict: str
) -> CheckResult:
    # Window by window: a bad verdict before annuities that stop increasing is reported.
    margins = _window_margins(base.annuities, shifted.annuities)
    for i, margin in enumerate(margins):
        if _verdict(margin) == bad_verdict:
            return CheckResult(
                "annuity_triples",
                False,
                i + 1,
                f"triple {(i + 1, i + 2, i + 3)} classifies {bad_verdict} (margin {margin:.3e})",
            )
    if len(margins) < len(base) - 2:
        raise ValueError("abscissas must be strictly increasing")
    return CheckResult("annuity_triples", True)
