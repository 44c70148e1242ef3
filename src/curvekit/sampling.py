"""Deterministic generation of valid random curves for randomized checks,
and the seeded verification run that uses them.

Sampling positive one-year forwards and converting them to par rates
guarantees the resulting swap curve bootstraps to positive, strictly
decreasing discount factors -- validity by construction, no rejection
loop.  Every sampler takes an explicit ``random.Random``, and
:func:`verify_trials` seeds each trial's generator from the base seed
plus the trial index, never from ambient randomness, so trials replay
bit-for-bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from random import Random

from . import _args
from .bootstrap import ShiftScenario, bootstrap, shift_response, shifted_bootstrap
from .bootstrap import swap_rates_from_discounts
from .curves import DiscountCurve, ForwardCurve, SwapCurve, _Record, forward_rates
from .curves import _require_valid, _violations


def _discounts(forwards: Iterable[float]) -> DiscountCurve:
    """Discount curve of consecutive one-year forwards, read in order."""
    factors = []
    acc = 1.0
    for f in forwards:
        acc /= 1.0 + f
        factors.append(acc)
    return DiscountCurve(tuple(factors))


def random_discount_curve(
    rng: Random, n: int, f_lo: float = 0.001, f_hi: float = 0.12
) -> DiscountCurve:
    """Discount curve built from uniform one-year forwards in [f_lo, f_hi]."""
    n, f_lo, f_hi = _check_draw(n, f_lo, f_hi)
    return _discounts(rng.uniform(f_lo, f_hi) for _ in range(n))


def _check_draw(n: int, f_lo: float, f_hi: float) -> tuple[int, float, float]:
    """n, f_lo and f_hi as an int and floats, or ValueError where they would break validity
    by construction: n not an integer >= 1, bounds not finite numbers with 0 < f_lo < f_hi."""
    n = _args.whole(n, "curve length")
    f_lo, f_hi = _args.number(f_lo, "f_lo"), _args.number(f_hi, "f_hi")
    if n < 1:
        raise ValueError("curve length must be at least 1")
    if not 0.0 < f_lo < f_hi:
        raise ValueError("forward bounds must satisfy 0 < f_lo < f_hi")
    return n, f_lo, f_hi


def random_swap_curve(
    rng: Random, n: int, f_lo: float = 0.001, f_hi: float = 0.12
) -> SwapCurve:
    """Valid swap curve whose implied forwards lie in [f_lo, f_hi].

    Par rates are averages of the sampled forwards in the relevant
    sense, so they stay inside the same band.
    """
    return swap_rates_from_discounts(random_discount_curve(rng, n, f_lo, f_hi))


def random_nondecreasing_swap_curve(
    rng: Random, n: int, f_lo: float = 0.005, f_hi: float = 0.10
) -> SwapCurve:
    """Non-decreasing valid swap curve from sorted forward draws.

    The n-year par rate is the discount-weighted average of the first n
    forwards, so non-decreasing forwards give a non-decreasing par curve
    while keeping the bootstrap valid by construction.  (Sorting par
    rates directly would not work: a steep enough rising par curve
    implies negative discount factors.)
    """
    n, f_lo, f_hi = _check_draw(n, f_lo, f_hi)
    forwards = sorted(rng.uniform(f_lo, f_hi) for _ in range(n))
    return swap_rates_from_discounts(_discounts(forwards))


def perturb_swap_curve(rng: Random, forwards: ForwardCurve) -> SwapCurve:
    """Jitter a valid curve, given by its forwards, multiplicatively.

    Forwards are scaled by exp(u), u uniform in [-0.25, 0.25], which
    keeps positive forwards positive and therefore keeps the perturbed
    curve valid.  Callers that perturb one curve many times compute its
    forwards once.
    """
    jitter = (f * math.exp(rng.uniform(-0.25, 0.25)) for f in forwards.forwards)
    return swap_rates_from_discounts(_discounts(jitter))


class VerifyReport(_Record):
    """The shift-response rows of a curve and its seeded perturbations.

    ``rows`` holds one ``(name, trial, outcome)`` per check, in
    :func:`~curvekit.bootstrap.shift_response` order; ``trial`` is None for
    the given curve, or else the trial whose failure the row keeps.  Of the
    trials, ``skipped`` ones broke their shifted curve and ``evaluated`` ones
    ran the checks; ``failed`` counts the evaluated trials with a failed check.
    """

    __slots__ = ("rows", "evaluated", "skipped", "failed")

    def __init__(self, rows: tuple, evaluated: int, skipped: int, failed: int) -> None:
        self._set(rows, evaluated, skipped, failed)


def verify_trials(
    swaps: SwapCurve, scenario: ShiftScenario, trials: int = 0, seed: int = 0
) -> VerifyReport:
    """The shift-response checks on a curve and on ``trials`` perturbations of it.

    Trial t jitters the curve's forwards with ``Random(f"{seed}:{t}")``.  A trial
    whose shifted curve fails validation is skipped, not a finding.  Raises ValueError
    for ``trials`` or a ``seed`` that ``operator.index`` refuses or beyond float range,
    for negative ``trials``, or when the curve or its shift fails validation.
    """
    trials, seed = _args.whole(trials, "trials"), _args.whole(seed, "seed")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    base = _require_valid(bootstrap(swaps), "input curve")
    # The checks presuppose a functioning shifted market, so a scenario
    # that breaks the shifted curve is an input error, not a finding.
    shifted = _require_valid(shifted_bootstrap(swaps, scenario), "shifted curve")
    rows = {name: (None, outcome) for name, outcome in shift_response(base, shifted, scenario)}
    forwards = forward_rates(base)
    skipped = failed = 0
    for trial in range(trials):
        perturbed = perturb_swap_curve(Random(f"{seed}:{trial}"), forwards)
        shifted = shifted_bootstrap(perturbed, scenario)
        if any(_violations(shifted)):
            skipped += 1
            continue
        trial_failed = False
        for name, outcome in shift_response(bootstrap(perturbed), shifted, scenario):
            if outcome is not None and not outcome.passed:
                trial_failed = True
                kept = rows[name][1]
                if kept is None or kept.passed:  # keep the first failure
                    rows[name] = (trial, outcome)
        failed += trial_failed
    rows = tuple([(name, trial, outcome) for name, (trial, outcome) in rows.items()])
    return VerifyReport(rows, trials - skipped, skipped, failed)
