"""Deterministic generation of valid random curves for randomized checks.

Sampling positive one-year forwards and converting them to par rates
guarantees the resulting swap curve bootstraps to positive, strictly
decreasing discount factors -- validity by construction, no rejection
loop.  Every function takes an explicit ``random.Random`` so trials can
be seeded from a base seed plus trial index and replayed bit-for-bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from random import Random

from .bootstrap import swap_rates_from_discounts
from .curves import DiscountCurve, ForwardCurve, SwapCurve


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
    _check_draw(n, f_lo, f_hi)
    return _discounts(rng.uniform(f_lo, f_hi) for _ in range(n))


def _check_draw(n: int, f_lo: float, f_hi: float) -> None:
    """Refuse arguments that would break validity by construction."""
    if n < 1:
        raise ValueError("curve length must be at least 1")
    if not 0.0 < f_lo < f_hi:
        raise ValueError("forward bounds must satisfy 0 < f_lo < f_hi")


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
    _check_draw(n, f_lo, f_hi)
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
