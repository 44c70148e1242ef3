"""The strict-validity primitive beside the bootstrap recursion.

``bootstrap._strict_bootstrap`` returns the strict bootstrap's curve or validate's first
finding on the lenient one.  It is pinned here to the lenient bootstrap followed by the
reference walk ``curves._violations``: the same curve by float.hex, or the same finding
and the same refusal message.  The refusals built on it keep no partial curve alive.
"""

import gc
import math
import sys
import tracemalloc
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvekit.bootstrap import BootstrapError, ShiftScenario, _strict_bootstrap, bootstrap
from curvekit.butterfly import SWAP, Butterfly, scan_arbitrage, swap_butterfly, swap_butterfly_pnl
from curvekit.curves import (
    MONOTONE_TOL,
    NON_DECREASING_DISCOUNT,
    NON_POSITIVE_DISCOUNT,
    DiscountCurve,
    SwapCurve,
    Violation,
    _require_valid,
    _violations,
    forward_rates,
)
from curvekit.sampling import perturb_swap_curve, random_swap_curve, verify_trials


def hexes(values):
    return [v.hex() for v in values]


def refusal(result):
    """_require_valid's message for a curve or a finding, or None when it passes."""
    try:
        _require_valid(result, "curve")
    except ValueError as exc:
        return str(exc)
    return None


def assert_matches_the_reference(swaps):
    """The primitive against the lenient bootstrap and its first finding; the kind."""
    got = _strict_bootstrap(swaps.rates)
    lenient = bootstrap(swaps)
    first = next(_violations(lenient), None)
    assert refusal(got) == refusal(lenient)
    if first is None:
        assert type(got) is DiscountCurve and got == lenient
        assert hexes(got.factors) == hexes(lenient.factors)
        assert hexes(got.annuities) == hexes(lenient.annuities)
        return "valid"
    assert type(got) is Violation
    assert (got.index, got.kind, got.value.hex()) == (first.index, first.kind, first.value.hex())
    # Strict mode stops at the same year with the same kind and value.
    with pytest.raises(BootstrapError) as exc:
        bootstrap(swaps, strict=True)
    assert (exc.value.index, exc.value.kind, exc.value.value) == (got.index, got.kind, got.value)
    return got.kind


@st.composite
def swap_curves(draw):
    """Sampled curves of up to 300 years: as drawn, perturbed as verify's trials are, or
    with up to three rates redrawn anywhere in the supported range."""
    n = draw(st.integers(1, 300))
    swaps = random_swap_curve(Random(draw(st.integers(0, 10**6))), n)
    how = draw(st.sampled_from(("sampled", "perturbed", "redrawn")))
    if how == "perturbed":
        rng = Random(draw(st.integers(0, 10**6)))
        swaps = perturb_swap_curve(rng, forward_rates(bootstrap(swaps)))
    elif how == "redrawn":
        rates = list(swaps.rates)
        for _ in range(draw(st.integers(1, 3))):
            rates[draw(st.integers(0, n - 1))] = draw(st.floats(-0.49, 0.99))
        swaps = SwapCurve(tuple(rates))
    return swaps


@given(swaps=swap_curves())
@settings(max_examples=300, deadline=None)
@example(swaps=SwapCurve((0.05, 0.05, 0.05)))
@example(swaps=SwapCurve((0.05, 0.05, 0.9)))  # non-positive at year 3
@example(swaps=SwapCurve((0.05, 0.9, 0.05)))  # non-decreasing at year 3
@example(swaps=SwapCurve((-0.2, 0.05)))  # non-decreasing at year 1: p = 1.25
def test_the_primitive_is_the_lenient_bootstrap_and_its_first_finding(swaps):
    assert_matches_the_reference(swaps)


def test_every_kind_of_outcome_is_reached():
    cases = {
        "valid": SwapCurve((0.02, 0.025, 0.03)),
        NON_POSITIVE_DISCOUNT: SwapCurve((0.05, 0.05, 0.9)),
        NON_DECREASING_DISCOUNT: SwapCurve((0.05, 0.9, 0.05)),
    }
    for kind, swaps in cases.items():
        assert assert_matches_the_reference(swaps) == kind
    # A swap curve of random_swap_curve breaks deep inside at N=1000.
    deep = random_swap_curve(Random(1), 1000)
    assert assert_matches_the_reference(deep) == NON_DECREASING_DISCOUNT
    assert _strict_bootstrap(deep.rates).index == 388


def test_no_curve_passes_strict_and_fails_the_forward_test():
    # A forward finding without a discount finding needs adjacent factors with
    # p < prev - MONOTONE_TOL and prev / p - 1.0 <= MONOTONE_TOL.  The nearest candidates
    # are the few factors just below prev - MONOTONE_TOL; none of them qualifies, for
    # prev = 1.0 (year 1) or any other prev drawn across the binades.  None was found,
    # so the primitive's forward test is a guard that no sampled curve has reached.
    rng = Random(1)
    prevs = [1.0] + [rng.uniform(0.5, 1.0) * 2.0**-k for k in range(40) for _ in range(50)]
    for prev in prevs:
        p = math.nextafter(prev - MONOTONE_TOL, 0.0)
        for _ in range(8):
            strict = MONOTONE_TOL < p < prev - MONOTONE_TOL
            assert not (strict and prev / p - 1.0 <= MONOTONE_TOL), (prev.hex(), p.hex())
            p = math.nextafter(p, 0.0)
    # One-year curves around the boundary: 1 / (1 + x) near 1 - MONOTONE_TOL.
    for k in range(4490, 4520):
        assert assert_matches_the_reference(SwapCurve((k * 2.0**-52,))) in (
            "valid",
            NON_DECREASING_DISCOUNT,
        )


# -- kept refusals -------------------------------------------------------------


def retained(call, *args) -> tuple[int, ValueError]:
    """Bytes that a call's refusal keeps alive once caught and kept, and the refusal."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        sys._getframe()  # this frame's object exists before the error, not because of it
        base = tracemalloc.get_traced_memory()[0]
        try:
            call(*args)
        except ValueError as exc:
            kept = exc
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base, kept
    finally:
        if started:
            tracemalloc.stop()


INVALID = random_swap_curve(Random(1), 1000)  # non-decreasing at year 388
HAND_BUILT = Butterfly(SWAP, (1, 2, 3), (1.0, 2.0, 1.0))

KEPT_REFUSALS = {
    "swap_butterfly": (
        (swap_butterfly, INVALID, (1, 2, 3)),
        "bootstrap produced an invalid discount factor at year 388: non_decreasing_discount",
    ),
    "swap_butterfly_pnl-range": (
        (swap_butterfly_pnl, HAND_BUILT, INVALID, 0.95, 0.5),
        "rates[1] = ",
    ),
    "swap_butterfly_pnl-factor": (
        (swap_butterfly_pnl, HAND_BUILT, INVALID, 0.0, 0.5),
        "bootstrap produced an invalid discount factor at year 388: non_decreasing_discount",
    ),
    "scan_arbitrage-swap": (
        (scan_arbitrage, INVALID, "swap"),
        "curve fails validation: non_decreasing_discount at index 388",
    ),
    "verify_trials": (
        (verify_trials, INVALID, ShiftScenario.parallel(0.01)),
        "input curve fails validation: non_decreasing_discount at index 388",
    ),
}


@pytest.mark.parametrize("name", sorted(KEPT_REFUSALS))
def test_a_kept_refusal_holds_no_partial_curve(name):
    # The 1000-year curve's lists take tens of KB: a kept swap_butterfly refusal used to
    # hold about 26 KB, a kept swap scan or verify refusal about 65 KB (tracemalloc).
    call, message = KEPT_REFUSALS[name]
    retained(*call)  # first calls fill caches the library keeps anyway
    size, error = retained(*call)
    assert str(error).startswith(message)
    assert size < 2048, size
