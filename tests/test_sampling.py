"""Seeded random curves: valid by construction, and refused arguments; the seeded
verification run over perturbations of a curve."""

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvekit import sampling
from curvekit.bootstrap import (
    ShiftScenario,
    bootstrap,
    shift_response,
    shifted_bootstrap,
    swap_rates_from_discounts,
)
from curvekit.curves import (
    CheckResult,
    DiscountCurve,
    SwapCurve,
    _require_valid,
    _violations,
    forward_rates,
    validate,
)
from curvekit.sampling import (
    perturb_swap_curve,
    random_discount_curve,
    random_nondecreasing_swap_curve,
    random_swap_curve,
    verify_trials,
)

SAMPLERS = [random_discount_curve, random_swap_curve, random_nondecreasing_swap_curve]

BAD_ARGUMENTS = [
    ((0,), "curve length must be at least 1"),
    ((-1,), "curve length must be at least 1"),
    ((5, -0.2, 0.1), "forward bounds must satisfy 0 < f_lo < f_hi"),
    ((5, 0.0, 0.1), "forward bounds must satisfy 0 < f_lo < f_hi"),
    ((5, 0.1, 0.05), "forward bounds must satisfy 0 < f_lo < f_hi"),
    ((5, 0.05, 0.05), "forward bounds must satisfy 0 < f_lo < f_hi"),
]


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("args, message", BAD_ARGUMENTS)
def test_arguments_that_break_validity_are_refused(sampler, args, message):
    # random_nondecreasing_swap_curve used to accept them: with f_lo = -0.2 its
    # curve bootstrapped to factors that fail validation.
    with pytest.raises(ValueError) as exc:
        sampler(Random(1), *args)
    assert str(exc.value) == message


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "args, message",
    [
        ((5, 0.001, math.inf), "f_hi must be finite"),
        ((5, math.nan, 0.1), "f_lo must be finite"),
        ((5.0,), "curve length must be an integer, got 5.0"),
    ],
)
def test_bounds_that_are_not_finite_and_lengths_that_are_not_whole_are_refused(
    sampler, args, message
):
    # With f_hi = inf random_discount_curve returned the factors (0.0,) * 5, which fail
    # validation; a NaN f_lo was refused as unordered bounds; n = 5.0 ended in a TypeError.
    with pytest.raises(ValueError) as exc:
        sampler(Random(1), *args)
    assert str(exc.value) == message


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("n, f_lo, f_hi", [(1, 0.001, 0.12), (30, 0.03, 0.06), (200, 0.001, 0.05)])
def test_curves_are_valid_and_draw_n_uniforms(sampler, n, f_lo, f_hi):
    rng, twin = Random(n), Random(n)
    curve = sampler(rng, n, f_lo, f_hi)
    assert validate(curve if hasattr(curve, "factors") else bootstrap(curve)).ok
    for _ in range(n):
        twin.uniform(f_lo, f_hi)
    assert rng.getstate() == twin.getstate()


def reference_verify(swaps, scenario, trials, seed):
    """The trial loop as cmd_verify ran it before verify_trials: rows by name, each
    as (label, outcome), plus the count of skipped trials."""
    base = _require_valid(bootstrap(swaps), "input curve")
    shifted = _require_valid(shifted_bootstrap(swaps, scenario), "shifted curve")
    rows = {name: ("base", outcome) for name, outcome in shift_response(base, shifted, scenario)}
    forwards = forward_rates(base)
    skipped = 0
    for trial in range(trials):
        rng = Random(f"{seed}:{trial}")
        perturbed = perturb_swap_curve(rng, forwards)
        shifted = shifted_bootstrap(perturbed, scenario)
        if any(_violations(shifted)):
            skipped += 1
            continue  # scenario breaks this perturbation; not a finding
        for name, outcome in shift_response(bootstrap(perturbed), shifted, scenario):
            _, prev = rows[name]
            if prev is not None and not prev.passed:
                continue  # keep the first failure
            if outcome is not None and not outcome.passed:
                rows[name] = (f"trial {trial}", outcome)
    return rows, skipped


def refusal_or_result(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


sampled_curves = st.builds(
    lambda seed, n, f_lo, width: random_swap_curve(Random(seed), n, f_lo, f_lo + width),
    st.integers(0, 10**6),
    st.integers(1, 25),
    st.sampled_from([0.0005, 0.001, 0.0061, 0.02]),
    st.sampled_from([0.005, 0.02, 0.1]),
)
# Par rates drawn directly: some bootstrap to an invalid curve, which both refuse.
drawn_curves = st.lists(st.floats(0.0, 0.3), min_size=1, max_size=12).map(SwapCurve)


@st.composite
def verify_requests(draw):
    """A curve, a shift scenario, a trial count and a seed."""
    swaps = draw(sampled_curves if draw(st.integers(0, 3)) else drawn_curves)
    kind = draw(st.sampled_from(["rise", "fall", "edge", "per_tenor"]))
    if kind == "per_tenor":
        bps = st.lists(st.floats(-100.0, 150.0), min_size=len(swaps), max_size=len(swaps))
        scenario = ShiftScenario.per_tenor([bp * 1e-4 for bp in draw(bps)])
    elif kind == "edge":  # a fall to just above the lowest rate: some trials break
        scenario = ShiftScenario.parallel(-min(swaps.rates) * draw(st.floats(0.6, 0.99)))
    else:
        bp = draw(st.floats(0.0, 200.0) if kind == "rise" else st.floats(-150.0, 0.0))
        scenario = ShiftScenario.parallel(bp * 1e-4)
    return swaps, scenario, draw(st.integers(0, 15)), draw(st.integers(-5, 10**9))


@given(verify_requests())
@settings(max_examples=150, deadline=None)
def test_verify_trials_matches_the_cli_loop_it_replaces(case):
    want = refusal_or_result(reference_verify, *case)
    got = refusal_or_result(verify_trials, *case)
    if isinstance(want, str):
        assert got == want
        return
    rows, skipped = want
    assert [
        (name, "base" if trial is None else f"trial {trial}", repr(outcome))
        for name, trial, outcome in got.rows
    ] == [(name, label, repr(outcome)) for name, (label, outcome) in rows.items()]
    trials = case[2]
    assert (got.evaluated, got.skipped) == (trials - skipped, skipped)
    assert 0 <= got.failed <= got.evaluated


def test_each_row_keeps_its_first_failure_and_failed_counts_trials(monkeypatch):
    # Sampled curves almost never fail in a trial, so the outcomes are scripted.
    ok = CheckResult("check", True)

    def fail(note):
        return CheckResult("check", False, 1, note)

    script = iter(
        [
            [("a", ok), ("b", ok), ("c", None), ("d", fail("base"))],  # the given curve
            [("a", fail("t0")), ("b", ok), ("c", None), ("d", fail("t0"))],
            [("a", fail("t1")), ("b", fail("t1")), ("c", None), ("d", ok)],
            [("a", ok), ("b", ok), ("c", None), ("d", ok)],
            [("a", ok), ("b", fail("t3")), ("c", fail("t3")), ("d", ok)],
        ]
    )
    monkeypatch.setattr(sampling, "shift_response", lambda base, shifted, scenario: next(script))
    report = verify_trials(SwapCurve((0.05,) * 4), ShiftScenario.parallel(0.01), 4, 7)
    assert report.rows == (
        ("a", 0, fail("t0")),
        ("b", 1, fail("t1")),
        ("c", 3, fail("t3")),  # a check outside the hypothesis at first still keeps a failure
        ("d", None, fail("base")),
    )
    assert (report.evaluated, report.skipped, report.failed) == (4, 0, 3)


def test_trials_whose_shifted_curve_breaks_are_skipped_and_counted():
    # Forwards rising from 1 bp above the -60 bp shift: a perturbation that pushes the
    # first forward below 60 bp breaks the shifted curve.
    forwards = [0.0061 + (0.02 - 0.0061) * i / 19 for i in range(20)]
    factors = [1.0]
    for f in forwards:
        factors.append(factors[-1] / (1.0 + f))
    swaps = swap_rates_from_discounts(DiscountCurve(tuple(factors[1:])))
    report = verify_trials(swaps, ShiftScenario.parallel(-0.006), 16, 1)
    assert report.skipped > 0 and report.evaluated > 0
    assert report.evaluated + report.skipped == 16


def test_negative_trial_count_is_refused():
    with pytest.raises(ValueError) as exc:
        verify_trials(SwapCurve((0.05,) * 3), ShiftScenario.parallel(0.01), -1)
    assert str(exc.value) == "trials must be >= 0, got -1"


@pytest.mark.parametrize("trials", [2.0, 1.5, "3", None], ids=repr)
def test_trial_count_that_is_not_whole_is_refused_before_any_bootstrap(monkeypatch, trials):
    # 2.0 used to validate both curves and then fail in range() with a TypeError;
    # "3" failed with a TypeError at the sign check.
    def no_bootstrap(*args):
        raise AssertionError("bootstrapped before the trial count was checked")

    monkeypatch.setattr(sampling, "bootstrap", no_bootstrap)
    monkeypatch.setattr(sampling, "_strict_bootstrap", no_bootstrap)
    with pytest.raises(ValueError) as exc:
        verify_trials(SwapCurve((0.05,) * 3), ShiftScenario.parallel(0.01), trials)
    assert str(exc.value) == f"trials must be an integer, got {trials!r}"


def test_integer_like_trial_counts_are_accepted():
    swaps, scenario = SwapCurve((0.05,) * 4), ShiftScenario.parallel(0.01)
    assert verify_trials(swaps, scenario, True, 3) == verify_trials(swaps, scenario, 1, 3)
    np = pytest.importorskip("numpy")
    assert verify_trials(swaps, scenario, np.int64(2), 3) == verify_trials(swaps, scenario, 2, 3)
