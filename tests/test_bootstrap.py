"""Bootstrap recursion, its inverse, shifts and shift-response checks."""

import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvekit.bootstrap import (
    BootstrapError,
    ShiftScenario,
    _annuity_triples,
    apply_shift,
    bootstrap,
    check_annuity_bound,
    check_annuity_ratio_decreasing,
    check_parallel_brackets,
    check_parallel_discount_drop,
    shift_response,
    shifted_bootstrap,
    swap_rates_from_discounts,
)
from curvekit.curves import (
    NON_DECREASING_DISCOUNT,
    NON_POSITIVE_DISCOUNT,
    CheckResult,
    DiscountCurve,
    SwapCurve,
    validate,
)
from curvekit.sampling import random_nondecreasing_swap_curve, random_swap_curve
from curvekit.shape import CONCAVE, CONVEX, annuity_point_classification, ratio_monotonicity


def flat(rate: float, n: int) -> SwapCurve:
    return SwapCurve((rate,) * n)


class TestBootstrap:
    def test_flat_curve_closed_form(self):
        curve = bootstrap(flat(0.05, 100))
        for n, p in enumerate(curve.factors, start=1):
            assert p == pytest.approx(1.05 ** (-n), abs=1e-12)

    def test_hand_run_three_years(self):
        curve = bootstrap(flat(0.05, 3))
        assert curve.factors[0] == pytest.approx(1.0 / 1.05, abs=1e-12)
        assert curve.factors[1] == pytest.approx(1.0 / 1.05**2, abs=1e-12)
        assert curve.factors[2] == pytest.approx(1.0 / 1.05**3, abs=1e-12)
        assert curve.annuities[2] == pytest.approx(
            1.0 / 1.05 + 1.0 / 1.05**2 + 1.0 / 1.05**3, abs=1e-12
        )

    def test_front_bump_raises_later_factors(self):
        # Bumping only the one-year rate +10bp lowers p_1 but *raises*
        # every later factor relative to the flat curve.
        base = bootstrap(flat(0.05, 3))
        bumped = bootstrap(SwapCurve((0.051, 0.05, 0.05)))
        assert bumped.factors[0] == pytest.approx(0.9514748, abs=1e-7)
        assert bumped.factors[1] == pytest.approx(0.9070726, abs=1e-7)
        assert bumped.factors[0] < base.factors[0]
        assert bumped.factors[1] > base.factors[1]
        assert bumped.factors[2] > base.factors[2]

    def test_strict_mode_reports_offending_index(self):
        with pytest.raises(BootstrapError) as exc:
            bootstrap(SwapCurve((0.2, 0.001)), strict=True)
        assert exc.value.index == 2
        assert exc.value.kind == NON_DECREASING_DISCOUNT

        with pytest.raises(BootstrapError) as exc:
            bootstrap(SwapCurve((0.001, 0.001, 0.9)), strict=True)
        assert exc.value.index == 3
        assert exc.value.kind == NON_POSITIVE_DISCOUNT

    def test_lenient_mode_returns_factors_for_inspection(self):
        curve = bootstrap(SwapCurve((0.2, 0.001)))
        report = validate(curve)
        assert not report.ok
        assert any(v.index == 2 for v in report.violations)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0))
    @settings(max_examples=150)
    def test_inverse_pair_both_ways(self, n, seed):
        swaps = random_swap_curve(Random(seed), n)
        curve = bootstrap(swaps)
        recovered = swap_rates_from_discounts(curve)
        for a, b in zip(swaps.rates, recovered.rates):
            assert a == pytest.approx(b, abs=1e-12)
        round_tripped = bootstrap(recovered)
        for a, b in zip(curve.factors, round_tripped.factors):
            assert a == pytest.approx(b, abs=1e-12)


class TestSwapRatesFromDiscounts:
    def test_flat_identity(self):
        curve = DiscountCurve(tuple(1.05 ** (-n) for n in range(1, 21)))
        for x in swap_rates_from_discounts(curve).rates:
            assert x == pytest.approx(0.05, abs=1e-12)

    def test_bump_example_inverse(self):
        rates = swap_rates_from_discounts(DiscountCurve((0.9514748, 0.9070726)))
        assert rates.rates[0] == pytest.approx(0.051, abs=1e-7)
        assert rates.rates[1] == pytest.approx(0.05, abs=1e-7)


class TestShifts:
    def test_zero_shift_is_identity(self):
        swaps = flat(0.05, 5)
        shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(0.0))
        assert shifted.factors == bootstrap(swaps).factors

    def test_flat_parallel_stays_flat(self):
        shifted = shifted_bootstrap(flat(0.05, 10), ShiftScenario.parallel(0.001))
        for n, p in enumerate(shifted.factors, start=1):
            assert p == pytest.approx(1.051 ** (-n), abs=1e-12)

    def test_per_tenor_front_bump_sign_pattern(self):
        base = bootstrap(flat(0.05, 3))
        shifted = shifted_bootstrap(
            flat(0.05, 3), ShiftScenario.per_tenor((0.001, 0.0, 0.0))
        )
        assert shifted.factors[0] < base.factors[0]
        assert shifted.factors[1] > base.factors[1]
        assert shifted.factors[2] > base.factors[2]

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ShiftScenario("parallel", amount=None)
        with pytest.raises(ValueError):
            ShiftScenario("sideways", amount=0.01)
        with pytest.raises(ValueError):
            ShiftScenario.per_tenor((0.01,)).amounts_for(3)

    def test_shifted_rates_must_stay_in_range(self):
        with pytest.raises(ValueError):
            apply_shift(flat(0.05, 3), ShiftScenario.parallel(0.96))


def _outcome(build):
    """A built curve's factors and annuities in hex, or the refusal it raised."""
    try:
        curve = build()
    except ValueError as exc:
        detail = (exc.index, exc.kind, exc.value.hex()) if isinstance(exc, BootstrapError) else None
        return type(exc).__name__, str(exc), detail
    return "curve", [p.hex() for p in curve.factors], [a.hex() for a in curve.annuities]


class TestShiftedBootstrapPinning:
    """shifted_bootstrap is bootstrap(apply_shift(...)) without the middle curve."""

    @staticmethod
    def scenarios(rng: Random, n: int):
        # Small moves keep the curve valid, -10% breaks it at year 1, +95%
        # leaves the rate range, and jagged per-tenor moves break it mid-curve.
        for y in (0.0, 0.005, -0.003, -0.1, 0.95):
            yield ShiftScenario.parallel(y)
        for width in (1e-4, 0.02, 0.6):
            yield ShiftScenario.per_tenor(rng.uniform(-width, width) for _ in range(n))

    @pytest.mark.parametrize("n", [3, 20, 100, 1000])
    def test_same_factors_and_refusals_as_apply_shift(self, n):
        rng = Random(f"pin{n}")
        seen = set()
        for swaps in (random_swap_curve(rng, n), random_nondecreasing_swap_curve(rng, n)):
            for scenario in self.scenarios(rng, n):
                want = _outcome(lambda: bootstrap(apply_shift(swaps, scenario)))
                assert _outcome(lambda: shifted_bootstrap(swaps, scenario)) == want
                seen.add(want[0])
                strict = _outcome(lambda: bootstrap(apply_shift(swaps, scenario), strict=True))
                if strict[0] == "BootstrapError":  # the lenient bootstrap returns the curve
                    assert want[0] == "curve"
                    seen.add(strict[0])
        assert seen == {"curve", "ValueError", "BootstrapError"}

    def test_annuities_are_left_to_right_sums(self):
        curve = shifted_bootstrap(random_swap_curve(Random(7), 1000), ShiftScenario.parallel(0.001))
        acc, sums = 0.0, []
        for p in curve.factors:
            acc += p
            sums.append(acc)
        assert [a.hex() for a in curve.annuities] == [a.hex() for a in sums]

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SwapCurve((0.01, float("nan"), float("inf"))), "rates must be finite, got nan"),
            (lambda: DiscountCurve((0.9, float("inf"), float("nan"))), "factors must be finite, got inf"),
            (lambda: SwapCurve((0.01, 1.5, -0.7)), "rates[1] = 1.5 outside"),
            (
                lambda: shifted_bootstrap(
                    SwapCurve((0.01, 0.8, 0.9)), ShiftScenario.parallel(0.25)
                ),
                "rates[1] = 1.05 outside",
            ),
        ],
        ids=["finite-rates", "finite-factors", "rate-range", "shifted-rate-range"],
    )
    def test_two_bad_entries_name_the_first(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


class TestShiftResponseChecks:
    def test_all_pass_on_flat_curve_parallel_rise(self):
        swaps = flat(0.05, 12)
        assert check_annuity_bound(swaps, ShiftScenario.parallel(0.01)).passed
        assert check_parallel_brackets(swaps, 0.01).passed
        assert check_parallel_discount_drop(swaps, 0.01).passed
        assert check_annuity_ratio_decreasing(swaps, 0.01).passed

    def test_annuity_bound_both_signs(self):
        rng = Random(3)
        for _ in range(30):
            swaps = random_swap_curve(rng, rng.randint(2, 40))
            up = ShiftScenario.per_tenor(
                tuple(rng.uniform(0.0, 0.02) for _ in range(len(swaps)))
            )
            down = ShiftScenario.per_tenor(tuple(-a for a in up.amounts))
            assert check_annuity_bound(swaps, up).passed
            assert check_annuity_bound(swaps, down).passed

    def test_annuity_bound_rejects_mixed_signs(self):
        with pytest.raises(ValueError):
            check_annuity_bound(flat(0.05, 3), ShiftScenario.per_tenor((0.01, -0.01, 0.0)))

    def test_bracket_identity_random_curves(self):
        rng = Random(5)
        for _ in range(40):
            swaps = random_swap_curve(rng, rng.randint(1, 50))
            y = rng.choice((0.0001, 0.001, 0.01, 0.05))
            assert check_parallel_brackets(swaps, y).passed

    def test_brackets_strict_from_year_two(self):
        rng = Random(13)
        for _ in range(25):
            swaps = random_swap_curve(rng, rng.randint(2, 50))
            y = rng.choice((0.0001, 0.001, 0.01, 0.05))
            base = bootstrap(swaps)
            shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(y))
            for n in range(2, len(swaps) + 1):
                p_b, a_b = base.factors[n - 1], base.annuities[n - 1]
                p_s, a_s = shifted.factors[n - 1], shifted.annuities[n - 1]
                b1 = p_b / a_b - p_s / a_s
                b2 = 1.0 / a_s - 1.0 / a_b
                assert 0.0 < b1 < y
                assert 0.0 < b2 < y

    def test_bracket_degeneracy_at_year_one(self):
        swaps = random_swap_curve(Random(9), 10)
        y = 0.01
        base = bootstrap(swaps)
        shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(y))
        b1 = base.factors[0] / base.annuities[0] - shifted.factors[0] / shifted.annuities[0]
        b2 = 1.0 / shifted.annuities[0] - 1.0 / base.annuities[0]
        assert b1 == 0.0
        assert b2 == pytest.approx(y, abs=1e-12)

    def test_ordering_chain_from_year_two(self):
        # For a parallel rise y > 0 and every n >= 2:
        # p(y)/P(y) < p/P < 1/P < 1/P(y).
        rng = Random(17)
        for _ in range(25):
            swaps = random_swap_curve(rng, rng.randint(2, 40))
            y = rng.choice((0.001, 0.01, 0.05))
            base = bootstrap(swaps)
            shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(y))
            for n in range(2, len(swaps) + 1):
                pb, ab = base.factors[n - 1], base.annuities[n - 1]
                ps, as_ = shifted.factors[n - 1], shifted.annuities[n - 1]
                assert ps / as_ < pb / ab < 1.0 / ab < 1.0 / as_

    def test_discount_drop_random_curves(self):
        rng = Random(23)
        for _ in range(40):
            swaps = random_swap_curve(rng, rng.randint(1, 50))
            assert check_parallel_discount_drop(swaps, rng.uniform(1e-4, 0.05)).passed

    def test_annuity_ratio_decreasing_random_curves(self):
        rng = Random(29)
        for _ in range(40):
            swaps = random_swap_curve(rng, rng.randint(2, 50))
            assert check_annuity_ratio_decreasing(swaps, rng.uniform(1e-4, 0.05)).passed

    def test_checks_require_positive_y(self):
        swaps = flat(0.05, 4)
        for fn in (
            check_parallel_brackets,
            check_parallel_discount_drop,
            check_annuity_ratio_decreasing,
        ):
            with pytest.raises(ValueError):
                fn(swaps, -0.01)


class TestShiftResponse:
    ROWS = (
        "annuity_bound",
        "bracket_identity",
        "discount_drop",
        "annuity_ratio_decreasing",
        "discount_ratio_monotone",
        "annuity_triples",
    )

    @staticmethod
    def rows(swaps, scenario):
        base = bootstrap(swaps)
        shifted = shifted_bootstrap(swaps, scenario)
        return dict(shift_response(base, shifted, scenario))

    def test_parallel_rise_rows_equal_the_public_checks(self):
        rng = Random(41)
        for _ in range(30):
            swaps = random_nondecreasing_swap_curve(rng, rng.randint(1, 40))
            y = rng.choice((0.0001, 0.001, 0.01))
            rows = self.rows(swaps, ShiftScenario.parallel(y))
            assert tuple(rows) == self.ROWS
            assert rows["annuity_bound"] == check_annuity_bound(
                swaps, ShiftScenario.parallel(y)
            )
            assert rows["bracket_identity"] == check_parallel_brackets(swaps, y)
            assert rows["discount_drop"] == check_parallel_discount_drop(swaps, y)
            assert rows["annuity_ratio_decreasing"] == check_annuity_ratio_decreasing(
                swaps, y
            )

    def test_scenarios_outside_a_hypothesis_skip_its_row(self):
        swaps = flat(0.05, 3)
        mixed = self.rows(swaps, ShiftScenario.per_tenor((0.01, -0.01, 0.0)))
        assert [name for name, r in mixed.items() if r is None] == [
            "annuity_bound",
            "bracket_identity",
            "discount_drop",
            "annuity_ratio_decreasing",
        ]
        fall = self.rows(swaps, ShiftScenario.parallel(-0.01))
        assert fall["annuity_bound"].passed and fall["bracket_identity"] is None
        assert fall["discount_ratio_monotone"].passed
        assert fall["annuity_triples"].passed
        assert self.rows(flat(0.05, 2), ShiftScenario.parallel(0.01))["annuity_triples"] is None

    def test_curves_must_share_one_grid(self):
        with pytest.raises(ValueError):
            shift_response(
                bootstrap(flat(0.05, 4)),
                bootstrap(flat(0.06, 3)),
                ShiftScenario.parallel(0.01),
            )

    def test_wide_triples_inside_the_tolerance_edge_pass(self):
        # Each consecutive annuity-point margin is about 4e-11, inside the
        # 1e-9 classification tolerance, while wide triples such as
        # (1, 2, 10) sum them to a convex margin beyond it.  The consecutive
        # triples decide the check; the strict ratio check keeps the rise.
        base = bootstrap(flat(0.05, 20))
        shifted = DiscountCurve(
            tuple(p * (0.99 + 5e-11 * n) for n, p in enumerate(base.factors, start=1))
        )
        scenario = ShiftScenario.per_tenor(
            x - 0.05 for x in swap_rates_from_discounts(shifted).rates
        )
        rows = dict(shift_response(base, shifted, scenario))
        assert rows["annuity_triples"].passed
        ratio = rows["discount_ratio_monotone"]
        assert ratio == ratio_monotonicity(base, shifted)
        assert not ratio.passed and ratio.first_violation == 1

    @staticmethod
    def reference_annuity_triples(base, shifted, bad_verdict):
        """The triple row as one annuity_point_classification per window."""
        for n in range(1, len(base) - 1):
            idx = (n, n + 1, n + 2)
            cls = annuity_point_classification(base, shifted, idx)
            if cls.verdict == bad_verdict:
                detail = f"triple {idx} classifies {cls.verdict} (margin {cls.margin:.3e})"
                return CheckResult("annuity_triples", False, n, detail)
        return CheckResult("annuity_triples", True)

    def test_annuity_triples_match_the_per_window_classification(self):
        # Sampled curves of every size under rises and falls.  Invalid N=1000
        # bases stop increasing in annuity: a bad verdict before the stall is
        # reported as a failure, a stall first is refused, as per window.
        seen = set()
        for n in (3, 20, 100, 1000):
            rng = Random(f"triples{n}")
            for swaps in (random_swap_curve(rng, n), random_nondecreasing_swap_curve(rng, n)):
                base = bootstrap(swaps)
                for y in (0.01, 0.0001, -0.0001, -0.006):
                    shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(y))
                    bad = CONCAVE if y < 0 else CONVEX
                    outcomes = []
                    for check in (self.reference_annuity_triples, _annuity_triples):
                        try:
                            outcomes.append(check(base, shifted, bad))
                        except ValueError as exc:
                            outcomes.append(str(exc))
                    assert outcomes[0] == outcomes[1], (n, y)
                    result = outcomes[0]
                    seen.add(result if isinstance(result, str) else result.passed)
        assert seen == {True, False, "abscissas must be strictly increasing"}
