"""Butterfly construction, shift P&L and arbitrage scans."""

import gc
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from records import slot_dict

from curvekit.bootstrap import (
    BootstrapError,
    ShiftScenario,
    apply_shift,
    bootstrap,
    shifted_bootstrap,
)
from curvekit.butterfly import (
    SWAP,
    ZERO_BOND,
    ArbitrageCandidate,
    Butterfly,
    PnlBreakdown,
    nonparallel_safe,
    nonparallel_weights,
    scan_arbitrage,
    swap_butterfly,
    swap_butterfly_pnl,
    zero_butterfly,
    zero_butterfly_pnl,
)
from curvekit.curves import SwapCurve, ZeroCurve, validate, zeros_from_discounts
from curvekit.sampling import (
    random_discount_curve,
    random_nondecreasing_swap_curve,
    random_swap_curve,
)
from curvekit.shape import CLASSIFY_TOL, _margins, classify_triple


# Triples from outside the library that are not three numbers: each is refused naming
# its argument, where it used to end in an unpacking ValueError or a TypeError.
NOT_THREE_NUMBERS = [
    (0.01, 0.02),
    (0.01, 0.02, 0.03, 0.04),
    None,
    0.01,
    "abc",
    (0.01, "0.02", 0.03),
    (0.01, None, 0.03),
    (0.01, 1j, 0.03),
]
NOT_THREE_IDS = ["two", "four", "none", "scalar", "text", "text-item", "none-item", "complex-item"]


class TestZeroButterfly:
    def test_unit_spacing_weights(self):
        assert zero_butterfly(1, 2, 3).weights == (1.0, 2.0, 1.0)

    def test_uneven_spacing_weights(self):
        assert zero_butterfly(2, 5, 10).weights == (5.0, 8.0, 3.0)

    def test_normalized_weights_have_unit_middle(self):
        fly = zero_butterfly(2, 5, 10)
        w1, w2, w3 = fly.normalized_weights()
        assert w2 == 1.0
        assert w1 == pytest.approx(5.0 / 8.0, abs=1e-15)
        assert w3 == pytest.approx(3.0 / 8.0, abs=1e-15)

    @given(
        t1=st.floats(0.1, 10.0),
        gap1=st.floats(0.1, 10.0),
        gap2=st.floats(0.1, 10.0),
    )
    @settings(max_examples=200)
    def test_construction_identities(self, t1, gap1, gap2):
        t2, t3 = t1 + gap1, t1 + gap1 + gap2
        w1, w2, w3 = zero_butterfly(t1, t2, t3).weights
        assert w1 > 0 and w2 > 0 and w3 > 0
        assert w1 + w3 == w2  # exact by construction
        assert w1 * t1 + w3 * t3 == pytest.approx(w2 * t2, rel=1e-12)

    def test_ordering_violations(self):
        for bad in ((2, 1, 3), (1, 1, 3), (0, 1, 2), (-1, 1, 2)):
            with pytest.raises(ValueError):
                zero_butterfly(*bad)

    def test_hand_built_legs_that_are_not_finite_are_refused(self):
        # Legs (1.0, 2.0, inf) are in order, and were reported as an overflow of the value.
        fly = Butterfly(ZERO_BOND, (1.0, 2.0, math.inf), (math.inf, math.inf, 1.0))
        with pytest.raises(ValueError) as exc:
            zero_butterfly_pnl(fly, (0.01, 0.02, 0.03), 0.01, 0.5)
        assert str(exc.value) == "maturities must satisfy 0 < t1 < t2 < t3, got (1.0, 2.0, inf)"


class TestZeroButterflyPnl:
    @pytest.mark.parametrize("yields", NOT_THREE_NUMBERS, ids=NOT_THREE_IDS)
    def test_yields_that_are_not_three_numbers_are_refused(self, yields):
        with pytest.raises(ValueError) as exc:
            zero_butterfly_pnl(zero_butterfly(1, 2, 3), yields, 0.01, 0.5)
        assert str(exc.value) == f"yields must be three numbers, got {yields!r}"

    @pytest.mark.parametrize("weights", NOT_THREE_NUMBERS, ids=NOT_THREE_IDS)
    def test_hand_built_weights_that_are_not_three_numbers_are_refused(self, weights):
        fly = Butterfly(ZERO_BOND, (1.0, 2.0, 3.0), weights)
        with pytest.raises(ValueError) as exc:
            zero_butterfly_pnl(fly, (0.02, 0.03, 0.04), 0.01, 0.5)
        assert str(exc.value) == f"weights must be three numbers, got {weights!r}"

    @pytest.mark.parametrize(
        "shift",
        [math.nan, math.inf, -math.inf, 10**400, -(10**400)],
        ids=["nan", "inf", "-inf", "int-beyond-float", "-int-beyond-float"],
    )
    def test_a_shift_that_is_not_finite_is_refused(self, shift):
        # A NaN shift was reported as an overflow "at shift nan"; +inf valued to 0.0.
        with pytest.raises(ValueError) as exc:
            zero_butterfly_pnl(zero_butterfly(1, 2, 3), (0.01, 0.02, 0.03), shift, 0.5)
        assert str(exc.value) == "shift amount must be finite"

    @pytest.mark.parametrize(
        "yields",
        [
            (math.nan, 0.02, 0.03),
            (0.01, math.inf, 0.03),
            (0.01, 0.02, -math.inf),
            [0.01, 0.02, 10**400],
        ],
        ids=["nan", "inf", "-inf", "int-beyond-float"],
    )
    def test_yields_that_are_not_finite_are_refused(self, yields):
        # A NaN yield was reported as "butterfly value overflows at shift 0.01".
        fly = zero_butterfly(1, 2, 3)
        for horizon in (0.0, 0.5):
            with pytest.raises(ValueError) as exc:
                zero_butterfly_pnl(fly, yields, 0.01, horizon)
            assert str(exc.value) == f"yields must be finite, got {yields!r}"
        with pytest.raises(ValueError) as exc:
            zero_butterfly_pnl(fly, yields, math.nan, 0.5)
        assert str(exc.value) == "shift amount must be finite"

    @pytest.mark.parametrize("weights", [(math.nan, 2.0, 1.0), (1.0, 2.0, math.inf)])
    def test_hand_built_weights_that_are_not_finite_are_refused(self, weights):
        # A NaN weight was reported as "butterfly value overflows at shift 0.01".
        fly = Butterfly(ZERO_BOND, (1.0, 2.0, 3.0), weights)
        with pytest.raises(ValueError) as exc:
            zero_butterfly_pnl(fly, (0.01, 0.02, 0.03), 0.01, 0.5)
        assert str(exc.value) == f"weights must be finite, got {weights!r}"

    @pytest.mark.parametrize("shift", ["0.01", None])
    def test_a_shift_that_is_not_a_number_is_refused(self, shift):
        # It ended in a TypeError from abs().
        with pytest.raises(ValueError) as exc:
            zero_butterfly_pnl(zero_butterfly(1, 2, 3), (0.01, 0.02, 0.03), shift, 0.5)
        assert str(exc.value) == f"shift amount must be a number, got {shift!r}"

    def test_yields_of_any_number_type_value_as_floats(self):
        fly = zero_butterfly(1, 2, 3)
        want = zero_butterfly_pnl(fly, (0.02, 0.03, 1.0), 0.01, 0.5)
        assert zero_butterfly_pnl(fly, [Fraction(1, 50), 0.03, 1], 0.01, 0.5) == want

    def test_inception_value_is_exactly_zero(self):
        fly = zero_butterfly(1, 5, 30)
        assert zero_butterfly_pnl(fly, (0.02, 0.03, 0.04), 0.0, 0.0) == 0.0

    def test_spot_value_oracle(self):
        fly = zero_butterfly(1, 2, 3)
        value = zero_butterfly_pnl(fly, (0.02, 0.03, 0.04), 0.01, 0.0)
        expected = math.exp(-0.01) + math.exp(-0.03) - 2.0 * math.exp(-0.02)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(9.802e-5, abs=1e-8)

    def test_convex_yields_profit_on_a_grid(self):
        fly = zero_butterfly(1, 2, 3)
        yields = (0.02, 0.025, 0.04)  # convex: margin 0.01
        for step in range(-20, 21):
            a = step * 0.0025
            for t in (0.0, 0.25, 0.5, 1.0):
                value = zero_butterfly_pnl(fly, yields, a, t)
                assert value >= -1e-12
                if a != 0.0:
                    assert value > 0.0

    def test_affine_yields_nonnegative_with_interior_zero(self):
        # With affine yields the value is zero not only at a = 0 but also
        # at the coincidence a = t * (y3 - y1) / (t3 - t1), where the
        # convexity bound is tight; it stays non-negative everywhere.
        fly = zero_butterfly(1, 2, 3)
        yields = (0.02, 0.03, 0.04)
        for t in (0.25, 0.5, 1.0):
            coincidence = t * (yields[2] - yields[0]) / 2.0
            at_zero = zero_butterfly_pnl(fly, yields, coincidence, t)
            assert abs(at_zero) <= 1e-12
            for a in (-0.05, -0.01, 0.0, 0.004, 0.02, 0.05):
                assert zero_butterfly_pnl(fly, yields, a, t) >= -1e-12

    def test_horizon_limits(self):
        fly = zero_butterfly(1, 2, 3)
        with pytest.raises(ValueError):
            zero_butterfly_pnl(fly, (0.02, 0.03, 0.04), 0.0, 1.5)
        with pytest.raises(ValueError):
            zero_butterfly_pnl(fly, (0.02, 0.03, 0.04), 0.0, -0.1)

    def test_kind_checked(self):
        swap_fly = swap_butterfly(SwapCurve((0.05,) * 3), (1, 2, 3))
        with pytest.raises(ValueError):
            zero_butterfly_pnl(swap_fly, (0.02, 0.03, 0.04), 0.0, 0.0)

    @pytest.mark.parametrize(
        "legs",
        [
            (5.0, 2.0, 9.0),
            (1.0, 1.0, 2.0),
            (0.0, 1.0, 2.0),
            (1.0, math.nan, 3.0),
            ("1", 2, 3),
            (None, 2.0, 3.0),
            (1.0, 2.0),
            (1.0, 2.0, 3.0, 4.0),
            None,
            5.0,
        ],
    )
    def test_hand_built_legs_out_of_order_are_refused(self, legs):
        # (5.0, 2.0, 9.0) used to price without complaint; legs that are not three
        # numbers ended in a TypeError or an unpacking message.
        fly = Butterfly(ZERO_BOND, legs, (7.0, 4.0, -3.0))
        with pytest.raises(ValueError) as exc:
            zero_butterfly_pnl(fly, (0.02, 0.03, 0.04), 0.01, 0.0)
        assert str(exc.value) == f"maturities must satisfy 0 < t1 < t2 < t3, got {legs}"

    @given(
        a=st.floats(-0.05, 0.05),
        t=st.floats(0.0, 1.0),
        y1=st.floats(0.005, 0.08),
        y2=st.floats(0.005, 0.08),
        y3=st.floats(0.005, 0.08),
    )
    @settings(max_examples=200)
    def test_value_matches_unit_count_repricing(self, a, t, y1, y2, y3):
        # Independent oracle: buy w dollars of each bond at its spot price,
        # then revalue the held units at the moved yields -- two exps and a
        # division per leg instead of the single folded exponential.
        fly = zero_butterfly(1.5, 3.0, 7.0)
        yields = (y1, y2, y3)

        def repriced(w, maturity, y):
            units = w / math.exp(-y * maturity)
            return units * math.exp(-(y + a) * (maturity - t))

        w1, w2, w3 = fly.weights
        t1, t2, t3 = fly.legs
        oracle = (
            repriced(w1, t1, y1) + repriced(w3, t3, y3) - repriced(w2, t2, y2)
        )
        value = zero_butterfly_pnl(fly, yields, a, t)
        assert value == pytest.approx(oracle, abs=1e-12)


class TestNonparallelWeights:
    @pytest.mark.parametrize("value", NOT_THREE_NUMBERS, ids=NOT_THREE_IDS)
    @pytest.mark.parametrize("name", ["moves", "maturities"])
    def test_triples_that_are_not_three_numbers_are_refused(self, name, value):
        args = {"moves": (0.01, 0.01, 0.02), "maturities": (1.0, 2.0, 3.0), name: value}
        with pytest.raises(ValueError) as exc:
            nonparallel_weights(**args)
        assert str(exc.value) == f"{name} must be three numbers, got {value!r}"

    def test_equal_moves_recover_butterfly_weights(self):
        assert nonparallel_weights((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)) == (1.0, 2.0, 1.0)

    def test_hand_value(self):
        w = nonparallel_weights((0.01, 0.01, 0.02), (1.0, 2.0, 3.0))
        assert w[0] == pytest.approx(0.04, abs=1e-15)
        assert w[1] == pytest.approx(0.05, abs=1e-15)
        assert w[2] == pytest.approx(0.01, abs=1e-15)

    def test_violating_order_raises(self):
        with pytest.raises(ValueError):
            nonparallel_weights((0.03, 0.01, 0.01), (1.0, 2.0, 3.0))

    def test_weights_whose_sum_overflows_are_refused(self):
        # Finite moves whose weights sum beyond float range; non-finite moves are
        # refused as such (tests/test_args.py).
        with pytest.raises(ValueError, match="moves must satisfy a1\\*T1 < a2\\*T2 < a3\\*T3"):
            nonparallel_weights((0.0, 1e308, 1e308), (1.0, 2.0, 3.0))

    @given(c=st.floats(0.001, 0.05), t1=st.floats(0.5, 5.0), g=st.floats(0.5, 5.0))
    @settings(max_examples=200)
    def test_common_move_degenerates_to_butterfly_weights(self, c, t1, g):
        t2, t3 = t1 + g, t1 + 2 * g
        scaled = nonparallel_weights((c, c, c), (t1, t2, t3))
        base = zero_butterfly(t1, t2, t3).weights
        for s, b in zip(scaled, base):
            assert s == pytest.approx(c * b, rel=1e-12)


class TestNonparallelSafe:
    @pytest.mark.parametrize("value", NOT_THREE_NUMBERS, ids=NOT_THREE_IDS)
    @pytest.mark.parametrize("name", ["weights", "maturities", "yields", "moves"])
    def test_triples_that_are_not_three_numbers_are_refused(self, name, value):
        fly = zero_butterfly(1, 2, 3)
        args = {
            "weights": fly.weights,
            "maturities": fly.legs,
            "yields": (0.02, 0.025, 0.04),
            "moves": (0.01, 0.01, 0.01),
            name: value,
        }
        with pytest.raises(ValueError) as exc:
            nonparallel_safe(**args)
        assert str(exc.value) == f"{name} must be three numbers, got {value!r}"

    def test_parallel_moves_convex_yields_pass(self):
        fly = zero_butterfly(1, 2, 3)
        result = nonparallel_safe(
            fly.weights, fly.legs, (0.02, 0.025, 0.04), (0.01, 0.01, 0.01)
        )
        assert result.passed
        assert result.shifted_yield_margin > 0

    def test_affine_yields_parallel_moves_sit_on_the_boundary(self):
        fly = zero_butterfly(1, 2, 3)
        result = nonparallel_safe(
            fly.weights, fly.legs, (0.02, 0.03, 0.04), (0.01, 0.01, 0.01)
        )
        assert result.passed
        assert result.shifted_yield_margin == pytest.approx(0.0, abs=1e-15)
        assert result.instantaneous_margin == pytest.approx(0.0, abs=1e-15)

    def test_concave_yields_fail_with_negative_margin(self):
        fly = zero_butterfly(1, 2, 3)
        result = nonparallel_safe(
            fly.weights, fly.legs, (0.02, 0.035, 0.04), (0.005, 0.005, 0.005)
        )
        assert not result.passed
        assert result.shifted_yield_margin == pytest.approx(-0.01, abs=1e-12)
        assert result.binding_margin == result.shifted_yield_margin

    def test_weight_preconditions(self):
        with pytest.raises(ValueError):
            nonparallel_safe((1.0, 3.0, 1.0), (1, 2, 3), (0.02,) * 3, (0.0,) * 3)
        with pytest.raises(ValueError):
            nonparallel_safe((-1.0, 0.0, 1.0), (1, 2, 3), (0.02,) * 3, (0.0,) * 3)

    def test_shifted_yields_must_stay_in_range(self):
        fly = zero_butterfly(1, 2, 3)
        with pytest.raises(ValueError):
            nonparallel_safe(fly.weights, fly.legs, (0.9, 0.9, 0.9), (0.2, 0.2, 0.2))

    def test_weights_whose_sum_overflows_are_refused(self):
        # Non-finite weights are refused as such (tests/test_args.py); finite ones
        # whose outer sum leaves float range cannot satisfy w1 + w3 = w2.
        with pytest.raises(ValueError, match="weights must satisfy w1 \\+ w3 = w2"):
            nonparallel_safe((1e308, 1.7e308, 1e308), (1, 2, 3), (0.02, 0.025, 0.04), (0.01,) * 3)


class TestSwapButterfly:
    def test_flat_curve_weights_from_annuities(self):
        fly = swap_butterfly(SwapCurve((0.05,) * 3), (1, 2, 3))
        assert fly.weights[0] == pytest.approx(0.8638376, abs=1e-7)
        assert fly.weights[1] == pytest.approx(1.7708671, abs=1e-7)
        assert fly.weights[2] == pytest.approx(0.9070295, abs=1e-7)
        assert fly.base_annuities[0] == pytest.approx(1.0 / 1.05, abs=1e-10)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100)
    def test_weight_telescoping_exact(self, seed):
        rng = Random(seed)
        n = rng.randint(3, 30)
        swaps = random_swap_curve(rng, n)
        legs = sorted(rng.sample(range(1, n + 1), 3))
        w1, w2, w3 = swap_butterfly(swaps, tuple(legs)).weights
        assert w1 + w3 == w2

    def test_bad_indices(self):
        # Legs that are not whole years used to end in a TypeError at the annuity lookup.
        swaps = SwapCurve((0.05,) * 3)
        whole = ((2, 2, 3), (0, 1, 2), (1, 3, 2), (1, 2, 9))
        # Legs that are not three numbers ended in a TypeError or an unpacking message.
        malformed = (("1", 2, 3), (None, 2, 3), None, 5, (1, 2), (1, 2, 3, 4))
        floats = ((1.0, 2.0, 3.0), (1.5, 2, 3), (1, 2, 2.5), (1, Fraction(2), 3))
        for bad in (*whole, *floats, *malformed):
            with pytest.raises(ValueError) as exc:
                swap_butterfly(swaps, bad)
            assert str(exc.value) == f"need 1 <= n < m < k <= 3, got {bad}"

    def test_integer_like_legs_are_accepted_as_ints(self):
        np = pytest.importorskip("numpy")
        swaps = SwapCurve((0.02, 0.025, 0.03, 0.035))
        want = swap_butterfly(swaps, (1, 2, 4))
        for legs in [(np.int64(1), np.int32(2), np.uint8(4)), (True, 2, 4)]:
            fly = swap_butterfly(swaps, legs)
            assert fly == want and all(type(leg) is int for leg in fly.legs)

    def test_invalid_curve_propagates_bootstrap_error(self):
        with pytest.raises(BootstrapError):
            swap_butterfly(SwapCurve((0.2, 0.001, 0.001)), (1, 2, 3))


class Year:
    """A whole year that is not an int, as numpy's integers are: it has __index__."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n

    def __repr__(self):
        return f"Year({self.n})"


class TestSwapButterflyPnl:
    def test_legs_that_are_whole_by_index_are_priced(self):
        # Legs (numpy.int64(1), 2, 3) were refused although swap_butterfly takes them.
        swaps = SwapCurve((0.02, 0.025, 0.03, 0.035))
        fly = swap_butterfly(swaps, (Year(1), 2, Year(3)))
        assert fly == swap_butterfly(swaps, (1, 2, 3))
        hand_built = Butterfly(SWAP, (Year(1), 2, Year(3)), fly.weights, fly.base_annuities)
        assert swap_butterfly_pnl(hand_built, swaps, 0.01, 0.5) == swap_butterfly_pnl(
            fly, swaps, 0.01, 0.5
        )

    @pytest.mark.parametrize("weights", NOT_THREE_NUMBERS, ids=NOT_THREE_IDS)
    def test_hand_built_weights_that_are_not_three_numbers_are_refused(self, weights):
        swaps = SwapCurve((0.02, 0.025, 0.03, 0.035))
        hand_built = Butterfly(SWAP, (1, 2, 3), weights, (1.0, 2.0, 3.0))
        with pytest.raises(ValueError) as exc:
            swap_butterfly_pnl(hand_built, swaps, 0.01, 0.5)
        assert str(exc.value) == f"weights must be three numbers, got {weights!r}"

    @pytest.mark.parametrize(
        "shift", [10**400, -(10**400)], ids=["int-beyond-float", "-int-beyond-float"]
    )
    def test_a_shift_beyond_float_range_is_refused(self, shift):
        # float(10**400) let an OverflowError escape.
        swaps = SwapCurve((0.02, 0.025, 0.035))
        fly = swap_butterfly(swaps, (1, 2, 3))
        with pytest.raises(ValueError) as exc:
            swap_butterfly_pnl(fly, swaps, shift, 0.5)
        assert str(exc.value) == "shift amount must be finite"

    @pytest.mark.parametrize("shift", ["0.01", None])
    def test_a_shift_that_is_not_a_number_is_refused(self, shift):
        # It ended in a TypeError from abs().
        swaps = SwapCurve((0.02, 0.025, 0.035))
        fly = swap_butterfly(swaps, (1, 2, 3))
        with pytest.raises(ValueError) as exc:
            swap_butterfly_pnl(fly, swaps, shift, 0.5)
        assert str(exc.value) == f"shift amount must be a number, got {shift!r}"

    def test_hand_built_weights_that_are_not_finite_are_refused(self):
        swaps = SwapCurve((0.02, 0.025, 0.035))
        hand_built = Butterfly(SWAP, (1, 2, 3), (math.nan, 2.0, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError) as exc:
            swap_butterfly_pnl(hand_built, swaps, 0.01, 0.5)
        assert str(exc.value) == "weights must be finite, got (nan, 2.0, 1.0)"

    def test_whole_legs_past_the_curve_are_refused(self):
        swaps = SwapCurve((0.02, 0.025, 0.03, 0.035))
        hand_built = Butterfly(SWAP, (Year(1), 2, Year(5)), (1.0, 2.0, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError) as exc:
            swap_butterfly_pnl(hand_built, swaps, 0.01, 0.5)
        assert str(exc.value) == "curve is shorter than the butterfly's last leg"

    def test_flat_curve_carry_is_exactly_zero(self):
        for legs in ((1, 2, 3), (1, 3, 4), (2, 3, 4)):
            swaps = SwapCurve((0.05,) * 4)
            fly = swap_butterfly(swaps, legs)
            pnl = swap_butterfly_pnl(fly, swaps, 0.002, 1.0)
            assert pnl.carry == 0.0

    def test_zero_shift_no_mark_to_market(self):
        swaps = SwapCurve((0.02, 0.03, 0.035))
        fly = swap_butterfly(swaps, (1, 2, 3))
        pnl = swap_butterfly_pnl(fly, swaps, 0.0, 0.5)
        assert pnl.mark_to_market == 0.0
        assert pnl.total == pnl.carry

    def test_increasing_curve_instantaneous_example(self):
        swaps = SwapCurve((0.02, 0.03, 0.035))
        fly = swap_butterfly(swaps, (1, 2, 3))
        pnl = swap_butterfly_pnl(fly, swaps, 0.005, 0.0)
        assert pnl.carry == 0.0
        assert pnl.mark_to_market >= 0.0
        assert pnl.total == pnl.carry + pnl.mark_to_market

    def test_carry_equals_rate_margin_on_annuity_axis(self):
        # The carry per unit horizon is bit-identical to the convexity
        # margin of (annuity, swap rate) points: same weights, same ops.
        swaps = SwapCurve((0.02, 0.025, 0.035))
        curve = bootstrap(swaps)
        fly = swap_butterfly(swaps, (1, 2, 3))
        pnl = swap_butterfly_pnl(fly, swaps, 0.001, 1.0)
        margin = classify_triple(
            tuple(zip(curve.annuities, swaps.rates))
        ).margin
        assert pnl.carry == margin

    def test_convex_triple_carry_positive_mtm_bounded(self):
        swaps = SwapCurve((0.02, 0.025, 0.035))
        fly = swap_butterfly(swaps, (1, 2, 3))
        for bp in (-100, -10, -1, 1, 10, 100):
            pnl = swap_butterfly_pnl(fly, swaps, bp * 1e-4, 1.0)
            assert pnl.carry > 0.0
            assert pnl.mark_to_market >= -1e-12

    def test_remaining_annuities(self):
        swaps = SwapCurve((0.02, 0.025, 0.035))
        fly = swap_butterfly(swaps, (1, 2, 3))
        shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(0.001))
        instant = swap_butterfly_pnl(fly, swaps, 0.001, 0.0)
        assert instant.remaining_annuities == tuple(shifted.annuities[:3])
        later = swap_butterfly_pnl(fly, swaps, 0.001, 0.5)
        for a, b in zip(later.remaining_annuities, shifted.annuities[:3]):
            assert a == pytest.approx(b - 0.5 * shifted.factors[0], abs=1e-15)

    def test_horizon_and_kind_validation(self):
        swaps = SwapCurve((0.02, 0.025, 0.035))
        fly = swap_butterfly(swaps, (1, 2, 3))
        with pytest.raises(ValueError):
            swap_butterfly_pnl(fly, swaps, 0.0, 1.5)
        zero_fly = zero_butterfly(1, 2, 3)
        with pytest.raises(ValueError):
            swap_butterfly_pnl(zero_fly, swaps, 0.0, 0.0)

    @pytest.mark.parametrize(
        "legs",
        [
            (0, 2, 3),
            (3, 2, 5),
            (2, 2, 3),
            (1.0, 2.0, 3.0),
            (1, 2, 3.0),
            (1, 2.5, 3),
            ("1", 2, 3),
            (None, 2, 3),
            (1, 2),
            (1, 2, 3, 4),
            None,
            5,
        ],
    )
    def test_hand_built_legs_off_the_grid_are_refused(self, legs):
        # (0, 2, 3) used to price year 10 as its first leg, (3, 2, 5) its legs out of
        # order, float legs ended in a TypeError, and so did legs that are not three,
        # or gave an unpacking message.
        swaps = random_swap_curve(Random(4), 10)
        fly = Butterfly(SWAP, legs, (1.0, 2.0, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError) as exc:
            swap_butterfly_pnl(fly, swaps, 0.001, 0.5)
        assert str(exc.value) == f"need 1 <= n < m < k <= 10, got {legs}"

    def test_legs_past_the_curve_are_refused(self):
        fly = swap_butterfly(random_swap_curve(Random(4), 10), (2, 5, 9))
        with pytest.raises(ValueError) as exc:
            swap_butterfly_pnl(fly, random_swap_curve(Random(4), 8), 0.001, 0.5)
        assert str(exc.value) == "curve is shorter than the butterfly's last leg"

    def test_instantaneous_mtm_matches_cashflow_repricing(self):
        # Independent oracle: reprice each received-fixed leg from raw
        # discounted cashflows on the shifted curve (coupons + notional
        # against a par floating leg), not via the shift-times-annuity
        # shortcut the implementation uses.
        rng = Random(41)
        tested = 0
        for _ in range(60):
            n_tenors = rng.randint(3, 25)
            swaps = random_swap_curve(rng, n_tenors, f_lo=0.03)
            legs = tuple(sorted(rng.sample(range(1, n_tenors + 1), 3)))
            fly = swap_butterfly(swaps, legs)
            y = rng.choice((-0.01, -0.001, 0.001, 0.01, 0.03))
            shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(y))
            if not validate(shifted).ok:
                continue  # shift too harsh for this draw; strict pnl would refuse
            tested += 1

            def leg_value(i):
                coupons = swaps.rates[i - 1] * shifted.annuities[i - 1]
                notional = shifted.factors[i - 1]
                return coupons + notional - 1.0

            w1, w2, w3 = fly.weights
            oracle = (
                w1 * leg_value(legs[0])
                + w3 * leg_value(legs[2])
                - w2 * leg_value(legs[1])
            )
            pnl = swap_butterfly_pnl(fly, swaps, y, 0.0)
            assert pnl.mark_to_market == pytest.approx(oracle, abs=1e-12)
        assert tested >= 30


def reference_swap_pnl(fly, swaps, shift, horizon):
    """The P&L through the public scenario, shifted curve and strict bootstrap."""
    n, m, k = fly.legs
    w1, w2, w3 = fly.weights
    x = swaps.rates
    carry = horizon * (w1 * (x[n - 1] - x[m - 1]) + w3 * (x[k - 1] - x[m - 1]))
    shifted = bootstrap(apply_shift(swaps, ShiftScenario.parallel(shift)), strict=True)
    elapsed = horizon * shifted.factors[0]
    remaining = tuple(shifted.annuities[i - 1] - elapsed for i in (n, m, k))
    mark = -shift * w1 * remaining[0] - shift * w3 * remaining[2] + shift * w2 * remaining[1]
    return PnlBreakdown(carry, mark, carry + mark, remaining)


def pnl_outcome(fly, swaps, shift, horizon, pnl=swap_butterfly_pnl):
    """A P&L by type, repr and float.hex of every number, or the refusal it raised."""
    try:
        p = pnl(fly, swaps, shift, horizon)
    except ValueError as exc:
        fields = [getattr(exc, a, None) for a in ("index", "kind", "value")]
        return type(exc), str(exc), repr(fields)
    numbers = (p.carry, p.mark_to_market, p.total, *p.remaining_annuities)
    return type(p), repr(p), [v.hex() for v in numbers]


# The library-scale P&L shift grid, in decimals.
PNL_SHIFTS = tuple(bp * 1e-4 for bp in range(-50, 51, 10))


class TestSwapButterflyPnlPinning:
    # The P&L reads the strict recursion's annuities directly; the reference
    # goes through the public scenario, shifted curve and strict bootstrap.
    @pytest.mark.parametrize("n", [3, 20, 100, 1000])
    def test_matches_the_shifted_bootstrap_formula(self, n):
        # At n=1000 only low forwards keep the base curve valid, and every
        # rise of the grid drives a long factor negative: both outcomes occur.
        f_lo, f_hi = (0.01, 0.02) if n == 1000 else (0.03, 0.06)
        outcomes = set()
        for seed in (1, 2):
            swaps = random_nondecreasing_swap_curve(Random(seed), n, f_lo, f_hi)
            fly = swap_butterfly(swaps, (n // 4, n // 2, 3 * n // 4) if n > 3 else (1, 2, 3))
            for shift in (*PNL_SHIFTS, 3e-4):
                for horizon in (0.0, 0.5, 1.0):
                    got = pnl_outcome(fly, swaps, shift, horizon)
                    assert got == pnl_outcome(fly, swaps, shift, horizon, reference_swap_pnl)
                    outcomes.add(got[0])
        assert outcomes == ({PnlBreakdown, BootstrapError} if n == 1000 else {PnlBreakdown})

    @pytest.mark.parametrize(
        "shift, message",
        [
            (math.nan, "shift amount must be finite"),
            (math.inf, "shift amount must be finite"),
            (-math.inf, "shift amount must be finite"),
            (0.97, "rates[2] = 1.005 outside the supported range (-0.5, 1.0)"),
            (-0.53, "rates[0] = -0.51 outside the supported range (-0.5, 1.0)"),
        ],
    )
    def test_refusals_match_the_shifted_bootstrap(self, shift, message):
        swaps = SwapCurve((0.02, 0.025, 0.035))
        fly = swap_butterfly(swaps, (1, 2, 3))
        got = pnl_outcome(fly, swaps, shift, 0.5)
        assert got == pnl_outcome(fly, swaps, shift, 0.5, reference_swap_pnl)
        assert got[:2] == (ValueError, message)

    def test_invalid_factor_refusal_matches_the_shifted_bootstrap(self):
        # Float par rates of this n=1000 curve bootstrap to a factor that
        # stops decreasing in the long end.
        swaps = random_nondecreasing_swap_curve(Random(1), 1000, 0.03, 0.06)
        fly = swap_butterfly(SwapCurve(swaps.rates[:100]), (25, 50, 75))
        for shift in PNL_SHIFTS:
            got = pnl_outcome(fly, swaps, shift, 0.5)
            assert got == pnl_outcome(fly, swaps, shift, 0.5, reference_swap_pnl)
            assert got[0] is BootstrapError

    def test_a_rate_out_of_range_is_refused_before_an_earlier_invalid_factor(self):
        # Shifted by +5%, year 2's factor stops decreasing before rates[3] leaves the
        # range: the single pass stops at year 2, and the range refusal still wins.
        swaps = SwapCurve((0.2, 0.001, 0.001, 0.97))
        fly = Butterfly(SWAP, (1, 2, 3), (1.0, 2.0, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(BootstrapError) as exc:
            bootstrap(SwapCurve([r + 0.05 for r in swaps.rates[:3]]), strict=True)
        assert exc.value.index == 2
        got = pnl_outcome(fly, swaps, 0.05, 0.5)
        assert got == pnl_outcome(fly, swaps, 0.05, 0.5, reference_swap_pnl)
        assert got[:2] == (ValueError, "rates[3] = 1.02 outside the supported range (-0.5, 1.0)")

    def test_matches_the_reference_on_sampled_curves(self):
        outcomes = set()

        @given(
            seed=st.integers(0, 10_000),
            n=st.integers(3, 300),
            shift=st.floats(-0.6, 1.1),
            horizon=st.sampled_from((0.0, 0.5, 1.0)),
        )
        @settings(max_examples=150, deadline=None)
        def check(seed, n, shift, horizon):
            rng = Random(seed)
            swaps = random_nondecreasing_swap_curve(rng, n, 0.01, 0.06)
            fly = swap_butterfly(swaps, tuple(sorted(rng.sample(range(1, n + 1), 3))))
            got = pnl_outcome(fly, swaps, shift, horizon)
            assert got == pnl_outcome(fly, swaps, shift, horizon, reference_swap_pnl)
            outcomes.add(got[0])

        check()
        assert outcomes == {PnlBreakdown, BootstrapError, ValueError}

    @pytest.mark.parametrize("n", [3, 20, 100, 1000])
    def test_swap_butterfly_matches_the_strict_bootstrap(self, n):
        # At n=1000 the float par rates of random_swap_curve bootstrap to an invalid
        # factor, and only low forwards keep a sampled curve valid.
        outcomes = set()
        rng = Random(n)
        curves = [random_swap_curve(rng, n) for _ in range(3)]
        curves += [random_nondecreasing_swap_curve(rng, n, 0.01, 0.02) for _ in range(3)]
        for swaps in curves:
            legs = tuple(sorted(rng.sample(range(1, n + 1), 3)))
            try:
                annuities = bootstrap(swaps, strict=True).annuities
            except BootstrapError as want:
                with pytest.raises(BootstrapError) as exc:
                    swap_butterfly(swaps, legs)
                got = exc.value
                assert (str(got), got.index, got.kind, got.value.hex()) == (
                    str(want), want.index, want.kind, want.value.hex()
                )
                outcomes.add(BootstrapError)
                continue
            a_n, a_m, a_k = (annuities[i - 1] for i in legs)
            fly = swap_butterfly(swaps, legs)
            assert [v.hex() for v in fly.base_annuities] == [a.hex() for a in (a_n, a_m, a_k)]
            want = (a_k - a_m, (a_k - a_m) + (a_m - a_n), a_m - a_n)
            assert [v.hex() for v in fly.weights] == [w.hex() for w in want]
            outcomes.add(Butterfly)
        assert outcomes == ({Butterfly, BootstrapError} if n == 1000 else {Butterfly})


def antisymmetric_zero_curve(n=15, seed=6):
    """Linear yields plus jitter antisymmetric about the middle tenor.

    Mirror-image triples have opposite margins, and many margins tie
    exactly, so the scan's order among them falls to the indices.
    """
    rng = Random(seed)
    half = [rng.uniform(-2.5e-4, 2.5e-4) for _ in range(n // 2)]
    noise = half + [0.0] * (n % 2) + [-e for e in reversed(half)]
    tenors = tuple(float(t) for t in range(1, n + 1))
    return ZeroCurve(tenors, tuple(0.02 + 0.001 * t + e for t, e in zip(tenors, noise)))


SCAN_CURVES = {
    "zero-sampled": lambda: ("zero_bond", zeros_from_discounts(random_discount_curve(Random(7), 15))),
    "zero-antisymmetric": lambda: ("zero_bond", antisymmetric_zero_curve()),
    # Dyadic yields: every margin is an exact binary fraction, and they tie
    # in both modes, so the ranking among them falls to the indices.
    "zero-tied": lambda: (
        "zero_bond", ZeroCurve(range(1, 7), tuple(e / 64 for e in (1, 1, 2, 2, 3, 3)))
    ),
    "swap-sampled": lambda: ("swap", random_swap_curve(Random(8), 15)),
}


def reference_scan(curve, kind, mode):
    """(indices, legs, weights, margin) of every convex triple, brute force."""
    if kind == "zero_bond":
        points = list(zip(curve.tenors, curve.yields))
    else:
        points = list(zip(bootstrap(curve).annuities, curve.rates))
    n = len(points)
    if mode == "all_triples":
        triples = combinations(range(n), 3)
    else:
        triples = [(i, i + 1, i + 2) for i in range(n - 2)]
    rows = []
    for i, j, k in triples:
        cls = classify_triple((points[i], points[j], points[k]))
        if cls.verdict != "convex":
            continue
        (x1, _), (x2, _), (x3, _) = points[i], points[j], points[k]
        indices = (i + 1, j + 1, k + 1)
        legs = (x1, x2, x3) if kind == "zero_bond" else indices
        weights = (x3 - x2, (x3 - x2) + (x2 - x1), x2 - x1)
        rows.append((indices, legs, weights, cls.margin))
    rows.sort(key=lambda r: (-r[3], r[0]))
    return rows


def reference_candidates(curve, kind, mode):
    """The candidates by a tuple sort of the hits and the public constructors."""
    if kind == "zero_bond":
        xs, values, legs = curve.tenors, curve.yields, curve.tenors
    else:
        xs, values, legs = bootstrap(curve).annuities, curve.rates, range(1, len(curve) + 1)
    margins = _margins(xs, values, mode)
    candidates = []
    for neg_margin, i, j, k in sorted((-m, i, j, k) for i, j, k, m in margins if m > CLASSIFY_TOL):
        w1, w3 = xs[k] - xs[j], xs[j] - xs[i]
        fly_legs = (legs[i], legs[j], legs[k])
        annuities = (xs[i], xs[j], xs[k]) if kind == "swap" else None
        fly = Butterfly(kind, fly_legs, (w1, w1 + w3, w3), annuities)
        candidates.append(ArbitrageCandidate((i + 1, j + 1, k + 1), fly_legs, -neg_margin, fly))
    return tuple(candidates)


def retained_bytes(build):
    """Bytes still allocated once ``build()`` has returned, its result included.

    A full collection first empties the interpreter's free lists, so objects
    the earlier tests freed cannot stand in, untraced, for new allocations.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        return tracemalloc.get_traced_memory()[0], result
    finally:
        tracemalloc.stop()


PINNED_SCANS = {
    **SCAN_CURVES,
    "zero-n60": lambda: ("zero_bond", zeros_from_discounts(random_discount_curve(Random(2), 60))),
    "swap-n60": lambda: ("swap", random_swap_curve(Random(3), 60)),
}


class TestScanArbitrage:
    @pytest.mark.parametrize("mode", ["consecutive", "all_triples"])
    @pytest.mark.parametrize("name", sorted(PINNED_SCANS))
    def test_candidates_match_the_public_constructors(self, name, mode):
        kind, curve = PINNED_SCANS[name]()
        want = reference_candidates(curve, kind, mode)
        got = scan_arbitrage(curve, kind, mode)
        assert got == want
        assert [repr(c) for c in got] == [repr(c) for c in want]
        assert [c.margin.hex() for c in got] == [c.margin.hex() for c in want]
        for g, w in zip(got, want):
            assert list(slot_dict(g)) == list(slot_dict(w))
            assert list(slot_dict(g.butterfly).items()) == list(slot_dict(w.butterfly).items())
        if name == "zero-tied":
            assert any(a.margin == b.margin for a, b in zip(want, want[1:]))

    def test_candidates_take_no_more_memory_than_public_ones(self):
        # Trusted construction fills the same slots as the public constructors.
        curve = antisymmetric_zero_curve(n=30)
        args = (curve, "zero_bond", "all_triples")
        public, want = retained_bytes(lambda: reference_candidates(*args))
        trusted, got = retained_bytes(lambda: scan_arbitrage(*args))
        assert got == want and len(got) > 100
        assert trusted <= 1.1 * public

    @pytest.mark.parametrize("mode", ["consecutive", "all_triples"])
    @pytest.mark.parametrize("name", sorted(SCAN_CURVES))
    def test_matches_brute_force_reference(self, name, mode):
        kind, curve = SCAN_CURVES[name]()
        expected = reference_scan(curve, kind, mode)
        assert expected
        got = [
            (c.indices, c.legs, c.butterfly.weights, c.margin)
            for c in scan_arbitrage(curve, kind, mode)
        ]
        assert got == expected

    def concave_zero_curve(self, n=10):
        tenors = tuple(float(t) for t in range(1, n + 1))
        yields = tuple(0.01 + 0.02 * math.log1p(t) / math.log1p(n) for t in tenors)
        return ZeroCurve(tenors, yields)

    def test_concave_curve_yields_nothing(self):
        assert scan_arbitrage(self.concave_zero_curve(), mode="all_triples") == ()

    def test_affine_curve_yields_nothing(self):
        tenors = (1.0, 2.0, 3.0, 4.0)
        yields = tuple(0.02 + 0.004 * t for t in tenors)
        assert scan_arbitrage(ZeroCurve(tenors, yields), mode="all_triples") == ()

    def test_pushed_down_point_is_listed_and_ranked(self):
        curve = self.concave_zero_curve()
        yields = list(curve.yields)
        yields[4] -= 0.001  # 10bp kink at the fifth tenor
        kinked = ZeroCurve(curve.tenors, tuple(yields))
        candidates = scan_arbitrage(kinked, mode="all_triples")
        assert candidates
        assert all(5 in c.indices for c in candidates)
        margins = [c.margin for c in candidates]
        assert margins == sorted(margins, reverse=True)
        assert all(m > 0 for m in margins)

    def test_margin_matches_weighted_yield_test(self):
        curve = self.concave_zero_curve()
        yields = list(curve.yields)
        yields[4] -= 0.001
        kinked = ZeroCurve(curve.tenors, tuple(yields))
        for cand in scan_arbitrage(kinked, mode="all_triples"):
            w1, w2, w3 = cand.butterfly.weights
            i, j, k = (x - 1 for x in cand.indices)
            y = kinked.yields
            assert cand.margin == w1 * (y[i] - y[j]) + w3 * (y[k] - y[j])
            assert cand.margin == pytest.approx(
                w1 * y[i] + w3 * y[k] - w2 * y[j], rel=1e-12
            )

    def test_swap_kind_lists_convex_rate_triples(self):
        swaps = SwapCurve((0.02, 0.025, 0.035))
        candidates = scan_arbitrage(swaps, kind="swap")
        assert len(candidates) == 1
        cand = candidates[0]
        assert cand.indices == (1, 2, 3)
        assert cand.butterfly.kind == "swap"
        assert cand.margin > 0

    def test_swap_candidates_carry_the_strict_swap_butterfly(self):
        rng = Random(47)
        for _ in range(20):
            swaps = random_swap_curve(rng, rng.randint(3, 15))
            for cand in scan_arbitrage(swaps, kind="swap", mode="all_triples"):
                assert cand.butterfly == swap_butterfly(swaps, cand.indices)

    def test_validation_failures_raise(self):
        # negative implied forward between the two tenors
        bad_zero = ZeroCurve((1.0, 2.0), (0.05, 0.02))
        with pytest.raises(ValueError):
            scan_arbitrage(bad_zero)
        bad_swaps = SwapCurve((0.2, 0.001, 0.001))
        with pytest.raises(ValueError):
            scan_arbitrage(bad_swaps, kind="swap")

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            scan_arbitrage(ZeroCurve((1.0, 2.0), (0.02, 0.03)))

    @pytest.mark.parametrize("tol", [math.nan, -1e-9])
    @pytest.mark.parametrize("kind", ["zero_bond", "swap"])
    def test_nan_or_negative_tolerance_is_refused(self, kind, tol):
        # NaN would return no candidates; a negative tol would list concave triples.
        curve = self.concave_zero_curve() if kind == "zero_bond" else SwapCurve((0.03,) * 5)
        with pytest.raises(ValueError, match="classification tolerance must be >= 0"):
            scan_arbitrage(curve, kind, "all_triples", tol)

    def test_kind_and_curve_must_agree(self):
        with pytest.raises(ValueError):
            scan_arbitrage(SwapCurve((0.02, 0.03, 0.035)), kind="zero_bond")
