"""Triple classification, shape scans and the annuity-point geometry."""

import math
import re
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from records import slot_dict

from curvekit.bootstrap import ShiftScenario, bootstrap, shifted_bootstrap
from curvekit.butterfly import scan_arbitrage
from curvekit.curves import SwapCurve, ZeroCurve
from curvekit.sampling import random_nondecreasing_swap_curve, random_swap_curve
from curvekit.shape import (
    ALL_TRIPLES,
    ALL_TRIPLES_CAP,
    CLASSIFY_TOL,
    CONCAVE,
    CONCAVE_EVERYWHERE,
    CONSECUTIVE,
    CONVEX,
    CONVEX_SOMEWHERE,
    ShapeReport,
    TripleClassification,
    _margins,
    _verdict,
    annuity_point_classification,
    classify_triple,
    ratio_monotonicity,
    scan_curve_shape,
)


class TestClassifyTriple:
    def test_collinear_points_are_affine(self):
        cls = classify_triple(((1.0, 0.02), (2.0, 0.03), (3.0, 0.04)))
        assert cls.verdict == "affine"
        assert abs(cls.margin) < 1e-15

    def test_convex_hand_value(self):
        cls = classify_triple(((1.0, 0.02), (2.0, 0.025), (3.0, 0.04)))
        assert cls.verdict == "convex"
        assert cls.margin == pytest.approx(0.02 + 0.04 - 2 * 0.025, abs=1e-15)

    def test_concave_hand_value(self):
        cls = classify_triple(((1.0, 0.02), (2.0, 0.035), (3.0, 0.04)))
        assert cls.verdict == "concave"
        assert cls.margin == pytest.approx(-0.01, abs=1e-15)

    def test_unsorted_abscissas_rejected(self):
        with pytest.raises(ValueError):
            classify_triple(((2.0, 0.1), (1.0, 0.2), (3.0, 0.3)))

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_other_than_three_points_are_refused_by_name(self, count):
        # Two points used to end in "not enough values to unpack (expected 3, got 2)",
        # four in "too many values to unpack (expected 3)".
        points = [(float(t), 0.01 * t) for t in range(1, count + 1)]
        with pytest.raises(ValueError) as exc:
            classify_triple(points)
        assert str(exc.value) == f"points must be three (x, v) pairs, got {count}"

    def test_uneven_spacing(self):
        # (2, 5, 10): outer weights are (10-5, 5-2) = (5, 3).
        cls = classify_triple(((2.0, 0.02), (5.0, 0.022), (10.0, 0.034)))
        assert cls.margin == pytest.approx(5 * 0.02 + 3 * 0.034 - 8 * 0.022, abs=1e-15)
        assert cls.verdict == "convex"

    @given(
        v1=st.floats(-0.1, 0.1),
        v2=st.floats(-0.1, 0.1),
        v3=st.floats(-0.1, 0.1),
        intercept=st.floats(-1.0, 1.0),
        slope=st.floats(-0.05, 0.05),
    )
    @settings(max_examples=300)
    def test_margin_invariant_under_affine_value_shifts(
        self, v1, v2, v3, intercept, slope
    ):
        xs = (1.0, 2.5, 7.0)
        base = classify_triple(tuple(zip(xs, (v1, v2, v3)))).margin
        shifted = classify_triple(
            tuple((x, v + intercept + slope * x) for x, v in zip(xs, (v1, v2, v3)))
        ).margin
        assert shifted == pytest.approx(base, abs=1e-12)


class TestScanCurveShape:
    def test_log_curve_is_concave_everywhere(self):
        points = [(t, math.log1p(t)) for t in range(1, 15)]
        for mode in (CONSECUTIVE, ALL_TRIPLES):
            report = scan_curve_shape(points, mode=mode)
            assert report.overall == CONCAVE_EVERYWHERE
            assert all(c.verdict != CONVEX for *_, c in report.triples)

    def test_single_kink_is_found(self):
        points = [(float(t), math.log1p(t)) for t in range(1, 15)]
        points[6] = (points[6][0], points[6][1] - 0.02)  # push one value down
        report = scan_curve_shape(points, mode=ALL_TRIPLES)
        assert report.overall == CONVEX_SOMEWHERE
        kinked = [(i, j, k) for i, j, k, c in report.triples if c.verdict == CONVEX]
        assert kinked
        assert all(triple[1] == 6 for triple in kinked)

    def test_three_points_single_triple_in_both_modes(self):
        points = [(1.0, 0.01), (2.0, 0.02), (3.0, 0.025)]
        for mode in (CONSECUTIVE, ALL_TRIPLES):
            report = scan_curve_shape(points, mode=mode)
            assert len(report.triples) == 1
            assert report.triples[0][:3] == (0, 1, 2)

    @staticmethod
    def assert_both_refuse(points, mode, message):
        """scan_curve_shape and scan_arbitrage refuse the points alike."""
        with pytest.raises(ValueError, match=re.escape(message)):
            scan_curve_shape(points, mode=mode)
        with pytest.raises(ValueError, match=re.escape(message)):
            scan_arbitrage(ZeroCurve(*zip(*points)), mode=mode)

    def test_too_few_points(self):
        self.assert_both_refuse(
            [(1.0, 0.01), (2.0, 0.02)], CONSECUTIVE, "shape scan needs at least 3 points"
        )

    def test_unknown_mode(self):
        points = [(float(t), 0.01 * t) for t in range(1, 8)]
        self.assert_both_refuse(points, "diagonal", "unknown scan mode 'diagonal'")

    def test_abscissas_must_increase(self):
        # ZeroCurve refuses such tenors ("tenors must be strictly
        # increasing") before scan_arbitrage can scan them.
        points = [(1.0, 0.01), (3.0, 0.02), (2.0, 0.03)]
        self.assert_both_refuse(points, CONSECUTIVE, "must be strictly increasing")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("coord", [0, 1], ids=["abscissa", "value"])
    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_non_finite_points_are_refused(self, pos, coord, bad):
        # A NaN margin would classify affine, and the scan would read
        # concave_everywhere.  A non-finite abscissa is refused as such, also
        # where it breaks the increase: it used to read "abscissas must be
        # strictly increasing".
        points = [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
        points[pos][coord] = bad
        points = [tuple(p) for p in points]
        message = f"points must be finite, got {points[pos]!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            classify_triple(points)
        for mode in (CONSECUTIVE, ALL_TRIPLES):
            with pytest.raises(ValueError, match=re.escape(message)):
                scan_curve_shape(points, mode=mode)

    def test_lexicographic_order(self):
        points = [(float(t), 0.01 * t) for t in range(1, 8)]
        report = scan_curve_shape(points, mode=ALL_TRIPLES)
        indices = [t[:3] for t in report.triples]
        assert indices == sorted(indices)
        assert indices == list(combinations(range(7), 3))

    def test_all_triples_cap(self):
        points = [(float(t), 0.01) for t in range(1, 202)]
        self.assert_both_refuse(
            points, ALL_TRIPLES, "all-triples scan over 201 points exceeds the cap of 200"
        )

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, -math.inf])
    def test_nan_or_negative_tolerance_is_refused(self, tol):
        # A NaN tolerance would call every triple affine, a negative one
        # concave triples convex.
        points = [(1.0, 0.02), (2.0, 0.01), (3.0, 0.02), (4.0, 0.05)]
        message = f"classification tolerance must be >= 0, got {tol!r}"
        for mode in (CONSECUTIVE, ALL_TRIPLES):
            with pytest.raises(ValueError, match=re.escape(message)):
                scan_curve_shape(points, mode=mode, tol=tol)
        with pytest.raises(ValueError, match=re.escape(message)):
            classify_triple(points[:3], tol=tol)

    def test_zero_tolerance_is_accepted(self):
        assert classify_triple(((1.0, 0.02), (2.0, 0.02), (3.0, 0.02)), tol=0.0).verdict == "affine"


def zero_points(n, seed):
    rng = Random(seed)
    return [(float(t), 0.02 + 0.001 * t + rng.uniform(-2.5e-4, 2.5e-4)) for t in range(1, n + 1)]


def annuity_points(n, seed):
    swaps = random_swap_curve(Random(seed), n)
    return list(zip(bootstrap(swaps).annuities, swaps.rates))


class TestMarginGenerator:
    @pytest.mark.parametrize(
        "points",
        [zero_points(45, 1), annuity_points(40, 2), zero_points(ALL_TRIPLES_CAP, 3)],
        ids=["zero-n45", "annuity-n40", "zero-at-cap"],
    )
    def test_all_triples_margins_are_classify_triples_bit_for_bit(self, points):
        # Streamed: the 200-point curve has 1,313,400 triples.
        got = _margins(*zip(*points), ALL_TRIPLES)
        want = combinations(range(len(points)), 3)
        mismatches = [
            (i, j, k)
            for (i, j, k, m), triple in zip(got, want, strict=True)
            if (i, j, k) != triple
            or m.hex() != classify_triple((points[i], points[j], points[k])).margin.hex()
        ]
        assert mismatches == []

    def test_consecutive_margins_are_classify_triples_bit_for_bit(self):
        points = annuity_points(40, 4)
        got = [(i, j, k, m.hex()) for i, j, k, m in _margins(*zip(*points), CONSECUTIVE)]
        want = [
            (i, i + 1, i + 2, classify_triple(points[i : i + 3]).margin.hex())
            for i in range(len(points) - 2)
        ]
        assert got == want


class TestScanCurveShapePinning:
    @pytest.mark.parametrize("tol", [CLASSIFY_TOL, 0.0, 1e-5])
    @pytest.mark.parametrize("mode", [CONSECUTIVE, ALL_TRIPLES])
    def test_classifications_match_the_public_constructor(self, mode, tol):
        # The reference: one public TripleClassification(...) per triple.
        flat = [(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)]
        for points in (zero_points(45, 5), annuity_points(40, 6), flat):
            want = tuple(
                (i, j, k, TripleClassification(_verdict(m, tol), m))
                for i, j, k, m in _margins(*zip(*points), mode)
            )
            convex = any(c.verdict == CONVEX for *_, c in want)
            got = scan_curve_shape(points, mode, tol)
            assert got == ShapeReport(want, CONVEX_SOMEWHERE if convex else CONCAVE_EVERYWHERE)
            assert repr(got) == repr(ShapeReport(want, got.overall))
            assert [list(slot_dict(c).items()) for *_, c in got.triples] == [
                list(slot_dict(c).items()) for *_, c in want
            ]


class TestAnnuityPoints:
    def test_zero_shift_is_affine(self):
        base = bootstrap(SwapCurve((0.05,) * 5))
        cls = annuity_point_classification(base, base, (1, 3, 5))
        assert cls.verdict == "affine"

    def test_parallel_rise_gives_concave_points(self):
        swaps = SwapCurve((0.05,) * 3)
        base = bootstrap(swaps)
        shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(0.01))
        cls = annuity_point_classification(base, shifted, (1, 2, 3))
        assert cls.verdict == CONCAVE

    def test_parallel_fall_gives_convex_points(self):
        swaps = SwapCurve((0.05,) * 3)
        base = bootstrap(swaps)
        shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(-0.01))
        cls = annuity_point_classification(base, shifted, (1, 2, 3))
        assert cls.verdict == CONVEX

    def test_index_errors(self):
        # Legs that are not whole years used to end in a TypeError at the annuity lookup.
        base = bootstrap(SwapCurve((0.05,) * 4))
        # Legs that are not three numbers ended in a TypeError or an unpacking message.
        malformed = (("1", 2, 3), (None, 2, 3), None, 5, (1, 2), (1, 2, 3, 4))
        floats = ((1.0, 2.0, 3.0), (1.5, 2, 3), (1, 2, 3.5))
        for bad in ((0, 1, 2), (1, 1, 3), (2, 3, 9), *floats, *malformed):
            with pytest.raises(ValueError) as exc:
                annuity_point_classification(base, base, bad)
            assert str(exc.value) == f"need 1 <= n < m < k <= 4, got {bad}"


class TestRatioMonotonicity:
    def test_zero_shift_passes(self):
        base = bootstrap(SwapCurve((0.05,) * 6))
        assert ratio_monotonicity(base, base).passed

    def test_rising_curve_parallel_rise_passes(self):
        swaps = SwapCurve((0.02, 0.025, 0.03, 0.032, 0.035))
        base = bootstrap(swaps)
        shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(0.005))
        assert ratio_monotonicity(base, shifted).passed

    def test_front_bump_fails_at_year_one(self):
        swaps = SwapCurve((0.05,) * 3)
        base = bootstrap(swaps)
        shifted = shifted_bootstrap(swaps, ShiftScenario.per_tenor((0.001, 0.0, 0.0)))
        result = ratio_monotonicity(base, shifted)
        assert not result.passed
        assert result.first_violation == 1

    def test_reversed_direction(self):
        swaps = SwapCurve((0.02, 0.025, 0.03))
        base = bootstrap(swaps)
        shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(-0.005))
        assert ratio_monotonicity(base, shifted, direction="non_decreasing").passed
        assert not ratio_monotonicity(base, shifted).passed

    def test_grid_mismatch_rejected(self):
        a = bootstrap(SwapCurve((0.05,) * 3))
        b = bootstrap(SwapCurve((0.05,) * 4))
        with pytest.raises(ValueError):
            ratio_monotonicity(a, b)


class TestRatioTripleEquivalence:
    """Monotone factor ratios against brute-forced annuity-point triples.

    The triple geometry involves the ratios from year 2 on: the chord
    slope between consecutive annuity points (n, n+1) is the factor
    ratio at n+1, so year 1's ratio positions a point without entering
    any slope.
    """

    def test_nondecreasing_curves_parallel_rise(self):
        rng = Random(101)
        for _ in range(25):
            n = rng.randint(3, 20)
            swaps = random_nondecreasing_swap_curve(rng, n)
            y = rng.choice((0.0001, 0.001, 0.01, 0.05))
            base = bootstrap(swaps)
            shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(y))
            assert ratio_monotonicity(base, shifted).passed
            for idx in combinations(range(1, n + 1), 3):
                cls = annuity_point_classification(base, shifted, idx)
                assert cls.verdict != CONVEX, (idx, cls)

    def test_interior_bump_gives_convex_triple_and_ratio_rise(self):
        swaps = SwapCurve((0.05,) * 6)
        base = bootstrap(swaps)
        shifted = shifted_bootstrap(
            swaps, ShiftScenario.per_tenor((0.0, 0.0, 0.001, 0.0, 0.0, 0.0))
        )
        result = ratio_monotonicity(base, shifted)
        assert not result.passed
        assert result.first_violation == 3
        convex = [
            idx
            for idx in combinations(range(1, 7), 3)
            if annuity_point_classification(base, shifted, idx).verdict == CONVEX
        ]
        assert convex

    def test_front_bump_breaks_ratio_but_not_triples(self):
        # The year-1 ratio never enters a chord slope, so a rise there is
        # invisible to every triple: the check fails while all annuity
        # points stay non-convex.
        swaps = SwapCurve((0.05,) * 4)
        base = bootstrap(swaps)
        shifted = shifted_bootstrap(
            swaps, ShiftScenario.per_tenor((0.001, 0.0, 0.0, 0.0))
        )
        assert not ratio_monotonicity(base, shifted).passed
        for idx in combinations(range(1, 5), 3):
            cls = annuity_point_classification(base, shifted, idx)
            assert cls.verdict != CONVEX

    def test_tail_ratio_monotone_iff_no_convex_triple(self):
        # Exact discrete equivalence on random curves and shifts, guarded
        # away from the classification tolerance.
        rng = Random(202)
        checked = 0
        while checked < 40:
            n = rng.randint(3, 12)
            swaps = random_swap_curve(rng, n)
            amounts = tuple(rng.uniform(-0.002, 0.002) for _ in range(n))
            base = bootstrap(swaps)
            shifted = shifted_bootstrap(swaps, ShiftScenario.per_tenor(amounts))
            ratios = [s / b for s, b in zip(shifted.factors, base.factors)]
            rises = [
                r_next - r for r, r_next in zip(ratios[1:], ratios[2:])
            ]  # year-2 tail only
            if any(abs(d) < 1e-7 for d in rises):
                continue  # too close to the knife edge to compare verdicts
            checked += 1
            tail_monotone = all(d < 0 for d in rises)
            any_convex = any(
                annuity_point_classification(base, shifted, idx).verdict == CONVEX
                for idx in combinations(range(1, n + 1), 3)
            )
            assert any_convex == (not tail_monotone)
