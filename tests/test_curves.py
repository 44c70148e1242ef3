"""Curve types, conversions and validation."""

import copy
import math
import pickle
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from records import slot_dict

from curvekit import curves
from curvekit.bootstrap import ShiftScenario, bootstrap
from curvekit.butterfly import (
    ArbitrageCandidate,
    Butterfly,
    PnlBreakdown,
    SafetyCheck,
    scan_arbitrage,
)
from curvekit.curves import (
    MONOTONE_TOL,
    NON_DECREASING_DISCOUNT,
    NON_POSITIVE_DISCOUNT,
    NON_POSITIVE_FORWARD,
    CheckResult,
    DiscountCurve,
    ForwardCurve,
    SwapCurve,
    ValidationReport,
    Violation,
    ZeroCurve,
    _require_valid,
    _violations,
    discounts_from_zeros,
    forward_rates,
    par_rates,
    validate,
    zero_price,
    zero_yield_from_price,
    zeros_from_discounts,
)
from curvekit.io import CurveFile
from curvekit.sampling import (
    VerifyReport,
    random_discount_curve,
    random_nondecreasing_swap_curve,
    random_swap_curve,
)
from curvekit.shape import ShapeReport, TripleClassification, scan_curve_shape


def flat_discounts(rate: float, n: int) -> DiscountCurve:
    return DiscountCurve(tuple((1.0 + rate) ** (-k) for k in range(1, n + 1)))


class TestZeroPrice:
    def test_zero_rate_is_unit_price(self):
        assert zero_price(0.0, 7) == 1.0

    def test_hand_values(self):
        assert zero_price(0.05, 1) == pytest.approx(1.0 / 1.05, abs=1e-15)
        assert zero_price(0.05, 3) == pytest.approx(1.0 / 1.05**3, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            zero_price(-1.0, 2)
        with pytest.raises(ValueError):
            zero_price(0.05, 0)

    def test_unit_price_zero_yield(self):
        assert zero_yield_from_price(1.0, 5) == 0.0

    def test_inverse_hand_values(self):
        assert zero_yield_from_price(1.0 / 1.05, 1) == pytest.approx(0.05, abs=1e-12)
        assert zero_yield_from_price(1.0 / 1.05**3, 3) == pytest.approx(0.05, abs=1e-12)

    def test_inverse_domain_errors(self):
        with pytest.raises(ValueError):
            zero_yield_from_price(0.0, 3)
        with pytest.raises(ValueError):
            zero_yield_from_price(-0.2, 3)

    @given(
        y=st.floats(min_value=-0.2, max_value=0.5, exclude_min=True),
        t=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=300)
    def test_round_trip(self, y, t):
        assert zero_yield_from_price(zero_price(y, t), t) == pytest.approx(
            y, abs=1e-12
        )


class TestCurveTypes:
    def test_zero_curve_rejects_unsorted_tenors(self):
        with pytest.raises(ValueError):
            ZeroCurve((2.0, 1.0), (0.01, 0.02))

    def test_zero_curve_rejects_nonpositive_tenor(self):
        with pytest.raises(ValueError):
            ZeroCurve((0.0, 1.0), (0.01, 0.02))

    def test_zero_curve_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ZeroCurve((1.0, 2.0), (0.01,))

    def test_rate_range_enforced(self):
        with pytest.raises(ValueError):
            SwapCurve((0.05, 1.5))
        with pytest.raises(ValueError):
            ZeroCurve((1.0,), (-0.6,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SwapCurve(())
        with pytest.raises(ValueError):
            DiscountCurve(())

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DiscountCurve((0.9, float("nan")))

    def test_annuities_are_exact_prefix_sums(self):
        curve = DiscountCurve((0.95, 0.9, 0.85))
        acc = 0.0
        for p, a in zip(curve.factors, curve.annuities):
            acc += p
            assert a == acc  # bit-exact, same summation order

    def test_curves_are_immutable(self):
        curve = flat_discounts(0.05, 3)
        with pytest.raises(AttributeError):
            curve.factors = (1.0,)


class TestZeroCurveYieldAt:
    curve = ZeroCurve((0.5, 2.0, 5.0), (0.02, 0.03, 0.045))

    def test_pillar_is_exact(self):
        assert self.curve.yield_at(2.0) == 0.03
        assert self.curve.yield_at(5.0) == 0.045

    def test_mid_interval_is_linear(self):
        assert self.curve.yield_at(3.5) == 0.03 + (0.045 - 0.03) * 1.5 / 3.0
        assert self.curve.yield_at(1.25) == pytest.approx(0.025, abs=1e-15)

    def test_out_of_range_ends_raise(self):
        for t in (0.25, 5.5):
            with pytest.raises(ValueError, match="outside the curve's tenor range"):
                self.curve.yield_at(t)


class TestForwardRates:
    def test_flat_curve_forwards_equal_rate(self):
        fwd = forward_rates(flat_discounts(0.04, 12))
        for f in fwd.forwards:
            assert f == pytest.approx(0.04, abs=1e-12)

    def test_hand_value(self):
        curve = DiscountCurve((1.0 / 1.02, 1.0 / 1.03**2))
        fwd = forward_rates(curve)
        assert fwd.forwards[0] == pytest.approx(0.02, abs=1e-12)
        assert fwd.forwards[1] == pytest.approx(1.03**2 / 1.02 - 1.0, abs=1e-12)

    def test_decreasing_positive_curve_gives_positive_forwards(self):
        rng = Random(7)
        for _ in range(50):
            curve = random_discount_curve(rng, rng.randint(1, 40))
            assert all(f > 0.0 for f in forward_rates(curve).forwards)

    def test_zero_price_is_domain_error(self):
        with pytest.raises(ValueError):
            forward_rates(DiscountCurve((0.9, 0.0)))

    def test_length_matches_input(self):
        assert len(forward_rates(flat_discounts(0.03, 9))) == 9

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0))
    @settings(max_examples=80)
    def test_telescoping_product(self, n, seed):
        curve = random_discount_curve(Random(seed), n)
        fwd = forward_rates(curve).forwards
        for year in range(1, n + 1):
            product = math.prod(1.0 + f for f in fwd[:year])
            assert product == pytest.approx(1.0 / curve.factors[year - 1], abs=1e-10)


class TestParRates:
    def test_flat_zero_curve_par_equals_rate(self):
        for y in (0.001, 0.02, 0.05, 0.11):
            rates = par_rates(flat_discounts(y, 30))
            for s in rates.rates:
                assert s == pytest.approx(y, abs=1e-12)

    def test_hand_values(self):
        curve = DiscountCurve((1.0 / 1.05, 1.0 / 1.05**2))
        s2 = par_rates(curve).rates[1]
        assert s2 == pytest.approx(0.05, abs=1e-10)
        one_year = par_rates(DiscountCurve((0.99,))).rates[0]
        assert one_year == pytest.approx(0.01 / 0.99, abs=1e-12)

    def test_requires_positive_factors(self):
        with pytest.raises(ValueError):
            par_rates(DiscountCurve((0.9, -0.1)))


class TestValidate:
    def test_flat_curve_is_clean(self):
        report = validate(flat_discounts(0.05, 10))
        assert report.ok
        assert report.violations == ()

    def test_rising_factor_flagged_at_second_year(self):
        report = validate(DiscountCurve((0.95, 0.96)))
        assert not report.ok
        kinds = {(v.index, v.kind) for v in report.violations}
        assert (2, NON_DECREASING_DISCOUNT) in kinds

    def test_negative_factor_flagged(self):
        report = validate(DiscountCurve((0.95, -0.1)))
        kinds = {(v.index, v.kind) for v in report.violations}
        assert (2, NON_POSITIVE_DISCOUNT) in kinds

    def test_first_factor_checked_against_par(self):
        report = validate(DiscountCurve((1.0, 0.9)))
        kinds = {(v.index, v.kind) for v in report.violations}
        assert (1, NON_DECREASING_DISCOUNT) in kinds

    def test_forward_violation_carries_interval_start(self):
        report = validate(DiscountCurve((0.95, 0.96)))
        kinds = {(v.index, v.kind) for v in report.violations}
        assert (1, NON_POSITIVE_FORWARD) in kinds

    def test_never_raises_on_zero_factor(self):
        report = validate(DiscountCurve((0.9, 0.0)))
        assert not report.ok

    def test_report_flag_must_mirror_violations(self):
        from curvekit.curves import ValidationReport, Violation

        with pytest.raises(ValueError):
            ValidationReport(ok=True, violations=(Violation(1, "x", 0.0),))
        with pytest.raises(ValueError):
            ValidationReport(ok=False, violations=())

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0))
    @settings(max_examples=100)
    def test_ok_iff_positive_forwards_and_decreasing(self, n, seed):
        rng = Random(seed)
        curve = random_discount_curve(rng, n)
        if rng.random() < 0.5 and n >= 2:
            # Break the curve at a random interior point.
            factors = list(curve.factors)
            pos = rng.randrange(1, n)
            factors[pos] = factors[pos - 1] * rng.uniform(1.0, 1.2)
            curve = DiscountCurve(tuple(factors))
        decreasing = all(
            b < a for a, b in zip((1.0,) + curve.factors, curve.factors)
        )
        positive_forwards = decreasing and all(
            f > 0.0 for f in forward_rates(curve).forwards
        )
        assert validate(curve).ok == (decreasing and positive_forwards)


def reference_violations(curve: DiscountCurve, tol: float) -> list[Violation]:
    """validate's findings as two full passes: every discount finding by year,
    then every forward finding."""
    violations = []
    prev = 1.0
    for n, p in enumerate(curve.factors, start=1):
        if p <= tol:
            violations.append(Violation(n, NON_POSITIVE_DISCOUNT, p))
        if p >= prev - tol:
            violations.append(Violation(n, NON_DECREASING_DISCOUNT, p))
        prev = p
    prev = 1.0
    for i, p in enumerate(curve.factors):
        if p != 0.0:
            f = prev / p - 1.0
            if f <= tol:
                violations.append(Violation(i, NON_POSITIVE_FORWARD, f))
        prev = p
    return violations


def validation_corpus():
    """Sampled curves of every size, broken copies, and hand-made curves that
    raise each kind of finding, forward findings before later discount ones."""
    for n in (3, 20, 100, 1000):
        rng = Random(f"validate{n}")
        for _ in range(3):
            curve = random_discount_curve(rng, n)
            yield curve
            factors = list(curve.factors)
            for pos in sorted(rng.sample(range(n), min(n, 3))):
                factors[pos] *= rng.choice((1.5, -1.0, 0.0))
            yield DiscountCurve(tuple(factors))
            yield bootstrap(random_swap_curve(rng, n))
            yield bootstrap(random_nondecreasing_swap_curve(rng, n, 0.03, 0.06))
    for factors in (
        (0.9, 0.95, 0.0),
        (0.95, -0.1),
        (1.0, 0.9),
        (0.9, 0.0, 0.5, 0.4),
        (3.0, 2.8, 2.9),
        (1e-13, 1e-14, 2e-14),
    ):
        yield DiscountCurve(factors)


def fingerprint(violations) -> list[tuple[str, str]]:
    return [(repr(v), v.value.hex()) for v in violations]


class TestViolationStream:
    @pytest.mark.parametrize("tol", [MONOTONE_TOL, 0.0, 1e-6, 0.1])
    def test_stream_and_report_match_the_two_pass_reference(self, tol):
        kinds = set()
        for curve in validation_corpus():
            want = fingerprint(reference_violations(curve, tol))
            assert fingerprint(_violations(curve, tol)) == want
            report = validate(curve, tol)
            assert fingerprint(report.violations) == want
            assert report.ok == (not want)
            kinds.update(v.kind for v in report.violations)
        assert kinds == {NON_POSITIVE_DISCOUNT, NON_DECREASING_DISCOUNT, NON_POSITIVE_FORWARD}

    def test_require_valid_quotes_the_first_finding(self):
        for curve in validation_corpus():
            want = reference_violations(curve, MONOTONE_TOL)
            if not want:
                assert _require_valid(curve, "curve") is curve
                continue
            message = f"curve fails validation: {want[0].kind} at index {want[0].index}"
            with pytest.raises(ValueError) as exc:
                _require_valid(curve, "curve")
            assert str(exc.value) == message

    def test_require_valid_builds_only_the_first_finding(self, monkeypatch):
        curve = bootstrap(random_swap_curve(Random(1), 1000))
        assert len(validate(curve).violations) > 1000
        built = []
        set_index, *rest = Violation._setters

        def counting_set_index(violation, index):
            # The stream sets each finding's index once, through this slot setter.
            built.append(index)
            set_index(violation, index)

        monkeypatch.setattr(Violation, "_setters", (counting_set_index, *rest))
        with pytest.raises(ValueError, match="curve fails validation"):
            _require_valid(curve, "curve")
        assert len(built) == 1

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -math.inf])
    def test_nan_or_negative_tolerance_is_refused(self, tol):
        # Both used to report ok=True on a curve with a zero factor.
        with pytest.raises(ValueError) as exc:
            validate(DiscountCurve((0.9, 0.95, 0.0)), tol=tol)
        assert str(exc.value) == f"validation tolerance must be >= 0, got {tol!r}"


def reference_zeros(curve: DiscountCurve) -> ZeroCurve:
    """The zero curve by per-point conversion and the public constructor."""
    yields = tuple(zero_yield_from_price(p, n) for n, p in enumerate(curve.factors, start=1))
    return ZeroCurve(tuple(float(n) for n in range(1, len(curve) + 1)), yields)


def reference_discounts(curve: ZeroCurve) -> DiscountCurve:
    """The discount curve by the tolerant grid loop, per-point prices and the public constructor."""
    curves._require_integer_grid(curve.tenors)
    return DiscountCurve(tuple(zero_price(y, n) for n, y in enumerate(curve.yields, start=1)))


def conversion_outcome(convert, curve):
    """A converted curve by type, repr and float.hex of every field, or its refusal."""
    try:
        out = convert(curve)
    except ValueError as exc:
        return type(exc), str(exc)
    fields = {name: [v.hex() for v in values] for name, values in slot_dict(out).items()}
    return type(out), repr(out), fields


class TestZeroDiscountConversions:
    def test_round_trip_on_integer_grid(self):
        rng = Random(11)
        curve = random_discount_curve(rng, 25)
        zeros = zeros_from_discounts(curve)
        back = discounts_from_zeros(zeros)
        for a, b in zip(curve.factors, back.factors):
            assert a == pytest.approx(b, abs=1e-12)

    def test_requires_integer_grid(self):
        with pytest.raises(ValueError):
            discounts_from_zeros(ZeroCurve((0.5, 1.5), (0.02, 0.03)))

    @pytest.mark.parametrize("n", [1, 3, 20, 100, 1000])
    def test_conversions_match_the_per_point_reference(self, n):
        for seed in (1, 2, 3):
            disc = random_discount_curve(Random(seed), n)
            want = conversion_outcome(reference_zeros, disc)
            assert want[0] is ZeroCurve
            assert conversion_outcome(zeros_from_discounts, disc) == want
            zeros = zeros_from_discounts(disc)
            assert conversion_outcome(discounts_from_zeros, zeros) == conversion_outcome(
                reference_discounts, zeros
            )

    @pytest.mark.parametrize(
        "factors, error, message",
        [
            ((0.9, -0.1, 0.0), ValueError, "discount factor must be positive, got -0.1"),
            ((0.0, 5e-324), ValueError, "discount factor must be positive, got 0.0"),
            ((5e-324,), ValueError, "zero yield at year 1 is beyond float range"),
            ((5e-324, 0.0), ValueError, "zero yield at year 1 is beyond float range"),
            ((0.5,), ValueError, "yields[0] = 1.0 outside the supported range (-0.5, 1.0)"),
            ((0.9, 4.0), ValueError, "yields[1] = -0.5 outside the supported range (-0.5, 1.0)"),
        ],
    )
    def test_zeros_refusals_match_the_reference(self, factors, error, message):
        disc = DiscountCurve(factors)
        got = conversion_outcome(zeros_from_discounts, disc)
        assert got == conversion_outcome(reference_zeros, disc)
        assert got[0] is error
        assert got[1].startswith(message)

    @pytest.mark.parametrize(
        "tenors, yields, error, message",
        [
            ((1.0, 2.0 + 5e-10, 3.0), (0.02, 0.03, 0.035), None, None),
            ((1.0 - 5e-10, 2.0, 3.0), (0.02, 0.03, 0.035), None, None),
            ((1.0, 2.0 + 1e-6, 3.0), (0.02, 0.03, 0.035), ValueError, None),
            ((0.5, 1.5), (0.02, 0.03), ValueError, None),
            (
                range(1, 1101),
                (-0.49,) * 1100,
                ValueError,
                "discount factor at year 1055 is beyond float range",
            ),
        ],
    )
    def test_discounts_grid_and_refusals_match_the_reference(self, tenors, yields, error, message):
        zeros = ZeroCurve(tenors, yields)
        got = conversion_outcome(discounts_from_zeros, zeros)
        assert got == conversion_outcome(reference_discounts, zeros)
        assert got[0] is (error or DiscountCurve)
        assert message is None or got[1] == message

    @pytest.mark.parametrize(
        "convert, args, message",
        [
            (zero_price, (-0.49, 1055), "discount factor at year 1055 is beyond float range"),
            (zero_price, (-0.999, 2.5e5), "discount factor at year 250000.0 is beyond float range"),
            (zero_yield_from_price, (5e-324, 1), "zero yield at year 1 is beyond float range"),
        ],
    )
    def test_a_result_beyond_float_range_is_refused_at_its_year(self, convert, args, message):
        # Each let an OverflowError escape: (34, 'Numerical result out of range').
        with pytest.raises(ValueError) as exc:
            convert(*args)
        assert str(exc.value) == message


FLY = Butterfly("zero_bond", (1.0, 2.0, 3.0), (1.0, 2.0, 1.0))
FLY_REPR = (
    "Butterfly(kind='zero_bond', legs=(1.0, 2.0, 3.0), weights=(1.0, 2.0, 1.0),"
    " base_annuities=None)"
)
FINDING = Violation(1, NON_POSITIVE_DISCOUNT, -0.5)
FINDING_REPR = "Violation(index=1, kind='non_positive_discount', value=-0.5)"

# One record of each public type: a function making it, one making an unequal
# record of the same type, and the exact repr of the first.
RECORDS = {
    "ZeroCurve": (
        lambda: ZeroCurve((1.0, 2.0), (0.01, 0.02)),
        lambda: ZeroCurve((1.0, 2.0), (0.01, 0.03)),
        "ZeroCurve(tenors=(1.0, 2.0), yields=(0.01, 0.02))",
    ),
    "SwapCurve": (
        lambda: SwapCurve((0.01,)),
        lambda: SwapCurve((0.02,)),
        "SwapCurve(rates=(0.01,))",
    ),
    "DiscountCurve": (
        lambda: DiscountCurve((0.99, 0.98)),
        lambda: DiscountCurve((0.99, 0.97)),
        "DiscountCurve(factors=(0.99, 0.98))",
    ),
    "ForwardCurve": (
        lambda: ForwardCurve((0.01,)),
        lambda: ForwardCurve((-0.01,)),
        "ForwardCurve(forwards=(0.01,))",
    ),
    "Violation": (
        lambda: Violation(1, NON_POSITIVE_DISCOUNT, -0.5),
        lambda: Violation(2, NON_POSITIVE_DISCOUNT, -0.5),
        FINDING_REPR,
    ),
    "ValidationReport": (
        lambda: ValidationReport(False, (FINDING,)),
        lambda: ValidationReport(True, ()),
        f"ValidationReport(ok=False, violations=({FINDING_REPR},))",
    ),
    "CheckResult": (
        lambda: CheckResult("annuity_bound", False, 2, "note"),
        lambda: CheckResult("annuity_bound", True),
        "CheckResult(name='annuity_bound', passed=False, first_violation=2, detail='note')",
    ),
    "ShiftScenario": (
        lambda: ShiftScenario.parallel(0.01),
        lambda: ShiftScenario.per_tenor((0.01,)),
        "ShiftScenario(kind='parallel', amount=0.01, amounts=None)",
    ),
    "TripleClassification": (
        lambda: TripleClassification("convex", 0.25),
        lambda: TripleClassification("convex", 0.5),
        "TripleClassification(verdict='convex', margin=0.25)",
    ),
    "ShapeReport": (
        lambda: ShapeReport(((0, 1, 2, TripleClassification("convex", 0.25)),), "convex_somewhere"),
        lambda: ShapeReport((), "concave_everywhere"),
        "ShapeReport(triples=((0, 1, 2, TripleClassification(verdict='convex', margin=0.25)),),"
        " overall='convex_somewhere')",
    ),
    "Butterfly": (
        lambda: Butterfly("zero_bond", (1.0, 2.0, 3.0), (1.0, 2.0, 1.0)),
        lambda: Butterfly("swap", (1.0, 2.0, 3.0), (1.0, 2.0, 1.0), (1.0, 2.0, 3.0)),
        FLY_REPR,
    ),
    "PnlBreakdown": (
        lambda: PnlBreakdown(0.25, 0.5, 0.75, (1.0, 2.0, 3.0)),
        lambda: PnlBreakdown(0.25, 0.5, 0.75, (1.0, 2.0, 4.0)),
        "PnlBreakdown(carry=0.25, mark_to_market=0.5, total=0.75,"
        " remaining_annuities=(1.0, 2.0, 3.0))",
    ),
    "SafetyCheck": (
        lambda: SafetyCheck(True, 0.5, 0.25, 0.25),
        lambda: SafetyCheck(False, 0.5, -0.25, -0.25),
        "SafetyCheck(passed=True, shifted_yield_margin=0.5, instantaneous_margin=0.25,"
        " binding_margin=0.25)",
    ),
    "ArbitrageCandidate": (
        lambda: ArbitrageCandidate((1, 2, 3), (1.0, 2.0, 3.0), 0.5, FLY),
        lambda: ArbitrageCandidate((1, 2, 3), (1.0, 2.0, 3.0), 0.25, FLY),
        "ArbitrageCandidate(indices=(1, 2, 3), legs=(1.0, 2.0, 3.0), margin=0.5,"
        f" butterfly={FLY_REPR})",
    ),
    "VerifyReport": (
        lambda: VerifyReport(
            (("discount_drop", None, CheckResult("discount_drop", True)),), 2, 1, 0
        ),
        lambda: VerifyReport((("discount_drop", None, None),), 2, 1, 0),
        "VerifyReport(rows=(('discount_drop', None, CheckResult(name='discount_drop',"
        " passed=True, first_violation=None, detail='')),), evaluated=2, skipped=1, failed=0)",
    ),
    # Built by the library without their public constructors.
    "ZeroCurve-converted": (
        lambda: zeros_from_discounts(DiscountCurve((0.8, 0.64))),
        lambda: zeros_from_discounts(DiscountCurve((0.8, 0.5))),
        "ZeroCurve(tenors=(1.0, 2.0), yields=(0.25, 0.25))",
    ),
    "DiscountCurve-converted": (
        lambda: discounts_from_zeros(ZeroCurve((1.0, 2.0), (0.25, 0.25))),
        lambda: discounts_from_zeros(ZeroCurve((1.0, 2.0), (0.25, 0.5))),
        "DiscountCurve(factors=(0.8, 0.64))",
    ),
    "DiscountCurve-bootstrapped": (
        lambda: bootstrap(SwapCurve((0.25, 0.25))),
        lambda: bootstrap(SwapCurve((0.25, 0.5))),
        "DiscountCurve(factors=(0.8, 0.64))",
    ),
    "ArbitrageCandidate-scanned": (
        lambda: scan_arbitrage(ZeroCurve((1.0, 2.0, 3.0), (0.0625, 0.03125, 0.046875)))[0],
        lambda: scan_arbitrage(ZeroCurve((1.0, 2.0, 3.0), (0.0625, 0.03125, 0.0625)))[0],
        "ArbitrageCandidate(indices=(1, 2, 3), legs=(1.0, 2.0, 3.0), margin=0.046875,"
        f" butterfly={FLY_REPR})",
    ),
    "TripleClassification-scanned": (
        lambda: scan_curve_shape([(1.0, 0.5), (2.0, 0.25), (3.0, 0.5)]).triples[0][3],
        lambda: scan_curve_shape([(1.0, 0.5), (2.0, 0.25), (3.0, 0.25)]).triples[0][3],
        "TripleClassification(verdict='convex', margin=0.5)",
    ),
    "CurveFile": (
        lambda: CurveFile("swap", ((1.0, 0.01),), "label"),
        lambda: CurveFile("swap", ((1.0, 0.01),)),
        "CurveFile(curve_type='swap', points=((1.0, 0.01),), label='label')",
    ),
}


def lookalike(record):
    """A copy of ``record`` under a subclass: the same field values, another type."""
    twin = copy.copy(record)
    object.__setattr__(twin, "__class__", type("Lookalike", (type(record),), {"__slots__": ()}))
    return twin


@pytest.mark.parametrize("build, build_other, text", RECORDS.values(), ids=RECORDS.keys())
class TestRecordSemantics:
    def test_equality(self, build, build_other, text):
        record = build()
        assert record == build() and not record != build()
        assert record != build_other() and not record == build_other()
        assert record != lookalike(record) and lookalike(record) != record
        assert record != tuple(slot_dict(record).values())

    def test_equal_records_hash_equal(self, build, build_other, text):
        assert hash(build()) == hash(build())
        assert len({build(), build(), build_other()}) == 2

    def test_repr(self, build, build_other, text):
        assert repr(build()) == text

    def test_records_are_slotted(self, build, build_other, text):
        record = build()
        assert set(record._fields) <= set(type(record).__slots__)
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(record, "undeclared", None)  # past the record's own refusal

    def test_fields_cannot_be_assigned_or_deleted(self, build, build_other, text):
        record = build()
        for name in [*slot_dict(record), "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == build()

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_compare_equal(self, build, build_other, text, round_trip):
        record = build()
        twin = round_trip(record)
        assert twin == record and type(twin) is type(record)
        assert slot_dict(twin) == slot_dict(record)


def record_types(cls=curves._Record):
    """Every subclass of ``cls`` defined in curvekit, by name."""
    found = {}
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("curvekit."):
            found[sub.__name__] = sub
        found.update(record_types(sub))
    return found


def test_every_record_type_is_in_the_record_table():
    # So TestRecordSemantics covers every record type, slots included.
    assert sorted(record_types()) == sorted(name for name in RECORDS if "-" not in name)


@pytest.mark.parametrize("cls", record_types().values(), ids=record_types().keys())
def test_record_setters_set_the_slots_in_declaration_order(cls):
    record = object.__new__(cls)
    for value, set_slot in enumerate(cls._setters):
        set_slot(record, value)
    assert [getattr(record, name) for name in cls.__slots__] == list(range(len(cls.__slots__)))


class PlainCheck(CheckResult):
    """A subclass with no fields or slots of its own, so it has an instance dict."""


class SlottedSwapCurve(SwapCurve):
    __slots__ = ()


@pytest.mark.parametrize(
    "cls, args",
    [(PlainCheck, ("annuity_bound", False, 2, "note")), (SlottedSwapCurve, ((0.01, 0.02),))],
    ids=["PlainCheck", "SlottedSwapCurve"],
)
def test_subclasses_without_fields_work_like_their_base(cls, args):
    # Both used to break: the first failed at class creation with KeyError: 'name',
    # the second got no slot setters at all.
    base = cls.__base__
    assert cls._fields == base._fields and cls._setters == base._setters
    record, plain = cls(*args), base(*args)
    assert slot_dict(record) == slot_dict(plain)
    assert record == cls(**dict(zip(cls._fields, args))) and record != plain
    assert hash(record) == hash(plain)
    assert repr(record) == cls.__qualname__ + repr(plain).removeprefix(base.__qualname__)
    for round_trip in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        twin = round_trip(record)
        assert twin == record and type(twin) is cls


def test_a_record_whose_fields_do_not_lead_its_slots_is_refused():
    with pytest.raises(TypeError, match=r"fields \('b', 'a'\) must lead its slots \('a', 'b'\)"):

        class Swapped(curves._Record):
            __slots__ = ("a", "b")

            def __init__(self, b, a) -> None:
                self._set(a, b)

    with pytest.raises(TypeError, match=r"fields \('rates', 'tag'\) must lead its slots"):

        class Tagged(SwapCurve):  # a field without a slot
            def __init__(self, rates, tag) -> None:
                super().__init__(rates)


def test_records_of_different_types_differ_on_equal_values():
    assert SwapCurve((0.01,)) != ForwardCurve((0.01,))
    assert ForwardCurve((0.01,)) != SwapCurve((0.01,))
