"""The library's comprehension and trusted-record paths, pinned to the per-item loops
and public constructors they replace: equal float.hex of every value, and the same
exception type and message."""

import math
from itertools import accumulate
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from records import slot_dict

from curvekit.bootstrap import (
    ShiftScenario,
    bootstrap,
    shifted_bootstrap,
    swap_rates_from_discounts,
)
from curvekit.butterfly import ArbitrageCandidate, Butterfly, scan_arbitrage
from curvekit.curves import (
    MONOTONE_TOL,
    NON_DECREASING_DISCOUNT,
    NON_POSITIVE_DISCOUNT,
    NON_POSITIVE_FORWARD,
    DiscountCurve,
    ForwardCurve,
    SwapCurve,
    Violation,
    ZeroCurve,
    _violations,
    discounts_from_zeros,
    forward_rates,
    par_rates,
    validate,
    zeros_from_discounts,
)
from curvekit.sampling import random_discount_curve, random_swap_curve
from curvekit.shape import (
    ALL_TRIPLES,
    ALL_TRIPLES_CAP,
    CLASSIFY_TOL,
    CONSECUTIVE,
    _margins,
    scan_curve_shape,
)

# -- the loops the fast paths replaced ---------------------------------------


def reference_forward_rates(curve):
    prev = 1.0
    out = []
    for n, p in enumerate(curve.factors, start=1):
        if p == 0.0:
            raise ValueError(f"discount factor at year {n} is zero")
        out.append(prev / p - 1.0)
        prev = p
    return ForwardCurve(tuple(out))


def reference_par_rates(curve):
    for n, p in enumerate(curve.factors, start=1):
        if p <= 0.0:
            raise ValueError(f"discount factor at year {n} must be positive")
    return SwapCurve(tuple((1.0 - p) / acc for p, acc in zip(curve.factors, curve.annuities)))


def reference_swap_rates(curve):
    rates = []
    for n, (p, acc) in enumerate(zip(curve.factors, curve.annuities), start=1):
        if acc == 0.0:
            raise ValueError(f"annuity through year {n} is zero")
        rates.append((1.0 - p) / acc)
    return SwapCurve(tuple(rates))


def reference_violations(curve, tol=MONOTONE_TOL):
    """validate's findings in one pass, through Violation's public constructor."""
    findings, forwards = [], []
    prev = 1.0
    for n, p in enumerate(curve.factors, start=1):
        if p <= tol:
            findings.append(Violation(n, NON_POSITIVE_DISCOUNT, p))
        if p >= prev - tol:
            findings.append(Violation(n, NON_DECREASING_DISCOUNT, p))
        if p != 0.0:
            f = prev / p - 1.0
            if f <= tol:
                forwards.append(Violation(n - 1, NON_POSITIVE_FORWARD, f))
        prev = p
    return findings + forwards


def reference_consecutive_margins(points):
    """(i, i+1, i+2, margin) per window, refusing a window that does not increase."""
    pts = [(float(x), float(v)) for x, v in points]
    if len(pts) < 3:
        raise ValueError("shape scan needs at least 3 points")
    for i in range(len(pts) - 2):
        (x1, v1), (x2, v2), (x3, v3) = pts[i], pts[i + 1], pts[i + 2]
        if not x1 < x2 < x3:
            raise ValueError("abscissas must be strictly increasing")
        yield i, i + 1, i + 2, (x3 - x2) * (v1 - v2) + (x2 - x1) * (v3 - v2)


def reference_consecutive_scan(curve, kind):
    """Consecutive scan_arbitrage: per-point and per-window loops, public constructors."""
    if kind == "zero_bond":
        prev = 1.0
        for pos, (t, y) in enumerate(zip(curve.tenors, curve.yields), start=1):
            try:
                p = (1.0 + y) ** (-t)
            except OverflowError:
                p = math.inf
            if p >= prev:
                raise ValueError(
                    f"curve fails validation: zero price does not decrease at point {pos}"
                )
            prev = p
        xs, values, legs = curve.tenors, curve.yields, curve.tenors
    else:
        disc = bootstrap(curve)
        for first in reference_violations(disc):
            raise ValueError(f"curve fails validation: {first.kind} at index {first.index}")
        xs, values, legs = disc.annuities, curve.rates, range(1, len(curve) + 1)
    hits = [
        (-m, i, j, k)
        for i, j, k, m in reference_consecutive_margins(zip(xs, values))
        if m > CLASSIFY_TOL
    ]
    hits.sort(key=lambda hit: hit[0])
    candidates = []
    for neg_margin, i, j, k in hits:
        w1, w3 = xs[k] - xs[j], xs[j] - xs[i]
        fly_legs = (legs[i], legs[j], legs[k])
        annuities = (xs[i], xs[j], xs[k]) if kind == "swap" else None
        fly = Butterfly(kind, fly_legs, (w1, w1 + w3, w3), annuities)
        candidates.append(ArbitrageCandidate((i + 1, j + 1, k + 1), fly_legs, -neg_margin, fly))
    return tuple(candidates)


# -- comparison --------------------------------------------------------------


def hexes(value):
    """float.hex of every float in a result, records and tuples unpacked."""
    if isinstance(value, float):
        return [value.hex()]
    if isinstance(value, (tuple, list)):
        return [h for v in value for h in hexes(v)]
    if hasattr(value, "_fields"):
        return [h for v in slot_dict(value).values() for h in hexes(v)]
    return [repr(value)]


def outcome(fn, *args):
    """A result by type, repr and float.hex of every value, or its refusal."""
    try:
        result = fn(*args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)
    return type(result), repr(result), hexes(result)


# -- inputs ------------------------------------------------------------------

BREAKS = ("zero", "negative_zero", "negative", "non_decreasing", "zero_annuity")


def broken(factors, pos, how):
    """``factors`` with the year ``pos + 1`` entry broken as ``how`` says."""
    factors = list(factors)
    if how == "zero":
        factors[pos] = 0.0
    elif how == "negative_zero":
        factors[pos] = -0.0
    elif how == "negative":
        factors[pos] = -factors[pos]
    elif how == "non_decreasing":
        factors[pos] = (factors[pos - 1] if pos else 1.0) * 1.05
    else:  # the running sum through this year is exactly zero
        factors[pos] = -tuple(accumulate(factors[:pos], initial=0.0))[-1]
    return factors


@st.composite
def broken_discount_curves(draw):
    """Sampled curves with up to three broken years, some left intact."""
    n = draw(st.integers(1, 40))
    factors = random_discount_curve(Random(draw(st.integers(0, 10**6))), n).factors
    for _ in range(draw(st.integers(0, 3))):
        factors = broken(factors, draw(st.integers(0, n - 1)), draw(st.sampled_from(BREAKS)))
    return DiscountCurve(tuple(factors))


def library_scale_curves(seed):
    """The N=1000 curves of one library-scale call group: a bootstrapped swap curve
    with hundreds of validation findings, and a sampled discount curve."""
    swaps = random_swap_curve(Random(f"{seed}:lib-swap3"), 1000)
    disc = random_discount_curve(Random(f"{seed}:lib-disc3"), 1000)
    return swaps, bootstrap(swaps), disc


def validate_findings(curve):
    return validate(curve).violations


def reference_findings(curve):
    return tuple(reference_violations(curve))


CONVERSIONS = [
    (forward_rates, reference_forward_rates),
    (par_rates, reference_par_rates),
    (swap_rates_from_discounts, reference_swap_rates),
    (validate_findings, reference_findings),
]


# -- properties --------------------------------------------------------------


@pytest.mark.parametrize("fast, reference", CONVERSIONS, ids=lambda f: f.__name__)
class TestConversions:
    @given(curve=broken_discount_curves())
    @settings(max_examples=150, deadline=None)
    def test_broken_curves_match_the_loop(self, fast, reference, curve):
        assert outcome(fast, curve) == outcome(reference, curve)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_library_scale_curves_match_the_loop(self, fast, reference, seed):
        _, boot, disc = library_scale_curves(seed)
        for curve in (boot, disc):
            assert outcome(fast, curve) == outcome(reference, curve)
        assert len(validate(boot).violations) > 300


def test_every_break_is_refused_as_the_loop_names_it():
    # One curve per break, so each refusal message is reached.
    base = random_discount_curve(Random(5), 6).factors
    for how in BREAKS:
        curve = DiscountCurve(tuple(broken(base, 3, how)))
        for fast, reference in CONVERSIONS:
            assert outcome(fast, curve) == outcome(reference, curve), (how, fast.__name__)
    assert outcome(forward_rates, DiscountCurve((0.9, -0.0))) == (
        ValueError,
        "discount factor at year 2 is zero",
    )
    assert outcome(swap_rates_from_discounts, DiscountCurve((0.5, -0.5, 0.2))) == (
        ValueError,
        "annuity through year 2 is zero",
    )


@st.composite
def consecutive_points(draw):
    """Increasing abscissas, one of them perhaps broken to a tie, a fall or NaN."""
    n = draw(st.integers(0, 30))
    xs = [float(x) for x in range(1, n + 1)]
    vs = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        pos = draw(st.integers(0, n - 1))
        xs[pos] = draw(st.sampled_from([xs[pos - 1] if pos else 1.0, 0.5, math.nan]))
    return list(zip(xs, vs))


def drained(margins):
    """What a margin stream yields, float.hex of the margins, then what it raises."""
    got = []
    try:
        for i, j, k, m in margins:
            got.append((i, j, k, m.hex()))
    except ValueError as exc:
        got.append(str(exc))
    return got


@given(points=consecutive_points())
@settings(max_examples=200, deadline=None)
def test_consecutive_margins_refuse_before_the_first_window(points):
    # The reference yields the windows before a refusal; _margins refuses when called.
    want = drained(reference_consecutive_margins(points))
    xs, vs = [x for x, _ in points], [v for _, v in points]
    if isinstance(want[-1], str):
        with pytest.raises(ValueError) as refused:
            _margins(xs, vs, CONSECUTIVE)
        assert str(refused.value) == want[-1]
    else:
        assert drained(_margins(xs, vs, CONSECUTIVE)) == want


OVER_CAP = [float(x) for x in range(1, ALL_TRIPLES_CAP + 2)]


@pytest.mark.parametrize(
    "xs, mode, message",
    [
        ([1.0, 1.0], "bogus", "shape scan needs at least 3 points"),
        ([1.0, 1.0], CONSECUTIVE, "shape scan needs at least 3 points"),
        ([1.0, math.nan, 3.0], CONSECUTIVE, "abscissas must be strictly increasing"),
        ([1.0, 2.0, 3.0, 3.0], CONSECUTIVE, "abscissas must be strictly increasing"),
        (OVER_CAP[:-1] + [0.5], "bogus", "abscissas must be strictly increasing"),
        (OVER_CAP[:-1] + [0.5], ALL_TRIPLES, "abscissas must be strictly increasing"),
        (OVER_CAP, "bogus", "unknown scan mode 'bogus'"),
        (OVER_CAP, ALL_TRIPLES, "all-triples scan over 201 points exceeds the cap of 200"),
    ],
    ids=[
        "short-before-unknown-mode",
        "short-consecutive",
        "nan-window",
        "last-window-tied",
        "falling-before-unknown-mode",
        "falling-before-cap",
        "unknown-mode-before-cap",
        "cap",
    ],
)
def test_margins_refuse_when_called_in_precedence_order(xs, mode, message):
    # Called, not iterated: every refusal comes before the first triple.
    with pytest.raises(ValueError) as refused:
        _margins(xs, [0.0] * len(xs), mode)
    assert str(refused.value) == message


@st.composite
def broken_zero_curves(draw):
    """Zero curves whose price may stop decreasing: a negative or zero yield, a
    year priced as the one before, or a long tenor whose price overflows."""
    n = draw(st.integers(3, 30))
    rng = Random(draw(st.integers(0, 10**6)))
    tenors = [float(t) for t in range(1, n + 1)]
    yields = list(zeros_from_discounts(random_discount_curve(rng, n)).yields)
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, n - 1))
        how = draw(st.sampled_from(("negative", "zero", "flat_price", "overflow")))
        if how == "negative":
            yields[pos] = -abs(yields[pos])
        elif how == "zero":
            yields[pos] = 0.0
        elif how == "flat_price" and pos:
            yields[pos] = (1.0 + yields[pos - 1]) ** ((pos) / (pos + 1)) - 1.0
        elif how == "overflow":
            tenors[pos:] = [t + 2000.0 for t in tenors[pos:]]
            yields[pos] = -0.45
    return ZeroCurve(tuple(tenors), tuple(yields))


def test_an_overflowing_price_is_named_after_an_earlier_rise():
    # The comprehension overflows at point 3; the loop names point 2 first.
    rising = ZeroCurve((1.0, 2.0, 2000.0), (0.01, -0.1, -0.45))
    overflowing = ZeroCurve((1.0, 2000.0, 3000.0), (0.01, -0.45, 0.02))
    for curve in (rising, overflowing):
        got = outcome(scan_arbitrage, curve)
        assert got == outcome(reference_consecutive_scan, curve, "zero_bond")
    assert outcome(scan_arbitrage, rising)[1].endswith("at point 2")
    assert outcome(scan_arbitrage, overflowing)[1].endswith("at point 2")


class TestConsecutiveScan:
    @given(curve=broken_zero_curves())
    @settings(max_examples=150, deadline=None)
    def test_zero_scan_matches_the_loop(self, curve):
        got = outcome(scan_arbitrage, curve, "zero_bond", CONSECUTIVE)
        assert got == outcome(reference_consecutive_scan, curve, "zero_bond")

    @given(n=st.integers(1, 60), seed=st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_swap_scan_matches_the_loop(self, n, seed):
        swaps = random_swap_curve(Random(seed), n)
        got = outcome(scan_arbitrage, swaps, "swap", CONSECUTIVE)
        assert got == outcome(reference_consecutive_scan, swaps, "swap")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_library_scale_scans_match_the_loop(self, seed):
        swaps, _, disc = library_scale_curves(seed)
        zeros = zeros_from_discounts(disc)
        got = outcome(scan_arbitrage, zeros, "zero_bond", CONSECUTIVE)
        assert got == outcome(reference_consecutive_scan, zeros, "zero_bond")
        assert len(scan_arbitrage(zeros)) > 300
        got = outcome(scan_arbitrage, swaps, "swap", CONSECUTIVE)
        assert got == outcome(reference_consecutive_scan, swaps, "swap")
        assert got[0] is ValueError


# -- records built without their public constructors -------------------------


def trusted_records():
    """Every record the library builds through slot setters, by build site."""
    zeros = ZeroCurve((1.0, 2.0, 3.0, 4.0), (0.0625, 0.03125, 0.046875, 0.05))
    swaps = random_swap_curve(Random(9), 12)
    broken_curve = DiscountCurve((0.9, 0.95, 0.0, 0.5))
    return {
        "scan_arbitrage-zero": scan_arbitrage(zeros),
        "scan_arbitrage-swap": scan_arbitrage(swaps, "swap"),
        "scan_arbitrage-butterfly": [c.butterfly for c in scan_arbitrage(zeros)],
        "scan_curve_shape": [
            c for *_, c in scan_curve_shape(zip(zeros.tenors, zeros.yields)).triples
        ],
        "zeros_from_discounts": [zeros_from_discounts(bootstrap(swaps))],
        "DiscountCurve._computed": [
            bootstrap(swaps),
            discounts_from_zeros(zeros),
            shifted_bootstrap(swaps, ShiftScenario.parallel(0.001)),
        ],
        "_violations": list(_violations(broken_curve)),
        "validate": validate(broken_curve).violations,
    }


@pytest.mark.parametrize("site", sorted(trusted_records()))
def test_trusted_records_equal_their_public_constructions(site):
    records = trusted_records()[site]
    assert records
    for record in records:
        slots = [name for cls in type(record).__mro__ for name in cls.__dict__.get("__slots__", ())]
        assert all(hasattr(record, name) for name in slots), (site, record)
        public = type(record)(*[getattr(record, name) for name in record._fields])
        assert record == public and repr(record) == repr(public)
        assert hexes(record) == hexes(public)
