"""The number rule at every public number parameter, case by case.

Every callable that takes a number is called with each junk value at each of its number
parameters, the other arguments valid.  Every case must end in a ValueError whose message
names the parameter; none may raise TypeError or OverflowError or return.  A scalar
parameter takes the junk value itself, a sequence parameter takes it as one entry, and a
triple parameter both.  The product is finite, so the table lists every case.
"""

import inspect
import math
import re
from random import Random

import pytest

import curvekit
from curvekit.bootstrap import (
    ShiftScenario,
    bootstrap,
    check_annuity_ratio_decreasing,
    check_parallel_brackets,
    check_parallel_discount_drop,
)
from curvekit.butterfly import (
    nonparallel_safe,
    nonparallel_weights,
    scan_arbitrage,
    swap_butterfly,
    swap_butterfly_pnl,
    zero_butterfly,
    zero_butterfly_pnl,
)
from curvekit.curves import (
    DiscountCurve,
    ForwardCurve,
    SwapCurve,
    ZeroCurve,
    validate,
    zero_price,
    zero_yield_from_price,
)
from curvekit.sampling import (
    random_discount_curve,
    random_nondecreasing_swap_curve,
    random_swap_curve,
    verify_trials,
)
from curvekit.shape import annuity_point_classification, classify_triple, scan_curve_shape

JUNK = {
    "none": None,
    "text": "0.01",
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "int-beyond-float": 10**400,
    "empty-tuple": (),
    "complex": 1j,
    "list": [0.01],
}


def is_number(junk) -> bool:
    """Whether junk has a float value: NaN, the infinities and big ints do."""
    return isinstance(junk, (int, float))


def as_float(junk) -> float:
    return math.inf if junk == 10**400 else junk


# How each kind of parameter words its refusal of one junk value.
def number(noun, junk):
    return f"{noun} must be finite" if is_number(junk) else f"{noun} must be a number, got {junk!r}"


def tolerance(noun, junk):
    if is_number(junk) and not as_float(junk) >= 0.0:
        return f"{noun} must be >= 0, got {junk!r}"
    return number(noun, junk)


def whole(noun, junk):
    if junk == 10**400:
        return f"{noun} must be finite"
    return f"{noun} must be an integer, got {junk!r}"


def entry(noun, junk):
    if is_number(junk):
        return f"{noun} must be finite, got {as_float(junk)!r}"
    return f"{noun} must be numbers, got {junk!r}"


def triple(noun, value, junk):
    if is_number(junk) and value is not junk:  # a number entry; the whole argument is no triple
        return f"{noun} must be finite, got {value!r}"
    return f"{noun} must be three numbers, got {value!r}"


def amount(junk):
    # None is the constructor's "no amount given".
    return "parallel shift takes a single amount" if junk is None else number("shift amount", junk)


def point(points, middle, junk):
    if is_number(junk):
        return f"points must be finite, got {tuple(map(as_float, middle))!r}"
    return f"points must be (x, v) pairs of numbers, got {points!r}"


SWAPS = SwapCurve((0.02, 0.025, 0.03))
ZEROS = ZeroCurve((1.0, 2.0, 3.0), (0.02, 0.025, 0.04))
BASE = bootstrap(SWAPS)
ZERO_FLY = zero_butterfly(1, 2, 3)
SWAP_FLY = swap_butterfly(SWAPS, (1, 2, 3))
POINTS = ((1.0, 0.02), (2.0, 0.025), (3.0, 0.04))
SAMPLERS = (random_discount_curve, random_swap_curve, random_nondecreasing_swap_curve)

# (callable, parameter, call with the junk value, expected message of a junk value)
SCALARS = [
    ("zero_price", "y", lambda j: zero_price(j, 2), lambda j: number("yield", j)),
    ("zero_price", "t", lambda j: zero_price(0.01, j), lambda j: number("maturity", j)),
    (
        "zero_yield_from_price",
        "p",
        lambda j: zero_yield_from_price(j, 2),
        lambda j: number("discount factor", j),
    ),
    (
        "zero_yield_from_price",
        "t",
        lambda j: zero_yield_from_price(0.9, j),
        lambda j: number("maturity", j),
    ),
    ("ZeroCurve.yield_at", "t", lambda j: ZEROS.yield_at(j), lambda j: number("tenor", j)),
    (
        "validate",
        "tol",
        lambda j: validate(BASE, j),
        lambda j: tolerance("validation tolerance", j),
    ),
    *[
        (name, "tol", call, lambda j: tolerance("classification tolerance", j))
        for name, call in [
            ("classify_triple", lambda j: classify_triple(POINTS, j)),
            ("scan_curve_shape", lambda j: scan_curve_shape(POINTS, tol=j)),
            ("scan_arbitrage", lambda j: scan_arbitrage(ZEROS, tol=j)),
        ]
    ],
    *[
        ("zero_butterfly", f"t{i}", call, lambda j, i=i: number(f"t{i}", j))
        for i, call in [
            (1, lambda j: zero_butterfly(j, 2, 3)),
            (2, lambda j: zero_butterfly(1, j, 3)),
            (3, lambda j: zero_butterfly(1, 2, j)),
        ]
    ],
    (
        "zero_butterfly_pnl",
        "shift",
        lambda j: zero_butterfly_pnl(ZERO_FLY, (0.02, 0.025, 0.04), j, 0.5),
        lambda j: number("shift amount", j),
    ),
    (
        "zero_butterfly_pnl",
        "horizon",
        lambda j: zero_butterfly_pnl(ZERO_FLY, (0.02, 0.025, 0.04), 0.01, j),
        lambda j: number("horizon", j),
    ),
    (
        "swap_butterfly_pnl",
        "shift",
        lambda j: swap_butterfly_pnl(SWAP_FLY, SWAPS, j, 0.5),
        lambda j: number("shift amount", j),
    ),
    (
        "swap_butterfly_pnl",
        "horizon",
        lambda j: swap_butterfly_pnl(SWAP_FLY, SWAPS, 0.01, j),
        lambda j: number("horizon", j),
    ),
    *[
        (name, "amount", call, lambda j: amount(j))
        for name, call in [
            ("ShiftScenario", lambda j: ShiftScenario("parallel", amount=j)),
            ("ShiftScenario.parallel", ShiftScenario.parallel),
        ]
    ],
    (
        "ShiftScenario.amounts_for",
        "n",
        lambda j: ShiftScenario.parallel(0.01).amounts_for(j),
        lambda j: whole("curve length", j),
    ),
    *[
        (check.__name__, "y", lambda j, check=check: check(SWAPS, j), lambda j: number("rise y", j))
        for check in (
            check_parallel_brackets,
            check_parallel_discount_drop,
            check_annuity_ratio_decreasing,
        )
    ],
    *[
        (sampler.__name__, param, call, expect)
        for sampler in SAMPLERS
        for param, call, expect in [
            ("n", lambda j, s=sampler: s(Random(1), j), lambda j: whole("curve length", j)),
            ("f_lo", lambda j, s=sampler: s(Random(1), 5, j, 0.1), lambda j: number("f_lo", j)),
            ("f_hi", lambda j, s=sampler: s(Random(1), 5, 0.01, j), lambda j: number("f_hi", j)),
        ]
    ],
    (
        "verify_trials",
        "trials",
        lambda j: verify_trials(SWAPS, ShiftScenario.parallel(0.01), j),
        lambda j: whole("trials", j),
    ),
    (
        "verify_trials",
        "seed",
        lambda j: verify_trials(SWAPS, ShiftScenario.parallel(0.01), 1, j),
        lambda j: whole("seed", j),
    ),
]

# (callable, parameter, call with the whole argument, valid argument, expected message)
TRIPLES = [
    (
        "zero_butterfly_pnl",
        "yields",
        lambda v: zero_butterfly_pnl(ZERO_FLY, v, 0.01, 0.5),
        (0.02, 0.025, 0.04),
        lambda v, j: triple("yields", v, j),
    ),
    *[
        ("nonparallel_weights", name, call, valid, lambda v, j, name=name: triple(name, v, j))
        for name, call, valid in [
            ("moves", lambda v: nonparallel_weights(v, (1.0, 2.0, 3.0)), (0.01, 0.01, 0.02)),
            ("maturities", lambda v: nonparallel_weights((0.01, 0.01, 0.02), v), (1.0, 2.0, 3.0)),
        ]
    ],
    *[
        (
            "nonparallel_safe",
            name,
            lambda v, name=name: nonparallel_safe(
                **{
                    "weights": (1.0, 2.0, 1.0),
                    "maturities": (1.0, 2.0, 3.0),
                    "yields": (0.02, 0.025, 0.04),
                    "moves": (0.01, 0.01, 0.01),
                    name: v,
                }
            ),
            valid,
            lambda v, j, name=name: triple(name, v, j),
        )
        for name, valid in [
            ("weights", (1.0, 2.0, 1.0)),
            ("maturities", (1.0, 2.0, 3.0)),
            ("yields", (0.02, 0.025, 0.04)),
            ("moves", (0.01, 0.01, 0.01)),
        ]
    ],
    *[
        (name, "indices", call, (1, 2, 3), lambda v, j: f"need 1 <= n < m < k <= 3, got {v}")
        for name, call in [
            ("swap_butterfly", lambda v: swap_butterfly(SWAPS, v)),
            ("annuity_point_classification", lambda v: annuity_point_classification(BASE, BASE, v)),
        ]
    ],
]

# (callable, parameter, call with the sequence, valid sequence, expected message of an entry)
SEQUENCES = [
    ("SwapCurve", "rates", SwapCurve, (0.02, 0.025, 0.03), lambda s, j: entry("rates", j)),
    ("DiscountCurve", "factors", DiscountCurve, (0.9, 0.8, 0.7), lambda s, j: entry("factors", j)),
    ("ForwardCurve", "forwards", ForwardCurve, (0.02, 0.03, 0.04), lambda s, j: entry("forwards", j)),
    (
        "ZeroCurve",
        "tenors",
        lambda s: ZeroCurve(s, (0.02, 0.025, 0.04)),
        (1.0, 2.0, 3.0),
        lambda s, j: entry("tenors", j),
    ),
    (
        "ZeroCurve",
        "yields",
        lambda s: ZeroCurve((1.0, 2.0, 3.0), s),
        (0.02, 0.025, 0.04),
        lambda s, j: entry("yields", j),
    ),
    (
        "ShiftScenario",
        "amounts",
        lambda s: ShiftScenario("per_tenor", amounts=s),
        (0.01, 0.01, 0.01),
        lambda s, j: entry("shift amounts", j),
    ),
    (
        "ShiftScenario.per_tenor",
        "amounts",
        ShiftScenario.per_tenor,
        (0.01, 0.01, 0.01),
        lambda s, j: entry("shift amounts", j),
    ),
]

POINT_SCANS = [("classify_triple", classify_triple), ("scan_curve_shape", scan_curve_shape)]


def cases():
    for name, param, call, expect in SCALARS:
        for jid, junk in JUNK.items():
            yield pytest.param(call, junk, expect(junk), id=f"{name}-{param}-{jid}")
    for name, param, call, valid, expect in TRIPLES:
        for jid, junk in JUNK.items():
            yield pytest.param(call, junk, expect(junk, junk), id=f"{name}-{param}-{jid}")
            value = (valid[0], junk, valid[2])
            yield pytest.param(call, value, expect(value, junk), id=f"{name}-{param}[1]-{jid}")
    for name, param, call, valid, expect in SEQUENCES:
        for jid, junk in JUNK.items():
            value = (valid[0], junk, valid[2])
            yield pytest.param(call, value, expect(value, junk), id=f"{name}-{param}[1]-{jid}")
    for name, call in POINT_SCANS:
        for coord in (0, 1):
            for jid, junk in JUNK.items():
                middle = (junk, 0.025) if coord == 0 else (2.0, junk)
                value = (POINTS[0], middle, POINTS[2])
                expected = point(value, middle, junk)
                yield pytest.param(call, value, expected, id=f"{name}-points[1][{coord}]-{jid}")


@pytest.mark.parametrize("call, argument, message", cases())
def test_junk_number_is_a_value_error_naming_the_parameter(call, argument, message):
    with pytest.raises(ValueError) as exc:
        call(argument)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


# The records and exceptions the library builds hold the values they are given; the rule
# covers the arguments of functions, methods and the constructors of curves and scenarios.
BUILT_BY_THE_LIBRARY = {
    "ArbitrageCandidate", "BootstrapError", "Butterfly", "CheckResult", "CurveFile",
    "CurveFileError", "PnlBreakdown", "SafetyCheck", "ShapeReport", "TripleClassification",
    "ValidationReport", "Violation",
}


def annotated_number_parameters():
    """(callable, parameter) of every public parameter annotated as a number or triple."""
    found = set()
    publics = [(name, getattr(curvekit, name)) for name in curvekit.__all__]
    publics += [(f.__name__, f) for f in (*SAMPLERS, verify_trials)]
    for name, obj in publics:
        if name in BUILT_BY_THE_LIBRARY or not callable(obj):
            continue
        calls = [(name, obj)]
        if inspect.isclass(obj):
            calls = [(name, obj.__init__)]
            methods = [(m, getattr(obj, m)) for m in vars(obj) if m[0] != "_"]
            calls += [(f"{name}.{m}", fn) for m, fn in methods if callable(fn)]
        for label, fn in calls:
            for param in inspect.signature(fn).parameters.values():
                if re.search(r"\b(float|int|Triple)\b", str(param.annotation)):
                    found.add((label, param.name))
    return found


def test_the_table_covers_every_annotated_number_parameter_once():
    listed = [(name, param) for name, param, *_ in SCALARS + TRIPLES + SEQUENCES]
    listed += [(name, "points") for name, _ in POINT_SCANS]
    assert len(set(listed)) == len(listed)
    assert annotated_number_parameters() <= set(listed)


class Refuses:
    """A value whose __float__ raises, as a numpy array of several entries does."""

    def __float__(self):
        raise TypeError("only length-1 arrays can be converted")

    def __repr__(self):
        return "Refuses()"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: zero_price(Refuses(), 2), "yield must be a number, got Refuses()"),
        (lambda: SwapCurve((0.02, Refuses())), "rates must be numbers, got Refuses()"),
        (lambda: SwapCurve(None), "rates must be a sequence of numbers, got None"),
        (lambda: SwapCurve(0.02), "rates must be a sequence of numbers, got 0.02"),
        (lambda: DiscountCurve("0.9"), "factors must be numbers, got '0'"),  # its characters
    ],
    ids=["refusing-float", "refusing-float-entry", "none-curve", "scalar-curve", "text-curve"],
)
def test_values_that_are_no_numbers_or_sequences_are_named(call, message):
    # A refusing __float__ read as "yield must be finite"; None read as an empty curve.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
