"""End-to-end acceptance suite.

One test per numbered criterion, each enforcing its stated tolerance and
printing a single pass/fail line (run with ``pytest -s`` to see them).
Expected values are derived from closed forms or explicit formulas inside
each test, independent of the code paths under scrutiny.
"""

import time
from itertools import combinations
from random import Random

from clirun import run_cli

from curvekit.bootstrap import ShiftScenario, bootstrap, shifted_bootstrap, swap_rates_from_discounts
from curvekit.butterfly import scan_arbitrage, swap_butterfly, swap_butterfly_pnl, zero_butterfly, zero_butterfly_pnl
from curvekit.curves import DiscountCurve, SwapCurve, ZeroCurve, par_rates, validate, zeros_from_discounts
from curvekit.sampling import random_nondecreasing_swap_curve, random_swap_curve
from curvekit.shape import CONCAVE_EVERYWHERE, CONVEX, annuity_point_classification, classify_triple, scan_curve_shape

BP = 1e-4


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {criterion:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {criterion}: {name}{suffix}"


def test_criterion_1_bootstrap_round_trip():
    rng = Random(1001)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 60)
        swaps = random_swap_curve(rng, n)
        assert all(0.001 <= x <= 0.12 for x in swaps.rates)
        recovered = swap_rates_from_discounts(bootstrap(swaps))
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(swaps.rates, recovered.rates)),
        )
    elapsed = time.perf_counter() - started
    report(
        1,
        "bootstrap round trip on 1000 random curves",
        worst < 1e-12 and elapsed < 5.0,
        f"max error {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_flat_curve_identities():
    worst = 0.0
    for x in (0.001, 0.013, 0.05, 0.12):
        factors = bootstrap(SwapCurve((x,) * 100)).factors
        for n, p in enumerate(factors, start=1):
            worst = max(worst, abs(p - (1.0 + x) ** (-n)))
        flat_zero = DiscountCurve(tuple((1.0 + x) ** (-n) for n in range(1, 101)))
        for s in par_rates(flat_zero).rates:
            worst = max(worst, abs(s - x))
    report(
        2,
        "flat-curve identities to N=100",
        worst < 1e-12,
        f"max deviation {worst:.3e}",
    )


def test_criterion_3_signed_shift_annuity_bounds():
    rng = Random(3003)
    violations = 0
    for _ in range(10_000):
        n = rng.randint(1, 30)
        swaps = random_swap_curve(rng, n)
        amounts = tuple(rng.uniform(0.0, 0.02) for _ in range(n))
        base = bootstrap(swaps).annuities
        up = shifted_bootstrap(swaps, ShiftScenario.per_tenor(amounts)).annuities
        down = shifted_bootstrap(
            swaps, ShiftScenario.per_tenor(tuple(-a for a in amounts))
        ).annuities
        for b, u, d in zip(base, up, down):
            if u > b + 1e-12 or d < b - 1e-12:
                violations += 1
    report(
        3,
        "signed shifts bound annuities on 10000 pairs",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_4_parallel_rise_decompositions():
    rng = Random(4004)
    violations = []
    for _ in range(200):
        n = rng.randint(1, 60)
        swaps = random_swap_curve(rng, n)
        base = bootstrap(swaps)
        for y_bp in (1, 10, 100, 500):
            y = y_bp * BP
            shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(y))
            prev_ratio = None
            for i in range(n):
                p_b, a_b = base.factors[i], base.annuities[i]
                p_s, a_s = shifted.factors[i], shifted.annuities[i]
                b1 = p_b / a_b - p_s / a_s
                b2 = 1.0 / a_s - 1.0 / a_b
                if abs(b1 + b2 - y) > 1e-12:
                    violations.append(("sum", i + 1))
                if b1 < -1e-12 or b1 > y + 1e-12 or b2 < -1e-12 or b2 > y + 1e-12:
                    violations.append(("bracket", i + 1))
                if not p_s < p_b:
                    violations.append(("drop", i + 1))
                ratio = a_s / a_b
                if prev_ratio is not None and not ratio < prev_ratio:
                    violations.append(("ratio", i + 1))
                prev_ratio = ratio
            # year-1 degeneracy is exact: first bracket 0, second the full y
            b1_first = base.factors[0] / base.annuities[0] - shifted.factors[0] / shifted.annuities[0]
            b2_first = 1.0 / shifted.annuities[0] - 1.0 / base.annuities[0]
            if b1_first != 0.0 or abs(b2_first - y) > 1e-12:
                violations.append(("degeneracy", 1))
    report(
        4,
        "parallel-rise bracket/drop/ratio suite",
        not violations,
        f"{len(violations)} violations",
    )


def test_criterion_5_ratio_and_triple_equivalence():
    rng = Random(5005)
    violations = []
    for _ in range(150):
        n = rng.randint(3, 20)
        swaps = random_nondecreasing_swap_curve(rng, n)
        y = rng.choice((0.0001, 0.001, 0.01, 0.05))
        base = bootstrap(swaps)
        shifted = shifted_bootstrap(swaps, ShiftScenario.parallel(y))
        ratios = [s / b for s, b in zip(shifted.factors, base.factors)]
        for i, (r, r_next) in enumerate(zip(ratios, ratios[1:]), start=1):
            if r_next > r + 1e-12:
                violations.append(("ratio", i))
        for idx in combinations(range(1, n + 1), 3):
            if annuity_point_classification(base, shifted, idx).verdict == CONVEX:
                violations.append(("triple", idx))
    # Constructed counterexample: a +10bp bump on one interior tenor makes
    # the factor ratio rise at the bump and a convex annuity triple appear.
    swaps = SwapCurve((0.05,) * 8)
    amounts = [0.0] * 8
    amounts[3] = 0.001
    base = bootstrap(swaps)
    shifted = shifted_bootstrap(swaps, ShiftScenario.per_tenor(amounts))
    ratios = [s / b for s, b in zip(shifted.factors, base.factors)]
    rises = any(r_next > r + 1e-12 for r, r_next in zip(ratios, ratios[1:]))
    convex = any(
        annuity_point_classification(base, shifted, idx).verdict == CONVEX
        for idx in combinations(range(1, 9), 3)
    )
    if not (rises and convex):
        violations.append(("counterexample", 0))
    report(
        5,
        "factor-ratio monotonicity matches annuity-triple shape",
        not violations,
        f"{len(violations)} violations",
    )


def test_criterion_6_parallel_move_profit_grid():
    started = time.perf_counter()
    cases = {
        (1.0, 2.0, 3.0): [(0.02, 0.025, 0.04), (0.02, 0.03, 0.04)],
        (2.0, 5.0, 10.0): [(0.02, 0.022, 0.034), (0.02, 0.035, 0.06)],
        (1.0, 5.0, 30.0): [(0.02, 0.021, 0.035), (0.02, 0.022, 0.0345)],
    }
    violations = []
    for legs, yield_sets in cases.items():
        fly = zero_butterfly(*legs)
        for yields in yield_sets:
            cls = classify_triple(tuple(zip(legs, yields)))
            assert cls.verdict in ("convex", "affine")
            span = legs[2] - legs[0]
            slope_gap = yields[2] - yields[0]
            for step_bp in range(-500, 501):
                a = step_bp * BP
                for t in (0.0, 0.25, 0.5, 1.0):
                    value = zero_butterfly_pnl(fly, yields, a, t)
                    if value < -1e-12:
                        violations.append((legs, yields, a, t, value))
                    if a != 0.0:
                        # Strictness holds away from the affine coincidence
                        # a * (T3 - T1) = t * (y3 - y1), where the value is
                        # an exact zero.
                        at_coincidence = abs(a * span - t * slope_gap) <= 1e-12
                        if cls.verdict == "convex" or not at_coincidence:
                            if not value > 0.0:
                                violations.append((legs, yields, a, t, value))
                        elif abs(value) > 1e-12:
                            violations.append((legs, yields, a, t, value))
    spot = zero_butterfly_pnl(zero_butterfly(1, 2, 3), (0.02, 0.03, 0.04), 0.01, 0.0)
    spot_ok = abs(spot - 9.802e-5) < 1e-8
    elapsed = time.perf_counter() - started
    report(
        6,
        "zero-butterfly profit over the shift grid",
        not violations and spot_ok and elapsed < 10.0,
        f"{len(violations)} violations, spot {spot:.6e}, {elapsed:.2f}s",
    )


def _increasing_convex_curves(rng: Random):
    """Strictly increasing valid curves carrying convex (annuity, rate) triples."""
    curves = []
    # Power-shaped rate profiles are convex in the year index and hence in
    # the (concave, increasing) annuity, guaranteeing convex triples.
    for n, power in ((6, 2.0), (10, 1.8), (8, 3.0)):
        rates = tuple(
            0.02 + 0.04 * ((k - 1) / (n - 1)) ** power for k in range(1, n + 1)
        )
        curves.append(SwapCurve(rates))
    attempts = 0
    while len(curves) < 40 and attempts < 400:
        attempts += 1
        n = rng.randint(4, 12)
        candidate = random_nondecreasing_swap_curve(rng, n, f_lo=0.02, f_hi=0.09)
        if any(b <= a for a, b in zip(candidate.rates, candidate.rates[1:])):
            continue
        curves.append(candidate)
    return curves


def test_criterion_7_swap_butterfly_sign():
    rng = Random(7007)
    tested = 0
    violations = []
    for swaps in _increasing_convex_curves(rng):
        if not validate(bootstrap(swaps)).ok:
            continue
        disc = bootstrap(swaps)
        points = tuple(zip(disc.annuities, swaps.rates))
        convex_triples = [
            idx
            for idx in combinations(range(1, len(swaps) + 1), 3)
            if classify_triple(tuple(points[i - 1] for i in idx)).verdict == "convex"
        ]
        for idx in convex_triples[:5]:
            fly = swap_butterfly(swaps, idx)
            for y_bp in (-100, -10, -1, 1, 10, 100):
                pnl = swap_butterfly_pnl(fly, swaps, y_bp * BP, 1.0)
                tested += 1
                if not pnl.carry > 0.0:
                    violations.append(("carry", idx, y_bp))
                if pnl.mark_to_market < -1e-12:
                    violations.append(("mtm", idx, y_bp))
    report(
        7,
        "convex swap triples earn carry with bounded mark-to-market",
        tested >= 100 and not violations,
        f"{tested} evaluations, {len(violations)} violations",
    )


def test_criterion_8_front_bump_sign_pattern():
    ok = True
    for x in (0.02, 0.05, 0.08):
        for n in (3, 10, 50):
            base = bootstrap(SwapCurve((x,) * n)).factors
            amounts = (0.001,) + (0.0,) * (n - 1)
            bumped = shifted_bootstrap(
                SwapCurve((x,) * n), ShiftScenario.per_tenor(amounts)
            ).factors
            ok = ok and bumped[0] < base[0]
            ok = ok and all(b > f for f, b in zip(base[1:], bumped[1:]))
    report(8, "one-year +10bp bump lowers p1 and raises the rest", ok)


def test_criterion_9_scanner_matches_shape_scan():
    rng = Random(9009)
    mismatches = 0
    for trial in range(1000):
        n = rng.randint(3, 12)
        swaps = random_swap_curve(rng, n)
        zero = zeros_from_discounts(bootstrap(swaps))
        if trial % 2:
            # Push one yield up, which turns triples with that tenor on a
            # wing convex; halve the push until the zero prices still
            # decrease strictly so the curve keeps passing validation.
            pos = rng.randrange(n)
            delta = rng.uniform(0.0005, 0.004)
            while delta > 1e-7:
                yields = list(zero.yields)
                yields[pos] += delta
                prices = [
                    (1.0 + y) ** (-t) for t, y in zip(zero.tenors, yields)
                ]
                if all(b < a for a, b in zip([1.0] + prices, prices)):
                    zero = ZeroCurve(zero.tenors, tuple(yields))
                    break
                delta /= 2.0
        candidates = scan_arbitrage(zero, mode="all_triples")
        shape = scan_curve_shape(
            tuple(zip(zero.tenors, zero.yields)), mode="all_triples"
        )
        if (len(candidates) == 0) != (shape.overall == CONCAVE_EVERYWHERE):
            mismatches += 1
    report(
        9,
        "empty arbitrage scan matches concave-everywhere verdict",
        mismatches == 0,
        f"{mismatches} mismatches over 1000 curves",
    )


def test_criterion_10_cli_determinism_and_exit_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    failures = []

    def run(args, expect_code):
        first = run_cli(args)
        if run_cli(args) != first:
            failures.append(("nondeterministic", args))
        if first.code != expect_code:
            failures.append(("exit", args, first.code))
        return first

    with open("flat.csv", "w") as fh:
        fh.write("tenor_years,rate\n1,0.05\n2,0.05\n3,0.05\n")
    with open("kink.json", "w") as fh:
        fh.write(
            '{"curve_type": "zero", "points": [{"t": 1, "r": 0.02},'
            ' {"t": 2, "r": 0.025}, {"t": 3, "r": 0.04}]}'
        )
    with open("invalid.csv", "w") as fh:
        fh.write("tenor_years,rate\n1,0.2\n2,0.001\n")
    with open("broken.csv", "w") as fh:
        fh.write("tenor_years,rate\n1,0.05\nnot,a,row\n")

    boot = run(["bootstrap", "flat.csv"], 0)
    expected = ["n,swap_rate,discount_factor,annuity"]
    annuity = 0.0
    for n in (1, 2, 3):
        p = 1.05**-n
        annuity += p
        expected.append(f"{n},0.05,{format(p, '.12g')},{format(annuity, '.12g')}")
    if (boot.stdout, boot.stderr) != ("\n".join(expected) + "\n", ""):
        failures.append(("golden bootstrap", boot))

    run(["par", "flat.csv"], 0)
    run(["forwards", "flat.csv"], 0)
    run(["validate", "flat.csv"], 0)
    run(["scan", "kink.json", "--mode", "all"], 0)
    run(["butterfly", "kink.json", "--legs", "1,2,3", "--moves", "50,50,120"], 0)
    run(["pnl", "kink.json", "--legs", "1,2,3", "--shift-bp", "-300:300:150"], 0)
    run(
        ["verify", "flat.csv", "--shift-bp", "75", "--trials", "25", "--seed", "42"],
        0,
    )
    run(["bootstrap", "invalid.csv", "--strict"], 1)
    run(["scan", "kink.json", "--kind", "swap"], 1)
    run(["bootstrap", "broken.csv"], 2)
    run(["verify", "flat.csv", "--shift-bp", "10,0,0"], 1)
    report(
        10,
        "CLI commands deterministic with contracted exit codes",
        not failures,
        f"{len(failures)} failures",
    )
