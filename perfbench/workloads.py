"""Seeded inputs and the request schedule of each workload.

Every input curve comes from ``curvekit.sampling`` with a generator
derived from the workload seed and the file's name, and is written to
the work directory at set-up; the program sees only those files and
flags.  A workload is a *round*: a fixed list of requests that the
runner repeats until the measuring time is up.

Where request types differ in cost, a round has a light band (two thirds
to three quarters of its requests) and a heavy band: the median then
falls well inside the light band and the tail percentile well inside the
heavy one, instead of on the edge between two request types, where it
would jump from run to run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import accumulate
from random import Random
from typing import Callable

import checks

CLI_BATCH = "cli-batch"
VERIFY_TRIALS = "verify-trials"
SCAN_ALL = "scan-all"
LIBRARY_SCALE = "library-scale"
WORKLOADS = (CLI_BATCH, VERIFY_TRIALS, SCAN_ALL, LIBRARY_SCALE)

# Tail percentile per workload: low enough to leave at least ten
# requests beyond it in a 30-second run at the commit that set the
# benchmark.  It is fixed, so a faster program does not move the tail
# to a higher percentile.
TAIL_PCT = {CLI_BATCH: 90.0, VERIFY_TRIALS: 83.0, SCAN_ALL: 75.0, LIBRARY_SCALE: 90.0}

# verify-trials sizes: trials per request, set so the light band (N=30,
# and the N=20 requests whose trials the mirrored checks or a per-tenor
# shift keep cheap) costs the same per request, about half the heavy
# N=20 parallel-rise band.
TRIALS_N30 = 60
TRIALS_N20_DOWN = 16
TRIALS_N20_TENOR = 6
TRIALS_N20_UP = 20

# scan-all sizes: all-triples zero scan (light) and swap scan (heavy).
SCAN_ZERO_N = 45
SCAN_SWAP_N = 40
SCAN_SWAP_CURVES = 4

# library-scale sizes and the swap P&L shift grid (decimal).
LIB_SIZES = (100, 100, 100, 1000) * 8
LIB_SHIFTS = tuple(bp * 1e-4 for bp in range(-50, 51, 10))
LIB_HORIZON = 0.5


@dataclass(frozen=True)
class Request:
    """One request of a round.

    CLI requests carry ``argv`` (after ``curvekit``), the exit codes they
    accept and a ``check(stdout, exit_code)`` for the output invariants.
    Library requests carry ``call(ck)``, the timed call group, and
    ``judge(result)``, which returns (state, reason, fingerprint).
    """

    tag: str
    argv: tuple[str, ...] = ()
    expect: tuple[int, ...] = (0,)
    check: Callable | None = None
    error_line: bool = True
    known_defect: str | None = None
    n: int = 0
    trials: int = 0
    call: Callable | None = None
    judge: Callable | None = None


@dataclass(frozen=True)
class Round:
    requests: tuple[Request, ...]
    tail_pct: float
    in_process: bool = False


class Inputs:
    """Writes seeded curve files into one directory."""

    def __init__(self, directory: str, seed: int) -> None:
        self.directory = directory
        self.seed = seed
        os.makedirs(directory, exist_ok=True)

    def rng(self, name: str) -> Random:
        return Random(f"{self.seed}:{name}")

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def swap_csv(self, name: str, rates) -> str:
        lines = ["# seeded benchmark input", "tenor_years,rate"]
        lines += [f"{n},{x!r}" for n, x in enumerate(rates, start=1)]
        return self.text(name, "\n".join(lines) + "\n")

    def structured(self, name: str, curve_type: str, tenors, values) -> str:
        obj = {
            "curve_type": curve_type,
            "points": [{"t": t, "r": v} for t, v in zip(tenors, values)],
            "label": name,
        }
        return self.text(name, json.dumps(obj))

    def text(self, name: str, text: str) -> str:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return self.path(name)


def _zero_curve(ck, rng: Random, n: int):
    return ck.zeros_from_discounts(ck.sampling.random_discount_curve(rng, n))


def _discounts_of_yields(yields):
    return [(1.0 + y) ** -n for n, y in enumerate(yields, start=1)]


def _grid(lo: int, hi: int, step: int) -> list[float]:
    return [float(bp) for bp in range(lo, hi + 1, step)]


# -- cli-batch ------------------------------------------------------------


def cli_batch(ck, inputs: Inputs) -> Round:
    swaps = {n: ck.sampling.random_swap_curve(inputs.rng(f"rs{n}"), n).rates for n in (3, 20, 30)}
    rising = {
        n: ck.sampling.random_nondecreasing_swap_curve(inputs.rng(f"nd{n}"), n).rates
        for n in (3, 20, 30)
    }
    zeros = {n: _zero_curve(ck, inputs.rng(f"zero{n}"), n) for n in (20, 30)}
    disc20 = ck.sampling.random_discount_curve(inputs.rng("disc20"), 20).factors
    f = {}
    for n in (3, 20, 30):
        f[f"rs{n}"] = inputs.swap_csv(f"rs{n}.csv", swaps[n])
        f[f"nd{n}"] = inputs.swap_csv(f"nd{n}.csv", rising[n])
    for n, z in zeros.items():
        f[f"zero{n}"] = inputs.structured(f"zero{n}.json", "zero", [int(t) for t in z.tenors], z.yields)
    f["disc20"] = inputs.structured("disc20.json", "discount", range(1, 21), disc20)
    rng = inputs.rng("errors")
    bad_line = rng.randint(3, 12)
    rows = [f"{n},{x!r}" for n, x in enumerate(swaps[20], start=1)]
    rows[bad_line - 3] = f"{bad_line - 2},not-a-rate"
    f["malformed"] = inputs.text("malformed.csv", "tenor_years,rate\n" + "\n".join(rows) + "\n")
    broken = list(swaps[20])
    broken[rng.randint(4, 15)] = 0.0  # a zero par rate prices p_k at 1: not decreasing
    f["invalid"] = inputs.swap_csv("invalid20.csv", broken)

    boot = {n: checks.ref_bootstrap(swaps[n]) for n in (3, 20, 30)}
    z20 = zeros[20]
    legs = (2.0, 5.0, 9.0)
    y_legs = [checks.ref_yield_at(z20.tenors, z20.yields, t) for t in legs]
    zero_grid = _grid(-100, 100, 10)
    swap_grid = _grid(0, 200, 25)

    def req(tag, argv, check=None, **kw):
        return Request(tag, tuple(str(a) for a in argv), check=check, **kw)

    reqs = [
        req("bootstrap", ["bootstrap", f["rs3"]], lambda o, c: checks.check_bootstrap(o, swaps[3]), n=3),
        req("bootstrap", ["bootstrap", f["rs20"]], lambda o, c: checks.check_bootstrap(o, swaps[20]), n=20),
        req("bootstrap", ["bootstrap", f["rs30"]], lambda o, c: checks.check_bootstrap(o, swaps[30]), n=30),
        req("par", ["par", f["rs20"]], lambda o, c: checks.check_par(o, swaps[20]), n=20),
        req(
            "par",
            ["par", f["disc20"]],
            lambda o, c: checks.check_par(o, [(1 - p) / a for p, a in zip(disc20, accumulate(disc20))]),
            n=20,
        ),
        req("forwards", ["forwards", f["rs30"]], lambda o, c: checks.check_forwards(o, boot[30][0]), n=30),
        req(
            "forwards",
            ["forwards", f["zero20"]],
            lambda o, c: checks.check_forwards(o, _discounts_of_yields(z20.yields)),
            n=20,
        ),
        req("validate", ["validate", f["rs30"]], lambda o, c: checks.check_validate_clean(o), n=30),
        req("validate", ["validate", f["zero30"]], lambda o, c: checks.check_validate_clean(o), n=30),
        req("scan-consecutive", ["scan", f["rs30"], "--kind", "swap"], lambda o, c: checks.check_scan(o, "swap"), n=30),
        req(
            "scan-consecutive",
            ["scan", f["zero30"], "--kind", "zero"],
            lambda o, c: checks.check_zero_scan_consecutive(o, zeros[30].tenors, zeros[30].yields),
            n=30,
        ),
        req(
            "butterfly",
            ["butterfly", f["zero20"], "--legs", "2,5,9"],
            lambda o, c: checks.check_butterfly(o, "zero", legs),
            n=20,
        ),
        req(
            "butterfly",
            ["butterfly", f["nd20"], "--kind", "swap", "--legs", "2,5,9"],
            lambda o, c: checks.check_butterfly(o, "swap", (2, 5, 9), checks.ref_bootstrap(rising[20])[1]),
            n=20,
        ),
        req(
            "butterfly",
            ["butterfly", f["zero20"], "--legs", "2,5,9", "--moves", "40,50,60", "--horizon", "0.5"],
            lambda o, c: checks.check_butterfly(o, "zero", legs, moves=(40.0, 50.0, 60.0)),
            n=20,
        ),
        req(
            "pnl",
            ["pnl", f["zero20"], "--legs", "2,5,9", "--shift-bp", "-100:100:10", "--horizon", "0.5"],
            lambda o, c: checks.check_zero_pnl(o, legs, y_legs, zero_grid, 0.5),
            n=20,
        ),
        req(
            "pnl",
            ["pnl", f["nd20"], "--kind", "swap", "--legs", "2,5,9", "--shift-bp", "0:200:25", "--horizon", "1"],
            lambda o, c: checks.check_swap_pnl(o, swap_grid),
            n=20,
        ),
        req("verify", ["verify", f["nd3"]], checks.check_verify, n=3),
        req("verify", ["verify", f["nd20"]], checks.check_verify, n=20),
        req("verify", ["verify", f["nd30"]], checks.check_verify, n=30),
        req("error-malformed", ["bootstrap", f["malformed"]], expect=(2,), n=20),
        req("error-invalid", ["verify", f["invalid"]], expect=(1,), n=20),
        req(
            "error-invalid",
            ["validate", f["invalid"]],
            lambda o, c: checks.check_validate_findings(o),
            expect=(1,),
            error_line=False,
            n=20,
        ),
        req(
            "hostile-nan",
            ["verify", f["nd20"], "--shift-bp", "nan"],
            checks.check_verify,
            known_defect=checks.KNOWN_DEFECTS["nan_shift"],
            n=20,
        ),
        req(
            "hostile-inf",
            ["pnl", f["nd20"], "--kind", "swap", "--legs", "1,2,3", "--shift-bp", "0:inf:1"],
            lambda o, c: checks.check_swap_pnl(o),
            known_defect=checks.KNOWN_DEFECTS["inf_grid"],
            n=20,
        ),
    ]
    return Round(tuple(reqs), TAIL_PCT[CLI_BATCH])


# -- verify-trials --------------------------------------------------------


def verify_trials(ck, inputs: Inputs) -> Round:
    """Four light N=30 and two light N=20 requests per three heavy N=20 ones.

    The triple loop of an N=20 check stops at the first bad triple, and
    a perturbed trial whose shifted curve is invalid is skipped, so the
    cost of a request follows its curve.  As in ``scan_all``, the seed
    therefore draws only jitter around fixed shapes: one-year forwards
    rising linearly from ``lo`` to ``hi`` plus at most 1 bp.  On the
    rising curves no triple of any trial turns convex under +100 bp, so
    every N=20 check classifies all 1140 triples.  The low curve starts
    1 bp above the -60 bp shift, so the mirrored checks run on it and
    about three in five of its perturbed trials are skipped.
    """

    def rising(name, n, lo=0.01, hi=0.05):
        noise = _jitter(ck, inputs.rng(name), n, 1e-4)
        forwards = [lo + (hi - lo) * i / (n - 1) + e for i, e in enumerate(noise)]
        rates = ck.swap_rates_from_discounts(ck.DiscountCurve(_factors(forwards))).rates
        return inputs.swap_csv(f"{name}.csv", rates)

    low20 = rising("low20", 20, 0.0061, 0.02)
    tenor_shift = ",".join(repr(50.0 + 50.0 * i / 19) for i in range(20))

    def verify(tag, path, n, trials, seed, shift=None):
        argv = ["verify", path, "--trials", str(trials), "--seed", str(seed)]
        if shift is not None:
            argv[2:2] = ["--shift-bp", shift]
        return Request(tag, tuple(argv), check=checks.check_verify, n=n, trials=trials)

    up30 = [rising(f"up30{c}", 30) for c in "ab"]
    up20 = [rising(f"up20{c}", 20) for c in "abc"]
    seed = inputs.seed
    reqs = [
        verify("n30 +100bp", up30[0], 30, TRIALS_N30, seed),
        verify("n20 +100bp", up20[0], 20, TRIALS_N20_UP, seed),
        verify("n30 +100bp", up30[1], 30, TRIALS_N30, seed + 1),
        verify("n20 -60bp", low20, 20, TRIALS_N20_DOWN, seed, "-60"),
        verify("n20 +100bp", up20[1], 20, TRIALS_N20_UP, seed + 1),
        verify("n30 +100bp", up30[0], 30, TRIALS_N30, seed + 2),
        verify("n20 per-tenor", up20[2], 20, TRIALS_N20_TENOR, seed, tenor_shift),
        verify("n20 +100bp", up20[2], 20, TRIALS_N20_UP, seed + 2),
        verify("n30 +100bp", up30[1], 30, TRIALS_N30, seed + 3),
    ]
    return Round(tuple(reqs), TAIL_PCT[VERIFY_TRIALS])


def _factors(forwards) -> tuple[float, ...]:
    out, acc = [], 1.0
    for f in forwards:
        acc /= 1.0 + f
        out.append(acc)
    return tuple(out)


# -- scan-all -------------------------------------------------------------


def scan_all(ck, inputs: Inputs) -> Round:
    """Two zero scans (light) per swap scan (heavy), each on its own curve.

    A scan request costs in proportion to its convex triples: each one
    becomes an output row and, for swaps, a re-bootstrap.  On smooth
    sampled curves their share swings from seed to seed (standard
    deviation 0.15 at N=45), which moved the median by a fifth between
    seeds.  So the seed draws only jitter, as the one-year forwards of
    ``sampling.random_discount_curve``, around fixed shapes whose count
    of convex triples it cannot change:

    - zero yields 2% + 10 bp a year, jittered antisymmetrically about
      the middle tenor: each triple's mirror image has the opposite
      margin, so exactly half of the non-symmetric triples are convex;
    - par rates 2% + 5 bp a year plus at most 0.1 bp: rising linearly in
      the year, hence convex in the annuity, so nearly every triple is.

    Both stay valid for every seed (prices and discount factors fall).
    A 2:1 split puts the median and the tail a quarter band from the
    edges.
    """
    reqs = []
    for i in range(SCAN_SWAP_CURVES):
        for j in range(2):
            name = f"zero{i}{j}"
            half = [e - 2.5e-4 for e in _jitter(ck, inputs.rng(name), SCAN_ZERO_N // 2, 5e-4)]
            noise = half + [0.0] * (SCAN_ZERO_N % 2) + [-e for e in reversed(half)]
            yields = [0.02 + 0.001 * t + e for t, e in enumerate(noise, start=1)]
            path = inputs.structured(f"{name}.json", "zero", range(1, SCAN_ZERO_N + 1), yields)
            argv = ("scan", path, "--kind", "zero", "--mode", "all")
            reqs.append(Request(f"zero all n{SCAN_ZERO_N}", argv, check=_scan_check("zero"), n=SCAN_ZERO_N))
        noise = _jitter(ck, inputs.rng(f"swap{i}"), SCAN_SWAP_N, 1e-5)
        rates = [0.02 + 5e-4 * n + e for n, e in enumerate(noise, start=1)]
        path = inputs.swap_csv(f"swap{i}.csv", rates)
        argv = ("scan", path, "--kind", "swap", "--mode", "all")
        reqs.append(Request(f"swap all n{SCAN_SWAP_N}", argv, check=_scan_check("swap"), n=SCAN_SWAP_N))
    return Round(tuple(reqs), TAIL_PCT[SCAN_ALL])


def _jitter(ck, rng: Random, n: int, width: float) -> tuple[float, ...]:
    """n independent draws in (0, width]: sampled one-year forwards."""
    return ck.forward_rates(ck.sampling.random_discount_curve(rng, n, width * 1e-3, width)).forwards


def _scan_check(kind):
    return lambda stdout, code: checks.check_scan(stdout, kind, min_rows=1)


# -- library-scale --------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """Inputs of one library call group."""

    n: int
    swaps: object  # SwapCurve from random_swap_curve
    disc: object  # DiscountCurve from random_discount_curve
    pnl_swaps: object  # rising SwapCurve that stays valid across LIB_SHIFTS
    legs: tuple[int, int, int]


def library_scale(ck, inputs: Inputs) -> Round:
    reqs = []
    for i, n in enumerate(LIB_SIZES):
        g = Group(
            n,
            ck.sampling.random_swap_curve(inputs.rng(f"lib-swap{i}"), n),
            ck.sampling.random_discount_curve(inputs.rng(f"lib-disc{i}"), n),
            # Shifting par rates moves long forwards by about the shift
            # times the annuity, so at n=100 only a tight forward band keeps
            # every shifted curve of the grid valid.
            ck.sampling.random_nondecreasing_swap_curve(inputs.rng(f"lib-pnl{i}"), n, 0.03, 0.06),
            (n // 4, n // 2, 3 * n // 4),
        )
        reqs.append(
            Request(
                f"group n{n}",
                n=n,
                call=lambda ck, g=g: call_group(ck, g),
                judge=lambda result, g=g: judge_group(g, result),
            )
        )
    return Round(tuple(reqs), TAIL_PCT[LIBRARY_SCALE], in_process=True)


def call_group(ck, g: Group) -> dict:
    """The timed library calls of one group; refused calls are kept as results."""
    out = {}
    disc = ck.bootstrap(g.swaps)
    out["round_trip"] = ck.swap_rates_from_discounts(disc)
    out["validate"] = ck.validate(disc)
    out["forwards"] = ck.forward_rates(g.disc)
    out["par"] = ck.par_rates(g.disc)
    zeros = ck.zeros_from_discounts(g.disc)
    out["rediscount"] = ck.discounts_from_zeros(zeros)
    try:
        fly = ck.swap_butterfly(g.pnl_swaps, g.legs)
        out["pnl"] = [ck.swap_butterfly_pnl(fly, g.pnl_swaps, s, LIB_HORIZON) for s in LIB_SHIFTS]
    except ValueError as exc:
        out["pnl"] = exc
    out["zero_scan"] = ck.scan_arbitrage(zeros, "zero_bond", "consecutive")
    try:
        out["swap_scan"] = ck.scan_arbitrage(g.swaps, "swap", "consecutive")
    except ValueError as exc:
        out["swap_scan"] = exc
    return out


def judge_group(g: Group, out: dict) -> tuple[str, str, bytes]:
    """Check one group's results: (state, reason, fingerprint)."""
    known = []
    try:
        checks.require(
            all(abs(a - b) <= 1e-12 for a, b in zip(out["round_trip"].rates, g.swaps.rates)),
            "bootstrap round trip misses 1e-12",
        )
        if not out["validate"].ok:
            checks.require(g.n == 1000, f"validate flags a sampled n={g.n} curve")
            known.append(checks.KNOWN_DEFECTS["validate_n1000"])
        factors = g.disc.factors
        want_f = checks.ref_forwards(factors)
        checks.require(
            all(checks.close(a, b, 0.0, 1e-12) for a, b in zip(out["forwards"].forwards, want_f)),
            "forward rates differ from the reference",
        )
        want_par = [(1.0 - p) / a for p, a in zip(factors, g.disc.annuities)]
        checks.require(
            all(checks.close(a, b, 0.0, 1e-12) for a, b in zip(out["par"].rates, want_par)),
            "par rates differ from the reference",
        )
        checks.require(
            all(checks.close(a, b, 0.0, 1e-12) for a, b in zip(out["rediscount"].factors, factors)),
            "zero/discount round trip misses 1e-12",
        )
        pnl = out["pnl"]
        if isinstance(pnl, Exception):
            checks.require(g.n == 1000, f"swap butterfly refused at n={g.n}: {pnl}")
            known.append(checks.KNOWN_DEFECTS["swap_pnl_n1000"])
        else:
            checks.require(len({p.carry for p in pnl}) == 1, "carry depends on the shift")
            for p, s in zip(pnl, LIB_SHIFTS):
                checks.require(p.total == p.carry + p.mark_to_market, "total != carry + mark")
                checks.require(s != 0.0 or p.mark_to_market == 0.0, "mark-to-market at zero shift")
        _check_candidates(out["zero_scan"], min_rows=1)
        swap_scan = out["swap_scan"]
        if isinstance(swap_scan, Exception):
            checks.require(g.n == 1000, f"swap scan refused at n={g.n}: {swap_scan}")
            known.append(checks.KNOWN_DEFECTS["swap_scan_n1000"])
        else:
            _check_candidates(swap_scan)
    except checks.CheckError as exc:
        return checks.FAILED, str(exc), b""
    fingerprint = repr(
        [(k, v if not isinstance(v, Exception) else repr(v)) for k, v in sorted(out.items())]
    ).encode()
    if known:
        return checks.KNOWN, "; ".join(known), fingerprint
    return checks.OK, "", fingerprint


def _check_candidates(cands, min_rows: int = 0) -> None:
    checks.require(len(cands) >= min_rows, "scan found no convex triple")
    prev = math.inf
    for c in cands:
        checks.require(0.0 < c.margin <= prev, "scan margins not sorted descending")
        prev = c.margin
        w1, w2, w3 = c.butterfly.weights
        checks.require(w1 + w3 == w2, "butterfly weights break w1 + w3 = w2")


BUILDERS = {
    CLI_BATCH: cli_batch,
    VERIFY_TRIALS: verify_trials,
    SCAN_ALL: scan_all,
    LIBRARY_SCALE: library_scale,
}
