"""Output checker: exit-code contract, output invariants, repeat identity.

Nothing here compares against a stored digest of curvekit's output, so a
deliberate behaviour change is not scored as a failure.  Numbers are
checked against the benchmark's own reference arithmetic (the recursions
in the README formula map) or against invariants of the output itself.

A request ends in one of three states:

- ``ok``: exit code as expected, invariants hold;
- ``known_defect``: a request listed in ``KNOWN_DEFECTS`` reproduced the
  defect (a traceback).  Once fixed, such a request is judged like any
  other, except that a clean error exit 1 or 2 is also ``ok``;
- ``failed``: anything else, with a one-line reason.
"""

from __future__ import annotations

import hashlib
import math

OK = "ok"
FAILED = "failed"
KNOWN = "known_defect"

VERIFY_ROWS = (
    "annuity_bound",
    "bracket_identity",
    "discount_drop",
    "annuity_ratio_decreasing",
    "discount_ratio_monotone",
    "annuity_triples",
)
VERIFY_STATUS = ("PASS", "FAIL", "SKIP")

# Requests known to fail at the commit that introduced the benchmark,
# with the ROADMAP open item that fixes them.
KNOWN_DEFECTS = {
    "nan_shift": "ROADMAP item 4: verify --shift-bp nan ends in a traceback",
    "inf_grid": "ROADMAP item 4: pnl --shift-bp 0:inf:1 ends in a traceback (OverflowError)",
    "validate_n1000": "ROADMAP item 4: validate flags random_swap_curve(n=1000) output (absolute 1e-12 tolerance)",
    "swap_scan_n1000": "ROADMAP item 4: scan_arbitrage(kind=swap) refuses random_swap_curve(n=1000)",
    "swap_pnl_n1000": "ROADMAP item 4: strict bootstrap in swap_butterfly refuses random_swap_curve(n=1000)",
}

# CLI numbers carry 12 significant digits: a relative rounding of at most
# 5e-12 on top of the 1e-12 round-trip promise.
ABS_TOL = 1e-12
REL_TOL = 5e-12


class CheckError(Exception):
    """An output invariant does not hold."""


def close(got: float, want: float, abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> bool:
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- reference arithmetic -------------------------------------------------


def ref_bootstrap(rates):
    factors, annuities, acc = [], [], 0.0
    for x in rates:
        p = (1.0 - x * acc) / (1.0 + x)
        acc += p
        factors.append(p)
        annuities.append(acc)
    return factors, annuities


def ref_forwards(factors):
    prev, out = 1.0, []
    for p in factors:
        out.append(prev / p - 1.0)
        prev = p
    return out


def ref_yield_at(tenors, yields, t):
    for i, tt in enumerate(tenors):
        if tt == t:
            return yields[i]
        if tt > t:
            t0, y0 = tenors[i - 1], yields[i - 1]
            return y0 + (yields[i] - y0) * (t - t0) / (tt - t0)
    return yields[-1]


# -- CLI output parsing ---------------------------------------------------


def table(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.splitlines()
    require(bool(lines) and lines[0] == header, f"expected header {header!r}")
    return [line.split(",") for line in lines[1:]]


def numbers(row) -> list[float]:
    try:
        return [float(v) for v in row]
    except ValueError:
        raise CheckError(f"non-numeric field in row {row!r}") from None


def check_bootstrap(stdout: str, rates) -> None:
    rows = table(stdout, "n,swap_rate,discount_factor,annuity")
    require(len(rows) == len(rates), f"{len(rows)} rows for {len(rates)} rates")
    factors, annuities = ref_bootstrap(rates)
    for i, row in enumerate(rows):
        n, x, p, a = numbers(row)
        require(n == i + 1, f"row {i + 1} has n={n}")
        require(close(x, rates[i]), f"swap rate {x} != input {rates[i]} at {n}")
        require(close(p, factors[i]), f"discount factor {p} != {factors[i]} at {n}")
        require(close(a, annuities[i]), f"annuity {a} != {annuities[i]} at {n}")
        # bootstrap/par round trip on the printed numbers
        require(close((1.0 - p) / a, x, rel_tol=1e-10), f"par of row {n} misses the swap rate")


def check_par(stdout: str, rates) -> None:
    rows = table(stdout, "n,par_rate")
    require(len(rows) == len(rates), f"{len(rows)} rows for {len(rates)} rates")
    for i, row in enumerate(rows):
        n, s = numbers(row)
        require(n == i + 1 and close(s, rates[i]), f"par rate {s} != swap rate {rates[i]} at {n}")


def check_forwards(stdout: str, factors) -> None:
    rows = table(stdout, "interval_start,forward_rate")
    want = ref_forwards(factors)
    require(len(rows) == len(want), f"{len(rows)} rows for {len(want)} intervals")
    for i, row in enumerate(rows):
        start, f = numbers(row)
        require(start == i and close(f, want[i]), f"forward {f} != {want[i]} at {i}")


def check_validate_clean(stdout: str) -> None:
    require(stdout == "index,kind,value\n", "violations reported on a valid curve")


def check_validate_findings(stdout: str) -> None:
    rows = table(stdout, "index,kind,value")
    require(len(rows) > 0, "no violation reported on an invalid curve")


def check_scan(stdout: str, kind: str, min_rows: int = 0) -> None:
    """Scan rows: convex margins sorted descending, zero-cost weights."""
    rows = table(stdout, "leg1,leg2,leg3,margin,w1,w2,w3")
    require(len(rows) >= min_rows, f"only {len(rows)} convex triples")
    prev = math.inf
    for row in rows:
        l1, l2, l3, margin, w1, w2, w3 = numbers(row)
        require(l1 < l2 < l3, f"legs not increasing in {row!r}")
        require(0.0 < margin <= prev, f"margin {margin} out of order or not convex")
        prev = margin
        require(close(w1 + w3, w2, rel_tol=1e-11), f"w1 + w3 != w2 in {row!r}")
        if kind == "zero":
            require(
                close(w1, l3 - l2) and close(w3, l2 - l1),
                f"zero butterfly weights wrong in {row!r}",
            )


def check_zero_scan_consecutive(stdout: str, tenors, yields) -> None:
    """Consecutive zero scan: exactly the convex windows, by reference margin."""
    want = set()
    for i in range(len(tenors) - 2):
        (x1, x2, x3), (v1, v2, v3) = tenors[i : i + 3], yields[i : i + 3]
        if (x3 - x2) * (v1 - v2) + (x2 - x1) * (v3 - v2) > 1e-9:
            want.add((x1, x2, x3))
    check_scan(stdout, "zero")
    got = {tuple(numbers(row)[:3]) for row in table(stdout, "leg1,leg2,leg3,margin,w1,w2,w3")}
    require(got == want, f"{len(got)} convex windows reported, {len(want)} expected")


def check_butterfly(stdout: str, kind: str, legs, annuities=None, moves=None) -> None:
    lines = stdout.splitlines()
    require(len(lines) == 2, f"expected a header and one row, got {len(lines)} lines")
    row = lines[1].split(",")
    w1, w2, w3 = numbers(row[4:7])
    require(close(w1 + w3, w2, rel_tol=1e-11), "w1 + w3 != w2")
    if kind == "swap":
        a1, a2, a3 = numbers(row[7:10])
        want = [annuities[i - 1] for i in legs]
        require(all(close(g, w) for g, w in zip((a1, a2, a3), want)), "leg annuities wrong")
        require(close(w1, a3 - a2, rel_tol=1e-10) and close(w3, a2 - a1, rel_tol=1e-10), "swap weights wrong")
        return
    t1, t2, t3 = legs
    require(close(w1, t3 - t2) and close(w3, t2 - t1), "zero butterfly weights wrong")
    if moves is not None:
        m1, m2, m3 = (a * 1e-4 * t for a, t in zip(moves, legs))
        n1, n2, n3 = numbers(row[7:10])
        require(close(n1, m3 - m2) and close(n3, m2 - m1), "non-parallel weights wrong")
        ym, im = numbers(row[10:12])
        require(row[12] == ("true" if ym >= -1e-12 and im >= -1e-12 else "false"), "safe flag wrong")


def check_zero_pnl(stdout: str, legs, yields_at, shifts, horizon) -> None:
    rows = table(stdout, "shift_bp,horizon,value")
    require(len(rows) == len(shifts), f"{len(rows)} rows for {len(shifts)} shifts")
    t1, t2, t3 = legs
    w1, w3 = t3 - t2, t2 - t1
    y1, y2, y3 = yields_at
    for row, bp in zip(rows, shifts):
        s, h, v = numbers(row)
        a, t = bp * 1e-4, horizon
        want = (
            w1 * math.exp(-a * (t1 - t) + y1 * t)
            + w3 * math.exp(-a * (t3 - t) + y3 * t)
            - (w1 + w3) * math.exp(-a * (t2 - t) + y2 * t)
        )
        require(close(s, bp) and close(v, want, abs_tol=1e-11, rel_tol=1e-9), f"P&L {v} != {want} at {bp} bp")


def check_swap_pnl(stdout: str, shifts=None) -> None:
    """Swap P&L rows; ``shifts=None`` checks the invariants of whatever rows came."""
    rows = table(stdout, "shift_bp,carry,mark_to_market,total")
    if shifts is None:
        shifts = [numbers(row)[0] for row in rows]
    require(len(rows) == len(shifts), f"{len(rows)} rows for {len(shifts)} shifts")
    carries = set()
    for row, bp in zip(rows, shifts):
        s, carry, mark, total = numbers(row)
        require(close(s, bp), f"shift column {s} != {bp}")
        require(close(total, carry + mark, abs_tol=1e-11, rel_tol=1e-10), "total != carry + mark_to_market")
        if bp == 0:
            require(mark == 0.0, "mark-to-market is not zero at zero shift")
        carries.add(carry)
    require(len(carries) == 1, "carry depends on the shift")


def check_verify(stdout: str, exit_code: int) -> None:
    rows = table(stdout, "check,status,first_violation,detail")
    require(tuple(r[0] for r in rows) == VERIFY_ROWS, "verify rows are not the six named checks")
    statuses = [r[1] for r in rows]
    require(all(s in VERIFY_STATUS for s in statuses), f"bad verify status in {statuses}")
    require((exit_code == 1) == ("FAIL" in statuses), "exit code disagrees with FAIL rows")


# -- request outcome ------------------------------------------------------


def cli_outcome(request, exit_code: int, stdout: str, stderr: str) -> tuple[str, str]:
    """Classify one CLI request: (state, reason)."""
    traceback = "Traceback" in stderr
    err_lines = stderr.splitlines()
    clean_error = len(err_lines) == 1 and err_lines[0].startswith("error: ")
    if traceback:
        if request.known_defect is not None:
            return KNOWN, request.known_defect
        return FAILED, "traceback on stderr"
    if request.known_defect is not None and exit_code in (1, 2) and clean_error:
        return OK, ""  # fixed into a clean refusal
    if exit_code not in request.expect:
        return FAILED, f"exit {exit_code}, expected {request.expect}"
    if exit_code != 0 and request.error_line and not clean_error:
        return FAILED, "error exit without a one-line 'error:'"
    if request.check is not None:
        try:
            request.check(stdout, exit_code)
        except CheckError as exc:
            return FAILED, str(exc)
    return OK, ""


class RepeatLedger:
    """Output of a repeated request must be byte-identical to its first run."""

    def __init__(self) -> None:
        self.seen: dict[int, str] = {}

    def same(self, request, output: bytes) -> bool:
        digest = hashlib.sha256(output).hexdigest()
        return self.seen.setdefault(id(request), digest) == digest
