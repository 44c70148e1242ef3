"""Command-line interface.

Commands read a curve file (delimited or structured JSON, see
:mod:`curvekit.io`), run one analysis and emit a CSV table to stdout or
``--out``.  Rates on flags are in basis points and converted to decimals
at this boundary; everything below works in decimals.  Numeric output is
formatted to 12 significant digits so values round-trip at 1e-12.

Exit codes: 0 success, 1 domain or validation failure or unwritable
output, 2 unreadable or malformed input.  :class:`_ExitCodes` maps
refusals to them once, for every command.  Every command is
deterministic given its inputs and flags; randomized verification trials
derive their generators from the --seed value plus the trial index,
never from ambient randomness.
"""

from __future__ import annotations

import functools
import math
import sys
from random import Random

import click

from . import io as curve_io
from .bootstrap import ShiftScenario, bootstrap, shift_response, shifted_bootstrap
from .butterfly import (
    SWAP,
    ZERO_BOND,
    _scan_hits,
    nonparallel_safe,
    nonparallel_weights,
    swap_butterfly,
    swap_butterfly_pnl,
    zero_butterfly,
    zero_butterfly_pnl,
)
from .curves import (
    DiscountCurve,
    _require_valid,
    _violations,
    discounts_from_zeros,
    forward_rates,
    par_rates,
    validate,
)
from .sampling import perturb_swap_curve
from .shape import ALL_TRIPLES, CONSECUTIVE

BP = 1e-4

# Rows of the largest --shift-bp grid pnl builds; larger grids are refused
# before any row is allocated.
MAX_SHIFT_ROWS = 100_001

MAX_TRIALS = 100_000  # most verify trials one run takes: about 15 s at 0.15 ms each


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # collapse -0.0
    return format(x, ".12g")


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from None


def _require_finite(flag: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{flag} must be finite")


def _as_discounts(curve_file: curve_io.CurveFile) -> DiscountCurve:
    """Discount curve of any file type (swap files are bootstrapped)."""
    if curve_file.curve_type == curve_io.DISCOUNT:
        return curve_file.to_discount_curve()
    if curve_file.curve_type == curve_io.SWAP:
        return bootstrap(curve_file.to_swap_curve())
    return discounts_from_zeros(curve_file.to_zero_curve())


def _parse_triple(text: str, what: str, as_int: bool = False) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"{what} needs exactly three comma-separated values, got {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"could not parse {what} from {text!r}") from None
    _require_finite(what, *values)
    if as_int:
        if any(v != int(v) for v in values):
            raise ValueError(f"{what} must be whole grid years, got {text!r}")
        return tuple(int(v) for v in values)
    return values


def _parse_shift_range(text: str) -> list[float]:
    """Parse 'lo:hi:step' in basis points into an inclusive list."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--shift-bp must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"could not parse --shift-bp from {text!r}") from None
    _require_finite("--shift-bp", lo, hi, step)
    if step <= 0 or hi < lo:
        raise ValueError("--shift-bp needs step > 0 and hi >= lo")
    if not (hi - lo) / step + 1 <= MAX_SHIFT_ROWS:
        raise ValueError(f"--shift-bp grid exceeds {MAX_SHIFT_ROWS} rows")
    count = int(round((hi - lo) / step)) + 1
    return [lo + i * step for i in range(count)]


class _ExitCodes(click.Group):
    """The exit-code contract, decided in one place for every command.

    A curve file that cannot be read or parsed exits 2; any other refusal
    raised by a command or the library (ValueError, OverflowError) exits
    1.  Either way stderr carries one ``error:`` line and no traceback.
    """

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, OverflowError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if isinstance(exc, curve_io.CurveFileError) else 1)


@click.group(cls=_ExitCodes)
def main() -> None:
    """Yield-curve analytics: bootstrap, conversions, shape and butterflies."""


@main.command("bootstrap")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--strict", is_flag=True, help="Exit 1 on an invalid discount factor.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_bootstrap(path: str, strict: bool, out: str | None) -> None:
    """Swap rates to discount factors and annuities."""
    swaps = curve_io.read_curve_file(path, curve_io.SWAP).to_swap_curve()
    curve = bootstrap(swaps, strict=strict)
    lines = ["n,swap_rate,discount_factor,annuity"]
    for n, (x, p, a) in enumerate(
        zip(swaps.rates, curve.factors, curve.annuities), start=1
    ):
        lines.append(f"{n},{_fmt(x)},{_fmt(p)},{_fmt(a)}")
    _emit(lines, out)


@main.command("par")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--curve-type",
    type=click.Choice(curve_io.CURVE_TYPES),
    default=curve_io.SWAP,
    show_default=True,
    help="How to interpret a delimited file.",
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_par(path: str, curve_type: str, out: str | None) -> None:
    """Par rates of a curve."""
    rates = par_rates(_as_discounts(curve_io.read_curve_file(path, curve_type)))
    lines = ["n,par_rate"]
    for n, s in enumerate(rates.rates, start=1):
        lines.append(f"{n},{_fmt(s)}")
    _emit(lines, out)


@main.command("forwards")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--curve-type",
    type=click.Choice(curve_io.CURVE_TYPES),
    default=curve_io.SWAP,
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_forwards(path: str, curve_type: str, out: str | None) -> None:
    """One-year forward rates; interval i covers years (i, i+1)."""
    fwd = forward_rates(_as_discounts(curve_io.read_curve_file(path, curve_type)))
    lines = ["interval_start,forward_rate"]
    for i, f in enumerate(fwd.forwards):
        lines.append(f"{i},{_fmt(f)}")
    _emit(lines, out)


@main.command("validate")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--curve-type",
    type=click.Choice(curve_io.CURVE_TYPES),
    default=curve_io.SWAP,
    show_default=True,
)
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_validate(path: str, curve_type: str, tol: float, out: str | None) -> None:
    """No-arbitrage violations of a curve's discount factors; exit 1 if any."""
    curve_file = curve_io.read_curve_file(path, curve_type)
    _require_finite("--tol", tol)
    report = validate(_as_discounts(curve_file), tol=tol)
    lines = ["index,kind,value"]
    for v in report.violations:
        lines.append(f"{v.index},{v.kind},{_fmt(v.value)}")
    _emit(lines, out)
    if not report.ok:
        sys.exit(1)


@main.command("scan")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--kind",
    type=click.Choice(["zero", "swap"]),
    default="zero",
    show_default=True,
    help="Scan zero yields against tenor, or swap rates against annuity.",
)
@click.option(
    "--mode",
    type=click.Choice(["consecutive", "all"]),
    default="consecutive",
    show_default=True,
)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_scan(path: str, kind: str, mode: str, tol: float, out: str | None) -> None:
    """Convex triples of a curve, largest margin first."""
    file_type = curve_io.ZERO if kind == "zero" else curve_io.SWAP
    curve_file = curve_io.read_curve_file(path, file_type)
    _require_finite("--tol", tol)
    scan_mode = CONSECUTIVE if mode == "consecutive" else ALL_TRIPLES
    curve = curve_file.to_zero_curve() if kind == "zero" else curve_file.to_swap_curve()
    xs, legs, hits = _scan_hits(curve, ZERO_BOND if kind == "zero" else SWAP, scan_mode, tol)
    # scan_arbitrage's candidates as rows; each leg and distinct weight is formatted once.
    leg = [_fmt(float(x)) for x in legs]
    cell = functools.cache(_fmt)
    lines = ["leg1,leg2,leg3,margin,w1,w2,w3"]
    for neg_margin, i, j, k in hits:
        w1 = xs[k] - xs[j]
        w3 = xs[j] - xs[i]
        margin = format(-neg_margin, ".12g")  # a hit's margin exceeds tol >= 0
        lines.append(f"{leg[i]},{leg[j]},{leg[k]},{margin},{cell(w1)},{cell(w1 + w3)},{cell(w3)}")
    _emit(lines, out)


@main.command("butterfly")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(["zero", "swap"]), default="zero", show_default=True)
@click.option("--legs", required=True, help="Three maturities (zero) or grid years (swap).")
@click.option("--moves", default=None, help="Per-leg moves in bp for the non-parallel weights.")
# Accepted for scripts that still pass it; no output depends on it.
@click.option("--horizon", type=float, hidden=True, expose_value=False)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_butterfly(path: str, kind: str, legs: str, moves: str | None, out: str | None) -> None:
    """Weights of the zero-cost butterfly at three legs."""
    file_type = curve_io.ZERO if kind == "zero" else curve_io.SWAP
    curve_file = curve_io.read_curve_file(path, file_type)
    if kind == "swap":
        if moves is not None:
            raise ValueError("--moves applies to zero-bond butterflies only")
        idx = _parse_triple(legs, "--legs", as_int=True)
        fly = swap_butterfly(curve_file.to_swap_curve(), idx)
        header = "kind,leg1,leg2,leg3,w1,w2,w3,annuity1,annuity2,annuity3"
        cells = ["swap", *map(str, idx), *map(_fmt, fly.weights + fly.base_annuities)]
        _emit([header, ",".join(cells)], out)
        return
    t1, t2, t3 = _parse_triple(legs, "--legs")
    fly = zero_butterfly(t1, t2, t3)
    header = "kind,leg1,leg2,leg3,w1,w2,w3"
    cells = ["zero_bond", *map(_fmt, (t1, t2, t3) + fly.weights)]
    if moves is not None:
        zero = curve_file.to_zero_curve()
        yields = tuple(zero.yield_at(t) for t in (t1, t2, t3))
        movements = tuple(m * BP for m in _parse_triple(moves, "--moves"))
        npw = nonparallel_weights(movements, (t1, t2, t3))
        safety = nonparallel_safe(npw, (t1, t2, t3), yields, movements)
        header += ",npw1,npw2,npw3,shifted_yield_margin,instantaneous_margin,safe"
        margins = (safety.shifted_yield_margin, safety.instantaneous_margin)
        cells += [*map(_fmt, npw + margins), "true" if safety.passed else "false"]
    _emit([header, ",".join(cells)], out)


@main.command("pnl")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(["zero", "swap"]), default="zero", show_default=True)
@click.option("--legs", required=True)
@click.option("--shift-bp", "shift_bp", required=True, help="Parallel shift grid lo:hi:step in bp.")
@click.option("--horizon", type=float, default=0.0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_pnl(
    path: str, kind: str, legs: str, shift_bp: str, horizon: float, out: str | None
) -> None:
    """Butterfly P&L over a grid of parallel shifts."""
    file_type = curve_io.ZERO if kind == "zero" else curve_io.SWAP
    curve_file = curve_io.read_curve_file(path, file_type)
    shifts = _parse_shift_range(shift_bp)
    if kind == "zero":
        zero = curve_file.to_zero_curve()
        t1, t2, t3 = _parse_triple(legs, "--legs")
        fly = zero_butterfly(t1, t2, t3)
        yields = tuple(zero.yield_at(t) for t in (t1, t2, t3))
        lines = ["shift_bp,horizon,value"]
        for bp in shifts:
            value = zero_butterfly_pnl(fly, yields, bp * BP, horizon)
            lines.append(f"{_fmt(bp)},{_fmt(horizon)},{_fmt(value)}")
    else:
        swaps = curve_file.to_swap_curve()
        idx = _parse_triple(legs, "--legs", as_int=True)
        fly = swap_butterfly(swaps, idx)
        lines = ["shift_bp,carry,mark_to_market,total"]
        for bp in shifts:
            pnl = swap_butterfly_pnl(fly, swaps, bp * BP, horizon)
            lines.append(
                f"{_fmt(bp)},{_fmt(pnl.carry)},"
                f"{_fmt(pnl.mark_to_market)},{_fmt(pnl.total)}"
            )
    _emit(lines, out)


def _parse_verify_shift(text: str) -> ShiftScenario:
    parts = [p.strip() for p in text.split(",")]
    try:
        values = [float(p) * BP for p in parts]
    except ValueError:
        raise ValueError(f"could not parse --shift-bp from {text!r}") from None
    if len(values) == 1:
        return ShiftScenario.parallel(values[0])
    return ShiftScenario.per_tenor(values)


@main.command("verify")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--shift-bp",
    "shift_bp",
    default="100",
    show_default=True,
    help="Shift in bp: one value (parallel) or one per tenor, comma-separated.",
)
@click.option("--trials", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_verify(path: str, shift_bp: str, trials: int, seed: int, out: str | None) -> None:
    """Shift-response checks on the file's curve and seeded perturbations."""
    curve_file = curve_io.read_curve_file(path, curve_io.SWAP)
    scenario = _parse_verify_shift(shift_bp)
    if trials < 0:
        raise ValueError("--trials must be >= 0")
    if trials > MAX_TRIALS:
        raise ValueError(f"--trials exceeds the cap of {MAX_TRIALS}")
    swaps = curve_file.to_swap_curve()
    base = _require_valid(bootstrap(swaps), "input curve")
    # The checks presuppose a functioning shifted market, so a scenario
    # that breaks the shifted curve is an input error, not a finding.
    shifted = _require_valid(shifted_bootstrap(swaps, scenario), "shifted curve")
    rows = {
        name: ("base", outcome)
        for name, outcome in shift_response(base, shifted, scenario)
    }
    forwards = forward_rates(base)
    for trial in range(trials):
        rng = Random(f"{seed}:{trial}")
        perturbed = perturb_swap_curve(rng, forwards)
        shifted = shifted_bootstrap(perturbed, scenario)
        if any(_violations(shifted)):
            continue  # scenario breaks this perturbation; not a finding
        for name, outcome in shift_response(bootstrap(perturbed), shifted, scenario):
            _, prev = rows[name]
            if prev is not None and not prev.passed:
                continue  # keep the first failure
            if outcome is not None and not outcome.passed:
                rows[name] = (f"trial {trial}", outcome)
    lines = ["check,status,first_violation,detail"]
    failed = False
    for name, (label, outcome) in rows.items():
        if outcome is None:
            lines.append(f"{name},SKIP,,shift scenario outside this check's hypothesis")
            continue
        if outcome.passed:
            lines.append(f"{name},PASS,,")
        else:
            failed = True
            idx = "" if outcome.first_violation is None else str(outcome.first_violation)
            lines.append(f"{name},FAIL,{idx},{label}: {outcome.detail}")
    _emit(lines, out)
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
