"""Command-line interface.

Commands read a curve file (delimited or structured JSON, see
:mod:`curvekit.io`), run one analysis and emit a CSV table to stdout or
``--out``.  Rates on flags are in basis points and converted to decimals
at this boundary; everything below works in decimals.  Numeric output is
formatted to 12 significant digits so values round-trip at 1e-12.

Exit codes: 0 success, 1 domain or validation failure or unwritable
output, 2 unreadable or malformed input or command line.  :func:`main`
parses with :mod:`argparse` and maps refusals to them once, for every
command; it is the in-process entry point, :func:`run` the process one.
Commands only parse flags, call the library and format its results: the
seeded trials of ``verify`` run in :func:`curvekit.sampling.verify_trials`,
so every command is deterministic given its inputs and flags.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import math
import os
import sys

from . import io as curve_io
from .bootstrap import ShiftScenario, bootstrap
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
from .curves import DiscountCurve, discounts_from_zeros, forward_rates, par_rates, validate
from .sampling import verify_trials
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
    try:
        if out is None:
            print(text, end="", flush=True)  # no-op when stdout was closed at start
        else:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        if out is not None:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None
        sys.stdout = None  # its buffer holds the refused bytes: no flush at exit retries them
        if isinstance(exc, BrokenPipeError):
            raise SystemExit(1) from None  # nobody reads on: a silent exit 1
        raise ValueError(f"cannot write to stdout: {exc.strerror}") from None


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


def _numbers(flag: str, text: str, sep: str = ",", shape: str | None = None) -> list[float]:
    """The numbers in a flag value, split at ``sep``.

    ``shape`` words the refusal of a value that is not three parts; given
    it, the parts are counted before they are parsed, and must be finite.
    """
    parts = text.split(sep)
    if shape is not None and len(parts) != 3:
        raise ValueError(f"{flag} {shape}, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"could not parse {flag} from {text!r}") from None
    if shape is not None:
        _require_finite(flag, *values)
    return values


def _triple(flag: str, text: str) -> tuple[float, ...]:
    return tuple(_numbers(flag, text, shape="needs exactly three comma-separated values"))


def _grid_legs(text: str) -> tuple[int, ...]:
    legs = _triple("--legs", text)
    if any(v != int(v) for v in legs):
        raise ValueError(f"--legs must be whole grid years, got {text!r}")
    return tuple(map(int, legs))


def _parse_shift_range(text: str) -> list[float]:
    """Parse 'lo:hi:step' in basis points into lo, lo + step, ... up to hi."""
    lo, hi, step = _numbers("--shift-bp", text, ":", "must look like lo:hi:step")
    if step <= 0 or hi < lo:
        raise ValueError("--shift-bp needs step > 0 and hi >= lo")
    # The grid stops at hi; a quotient within 1e-9 below a whole number
    # counts as whole, so 0:0.7:0.1 keeps its end point.
    span = (hi - lo) / step + 1e-9
    if not span < MAX_SHIFT_ROWS:
        raise ValueError(f"--shift-bp grid exceeds {MAX_SHIFT_ROWS} rows")
    return [lo + i * step for i in range(math.floor(span) + 1)]


# Each command's function and options beyond PATH, as flags and add_argument keywords.
# read_curve_file (exit 2) and _emit (exit 1) own the file checks; the parser only parses.
_COMMANDS: dict[str, tuple] = {}
_STRICT = dict(add_help=False, allow_abbrev=False)  # no -h, no abbreviated options
_DEFAULT = "(default: %(default)s)"
_OUT = ("--out", dict(metavar="FILE"))
_HELP = ("--help", dict(action="help", help="Show this message and exit."))
_CURVE_TYPE = ("--curve-type", dict(choices=curve_io.CURVE_TYPES, default="swap", help=_DEFAULT))
# A --kind is also the file's curve type.
_FLY_KIND = ("--kind", dict(choices=(curve_io.ZERO, curve_io.SWAP), default="zero", help=_DEFAULT))
_LEGS = ("--legs", dict(required=True, help="Three maturities (zero) or grid years (swap)."))


def _command(name: str, *options: tuple[str, dict]):
    return lambda fn: _COMMANDS.setdefault(name, (fn, (*options, _OUT)))[0]


@_command("bootstrap", ("--strict", dict(action="store_true", help="Exit 1 on an invalid factor.")))
def cmd_bootstrap(path: str, strict: bool, out: str | None) -> None:
    """Swap rates to discount factors and annuities."""
    swaps = curve_io.read_curve_file(path, curve_io.SWAP).to_swap_curve()
    curve = bootstrap(swaps, strict=strict)
    lines = ["n,swap_rate,discount_factor,annuity"]
    for n, (x, p, a) in enumerate(zip(swaps.rates, curve.factors, curve.annuities), start=1):
        lines.append(f"{n},{_fmt(x)},{_fmt(p)},{_fmt(a)}")
    _emit(lines, out)


@_command("par", _CURVE_TYPE)
def cmd_par(path: str, curve_type: str, out: str | None) -> None:
    """Par rates of a curve."""
    rates = par_rates(_as_discounts(curve_io.read_curve_file(path, curve_type)))
    lines = ["n,par_rate"]
    for n, s in enumerate(rates.rates, start=1):
        lines.append(f"{n},{_fmt(s)}")
    _emit(lines, out)


@_command("forwards", _CURVE_TYPE)
def cmd_forwards(path: str, curve_type: str, out: str | None) -> None:
    """One-year forward rates; interval i covers years (i, i+1)."""
    fwd = forward_rates(_as_discounts(curve_io.read_curve_file(path, curve_type)))
    lines = ["interval_start,forward_rate"]
    for i, f in enumerate(fwd.forwards):
        lines.append(f"{i},{_fmt(f)}")
    _emit(lines, out)


@_command("validate", _CURVE_TYPE, ("--tol", dict(type=float, default=1e-12, help=_DEFAULT)))
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


@_command(
    "scan",
    ("--kind", dict(_FLY_KIND[1], help="Zero yields by tenor or swaps by annuity " + _DEFAULT)),
    ("--mode", dict(choices=("consecutive", "all"), default="consecutive", help=_DEFAULT)),
    ("--tol", dict(type=float, default=1e-9, help=_DEFAULT)),
)
def cmd_scan(path: str, kind: str, mode: str, tol: float, out: str | None) -> None:
    """Convex triples of a curve, largest margin first."""
    curve_file = curve_io.read_curve_file(path, kind)
    _require_finite("--tol", tol)
    scan_mode = CONSECUTIVE if mode == "consecutive" else ALL_TRIPLES
    curve = curve_file.to_zero_curve() if kind == "zero" else curve_file.to_swap_curve()
    xs, legs, hits = _scan_hits(curve, ZERO_BOND if kind == "zero" else SWAP, scan_mode, tol)
    # scan_arbitrage's candidates as rows; each leg and distinct weight is formatted once.
    leg = [_fmt(float(x)) for x in legs]
    cell = functools.cache(_fmt)
    lines = ["leg1,leg2,leg3,margin,w1,w2,w3"]
    for i, j, k, m in hits:
        w1 = xs[k] - xs[j]
        w3 = xs[j] - xs[i]
        margin = format(m, ".12g")  # a hit's margin exceeds tol >= 0
        lines.append(f"{leg[i]},{leg[j]},{leg[k]},{margin},{cell(w1)},{cell(w1 + w3)},{cell(w3)}")
    _emit(lines, out)


@_command(
    "butterfly",
    _FLY_KIND,
    _LEGS,
    ("--moves", dict(help="Per-leg moves in bp for the non-parallel weights.")),
    ("--horizon", dict(type=float, help=argparse.SUPPRESS)),
)
def cmd_butterfly(
    path: str, kind: str, legs: str, moves: str | None, horizon: float | None, out: str | None
) -> None:
    """Weights of the zero-cost butterfly at three legs."""
    del horizon  # accepted for scripts that still pass it; no output depends on it
    curve_file = curve_io.read_curve_file(path, kind)
    if kind == "swap":
        if moves is not None:
            raise ValueError("--moves applies to zero-bond butterflies only")
        idx = _grid_legs(legs)
        fly = swap_butterfly(curve_file.to_swap_curve(), idx)
        header = "kind,leg1,leg2,leg3,w1,w2,w3,annuity1,annuity2,annuity3"
        cells = ["swap", *map(str, idx), *map(_fmt, fly.weights + fly.base_annuities)]
        _emit([header, ",".join(cells)], out)
        return
    t1, t2, t3 = _triple("--legs", legs)
    fly = zero_butterfly(t1, t2, t3)
    header = "kind,leg1,leg2,leg3,w1,w2,w3"
    cells = ["zero_bond", *map(_fmt, (t1, t2, t3) + fly.weights)]
    if moves is not None:
        zero = curve_file.to_zero_curve()
        yields = tuple(zero.yield_at(t) for t in (t1, t2, t3))
        movements = tuple(m * BP for m in _triple("--moves", moves))
        npw = nonparallel_weights(movements, (t1, t2, t3))
        safety = nonparallel_safe(npw, (t1, t2, t3), yields, movements)
        header += ",npw1,npw2,npw3,shifted_yield_margin,instantaneous_margin,safe"
        margins = (safety.shifted_yield_margin, safety.instantaneous_margin)
        cells += [*map(_fmt, npw + margins), "true" if safety.passed else "false"]
    _emit([header, ",".join(cells)], out)


@_command(
    "pnl",
    _FLY_KIND,
    _LEGS,
    ("--shift-bp", dict(required=True, help="Parallel shift grid lo:hi:step in bp.")),
    ("--horizon", dict(type=float, default=0.0, help=_DEFAULT)),
)
def cmd_pnl(
    path: str, kind: str, legs: str, shift_bp: str, horizon: float, out: str | None
) -> None:
    """Butterfly P&L over a grid of parallel shifts."""
    curve_file = curve_io.read_curve_file(path, kind)
    shifts = _parse_shift_range(shift_bp)
    if kind == "zero":
        zero = curve_file.to_zero_curve()
        t1, t2, t3 = _triple("--legs", legs)
        fly = zero_butterfly(t1, t2, t3)
        yields = tuple(zero.yield_at(t) for t in (t1, t2, t3))
        lines = ["shift_bp,horizon,value"]
        for bp in shifts:
            value = zero_butterfly_pnl(fly, yields, bp * BP, horizon)
            lines.append(f"{_fmt(bp)},{_fmt(horizon)},{_fmt(value)}")
    else:
        swaps = curve_file.to_swap_curve()
        idx = _grid_legs(legs)
        fly = swap_butterfly(swaps, idx)
        lines = ["shift_bp,carry,mark_to_market,total"]
        for bp in shifts:
            pnl = swap_butterfly_pnl(fly, swaps, bp * BP, horizon)
            cells = (bp, pnl.carry, pnl.mark_to_market, pnl.total)
            lines.append(",".join(map(_fmt, cells)))
    _emit(lines, out)


@_command(
    "verify",
    ("--shift-bp", dict(default="100", help="One shift in bp, or one per tenor " + _DEFAULT)),
    ("--trials", dict(type=int, default=0, help=_DEFAULT)),
    ("--seed", dict(type=int, default=0, help=_DEFAULT)),
)
def cmd_verify(path: str, shift_bp: str, trials: int, seed: int, out: str | None) -> None:
    """Shift-response checks on the file's curve and seeded perturbations."""
    curve_file = curve_io.read_curve_file(path, curve_io.SWAP)
    shift = [bp * BP for bp in _numbers("--shift-bp", shift_bp)]
    scenario = ShiftScenario.parallel(*shift) if len(shift) == 1 else ShiftScenario.per_tenor(shift)
    if trials < 0:
        raise ValueError("--trials must be >= 0")
    if trials > MAX_TRIALS:
        raise ValueError(f"--trials exceeds the cap of {MAX_TRIALS}")
    report = verify_trials(curve_file.to_swap_curve(), scenario, trials, seed)
    lines = ["check,status,first_violation,detail"]
    failed = False
    for name, trial, outcome in report.rows:
        if outcome is None:
            lines.append(f"{name},SKIP,,shift scenario outside this check's hypothesis")
        elif outcome.passed:
            lines.append(f"{name},PASS,,")
        else:
            failed = True
            idx = "" if outcome.first_violation is None else str(outcome.first_violation)
            label = "base" if trial is None else f"trial {trial}"
            lines.append(f"{name},FAIL,{idx},{label}: {outcome.detail}")
    _emit(lines, out)
    if failed:
        sys.exit(1)


class _Parser(argparse.ArgumentParser):
    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:  # --out --: argparse < 3.13 drops it
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _parser(prog: str) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own."""
    description = "Yield-curve analytics: bootstrap, conversions, shape and butterflies."
    parser = _Parser(prog=prog, description=description, **_STRICT)
    parser.add_argument(_HELP[0], **_HELP[1])
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (fn, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__, **_STRICT)
        sub.add_argument("path", metavar="PATH")
        for flag, kwargs in (*options, _HELP):
            sub.add_argument(flag, **kwargs)
    return parser, commands.choices


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command line; end, as a process would, with ``SystemExit(exit code)``."""
    args = sys.argv[1:] if args is None else list(args)
    if args[:1] == ["--"]:
        del args[0]  # a "--" before the command ends no options
    if args and args[0] in _COMMANDS:
        # A value option takes the next token even if it starts with a dash (--shift-bp
        # -100:100:10, --out --strict), which argparse would not: pass it as --opt=value.
        takes_value = {f for f, kw in _COMMANDS[args[0]][1] if kw.get("action") != "store_true"}
        i = 1
        while i < len(args) and args[i] != "--":  # "--" ends the options
            if args[i] in takes_value and i + 1 < len(args):
                args[i : i + 2] = [f"{args[i]}={args[i + 1]}"]
            i += 1
        if args[i:] == ["--"]:
            args.pop()  # argparse refuses a last "--", which ends nothing
    parser, commands = _parser(prog_name or "curvekit")
    parsed, unknown = parser.parse_known_args(args)
    if unknown:  # reported by the command's parser when the command comes first
        (commands.get(args[0]) or parser).error(f"unrecognized arguments: {' '.join(unknown)}")
    parsed = vars(parsed)
    try:
        _COMMANDS[parsed.pop("command")][0](**parsed)
    except (ValueError, OverflowError) as exc:
        message, code = f"error: {exc}", 2 if isinstance(exc, curve_io.CurveFileError) else 1
    except KeyboardInterrupt:
        message, code = "\nAborted!", 1  # an interrupted run exits 1, as it always has
    else:
        raise SystemExit(0)
    if sys.stderr is not None:
        sys.stderr.write(message + "\n")
    raise SystemExit(code)


# perfbench alone drives main through click's CliRunner, which reads main and name.
# Both go when perfbench calls main directly (ROADMAP item 1).
main.main, main.name = main, "curvekit"


def run() -> None:
    """Process entry point: run ``main`` and end the process without teardown.

    Once the command has exited, the process runs the atexit handlers,
    flushes stdout and stderr and ends with ``os._exit``: teardown would
    only free memory the process gives back anyway, and the CLI starts no
    thread for ``os._exit`` to leave behind.  A flush into a pipe nobody
    reads exits 1 silently; any other failed flush takes the normal
    shutdown, so the interpreter reports it.
    """
    try:
        main()
    except SystemExit as exc:  # main ends every call with SystemExit(int)
        code = exc.code
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the fd was closed at start
                stream.flush()
    except BrokenPipeError:
        os._exit(1)  # as _emit ends a table; a --help page meets the closed pipe only here
    except OSError:
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
