"""Curve file parsing: delimited text and a structured JSON object format.

Delimited format::

    # optional comment lines start with '#'
    tenor_years,rate
    1,0.05
    2,0.05

The header line is required.  Rates (or discount factors) are decimals.
The delimited format does not carry the curve type; the reader is told
what to assume, normally by the CLI command or a --curve-type flag.

Structured format: a JSON object ``{"curve_type": "zero"|"swap"|"discount",
"points": [{"t": 1, "r": 0.05}, ...], "label": "optional"}``.

Swap and discount curves must sit on the consecutive integer grid
1..N; zero curves allow any strictly increasing positive tenors.
"""

from __future__ import annotations

import math

from .curves import DiscountCurve, SwapCurve, ZeroCurve, _Record, _require_integer_grid

ZERO = "zero"
SWAP = "swap"
DISCOUNT = "discount"
CURVE_TYPES = (ZERO, SWAP, DISCOUNT)


class CurveFileError(ValueError):
    """Malformed curve input; carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CurveFile(_Record):
    """Parsed curve input: a type tag, (tenor, value) points and a label."""

    __slots__ = ("curve_type", "points", "label")

    def __init__(
        self, curve_type: str, points: tuple[tuple[float, float], ...], label: str | None = None
    ) -> None:
        if curve_type not in CURVE_TYPES:
            raise CurveFileError(
                f"curve_type must be one of {', '.join(CURVE_TYPES)}, got {curve_type!r}"
            )
        if not points:
            raise CurveFileError("curve file contains no points")
        for t, v in points:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise CurveFileError(f"non-finite point ({t}, {v})")
        tenors = [t for t, _ in points]
        if any(b <= a for a, b in zip(tenors, tenors[1:])) or tenors[0] <= 0:
            raise CurveFileError("tenors must be positive and strictly increasing")
        if curve_type in (SWAP, DISCOUNT):
            try:
                _require_integer_grid(tenors)
            except ValueError as exc:
                raise CurveFileError(f"{curve_type} {exc}") from None
        self._set(curve_type, points, label)

    @property
    def tenors(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)

    def to_zero_curve(self) -> ZeroCurve:
        self._require(ZERO)
        return ZeroCurve(self.tenors, self.values)

    def to_swap_curve(self) -> SwapCurve:
        self._require(SWAP)
        return SwapCurve(self.values)

    def to_discount_curve(self) -> DiscountCurve:
        self._require(DISCOUNT)
        return DiscountCurve(self.values)

    def _require(self, curve_type: str) -> None:
        if self.curve_type != curve_type:
            raise ValueError(
                f"expected a {curve_type} curve, file is {self.curve_type}"
            )


def parse_delimited(text: str, curve_type: str) -> CurveFile:
    """Parse the delimited format, interpreting values as ``curve_type``."""
    points: list[tuple[float, float]] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            fields = [f.strip().lower() for f in line.split(",")]
            if fields != ["tenor_years", "rate"]:
                raise CurveFileError(
                    f"expected header 'tenor_years,rate', got {line!r}", lineno
                )
            header_seen = True
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise CurveFileError(f"expected two comma-separated fields, got {line!r}", lineno)
        try:
            t, v = float(fields[0]), float(fields[1])
        except ValueError:
            raise CurveFileError(f"could not parse numbers from {line!r}", lineno) from None
        points.append((t, v))
    if not header_seen:
        raise CurveFileError("missing 'tenor_years,rate' header")
    if not points:
        raise CurveFileError("no data rows found")
    return CurveFile(curve_type, tuple(points))


def parse_structured(text: str) -> CurveFile:
    """Parse the JSON object format; the curve type comes from the file."""
    import json  # only JSON input pays for the import

    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise CurveFileError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise CurveFileError("structured curve file must be a JSON object")
    curve_type = obj.get("curve_type")
    raw_points = obj.get("points")
    if not isinstance(curve_type, str):
        raise CurveFileError("missing or non-string 'curve_type'")
    if not isinstance(raw_points, list):
        raise CurveFileError("missing or non-array 'points'")
    points = []
    for i, entry in enumerate(raw_points):
        if not isinstance(entry, dict) or "t" not in entry or "r" not in entry:
            raise CurveFileError(f"points[{i}] must be an object with keys 't' and 'r'")
        t, r = entry["t"], entry["r"]
        try:
            if type(t) not in (int, float) or type(r) not in (int, float):
                raise TypeError  # strings, true and false are not JSON numbers
            points.append((float(t), float(r)))
        except (TypeError, OverflowError):  # OverflowError: an integer beyond float range
            raise CurveFileError(f"points[{i}] has non-numeric 't' or 'r'") from None
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise CurveFileError("'label' must be a string when present")
    return CurveFile(curve_type, tuple(points), label)


def read_curve_file(path: str, default_type: str | None = None) -> CurveFile:
    """Read a curve file, sniffing JSON objects by their leading brace.

    ``default_type`` supplies the curve type for delimited files; a JSON
    file carries its own and ignores the default.  One leading UTF-8
    byte-order mark is ignored.  A path that cannot be opened or read
    raises :class:`CurveFileError`, as malformed text does.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")  # a spreadsheet's byte-order mark
    except UnicodeDecodeError as exc:
        raise CurveFileError(f"not UTF-8 text at byte {exc.start}") from None
    except OSError as exc:
        raise CurveFileError(f"cannot read {path}: {exc.strerror}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_structured(text)
    if default_type is None:
        raise CurveFileError(
            "delimited curve files need an assumed curve type; pass --curve-type"
        )
    return parse_delimited(text, default_type)
