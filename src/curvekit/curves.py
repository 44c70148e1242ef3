"""Curve types and conversions between zero yields, discount factors,
forward rates and par rates.

Conventions used throughout the package:

- Times are in *years*. Swap and discount curves live on the integer-year
  grid 1..N; position ``n`` in any report means year ``n`` (1-based).
- Rates are decimal fractions per annum (0.05 = 5%) with annual
  compounding, so the discount factor for a yield ``y`` at year ``t`` is
  ``1 / (1 + y)**t``.
- The year-0 discount factor is implicitly 1 and is never stored.
- One-year forward rates are indexed by the interval start: ``f[i]``
  covers (i, i+1), so ``f[0]`` is the spot one-year rate.

All types are immutable after construction and all functions are pure, so
everything here is safe to share across threads.  Construction checks are
structural only (lengths, finiteness, rate ranges); economic validity of a
discount curve (positive, strictly decreasing factors) is deliberately not
enforced at construction -- shifted or stressed curves may violate it
transiently and callers need to observe that, not crash.  Use
:func:`validate` to obtain the violation report.  Public constructors keep
every check; results the library computes itself skip only the checks that
cannot fail on them, so every refusal stays.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import attrgetter

from . import _args

# Decimal per-annum rates accepted anywhere in the package.
RATE_LO = -0.5
RATE_HI = 1.0

# Absolute tolerance for strict-monotonicity comparisons: values within
# this of equality count as violations of strictness.
MONOTONE_TOL = 1e-12

# How far a tenor may sit from its year on the integer grid 1..N.
_GRID_TOL = 1e-9

NON_DECREASING_DISCOUNT = "non_decreasing_discount"
NON_POSITIVE_DISCOUNT = "non_positive_discount"
NON_POSITIVE_FORWARD = "non_positive_forward"


def _check_rate_range(rates: tuple[float, ...], what: str) -> tuple[float, ...]:
    # The rates themselves, or ValueError naming the first out of range.  The
    # min/max accept is exact only for finite rates (a NaN can slip past both),
    # which every caller guarantees: _args.floats has refused non-finite
    # values, and finite rates plus finite shift amounts stay finite.
    if RATE_LO < min(rates) and max(rates) < RATE_HI:
        return rates
    for i, r in enumerate(rates):
        if not RATE_LO < r < RATE_HI:
            del rates  # a kept refusal pins no list
            raise ValueError(
                f"{what}[{i}] = {r} outside the supported range "
                f"({RATE_LO}, {RATE_HI})"
            )


class _Record:
    """Immutable value record: its fields are its ``__init__`` parameters, which
    equality, hashing and the repr use in order; assignment and deletion raise.
    Each subclass declares its ``__slots__``, so no record has an instance dict;
    the fields lead the slots, in order.  Constructors and the records the library
    builds itself write the slots through the same setters, ``cls._setters``.
    Copies and pickles rebuild a record through its constructor from its fields."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        cls._key = attrgetter(*cls._fields)  # the fields' tuple, or the one field
        # Slot setters over the class hierarchy, bases' slots first; they pass the refusal
        # below.  Constructors call _set, which writes by position, so the fields must lead
        # the slots; hot loops unpack the setters into locals and call each once per record.
        namespaces = [vars(base) for base in reversed(cls.__mro__)]
        slots = {name: ns[name] for ns in namespaces for name in ns.get("__slots__", ())}
        if tuple(slots)[: len(cls._fields)] != cls._fields:
            raise TypeError(
                f"{cls.__qualname__}'s fields {cls._fields} must lead its slots {tuple(slots)}"
            )
        cls._setters = tuple([slot.__set__ for slot in slots.values()])

    def _set(self, *values) -> None:
        """Write ``values`` to the leading slots, in order."""
        setters = self._setters
        for i, value in enumerate(values):
            setters[i](self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


class ZeroCurve(_Record):
    """Zero-coupon yields at strictly increasing positive tenors (years).

    Tenors are real-valued; they need not sit on the integer grid.
    """

    __slots__ = ("tenors", "yields")

    def __init__(self, tenors: tuple[float, ...], yields: tuple[float, ...]) -> None:
        tenors = _args.floats(tenors, "tenors")
        yields = _args.floats(yields, "yields")
        if len(tenors) != len(yields):
            raise ValueError("tenors and yields must have the same length")
        if tenors[0] <= 0.0:
            raise ValueError("tenors must be positive")
        for a, b in zip(tenors, tenors[1:]):
            if b <= a:
                raise ValueError("tenors must be strictly increasing")
        _check_rate_range(yields, "yields")
        self._set(tenors, yields)

    def __len__(self) -> int:
        return len(self.tenors)

    def yield_at(self, t: float) -> float:
        """Zero yield at tenor t: exact pillar or linear interpolation.

        Raises ValueError for a tenor that is not a finite number or lies
        outside [first tenor, last tenor].
        """
        t = _args.number(t, "tenor")
        tenors, yields = self.tenors, self.yields
        if not tenors[0] <= t <= tenors[-1]:
            raise ValueError(
                f"leg {t} outside the curve's tenor range "
                f"[{tenors[0]}, {tenors[-1]}]"
            )
        for i, tt in enumerate(tenors):
            if tt == t:
                return yields[i]
            if tt > t:
                t0, t1 = tenors[i - 1], tt
                y0, y1 = yields[i - 1], yields[i]
                return y0 + (y1 - y0) * (t - t0) / (t1 - t0)
        return yields[-1]


class SwapCurve(_Record):
    """Par swap rates on the integer-year grid 1..N.

    The same type also carries par rates derived from a discount curve --
    they are the same quantity: the fixed rate that prices the n-year
    annual swap (equivalently the n-year par bond) at par.
    """

    __slots__ = ("rates",)

    def __init__(self, rates: tuple[float, ...]) -> None:
        rates = _args.floats(rates, "rates")
        _check_rate_range(rates, "rates")
        self._set(rates)

    def __len__(self) -> int:
        return len(self.rates)


class DiscountCurve(_Record):
    """Discount factors on the integer-year grid plus derived annuities.

    ``annuities[n-1]`` is the running prefix sum ``factors[0] + ... +
    factors[n-1]``, i.e. the present value of a unit annual coupon paid
    at years 1..n.  The sums are accumulated in a single fixed
    left-to-right pass so results are deterministic.  Only the factors
    take part in equality, hashing and the repr.
    """

    __slots__ = ("factors", "annuities")

    def __init__(self, factors: tuple[float, ...]) -> None:
        factors = _args.floats(factors, "factors")
        annuities = tuple(accumulate(factors, initial=0.0))[1:]
        self._set(factors, annuities)

    @classmethod
    def _computed(cls, factors: tuple[float, ...], annuities: tuple[float, ...]) -> DiscountCurve:
        """Trusted constructor: float factors and their running sums from 0.0."""
        # A finite last sum means every factor is finite.
        if not (annuities and math.isfinite(annuities[-1])):
            _args.floats(factors, "factors")
        set_factors, set_annuities = DiscountCurve._setters
        curve = object.__new__(cls)
        set_factors(curve, factors)
        set_annuities(curve, annuities)
        return curve

    def __len__(self) -> int:
        return len(self.factors)


class ForwardCurve(_Record):
    """One-year forward rates; ``forwards[i]`` covers the interval (i, i+1).

    Entry 0 is the spot one-year rate.  Forwards implied by a curve with
    all-positive discount factors always exceed -1; the constructor does
    not enforce that because forwards of a broken curve are still useful
    diagnostics.
    """

    __slots__ = ("forwards",)

    def __init__(self, forwards: tuple[float, ...]) -> None:
        self._set(_args.floats(forwards, "forwards"))

    def __len__(self) -> int:
        return len(self.forwards)


class Violation(_Record):
    """One validation finding: a 1-based index, a kind tag and the value."""

    __slots__ = ("index", "kind", "value")

    def __init__(self, index: int, kind: str, value: float) -> None:
        self._set(index, kind, value)


class ValidationReport(_Record):
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[Violation, ...]) -> None:
        if ok != (len(violations) == 0):
            raise ValueError("ok must mirror the absence of violations")
        self._set(ok, violations)

    @classmethod
    def from_violations(cls, violations) -> "ValidationReport":
        violations = tuple(violations)
        return cls(ok=not violations, violations=violations)


class CheckResult(_Record):
    """Pass/fail outcome of a curve property check.

    ``first_violation`` is the 1-based grid index of the first failing
    position, or None on pass.  ``detail`` is a short human-readable note.
    """

    __slots__ = ("name", "passed", "first_violation", "detail")

    def __init__(
        self, name: str, passed: bool, first_violation: int | None = None, detail: str = ""
    ) -> None:
        self._set(name, passed, first_violation, detail)


def zero_price(y: float, t: int) -> float:
    """Discount factor of a zero-coupon bond: 1 / (1 + y)**t.

    ``t`` is a number of years >= 1; ``y`` must exceed -1.  Both must be finite
    numbers, and so must the factor: one beyond float range is refused.
    """
    rate, years = _args.number(y, "yield"), _args.number(t, "maturity")
    if years < 1:
        raise ValueError(f"maturity must be at least one year, got {t}")
    if rate <= -1.0:
        raise ValueError(f"yield must exceed -1, got {y}")
    try:
        return (1.0 + rate) ** -years
    except OverflowError:
        raise ValueError(f"discount factor at year {t} is beyond float range") from None


def zero_yield_from_price(p: float, t: int) -> float:
    """Annually compounded yield implied by a discount factor: p**(-1/t) - 1.
    Both arguments, and the yield, must be finite numbers."""
    price, years = _args.number(p, "discount factor"), _args.number(t, "maturity")
    if years < 1:
        raise ValueError(f"maturity must be at least one year, got {t}")
    if price <= 0.0:
        raise ValueError(f"discount factor must be positive, got {p}")
    try:
        return price ** (-1.0 / years) - 1.0
    except OverflowError:
        raise ValueError(f"zero yield at year {t} is beyond float range") from None


def discounts_from_zeros(curve: ZeroCurve) -> DiscountCurve:
    """Discount curve of a zero curve on the consecutive grid 1..N.  A factor beyond
    float range is refused at its year, as zero_price refuses it."""
    _require_integer_grid(curve.tenors)
    try:  # zero_price's power: a ZeroCurve's yields exceed -0.5, so it would accept them
        factors = tuple([(1.0 + y) ** -n for n, y in enumerate(curve.yields, start=1)])
    except OverflowError:  # refused at the first such year, named by zero_price
        factors = tuple([zero_price(y, n) for n, y in enumerate(curve.yields, start=1)])
    return DiscountCurve._computed(factors, tuple(accumulate(factors, initial=0.0))[1:])


def zeros_from_discounts(curve: DiscountCurve) -> ZeroCurve:
    """Zero curve implied by integer-grid discount factors.  A non-positive factor, or
    one so small that its yield is beyond float range, is refused at its year."""
    try:  # zero_yield_from_price's power, which accepts positive factors
        yields = tuple([p ** (-1.0 / n) - 1.0 for n, p in enumerate(curve.factors, start=1)])
    except (ZeroDivisionError, OverflowError):
        yields = None
    if yields is None or not min(curve.factors) > 0.0:  # refused by year in zero_yield_from_price
        yields = tuple(zero_yield_from_price(p, n) for n, p in enumerate(curve.factors, start=1))
    _check_rate_range(yields, "yields")
    set_tenors, set_yields = ZeroCurve._setters
    zeros = object.__new__(ZeroCurve)  # on the integer grid, so the tenors need no checks
    set_tenors(zeros, tuple(map(float, range(1, len(curve) + 1))))
    set_yields(zeros, yields)
    return zeros


def forward_rates(curve: DiscountCurve) -> ForwardCurve:
    """One-year forwards implied by a discount curve.

    ``f[i] = p[i] / p[i+1] - 1`` with the implicit year-0 price of 1
    supplying the spot rate ``f[0] = 1 / p[1] - 1``.  The output has the
    same length as the input.
    """
    factors = curve.factors
    if 0.0 in factors:  # -0.0 included
        raise ValueError(f"discount factor at year {factors.index(0.0) + 1} is zero")
    return ForwardCurve(tuple([prev / p - 1.0 for prev, p in zip((1.0, *factors), factors)]))


def par_rates(curve: DiscountCurve) -> SwapCurve:
    """Par rates of a discount curve: (1 - p_n) / (p_1 + ... + p_n)."""
    factors = curve.factors
    if not min(factors) > 0.0:  # exact: the factors are finite
        n = next(n for n, p in enumerate(factors, start=1) if p <= 0.0)
        raise ValueError(f"discount factor at year {n} must be positive")
    return SwapCurve(tuple([(1.0 - p) / acc for p, acc in zip(factors, curve.annuities)]))


def validate(curve: DiscountCurve, tol: float = MONOTONE_TOL) -> ValidationReport:
    """Report every no-arbitrage violation of a discount curve.

    Checked per year n (against the implicit year-0 price of 1):

    - positivity: ``p_n > tol``;
    - strict decrease: ``p_n < p_{n-1} - tol``;
    - implied forward positivity: each computable one-year forward must
      exceed ``tol`` (intervals whose end-year price is exactly zero are
      skipped here -- the positivity finding already covers them).

    Findings are data; only a ``tol`` that is not a finite number >= 0 raises
    ValueError.
    Discount findings come first, by 1-based year; forward findings follow,
    by interval start index (0 = spot year).
    """
    tol = _args.tolerance(tol, "validation")
    return ValidationReport.from_violations(_violations(curve, tol))


def _violations(curve: DiscountCurve, tol: float = MONOTONE_TOL):
    """validate's findings, built lazily and without Violation's constructor."""
    new = object.__new__
    set_index, set_kind, set_value = Violation._setters
    forwards = []
    prev = 1.0
    for n, p in enumerate(curve.factors, start=1):
        if p <= tol:
            v = new(Violation)
            set_index(v, n)
            set_kind(v, NON_POSITIVE_DISCOUNT)
            set_value(v, p)
            yield v
        if p >= prev - tol:
            v = new(Violation)
            set_index(v, n)
            set_kind(v, NON_DECREASING_DISCOUNT)
            set_value(v, p)
            yield v
        if p != 0.0:
            f = prev / p - 1.0
            if f <= tol:
                v = new(Violation)
                set_index(v, n - 1)
                set_kind(v, NON_POSITIVE_FORWARD)
                set_value(v, f)
                forwards.append(v)
        prev = p
    yield from forwards


def _require_valid(curve: DiscountCurve | Violation, what: str) -> DiscountCurve:
    """The curve, or ValueError naming its first validation finding, which ``curve`` may be."""
    first = curve if curve.__class__ is Violation else next(_violations(curve), None)
    if first is None:
        return curve
    del curve  # a kept refusal pins no curve
    raise ValueError(f"{what} fails validation: {first.kind} at index {first.index}")


def _require_integer_grid(tenors: tuple[float, ...]) -> None:
    if tenors == tuple(map(float, range(1, len(tenors) + 1))):
        return  # exactly the grid: the tolerant loop below would pass it
    for n, t in enumerate(tenors, start=1):
        if abs(t - n) > _GRID_TOL:
            raise ValueError(
                f"tenors must be the consecutive integers 1..N, got {t} at position {n}"
            )

