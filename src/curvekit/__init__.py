"""Yield-curve analytics on the annual grid.

Rate conversions (zero / discount / forward / par), the swap-curve
bootstrap and its inverse, shift scenarios with structured response
checks, convexity classification of curve triples, and zero-cost
butterfly construction with shift P&L and arbitrage scans.
"""

__version__ = "0.4.3"

from .bootstrap import (
    BootstrapError,
    ShiftScenario,
    apply_shift,
    bootstrap,
    check_annuity_bound,
    check_annuity_ratio_decreasing,
    check_parallel_brackets,
    check_parallel_discount_drop,
    shift_response,
    shifted_bootstrap,
    swap_rates_from_discounts,
)
from .butterfly import (
    ArbitrageCandidate,
    Butterfly,
    PnlBreakdown,
    SafetyCheck,
    nonparallel_safe,
    nonparallel_weights,
    scan_arbitrage,
    swap_butterfly,
    swap_butterfly_pnl,
    zero_butterfly,
    zero_butterfly_pnl,
)
from .curves import (
    CheckResult,
    DiscountCurve,
    ForwardCurve,
    SwapCurve,
    ValidationReport,
    Violation,
    ZeroCurve,
    discounts_from_zeros,
    forward_rates,
    par_rates,
    validate,
    zero_price,
    zero_yield_from_price,
    zeros_from_discounts,
)
from .io import CurveFile, CurveFileError, read_curve_file
from .shape import (
    ShapeReport,
    TripleClassification,
    annuity_point_classification,
    classify_triple,
    ratio_monotonicity,
    scan_curve_shape,
)

__all__ = [
    "ArbitrageCandidate",
    "BootstrapError",
    "Butterfly",
    "CheckResult",
    "CurveFile",
    "CurveFileError",
    "DiscountCurve",
    "ForwardCurve",
    "PnlBreakdown",
    "SafetyCheck",
    "ShapeReport",
    "ShiftScenario",
    "SwapCurve",
    "TripleClassification",
    "ValidationReport",
    "Violation",
    "ZeroCurve",
    "annuity_point_classification",
    "apply_shift",
    "bootstrap",
    "check_annuity_bound",
    "check_annuity_ratio_decreasing",
    "check_parallel_brackets",
    "check_parallel_discount_drop",
    "classify_triple",
    "discounts_from_zeros",
    "forward_rates",
    "nonparallel_safe",
    "nonparallel_weights",
    "par_rates",
    "ratio_monotonicity",
    "read_curve_file",
    "scan_arbitrage",
    "scan_curve_shape",
    "shift_response",
    "shifted_bootstrap",
    "swap_butterfly",
    "swap_butterfly_pnl",
    "swap_rates_from_discounts",
    "validate",
    "zero_butterfly",
    "zero_butterfly_pnl",
    "zero_price",
    "zero_yield_from_price",
    "zeros_from_discounts",
]
