"""Yield-curve analytics on the annual grid.

Rate conversions (zero / discount / forward / par), the swap-curve
bootstrap and its inverse, shift scenarios with structured response
checks, convexity classification of curve triples, and zero-cost
butterfly construction with shift P&L and arbitrage scans.
"""

__version__ = "0.4.7"

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

# Every name imported above is public; the submodules bound as a side effect are not.
__all__ = sorted(
    name for name, value in globals().items() if name[0] != "_" and type(value).__name__ != "module"
)
