"""In-memory spans around calls into curvekit's public functions.

The tracer lives entirely in the benchmark: it replaces each listed
function with a wrapper in every ``curvekit`` module namespace that binds
it (``cli`` and ``butterfly`` each hold their own ``bootstrap``, the
package re-exports everything), and puts the originals back afterwards.
Nothing under ``src/`` changes.

Spans are stored as parallel integer arrays -- parent index, name id,
start and end in ``perf_counter_ns`` -- so a traced verify request with
hundreds of thousands of calls stays cheap.  Self time is computed after
the fact: a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import sys
import time
from array import array

# Public functions wrapped in the traced run, by layer (= module).
TRACED = {
    "io": ("read_curve_file",),
    "curves": (
        "validate",
        "forward_rates",
        "par_rates",
        "discounts_from_zeros",
        "zeros_from_discounts",
    ),
    "bootstrap": (
        "bootstrap",
        "apply_shift",
        "shifted_bootstrap",
        "swap_rates_from_discounts",
        "check_annuity_bound",
        "check_parallel_brackets",
        "check_parallel_discount_drop",
        "check_annuity_ratio_decreasing",
    ),
    "shape": (
        "classify_triple",
        "scan_curve_shape",
        "annuity_point_classification",
        "ratio_monotonicity",
    ),
    "butterfly": (
        "zero_butterfly",
        "swap_butterfly",
        "swap_butterfly_pnl",
        "zero_butterfly_pnl",
        "nonparallel_weights",
        "nonparallel_safe",
        "scan_arbitrage",
    ),
    "sampling": ("perturb_swap_curve",),
}

CONVEX = "convex"


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    """Span recorder plus the wrapper rebinding that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()
        self._patched: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.convex_verdicts = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self.current)
        self.name.append(nid)
        self.end.append(0)
        self.current = idx
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.current = self.parent[idx]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        count_convex = name == "shape.classify_triple"

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count_convex and result.verdict == CONVEX:
                self.convex_verdicts += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded curvekit namespace."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, fns in TRACED.items():
            module = sys.modules[f"curvekit.{layer}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original, self.wrap(f"{layer}.{fn_name}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "curvekit" and not mod_name.startswith("curvekit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched = []

    def self_times(self) -> array:
        """Per-span self time in ns: duration minus the union of its children.

        Spans are appended in start order, so each parent's children arrive
        sorted by start and one pass with a per-parent high-water mark
        merges overlapping children.
        """
        n = len(self.start)
        covered = array("q", bytes(8 * n))
        reach = {}
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            lo = max(self.start[i], self.start[p], reach.get(p, self.start[p]))
            hi = min(self.end[i], self.end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
        return array(
            "q", (self.end[i] - self.start[i] - covered[i] for i in range(n))
        )

    def aggregate(self, lo: int, hi: int, self_ns: array, into: dict) -> None:
        """Add calls, self and total ns of spans lo..hi-1 into ``into``."""
        for i in range(lo, hi):
            row = into.setdefault(self.names[self.name[i]], [0, 0, 0])
            row[0] += 1
            row[1] += self_ns[i]
            row[2] += self.end[i] - self.start[i]

    def write(self, path: str) -> None:
        """Write the recorded spans as CSV: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )
