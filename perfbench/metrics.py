"""Turning case records and spans into the metrics BENCHMARK.json declares.

Standard library only.  `emit` refuses a metric that BENCHMARK.json does
not declare, or a declared one that is missing, so the printed names and
units always match the file.
"""

from __future__ import annotations

import json
import math
import os
import statistics

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")

#: tol_headroom_digits reads gaps clamped to [GAP_FLOOR, 1 / GAP_FLOOR]:
#: below double precision, and infinite for a check that gave no gap
GAP_FLOOR = 1e-16


def declared() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def percentile(values, pct: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def tail_percentile(round_size: int) -> int:
    """The highest whole percentile with at least ten cases beyond it in
    every run, since every run completes at least one round."""
    return math.floor(100.0 * (1.0 - 10.0 / round_size))


def headroom_digits(checks) -> float:
    """min over checks of log10(tolerance / gap); checks: (gap, tol)."""
    return min(math.log10(tol / min(max(gap, GAP_FLOOR), 1.0 / GAP_FLOOR))
               for gap, tol in checks)


def end_to_end(latencies, attempted, failed, checks, setup_samples,
               peak_rss_mb, tail_pct) -> dict:
    """One run's end-to-end metrics.  latencies: per timed case, run one
    after the other by one client; attempted and failed also count the
    reference checks, whose (gap, tol) pairs are `checks`."""
    return {"setup_s": statistics.median(setup_samples),
            "cases_per_s": len(latencies) / math.fsum(latencies),
            "case_p50_s": statistics.median(latencies),
            "case_tail_s": percentile(latencies, tail_pct),
            "ok_ratio": (attempted - failed) / attempted,
            "tol_headroom_digits": headroom_digits(checks),
            "peak_rss_mb": peak_rss_mb}


def per_layer(self_times: dict, extras: dict, names) -> dict:
    """Median self time of the spans behind each `<span>_s` metric, plus
    the computed metrics in `extras`."""
    out = {}
    for name in names:
        if name in extras:
            out[name] = extras[name]
        elif name.endswith("_s") and name[:-2] in self_times:
            out[name] = statistics.median(self_times[name[:-2]])
    return out


def emit(values: dict, section: str) -> dict:
    """The `metrics` object: every metric of one BENCHMARK.json section
    with its declared unit."""
    units = {m["name"]: m["unit"] for m in declared()[section]}
    extra = sorted(set(values) - set(units))
    missing = sorted(set(units) - set(values))
    if extra or missing:
        raise ValueError(f"{section}: undeclared {extra}, missing {missing}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}
