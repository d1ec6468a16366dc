"""Energy, time, and emission accounting for collection scenarios.

Per truck class, energy and each gas follow a linear model
``per_km * total_km + per_stop * stop_visits``. Factors are opaque
calibrated inputs (back-solvable from published totals); nothing here
claims physical plausibility, only exact ratios and round-trips.
Internal arithmetic is never rounded; display precision is applied only
when formatting a report.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields, replace

from .errors import (
    DataError,
    InconsistentSummary,
    NegativeInput,
    NonpositiveBaseline,
    ZeroDistance,
)
from .network import _read_table, _write_table

_CONSISTENCY_TOL = 0.05  # totals vs n_trucks * average
#: Each modelled quantity: ``<q>_per_km`` and ``<q>_per_stop`` of
#: ImpactFactors give ``<q>_day`` of ScenarioSummary.
_QUANTITIES = ("energy_mj", "co_g", "co2_g", "nox_g")


@dataclass(frozen=True)
class ImpactFactors:
    energy_mj_per_km: float = 0.0
    energy_mj_per_stop: float = 0.0
    co_g_per_km: float = 0.0
    co2_g_per_km: float = 0.0
    nox_g_per_km: float = 0.0
    co_g_per_stop: float = 0.0
    co2_g_per_stop: float = 0.0
    nox_g_per_stop: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:
                raise NegativeInput(f"{f.name} must be finite and >= 0, "
                                    f"got {getattr(self, f.name)}")


@dataclass(frozen=True)
class ScenarioSummary:
    name: str
    n_trucks: int
    truck_capacity_kg: float
    n_stops: int
    avg_stop_time_s: float
    avg_route_km: float
    total_km: float
    avg_route_h: float
    total_time_h: float
    energy_mj_day: float = 0.0
    co_g_day: float = 0.0
    co2_g_day: float = 0.0
    nox_g_day: float = 0.0

    def __post_init__(self):
        if "\r" in self.name or "\n" in self.name:  # summary.cfg is one key a line
            raise InconsistentSummary(f"name {self.name!r} holds a line break")
        numeric = [f.name for f in fields(self) if f.name != "name"]
        for name in numeric:
            value = getattr(self, name)
            if value < 0:
                raise InconsistentSummary(f"{self.name}: {name} is negative")
            if not value < math.inf:  # NaN or an infinity
                raise InconsistentSummary(f"{self.name}: {name} is not finite")
        if self.n_trucks == 0 and (self.total_km > 0 or self.total_time_h > 0):
            raise InconsistentSummary(
                f"{self.name}: no trucks, but total_km {self.total_km} and "
                f"total_time_h {self.total_time_h}")
        for total, avg, label in (
            (self.total_km, self.avg_route_km, "distance"),
            (self.total_time_h, self.avg_route_h, "route time"),
        ):
            if total > 0 and self.n_trucks > 0:
                drift = abs(self.n_trucks * avg - total) / total
                if drift > _CONSISTENCY_TOL:
                    raise InconsistentSummary(
                        f"{self.name}: {self.n_trucks} trucks x average "
                        f"{label} misses the total by {drift:.1%} (> 5%)"
                    )


def daily_impacts(total_km: float, n_stop_visits: float,
                  factors: ImpactFactors) -> dict[str, float]:
    """Energy (MJ) and CO, CO2 and NOx (g) per day, each ``per_km *
    total_km + per_stop * n_stop_visits``, keyed by the ScenarioSummary
    field it fills (``energy_mj_day``, ...)."""
    if total_km < 0 or n_stop_visits < 0:
        raise NegativeInput("distance and stop visits must be >= 0")
    return {f"{q}_day": getattr(factors, f"{q}_per_km") * total_km
            + getattr(factors, f"{q}_per_stop") * n_stop_visits
            for q in _QUANTITIES}


def calibrate_factors(summary: ScenarioSummary) -> ImpactFactors:
    """Back-solve distance-only factors from a scenario's published totals.

    Stop terms stay zero; :func:`daily_impacts` at the same distance
    reproduces every total exactly.
    """
    if summary.total_km <= 0:
        raise ZeroDistance(f"{summary.name}: total_km must be positive")
    return ImpactFactors(**{f"{q}_per_km": getattr(summary, f"{q}_day")
                            / summary.total_km for q in _QUANTITIES})


def percent_improvement(existing_value: float, proposed_value: float) -> float:
    """(existing - proposed) / existing * 100; negative marks a regression."""
    if existing_value <= 0:
        raise NonpositiveBaseline(f"baseline must be positive, got {existing_value}")
    return (existing_value - proposed_value) / existing_value * 100.0


#: Report rows: label, ScenarioSummary attribute, display divisor, and
#: the improvement key of a row that compares the two scenarios.
_TABLE_ROWS = [
    ("Number of Trucks", "n_trucks", 1, None),
    ("Truck Capacity (ton)", "truck_capacity_kg", 1000.0, None),
    ("Number of Stop points", "n_stops", 1, None),
    ("Average Time spent at each Collection Point (min.)", "avg_stop_time_s",
     60.0, None),
    ("Average Route Distance (km)", "avg_route_km", 1, "avg_route_distance_km"),
    ("Total Traveled Distance (km)", "total_km", 1, "total_distance_km"),
    ("Average Route Time (hr.)", "avg_route_h", 1, "avg_route_time_h"),
    ("Total Energy Consumption (MJ/day)", "energy_mj_day", 1, None),
    ("Total Time Consumption (h/day)", "total_time_h", 1, "total_time_h"),
    ("CO Emissions (g/day)", "co_g_day", 1, "co_g_day"),
    ("CO2 Emissions (g/day)", "co2_g_day", 1, "co2_g_day"),
    ("NOx Emissions (g/day)", "nox_g_day", 1, "nox_g_day"),
]

#: Metric key -> attribute compared between scenarios.
IMPROVEMENT_METRICS = {key: attr for _, attr, _, key in _TABLE_ROWS if key}


@dataclass(frozen=True)
class ComparisonReport:
    existing: ScenarioSummary
    proposed: ScenarioSummary
    improvements: dict[str, float]


def compare_scenarios(existing: ScenarioSummary,
                      proposed: ScenarioSummary) -> ComparisonReport:
    improvements = {
        key: percent_improvement(getattr(existing, attr), getattr(proposed, attr))
        for key, attr in IMPROVEMENT_METRICS.items()
    }
    return ComparisonReport(existing=existing, proposed=proposed,
                            improvements=improvements)


# --- report formatting ---

def _num(value: float) -> str:
    """Plain decimal display: no exponent, no thousands separator."""
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def _shown(summary: ScenarioSummary, attr: str, divisor: float) -> str:
    value = getattr(summary, attr)
    # a count is shown as it is: dividing an int by 1 would round it to a float
    return _num(value if divisor == 1 else value / divisor)


def format_comparison_table(report: ComparisonReport) -> str:
    """Comma-separated scenario comparison, one metric per row; a name
    holding a comma or a double quote is quoted as CSV quotes it."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    e, p = report.existing, report.proposed
    w.writerow(["Metric", e.name, p.name, "% Improvement"])
    for label, attr, divisor, key in _TABLE_ROWS:
        pct = f"{report.improvements[key]:.1f}%" if key else "-"
        w.writerow([label, _shown(e, attr, divisor), _shown(p, attr, divisor), pct])
    return out.getvalue()


def format_comparison_text(report: ComparisonReport) -> str:
    e, p = report.existing, report.proposed
    width = max(len(label) for label, *_ in _TABLE_ROWS)
    lines = [f"Scenario comparison: {e.name} vs {p.name}", ""]
    for label, attr, divisor, key in _TABLE_ROWS:
        line = (f"{label:<{width}}  {_shown(e, attr, divisor):>12} -> "
                f"{_shown(p, attr, divisor):>12}")
        if key:
            pct = report.improvements[key]
            tag = "better" if pct >= 0 else "worse"
            line += f"  ({abs(pct):.1f}% {tag})"
        lines.append(line)
    return "\n".join(lines) + "\n"


# --- file interfaces ---

FACTOR_HEADER = ["class", "quantity", "per_km", "per_stop"]


def write_factors(factors_by_class: dict[str, ImpactFactors], path: str) -> None:
    """A class name holding a carriage return is a ValueError: the csv
    module before Python 3.13 writes it unquoted, and it reads back as a
    line break."""
    if bad := sorted(c for c in factors_by_class if "\r" in c):
        raise ValueError(f"class names {bad} hold a carriage return")
    _write_table(path, FACTOR_HEADER, (
        (cls, q, getattr(f, f"{q}_per_km"), getattr(f, f"{q}_per_stop"))
        for cls, f in sorted(factors_by_class.items()) for q in _QUANTITIES))


def load_factors(path: str) -> dict[str, ImpactFactors]:
    """Factors per truck class; a table with no rows, or a (class,
    quantity) row given twice, is a DataError."""
    out: dict[str, ImpactFactors] = {}
    rows = list(_read_table(path, FACTOR_HEADER, "factor",
                            lambda r: (r[0], r[1], float(r[2]), float(r[3]))))
    seen: set[tuple[str, str]] = set()
    for cls, quantity, per_km, per_stop in rows:
        if quantity not in _QUANTITIES:
            raise DataError(f"{path}: unknown quantity {quantity!r}")
        if (cls, quantity) in seen:
            raise DataError(f"{path}: class {cls!r} {quantity} appears more "
                            "than once")
        seen.add((cls, quantity))
        try:
            out[cls] = replace(out.get(cls, ImpactFactors()),
                               **{f"{quantity}_per_km": per_km,
                                  f"{quantity}_per_stop": per_stop})
        except NegativeInput as exc:
            raise DataError(f"{path}: class {cls!r} {quantity}: {exc}") from exc
    if not out:
        raise DataError(f"{path}: no factor rows")
    return out
