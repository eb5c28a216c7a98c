"""Benchmark metric rows and their CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import trajectory_energy
from .traj_opt import OptReport

# the cost columns of a metrics row, in the order the CSV files write them
COST_COLUMNS = ("pce", "rce", "sorr", "time_cost", "total_cost", "total_energy")


@dataclass
class MetricsRow:
    mode: str
    seed: int
    pce: float
    rce: float
    sorr: float
    time_cost: float
    total_cost: float
    total_energy: float

    HEADER = ",".join(("mode", "seed", *COST_COLUMNS))

    def to_csv_line(self) -> str:
        vals = [self.mode, str(self.seed)]
        vals += [format(getattr(self, k), ".17g") for k in COST_COLUMNS]
        return ",".join(vals)


def metrics_from_report(report: OptReport, traj, params, mode: str, seed: int) -> MetricsRow:
    """A metrics row: the report's costs and `trajectory_energy` on the vehicle params."""
    return MetricsRow(mode=mode, seed=seed, pce=report.pce, rce=report.rce,
                      sorr=report.sorr, time_cost=report.time_cost,
                      total_cost=report.total_cost, total_energy=trajectory_energy(traj, params))


def write_metrics_csv(rows, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(MetricsRow.HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv_line() + "\n")


def aggregate_rows(rows: list[MetricsRow]) -> dict:
    """Per-mode means over successful runs plus success counts."""
    out = {}
    by_mode: dict[str, list[MetricsRow]] = {}
    for row in rows:
        by_mode.setdefault(row.mode, []).append(row)
    for mode, items in by_mode.items():
        out[mode] = {"n": len(items)}
        out[mode].update({k: float(np.mean([getattr(r, k) for r in items])) for k in COST_COLUMNS})
    return out
