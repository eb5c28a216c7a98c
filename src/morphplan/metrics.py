"""Benchmark metric rows and their CSV serialization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import trajectory_energy
from .traj_opt import OptReport


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
    tracking_rmse: float | None = None

    HEADER = "mode,seed,pce,rce,sorr,time_cost,total_cost,total_energy,tracking_rmse"

    def to_csv_line(self) -> str:
        vals = [self.mode, str(self.seed)]
        for v in (self.pce, self.rce, self.sorr, self.time_cost,
                  self.total_cost, self.total_energy):
            vals.append(format(v, ".17g"))
        vals.append("" if self.tracking_rmse is None else format(self.tracking_rmse, ".17g"))
        return ",".join(vals)


def metrics_from_report(report: OptReport, traj, params, mode: str, seed: int,
                        c1: float = 1.0, c2: float = 1.0) -> MetricsRow:
    energy = trajectory_energy(traj, params, c1=c1, c2=c2)
    return MetricsRow(mode=mode, seed=seed, pce=report.pce, rce=report.rce,
                      sorr=report.sorr, time_cost=report.time_cost,
                      total_cost=report.total_cost, total_energy=energy)


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
        out[mode] = {
            "n": len(items),
            "pce": float(np.mean([r.pce for r in items])),
            "rce": float(np.mean([r.rce for r in items])),
            "sorr": float(np.mean([r.sorr for r in items])),
            "time_cost": float(np.mean([r.time_cost for r in items])),
            "total_cost": float(np.mean([r.total_cost for r in items])),
            "total_energy": float(np.mean([r.total_energy for r in items])),
        }
    return out
