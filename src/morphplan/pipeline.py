"""End-to-end pipelines behind the CLI: plan (search + optimize + metrics),
simulate (closed-loop tracking of an exported trajectory) and the
three-mode benchmark."""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .controller import run_tracking, write_tracking_csv
from .metrics import (COST_COLUMNS, MetricsRow, aggregate_rows, metrics_from_report,
                      write_metrics_csv)
from .scenario import MODES, Scenario, load_scenario
from .search import search, write_path_csv
from .traj_opt import optimize
from .trajectory import write_coeff_dump, write_sample_csv

log = logging.getLogger(__name__)


@dataclass(eq=False)
class PlanOutput:
    trajectory: object
    report: object
    metrics: MetricsRow
    search_result: object


def run_plan(scenario: Scenario, mode: str | None, map_seed: int | None = None) -> PlanOutput:
    """Search and optimize one planning problem; mode None is the scenario's."""
    mode = mode or scenario.mode
    problem = scenario.opt_problem(scenario.build_field(map_seed=map_seed), mode)
    # one problem for both stages: its body carries any payload, so the seed
    # path is payload-aware, and both read its radius_frozen
    result = search(problem, scenario.search_config())
    traj, report = optimize(result, problem)
    metrics = metrics_from_report(report, traj, scenario.vehicle_params(), mode,
                                  map_seed if map_seed is not None else scenario.seed)
    return PlanOutput(trajectory=traj, report=report, metrics=metrics, search_result=result)


def cmd_plan(scenario_path, out_dir, mode: str | None) -> PlanOutput:
    scenario = load_scenario(scenario_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_plan(scenario, mode=mode)
    write_sample_csv(result.trajectory, out / "trajectory.csv")
    write_coeff_dump(result.trajectory, out / "coefficients.txt")
    write_path_csv(result.search_result, out / "seed_path.csv")
    write_metrics_csv([result.metrics], out / "metrics.csv")
    return result


class _CsvTrajectory:
    """Reference wrapper over a fixed-rate trajectory export: linear
    interpolation of value and first three derivatives per channel."""

    def __init__(self, times: np.ndarray, data: np.ndarray):
        self.times = times
        self.data = data  # (N, 4 orders, 4 channels)
        self.total_time = float(times[-1])

    def sample(self, ts, orders):
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, self.total_time)
        out = np.empty((len(ts), len(orders), 4))
        for oi, order in enumerate(orders):
            for ch in range(4):
                out[:, oi, ch] = np.interp(ts, self.times, self.data[:, order, ch])
        return out


def load_trajectory_file(path):
    """Accept either a coefficient dump or a fixed-rate CSV export."""
    path = Path(path)
    with open(path) as fh:
        head = fh.readline()
    if head.startswith("t,"):
        from .trajectory import read_sample_csv

        times, data = read_sample_csv(path)
        return _CsvTrajectory(times, data)
    from .trajectory import read_coeff_dump

    return read_coeff_dump(path)


def cmd_simulate(scenario_path, trajectory_path, out_dir):
    scenario = load_scenario(scenario_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj = load_trajectory_file(trajectory_path)
    params = scenario.vehicle_params()
    nmpc = scenario.nmpc_config()
    tracking = scenario.tracking_config()
    disturbance = scenario.disturbance(traj.total_time + tracking.duration_pad)
    result = run_tracking(traj, params, nmpc, tracking, disturbance=disturbance)
    iters = result.gn_iterations
    log.info("horizon solver: %.2f Gauss-Newton iterations per tick over %d ticks, "
             "%.1f%% of ticks at the budget of %d, %.1f%% converged", iters.mean(), len(iters),
             100.0 * np.mean(iters >= nmpc.max_iters), nmpc.max_iters,
             100.0 * np.mean(result.gn_converged))
    write_tracking_csv(result, out / "tracking_log.csv")
    with open(out / "rmse.txt", "w", newline="\n") as fh:
        fh.write(format(result.rmse, ".17g") + "\n")
    return result


def _benchmark_task(args):
    scenario_path, mode, seed = args
    scenario = load_scenario(scenario_path)
    try:
        result = run_plan(scenario, mode=mode, map_seed=seed)
        return (seed, mode, result.metrics, None)
    except Exception as err:  # noqa: BLE001 - failures become table entries
        return (seed, mode, None, f"{type(err).__name__}: {err}")


def cmd_benchmark(scenario_path, out_dir, jobs: int):
    """Run all three modes over the scenario's seed list; returns the
    aggregate table.  Failures count against the success rate, never as
    zero-cost rows.  The map seed only draws the obstacles' jitter, so with
    no jittered obstacle every seed poses the same query: then each mode
    runs once, on the first seed, and the success rate counts that one
    query."""
    scenario = load_scenario(scenario_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = scenario.benchmark_seeds
    if not any(o.jitter > 0.0 for o in scenario.obstacles):
        log.warning("no obstacle is jittered, so the %d benchmark seeds pose one query: "
                    "each mode runs once, on seed %d", len(seeds), seeds[0])
        seeds = seeds[:1]
    tasks = [(str(scenario_path), mode, seed) for seed in seeds for mode in MODES]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_benchmark_task, tasks))
    else:
        results = [_benchmark_task(t) for t in tasks]
    results.sort(key=lambda r: (r[0], MODES.index(r[1])))

    rows = [r[2] for r in results if r[2] is not None]
    failures = [(r[0], r[1], r[3]) for r in results if r[2] is None]
    for seed, mode, msg in failures:
        log.warning("seed %d mode %s failed: %s", seed, mode, msg)
    write_metrics_csv(rows, out / "benchmark_runs.csv")

    summary = aggregate_rows(rows)
    n_seeds = len(seeds)
    with open(out / "benchmark_summary.csv", "w", newline="\n") as fh:
        fh.write(",".join(("mode", *COST_COLUMNS, "success_rate", "n_success")) + "\n")
        for mode in MODES:
            if mode in summary:
                s = summary[mode]
                cols = [mode] + [format(s[k], ".17g") for k in COST_COLUMNS]
                cols += [format(s["n"] / n_seeds, ".17g"), str(s["n"])]
            else:
                cols = [mode] + [""] * len(COST_COLUMNS) + ["0", "0"]
            fh.write(",".join(cols) + "\n")
    with open(out / "benchmark_failures.csv", "w", newline="\n") as fh:
        fh.write("seed,mode,error\n")
        for seed, mode, msg in failures:
            fh.write(f"{seed},{mode},\"{msg}\"\n")
    if not rows:
        from .search import NoPathError

        raise NoPathError("every mode failed on every seed")
    return summary, rows, failures
