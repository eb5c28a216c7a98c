import json
import logging
from pathlib import Path

import numpy as np
import pytest

from morphplan import cli
from morphplan.metrics import MetricsRow
from morphplan.pipeline import _CsvTrajectory, load_trajectory_file, run_plan
from morphplan.scenario import load_scenario, parse_scenario
from morphplan.trajectory import fit_min_jerk, write_coeff_dump, write_sample_csv

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name, mode, total_cost", [
    ("slot", "fixed-min", 19.073066225847572),
    ("empty", "adaptive", 14.120077216477828),
    ("cross_gap", "fixed-min", 19.073066225847572),  # carries a payload
    ("cross_gap", "adaptive", 16.6111461556272),
])
def test_run_plan_golden_total_cost(name, mode, total_cost):
    out = run_plan(load_scenario(SCENARIOS / f"{name}.json"), mode=mode)
    assert out.metrics.total_cost == pytest.approx(total_cost, rel=1e-12)


def test_clutter_slot_leg_golden_cost_and_iterations():
    """benchmark.json, map seed 0, adaptive, through the 0.6 m slot from
    x = 3.6 to 6.4 m: three solves (the gate escalates the penalties twice)
    of 82, 90 and 95 iterations, each converging inside the iteration cap,
    so the count follows every rounding of the objective.  The report sums
    the three."""
    raw = json.loads((SCENARIOS / "benchmark.json").read_text())
    raw["start"]["position"] = [3.6, 1.0, 0.8]
    raw["goal"]["position"] = [6.4, 1.0, 0.8]
    out = run_plan(parse_scenario(raw), mode="adaptive", map_seed=0)
    assert out.report.total_cost == pytest.approx(11.846690501163131, rel=1e-12)
    assert out.report.iterations == 82 + 90 + 95


def test_cli_plan_writes_outputs(tmp_path):
    code = cli.main(["plan", str(SCENARIOS / "slot.json"), "-o", str(tmp_path), "--mode", "fixed-min"])
    assert code == 0
    for name in ("trajectory.csv", "coefficients.txt", "seed_path.csv", "metrics.csv"):
        assert (tmp_path / name).stat().st_size > 0
    header, row = (tmp_path / "metrics.csv").read_text().splitlines()
    assert header == MetricsRow.HEADER == "mode,seed,pce,rce,sorr,time_cost,total_cost,total_energy"
    assert row.startswith("fixed-min,0,") and len(row.split(",")) == 8 and "" not in row.split(",")


def short_scenario(tmp_path, **sections):
    """empty.json with a short tracking pad, plus the given sections."""
    raw = json.loads((SCENARIOS / "empty.json").read_text())
    raw["sim"]["duration_pad"] = 0.05
    raw.update(sections)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def hover():
    """A 0.1 s minimum-jerk piece holding one point of empty.json at r_max."""
    b0 = np.zeros((3, 4))
    b0[0] = [3.0, 1.5, 0.8, 0.211]
    return fit_min_jerk(np.zeros((0, 4)), [0.1], b0, b0)


def test_cli_simulate_reads_both_plan_formats(tmp_path, caplog):
    """A hover exported as a coefficient dump and as a sample CSV (read back
    through _CsvTrajectory) tracks the same: the CSV's linear interpolation is
    exact on a constant reference.  Each run logs its horizon solver's
    iteration figures."""
    caplog.set_level(logging.INFO, logger="morphplan")
    scenario = short_scenario(tmp_path)
    write_coeff_dump(hover(), tmp_path / "hover.txt")
    write_sample_csv(hover(), tmp_path / "hover.csv")
    assert isinstance(load_trajectory_file(tmp_path / "hover.csv"), _CsvTrajectory)
    rmse = []
    for name in ("hover.txt", "hover.csv"):
        out = tmp_path / name.replace(".", "_")
        assert cli.main(["simulate", str(scenario), str(tmp_path / name), "-o", str(out)]) == 0
        assert (out / "tracking_log.csv").stat().st_size > 0
        rmse.append(float((out / "rmse.txt").read_text()))
    assert np.isfinite(rmse[0])
    assert rmse[1] == pytest.approx(rmse[0], rel=0.0, abs=1e-12)
    solver = [r.getMessage() for r in caplog.records if r.getMessage().startswith("horizon solver:")]
    # 0.1 s plus the 0.05 s pad is 31 steps of 0.005 s (rounded up), with a
    # solve every second step
    assert len(solver) == 2 and all("over 16 ticks" in m and "budget of 3" in m for m in solver)


def test_cli_benchmark_one_seed(tmp_path):
    scenario = short_scenario(tmp_path, benchmark={"seeds": [0]})
    out = tmp_path / "bench"
    assert cli.main(["benchmark", str(scenario), "-o", str(out)]) == 0
    for name in ("benchmark_runs.csv", "benchmark_summary.csv", "benchmark_failures.csv"):
        assert (out / name).stat().st_size > 0
    summary = np.genfromtxt(out / "benchmark_summary.csv", delimiter=",", names=True,
                            dtype=None, encoding="utf-8")
    assert sorted(summary["mode"]) == ["adaptive", "fixed-max", "fixed-min"]
    assert np.all(summary["success_rate"] == 1.0)


def test_cli_benchmark_runs_an_unjittered_scenario_once_per_mode(tmp_path, caplog):
    """slot.json jitters no obstacle, so its 20 seeds pose one query: each
    mode runs once, on the first seed, and the success rate and count are
    over that one query."""
    caplog.set_level(logging.WARNING, logger="morphplan")
    out = tmp_path / "bench"
    assert cli.main(["benchmark", str(SCENARIOS / "slot.json"), "-o", str(out)]) == 0
    runs = (out / "benchmark_runs.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:2] for line in runs] == [["adaptive", "0"], ["fixed-min", "0"]]
    summary = [line.split(",") for line in (out / "benchmark_summary.csv").read_text().splitlines()]
    assert [(row[0], *row[-2:]) for row in summary[1:]] == [
        ("adaptive", "1", "1"), ("fixed-max", "0", "0"), ("fixed-min", "1", "1")]
    failures = (out / "benchmark_failures.csv").read_text().splitlines()[1:]
    assert len(failures) == 1 and failures[0].startswith("0,fixed-max,\"NoPathError:")
    assert any("the 20 benchmark seeds pose one query" in r.getMessage() for r in caplog.records)


def test_cli_benchmark_jobs_write_the_serial_tables(tmp_path):
    """The process-pool path writes every table byte for byte as the serial
    path does, over two seeds: a small jittered sphere in a far corner of
    empty.json makes each seed its own query."""
    raw = json.loads((SCENARIOS / "empty.json").read_text())
    corner = {"type": "sphere", "center": [5.8, 0.2, 0.2], "radius": 0.05, "jitter": 0.05}
    scenario = short_scenario(tmp_path, benchmark={"seeds": [0, 1]},
                              map={**raw["map"], "obstacles": [corner]})
    outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
    for jobs, out in zip((1, 2), outs):
        assert cli.main(["benchmark", str(scenario), "-o", str(out), "--jobs", str(jobs)]) == 0
    for name in ("benchmark_runs.csv", "benchmark_summary.csv", "benchmark_failures.csv"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()
    runs = (outs[0] / "benchmark_runs.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:2] for line in runs] == [
        [mode, seed] for seed in ("0", "1") for mode in ("adaptive", "fixed-max", "fixed-min")]
    summary = (outs[0] / "benchmark_summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-2:] for row in summary] == [["1", "2"]] * 3


def test_cli_plot_trajectory_and_tracking_log(tmp_path):
    scenario = short_scenario(tmp_path)
    write_sample_csv(hover(), tmp_path / "hover.csv")
    assert cli.main(["simulate", str(scenario), str(tmp_path / "hover.csv"), "-o", str(tmp_path)]) == 0
    plots = tmp_path / "plots"
    assert cli.main(["plot", str(tmp_path / "hover.csv"), str(tmp_path / "tracking_log.csv"),
                     "-o", str(plots)]) == 0
    for name in ("hover_topdown.svg", "hover_series.svg", "tracking_log_error.svg"):
        assert (plots / name).read_text().startswith("<svg")



def test_cli_plot_draws_20_footprints_800_px_wide(tmp_path, fig8_traj):
    write_sample_csv(fig8_traj, tmp_path / "fig8.csv")
    assert cli.main(["plot", str(tmp_path / "fig8.csv"), "-o", str(tmp_path)]) == 0
    topdown = (tmp_path / "fig8_topdown.svg").read_text()
    assert topdown.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="800" ')
    assert topdown.count('fill="none" stroke="#c44e52" stroke-width="0.0100"/>') == 20
    assert (tmp_path / "fig8_series.svg").read_text().count('font-size="0.120"') == 2
