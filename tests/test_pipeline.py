import json
import logging
from pathlib import Path

import numpy as np
import pytest

from morphplan import cli, traj_opt
from morphplan.esdf import compute_esdf, points_in_bounds
from morphplan.metrics import MetricsRow
from morphplan.pipeline import _CsvTrajectory, load_trajectory_file, run_plan
from morphplan.scenario import load_scenario, parse_scenario
from morphplan.search import search
from morphplan.traj_opt import optimize
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


def shipped_fields(name):
    """A shipped scenario, its own map, capped on both sides at the
    problem's band, and the same map capped at 5 m."""
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    banded = scenario.build_field(map_seed=None)
    wide = compute_esdf(banded.grid, band=5.0)
    assert not np.array_equal(banded.distance, wide.distance)
    return scenario, banded, wide


def plan_on(scenario, field, mode):
    """(trajectory, report) of the scenario's query in the mode on the field."""
    problem = scenario.opt_problem(field, mode)
    return optimize(search(problem, scenario.search_config()), problem)


@pytest.mark.parametrize("name, mode", [("slot", "fixed-min"), ("cross_gap", "adaptive"),
                                        ("cross_gap", "fixed-min")])
def test_the_band_leaves_the_shipped_plans_unchanged(name, mode):
    """The same coefficients, durations and total cost, bit for bit, on the
    band's map and on the 5 m map."""
    scenario, banded, wide = shipped_fields(name)
    (traj, report), (wide_traj, wide_report) = (plan_on(scenario, f, mode) for f in (banded, wide))
    assert np.array_equal(traj.coeffs, wide_traj.coeffs)
    assert np.array_equal(traj.durations, wide_traj.durations)
    assert report.total_cost == wide_report.total_cost


def test_the_band_moves_the_slot_plan_only_through_reads_beyond_the_map(monkeypatch):
    """Adaptive on slot, the optimizer's line search probes poses whose
    hull leaves the map by more than the band.  Beyond the map the field
    reads its boundary value minus the excursion, so there, and only there,
    the two maps read differently below the hinge's level: every clearance
    batch of the plan on the band's map is also evaluated on the 5 m map.
    The plans' total costs agree to 1e-5."""
    scenario, banded, wide = shipped_fields("slot")
    _, wide_report = plan_on(scenario, wide, "adaptive")
    problem = scenario.opt_problem(None)
    level = problem.d_margin + problem.clearance_buffer
    clearance = traj_opt.clearance_batch
    differing = []

    def on_both(field, centers, radii, body):
        got, want = (clearance(f, centers, radii, body) for f in (field, wide))
        apart = (got[0] != want[0]) | (got[1] != want[1]).any(axis=1) | (got[2] != want[2])
        rows = np.flatnonzero(apart & (np.minimum(got[0], want[0]) < level))
        differing.append(body.surface_points(centers[rows], radii[rows])[0])
        return got

    monkeypatch.setattr(traj_opt, "clearance_batch", on_both)
    _, report = plan_on(scenario, banded, "adaptive")
    poses = np.concatenate(differing)
    assert len(poses) > 0
    beyond = ~points_in_bounds(banded, poses.reshape(-1, 3)).reshape(poses.shape[:2])
    assert beyond.any(axis=1).all()
    assert report.total_cost == pytest.approx(wide_report.total_cost, rel=1e-5)


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


def test_clutter_sphere_leg_golden_cost_and_iterations():
    """benchmark.json, map seed 0, adaptive, past the first sphere from
    x = 1.2 to 3.8 m: four solves, each stopped at the 300-iteration cap,
    and the gate passes after the last.  This leg follows the last bit of
    every evaluation: one-ulp changes of the objective's value, of one
    entry of the jerk Gram matrix, or the Gram matrices' powers taken as a
    numpy array power, moved its total cost by up to 1.9e-5 relative, so an
    exact rewrite of the objective must leave this cost as it is."""
    raw = json.loads((SCENARIOS / "benchmark.json").read_text())
    raw["start"]["position"] = [1.2, 1.0, 0.8]
    raw["goal"]["position"] = [3.8, 1.0, 0.8]
    scenario = parse_scenario(raw)
    out = run_plan(scenario, mode="adaptive", map_seed=0)
    assert out.report.total_cost == pytest.approx(12.058869851025188, rel=1e-12)
    assert out.report.iterations == 4 * 300
    problem = scenario.opt_problem(scenario.build_field(map_seed=0), "adaptive")
    residuals = traj_opt.verify_trajectory(out.trajectory, problem)
    assert max(residuals[k] for k in traj_opt.GATE_FAMILIES) <= traj_opt.VERIFY_TOL


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
    iteration and step figures: at the default budget of one iteration every
    tick of the hover takes the full Gauss-Newton step."""
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
    assert len(solver) == 2 and all("over 16 ticks" in m and "budget of 1" in m for m in solver)
    assert all("100.0% ending on a full step, 0.0% on no improving step" in m for m in solver)


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


@pytest.mark.parametrize("name,text", [
    ("missing_columns", "t,x,y\n0,1,2\n1,2,3\n"),
    ("header_only", "t,x,y,z,r\n"),
    ("empty_log", "t,ref_x,ref_y,ref_z,x,y,z\n"),
    ("nan_log", "t,ref_x,ref_y,ref_z,x,y,z\n0,0,0,1,0,0,nan\n"),
    ("inf_log", "t,ref_x,ref_y,ref_z,x,y,z\n0,0,0,1,0,0,1\n1,0,0,1,inf,0,1\n"),
])
def test_cli_plot_rejects_malformed_input(tmp_path, name, text):
    """A CSV with a missing column, no rows or a value that is not finite
    exits 1 and draws nothing; the program itself never writes one."""
    path = tmp_path / f"{name}.csv"
    path.write_text(text)
    assert cli.main(["plot", str(path), "-o", str(tmp_path)]) == cli.EXIT_PARSE
    assert not list(tmp_path.glob("*.svg"))


@pytest.mark.parametrize("args", [
    [],
    ["plan", "empty.json"],
    ["plan", "empty.json", "-o", "out", "--mode", "shrink"],
    ["benchmark", "empty.json", "-o", "out", "--jobs", "-3"],
    ["benchmark", "empty.json", "-o", "out", "--jobs", "0"],
    ["benchmark", "empty.json", "-o", "out", "--jobs", "two"],
], ids=["no command", "plan without -o", "unknown mode", "negative jobs", "zero jobs",
        "jobs not a number"])
def test_cli_usage_error_exits_1(tmp_path, args, capsys):
    """A command line argparse rejects exits 1, as a parse error, runs
    nothing and says why on stderr; --jobs must be a whole number of at
    least 1.  --help still exits 0."""
    argv = [str(SCENARIOS / a) if a.endswith(".json") else str(tmp_path / a) if a == "out" else a
            for a in args]
    assert cli.main(argv) == cli.EXIT_PARSE
    assert not (tmp_path / "out").exists()
    assert "error:" in capsys.readouterr().err
    assert cli.main(["benchmark", "--help"]) == 0


SAMPLE_HEADER = "t,x,y,z,r,dx,dy,dz,dr,ddx,ddy,ddz,ddr,dddx,dddy,dddz,dddr\n"


@pytest.mark.parametrize("name", ["empty.txt", "header_only.csv", "nan.csv", "inf.csv",
                                  "truncated.txt", "trailing.txt", "nan_dump.txt"])
def test_cli_rejects_malformed_trajectory_files(tmp_path, name):
    """`simulate` exits 5 and `plot` exits 1, neither raising, on a trajectory
    file that is empty, holds no rows, a NaN or an infinite value, or is a
    coefficient dump with fewer or more numbers than its header counts, or a
    NaN."""
    path = tmp_path / name
    write_coeff_dump(hover(), tmp_path / "dump.txt")
    dump = (tmp_path / "dump.txt").read_text()
    path.write_text({
        "empty.txt": "",
        "header_only.csv": SAMPLE_HEADER,
        "nan.csv": SAMPLE_HEADER + "0" + ",0" * 15 + ",nan\n",
        "inf.csv": SAMPLE_HEADER + "0" + ",0" * 9 + ",inf" + ",0" * 6 + "\n",
        "truncated.txt": "2 3\n1.0\n1 2 3 4\n",
        "trailing.txt": dump + "0\n",
        "nan_dump.txt": "1 3\nnan\n" + "0 0 0 0\n" * 6,
    }[name])
    out = tmp_path / "out"
    assert cli.main(["simulate", str(SCENARIOS / "empty.json"), str(path), "-o", str(out)]) \
        == cli.EXIT_SIMULATION
    assert not (out / "tracking_log.csv").exists()
    assert cli.main(["plot", str(path), "-o", str(out)]) == cli.EXIT_PARSE
    assert not list(out.glob("*.svg"))


def test_cli_plot_draws_20_footprints_800_px_wide(tmp_path, fig8_traj):
    write_sample_csv(fig8_traj, tmp_path / "fig8.csv")
    assert cli.main(["plot", str(tmp_path / "fig8.csv"), "-o", str(tmp_path)]) == 0
    topdown = (tmp_path / "fig8_topdown.svg").read_text()
    assert topdown.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="800" ')
    assert topdown.count('fill="none" stroke="#c44e52" stroke-width="0.0100"/>') == 20
    assert (tmp_path / "fig8_series.svg").read_text().count('font-size="0.120"') == 2
