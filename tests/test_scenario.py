"""Scenario loading: malformed files fail at load as ScenarioError (exit 1
from the CLI), and the configs built from a file carry the file's values
and, for every key it leaves out, the config class's own default."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from morphplan import cli
from morphplan import scenario as scenario_mod
from morphplan.controller import NmpcConfig, TrackingConfig
from morphplan.dynamics import VehicleParams, trajectory_energy
from morphplan.esdf import BodyGeometry
from morphplan.scenario import MODES, SCHEMA, ScenarioError, load_scenario, parse_scenario
from morphplan.search import SearchConfig
from morphplan.traj_opt import OptProblem
from morphplan.trajectory import fit_min_jerk

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def empty_raw():
    return json.loads((SCENARIOS / "empty.json").read_text())


def _set(path, value):
    def edit(raw):
        *head, last = path.split(".")
        node = raw
        for key in head:
            node = node.setdefault(key, {})
        node[last] = value
    return edit


def _drop(path):
    def edit(raw):
        *head, last = path.split(".")
        node = raw
        for key in head:
            node = node[key]
        del node[last]
    return edit


def _box_without_max(raw):
    raw["map"]["obstacles"] = [{"type": "box", "min": [1.0, 1.0, 0.0]}]


NOISE = {"profile": "noise", "force_std": [0.5, 0.5, 0.5], "torque_std": [0.01, 0.01, 0.01],
         "cutoff_hz": 5.0}

MALFORMED = {
    "negative mass": _set("sim.mass", -1),
    "zero input weight": _set("control.w_input", [0.0, 0.4, 0.4, 0.4]),
    "negative thrust bound": _set("control.u_min", [-1.0, -1.5, -1.5, -0.5]),
    "horizon as a string": _set("control.horizon", "20"),
    "no body height": _drop("body.height"),
    "no map resolution": _drop("map.resolution"),
    "removed truncation": _set("map.truncation", 5.0),
    "box without max": _box_without_max,
    "two body angles": _set("body.n_theta", 2),
    "non-integer seed": _set("benchmark.seeds", [0, 1.5]),
    "unknown key": _set("planning.v_mx", 1.0),
    "removed goal_vel_tol": _set("search.goal_vel_tol", 0.5),
    "removed use_heuristic": _set("search.use_heuristic", False),
    "bad mode": _set("mode", "shrink"),
    "start outside bounds": _set("start.position", [-1.0, 1.5, 0.8]),
    "disturbance without force": _drop("sim.disturbance.force"),
    "unknown disturbance profile": _set("sim.disturbance.profile", "gust"),
    "max_iters as a string": _set("control.max_iters", "30"),
    "fractional horizon": _set("control.horizon", 20.5),
    "zero control step": _set("control.control_dt", 0.0),
    # the shipped 0.01 s is two simulation steps of 0.005 s
    "control step of 2.4 simulation steps": _set("control.control_dt", 0.012),
    "control step below a simulation step": _set("control.control_dt", 0.002),
    "negative clearance margin": _set("planning.d_margin", -1.0),
    "duration_pad as a string": _set("sim.duration_pad", "0.5"),
    "node_budget as a string": _set("search.node_budget", "100"),
    "fractional kappa": _set("opt.kappa", 16.5),
    "v_max as a string": _set("planning.v_max", "2"),
    "negative dt_max": _set("search.dt_max", -1.0),
    "empty seed list": _set("benchmark", {"seeds": []}),
    "negative seed count": _set("benchmark", {"n_seeds": -3}),
    "negative benchmark seed": _set("benchmark", {"seeds": [-1]}),
    "negative scenario seed": _set("seed", -2),
    # the servo map divides by r_max - r_min and by servo_tau
    "degenerate body": _set("body.r_min", 0.211),
    "zero servo time constant": _set("sim.servo_tau", 0),
    "central_radius as a string": _set("sim.central_radius", "0.06"),
    "fractional body angles": _set("body.n_theta", 12.5),
    "fractional body rings": _set("body.n_l", 1.5),
    "removed indi": _set("control.indi", False),
    # a cutoff at or below zero filters nothing: the gain grows, or the noise is zero
    "negative noise cutoff": _set("sim.disturbance", NOISE | {"cutoff_hz": -5.0}),
    "zero noise cutoff": _set("sim.disturbance", NOISE | {"cutoff_hz": 0.0}),
    "negative noise std": _set("sim.disturbance", NOISE | {"torque_std": [-0.01, 0.0, 0.0]}),
}


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_scenario_builds_its_map_and_problems(path):
    """Each shipped file loads, builds its map, and builds its planning
    problem in every mode, so a file left holding a removed key fails
    here."""
    scenario = load_scenario(path)
    field = scenario.build_field(map_seed=None)
    for mode in MODES:
        assert scenario.opt_problem(field, mode).field is field


def malformed_file(tmp_path, edit):
    raw = empty_raw()
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_scenario_raises_scenario_error(name):
    raw = empty_raw()
    MALFORMED[name](raw)
    with pytest.raises(ScenarioError):
        parse_scenario(raw)


@pytest.mark.parametrize("name", list(MALFORMED))
def test_cli_exits_1_on_malformed_scenario_before_any_map(name, tmp_path, monkeypatch, caplog):
    def no_map(*args, **kwargs):
        raise AssertionError("a map was built for a malformed scenario")

    monkeypatch.setattr(scenario_mod, "build_grid", no_map)
    path = malformed_file(tmp_path, MALFORMED[name])
    out = tmp_path / "out"
    assert cli.main(["plan", str(path), "-o", str(out)]) == cli.EXIT_PARSE
    # the scenario loads before the trajectory file is opened
    assert cli.main(["simulate", str(path), str(tmp_path / "none.csv"), "-o", str(out)]) == cli.EXIT_PARSE
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 2 and all(e.startswith("scenario error:") for e in errors)


def test_cli_process_reports_scenario_error_without_traceback(tmp_path):
    path = malformed_file(tmp_path, MALFORMED["negative mass"])
    proc = subprocess.run(
        [sys.executable, "-m", "morphplan.cli", "plan", str(path), "-o", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 1
    assert "scenario error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def assert_fields(cfg, expect: dict):
    for name, value in expect.items():
        got = getattr(cfg, name)
        if isinstance(got, np.ndarray):
            np.testing.assert_array_equal(got, value, err_msg=name)
        else:
            assert got == value, name


def same_config(a, b, skip=()):
    assert type(a) is type(b)
    assert_fields(a, {f.name: getattr(b, f.name) for f in dataclasses.fields(b)
                      if f.name not in skip})


def test_slot_configs_pinned():
    sc = load_scenario(SCENARIOS / "slot.json")
    assert_fields(sc.search_config(), dict(
        u_max=[1.5, 1.5, 1.5, 0.3], dt_min=0.4, dt_max=0.8, accel_samples=3,
        duration_samples=2, pos_dedup=0.2, radius_dedup=0.02, node_budget=400000,
        goal_pos_tol=0.2, goal_radius_tol=0.05))
    assert_fields(sc.opt_problem(None), dict(
        v_max=2.0, a_max=4.0, radius_rate_max=0.4, radius_acc_max=2.0, d_margin=0.15,
        sorr_weight=8.0, time_weight=2.0, w_clearance=1e4, w_dynamics=1e3,
        clearance_buffer=0.005, kappa=16, radius_frozen=False,
        sigma0=[[0.6, 1.0, 0.8, 0.211], [0.0] * 4, [0.0] * 4]))
    assert_fields(sc.opt_problem(None, "fixed-max"), dict(
        radius_frozen=True, sorr_weight=8.0,
        sigma0=[[0.6, 1.0, 0.8, 0.211], [0.0] * 4, [0.0] * 4],
        sigmaf=[[4.4, 1.0, 0.8, 0.211], [0.0] * 4, [0.0] * 4]))
    assert sc.opt_problem(None, "fixed-min").radius_frozen
    assert_fields(sc.body, dict(height=0.12, n_theta=12, n_l=1, r_min=0.131, r_max=0.211))
    same_config(sc.vehicle_params(), VehicleParams(body=sc.body))
    same_config(sc.nmpc_config(), NmpcConfig())
    same_config(sc.tracking_config(), TrackingConfig())
    assert sc.disturbance(1.0) is None
    assert sc.benchmark_seeds == list(range(20))


def test_configs_without_optional_sections_take_class_defaults():
    raw = empty_raw()
    for section in ("planning", "search", "opt", "sim", "benchmark"):
        raw.pop(section, None)
    sc = parse_scenario(raw)
    same_config(sc.search_config(), SearchConfig())
    same_config(sc.opt_problem(None), OptProblem(field=None, body=sc.body, sigma0=np.zeros((3, 4)),
                                                  sigmaf=np.zeros((3, 4))),
                skip=("field", "body", "sigma0", "sigmaf"))
    assert sc.opt_problem(None).d_margin == 0.15
    same_config(sc.vehicle_params(), VehicleParams(body=sc.body))
    same_config(sc.tracking_config(), TrackingConfig())
    assert sc.disturbance(1.0) is None


def test_sim_section_reaches_tracking_and_energy():
    raw = empty_raw()
    raw["seed"] = 7
    raw["sim"].update(dt=0.0025, duration_pad=0.1, energy_c2=50)
    raw["control"] = {"force_compensation": False, "horizon": 12}
    sc = parse_scenario(raw)
    assert_fields(sc.tracking_config(), dict(sim_dt=0.0025, duration_pad=0.1,
                                             force_compensation=False, seed=7))
    assert sc.nmpc_config().horizon == 12
    assert_fields(sc.vehicle_params(), dict(energy_c1=1.0, energy_c2=50))
    np.testing.assert_array_equal(sc.disturbance(1.0)(0.5).force, [0.5, 0.0, 0.0])


def test_every_schema_key_reaches_a_config():
    """Each key a section may set is a field of a config it feeds, or one of
    the keys read by name (the disturbance and the simulation step)."""
    feeds = {"planning": (OptProblem,), "search": (SearchConfig,),
             "opt": (OptProblem,), "control": (NmpcConfig, TrackingConfig),
             "sim": (VehicleParams, TrackingConfig)}
    by_name = {"sim": {"disturbance", "dt"}}
    assert set(feeds) == set(SCHEMA)
    for section, keys in SCHEMA.items():
        fields = {f.name for cls in feeds[section] for f in dataclasses.fields(cls)}
        assert keys - fields - by_name.get(section, set()) == set(), section


def test_vehicle_reads_the_scenario_body():
    """The radius range and height are the body's alone: the vehicle holds
    the scenario's body, and no other field of it repeats a body field."""
    vehicle = {f.name for f in dataclasses.fields(VehicleParams)} - {"body"}
    assert not vehicle & {f.name for f in dataclasses.fields(BodyGeometry)}
    sc = load_scenario(SCENARIOS / "slot.json")
    assert sc.vehicle_params().body is sc.body


def test_benchmark_energy_coefficient_reaches_the_energy():
    """benchmark.json sets energy_c2 = 50: the model energy of a 2 s shrink
    from r_max to r_min is its value before the coefficients moved onto the
    vehicle (62.08 with energy_c2 = 1)."""
    sc = load_scenario(SCENARIOS / "benchmark.json")
    b0, b1 = np.zeros((3, 4)), np.zeros((3, 4))
    b0[0] = [0.0, 0.0, 1.0, 0.211]
    b1[0] = [1.0, 0.0, 1.0, 0.131]
    traj = fit_min_jerk(np.zeros((0, 4)), [2.0], b0, b1)
    assert trajectory_energy(traj, sc.vehicle_params()) == 67.59558209004601
