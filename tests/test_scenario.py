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
from morphplan.dynamics import VehicleParams
from morphplan.scenario import SCHEMA, ScenarioError, load_scenario, parse_scenario
from morphplan.search import SearchConfig
from morphplan.traj_opt import OptProblem

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


MALFORMED = {
    "negative mass": _set("sim.mass", -1),
    "zero input weight": _set("control.w_input", [0.0, 0.4, 0.4, 0.4]),
    "horizon as a string": _set("control.horizon", "20"),
    "no body height": _drop("body.height"),
    "no map resolution": _drop("map.resolution"),
    "box without max": _box_without_max,
    "two body angles": _set("body.n_theta", 2),
    "non-integer seed": _set("benchmark.seeds", [0, 1.5]),
    "unknown key": _set("planning.v_mx", 1.0),
    "removed goal_vel_tol": _set("search.goal_vel_tol", 0.5),
    "bad mode": _set("mode", "shrink"),
    "start outside bounds": _set("start.position", [-1.0, 1.5, 0.8]),
    "disturbance without force": _drop("sim.disturbance.force"),
    "unknown disturbance profile": _set("sim.disturbance.profile", "gust"),
}


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
        duration_samples=2, v_max=2.0, radius_rate_max=0.4, d_margin=0.15, sorr_weight=8.0,
        time_weight=2.0, r_min=0.131, r_max=0.211, pos_dedup=0.2, radius_dedup=0.02,
        node_budget=400000, goal_pos_tol=0.2, goal_radius_tol=0.05, use_heuristic=True))
    assert_fields(sc.search_config("fixed-max"), dict(
        u_max=[1.5, 1.5, 1.5, 0.0], r_min=0.211, r_max=0.211, sorr_weight=0.0))
    assert_fields(sc.opt_problem(None), dict(
        v_max=2.0, a_max=4.0, radius_rate_max=0.4, radius_acc_max=2.0, d_margin=0.15,
        sorr_weight=8.0, time_weight=2.0, w_clearance=1e4, w_dynamics=1e3,
        clearance_buffer=0.005, kappa=16, radius_frozen=False,
        sigma0=[[0.6, 1.0, 0.8, 0.211], [0.0] * 4, [0.0] * 4]))
    assert sc.opt_problem(None, "fixed-min").radius_frozen
    same_config(sc.vehicle_params(), VehicleParams(height=0.12, r_min=0.131, r_max=0.211))
    same_config(sc.nmpc_config(), NmpcConfig())
    same_config(sc.tracking_config(), TrackingConfig())
    assert sc.disturbance(1.0) is None
    assert sc.energy_coeffs() == {}
    assert sc.benchmark_seeds == list(range(20))


def test_configs_without_optional_sections_take_class_defaults():
    raw = empty_raw()
    for section in ("planning", "search", "opt", "sim", "benchmark"):
        raw.pop(section, None)
    sc = parse_scenario(raw)
    body = dict(r_min=0.131, r_max=0.211)
    same_config(sc.search_config(), SearchConfig(**body))
    same_config(sc.opt_problem(None), OptProblem(field=None, body=sc.body, sigma0=np.zeros((3, 4)),
                                                  sigmaf=np.zeros((3, 4))),
                skip=("field", "body", "sigma0", "sigmaf"))
    assert sc.search_config().d_margin == sc.opt_problem(None).d_margin == 0.15
    same_config(sc.vehicle_params(), VehicleParams(height=0.12, **body))
    same_config(sc.tracking_config(), TrackingConfig())
    assert sc.disturbance(1.0) is None


def test_sim_section_reaches_tracking_and_energy():
    raw = empty_raw()
    raw["seed"] = 7
    raw["sim"].update(dt=0.004, duration_pad=0.1, energy_c2=50)
    raw["control"] = {"indi": False, "horizon": 12}
    sc = parse_scenario(raw)
    assert_fields(sc.tracking_config(), dict(sim_dt=0.004, duration_pad=0.1, indi=False, seed=7))
    assert sc.nmpc_config().horizon == 12
    assert sc.energy_coeffs() == {"c2": 50.0}
    np.testing.assert_array_equal(sc.disturbance(1.0)(0.5).force, [0.5, 0.0, 0.0])


def test_every_schema_key_reaches_a_config():
    """Each key a section may set is a field of a config it feeds, or one of
    the keys read by name (the energy model's coefficients, the disturbance
    and the simulation step)."""
    feeds = {"planning": (SearchConfig, OptProblem), "search": (SearchConfig,),
             "opt": (OptProblem,), "control": (NmpcConfig, TrackingConfig),
             "sim": (VehicleParams, TrackingConfig)}
    by_name = {"sim": {"energy_c1", "energy_c2", "disturbance", "dt"}}
    assert set(feeds) == set(SCHEMA)
    for section, keys in SCHEMA.items():
        fields = {f.name for cls in feeds[section] for f in dataclasses.fields(cls)}
        assert keys - fields - by_name.get(section, set()) == set(), section

