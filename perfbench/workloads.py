"""The benchmark's three workloads: the operations one round runs, the
inputs they are made from, and the checks applied to each output.

A round holds planning queries (what `morphplan plan` does: ESDF build,
search, optimisation with its gate, model energy) and tracking runs (what
`morphplan simulate` does: closed-loop `run_tracking`).  Each workload has a
main list and a small companion list of the other kind, so that every
end-to-end metric is measured on every workload.  The companion list runs
at both ends of the round, so that its timings sample the host before and
after the long main operations.  The seed orders the main operations
and draws the accelerometer noise of the disturbed tracking run.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from morphplan import controller, pipeline
from morphplan import scenario as scenario_mod
from morphplan.search import NoPathError
from morphplan.trajectory import fit_min_jerk

ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = ROOT / "scenarios"

FINE_RESOLUTION = 0.025
ACCEL_NOISE_STD = 0.05                 # m/s^2, drawn from the run's seed
DISTURBANCE_FORCE = [0.98, 0.0, 0.0]   # N, world frame
DISTURBANCE_TORQUE = [0.0, 0.02, 0.0]  # N m, body frame
HOVER_FORCE = [0.3, 0.0, 0.0]          # N, on the companion hover

# (scenario file, mode, map seed, resolution or None for the file's own,
#  whether a path exists[, (start, goal) positions in place of the file's])
# Two legs of benchmark.json's own 8.4 m query: past the first sphere, where
# the optimiser runs to its 300-iteration cap, and through the 0.6 m slot,
# where the body must shrink.  The whole query (25-35 s) is not run: the
# host's speed changes by up to 40% within minutes, so the longer a run,
# the further apart the ten runs of a set land.
CLUTTER_QUERIES = [
    ("benchmark.json", "adaptive", 0, None, True, ((1.2, 1.0, 0.8), (3.8, 1.0, 0.8))),
    ("benchmark.json", "adaptive", 0, None, True, ((3.6, 1.0, 0.8), (6.4, 1.0, 0.8))),
]
FINE_QUERIES = [
    ("empty.json", "adaptive", None, FINE_RESOLUTION, True),
    ("empty.json", "fixed-max", None, FINE_RESOLUTION, True),
    ("empty.json", "fixed-min", None, FINE_RESOLUTION, True),
    ("cross_gap.json", "adaptive", None, FINE_RESOLUTION, True),
    ("cross_gap.json", "fixed-min", None, FINE_RESOLUTION, True),
    ("slot.json", "fixed-min", None, FINE_RESOLUTION, True),
    ("slot.json", "fixed-max", None, FINE_RESOLUTION, False),
]
COMPANION_QUERIES = [
    ("slot.json", "fixed-min", None, None, True),
    ("empty.json", "adaptive", None, None, True),
    ("cross_gap.json", "fixed-min", None, None, True),
]


@dataclass(eq=False)
class PlanOp:
    label: str
    raw: dict
    scenario: object
    mode: str
    map_seed: int | None
    expect_path: bool
    obstacles: list


@dataclass(eq=False)
class TrackOp:
    label: str
    scenario: object
    traj: object
    force: np.ndarray
    check_force: bool


def read_json(name):
    with open(SCENARIO_DIR / name) as fh:
        return json.load(fh)


def plan_op(name, mode, map_seed, resolution, expect_path, ends=None):
    raw = read_json(name)
    if resolution is None and ends is None:
        scenario = scenario_mod.load_scenario(SCENARIO_DIR / name)
    else:
        if resolution is not None:
            raw["map"]["resolution"] = resolution
        if ends is not None:
            raw["start"]["position"], raw["goal"]["position"] = map(list, ends)
        scenario = scenario_mod.parse_scenario(copy.deepcopy(raw))
    res = raw["map"]["resolution"]
    label = f"{name[:-5]} {mode} seed={map_seed} res={res}"
    if ends is not None:
        label += f" x {ends[0][0]}->{ends[1][0]}"
    return PlanOp(label=label, raw=raw, scenario=scenario, mode=mode, map_seed=map_seed,
                  expect_path=expect_path, obstacles=checks.true_obstacles(raw, map_seed))


def figure_eight(r_max, r_low=0.15, ax=0.03, ay=0.015, height=1.0, duration=2.0):
    """Minimum-jerk figure-eight through 9 lemniscate waypoints, at rest at
    both ends; the radius shrinks from r_max to r_low mid-way and back."""
    s = np.linspace(0.0, 1.0, 9)
    th = 2.0 * np.pi * s
    wps = np.stack([ax * np.sin(th), ay * np.sin(2.0 * th), np.full_like(s, height),
                    r_max - (r_max - r_low) * np.sin(np.pi * s) ** 2], axis=1)
    b0 = np.zeros((3, 4))
    b0[0] = wps[0]
    b1 = np.zeros((3, 4))
    b1[0] = wps[-1]
    return fit_min_jerk(wps[1:-1], np.full(8, duration / 8), b0, b1)


def hover(r_max, height=1.0, duration=0.2):
    """One minimum-jerk piece that holds a hover at r_max."""
    b0 = np.zeros((3, 4))
    b0[0] = [0.0, 0.0, height, r_max]
    return fit_min_jerk(np.zeros((0, 4)), [duration], b0, b0)


def track_op(seed, disturbed):
    """The disturbed figure-eight (main), or a short hover under a small
    lateral force (companion; too short for its force estimate to be checked
    over a settled second)."""
    raw = read_json("empty.json")
    raw["seed"] = int(seed)
    force = DISTURBANCE_FORCE if disturbed else HOVER_FORCE
    torque = DISTURBANCE_TORQUE if disturbed else [0.0, 0.0, 0.0]
    raw["sim"] = {"accel_noise_std": ACCEL_NOISE_STD if disturbed else 0.0,
                  "duration_pad": 0.2 if disturbed else 0.05,
                  "disturbance": {"profile": "constant", "force": force, "torque": torque}}
    scenario = scenario_mod.parse_scenario(raw)
    r_max = scenario.body.r_max
    if disturbed:
        return TrackOp(label="figure-eight, disturbed", scenario=scenario,
                       traj=figure_eight(r_max), force=np.asarray(force, float), check_force=True)
    return TrackOp(label="hover, 0.3 N", scenario=scenario, traj=hover(r_max),
                   force=np.asarray(force, float), check_force=False)


def build_round(workload, seed):
    """The operations of one round: the companions, the main operations in
    the seed's order, and the companions again."""
    if workload == "clutter-plan":
        main = [plan_op(*q) for q in CLUTTER_QUERIES]
        companions = [track_op(seed, disturbed=False)]
    elif workload == "fine-map":
        main = [plan_op(*q) for q in FINE_QUERIES]
        companions = [track_op(seed, disturbed=False)]
    elif workload == "disturbed-track":
        main = [track_op(seed, disturbed=True)]
        companions = [plan_op(*q) for q in COMPANION_QUERIES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = np.random.default_rng(seed).permutation(len(main))
    return companions + [main[i] for i in order] + companions


def warm_up():
    """Run a short planning query and a short hover, untimed, so that no
    timed operation pays for the first calls (lazy imports, first
    allocations) that only the first operation of a process pays."""
    run_plan(plan_op("empty.json", "adaptive", None, None, True))
    track = track_op(0, disturbed=False)
    track.traj = hover(track.scenario.body.r_max, duration=0.05)
    run_track(track)


# ---------------------------------------------------------------------------
# running one operation and checking its output

def run_plan(op: PlanOp):
    """Returns ("path", PlanOutput) or ("NoPathError", None)."""
    try:
        return "path", pipeline.run_plan(op.scenario, mode=op.mode, map_seed=op.map_seed)
    except NoPathError:
        return "NoPathError", None


def run_track(op: TrackOp):
    sc = op.scenario
    tracking = sc.tracking_config()
    disturbance = sc.disturbance(op.traj.total_time + tracking.duration_pad)
    return controller.run_tracking(op.traj, sc.vehicle_params(), sc.nmpc_config(), tracking,
                                   disturbance=disturbance)


def endpoint_radius(raw, mode, end):
    body = raw["body"]
    if mode == "fixed-max":
        return body["r_max"]
    if mode == "fixed-min":
        return body["r_min"]
    return raw[end].get("radius", body["r_max"])


def check_plan(op: PlanOp, outcome, out):
    """Failure messages for one planning output, and the smallest true
    clearance (None when no trajectory was returned)."""
    raw = op.raw
    if not op.expect_path:
        fails = checks.check_no_path(outcome, raw, z=raw["start"]["position"][2])
        return fails, None
    traj = out.trajectory
    d, c = traj.durations, traj.coeffs
    ends = [(np.asarray(raw[e]["position"], float), endpoint_radius(raw, op.mode, e))
            for e in ("start", "goal")]
    plan = raw["planning"]
    limits = {k: plan[k] for k in ("v_max", "a_max", "radius_rate_max", "radius_acc_max")}
    limits.update(r_min=raw["body"]["r_min"], r_max=raw["body"]["r_max"])
    fails = checks.check_endpoints(d, c, *ends)
    fails += checks.check_continuity(d, c)
    fails += checks.check_limits(d, c, limits)
    coll, clearance = checks.check_collision(d, c, op.obstacles, raw["body"]["height"],
                                             raw.get("payload"))
    fails += coll
    fails += checks.check_cost(d, c, out.report.total_cost, raw["body"]["r_max"],
                               plan["sorr_weight"], plan["time_weight"])
    return fails, clearance


def check_track(op: TrackOp, result):
    return checks.check_tracking(op.traj.durations, op.traj.coeffs, result.times,
                                 result.positions, result.radii, result.force_estimates,
                                 result.rmse, op.force if op.check_force else None)
