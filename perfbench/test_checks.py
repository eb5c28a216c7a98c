"""The benchmark's own checks: each accepts the program's output on a short
query and rejects the same output made wrong on purpose."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def slot_plan():
    op = workloads.plan_op("slot.json", "fixed-min", None, None, True)
    outcome, out = workloads.run_plan(op)
    assert outcome == "path"
    return op, out


@pytest.fixture(scope="module")
def disturbed_hover():
    op = workloads.track_op(seed=0, disturbed=True)
    op.traj = workloads.hover(op.scenario.body.r_max, duration=0.9)
    return op, workloads.run_track(op)


def test_plan_checks_accept_program_output(slot_plan):
    op, out = slot_plan
    fails, clearance = workloads.check_plan(op, "path", out)
    assert fails == []
    assert clearance > 0.0


def test_collision_rejects_trajectory_shifted_into_wall(slot_plan):
    op, out = slot_plan
    coeffs = out.trajectory.coeffs.copy()
    coeffs[:, 0, 1] += 0.3  # the slot is y in [0.7, 1.3]; the path runs at y = 1
    fails, clearance = checks.check_collision(out.trajectory.durations, coeffs, op.obstacles,
                                              op.raw["body"]["height"])
    assert fails and clearance < 0.0


def test_cost_rejects_total_off_by_one_percent(slot_plan):
    op, out = slot_plan
    plan = op.raw["planning"]
    args = (out.trajectory.durations, out.trajectory.coeffs)
    weights = (op.raw["body"]["r_max"], plan["sorr_weight"], plan["time_weight"])
    assert checks.check_cost(*args, out.report.total_cost, *weights) == []
    assert checks.check_cost(*args, 1.01 * out.report.total_cost, *weights)


def test_endpoint_rejects_goal_off_by_5cm(slot_plan):
    op, out = slot_plan
    traj = out.trajectory
    coeffs = traj.coeffs.copy()
    coeffs[-1, 0, 0] += 0.05  # moves the whole last piece, so its end, along x
    start = (np.asarray(op.raw["start"]["position"]), op.raw["body"]["r_min"])
    goal = (np.asarray(op.raw["goal"]["position"]), op.raw["body"]["r_min"])
    assert checks.check_endpoints(traj.durations, traj.coeffs, start, goal) == []
    assert checks.check_endpoints(traj.durations, coeffs, start, goal)


def test_no_path_check_rejects_path_through_slot_for_fixed_max():
    op = workloads.plan_op("slot.json", "fixed-max", None, None, False)
    outcome, out = workloads.run_plan(op)
    assert outcome == "NoPathError" and out is None
    assert workloads.check_plan(op, outcome, out) == ([], None)
    z = op.raw["start"]["position"][2]
    assert checks.slot_opening(op.raw, z) == pytest.approx(0.6)
    assert checks.check_no_path("path", op.raw, z)


def test_tracking_rejects_force_estimate_scaled_by_0_8(disturbed_hover):
    op, res = disturbed_hover
    args = (op.traj.durations, op.traj.coeffs, res.times, res.positions, res.radii)
    assert checks.check_tracking(*args, res.force_estimates, res.rmse, op.force) == []
    fails = checks.check_tracking(*args, 0.8 * res.force_estimates, res.rmse, op.force)
    assert any("force estimate" in f for f in fails)
