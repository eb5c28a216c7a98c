import json
from pathlib import Path

import pytest

from morphplan import cli
from morphplan.pipeline import run_plan
from morphplan.scenario import load_scenario, parse_scenario

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
    x = 3.6 to 6.4 m: a solve that converges inside the iteration cap, so its
    iteration count follows every rounding of the objective."""
    raw = json.loads((SCENARIOS / "benchmark.json").read_text())
    raw["start"]["position"] = [3.6, 1.0, 0.8]
    raw["goal"]["position"] = [6.4, 1.0, 0.8]
    out = run_plan(parse_scenario(raw), mode="adaptive", map_seed=0)
    assert out.report.total_cost == pytest.approx(11.846690501163131, rel=1e-12)
    assert out.report.iterations == 95


def test_cli_plan_writes_outputs(tmp_path):
    code = cli.main(["plan", str(SCENARIOS / "slot.json"), "-o", str(tmp_path), "--mode", "fixed-min"])
    assert code == 0
    for name in ("trajectory.csv", "coefficients.txt", "seed_path.csv", "metrics.csv"):
        assert (tmp_path / name).stat().st_size > 0
