from pathlib import Path

import pytest

from morphplan import cli
from morphplan.pipeline import run_plan
from morphplan.scenario import load_scenario

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


def test_cli_plan_writes_outputs(tmp_path):
    code = cli.main(["plan", str(SCENARIOS / "slot.json"), "-o", str(tmp_path), "--mode", "fixed-min"])
    assert code == 0
    for name in ("trajectory.csv", "coefficients.txt", "seed_path.csv", "metrics.csv"):
        assert (tmp_path / name).stat().st_size > 0
