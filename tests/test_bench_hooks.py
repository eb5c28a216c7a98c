"""The benchmark's tracer patches module attributes by name; a rename in the
program must fail here rather than crash a benchmark run."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

from morphplan.pipeline import run_plan  # noqa: E402


def test_tracer_records_planning_spans_and_restores_names():
    patched = [(module, attr) for module, attr, _, _ in spans.TARGETS]
    patched.append((spans.traj_opt, "MinJerkSystem"))
    originals = [getattr(module, attr) for module, attr in patched]
    tracer = spans.Tracer()
    tracer.install()
    try:
        # looked up through the module, as the benchmark does, so the load is traced
        scenario = spans.scenario.load_scenario(ROOT / "scenarios" / "slot.json")
        run_plan(scenario, mode="fixed-min")
    finally:
        tracer.uninstall()
    # one map build: one build_grid span (no value), then one compute_esdf
    # span (the voxel count), neither inside another build span
    builds = [i for i, s in enumerate(tracer.spans) if s[spans.NAME] == "esdf.build"]
    sizes = [tracer.spans[i][spans.VALUE] for i in builds]
    assert sizes == [None, scenario.build_field(None).distance.size]
    assert all(tracer.spans[i][spans.PARENT] not in builds for i in builds)
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"esdf.build", "esdf.query", "esdf.clearance", "search", "opt", "gate", "opt.eval",
            "minjerk.build", "minjerk.solve", "minjerk.adjoint"} <= names
    children = {}
    for s in tracer.spans:
        children.setdefault(s[spans.PARENT], []).append(s[spans.NAME])
    for i, s in enumerate(tracer.spans):
        # a clearance batch queries the field through the traced names
        if s[spans.NAME] == "esdf.clearance":
            assert "esdf.query" in children.get(i, [])
        # one clearance batch per objective evaluation and per gate call
        if s[spans.NAME] in ("opt.eval", "gate"):
            assert children.get(i, []).count("esdf.clearance") == 1
    for (module, attr), original in zip(patched, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
