"""End-to-end and per-layer benchmark of morphplan.

    python3 perfbench/run.py --workload {clutter-plan,fine-map,disturbed-track}
                             --seed N --seconds S --trace {0,1}

Run from the repository root (BENCHMARK.json gives the command, which pins
OpenBLAS to one thread).  The program is imported from `src/` next to this
directory.  A run repeats whole rounds of its workload's operations until S
seconds have passed, checks every output against computations made apart
from the program (checks.py), and prints a summary on stderr and, as the
last line of stdout, one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the layers are wrapped (spans.py), the metrics are per layer and
the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
WORKLOADS = ("clutter-plan", "fine-map", "disturbed-track")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def import_program():
    """Import numpy, scipy and morphplan from the checkout's src/; returns
    the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import morphplan.pipeline

    found = Path(morphplan.pipeline.__file__).resolve().parent
    if found != SRC / "morphplan":
        raise ImportError(f"morphplan imported from {found}, not from {SRC}")
    return time.perf_counter() - t0


def time_setups(args):
    """Seconds from process start to 'ready' for fresh set-up processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code})")
    return samples


def mean_of_medians(samples):
    """Mean over operations of each operation's median sample."""
    if not samples:
        return float("nan")
    return statistics.fmean(statistics.median(v) for v in samples.values())


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        log("--seconds must be positive")
        return 2
    try:
        import_s = import_program()
    except ImportError as err:
        log(f"cannot import the program: {err}")
        return 2
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    span = tracer.span if tracer else (lambda name: nullcontext())

    try:
        ops = workloads.build_round(args.workload, args.seed)
    except (OSError, ValueError) as err:
        log(f"cannot build the workload's inputs: {err}")
        return 2
    if args.setup_only:
        print("ready", flush=True)
        return 0
    setups = [] if args.trace else time_setups(args)
    if tracer:
        tracer.uninstall()   # the warm-up's calls are not the layers' work
    workloads.warm_up()
    if tracer:
        tracer.install()

    plan_s, costs, rtfs, rmses = {}, [], {}, []   # plan_s, rtfs: samples per label
    attempted = failed = 0
    problems = []
    t_start = time.perf_counter()
    while True:
        for op in ops:
            attempted += 1
            is_plan = isinstance(op, workloads.PlanOp)
            t0 = time.perf_counter()
            try:
                with span("plan" if is_plan else "track"):
                    result = workloads.run_plan(op) if is_plan else workloads.run_track(op)
            except (ValueError, RuntimeError) as err:  # morphplan's failure classes
                failed += 1
                log(f"FAILED {op.label}: {type(err).__name__}: {err}")
                continue
            wall = time.perf_counter() - t0
            if is_plan:
                outcome, out = result
                plan_s.setdefault(op.label, []).append(wall)
                fails, clearance = workloads.check_plan(op, outcome, out)
                note = "no path" if out is None else (
                    f"cost {out.report.total_cost:.6f} clearance {clearance:.4f} m "
                    f"expansions {out.search_result.expansions} iterations {out.report.iterations}")
                if out is not None:
                    costs.append(out.report.total_cost)
            else:
                sim = len(result.times) * op.scenario.tracking_config().sim_dt
                rtfs.setdefault(op.label, []).append(sim / wall)
                rmses.append(result.rmse)
                fails = workloads.check_track(op, result)
                note = f"rmse {result.rmse:.6f} m, {sim:.2f} s simulated"
            log(f"{op.label}: {wall:.3f} s, {note}" + "".join(f"\n  CHECK FAILED: {f}" for f in fails))
            problems += [f"{op.label}: {f}" for f in fails]
        if time.perf_counter() - t_start >= args.seconds:
            break
    wall_total = time.perf_counter() - t_start

    e2e = {
        "plan_s": (mean_of_medians(plan_s), "s"),
        "plan_cost": (statistics.fmean(costs) if costs else float("nan"), "cost"),
        "track_rtf": (mean_of_medians(rtfs), "s/s"),
        "track_rmse_m": (statistics.fmean(rmses) if rmses else float("nan"), "m"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if setups:
        e2e["setup_s"] = (statistics.median(setups), "s")
    log("end to end: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in e2e.items()))
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        tracer.uninstall()
        metrics = report_trace(tracer, import_s, wall_total, args)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report_trace(tracer, import_s, wall_total, args):
    """Per-layer metrics; self times and the spans go to stderr and a file."""
    from spans import layer_metrics, self_times

    selfs = self_times(tracer.spans)
    ops = {"plan", "track"}
    ops_s = sum(v for k, v in selfs.items() if k in ops)
    layers_s = sum(v for k, v in selfs.items() if k not in ops and k != "scenario.load")
    log(f"self time of the layers: {layers_s:.3f} s of {wall_total:.3f} s timed "
        f"({100 * layers_s / wall_total:.1f}%); glue inside run_plan/run_tracking "
        f"{ops_s:.3f} s")
    for name, sec in sorted(selfs.items(), key=lambda kv: -kv[1]):
        log(f"  {name:16s} {sec:9.3f} s  {100 * sec / wall_total:5.1f}%")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    log(f"{len(tracer.spans)} spans written to {path}")
    return {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer.spans, import_s).items()}


if __name__ == "__main__":
    sys.exit(main())
