"""Position RMSE of the disturbed-track run with disturbance compensation on
(force estimate in the NMPC model, INDI) and off, on the same reference,
disturbance and seed.

    python3 perfbench/compensation.py --seed 0

Takes about two disturbed-track runs (roughly 70 s on 2 shared vCPUs).
"""

from __future__ import annotations

import argparse
import sys
import time

import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    run.import_program()
    import workloads

    op = workloads.track_op(args.seed, disturbed=True)
    rmse = {}
    for on in (True, False):
        op.scenario.control.update(force_compensation=on, indi=on)
        t0 = time.perf_counter()
        res = workloads.run_track(op)
        rmse[on] = res.rmse
        print(f"compensation {'on ' if on else 'off'}: rmse {res.rmse:.6f} m "
              f"({time.perf_counter() - t0:.1f} s wall)", flush=True)
    print(f"cut: {100 * (1 - rmse[True] / rmse[False]):.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
