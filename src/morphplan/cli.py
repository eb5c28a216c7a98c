"""Command-line front door: plan, simulate, benchmark and plot.

Exit codes: 1 usage error or scenario/input parse error, 2 no path (or
invalid endpoints, budget exhausted), 3 optimization failure, 4 constraint
verification failure, 5 simulation/controller failure.  Logs go to stderr
(level from MORPHPLAN_LOG), data only to files.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .scenario import ScenarioError
from .search import (
    InvalidGoalError,
    InvalidStartError,
    NoPathError,
    NodeBudgetExceededError,
)
from .traj_opt import OptimizationError, VerificationFailedError

log = logging.getLogger("morphplan")

_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
           "info": logging.INFO, "debug": logging.DEBUG}

EXIT_PARSE = 1
EXIT_NO_PATH = 2
EXIT_OPTIMIZATION = 3
EXIT_VERIFICATION = 4
EXIT_SIMULATION = 5


def _setup_logging():
    level = os.environ.get("MORPHPLAN_LOG", "warn").lower()
    logging.basicConfig(stream=sys.stderr,
                        level=_LEVELS.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="morphplan",
                                     description="shape-adaptive planning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="search and optimize one scenario")
    p.add_argument("scenario")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--mode", choices=("adaptive", "fixed-max", "fixed-min"))

    p = sub.add_parser("simulate", help="track an exported trajectory in closed loop")
    p.add_argument("scenario")
    p.add_argument("trajectory")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("benchmark", help="compare the three modes over the seed list")
    p.add_argument("scenario")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = sub.add_parser("plot", help="render CSV outputs as static SVG")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--out", required=True)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as err:   # argparse exits 2 on a usage error, 0 after --help
        return EXIT_PARSE if err.code else 0
    try:
        if args.command == "plan":
            from .pipeline import cmd_plan

            result = cmd_plan(args.scenario, args.out, mode=args.mode)
            log.info("plan done: total cost %.4f", result.metrics.total_cost)
        elif args.command == "simulate":
            from .pipeline import cmd_simulate

            result = cmd_simulate(args.scenario, args.trajectory, args.out)
            log.info("simulate done: rmse %.6f m", result.rmse)
        elif args.command == "benchmark":
            from .pipeline import cmd_benchmark

            cmd_benchmark(args.scenario, args.out, jobs=args.jobs)
        elif args.command == "plot":
            from .plots import plot_input_file

            for item in args.inputs:
                plot_input_file(item, args.out)
    except ScenarioError as err:
        log.error("scenario error: %s", err)
        return EXIT_PARSE
    except (NoPathError, NodeBudgetExceededError, InvalidStartError, InvalidGoalError) as err:
        log.error("planning failed: %s", err)
        return EXIT_NO_PATH
    except VerificationFailedError as err:
        log.error("verification failed: %s", err)
        return EXIT_VERIFICATION
    except OptimizationError as err:
        log.error("optimization failed: %s", err)
        return EXIT_OPTIMIZATION
    except (ValueError, OSError) as err:
        if args.command == "plot":
            log.error("plot input error: %s", err)
            return EXIT_PARSE
        if args.command == "simulate":
            log.error("simulation failed: %s", err)
            return EXIT_SIMULATION
        raise
    except RuntimeError as err:
        if args.command == "simulate":
            log.error("simulation failed: %s", err)
            return EXIT_SIMULATION
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
