"""Command-line entry point.

Subcommands:

* ``phaselab run <config.json>``       validate, execute, emit artifacts
* ``phaselab validate <config.json>``  check a config without side effects
* ``phaselab report <run-dir>``        re-render the summary table

Exit code 0 means every assertion of the run passed, 2 that one failed,
and 1 that the config is invalid or a solve or search gave up (``error:``
on stderr).  The environment variable ``PHASELAB_WORKERS`` sets the worker
count of a config whose ``workers`` is 0 or absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .families import BracketFailureError, ResolutionExhaustedError
from .runner import EXPERIMENTS, render_summary, run, validate
from .solver import NonConvergenceError


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Reproduce the boundary-behavior experiments of the "
                    "diffuse perimeter/curvature energies as epsilon sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="JSON config file; 'experiment' must be "
                                      f"one of {', '.join(EXPERIMENTS)}")
    p_run.add_argument("--output-dir", help="override the config output_dir")

    p_val = sub.add_parser("validate", help="validate a config, no side effects")
    p_val.add_argument("config")

    p_rep = sub.add_parser("report", help="re-render a run directory summary")
    p_rep.add_argument("run_dir")

    args = parser.parse_args(argv)

    if args.command == "validate":
        errors = validate(_load_config(args.config))
        if errors:
            for e in errors:
                print(f"error: {e}", file=sys.stderr)
            return 1
        print("ok")
        return 0

    if args.command == "run":
        config = _load_config(args.config)
        if args.output_dir:
            config["output_dir"] = args.output_dir
        try:
            summary = run(config)
        except (ValueError, NonConvergenceError, BracketFailureError,
                ResolutionExhaustedError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out = config.get("output_dir", "runs/" + config.get("experiment", ""))
        with open(os.path.join(out, "summary.json")) as fh:
            print(render_summary(json.load(fh)), end="")
        return 0 if summary.passed else 2

    if args.command == "report":
        spath = os.path.join(args.run_dir, "summary.json")
        if not os.path.exists(spath):
            print(f"error: no summary.json under {args.run_dir}",
                  file=sys.stderr)
            return 1
        with open(spath) as fh:
            doc = json.load(fh)
        print(render_summary(doc), end="")
        return 0 if doc["passed"] else 2

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
