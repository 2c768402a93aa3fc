"""Command-line entry point.

Subcommands:

* ``phaselab run <config.json>``       validate, execute, emit artifacts
* ``phaselab validate <config.json>``  check a config without side effects
* ``phaselab report <run-dir>``        re-render the summary table

Exit code 0 means every assertion of the run passed, 2 that one failed,
and 1 that the config file is missing, is not a JSON object or is invalid,
or that a solve or search gave up (``error:`` on stderr; a config error
names the file).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .families import BracketFailureError, ResolutionExhaustedError
from .runner import EXPERIMENTS, expand_config, render_summary, run, validate
from .solver import NonConvergenceError


def _read_config(path: str, output_dir: str | None = None):
    """The config in a JSON file, with ``output_dir`` in place of its own
    when given, and what stops it from running: the file, its JSON or the
    errors of ``validate``."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        return None, [exc.strerror]
    except ValueError as exc:
        return None, [str(exc)]
    if output_dir and isinstance(config, dict):
        config["output_dir"] = output_dir
    return config, validate(config)


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

    if args.command in ("validate", "run"):
        config, errors = _read_config(
            args.config, getattr(args, "output_dir", None))
        for e in errors:
            print(f"error: {args.config}: {e}", file=sys.stderr)
        if errors:
            return 1

    if args.command == "validate":
        print("ok")
        return 0

    if args.command == "run":
        try:
            summary = run(config)
        except (ValueError, NonConvergenceError, BracketFailureError,
                ResolutionExhaustedError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out = expand_config(config)["output_dir"]
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
