"""Golden sweep outputs of the eight shipped configs.

``tests/golden/<experiment>.csv`` is the ``sweep.csv`` that
``configs/<experiment>.json`` produced when both the semi-implicit and the
Newton systems were solved through sparse LU factorizations.  The solver
now solves them by fast diagonalization and preconditioned CG, so every
quantity computed from a solved field must reproduce the recorded value to
a relative 1e-8.  ``W_eps`` of a solved field and the solver residual sit
at the round-off floor and are held to their certificates instead: the
residual to the unit solve's tolerance, ``W_eps`` to the threshold of the
run's own curvature assertion.

A config that expands to its experiment's defaults, up to the output
directory, is not run again: its sweep is the one the session's
``acceptance_runs`` fixture wrote with the same settings.
"""

import csv
import json
import math
import os

import pytest

from phaselab.runner import expand_config, run

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
NAMES = sorted(f[:-5] for f in os.listdir(CONFIGS) if f.endswith(".json"))

EXACT = ("experiment", "n", "eps")
# held to certificates below; the iteration count of a solve may change
# with the linear algebra and is not compared
CERTIFIED = ("W_eps", "residual", "iterations")
REL_TOL = 1e-8


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _unit_residual_tol(cfg, eps):
    if cfg["experiment"] == "tanh_calibration":
        # the calibration solve runs at 1e-10 for eps >= 0.05
        return 1e-10 if eps >= 0.05 else 1e-9
    return eps * cfg["params"]["residual_tol"]


def _curvature_threshold(summary):
    """Threshold of the run's ``*.willmore_zero`` or ``calibration.w_eps``
    assertion, None if it has neither."""
    return next((a.threshold for a in summary.assertions
                 if a.id.endswith(".willmore_zero")
                 or a.id == "calibration.w_eps"), None)


def _settings(cfg):
    """The expanded config without where the run writes."""
    out = expand_config(cfg)
    del out["output_dir"]
    return out


@pytest.mark.parametrize("name", NAMES)
def test_sweep_matches_golden(name, tmp_path, acceptance_runs):
    with open(os.path.join(CONFIGS, name + ".json")) as fh:
        cfg = json.load(fh)
    if _settings(cfg) == _settings({"experiment": name}):
        summary, outdir = acceptance_runs[name]
    else:
        summary, outdir = run({**cfg, "output_dir": str(tmp_path)}), tmp_path
    assert summary.passed
    # penalty_zero asserts no curvature bound of its own; it builds the
    # boundary_atom family and is held to that experiment's bound
    w_tol = _curvature_threshold(summary)
    if w_tol is None:
        w_tol = _curvature_threshold(acceptance_runs["boundary_atom"][0])
    got = _read(outdir / "sweep.csv")
    want = _read(os.path.join(HERE, "golden", name + ".csv"))
    assert len(got) == len(want)
    assert list(got[0]) == list(want[0])
    for g, w in zip(got, want):
        solved = w["residual"] != ""
        for col, ref in w.items():
            val = g[col]
            if col in EXACT or ref == "" or not _is_float(ref):
                assert val == ref, (name, col)
            elif solved and col in CERTIFIED:
                continue
            else:
                assert math.isclose(float(val), float(ref), rel_tol=REL_TOL,
                                    abs_tol=0.0), (name, col, val, ref)
        if solved:
            eps = float(w["eps"])
            assert float(g["residual"]) <= _unit_residual_tol(cfg, eps)
            assert float(g["W_eps"]) <= w_tol
