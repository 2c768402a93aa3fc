"""The benchmark's workloads: inputs from ``workloads.json``, one pass each,
and the checks that decide whether each operation of a pass succeeded.

An operation is one ``runner.run`` call (runner workloads) or one
``solve_half_space`` call (``halfspace_3d``).  It fails if it raises, if
an assertion of its summary fails, or if the solve misses its residual
certificate or the comparison bounds.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_FILE = os.path.join(HERE, "workloads.json")


def names() -> list[str]:
    with open(WORKLOADS_FILE) as fh:
        return list(json.load(fh))


class RunnerPass:
    """Experiment configs run through ``runner.run``, in order."""

    def __init__(self, configs):
        from phaselab import runner
        for cfg in configs:
            errors = runner.validate(cfg)
            if errors:
                raise ValueError(f"invalid workload config: {errors}")
        self.configs = configs
        self.describe = {"experiments": [c["experiment"] for c in configs]}

    def run(self, tmpdir):
        from phaselab import runner
        outcomes = []
        for cfg in self.configs:
            out = os.path.join(tmpdir, cfg["experiment"])
            try:
                outcomes.append((out, runner.run(dict(cfg, output_dir=out))))
            except Exception as exc:  # an operation failure, counted below
                outcomes.append((out, exc))
        return outcomes

    def check(self, outcomes):
        errors = []
        for out, summary in outcomes:
            if isinstance(summary, Exception):
                errors.append(f"{os.path.basename(out)} raised {summary!r}")
            elif not summary.passed:
                failed = [a.id for a in summary.assertions if not a.passed]
                errors.append(f"{summary.experiment} failed {failed}")
            elif not all(os.path.isfile(os.path.join(out, f))
                         for f in ("sweep.csv", "summary.json",
                                   "manifest.json")):
                errors.append(f"{summary.experiment} wrote no complete run "
                              "directory")
        return len(outcomes), errors


class HalfSpacePass:
    """One 3D half-space solve with the bump factor theta drawn from the seed.

    theta stays in [1, 2] with amplitude 0.5, so the data obey
    ``h <= exp(-|x|)`` and the comparison envelope below holds.
    """

    def __init__(self, spec, seed):
        from phaselab import (SolveConfig, bump, make_half_space_grid,
                              standard_potential)
        lo, hi = spec["theta_range"]
        self.theta = random.Random(seed).uniform(lo, hi)
        self.tol = spec["residual_tol"]
        self.grid, _ = make_half_space_grid(spec["n"], spec["R"],
                                            spec["spacing"], spec["far_value"])
        self.data = bump(self.grid, self.theta, spec["shape"],
                         amplitude=spec["amplitude"], width=spec["width"])
        self.potential = standard_potential()
        self.cfg = SolveConfig(residual_tol=self.tol)
        self.describe = {"theta": self.theta, "grid_shape": self.grid.shape}

    def run(self, tmpdir):
        from phaselab import solve_half_space
        try:
            return solve_half_space(self.data.samples, 1.0, self.potential,
                                    self.grid, self.cfg)
        except Exception as exc:  # an operation failure, counted below
            return exc

    def check(self, result):
        if isinstance(result, Exception):
            return 1, [f"solve raised {result!r}"]
        u = result.field.values
        envelope = (1.0 + np.exp(-self.grid.node_radii())
                    + 2.0 * self.grid.spacing)
        errors = []
        if not result.residual <= self.tol:
            errors.append(f"residual {result.residual:.3e} > {self.tol:g}")
        if not u.min() >= 1.0 - self.tol:
            errors.append(f"min u {u.min():.12g} < 1 - {self.tol:g}")
        if not np.max(u - envelope) <= 0.0:
            errors.append("u exceeds 1 + exp(-|x|) + 2h by "
                          f"{np.max(u - envelope):.3e}")
        return 1, errors


def prepare(name: str, seed: int):
    """Load and validate the workload's config and build its inputs."""
    with open(WORKLOADS_FILE) as fh:
        spec = json.load(fh)[name]
    if "runs" in spec:
        return RunnerPass(spec["runs"])
    return HalfSpacePass(spec["half_space"], seed)
