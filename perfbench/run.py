"""phaselab benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload atom_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; phaselab is imported from ``src/``.  Each
pass of a workload runs in its own fresh interpreter (``one_pass.py``), so
set-up time and peak memory belong to that pass alone.  Passes repeat
until the next one would end after ``--seconds`` (at least three, or two
untraced/traced pairs with ``--trace 1``).  ``wall_rel`` is the median over
the passes of the run, and so is ``setup_s``, the set-up time rescaled
to a fixed reference speed (see reference.py); ``peak_rss_mb`` is the
highest.  The last line of standard output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# metric -> (unit, how it is taken over the passes of a run).  The peak is
# the highest pass peak: at workers=2 a pass's peak depends on which
# members happen to overlap in time.
END_TO_END = {"wall_rel": ("ratio", statistics.median),
              "setup_s": ("s", statistics.median),
              "peak_rss_mb": ("MB", max)}
MIN_PASSES = {0: 3, 1: 2}
# every run of a workload ends within this many seconds, or fails
DEADLINE_S = 170.0
# BLAS threads default to 1 so that the only parallelism measured is
# phaselab's own member pool; on two cores, BLAS threads inside two pool
# workers oversubscribe the machine and make timings erratic
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pass_env():
    env = dict(os.environ)
    for key in THREAD_ENV:
        env.setdefault(key, "1")
    return env


class HarnessError(RuntimeError):
    """A pass process failed to produce a record."""


def spawn_pass(workload, seed, traced, deadline=None):
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=pass_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} pass exceeded the run deadline") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"{workload} pass exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """Run passes of one workload; returns its metrics and pass records."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    while True:
        plain.append(spawn_pass(workload, seed, False, deadline))
        if trace:
            traced.append(spawn_pass(workload, seed, True, deadline))
        done = len(plain)
        elapsed = time.monotonic() - start
        if done >= MIN_PASSES[trace] and elapsed * (done + 1) / done > seconds:
            break

    def median(key, passes):
        return statistics.median(p[key] for p in passes)

    repeated = True
    if trace:
        layers, repeated = tracing.merge_passes([p["layers"] for p in traced])
        layers["trace.overhead_s"] = (median("wall_s", traced)
                                      - median("wall_s", plain))
        units = {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": over_passes([p[k] for p in plain]),
                       "unit": unit}
                   for k, (unit, over_passes) in END_TO_END.items()}
    passes = plain + traced
    return {
        "metrics": metrics,
        "passes": len(plain),
        "wall_s": median("wall_s", plain),
        "setup_wall_s": median("setup_wall_s", plain),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]],
        "counts_repeat": repeated,
        "inputs": plain[0]["inputs"],
    }


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_info():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "pass_env": {k: pass_env().get(k)
                     for k in THREAD_ENV + ("PHASELAB_WORKERS",)},
        "git_commit": _git_commit(),
    }


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(workload, res):
    failed, attempted = res["failed"], res["attempted"]
    cells = [f"{k}={_fmt(m['value'])} {m['unit']}"
             for k, m in res["metrics"].items()]
    print(f"{workload}: passes={res['passes']} inputs={json.dumps(res['inputs'])}")
    print("  failed_share=" + _fmt(failed / attempted)
          + f" ({failed}/{attempted} operations)")
    print(f"  wall_s={_fmt(res['wall_s'])} s")
    print(f"  setup_wall_s={_fmt(res['setup_wall_s'])} s")
    for cell in cells:
        print("  " + cell)
    for err in res["errors"]:
        print(f"  FAILED: {err}")
    if not res["counts_repeat"]:
        print("  FAILED: per-layer counts differ between traced passes")


def main(argv=None):
    names = workloads.names()
    ap = argparse.ArgumentParser(
        description="phaselab benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "phaselab",
                                       "__init__.py")):
        print(f"no phaselab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    info = dict(machine_info(), seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    print("machine: " + json.dumps(info, sort_keys=True))
    selected = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in selected:
            results[name] = measure(name, args.seed, args.seconds,
                                    args.trace)
            report(name, results[name])
    except HarnessError as exc:
        print(f"benchmark harness failure: {exc}", file=sys.stderr)
        return 1

    if len(selected) == 1:
        metrics = results[selected[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items()
                   for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and all(r["counts_repeat"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
