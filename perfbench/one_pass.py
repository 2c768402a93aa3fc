"""One pass of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON line with the pass's set-up time,
wall time, peak resident memory, operation counts and, when traced, its
per-layer metrics.  ``--spawned-at`` is the parent's ``time.monotonic()``
just before it started this process, so set-up time includes interpreter
start-up and every import.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import phaselab
    if not os.path.abspath(phaselab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"phaselab imported from {phaselab.__file__}, "
                         f"not from {SRC}")
    import reference
    import workloads
    work = workloads.prepare(args.workload, args.seed)
    tracer = restore = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer)

    # run output stays inside the checkout, like every file the benchmark
    # reads or writes; the system temporary directory may be shared with
    # other users or mounted elsewhere
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        setup_wall_s = time.monotonic() - args.spawned_at
        ref_before = reference.reference_s()
        t0 = time.perf_counter()
        outputs = work.run(tmpdir)
        wall_s = time.perf_counter() - t0
        # the reference stays far below any workload's memory, but the
        # peak is read before the second reference runs on a used heap
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ref_s = (ref_before + reference.reference_s()) / 2.0
        attempted, errors = work.check(outputs)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if restore is not None:
            restore()
    record = {
        "setup_s": setup_wall_s * reference.SCALE_S / ref_before,
        "setup_wall_s": setup_wall_s,
        "wall_s": wall_s,
        "wall_rel": wall_s / ref_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "inputs": work.describe,
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
