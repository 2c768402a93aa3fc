"""A fixed reference computation that measures the machine's current speed.

On a shared machine the speed of the host drifts by tens of percent within
a minute, so a wall time alone cannot tell a slower program from a busier
neighbour.  Each pass times this computation just before and just after
its workload, and ``wall_rel`` is the pass's wall time divided by the
reference time.  The computation uses only numpy and scipy, in the mix
phaselab spends its time in (sparse LU factorization and array
arithmetic), and never phaselab itself: a change to phaselab moves
``wall_rel``, a change of machine speed moves both parts of the ratio.
``setup_s`` is rescaled the same way, by the reference timed just after
set-up, and stays in seconds through ``SCALE_S``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

REPEATS = 3
# time of one unit on a two-core Intel Xeon with OpenBLAS at one thread;
# setup_s is set-up time rescaled to a host of this speed
SCALE_S = 0.15


def _laplacian(m: int, n: int):
    """Shifted Dirichlet Laplacian on an n-dimensional m^n node box."""
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    op = 3.0 * sp.identity(m ** n)
    for axis in range(n):
        factors = [sp.identity(m)] * n
        factors[axis] = lap
        term = factors[0]
        for f in factors[1:]:
            term = sp.kron(term, f)
        op = op + term
    return op.tocsc()


def _unit(ops, v):
    total = 0.0
    for op, times in ops:
        for _ in range(times):
            total += float(splu(op).solve(np.ones(op.shape[0]))[0])
    for _ in range(30):
        w = np.tanh(v)
        total += float(np.sum(0.5 * np.diff(w * w - 1.0) ** 2
                              + np.exp(-np.abs(v[1:]))))
    return total


def reference_s() -> float:
    """Mean wall time of one unit of the reference computation."""
    # 2D factorizations as in the family solves, one 3D factorization with
    # its denser fill, and the array arithmetic of the energy densities
    ops = [(_laplacian(70, 2), 6), (_laplacian(14, 3), 1)]
    v = np.linspace(-4.0, 4.0, 100_000)
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        _unit(ops, v)
    return (time.perf_counter() - t0) / REPEATS
