import pytest

from phaselab.runner import EXPERIMENTS, run
from phaselab.solver import _DirichletProblem


def _refuse_sparse_matrix(self):
    raise AssertionError("Newton CG did not converge and fell back to a "
                         "sparse LU factorization")


@pytest.fixture(scope="session")
def acceptance_runs(tmp_path_factory):
    """Run every named experiment once at its acceptance-grade defaults.

    Shared across the acceptance tests so families are built a single time
    per session.  The runs use two workers, as every shipped config does,
    so the golden test can compare them with the shipped configs' outputs.
    No run may build the sparse matrix of the direct-solve fallback: a
    Newton CG solve that stalls fails every acceptance test instead of
    quietly costing an LU factorization.
    """
    base = tmp_path_factory.mktemp("acceptance")
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_DirichletProblem, "sparse_matrix", _refuse_sparse_matrix)
        for name in EXPERIMENTS:
            outdir = base / name
            summary = run({"experiment": name, "output_dir": str(outdir),
                           "workers": 2})
            results[name] = (summary, outdir)
    return results


def assertion_map(summary):
    return {a.id: a for a in summary.assertions}
