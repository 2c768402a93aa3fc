import pytest

from phaselab.runner import EXPERIMENTS, run
from phaselab.solver import _DirichletProblem


def _refuse_sparse_matrix(self):
    raise AssertionError("Newton CG did not converge and fell back to a "
                         "sparse LU factorization")


# experiment -> the folded axes of each of its solves in acceptance_runs
_FOLDED_AXES = {}


@pytest.fixture(scope="session")
def acceptance_runs(tmp_path_factory):
    """Run every named experiment once at its acceptance-grade defaults.

    Shared across the acceptance tests so families are built a single time
    per session.  The runs use two workers, as the shipped configs of the
    multi-member family experiments do, so the golden test can compare
    them with those configs' outputs.
    No run may build the sparse matrix of the direct-solve fallback: a
    Newton CG solve that stalls fails every acceptance test instead of
    quietly costing an LU factorization.  Each solve's folded axes are
    recorded for ``acceptance_folds``.
    """
    base = tmp_path_factory.mktemp("acceptance")
    results = {}
    init = _DirichletProblem.__init__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_DirichletProblem, "sparse_matrix", _refuse_sparse_matrix)
        for name in EXPERIMENTS:
            folds = _FOLDED_AXES.setdefault(name, [])
            mp.setattr(_DirichletProblem, "__init__",
                       lambda self, *a, folds=folds:
                       init(self, *a) or folds.append(self.folded))
            outdir = base / name
            summary = run({"experiment": name, "output_dir": str(outdir),
                           "workers": 2})
            results[name] = (summary, outdir)
    return results


@pytest.fixture(scope="session")
def acceptance_folds(acceptance_runs):
    """Experiment -> the folded axes of each solve of its acceptance run."""
    return _FOLDED_AXES


def assertion_map(summary):
    return {a.id: a for a in summary.assertions}
