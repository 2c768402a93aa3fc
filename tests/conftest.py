import pytest

from phaselab import runner
from phaselab.runner import EXPERIMENTS, run
from phaselab.solver import _DirichletProblem


def _refuse_sparse_matrix(self):
    raise AssertionError("Newton CG did not converge and fell back to a "
                         "sparse LU factorization")


# experiment -> the folded axes of each of its solves in acceptance_runs
_FOLDED_AXES = {}
# experiment -> whether each field it handed over in acceptance_runs was
# still writeable when the writer thread wrote it
_HANDED_OVER = {}


@pytest.fixture(scope="session")
def acceptance_runs(tmp_path_factory):
    """Run every named experiment once at its acceptance-grade defaults.

    Shared across the acceptance tests so families are built a single time
    per session; the golden test compares them with the outputs of the
    shipped configs that expand to the same settings.
    No run may build the sparse matrix of the direct-solve fallback: a
    Newton CG solve that stalls fails every acceptance test instead of
    quietly costing an LU factorization.  Each solve's folded axes are
    recorded for ``acceptance_folds``, and whether each field handed to
    the writer was writeable, for ``acceptance_handovers``.
    """
    base = tmp_path_factory.mktemp("acceptance")
    results = {}
    init = _DirichletProblem.__init__
    save_field = runner.save_field
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_DirichletProblem, "sparse_matrix", _refuse_sparse_matrix)
        for name in EXPERIMENTS:
            folds = _FOLDED_AXES.setdefault(name, [])
            mp.setattr(_DirichletProblem, "__init__",
                       lambda self, *a, folds=folds:
                       init(self, *a) or folds.append(self.folded))
            handed = _HANDED_OVER.setdefault(name, [])
            mp.setattr(runner, "save_field",
                       lambda field, base, handed=handed:
                       handed.append(field.values.flags.writeable)
                       or save_field(field, base))
            outdir = base / name
            summary = run({"experiment": name, "output_dir": str(outdir)})
            results[name] = (summary, outdir)
    return results


@pytest.fixture(scope="session")
def acceptance_folds(acceptance_runs):
    """Experiment -> the folded axes of each solve of its acceptance run."""
    return _FOLDED_AXES


@pytest.fixture(scope="session")
def acceptance_handovers(acceptance_runs):
    """Experiment -> the ``writeable`` flag of each field it handed to the
    writer thread in its acceptance run, in write order."""
    return _HANDED_OVER


def assertion_map(summary):
    return {a.id: a for a in summary.assertions}
