import pytest

from phaselab.runner import EXPERIMENTS, run


@pytest.fixture(scope="session")
def acceptance_runs(tmp_path_factory):
    """Run every named experiment once at its acceptance-grade defaults.

    Shared across the acceptance tests so families are built a single time
    per session.  The runs use two workers, as every shipped config does,
    so the golden test can compare them with the shipped configs' outputs.
    """
    base = tmp_path_factory.mktemp("acceptance")
    results = {}
    for name in EXPERIMENTS:
        outdir = base / name
        summary = run({"experiment": name, "output_dir": str(outdir),
                       "workers": 2})
        results[name] = (summary, outdir)
    return results


def assertion_map(summary):
    return {a.id: a for a in summary.assertions}
