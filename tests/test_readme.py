"""The ``python`` code blocks of README.md run as written.

A signature change that leaves the documented examples stale fails here
instead of in a reader's session.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.S | re.M)


def test_the_readme_has_its_two_examples():
    # the half-space solve and the build_family example
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {})
    assert capsys.readouterr().out
