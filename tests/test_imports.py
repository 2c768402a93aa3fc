"""Every name a module of ``src/phaselab`` imports is used in that module,
and every parameter of a function or lambda there is read in its body.

No linter ships with the project, so these stdlib ``ast`` passes stand in
for one: a deletion that strands an import fails here instead of costing
import time unnoticed, and one that strands a parameter fails here instead
of leaving a knob that does nothing.  ``__init__.py`` is exempt from the
import pass (its imports are the package's re-exports), and so is
``from __future__ import ...``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "phaselab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__, and names inside string annotations
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "__all__ = ['dataclass']\n"
              "def f(x: 'np.ndarray'):\n    return x\n")
    assert unused_imports(source) == ["field (line 4)", "math (line 2)"]


def unread_parameters(source: str) -> list[str]:
    """``"<qualified name>: <parameter>"`` for each parameter of a function
    or lambda that its body never loads; a lambda is named by its line."""
    unread = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = scope + getattr(child, "name",
                                       f"<lambda line {child.lineno}>")
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args,
                                          *a.kwonlyargs, a.vararg, a.kwarg)
                          if p is not None]
                body = (child.body if isinstance(child.body, list)
                        else [child.body])
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                unread.extend(f"{name}: {p}" for p in params
                              if p not in read)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + child.name + ".")
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
    return unread


#: The parameters that stay unread, each with its reason.
UNREAD_ALLOWED = {
    # perfbench/workloads.py passes it positionally; it goes with the
    # benchmark refresh of ROADMAP item 1
    "grid.make_half_space_grid: far_value",
    # every unit solve of families._FAMILIES takes (eps, params, cfg), and
    # the oscillating data do not depend on eps
    "families._oscillation_atom: eps",
}


def test_every_parameter_is_read():
    unread = [f"{p.stem}.{u}" for p in sorted(SRC.glob("*.py"))
              for u in unread_parameters(p.read_text())]
    assert sorted(unread) == sorted(UNREAD_ALLOWED)


def test_the_check_sees_an_unread_parameter():
    source = ("def f(a, b=1, *args, c, **kw):\n"
              "    def g(d):\n        return a + c\n"
              "    return g\n"
              "class K:\n    def m(self, x):\n        x = 2\n"
              "        return self\n"
              "h = lambda y, z: y\n")
    assert unread_parameters(source) == [
        "f: b", "f: args", "f: kw", "f.g: d", "K.m: x", "<lambda line 9>: z"]


def test_importing_phaselab_does_not_load_scipy_fft():
    # scipy.fft pulls in scipy.special, about 170 ms of import; the solver
    # imports it on the first solve with an axis too long for its dense
    # transform, so a top-level import must not bring it back
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, phaselab; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.fft')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_importing_phaselab_builds_no_dst_matrix():
    # the solver's DST matrices are cached by length on first use; an
    # import builds none
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import phaselab; "
         "from phaselab.solver import _AXIS_KINDS; "
         "print([len(row[2]) for row in _AXIS_KINDS.values()])"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[0, 0]"
