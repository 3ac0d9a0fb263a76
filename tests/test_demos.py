"""Every demo script runs to the end without a traceback, and README's Library tour gives what it says."""

import ast
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_cleanly(path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, path], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr


def library_tour():
    """The ``python`` block of README's ``## Library tour`` section."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library tour", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_tour_gives_the_results_its_comments_state():
    # Each statement runs in order; an expression commented "# -> VALUE"
    # must evaluate to VALUE when its line runs.
    source = library_tour()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        expected = lines[statement.end_lineno - 1].partition("# -> ")[2]
        if expected:
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(expected), (ast.unparse(statement), value)
            checked.append(expected)
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == ["2", "[(4, 1)]"]
