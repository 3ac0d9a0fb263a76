"""``tools/code_lines.py`` counts code lines without docstrings, comments or blanks."""

import contextlib
import importlib.util
import io
import os

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")

SAMPLE = '''"""Module docstring
over two lines."""

import os  # a comment on a code line


def f(x):
    """Function docstring."""
    # a comment line
    return (x +
            1)


class C:
    """Class docstring."""
    text = """a string that is
    no docstring"""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks():
    tool = load_tool()
    # import, def, the two return lines, class and the two lines of text.
    assert tool.count(SAMPLE) == (17, 7)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main() == 0
    rows = [line.split() for line in out.getvalue().splitlines()[1:]]
    assert rows[-1][0] == "total" and "sweep.py" in [row[0] for row in rows]
    assert [int(c) for c in rows[-1][1:]] == [sum(int(row[k]) for row in rows[:-1]) for k in (1, 2)]
