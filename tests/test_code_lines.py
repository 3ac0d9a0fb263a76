"""``tools/code_lines.py`` counts code lines without docstrings, comments or blanks, in Python and C,
for ``src/regcount`` and for ``tests/``."""

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

C_SAMPLE = r'''/* A block comment
 * over three lines. */
#include <stdint.h>

// a line comment
int f(int x) /* a trailing comment */
{
    const char *s = "not // a comment, nor /* one */";
    return x + '"';  // a quote in a character literal
}
/* one line */ int y;
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
    # The include, the five lines of f and the declaration after a comment.
    assert tool.count_c(C_SAMPLE) == (11, 7)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main() == 0
    rows = [line.split() for line in out.getvalue().splitlines()[1:]]
    *modules, total, tests = rows
    assert total[0] == "total" and {"sweep.py", "_pass.c"} <= {row[0] for row in modules}
    assert [int(c) for c in total[1:]] == [sum(int(row[k]) for row in modules) for k in (1, 2)]
    # The modules of tests/ together, by the same rules.
    here = os.path.dirname(os.path.abspath(__file__))
    counts = []
    for name in os.listdir(here):
        if name.endswith(".py"):
            with open(os.path.join(here, name), encoding="utf-8") as fh:
                counts.append(tool.count(fh.read()))
    assert tests == ["tests", *(str(sum(column)) for column in zip(*counts))]
