import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("count_lines", os.path.join(ROOT, "tools", "count_lines.py"))
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)


@pytest.mark.parametrize("source, expected", [
    # not code: blank lines, comment lines, docstrings of any length
    ("\n   \n\n", 0),
    ("# a comment\n\n    # an indented comment\n", 0),
    ('"""A module docstring."""\n', 0),
    ('"""A module docstring\n\nover three lines.\n"""\nx = 1\n', 1),
    ('class A:\n    """A class docstring\n    on two lines."""\n', 1),
    ('def f():\n    """A function docstring."""\n    return 1\n', 2),
    ('async def f():\n    """An async function docstring\n    on two lines.\n    """\n', 1),
    ("x = 1  # a comment after code\n", 1),
    # code: a string that is not a docstring, and every line of a continued statement
    ('text = """a\nmulti-line\nstring"""\n', 3),
    ('x = 1\n"""a string after the first statement\nis no docstring"""\n', 3),
    ("y = (1 +\n     2)\n", 2),
    ("z = 1 + \\\n    2\n", 2),
])
def test_count_lines_counts_only_code(source, expected):
    assert count_lines.code_lines(source) == expected


def test_count_lines_total_is_the_sum_of_the_package_files(capsys):
    package = os.path.join(ROOT, "src", "quantumtoss")
    assert count_lines.main([package]) == 0
    lines = [re.fullmatch(r"\s*(\d+)  (.+)", line).groups()
             for line in capsys.readouterr().out.splitlines()]
    files = count_lines.python_files(package)
    assert [path for _, path in lines] == [*files, "total"]
    for count, path in lines[:-1]:
        with open(path, encoding="utf-8") as fh:
            assert int(count) == count_lines.code_lines(fh.read())
    assert files and int(lines[-1][0]) == sum(int(count) for count, _ in lines[:-1])
