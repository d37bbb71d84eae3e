"""``benchmarks/code_lines.py``: which lines of a Python file are code."""

import code_lines
import pytest

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code

# A comment line.


def f(x):
    """Function docstring."""
    text = """a multi-line
string that is not a docstring"""
    return x, text


class C:
    """Class docstring."""

    def g(self):
        "Single-quoted docstring."
        return 1
'''


def test_counts_code_not_blanks_comments_or_docstrings():
    # import, def f, text = (2 lines), return, class C, def g, return 1
    assert code_lines.code_lines(SAMPLE) == 8


def test_a_string_that_is_not_first_in_a_body_is_code():
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2


def test_a_line_holding_code_and_a_docstring_counts():
    assert code_lines.code_lines('def f(): """doc"""\n') == 1


#: A construct each, and how many of its lines are code.
CONSTRUCTS = {
    "empty-file": ("", 0),
    "blanks-and-comments": ("\n# one\n\n    # two\n", 0),
    "module-docstring-alone": ('"""Only a docstring."""\n', 0),
    "code-with-a-trailing-comment": ("x = 1  # why\n", 1),
    "bracketed-continuation": ("total = f(\n    1,\n    2,\n)\n", 4),
    "backslash-continuation": ("total = 1 + \\\n    2\n", 2),
    "decorator": ("@cache\ndef f(): ...\n", 2),
    "async-function-docstring": ('async def f():\n    """Doc."""\n    return 1\n', 2),
    "nested-function-docstring": (
        'def f():\n    def g():\n        """Doc,\n        over two."""\n'
        "        return 1\n    return g\n",
        4,
    ),
    "method-docstring-over-lines": (
        'class C:\n    def m(self):\n        """Doc\n\n        more."""\n',
        2,
    ),
    "a-bytes-literal-first-is-code": ('def f():\n    b"not a docstring"\n', 2),
    "an-f-string-first-is-code": ('def f(x):\n    f"{x}"\n', 2),
}


@pytest.mark.parametrize("construct", list(CONSTRUCTS))
def test_the_code_lines_of(construct):
    text, expected = CONSTRUCTS[construct]
    assert code_lines.code_lines(text) == expected


def test_main_prints_each_package_and_the_total(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "src/repro"
    counts = [int(count.replace(",", "")) for count, _ in rows]
    assert counts[-1] == sum(counts[:-1]) == sum(
        code_lines.count_tree(code_lines.PACKAGE).values()
    )
    assert [package for _, package in rows[:-1]] == sorted(
        package for _, package in rows[:-1]
    )


def test_the_repo_total_is_the_sum_of_its_files(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    counts = code_lines.count_tree(tmp_path)
    assert counts == {"pkg/a.py": 8, "b.py": 1}
