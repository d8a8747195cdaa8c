"""Smoke test for scripts/count_code_lines.py on a small package."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a comment after code


def f(x):
    """One-line docstring."""
    s = """a string
that is code"""

    return x


class C:
    """Class
    docstring."""

    y = 1
'''


def load_script():
    spec = importlib.util.spec_from_file_location(
        "count_code_lines", ROOT / "scripts" / "count_code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstrings_comments_and_blank_lines_are_not_counted(tmp_path, capsys):
    script = load_script()
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert script.main(tmp_path) == 0
    # a.py: import, def, the two lines of s, return, class and y
    assert capsys.readouterr().out.splitlines() == ["     7  a.py", "     0  b.py", "     7  total"]
