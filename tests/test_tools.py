"""The repository's tools: the code-line count of `tools/code_lines.py`."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""
import os  # a trailing comment counts as code


# a comment line
class A:
    """Class docstring."""

    x = "not a docstring"

    def f(self, a,
          b):
        """Function docstring."""
        s = """a string
that spans lines"""
        return (a +
                b)
'''


def test_counts_code_lines_of_a_snippet():
    # import, class, x, def (2 lines), s (2 lines), return (2 lines)
    assert code_lines.code_lines(SNIPPET) == 9


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [["9", str(tmp_path / "a.py")],
                                              ["0", str(tmp_path / "b.py")],
                                              ["9", "total"]]
