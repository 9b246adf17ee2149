"""The measuring scripts under tools/, whose numbers the README cites."""

import importlib.util
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"

_SNIPPET = '''"""A module docstring
over two lines."""

# A comment line.
import os  # a trailing comment


def f(x):
    """A function docstring."""
    y = (x +
         1)
    text = """a string
    that is not a docstring"""
    return y, text


class C:
    """A class docstring."""

    z = os.sep
'''


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    # import, def, the two lines of y, the two of text, return, class, z.
    code_lines = _tool("code_lines")
    assert code_lines.code_lines(_SNIPPET) == 9
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    code_lines.main(str(tmp_path))
    assert capsys.readouterr().out == "10\n"


def test_peak_memory_reports_every_phase():
    # The README config at n = 16 (its config block, with grid.n replaced).
    peak_memory = _tool("peak_memory")
    assert peak_memory.PHASES[-1] == "write"
    d, peaks = peak_memory.measure(16)
    assert d == 2 * 16 + 1 + 1
    assert set(peaks) == set(peak_memory.PHASES)
    assert all(value > 0 for value in peaks.values())
