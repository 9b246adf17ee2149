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


def test_peak_memory_prints_each_phase_maximum_over_its_repeats(monkeypatch, capsys):
    # Each n is measured REPEATS times; a column is its largest reading and
    # the last the largest of them all, whichever run each came from.
    peak_memory = _tool("peak_memory")
    readings = iter([
        {"factor": 1.0, "solve": 2.0, "lanes": 4.49, "tail": 3.0, "write": 5.0},
        {"factor": 1.5, "solve": 2.0, "lanes": 4.66, "tail": 2.0, "write": 4.0},
    ] + [{"factor": 1.0, "solve": 2.0, "lanes": 4.5, "tail": 2.0, "write": 4.0}] * 3)
    calls = []

    def fake(n):
        calls.append(n)
        return 2 * n + 2, next(readings)

    monkeypatch.setattr(peak_memory, "measure", fake)
    peak_memory.main([256])
    assert calls == [256] * 5
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("(max of 5 runs)")
    assert lines[1].split() == ["256", "514", "1.50", "2.00", "4.66", "3.00", "5.00", "5.00"]
