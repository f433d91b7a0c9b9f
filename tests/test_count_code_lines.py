import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "count_code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts

# a comment line does not


class Shape:
    """A class docstring."""

    sides = 4

    def area(self):
        """A function
        docstring."""
        text = """a string
        that is not a docstring"""
        return (self.sides
                * len(text))


async def ping():
    "a one-line docstring"
    "a second string is code"
'''


def _script():
    spec = importlib.util.spec_from_file_location("count_code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_drops_docstrings_comments_and_blank_lines():
    # Counted: import, class, sides, def area, the two lines of the string
    # assigned to text, the two lines of the return, async def and the
    # second string.
    assert _script().count_code_lines(SAMPLE) == 10


def test_count_prints_each_module_and_the_total(tmp_path, capsys, monkeypatch):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    script = _script()
    monkeypatch.setattr(script, "DEFAULT_ROOT", tmp_path)
    assert script.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        f"10 {tmp_path / 'pkg' / 'a.py'}",
        f"1 {tmp_path / 'pkg' / 'b.py'}",
        "11 total",
    ]
