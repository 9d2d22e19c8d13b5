"""The repository's command-line tools, run as scripts."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        s = """a string
        that is not a docstring"""
        return s
'''


def run_code_lines(*paths):
    return subprocess.run([sys.executable, str(ROOT / "tools/code_lines.py"),
                           *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def test_code_lines_skips_docstrings_comments_and_blanks(tmp_path):
    """The sample's code lines are the import, the class and def lines,
    the two lines of the non-docstring string and the return: 6."""
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "two.py").write_text("x = 1\n\ny = [\n    2]\n")
    proc = run_code_lines(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"6 {tmp_path / 'sample.py'}",
                                        f"3 {tmp_path / 'sub' / 'two.py'}",
                                        "9 total"]
    proc = run_code_lines(tmp_path / "sub" / "two.py")
    assert proc.stdout.splitlines()[-1] == "3 total"
    assert run_code_lines().returncode == 2


def test_code_lines_total_is_the_sum_over_src():
    proc = run_code_lines(ROOT / "src")
    assert proc.returncode == 0, proc.stderr
    *files, total = proc.stdout.splitlines()
    counts = [int(line.split()[0]) for line in files]
    assert len(files) > 10 and all(n > 0 for n in counts)
    assert total == f"{sum(counts)} total"
