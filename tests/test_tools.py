"""The repository's command-line tools, run as scripts."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


STUB_RUN = '''import json
import sys
from pathlib import Path

cfg = json.loads((Path(__file__).parents[1] / "stub.json").read_text())
log = Path(cfg["log"])
done = [json.loads(line)[0] for line in log.read_text().splitlines()] \\
    if log.exists() else []
with log.open("a") as f:
    f.write(json.dumps([cfg["name"], sys.argv[1:]]) + "\\n")
print("a progress line")
print(json.dumps({"digest": cfg["digest"], "problems": []}))
print(json.dumps({"correct": cfg["correct"], "attempted": 1, "failed": 0,
                  "metrics": {name: {"value": values[done.count(cfg["name"])],
                                     "unit": "s"}
                              for name, values in cfg["metrics"].items()}}))
'''


BOUNDS = {"end_to_end": [{"name": "wall_s", "bound": 0.25},
                         {"name": "cpu_s", "bound": 0.25}]}


def stub_tree(root, name, log, wall, digest="d1", correct=True,
              metrics=None):
    """A tree with BOUNDS as its BENCHMARK.json, whose benchmarks/run.py
    logs its call and prints a fixed context line and a result line with
    the next of each metric's values (wall_s, and cpu_s at 1.0, unless
    metrics gives them).  The values sit in stub.json beside benchmarks/,
    so two stub trees hold the same harness."""
    (root / name / "benchmarks").mkdir(parents=True)
    (root / name / "BENCHMARK.json").write_text(json.dumps(BOUNDS))
    (root / name / "benchmarks" / "run.py").write_text(STUB_RUN)
    (root / name / "stub.json").write_text(json.dumps({
        "name": name, "log": str(log), "digest": digest, "correct": correct,
        "metrics": metrics or {"wall_s": wall, "cpu_s": [1.0] * len(wall)}}))
    return root / name


def run_ab(parent, change, pairs=4):
    return subprocess.run([sys.executable, str(ROOT / "tools/ab.py"),
                           "--parent", str(parent), "--change", str(change),
                           "--workload", "catalog-sweep", "--seed", "7",
                           "--pairs", str(pairs), "--seconds", "0.5"],
                          capture_output=True, text=True, timeout=60)


def test_ab_alternates_the_trees_and_writes_the_schema(tmp_path):
    log = tmp_path / "log"
    parent = stub_tree(tmp_path, "parent", log, [0.5, 0.4, 0.6, 0.45])
    change = stub_tree(tmp_path, "change", log, [0.4, 0.45, 0.3, 0.35])
    (change / "benchmarks" / "__pycache__").mkdir()
    (change / "benchmarks" / "__pycache__" / "run.pyc").write_bytes(b"x")
    proc = run_ab(parent, change)
    assert proc.returncode == 0, proc.stderr
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert [name for name, _ in calls] == ["parent", "change", "change",
                                           "parent"] * 2
    assert all(argv == ["--workload", "catalog-sweep", "--seed", "7",
                        "--seconds", "0.5", "--trace", "0"]
               for _, argv in calls)
    out = json.loads(proc.stdout)
    assert (out["workload"], out["seed"], out["pairs"], out["digest"]) == \
        ("catalog-sweep", 7, 4, "d1")
    # the trees differ only in stub.json and a __pycache__ file
    assert out["same_harness"] is True
    wall = out["metrics"]["wall_s"]
    assert set(wall) == {"parent", "change", "parent_median",
                         "change_median", "pairs_change_better",
                         "parent_iqr", "change_q1", "change_q3", "bound",
                         "within_bound", "resolved", "claim_rule_met"}
    assert wall["parent"] == [0.5, 0.4, 0.6, 0.45]
    assert wall["change"] == [0.4, 0.45, 0.3, 0.35]
    assert wall["parent_median"] == pytest.approx(0.475)
    assert wall["change_median"] == pytest.approx(0.375)
    assert wall["pairs_change_better"] == 3
    # inclusive quartiles of 0.4, 0.45, 0.5, 0.6: 0.4375 and 0.525
    assert wall["parent_iqr"] == pytest.approx(0.0875)
    # inclusive quartiles of 0.3, 0.35, 0.4, 0.45: 0.3375 and 0.4125
    assert (wall["change_q1"], wall["change_q3"]) == \
        (pytest.approx(0.3375), pytest.approx(0.4125))
    # 0.375 <= 0.475 * 1.25, but 3 of 4 pairs are fewer than 9 in 10
    assert (wall["bound"], wall["within_bound"], wall["claim_rule_met"]) == \
        (0.25, True, False)
    # the IQR 0.0875 is below 0.25 * 0.475
    assert wall["resolved"] is True
    assert out["metrics"]["cpu_s"]["pairs_change_better"] == 0


def test_ab_gives_the_bound_and_claim_verdicts(tmp_path):
    """within_bound is change_median <= parent_median * (1 + bound), with
    the bound from the parent's BENCHMARK.json; claim_rule_met needs the
    change lower in 9 of 10 pairs and by more than the parent's IQR."""
    log = tmp_path / "log"
    parent = stub_tree(tmp_path, "parent", log, None, metrics={
        "wall_s": [1.0, 1.1, 1.2, 1.0], "cpu_s": [1.0] * 4,
        "peak_rss_mb": [50.0] * 4, "other": [1.0, 2.0, 1.0, 2.0]})
    change = stub_tree(tmp_path, "change", log, None, metrics={
        "wall_s": [0.5, 0.6, 0.5, 0.6], "cpu_s": [1.26, 1.2, 1.3, 1.3],
        "peak_rss_mb": [50.0] * 4, "other": [0.5, 1.9, 0.5, 1.9]})
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        *BOUNDS["end_to_end"], {"name": "peak_rss_mb", "bound": 0.1}]}))
    proc = run_ab(parent, change)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # the parent's BENCHMARK.json has one bound more
    assert out["same_harness"] is False
    verdicts = {name: (m["bound"], m["within_bound"], m["claim_rule_met"])
                for name, m in out["metrics"].items()}
    assert verdicts == {
        # 4 of 4 pairs, and 1.05 - 0.55 > the IQR 0.125
        "wall_s": (0.25, True, True),
        # the median 1.28 > 1.0 * 1.25
        "cpu_s": (0.25, False, False),
        # equal: within the bound, no pair better
        "peak_rss_mb": (0.1, True, False),
        # no bound; 4 of 4 pairs, but 1.5 - 1.2 is not above the IQR 1.0
        "other": (None, None, False),
    }


def test_ab_reports_a_spread_wider_than_the_bound_as_unresolved(tmp_path):
    """resolved is false when the parent's IQR exceeds bound * its median,
    unless every change run reads lower than every parent run; null
    without a bound."""
    log = tmp_path / "log"
    # parent IQR 0.5 (quartiles 1.0 and 1.5) > 0.25 * the median 1.25
    wide = [1.0, 1.0, 1.5, 1.5]
    parent = stub_tree(tmp_path, "parent", log, None, metrics={
        "wall_s": wide, "cpu_s": wide, "peak_rss_mb": [50.0, 50.2] * 2,
        "other": wide})
    change = stub_tree(tmp_path, "change", log, None, metrics={
        # overlaps the parent's runs
        "wall_s": [0.9, 1.2, 1.3, 1.0],
        # every run below every parent run
        "cpu_s": [0.9, 0.8, 0.95, 0.9],
        # the parent's IQR 0.2 is within 0.1 * 50.1: resolved, and worse
        "peak_rss_mb": [60.0] * 4,
        "other": [0.5] * 4})
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        *BOUNDS["end_to_end"], {"name": "peak_rss_mb", "bound": 0.1}]}))
    proc = run_ab(parent, change)
    assert proc.returncode == 0, proc.stderr
    resolved = {name: m["resolved"]
                for name, m in json.loads(proc.stdout)["metrics"].items()}
    assert resolved == {"wall_s": False, "cpu_s": True, "peak_rss_mb": True,
                        "other": None}


def test_ab_same_harness_compares_every_benchmarks_file(tmp_path):
    """A file under benchmarks/ that only one tree holds makes the
    harnesses differ."""
    log = tmp_path / "log"
    parent = stub_tree(tmp_path, "parent", log, [0.5] * 2)
    change = stub_tree(tmp_path, "change", log, [0.4] * 2)
    (change / "benchmarks" / "extra.json").write_text("{}")
    proc = run_ab(parent, change, pairs=2)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["same_harness"] is False


def test_ab_refuses_unequal_digests_and_incorrect_runs(tmp_path):
    for name, kw in (("digest", {"digest": "d2"}),
                     ("incorrect", {"correct": False})):
        log = tmp_path / name / "log"
        parent = stub_tree(tmp_path / name, "parent", log, [0.5] * 2)
        change = stub_tree(tmp_path / name, "change", log, [0.4] * 2, **kw)
        proc = run_ab(parent, change, pairs=2)
        assert proc.returncode == 1 and proc.stdout == "", name
        assert "error" in proc.stderr, name
    assert run_ab(parent, parent, pairs=1).returncode == 2
