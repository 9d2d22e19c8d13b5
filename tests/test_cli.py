import json
import shlex
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from pcohom import cli, core, homsearch
from pcohom.cli import build_parser, main
from pcohom.core import builtin_group
from pcohom.homsearch import hom_count, t_bundle
from pcohom.pairings import transfer_check
from pcohom.unitriangular import parse_family


def run(tmp_path, argv, expect_code=0):
    out = tmp_path / "out.jsonl"
    code = main(["--out", str(out)] + argv)
    assert code == expect_code, (argv, code)
    if out.exists():
        return [json.loads(line) for line in out.read_text().splitlines()
                if line.strip()]
    return []


def check_envelope(rep, command):
    assert rep["schema_version"] == 1
    assert rep["command"] == command
    assert "commutator" in rep["conventions"]
    assert "caveat" in rep["conventions"]


def test_group_info(tmp_path):
    (rep,) = run(tmp_path, ["group-info", "--group", "Q8"])
    check_envelope(rep, "group-info")
    assert rep["group_order"] == 8
    assert rep["signature"]["exponent"] == 4
    assert rep["signature"]["center_order"] == 2
    assert "group_key" in rep


def test_filtration(tmp_path):
    (rep,) = run(tmp_path, ["filtration", "--group", "Z/16",
                            "--kind", "zassenhaus", "--p", "2", "--upto", "8"])
    assert rep["orders"] == [16, 8, 4, 4, 2, 2, 2, 2]
    (rep,) = run(tmp_path, ["filtration", "--group", "Meta:3",
                            "--kind", "lower-central", "--p", "3"])
    assert rep["orders"] == [81, 9, 1]


def test_t_subgroups(tmp_path):
    (rep,) = run(tmp_path, ["t-subgroups", "--group", "Q8",
                            "--family", "zassenhaus:2:2"])
    # both kernel intersections for Q8 are its center: every hom to the
    # Klein quotient or to U_2(F_2) kills {1, -1}
    assert rep["T_order"] == 2 and rep["Tbar_order"] == 2
    assert len(rep["T_members"]) == 2


def test_hom_count_and_h2(tmp_path):
    (rep,) = run(tmp_path, ["hom-count", "--group", "E:2:2",
                            "--codomain", "Z/2"])
    assert rep["hom_count"] == 4
    (rep,) = run(tmp_path, ["h2", "--group", "E:2:2", "--p", "2"])
    assert rep["dim"] == 3


def test_massey(tmp_path):
    (rep,) = run(tmp_path, ["massey", "--group", "E:2:2",
                            "--family", "zassenhaus:2:2", "--chars", "0,1"])
    assert rep["defined"] and rep["value_count"] == 1


def test_pairings_and_kernel_condition(tmp_path):
    (rep,) = run(tmp_path, ["pairings", "--group", "Q8",
                            "--family", "zassenhaus:2:2",
                            "--n1", "trivial", "--n2", "tbar"])
    assert rep["A"]["perfect"] and rep["B"]["perfect"] and rep["C"]["perfect"]
    (rep,) = run(tmp_path, ["kernel-condition", "--group", "Q8",
                            "--family", "zassenhaus:2:2",
                            "--n1", "trivial", "--n2", "tbar"])
    assert rep["holds"] and rep["witness"] is None
    assert rep["dims"] == {"dim_A": 1, "dim_B": 0, "dim_C": 0}


def test_transfer_check_and_sweep(tmp_path):
    (rep,) = run(tmp_path, ["transfer-check", "--group", "Q8",
                            "--family", "zassenhaus:2:2",
                            "--subgroup", "tbar"])
    assert rep["status"] == "PASS"
    (rep,) = run(tmp_path, ["transfer-sweep", "--groups", "Q8,D4"])
    assert rep["groups"] == 2 and rep["all_pass"]
    assert rep["failures"] == 0 and rep["checks"] >= 6


def test_transfer_check_standin_group_spec(tmp_path):
    (rep,) = run(tmp_path, ["transfer-check",
                            "--group", "standin:zassenhaus:2:2:2",
                            "--family", "zassenhaus:2:2",
                            "--subgroup", "center"])
    assert rep["group_order"] == 32
    assert rep["status"] == "PASS"


def test_lyndon(tmp_path):
    (rep,) = run(tmp_path, ["lyndon", "--k", "2", "--upto", "5"])
    assert rep["counts"] == {"1": 2, "2": 1, "3": 2, "4": 3, "5": 6}


def test_counterexample_inconclusive_exits_1(tmp_path):
    # with k = 2 the common-commutator search does find assignments, so the
    # harness reports "inconclusive" and the CLI signals disagreement
    reps = run(tmp_path, ["counterexample", "--k", "2"], expect_code=1)
    assert reps[0]["verdict"] == "inconclusive"
    assert reps[0]["common_commutator_completions"] > 0


PINS = Path(__file__).with_name("cli_pins.json")


@pytest.mark.parametrize("pin", json.loads(PINS.read_text()),
                         ids=lambda pin: " ".join(pin["argv"][:3]))
def test_cli_records_are_pinned(tmp_path, pin):
    """One record each of pairings, kernel-condition, transfer-check,
    massey and counterexample (p = 2 and 3), with elapsed_seconds
    dropped, equals the record pinned in cli_pins.json."""
    (rep,) = run(tmp_path, pin["argv"], expect_code=pin["exit_code"])
    rep.pop("elapsed_seconds", None)
    assert rep == pin["record"]


BUDGET_ERROR = "BudgetExceeded: hom search budget exceeded ("


def test_budget_exceeded_exits_2(tmp_path):
    """An exceeded budget is one JSON error record and exit 2."""
    (err,) = run(tmp_path, ["--budget-prefixes", "10", "hom-count",
                            "--group", "E:2:3", "--codomain", "U:3:2"],
                 expect_code=2)
    assert set(err) == {"schema_version", "command", "error"}
    assert err["schema_version"] == 1 and err["command"] == "hom-count"
    assert err["error"].startswith(BUDGET_ERROR)


def test_a_warm_twin_does_not_lift_the_budget(tmp_path, monkeypatch):
    """The memo keys the budget (`core.memo`): once a live twin of E:2:3
    has counted its homs into U:3:2 under the default budget, a run under
    a budget of 10 still exits 2, as it does cold."""
    monkeypatch.setattr(core, "_TWINS", weakref.WeakValueDictionary())
    argv = ["--budget-prefixes", "10", "hom-count", "--group", "E:2:3",
            "--codomain", "U:3:2"]
    (cold,) = run(tmp_path, argv, expect_code=2)
    G = builtin_group("E:2:3")
    hom_count(G, builtin_group("U:3:2"))
    (warm,) = run(tmp_path, argv, expect_code=2)
    assert warm == cold and cold["error"].startswith(BUDGET_ERROR)


def test_budget_record_follows_the_reports_made(tmp_path):
    man = tmp_path / "man.json"
    man.write_text(json.dumps({"jobs": [
        {"command": "group-info", "group": "D4"},
        {"command": "hom-count", "group": "E:2:3", "codomain": "U:3:2"},
        {"command": "lyndon", "k": 2, "upto": 3}]}))
    ok, err = run(tmp_path, ["--budget-prefixes", "10", "--manifest",
                             str(man)], expect_code=2)
    assert ok["command"] == "group-info" and ok["group_order"] == 8
    assert err["command"] == "hom-count"
    assert err["error"].startswith(BUDGET_ERROR)


def test_transgression_solve_failure_exits_1_with_one_error_record(
        tmp_path, monkeypatch):
    """A TransgressionSolveFailed (five-term exactness violated) is an
    OracleDisagreement: one JSON error record and exit 1, not a
    traceback."""
    from pcohom import pairings
    span_of = pairings.transgression_span

    def no_preimages(*args):
        psis, span = span_of(*args)
        return psis, SimpleNamespace(solve=lambda v: None)

    monkeypatch.setattr(pairings, "transgression_span", no_preimages)
    (err,) = run(tmp_path, ["pairings", "--group", "Q8", "--family",
                            "zassenhaus:2:2", "--n1", "trivial",
                            "--n2", "tbar"], expect_code=1)
    assert err["command"] == "pairings"
    assert err["error"].startswith("TransgressionSolveFailed: ")


def test_oracle_disagreement_exits_1_with_one_error_record(tmp_path,
                                                           monkeypatch):
    """A failing internal cross-oracle (here B <= C) is one JSON error
    record after the reports already made, and exit 1, not a traceback."""
    from pcohom import pairings
    c_space = pairings.c_space
    # on D4, dim B = dim C = 1: an empty C fails B <= C
    monkeypatch.setattr(pairings, "c_space",
                        lambda *a, **k: c_space(*a, **k)[:0])
    manifest = tmp_path / "jobs.json"
    manifest.write_text(json.dumps({"jobs": [
        {"command": "group-info", "group": "Q8"},
        {"command": "kernel-condition", "group": "D4",
         "family": "zassenhaus:2:2", "n1": "trivial", "n2": "tbar"}]}))
    ok, err = run(tmp_path, ["--manifest", str(manifest)], expect_code=1)
    assert ok["command"] == "group-info"
    assert err == {"schema_version": 1, "command": "kernel-condition",
                   "error": "OracleDisagreement: B <= C fails"}


def test_h1_dimension_disagreement_exits_1(tmp_path, monkeypatch):
    """h1's dimension check against |G : G^p[G,G]| is a cross-oracle: when
    it fails, massey writes one error record and exits 1."""
    from pcohom import cohomology
    monkeypatch.setattr(core, "_TWINS", weakref.WeakValueDictionary())
    monkeypatch.setattr(cohomology, "power_commutator_subgroup",
                        lambda G, A, m: A)
    (err,) = run(tmp_path, ["massey", "--group", "E:2:2", "--family",
                            "zassenhaus:2:2"], expect_code=1)
    assert err == {"schema_version": 1, "command": "massey",
                   "error": "OracleDisagreement: dim H^1 = 2 != log_p "
                            "|G : G^p[G,G]| = log_p 1"}


def test_missing_subcommand_exits_3(tmp_path):
    assert main([]) == 3


def test_unwritable_out_exits_3_before_any_job(tmp_path, capsys,
                                               monkeypatch):
    """--out is opened before any job runs: a path that cannot be written
    is one error record on stdout and exit 3, and no job is run."""
    from pcohom import cli
    ran = []
    monkeypatch.setattr(cli, "cmd_group_info", lambda args: ran.append(args))
    out = tmp_path / "missing" / "x.jsonl"
    code = main(["--out", str(out), "group-info", "--group", "Q8"])
    (line,) = capsys.readouterr().out.splitlines()
    rec = json.loads(line)
    assert code == 3 and not ran and not out.parent.exists()
    assert rec["schema_version"] == 1 and rec["command"] is None
    assert rec["error"].startswith(f"SpecError: --out {str(out)!r}: ")


def test_a_twin_reports_under_its_own_name(tmp_path, monkeypatch):
    """Z/3xZ/3 has the tables of E:3:2, so it shares the memo cache of a
    live E:3:2 (`core._table_group`); its reports still name it and equal
    a cold run's, elapsed time apart."""
    monkeypatch.setattr(core, "_TWINS", weakref.WeakValueDictionary())
    argv = ["transfer-check", "--group", "Z/3xZ/3",
            "--family", "zassenhaus:2:3", "--subgroup", "tbar"]
    (cold,) = run(tmp_path, argv)
    fam = parse_family("zassenhaus:2:3")
    G = builtin_group("E:3:2")
    rep = transfer_check(G, t_bundle(G, fam).Tbar, fam)
    twin = builtin_group("Z/3xZ/3")
    assert twin._cache is G._cache
    twin_rep = transfer_check(twin, t_bundle(twin, fam).Tbar, fam)
    assert rep["group"] == "E:3:2" and twin_rep["group"] == "Z/3xZ/3"
    assert {**twin_rep, "group": "E:3:2"} == rep
    searched = []
    orig = homsearch.t_subgroup
    monkeypatch.setattr(homsearch, "t_subgroup",
                        lambda *a, **k: searched.append(a) or orig(*a, **k))
    (warm,) = run(tmp_path, argv)
    assert not searched                  # every T-bundle was E:3:2's
    del cold["elapsed_seconds"], warm["elapsed_seconds"]
    assert warm == cold and warm["group"] == "Z/3xZ/3"


def test_malformed_manifest_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--manifest", str(bad)]) == 3
    nojobs = tmp_path / "nojobs.json"
    nojobs.write_text(json.dumps({"tasks": []}))
    assert main(["--manifest", str(nojobs)]) == 3
    badjob = tmp_path / "badjob.json"
    badjob.write_text(json.dumps({"jobs": [{"command": "nonsense"}]}))
    assert main(["--manifest", str(badjob)]) == 3


def test_manifest_runs_multiple_jobs(tmp_path, capsys):
    man = tmp_path / "man.json"
    man.write_text(json.dumps({"jobs": [
        {"command": "group-info", "group": "D4"},
        {"command": "h2", "group": "E:3:2", "p": 3},
        {"command": "lyndon", "k": 2, "upto": 3},
    ]}))
    reps = run(tmp_path, ["--manifest", str(man)])
    assert [r["command"] for r in reps] == ["group-info", "h2", "lyndon"]
    assert reps[1]["dim"] == 3
    # an empty manifest writes nothing, to --out or to stdout
    man.write_text(json.dumps({"jobs": []}))
    out = tmp_path / "empty.jsonl"
    assert main(["--out", str(out), "--manifest", str(man)]) == 0
    assert out.read_text() == ""
    capsys.readouterr()
    assert main(["--manifest", str(man)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["transfer-check", "--group", "Q8"],
    ["transfer-check", "--group", "Nope", "--family", "zassenhaus:2:2",
     "--subgroup", "tbar"],
    ["transfer-check", "--group", "Q8", "--family", "zassenhaus:2",
     "--subgroup", "tbar"],
    ["transfer-check", "--group", "Q8", "--family", "zassenhaus:1:2",
     "--subgroup", "tbar"],
    ["transfer-check", "--group", "Q8", "--family", "zassenhaus:2:2",
     "--subgroup", "weird"],
    ["h2", "--group", "Z/256", "--p", "2"],
    ["transfer-sweep", "--jobs", "4"],
    ["massey", "--group", "Heis:3", "--family", "mixed:3"],
    ["massey", "--group", "Heis:3", "--family", "lower-central:2:2"],
    ["massey", "--group", "Z/4", "--family", "zassenhaus:2:2"],
    ["massey", "--group", "E:2:2", "--family", "zassenhaus:2:2", "--chars", "0"],
    ["h2", "--group", "Q8", "--p", "0"],
    ["h2", "--group", "Q8", "--p", "4"],
    ["filtration", "--group", "Q8", "--kind", "zassenhaus", "--p", "1"],
    ["counterexample", "--k", "1"],
    ["transfer-check", "--group", "Q8", "--family", "zassenhaus:2:4",
     "--subgroup", "tbar"],
    ["transfer-check", "--group", "Q8", "--family", "zassenhaus:2:2",
     "--subgroup", "lpc:2:4"],
    ["transfer-check", "--group", "Q8", "--family", "zassenhaus:2:2",
     "--subgroup", "whole"],
    ["pairings", "--group", "Q8", "--family", "zassenhaus:2:2",
     "--n1", "tbar", "--n2", "trivial"],
    ["kernel-condition", "--group", "Q8", "--family", "zassenhaus:2:2",
     "--n1", "whole", "--n2", "trivial"],
    ["kernel-condition", "--group", "Heis:3", "--family", "mixed:3",
     "--n1", "tbar", "--n2", "trivial"],
    ["--cap-order", "16", "transfer-sweep"],
    ["transfer-sweep", "--groups", "Z/6"],
    ["--budget-prefixes", "-5", "hom-count", "--group", "Z/4",
     "--codomain", "Z/2"],
    ["lyndon", "--k", "-1"],
    ["filtration", "--group", "Q8", "--kind", "zassenhaus", "--p", "2",
     "--upto", "-3"],
    ["group-info", "--group", "Z/99999999999999999999"],
    ["group-info", "--group", "U:2:99999999999999999999"],
])
def test_malformed_input_exits_3_with_one_error_record(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    (rec,) = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert set(rec) == {"schema_version", "command", "error"}
    assert rec["schema_version"] == 1
    assert "Traceback" not in err


def test_product_over_the_cap_exits_3_before_any_table(capsys, monkeypatch):
    """A product whose factors' orders multiply past the closure cap is one
    ClosureCapExceeded record and exit 3, raised before its table is
    built."""
    monkeypatch.setattr(core, "group_from_table", None)
    assert main(["group-info", "--group", "U:3:2xU:3:2xZ/4"]) == 3
    (rec,) = [json.loads(line) for line in
              capsys.readouterr().out.splitlines() if line.strip()]
    assert rec["command"] == "group-info"
    assert rec["error"].startswith("ClosureCapExceeded")


def test_standin_over_the_cap_exits_3_before_any_closure(capsys):
    """standin:lower-central:3:2:3 has order 2^23 by the closed form
    (`magnus.standin_log_order`): one ClosureCapExceeded record and exit
    3, with a traced peak under 1 MiB.  Its closure would hold id vectors
    of 8^3 + 64^3 + 64^3 = 524,800 slots; under a 3 GB address-space
    limit it once ran out of memory after 13.5 s."""
    tracemalloc.start()
    try:
        code = main(["group-info", "--group", "standin:lower-central:3:2:3"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (rec,) = [json.loads(line) for line in
              capsys.readouterr().out.splitlines() if line.strip()]
    assert code == 3 and peak < 2 ** 20, peak
    assert rec["command"] == "group-info"
    assert rec["error"].startswith("ClosureCapExceeded: standin:lower-"
                                   "central:3:2:3 has order 2^23")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "transfer-sweep" in capsys.readouterr().out


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("pcohom ")]
    assert len(lines) >= 4
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
