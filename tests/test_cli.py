import json
import shlex
from pathlib import Path

import pytest

from pcohom.cli import build_parser, main


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


def test_budget_exceeded_exits_2(tmp_path):
    run(tmp_path, ["--budget-prefixes", "10",
                   "hom-count", "--group", "E:2:3", "--codomain", "U:3:2"],
        expect_code=2)


def test_missing_subcommand_exits_3(tmp_path):
    assert main([]) == 3


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


def test_manifest_runs_multiple_jobs(tmp_path):
    man = tmp_path / "man.json"
    man.write_text(json.dumps({"jobs": [
        {"command": "group-info", "group": "D4"},
        {"command": "h2", "group": "E:3:2", "p": 3},
        {"command": "lyndon", "k": 2, "upto": 3},
    ]}))
    reps = run(tmp_path, ["--manifest", str(man)])
    assert [r["command"] for r in reps] == ["group-info", "h2", "lyndon"]
    assert reps[1]["dim"] == 3


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
])
def test_malformed_input_exits_3_with_one_error_record(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    (rec,) = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert set(rec) == {"schema_version", "command", "error"}
    assert rec["schema_version"] == 1
    assert "Traceback" not in err


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
