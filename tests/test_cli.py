import argparse
import json

import pytest

from splitmodel import cli
from splitmodel.cli import build_parser, main
from splitmodel.errors import ConstructionFailed, InvalidPoint, Singular


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_config_rejections(capsys):
    code, _, err = _run(["census", "--n", "5"], capsys)
    assert code == 2
    assert err.strip() == "n must be even"
    code, _, err = _run(["census", "--n", "4", "--s", "8"], capsys)
    assert code == 2
    assert "s must be at most n/2" in err
    code, _, err = _run(["census", "--n", "4", "--q", "4"], capsys)
    assert code == 2
    assert "odd prime" in err
    code, _, err = _run(["census", "--n", "4", "--q", "9"], capsys)
    assert code == 2
    assert err.strip() == "q must be an odd prime: 3, 5 or 7"
    code, _, err = _run(["closure", "--format", "csv"], capsys)
    assert code == 2
    assert "census strata" in err
    code, _, err = _run(["closure", "--truncation", "2"], capsys)
    assert code == 2
    assert "truncation" in err
    code, _, err = _run(["groebner", "--s", "4"], capsys)
    assert code == 2
    assert "--allow-long" in err
    code, _, err = _run(["groebner", "--s", "5"], capsys)
    assert code == 2
    assert "basis jobs" in err


def test_census_exhaustive_report(tmp_path, capsys):
    out = tmp_path / "census.json"
    code, stdout, _ = _run(["census", "--n", "4", "--s", "2", "--q", "3",
                            "--strategy", "exhaustive",
                            "--output", str(out)], capsys)
    assert code == 0
    assert stdout == ""
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["failures"] == 0
    assert report["census"]["strata"] == [
        {"h": 0, "l": 0, "count": 90},
        {"h": 0, "l": 2, "count": 40},
        {"h": 2, "l": 2, "count": 120},
    ]


def test_census_csv_projection(tmp_path, capsys):
    out = tmp_path / "census.csv"
    code, _, _ = _run(["census", "--n", "4", "--s", "2", "--format", "csv",
                       "--output", str(out)], capsys)
    assert code == 0
    assert out.read_text() == "h,l,count\n0,0,90\n0,2,40\n2,2,120\n"


def test_reruns_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "charts.json"
    argv = ["charts", "--n", "6", "--s", "2", "--budget", "60",
            "--seed", "11", "--output", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_env_var_names_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPLITMODEL_OUTPUT_DIR", str(tmp_path))
    code, _, _ = _run(["flatlift", "--budget", "2", "--output", "lift.json"],
                      capsys)
    assert code == 0
    report = json.loads((tmp_path / "lift.json").read_text())
    assert report["failures"] == 0


def test_closure_report(capsys):
    code, stdout, _ = _run(["closure", "--s", "2"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["config"]["n"] == 6
    assert report["closures"] == {"0,0": [[0, 0], [0, 2]],
                                  "0,2": [[0, 2]],
                                  "2,2": [[0, 2], [2, 2]]}
    assert len(report["lifts"]) == 5
    assert all(entry["ok"] for entry in report["lifts"])
    assert [w["label"] for w in report["witnesses"]] == [[0, 2]]
    assert report["witnesses"][0]["matches_expected"]
    assert "closure-maximal" in report["poset"]["component_count_note"]


def test_charts_report(capsys):
    code, stdout, _ = _run(["charts", "--n", "6", "--s", "3",
                            "--budget", "80"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["checked"] == 80
    assert report["agreed"] == 80
    assert report["certificates"] == []
    labels = {(row["h"], row["l"]) for row in report["strata"]}
    assert labels <= {(1, 1), (1, 3), (3, 3)}


def test_flatlift_report(capsys):
    code, stdout, _ = _run(["flatlift", "--budget", "4"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["config"]["q"] == 5
    assert [p["profile"] for p in report["profiles"]] == [
        [1, 0], [0, 1], [1, 1], [2, 0], [2, 1]]
    assert all(p["ok"] == 4 for p in report["profiles"])


def test_groebner_base_case_report(capsys):
    code, stdout, _ = _run(["groebner", "--s", "2"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["basis_special"]["basis"] == ["1*t_1_2*w_1_2"]
    assert report["basis_generic"]["basis"] == ["1*t_1_2*w_1_2 + 2*pi"]
    certs = report["certificates"]
    assert certs["principal"] and certs["generator_squarefree"]
    assert certs["product_square_in_special_ideal"]
    assert certs["product_square_in_special_ideal_brute"]
    assert certs["routes_agree"]
    assert certs["product_outside_generic_ideal"]
    assert certs["generic_leftover"] == "1*pi"
    assert report["substitution"]["ok"]


def test_groebner_long_job(capsys):
    code, stdout, _ = _run(["groebner", "--s", "4", "--allow-long"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["failures"] == 0
    assert len(report["basis_special"]["basis"]) == 20
    assert "certificates" not in report
    assert "substitution" not in report


def test_schubert_exhaustive_small(capsys):
    code, stdout, _ = _run(["schubert", "--n", "4", "--s", "1"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["tau"]["cells"] == [
        {"cell": 1, "labels": [{"h": 1, "l": 1}], "count": 40}]
    assert report["phi"] == {"z_points": 40, "passed": 40, "failures": []}


def test_schubert_sampled(capsys):
    code, stdout, _ = _run(["schubert", "--n", "6", "--s", "2",
                            "--strategy", "chart-sampled",
                            "--budget", "40"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["tau"]["exhaustive"] is False
    assert not report["tau"]["problems"]
    assert report["phi"]["passed"] == report["phi"]["z_points"] > 0


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("census", "closure", "charts", "flatlift", "groebner",
                 "schubert"):
        assert name in text


def _subparsers(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_subcommand_offers_exactly_the_options_it_reads():
    # a flag the handler ignores would still be echoed into the report
    # config, so every option is pinned here
    shared = {"-h", "--help", "--output", "--format"}
    expected = {
        "census": {"--q", "--seed", "--n", "--s", "--strategy", "--budget",
                   "--workers"},
        "closure": {"--seed", "--truncation", "--n", "--s"},
        "charts": {"--q", "--seed", "--n", "--s", "--budget"},
        "flatlift": {"--q", "--seed", "--budget"},
        "groebner": {"--q", "--s", "--budget", "--allow-long"},
        "schubert": {"--q", "--seed", "--n", "--s", "--strategy",
                     "--budget"},
    }
    got = {name: {opt for action in sub._actions
                  for opt in action.option_strings}
           for name, sub in _subparsers(build_parser()).items()}
    assert got == {name: opts | shared for name, opts in expected.items()}


@pytest.mark.parametrize("argv", [
    "closure --q 5", "census --truncation 4", "charts --truncation 4",
    "flatlift --truncation 4", "groebner --truncation 4",
    "schubert --truncation 4", "groebner --seed 1"])
def test_flags_a_subcommand_would_ignore_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv.split())
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, target, error", [
    (["census", "--n", "4", "--s", "1"], "census", InvalidPoint),
    (["closure", "--s", "2"], "generization_lift", ConstructionFailed),
    (["charts", "--budget", "2"], "invariants", InvalidPoint),
    (["flatlift", "--budget", "1"], "flat_lift", Singular),
    (["groebner", "--s", "2"], "groebner", Singular),
    (["schubert", "--n", "4", "--s", "1"], "_shifted_cell", ConstructionFailed),
])
def test_fault_inside_a_check_exits_1(monkeypatch, capsys, argv, target,
                                      error):
    def fault(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(cli, target, fault)
    code, out, err = _run(argv, capsys)
    report = json.loads(out)
    assert code == 1 and report["failures"] >= 1
    assert report["fault"] == {"exception": error.__name__,
                               "message": "forced"}
    assert err.startswith(error.__name__)


def test_census_over_budget_exits_2(capsys):
    code, out, err = _run(["census", "--budget", "100"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("BudgetExceeded")
