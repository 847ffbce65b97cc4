"""End-to-end command-line checks through main(argv)."""

from __future__ import annotations

import subprocess
import sys

import pytest

from boolgossip import chain, cli


def test_classes_match_line(capsys):
    rc = cli.main(["classes", "--graph", "make:cycle:4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chi=5 (predicted) chi=5 (brute force) MATCH" in out
    assert "shape cycle" in out
    assert "class 1: 1 states, e.g. [0000]" in out


def test_classes_no_prediction_wording(capsys):
    rc = cli.main(["classes", "--graph", "make:line:3", "--rules", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no closed-form prediction" in out
    assert "(predicted)" not in out


def test_absorbing_verdict_and_agreement(capsys):
    rc = cli.main(["absorbing", "--graph", "make:cycle:4", "--rules", "1,7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("ABSORBING (")
    assert "brute force agrees" in out
    assert "absorbing states (2): 0000 1111" in out
    rc = cli.main(["absorbing", "--graph", "make:cycle:3", "--rules", "2,a"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("NOT ABSORBING (")
    assert "odd cycle is present" in out
    assert "brute force agrees" in out


@pytest.mark.parametrize("ruleset", ["4", "5", "4,5"])
def test_absorbing_reason_for_neighbour_copy_rules(capsys, ruleset):
    # These sets lie inside a stability family, yet the oracle rejects them
    # for copying the neighbour; the reason must name that branch.
    rc = cli.main(["absorbing", "--graph", "make:cycle:5", "--rules", ruleset])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith(
        "NOT ABSORBING (rules only copy the neighbour, so one dissenter never "
        "vanishes); brute force agrees"
    )


def test_absorb_prob_output(capsys, tmp_path):
    rc = cli.main(
        [
            "absorb-prob",
            "--graph",
            "make:cycle:4",
            "--rules",
            "1,7",
            "--start",
            "0101",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "start: 0101"
    assert lines[1].startswith("P[0000] = ")
    assert lines[2].startswith("P[1111] = ")
    total = float(lines[3].split("=")[1])
    assert abs(total - 1.0) <= 1e-9
    # --out diverts the report to a file.
    target = tmp_path / "dist.txt"
    rc = cli.main(
        [
            "absorb-prob",
            "--graph",
            "make:cycle:4",
            "--rules",
            "1,7",
            "--start",
            "0101",
            "--out",
            str(target),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines()[0] == "start: 0101"


def test_simulate_csv_and_seed(capsys, tmp_path):
    target = tmp_path / "density.csv"
    argv = [
        "simulate",
        "--graph",
        "make:cycle:4",
        "--rules",
        "1,7",
        "--start",
        "0101",
        "--horizon",
        "40",
        "--rounds",
        "50",
        "--seed",
        "5",
        "--out",
        str(target),
    ]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 0
    assert "seed: 5" in captured.err
    assert "consensus fraction:" in captured.err
    first = target.read_text()
    assert first.splitlines()[0] == "t,density,kind"
    assert ",empirical" in first.splitlines()[1]
    # Same seed, same bytes.
    rc = cli.main(argv)
    capsys.readouterr()
    assert rc == 0
    assert target.read_text() == first


def test_simulate_rejects_start_with_delta0(capsys):
    # Both start rules at once is an error, not a silent choice of --start.
    argv = ["simulate", "--graph", "make:cycle:4", "--rules", "1,7", "--horizon", "5"]
    rc = cli.main(argv + ["--start", "0101", "--delta0", "0.5", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: give exactly one of start and delta0" in captured.err
    assert captured.out == ""


def test_simulate_generates_seed(capsys):
    rc = cli.main(
        [
            "simulate",
            "--graph",
            "make:line:3",
            "--rules",
            "1,7",
            "--delta0",
            "0.5",
            "--horizon",
            "12",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err.startswith("seed: ")


def test_meanfield_csv(capsys):
    rc = cli.main(
        [
            "meanfield",
            "--n",
            "50",
            "--p-star",
            "0.4",
            "--delta0",
            "0.5",
            "--horizon",
            "10",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,density,kind"
    kinds = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert kinds == {"meanfield_closed", "meanfield_recursion"}
    assert lines[1].startswith("0,0.5,")


def test_sweep_rules_two_nodes(capsys):
    rc = cli.main(["sweep-rules", "--graph", "make:line:2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "65535 rule sets checked, mismatches: 0" in captured.err
    lines = captured.out.strip().splitlines()
    assert lines[0] == "rules,oracle,brute,match"
    assert len(lines) == 1 + 65535
    assert all(line.endswith(",1") for line in lines[1:])


def test_export_dot_modes(capsys):
    rc = cli.main(["export-dot", "--graph", "make:cycle:4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("graph G {")
    rc = cli.main(["export-dot", "--graph", "make:cycle:4", "--rules", "1,7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "doublecircle" in out


def test_export_dot_cap_checked_before_analysis(capsys, monkeypatch):
    # cycle(9) is one node past the diagram cap, so the command must refuse
    # it before the chain is analysed at all.
    def refuse(spec):
        raise AssertionError("analyze ran before the diagram cap check")

    monkeypatch.setattr(chain, "analyze", refuse)
    rc = cli.main(["export-dot", "--graph", "make:cycle:9", "--rules", "1,7"])
    assert rc == 2
    assert "exceeds the diagram cap of 8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["export-dot", "classes", "absorbing"])
def test_export_dot_rejects_probs(capsys, command):
    # The diagram, the classes and the absorbing verdict depend only on the
    # rule set's support, so these commands take no probabilities.
    argv = [command, "--graph", "make:cycle:4", "--rules", "1,7", "--probs", "0.3"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --probs 0.3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["classes", "--graph", "make:pentagon:5"],
        ["classes", "--graph", "/no/such/file"],
        ["classes", "--graph", "make:cycle"],
        ["classes", "--graph", "make:cycle:4", "--rules", "z"],
        ["absorbing", "--graph", "make:cycle:4"],
        ["absorb-prob", "--graph", "make:cycle:4", "--start", "0101"],
        ["simulate", "--graph", "make:cycle:4", "--delta0", "0.5", "--horizon", "5"],
        ["absorb-prob", "--graph", "make:cycle:4", "--rules", "1,7"],
        [
            "absorb-prob",
            "--graph",
            "make:cycle:4",
            "--rules",
            "1,7",
            "--start",
            "010",
        ],
        [
            "simulate",
            "--graph",
            "make:cycle:4",
            "--rules",
            "1,7",
            "--horizon",
            "5",
        ],
    ],
)
def test_error_paths_exit_2(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") or "error: " in captured.err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "boolgossip.cli", "classes", "--graph", "make:star:4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "chi=5 (predicted) chi=5 (brute force) MATCH" in proc.stdout
