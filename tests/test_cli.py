import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import verialloc
from verialloc.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_reference_instance(self, capsys):
        code, out, _ = run(capsys, ["solve", "--n", "3", "--m", "2", "--k", "1"])
        assert code == 0
        fields = dict(
            line.split(None, 1) for line in out.splitlines()
            if line and not line.startswith(("candidates", " "))
        )
        assert float(fields["phi_star"]) == pytest.approx(0.34764, abs=1e-4)
        assert float(fields["payoff"]) == pytest.approx(1.223, abs=1e-3)
        assert float(fields["first_best"]) == pytest.approx(1.25, abs=1e-9)
        assert float(fields["random_lottery"]) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_instance_rejected(self, capsys):
        code, _, err = run(capsys, ["solve", "--n", "3", "--m", "2", "--k", "2"])
        assert code == 1
        assert "k < m" in err

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_grid_below_two_rejected(self, capsys, grid):
        code, _, err = run(capsys, ["solve", "--n", "3", "--m", "2", "--k", "1",
                                    "--grid", grid])
        assert code == 1
        assert err.startswith(f"error: grid must be at least 2, got {grid}")

    def test_power_distribution(self, capsys):
        code, out, _ = run(capsys, [
            "solve", "--n", "10", "--m", "5", "--k", "2", "--dist", "power:2",
        ])
        assert code == 0
        phi = float(next(l.split()[1] for l in out.splitlines()
                         if l.startswith("phi_star")))
        assert 0.3 <= phi <= 0.5

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(capsys, [
            "solve", "--n", "3", "--m", "2", "--k", "1",
            "--format", "json", "--out", str(path),
        ])
        assert code == 0
        record = json.loads(path.read_text())
        assert record["partition"]["case"] == "IcAudAllo"
        assert record["baselines"]["k_top"] == pytest.approx(1.125, abs=1e-9)

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, [
            "solve", "--n", "3", "--m", "2", "--k", "1", "--format", "csv",
        ])
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
        assert float(rows["phi_star"]) == pytest.approx(0.34764, abs=1e-4)
        assert float(rows["baselines.first_best"]) == pytest.approx(1.25, abs=1e-9)


class TestSimulateCommand:
    def test_small_run(self, capsys, tmp_path):
        csv_path = tmp_path / "bins.csv"
        code, out, _ = run(capsys, [
            "simulate", "--n", "3", "--m", "2", "--k", "1",
            "--trials", "40000", "--seed", "5", "--bins", "16",
            "--csv", str(csv_path),
        ])
        assert code == 0
        assert "capacity_violations   0" in out
        assert csv_path.exists()
        assert len(csv_path.read_text().strip().splitlines()) == 17

    def test_zero_trials(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--n", "3", "--m", "2", "--k", "1", "--trials", "0",
        ])
        assert code == 0
        assert "trials                0" in out

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bins_below_one_rejected(self, capsys, bins):
        code, _, err = run(capsys, ["simulate", "--n", "3", "--m", "2", "--k", "1",
                                    "--trials", "100", "--bins", bins])
        assert code == 1
        assert err.startswith(f"error: bins must be at least 1, got {bins}")

    def test_epic_witness_flag(self, capsys):
        code, out, _ = run(capsys, [
            "simulate", "--n", "3", "--m", "2", "--k", "1",
            "--trials", "0", "--epic-witness",
        ])
        assert code == 0
        assert "audit-escape probability >= 0.5" in out

    def test_unreachable_audit_target_exits_3(self, capsys):
        code, _, err = run(capsys, [
            "simulate", "--n", "3", "--m", "2", "--k", "1", "--phi", "0.6",
            "--trials", "20000", "--seed", "1",
        ])
        assert code == 3
        assert "audit target unreachable in type bin [0.828125, 0.84375)" in err
        assert "forced-audit rate 0.6875" in err and "audit target 0.3732" in err

    def test_audit_target_total_out_of_reach_exits_3_at_once(self, capsys):
        # at (4,2,1) and phi = 0.35 the audit targets sum to fewer audits
        # than the stage makes at any weights; the fit says so at its first
        # evaluation instead of running out its iterations
        start = time.perf_counter()
        code, _, err = run(capsys, [
            "simulate", "--n", "4", "--m", "2", "--k", "1", "--phi", "0.35",
            "--trials", "20000", "--seed", "1",
        ])
        assert code == 3
        assert "audit target unreachable: the stage hits 0.687591 agents" in err
        assert "ask for 0.6; no weights move this total" in err
        assert time.perf_counter() - start < 0.5


class TestCheckCommand:
    def test_bundled_counterexample_infeasible(self, capsys):
        code, out, _ = run(capsys, ["check"])
        assert code == 2
        assert "feasible         False" in out
        assert "[[0], [1]]" in out
        assert "0.375" in out and "0.25" in out

    def test_bundled_upper_sets_pass(self, capsys):
        code, out, _ = run(capsys, ["check", "--upper-sets-only"])
        assert code == 0
        assert "upper sets hold  True" in out

    def test_feasible_rule_with_expost(self, capsys, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"P": [[0.25, 0.25], [0.25, 0.25]]}))
        out_path = tmp_path / "expost.json"
        code, out, _ = run(capsys, [
            "check", "--rules", str(rules), "--expost-out", str(out_path),
        ])
        assert code == 0
        assert "feasible         True" in out
        rows = json.loads(out_path.read_text())
        assert len(rows) == 4

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["check", "--instance", "/nonexistent.json"])
        assert code == 1

    def test_custom_instance_file(self, capsys, tmp_path):
        instance = {
            "grids": [[0.2, 0.8]],
            "masses": [[0.5, 0.5]],
            "capacity": {"default": 1, "entries": []},
            "eligible": {"default": "all", "entries": []},
        }
        rules = {"P": [[0.5, 0.5]]}
        ipath = tmp_path / "inst.json"
        rpath = tmp_path / "rules.json"
        ipath.write_text(json.dumps(instance))
        rpath.write_text(json.dumps(rules))
        code, out, _ = run(capsys, [
            "check", "--instance", str(ipath), "--rules", str(rpath),
        ])
        assert code == 0


    @pytest.mark.parametrize("option,data,key", [
        ("--rules", {"Q": [[0.5, 0.5]]}, '"P"'),
        ("--rules", [[0.5, 0.5]], '"P"'),
        ("--rules", {"P": [["half", 0.5], [0.25, 0.25]]}, '"P"'),
        ("--rules", {"P": [0.5, 0.5]}, '"P"'),
        ("--instance", {"masses": [[0.5, 0.5]]}, '"grids"'),
        ("--instance", [[0.2, 0.8]], '"grids"'),
        # bad values under keys that are present
        ("--instance", {"grids": [[None, 0.8]], "masses": [[0.5, 0.5]]}, '"grids"'),
        ("--instance", {"grids": [[0.2, 0.8]], "masses": [[0.5, 0.5]],
                        "capacity": {"default": 1, "entries": [{"profile": [0]}]}}, '"capacity"'),
        ("--instance", {"grids": [[0.2, 0.8]], "masses": [[0.5, 0.5]], "capacity": [1]},
         '"capacity"'),
    ])
    def test_malformed_file_is_invalid_input(self, capsys, tmp_path, option, data, key):
        # one error line naming the key, exit 1, no traceback
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, ["check", option, str(path)])
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and key in err
        assert "Traceback" not in err

class TestPlotDataCommand:
    def test_envelope_and_rules_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "fig")
        code, out, _ = run(capsys, [
            "plot-data", "--n", "3", "--m", "2", "--k", "1",
            "--grid", "51", "--prefix", prefix,
        ])
        assert code == 0
        constraints = (tmp_path / "fig_constraints.csv").read_text().splitlines()
        assert constraints[0] == "q,c_allo,c_aud,c_ic,envelope,binding"
        first = constraints[1].split(",")
        assert float(first[0]) == 0.0 and float(first[4]) == 2.0
        last = constraints[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[4]) == 0.0
        rules = (tmp_path / "fig_rules.csv").read_text().splitlines()
        assert rules[0] == "t,P,A"
        assert len(rules) == 52

    def test_binding_column_tracks_regions(self, capsys, tmp_path):
        prefix = str(tmp_path / "fig")
        code, _, _ = run(capsys, [
            "plot-data", "--n", "3", "--m", "2", "--k", "1",
            "--phi", "0.34764", "--grid", "101", "--prefix", prefix,
        ])
        assert code == 0
        rows = [r.split(",") for r in
                (tmp_path / "fig_constraints.csv").read_text().splitlines()[1:]]
        gamma1 = 0.3501224
        for row in rows:
            q = float(row[0])
            if q < gamma1 - 0.01:
                assert row[5] == "ic"


class TestSweepCommand:
    def test_single_cell_matches_solve(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--n", "3", "--m", "2", "--k", "1", "--format", "csv",
        ])
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 2
        cells = rows[1].split(",")
        assert float(cells[4]) == pytest.approx(0.34764, abs=1e-4)

    def test_payoff_monotone_in_k(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--n", "6", "--m", "4", "--k", "1,2,3", "--format", "json",
        ])
        assert code == 0
        rows = json.loads(out)
        payoffs = [r["payoff"] for r in sorted(rows, key=lambda r: r["k"])]
        assert payoffs == sorted(payoffs)

    def test_invalid_cell_marked_but_run_continues(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--n", "3", "--m", "2", "--k", "1,2", "--format", "json",
        ])
        assert code == 0
        rows = json.loads(out)
        by_k = {r["k"]: r for r in rows}
        assert by_k[1]["error"] == ""
        assert "k < m" in by_k[2]["error"]


class TestDeterminism:
    def test_identical_seed_identical_files(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for path in (out1, out2):
            code, _, _ = run(capsys, [
                "simulate", "--n", "3", "--m", "2", "--k", "1",
                "--trials", "30000", "--seed", "21", "--bins", "8",
                "--format", "json", "--out", str(path),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_config_file_overrides(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": 0, "epic_witness": True}))
    code, out, _ = run(capsys, [
        "--config", str(config),
        "simulate", "--n", "3", "--m", "2", "--k", "1", "--trials", "999",
    ])
    assert code == 0
    assert "trials                0" in out
    assert "audit-escape" in out


def test_commands_run_without_scipy():
    # with scipy blocked from import, solve, simulate at (3,2,1) and at
    # (4,2,1) with 64 bins, and check of the bundled (infeasible) example
    # exit as they do with it
    script = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from verialloc.cli import main
runs = [["solve", "--n", "3", "--m", "2", "--k", "1"],
        ["simulate", "--n", "3", "--m", "2", "--k", "1", "--trials", "500", "--seed", "1"],
        ["simulate", "--n", "4", "--m", "2", "--k", "1", "--trials", "500", "--seed", "1"],
        ["check"]]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(verialloc.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=env)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, 0, 0, 2]
