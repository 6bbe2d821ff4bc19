"""Tests of the benchmark itself: every output check fails on a corrupted
output, the tracer survives missing entry points and repeats its counts,
and BENCHMARK.json lists what the harness reports.

    python3 -m pytest bench
"""

import dataclasses
import json
import time
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracer as tracing
import verialloc as lib
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _has(fails, text):
    return any(text in f for f in fails)


# -- solve -------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved():
    spec = (3, 2, 1, 1.0)
    rep = lib.solve(workloads.make_instance(lib, *spec))
    return checks.SolveChecker([spec]), rep


def test_solve_output_passes(solved):
    checker, rep = solved
    assert checker([rep]) == []


def test_solve_wrong_payoff_fails(solved):
    checker, rep = solved
    fails = checker([dataclasses.replace(rep, payoff=rep.payoff + 1e-6)])
    assert _has(fails, "integrated from the reported intervals")


def test_solve_wrong_baseline_fails(solved):
    checker, rep = solved
    bad = dict(rep.baselines, k_top=rep.baselines["k_top"] + 1e-7)
    assert _has(checker([dataclasses.replace(rep, baselines=bad)]), "baseline k_top")


def test_solve_wrong_label_fails(solved):
    checker, rep = solved
    ivs = list(rep.partition.intervals)
    ivs[0] = dataclasses.replace(ivs[0], label="allo")
    part = dataclasses.replace(rep.partition, intervals=tuple(ivs))
    assert _has(checker([dataclasses.replace(rep, partition=part)]), "labelled 'allo'")


def test_solve_phi_out_of_range_fails(solved):
    checker, rep = solved
    assert _has(checker([dataclasses.replace(rep, phi_star=0.9)]), "outside [(m-k)/n, m/n]")


def test_solve_payoff_above_first_best_fails(solved):
    checker, rep = solved
    bad = dataclasses.replace(rep, payoff=rep.baselines["first_best"] + 0.01)
    assert _has(checker([bad]), "outside [k_top, first_best]")


def test_solve_off_paper_value_fails(solved):
    checker, rep = solved
    bad = dataclasses.replace(rep, phi_star=rep.phi_star + 3e-4)
    assert _has(checker([bad]), "paper has")


def test_solve_suboptimal_phi_fails(solved):
    checker, rep = solved
    inst = workloads.make_instance(lib, 3, 2, 1, 1.0)
    phi = inst.phi_floor
    part = lib.partition(phi, inst)
    bad = dataclasses.replace(rep, phi_star=phi, payoff=lib.payoff(phi, inst, part),
                              partition=part)
    fails = checker([bad])
    assert _has(fails, "> U*")
    assert not _has(fails, "integrated from the reported intervals")


# -- simulate ----------------------------------------------------------------

@pytest.fixture(scope="module")
def simulated():
    spec, trials = (3, 2, 1, 1.0), 20_000
    inst = workloads.make_instance(lib, *spec)
    rep = lib.simulate(inst, workloads.PHI_PAPER, trials, 11)
    return checks.SimulateChecker(spec, workloads.PHI_PAPER, trials), rep


def test_simulate_output_passes(simulated):
    checker, rep = simulated
    assert checker(rep) == []


def test_simulate_shifted_bins_fail(simulated):
    checker, rep = simulated
    p_hat = rep.p_hat.copy()
    p_hat[10:20] += 0.1
    assert _has(checker(dataclasses.replace(rep, p_hat=p_hat)), "within 3 se")


def test_simulate_audit_above_allocation_fails(simulated):
    checker, rep = simulated
    a_hat = rep.a_hat.copy()
    a_hat[40] = rep.p_hat[40] + 0.001
    assert _has(checker(dataclasses.replace(rep, a_hat=a_hat)), "A-hat above P-hat")


def test_simulate_over_allocation_fails(simulated):
    checker, rep = simulated
    fails = checker(dataclasses.replace(rep, p_hat=np.ones_like(rep.p_hat)))
    assert _has(fails, "mean allocations per profile")


def test_simulate_over_audit_and_lost_draws_fail(simulated):
    checker, rep = simulated
    draws = rep.draws.copy()
    draws[0] -= 1
    fails = checker(dataclasses.replace(rep, a_hat=rep.p_hat.copy(), draws=draws))
    assert _has(fails, "mean audits per profile") and _has(fails, "draws sum to")


def test_simulate_violations_and_payoff_fail(simulated):
    checker, rep = simulated
    fails = checker(dataclasses.replace(rep, capacity_violations=1,
                                        payoff_total=rep.payoff_total + 0.1))
    assert _has(fails, "capacity violations") and _has(fails, "payoff_total")


# -- check-symmetric ---------------------------------------------------------

@pytest.fixture(scope="module")
def symmetric():
    inst = workloads.make_instance(lib, 3, 2, 1, 1.0)
    rules = lib.merit_with_guarantee(workloads.PHI_PAPER, inst)
    disc, p_avg = lib.discretize_rules(inst, rules, 8)
    state = {"disc": disc, "p_avg": p_avg}
    return state, lib.check_interim_allocation(disc, p_avg)


def _with_alloc(verdict, alloc):
    return dataclasses.replace(verdict, expost=dataclasses.replace(verdict.expost, alloc=alloc))


def test_symmetric_output_passes(symmetric):
    state, verdict = symmetric
    assert checks.check_symmetric_failures(state, verdict) == []


def test_symmetric_perturbed_row_fails(symmetric):
    state, verdict = symmetric
    alloc = verdict.expost.alloc.copy()
    alloc[100, 1] += 1e-6
    assert _has(checks.check_symmetric_failures(state, _with_alloc(verdict, alloc)),
                "marginal differs")


def test_symmetric_overfull_row_fails(symmetric):
    state, verdict = symmetric
    alloc = verdict.expost.alloc.copy()
    alloc[-1] = 1.0
    assert _has(checks.check_symmetric_failures(state, _with_alloc(verdict, alloc)),
                "> h = 2")


def test_symmetric_negative_entry_fails(symmetric):
    state, verdict = symmetric
    alloc = verdict.expost.alloc.copy()
    alloc[0, 0] = -0.1
    assert _has(checks.check_symmetric_failures(state, _with_alloc(verdict, alloc)),
                "outside [0, 1]")


def test_symmetric_verdict_flip_fails(symmetric):
    state, verdict = symmetric
    assert checks.check_symmetric_failures(state, dataclasses.replace(verdict, feasible=False))


# -- check-audit -------------------------------------------------------------

@pytest.fixture(scope="module")
def audit():
    state = workloads.setup_check_audit(lib, 0)
    return state, workloads.op_check_audit(lib, state, 0)


def test_audit_output_passes(audit):
    state, verdicts = audit
    assert checks.check_audit_failures(state, verdicts) == []


def test_audit_ineligible_allocation_fails(audit):
    state, (feasible, infeasible) = audit
    alloc = feasible.expost.alloc.copy()
    pid, agent = np.argwhere(~state["p_merit"])[0]
    alloc[pid, agent] = 0.1
    fails = checks.check_audit_failures(state, (_with_alloc(feasible, alloc), infeasible))
    assert _has(fails, "ineligible agents")


def test_audit_shrunken_violated_set_fails(audit):
    state, (feasible, infeasible) = audit
    vset = infeasible.violating_set
    shrunk = dataclasses.replace(vset, check_set=tuple(frozenset() for _ in vset.check_set))
    fails = checks.check_audit_failures(
        state, (feasible, dataclasses.replace(infeasible, violating_set=shrunk)))
    assert _has(fails, "does not violate")


def test_audit_wrong_reported_sides_fail(audit):
    state, (feasible, infeasible) = audit
    vset = dataclasses.replace(infeasible.violating_set, rhs=infeasible.violating_set.rhs - 0.01)
    fails = checks.check_audit_failures(
        state, (feasible, dataclasses.replace(infeasible, violating_set=vset)))
    assert _has(fails, "reported sides")


# -- tracer ------------------------------------------------------------------

def test_tracer_patches_from_imports_and_restores():
    from verialloc import envelope, optimizer, simulation

    original = envelope.partition
    tr = tracing.Tracer()
    tr.install()
    try:
        assert optimizer.partition is envelope.partition is simulation.partition
        assert optimizer.partition is not original
        assert tr.absent == []
    finally:
        tr.uninstall()
    assert optimizer.partition is original and envelope.partition is original


def test_tracer_reports_missing_entry_points_absent(monkeypatch):
    from verialloc import simulation

    monkeypatch.delattr(simulation, "calibrate_lottery")
    monkeypatch.delattr(simulation, "calibrate_audit")
    tr = tracing.Tracer()
    tr.install()
    try:
        assert "simulation.calibrate_lottery" in tr.absent
        assert tr.absent_metrics() == {"simulation.calibrate.self_s"}
    finally:
        tr.uninstall()


def test_tracer_counts_repeat_and_self_time_nests(audit):
    state, _ = audit
    tr = tracing.Tracer()
    tr.install()
    try:
        snaps = []
        for _ in range(2):
            tr.reset()
            tr.recording = True
            workloads.op_check_audit(lib, state, 1)
            snaps.append(tr.snapshot())
    finally:
        tr.uninstall()
    assert snaps[0]["calls"] == snaps[1]["calls"]
    assert snaps[0]["counts"] == snaps[1]["counts"]
    assert snaps[0]["counts"]["maxflow.phases"] > 0
    spans = tr.spans()
    top = [i for i, p in enumerate(spans["parent"]) if p < 0]
    covered = sum(spans["end"][i] - spans["start"][i] for i in top)
    assert sum(s for snap in snaps for s in snap["self_s"].values()) == pytest.approx(
        covered, rel=1e-6)


# -- harness -----------------------------------------------------------------

def test_benchmark_json_matches_harness():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "op_loops", "peak_rss_mb"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER]


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_sampler_nets_out_its_samples():
    import hostspeed

    def busy(seconds=0.3):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            pass
        return "done"

    sampler = hostspeed.Sampler()
    out, net, mean = sampler.run(busy)
    assert out == "done"
    assert len(sampler.samples) >= 5  # one before, the rest inside
    assert sampler.inside_s > 0
    assert net == pytest.approx(0.3 - sampler.inside_s, abs=0.02)
    assert mean == pytest.approx(sum(sampler.samples) / len(sampler.samples))

    before_after = hostspeed.Sampler(None)
    out, net, mean = before_after.run(busy)
    assert len(before_after.samples) == 2 and before_after.inside_s == 0
    assert net == pytest.approx(0.3, abs=0.02)
