from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import PHI_REF, gamma1_closed, gamma3_closed, random_instance
from verialloc.distributions import make_power, make_uniform
from verialloc.envelope import CASE_AUD_ALLO, ProblemInstance, partition
from verialloc.interim import merit_with_guarantee
from verialloc import envelope, optimizer
from verialloc.optimizer import baseline_payoffs, foc_residual, payoff, solve


def quadrature_payoff(phi, inst):
    """Independent oracle: direct quadrature of n * P(t) * t * f(t)."""
    rules = merit_with_guarantee(phi, inst)
    total = 0.0
    for iv in rules.partition.intervals:
        piece, _ = quad(lambda t: rules.P(t) * t * inst.dist.pdf(t),
                        iv.lo, iv.hi, epsabs=1e-12, limit=200)
        total += piece
    return inst.n * total


def monte_carlo_ktop(inst, trials=1_000_000, seed=2024):
    """MC oracle for the audit-the-top-k baseline payoff."""
    rng = np.random.default_rng(seed)
    types = np.asarray(inst.dist.quantile(rng.random((trials, inst.n))))
    order = np.argsort(-types, axis=1)
    top = np.take_along_axis(types, order[:, : inst.k], axis=1).sum(axis=1)
    rest = types.sum(axis=1) - top
    share = (inst.m - inst.k) / (inst.n - inst.k)
    return float(np.mean(top + share * rest))


class TestPayoff:
    def test_reference_value(self, ex_inst):
        assert payoff(PHI_REF, ex_inst) == pytest.approx(1.223, abs=1e-3)

    def test_matches_quadrature_oracle(self, ex_inst):
        for phi in (0.34, PHI_REF, 0.42, 0.55):
            assert payoff(phi, ex_inst) == pytest.approx(
                quadrature_payoff(phi, ex_inst), abs=1e-8
            )

    def test_pure_guarantee_is_random_lottery(self, ex_inst):
        # at phi = m/n every type receives with probability m/n
        assert payoff(2 / 3, ex_inst) == pytest.approx(1.0, abs=1e-10)

    def test_floor_is_dominated(self, ex_inst, ex_solved):
        assert payoff(1 / 3, ex_inst) < ex_solved.payoff


class TestFocResidual:
    def test_reference_root(self, ex_inst):
        assert abs(foc_residual(PHI_REF, ex_inst)) <= 1e-4

    def test_uniform_reduction_identity(self, ex_inst):
        # with gamma1 = gamma2 and uniform types the condition reads
        # gamma1 = gamma3 (1 - gamma3) + gamma3^2 / 2; applies while the
        # audit region is nonempty (phi below the case boundary ~0.356)
        for phi in (0.34, PHI_REF, 0.35):
            assert partition(phi, ex_inst).case_tag == "IcAudAllo"
            g1, g3 = gamma1_closed(phi), gamma3_closed(phi)
            expected = g1 - (g3 * (1 - g3) + g3**2 / 2)
            assert foc_residual(phi, ex_inst) == pytest.approx(expected, abs=1e-9)

    def test_case1_signals(self, ex_inst):
        with pytest.raises(ValueError):
            foc_residual(0.2, ex_inst)

    def test_empty_audit_region_positive(self, ex_inst):
        # case-3 partitions reduce the condition to gamma1 F(gamma1) minus
        # the truncated mean, which is positive for gamma1 > 0
        part = partition(0.6, ex_inst)
        assert part.gamma2 == part.gamma3
        assert foc_residual(0.6, ex_inst) > 0


class TestFocSlope:
    @pytest.mark.parametrize("n,m,k,alpha", [(3, 2, 1, 1.0), (12, 6, 2, 0.3), (8, 4, 2, 2.0),
                                             (5, 3, 1, 4.0)])
    def test_closed_form_slope_and_polished_roots(self, n, m, k, alpha):
        # the closed-form dR/dphi against a centred difference of
        # foc_residual at interior guarantees with and without an audit
        # region, each difference taken within one case so that no cutoff
        # changes the crossing it is; then every polished root is one to
        # rounding: |R| <= the polish's g_tol, 0, or R changes sign within
        # 4 ulps
        inst = ProblemInstance(n, m, k, make_uniform() if alpha == 1.0 else make_power(alpha))
        lo, hi = inst.phi_floor, inst.phi_max
        h = 1e-6 * (hi - lo)
        phis = np.linspace(lo, hi, 25)[1:-1]
        _, crossings, g = envelope._cutoffs(phis, inst)
        slopes = optimizer._foc_slopes(g, envelope._cutoff_slopes(crossings, inst), inst)
        cases = set()
        for phi, slope in zip(phis.tolist(), slopes.tolist()):
            case = partition(phi, inst).case_tag
            if {partition(phi - h, inst).case_tag, partition(phi + h, inst).case_tag} != {case}:
                continue
            cases.add(case)
            diff = (foc_residual(phi + h, inst) - foc_residual(phi - h, inst)) / (2 * h)
            assert slope == pytest.approx(diff, rel=1e-6), (phi, case)
        assert cases == {"IcAudAllo", "IcAllo"}
        roots = [c.phi for c in solve(inst).candidates if c.source == "foc-root"]
        assert roots
        for root in roots:
            near = [foc_residual(root + j * np.spacing(root), inst) for j in (-4, 0, 4)]
            assert near[1] == 0.0 or near[0] * near[2] <= 0.0, (root, near)


class TestSolve:
    def test_reference_instance(self, ex_solved):
        assert ex_solved.phi_star == pytest.approx(PHI_REF, abs=1e-4)
        assert ex_solved.payoff == pytest.approx(1.223, abs=1e-3)
        assert abs(ex_solved.foc_residual) <= 1e-8
        assert ex_solved.partition.gamma2 < ex_solved.partition.gamma3

    def test_baselines(self, ex_solved):
        assert ex_solved.baselines["first_best"] == pytest.approx(1.25, abs=1e-9)
        assert ex_solved.baselines["random_lottery"] == pytest.approx(1.0, abs=1e-12)
        assert 1.0 < ex_solved.baselines["k_top"] < ex_solved.payoff

    def test_payoff_between_baselines(self, ex_solved):
        assert ex_solved.payoff >= ex_solved.baselines["random_lottery"]
        assert ex_solved.payoff >= ex_solved.baselines["k_top"]
        assert ex_solved.payoff <= ex_solved.baselines["first_best"]

    def test_candidate_sources(self, ex_solved):
        sources = {c.source for c in ex_solved.candidates}
        assert "endpoint" in sources and "foc-root" in sources
        phis = [c.phi for c in ex_solved.candidates]
        assert phis == sorted(phis)

    def test_phi_star_at_least_floor(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            inst = random_instance(rng, n_max=8)
            rep = solve(inst)
            assert rep.phi_star >= inst.phi_floor - 1e-12
            assert rep.phi_star <= inst.phi_max + 1e-12
            assert rep.partition.gamma2 < rep.partition.gamma3

    def test_global_argmax_sanity(self, ex_inst, ex_solved):
        rng = np.random.default_rng(23)
        lo, hi = ex_inst.phi_floor, ex_inst.phi_max
        for phi in rng.uniform(lo, hi, size=100):
            assert ex_solved.payoff >= payoff(float(phi), ex_inst) - 1e-9

    def test_stationary_at_optimum(self, ex_inst, ex_solved):
        h = 1e-4
        star = ex_solved.phi_star
        dU = (payoff(star + h, ex_inst) - payoff(star - h, ex_inst)) / (2 * h)
        assert abs(dU) <= 1e-5

    def test_power_distribution_instance(self):
        inst = ProblemInstance(10, 5, 2, make_power(2.0))
        rep = solve(inst)
        assert inst.phi_floor <= rep.phi_star <= inst.phi_max
        assert rep.payoff >= rep.baselines["random_lottery"] - 1e-9
        assert rep.payoff <= rep.baselines["first_best"] + 1e-9

    def test_corner_optimum_at_guarantee_floor(self):
        # with m close to n the payoff decreases over the whole admissible
        # range and the optimum sits at phi = (m-k)/n; the partition there
        # is the audit-supply structure, whose audit region starts at 0
        inst = ProblemInstance(29, 28, 4, make_power(0.5))
        rep = solve(inst)
        assert rep.phi_star == pytest.approx(inst.phi_floor, abs=1e-12)
        assert rep.partition.case_tag == CASE_AUD_ALLO
        assert rep.partition.gamma2 < rep.partition.gamma3
        assert rep.payoff >= rep.baselines["k_top"] - 1e-9

    def test_report_serializable(self, ex_solved):
        import json

        rec = ex_solved.to_record()
        text = json.dumps(rec, sort_keys=True)
        assert "phi_star" in rec and "baselines" in rec
        assert json.loads(text)["partition"]["case"] == "IcAudAllo"

    def test_stats_count_the_work(self, ex_solved, ex_inst):
        # the curve table, 200 grid points and the probe above the floor, the
        # polish iterations (23 Newton rounds of the crossings and 3 Newton
        # steps of the single FOC root), and the quadrature nodes of every
        # batched FOC and payoff pass, the cross-check's zoom included.  These
        # are exact work counts, not bounds; a second solve repeats them
        assert ex_solved.stats == {"curve_points": 354, "foc_grid": 200, "foc_roots": 1,
                                   "polish_iterations": 26, "quadrature_nodes": 20032}
        assert solve(ex_inst).stats == ex_solved.stats
        assert "stats" not in ex_solved.to_record()

    def test_assembles_only_the_reported_partition(self, ex_inst):
        with mock.patch.object(envelope, "_assemble", wraps=envelope._assemble) as spy:
            rep = solve(ex_inst)
        assert spy.call_count == 1
        assert rep.partition == partition(rep.phi_star, ex_inst)

    @pytest.mark.parametrize("grid", [0, 1])
    def test_grid_below_two_rejected(self, ex_inst, grid):
        with pytest.raises(ValueError, match=f"grid must be at least 2, got {grid}"):
            solve(ex_inst, grid=grid)

    @pytest.mark.parametrize("n,m,k", [(3, 2, 1), (7, 6, 1)])
    def test_missed_root_is_caught(self, n, m, k, uniform, monkeypatch):
        # a polish that loses the bracketed FOC root leaves only the
        # endpoints, and the payoff near the grid's best point beats them;
        # at (7, 6, 1) the root sits 1.5e-4 above the floor, inside the
        # first grid cell, where only the zoom sees the peak
        polish = optimizer._newton_roots
        monkeypatch.setattr(optimizer, "_newton_roots",
                            lambda *args: (polish(*args)[0][:0], 0))
        with pytest.raises(RuntimeError, match="root was missed"):
            solve(ProblemInstance(n, m, k, uniform))


class TestBaselines:
    def test_ktop_against_monte_carlo(self, ex_inst):
        analytic = baseline_payoffs(ex_inst)["k_top"]
        assert analytic == pytest.approx(1.125, abs=1e-9)  # closed form
        mc = monte_carlo_ktop(ex_inst)
        assert analytic == pytest.approx(mc, abs=3e-3)  # ~3 MC standard errors

    def test_first_best_against_monte_carlo(self, ex_inst):
        rng = np.random.default_rng(4)
        types = rng.random((1_000_000, 3))
        mc = float(np.mean(np.sort(types, axis=1)[:, 1:].sum(axis=1)))
        assert baseline_payoffs(ex_inst)["first_best"] == pytest.approx(mc, abs=3e-3)
