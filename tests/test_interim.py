import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_instance
from verialloc.distributions import make_power, make_uniform
from verialloc.envelope import ProblemInstance, envelope_value, partition
from verialloc.interim import (
    InterimRules,
    bic_slack,
    interim_integral,
    merit_with_guarantee,
)

PHI = 0.34764


@pytest.fixture(scope="module")
def ex_rules(ex_inst):
    return merit_with_guarantee(PHI, ex_inst)


class TestMeritWithGuarantee:
    def test_branch_values(self, ex_rules, ex_inst):
        part = ex_rules.partition
        # guarantee below the first cutoff
        assert ex_rules.P(0.5 * part.gamma1) == pytest.approx(PHI, abs=1e-12)
        # audit region: t^2 + phi for the reference instance
        assert ex_rules.P(0.4) == pytest.approx(0.4**2 + PHI, abs=1e-12)
        # supply region: 2t - t^2
        assert ex_rules.P(0.9) == pytest.approx(0.99, abs=1e-12)

    def test_audit_is_allocation_minus_phi(self, ex_rules):
        for t in np.linspace(0, 1, 101):
            t = float(t)
            assert ex_rules.A(t) == pytest.approx(ex_rules.P(t) - PHI, abs=1e-14)
            assert -1e-12 <= ex_rules.A(t) <= ex_rules.P(t) + 1e-12

    def test_monotone_and_floored(self, ex_rules):
        ts = np.linspace(0, 1, 2001)
        vals = np.array([ex_rules.P(float(t)) for t in ts])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(vals >= PHI - 1e-9)
        assert np.all(vals <= 1.0 + 1e-12)

    def test_right_continuous_at_cutoffs(self, ex_rules, ex_inst):
        part = ex_rules.partition
        eps = 1e-9
        # at gamma3 the supply branch applies (right-derivative convention)
        g3 = part.gamma3
        assert ex_rules.P(g3) == pytest.approx(2 * g3 - g3**2, abs=1e-9)
        assert ex_rules.P(g3 + eps) - ex_rules.P(g3) < 1e-6
        # at gamma1 the audit branch applies
        g1 = part.gamma1
        assert ex_rules.P(g1) == pytest.approx(g1**2 + PHI, abs=1e-9)

    def test_guarantee_attained_at_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            inst = random_instance(rng, n_max=12)
            phi = float(rng.uniform(inst.phi_floor, inst.phi_max))
            rules = merit_with_guarantee(phi, inst)
            assert rules.P(0.0) == pytest.approx(phi, abs=1e-12)


class TestInterimIntegral:
    def test_empty_upper_tail(self, ex_rules, ex_inst):
        assert interim_integral(ex_rules, ex_inst, 1.0) == 0.0

    def test_total_supply_bound(self, ex_rules, ex_inst):
        total = interim_integral(ex_rules, ex_inst, 0.0)
        assert total <= ex_inst.m + 1e-9
        # at this phi all objects are allocated: envelope value at q=0 is m
        assert total == pytest.approx(2.0, abs=1e-7)

    def test_matches_envelope_at_grid(self, ex_rules, ex_inst):
        for t in np.linspace(0, 1, 101):
            t = float(t)
            lhs = interim_integral(ex_rules, ex_inst, t)
            rhs, _ = envelope_value(float(ex_inst.dist.cdf(t)), PHI, ex_inst)
            assert abs(lhs - rhs) <= 1e-7

    def test_capped_by_each_constraint(self, ex_rules, ex_inst):
        from verialloc.envelope import c_allo, c_aud, c_ic

        part = ex_rules.partition
        for t in np.linspace(0, 1, 41):
            t = float(t)
            q = float(ex_inst.dist.cdf(t))
            lhs = interim_integral(ex_rules, ex_inst, t)
            assert lhs <= c_allo(q, ex_inst) + 1e-9
            assert lhs <= c_aud(q, PHI, ex_inst) + 1e-9
            assert lhs <= c_ic(q, PHI, ex_inst) + 1e-9
        # equality on the region where each constraint binds
        t_allo = 0.5 * (part.gamma3 + 1.0)
        assert interim_integral(ex_rules, ex_inst, t_allo) == pytest.approx(
            c_allo(t_allo, ex_inst), abs=1e-7
        )
        t_aud = 0.5 * (part.gamma2 + part.gamma3)
        assert interim_integral(ex_rules, ex_inst, t_aud) == pytest.approx(
            c_aud(t_aud, PHI, ex_inst), abs=1e-7
        )
        t_ic = 0.5 * part.gamma1
        assert interim_integral(ex_rules, ex_inst, t_ic) == pytest.approx(
            c_ic(t_ic, PHI, ex_inst), abs=1e-7
        )


class TestBicSlack:
    def test_merit_rules_bind(self, ex_rules):
        slack = bic_slack(ex_rules)
        for t in np.linspace(0, 1, 101):
            assert slack(float(t)) == pytest.approx(0.0, abs=1e-9)

    def test_over_auditing_has_positive_slack(self, ex_rules):
        rules = InterimRules(P=ex_rules.P, A=ex_rules.P, phi=PHI,
                             partition=ex_rules.partition)
        slack = bic_slack(rules)
        assert slack(0.2) == pytest.approx(PHI, abs=1e-6)
        assert min(slack(float(t)) for t in np.linspace(0, 1, 51)) >= PHI - 1e-6

    def test_never_auditing_violates(self, ex_rules):
        rules = InterimRules(P=ex_rules.P, A=lambda t: 0.0, phi=PHI,
                             partition=ex_rules.partition)
        slack = bic_slack(rules)
        assert min(slack(float(t)) for t in np.linspace(0, 1, 51)) < -0.1


def test_csv_export(tmp_path, ex_rules):
    path = tmp_path / "rules.csv"
    ex_rules.to_csv(path, grid=11)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,P,A"
    assert len(lines) == 12
    first = [float(x) for x in lines[1].split(",")]
    assert first == pytest.approx([0.0, PHI, 0.0], abs=1e-9)
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == 1.0
    assert last[1] == pytest.approx(1.0, abs=1e-9)


def test_sample_table_shape(ex_rules):
    table = ex_rules.sample_table(grid=101)
    assert table.shape == (101, 3)
    assert np.all(np.diff(table[:, 1]) >= -1e-12)


@pytest.mark.parametrize("alpha", [1.0, 0.3, 4.0])
def test_sample_table_is_the_pointwise_table(alpha):
    # merit rules get the whole grid at once and give the table that
    # point-by-point evaluation gives, bit for bit
    inst = ProblemInstance(12, 6, 2, make_uniform() if alpha == 1.0 else make_power(alpha))
    for phi in (0.34, 0.4, 0.45):
        rules = merit_with_guarantee(phi, inst)
        ts = np.linspace(0.0, 1.0, 1001)
        pointwise = [[t, float(rules.P(t)), float(rules.A(t))] for t in ts.tolist()]
        assert rules.sample_table(1001).tolist() == pointwise


def test_sample_table_takes_rules_of_floats_only():
    # math.sqrt refuses an array: such a rule is evaluated point by point
    rules = InterimRules(P=math.sqrt, A=lambda t: 0.5 * math.sqrt(t))
    table = rules.sample_table(grid=5)
    assert table.tolist() == [[t, math.sqrt(t), 0.5 * math.sqrt(t)]
                              for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
