import itertools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import merit_rule_on_grid, snapped_discretization
from verialloc import flows
from verialloc.distributions import cell_grid, make_power, make_uniform
from verialloc.envelope import LABEL_ALLO, LABEL_AUD, ProblemInstance
from verialloc.flows import (
    DiscreteInstance,
    audit_threshold_report,
    border_lhs,
    border_rhs,
    brute_force_verdict,
    check_feasible,
    check_interim_allocation,
    check_interim_audit,
    construct_expost,
    discretize_rules,
    make_check_set,
    upper_set_report,
)
from verialloc.interim import merit_with_guarantee
from verialloc.optimizer import solve


@pytest.fixture(scope="module")
def footnote():
    """Two agents, two iid 50/50 types; objects per profile:
    (lo,lo)->0, (lo,hi)->1, (hi,lo)->2, (hi,hi)->0."""
    return DiscreteInstance(
        grids=((0.0, 1.0), (0.0, 1.0)),
        masses=((0.5, 0.5), (0.5, 0.5)),
        capacity_default=0,
        capacity={(0, 1): 1, (1, 0): 2},
    )


FOOTNOTE_P = [[0.25, 0.25], [0.25, 0.5]]
# a realized rule reproduces max(P - TOLERANCE, 0); the rest is float rounding
MARGINAL_TOL = 1e-12
# marginals() rounds only its products, so on small instances a rule reads
# within TOLERANCE of P up to a few ulps
EXACT_READ_TOL = flows.TOLERANCE + 1e-15


class TestBorderSums:
    def test_footnote_rhs(self, footnote):
        E = make_check_set(footnote, [[0], [1]])
        assert border_rhs(footnote, E) == pytest.approx(0.25, abs=1e-12)

    def test_empty_set(self, footnote):
        E = make_check_set(footnote, [[], []])
        assert border_rhs(footnote, E) == 0.0

    def test_full_grid_supply_bound(self):
        inst = DiscreteInstance.symmetric(3, (0.2, 0.8), (0.5, 0.5), capacity=2)
        E = make_check_set(inst, [[0, 1]] * 3)
        # h = m everywhere and everyone eligible: E[min(n, m)] = m
        assert border_rhs(inst, E) == pytest.approx(2.0, abs=1e-12)

    def test_lhs(self, footnote):
        E = make_check_set(footnote, [[0], [1]])
        assert border_lhs(footnote, FOOTNOTE_P, E) == pytest.approx(0.375, abs=1e-12)

    def test_profile_cap(self):
        inst = DiscreteInstance.symmetric(3, tuple(np.linspace(0, 1, 8)),
                                          (0.125,) * 8, capacity=2)
        with pytest.raises(ValueError, match="profiles"):
            border_rhs(inst, make_check_set(inst, [[0]] * 3), max_profiles=100)


class TestFootnoteCounterexample:
    def test_infeasible_with_exact_witness(self, footnote):
        verdict = check_feasible(footnote, FOOTNOTE_P)
        assert not verdict.feasible
        v = verdict.violating_set
        assert v.check_set == (frozenset({0}), frozenset({1}))
        assert v.lhs == pytest.approx(0.375, abs=1e-12)
        assert v.rhs == pytest.approx(0.25, abs=1e-12)

    def test_upper_sets_all_hold(self, footnote):
        rep = upper_set_report(footnote, FOOTNOTE_P)
        assert rep["all_hold"]
        assert rep["slack"] >= 0.0

    def test_reduced_rule_feasible_with_exact_marginals(self, footnote):
        P = [[0.25, 0.25], [0.25, 0.25]]
        verdict = check_feasible(footnote, P)
        assert verdict.feasible
        marg = verdict.expost.marginals()
        for row, target in zip(marg, P):
            assert np.max(np.abs(row - np.array(target))) <= MARGINAL_TOL
        assert verdict.expost.max_violation() <= 1e-12

    def test_zero_rule(self, footnote):
        verdict = check_feasible(footnote, [[0.0, 0.0], [0.0, 0.0]])
        assert verdict.feasible
        assert float(verdict.expost.alloc.sum()) == 0.0

    @pytest.mark.parametrize("eps,feasible", [
        (-1e-6, True), (-1e-15, True), (0.0, True), (1e-15, True),
        (1e-10, False), (1e-6, False)])
    def test_demand_just_above_capacity_is_infeasible(self, eps, feasible):
        # two agents ask for 1 + eps of one object: an excess within the
        # tolerance 2^-40 passes, one of 1e-10 does not
        inst = DiscreteInstance(grids=((0.0,), (0.0,)), masses=((1.0,), (1.0,)),
                                capacity_default=1)
        P = [[0.5 + eps / 2]] * 2
        verdicts = [check_feasible(inst, P), check_interim_allocation(inst, P),
                    brute_force_verdict(inst, P)]
        assert [v.feasible for v in verdicts] == [feasible] * 3
        if not feasible:
            # each witness carries the given rule's exact sides
            for v in verdicts:
                assert v.violating_set.lhs == float(2 * Fraction(P[0][0]))
                assert v.violating_set.rhs == 1.0

    def test_json_round_trip(self, footnote, tmp_path):
        path = tmp_path / "instance.json"
        footnote.save(path)
        loaded = DiscreteInstance.load(path)
        assert loaded.grids == footnote.grids
        assert loaded.capacity == footnote.capacity
        v = check_feasible(loaded, FOOTNOTE_P)
        assert not v.feasible


def random_discrete_instance(rng):
    """Small random instance with <= 12 total grid points."""
    n = int(rng.integers(2, 4))
    sizes = [int(rng.integers(2, 4)) for _ in range(n)]
    while sum(sizes) > 12:
        sizes[int(rng.integers(0, n))] = 2
    grids, masses = [], []
    for s in sizes:
        grids.append(tuple(np.linspace(0, 1, s)))
        w = rng.integers(1, 5, size=s)
        masses.append(tuple(w / w.sum()))
    capacity = {}
    eligible = {}
    import itertools

    for prof in itertools.product(*(range(s) for s in sizes)):
        if rng.random() < 0.4:
            capacity[prof] = int(rng.integers(0, n))
        if rng.random() < 0.3:
            keep = [i for i in range(n) if rng.random() < 0.7]
            eligible[prof] = frozenset(keep)
    return DiscreteInstance(
        grids=tuple(grids), masses=tuple(masses),
        capacity_default=int(rng.integers(1, n + 1)),
        capacity=capacity, eligible=eligible,
    )


class TestFlowAgainstBruteForce:
    def test_agreement_on_random_instances(self):
        rng = np.random.default_rng(404)
        checked = 0
        infeasible_seen = 0
        while checked < 25:
            inst = random_discrete_instance(rng)
            P = [
                [float(np.round(rng.random() * rng.uniform(0.3, 1.0), 3))
                 for _ in range(s)]
                for s in inst.sizes
            ]
            flow = check_feasible(inst, P, want_expost=True)
            brute = brute_force_verdict(inst, P)
            assert flow.feasible == brute.feasible, (inst.to_json_dict(), P)
            if flow.feasible:
                marg = flow.expost.marginals()
                for row, target in zip(marg, P):
                    assert np.max(np.abs(row - np.array(target))) <= EXACT_READ_TOL
                assert flow.expost.max_violation() <= 1e-12
            else:
                infeasible_seen += 1
                v = flow.violating_set
                # recompute the witness independently
                lhs = border_lhs(inst, P, v.check_set)
                rhs = border_rhs(inst, v.check_set)
                assert lhs > rhs
                assert v.lhs == pytest.approx(lhs, abs=1e-15)
                assert v.rhs == pytest.approx(rhs, abs=1e-15)
            checked += 1
        assert infeasible_seen >= 5  # the family must exercise both verdicts


def exact_sides(inst, P, E):
    """(demand, supply) of check set E in exact fractions of the given
    floats, by enumeration of the profiles."""
    lhs = sum((Fraction(P[i][t]) * Fraction(inst.masses[i][t])
               for i, Ei in enumerate(E) for t in Ei), Fraction(0))
    rhs = Fraction(0)
    for prof in inst.profiles():
        hits = sum(1 for i in inst.J(prof) if prof[i] in E[i])
        rhs += math.prod(Fraction(inst.masses[i][t]) for i, t in enumerate(prof)) * min(
            hits, inst.h(prof))
    return lhs, rhs


def footprint(inst, prof):
    return inst.h(prof), tuple((i, prof[i]) for i in inst.J(prof))


@st.composite
def override_cases(draw):
    """Up to 3 agents and 14 grid points, random capacity and eligibility
    overrides (h = 0 and empty J among them), a rule in [0, 1] and a check
    set."""
    n = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 14 // n), min_size=n, max_size=n))
    masses = []
    for s in sizes:
        w = np.array(draw(st.lists(st.integers(1, 9), min_size=s, max_size=s)))
        masses.append(tuple((w / w.sum()).tolist()))
    capacity, eligible = {}, {}
    for prof in itertools.product(*(range(s) for s in sizes)):
        if draw(st.booleans()):
            capacity[prof] = draw(st.integers(0, n + 1))
        if draw(st.booleans()):
            eligible[prof] = frozenset(draw(st.sets(st.integers(0, n - 1))))
    inst = DiscreteInstance(grids=tuple(tuple(range(s)) for s in sizes),
                            masses=tuple(masses), capacity_default=draw(st.integers(0, n)),
                            capacity=capacity, eligible=eligible)
    scale = draw(st.sampled_from([0.25, 0.5, 1.0]))
    P = [[scale * draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0])) for _ in range(s)]
         for s in sizes]
    E = make_check_set(inst, [draw(st.sets(st.integers(0, s - 1))) for s in sizes])
    return inst, P, E


class TestFootprints:
    """The flow network with one row per footprint (h(t), J(t)'s types)."""

    @settings(max_examples=120, deadline=None)
    @given(case=override_cases())
    def test_flow_matches_brute_force(self, case):
        inst, P, E = case
        # brute force sums the supply over the same footprint rows; the
        # exact enumeration over profiles does not
        full = make_check_set(inst, [range(s) for s in inst.sizes])
        for check_set in (E, full):
            assert border_rhs(inst, check_set) == float(exact_sides(inst, P, check_set)[1])
        verdict = check_feasible(inst, P)
        assert verdict.feasible == brute_force_verdict(inst, P).feasible
        assert verdict.stats["path"] == "flow"
        if verdict.feasible:
            rule = verdict.expost
            assert rule.max_violation() <= 1e-12
            for row, target in zip(rule.marginals(), P):
                assert np.max(np.abs(row - np.array(target))) <= EXACT_READ_TOL
            rows = {}
            for pid, prof in enumerate(inst.profiles()):
                row = rows.setdefault(footprint(inst, prof), rule.alloc[pid])
                assert np.array_equal(rule.alloc[pid], row)
        else:
            v = verdict.violating_set
            lhs, rhs = exact_sides(inst, P, v.check_set)
            assert lhs > rhs
            assert (v.lhs, v.rhs) == (float(lhs), float(rhs))

    def test_profile_arrays_match_h_and_J(self):
        inst = random_discrete_instance(np.random.default_rng(7))
        h, J = inst.profile_arrays()
        for pid, prof in enumerate(inst.profiles()):
            assert h[pid] == min(inst.h(prof), inst.n_agents)
            assert np.flatnonzero(J[pid]).tolist() == list(inst.J(prof))

    def test_stats_name_the_path(self, footnote):
        flow = check_feasible(footnote, [[0.25, 0.25], [0.25, 0.25]])
        # four profiles, four distinct footprints: 4 source arcs, 4 demand
        # arcs and one arc per eligible agent of each profile
        assert flow.stats == {"path": "flow", "profiles": 4, "rows": 4, "arcs": 16}
        inst = DiscreteInstance.symmetric(2, (0.2, 0.8), (0.5, 0.5), capacity=1)
        assert check_interim_allocation(inst, [0.2, 0.6]).stats == {
            "path": "pooled", "profiles": 4, "rules": 3, "pools": 2}
        for p, construct in (([0.2, 0.6], False), ([0.9, 0.9], True)):
            verdict = check_interim_allocation(inst, p, construct=construct)
            assert verdict.stats == {"path": "screen", "profiles": 4}
        assert brute_force_verdict(inst, [[0.2, 0.6]] * 2).stats == {}

    @pytest.mark.parametrize("field,table,message", [
        ("capacity", {(0, 0): 1, (0, 1, 0): 1}, r"profile key \(0, 1, 0\) has wrong length"),
        ("capacity", {(0, 0): 1, (1, 2): 1}, r"profile key \(1, 2\) out of range for agent 1"),
        ("eligible", {(-1, 0): {0}}, r"profile key \(-1, 0\) out of range for agent 0"),
        ("eligible", {(1, 0.5): {0}}, r"profile key \(1, 0.5\) out of range for agent 1"),
        ("capacity", {(0, 0): 1, (1, 0): 1.5}, r"capacity override 1.5 at \(1, 0\) is not"),
        ("capacity", {(1, 1): -1}, r"capacity override -1 at \(1, 1\) is not"),
        ("eligible", {(0, 0): {0}, (1, 1): {0, 2}},
         r"eligibility override \{0, 2\} at \(1, 1\) names unknown agents"),
    ])
    def test_override_keys_and_values_are_checked(self, field, table, message):
        with pytest.raises(ValueError, match=message):
            DiscreteInstance(grids=((0.2, 0.8),) * 2, masses=((0.5, 0.5),) * 2,
                             capacity_default=1, **{field: table})


class TestSymmetricAllocation:
    def test_monotone_shortcut_matches_flow(self, ex_inst, ex_solved):
        rules = merit_with_guarantee(ex_solved.phi_star, ex_inst,
                                     ex_solved.partition)
        disc, p_avg = discretize_rules(ex_inst, rules, 10)
        fast = check_interim_allocation(disc, p_avg)
        general = check_feasible(disc, [p_avg] * 3)
        assert fast.feasible and general.feasible
        for a, b in zip(fast.expost.marginals(), general.expost.marginals()):
            assert np.max(np.abs(a - b)) <= MARGINAL_TOL

    def test_oversized_rule_infeasible_at_full_set(self):
        inst = DiscreteInstance.symmetric(3, (0.25, 0.75), (0.5, 0.5), capacity=2)
        verdict = check_interim_allocation(inst, [1.0, 1.0], construct=False)
        assert not verdict.feasible
        v = verdict.violating_set
        assert v.check_set == tuple(frozenset({0, 1}) for _ in range(3))
        assert v.lhs == pytest.approx(3.0, abs=1e-9)
        assert v.rhs == pytest.approx(2.0, abs=1e-9)

    def test_first_best_binds_every_upper_set(self, ex_inst):
        from verialloc.interim import InterimRules, efficient_rule

        part_rules = merit_with_guarantee(0.4, ex_inst)
        eff = InterimRules(P=lambda t: efficient_rule(t, ex_inst),
                           A=lambda t: 0.0, phi=0.0,
                           partition=part_rules.partition)
        disc, p_avg = discretize_rules(ex_inst, eff, 12)
        verdict = check_interim_allocation(disc, p_avg)
        assert verdict.feasible
        rep = upper_set_report(disc, [p_avg] * 3)
        # the efficient rule exhausts supply on every upper tail
        assert rep["all_hold"]
        assert abs(rep["slack"]) <= 1e-7

    def test_non_monotone_delegates(self):
        inst = DiscreteInstance.symmetric(2, (0.2, 0.8), (0.5, 0.5), capacity=1)
        verdict = check_interim_allocation(inst, [0.6, 0.2])
        assert verdict.feasible  # total demand 0.4 per agent, within supply

    def test_single_agent_constant(self):
        inst = DiscreteInstance(
            grids=((0.1, 0.6, 0.9),),
            masses=((0.3, 0.4, 0.3),),
            capacity_default=1,
        )
        rule = construct_expost(inst, [[0.5, 0.5, 0.5]])
        assert np.allclose(rule.alloc, 0.5, atol=1e-9)


    def test_max_profiles_applies_to_monotone_construction(self):
        inst = DiscreteInstance.symmetric(3, (0.1, 0.4, 0.6, 0.9), (0.25,) * 4,
                                          capacity=1)
        with pytest.raises(ValueError, match="profiles"):
            check_interim_allocation(inst, [0.1, 0.2, 0.3, 0.4], max_profiles=10)

    def test_screen_alone_needs_no_enumeration(self):
        inst = DiscreteInstance.symmetric(3, (0.1, 0.4, 0.6, 0.9), (0.25,) * 4,
                                          capacity=1)
        ok = check_interim_allocation(inst, [0.1, 0.2, 0.3, 0.4], max_profiles=10,
                                      construct=False)
        assert ok.feasible and ok.expost is None
        bad = check_interim_allocation(inst, [0.1, 0.1, 0.1, 0.9], max_profiles=10,
                                       construct=False)
        assert not bad.feasible
        assert bad.violating_set.check_set == (frozenset({3}),) * 3
        unsorted = check_interim_allocation(inst, [0.4, 0.1, 0.3, 0.2], max_profiles=10,
                                            construct=False)
        assert unsorted.feasible and unsorted.expost is None
        unsorted_bad = check_interim_allocation(inst, [0.9, 0.1, 0.1, 0.1], max_profiles=10,
                                                construct=False)
        assert unsorted_bad.violating_set.check_set == (frozenset({0}),) * 3

    def test_screen_matches_threshold_sets_by_enumeration(self):
        # the screen's verdict is the first threshold set {tau >= e} whose
        # exact demand exceeds its exact supply, summed profile by profile
        rng = np.random.default_rng(8)
        violated = 0
        for _ in range(60):
            inst = random_symmetric_instance(rng)
            n, size = inst.n_agents, inst.sizes[0]
            p = np.sort(rng.uniform(0.0, 1.0, size)).tolist()
            sc = flows._Scaled(inst, [p] * n)
            expected = None
            for e in range(size + 1):
                E = (frozenset(range(e, size)),) * n
                rhs = sc.rhs_units(E)
                if sc.lhs_units(E) > rhs:
                    expected = flows.ViolatingSet(
                        E, sc.to_float(sc.lhs_units(E, given=True)), sc.to_float(rhs))
                    break
            verdict = check_interim_allocation(inst, p, construct=False)
            assert verdict.feasible == (expected is None)
            assert verdict.violating_set == expected
            violated += expected is not None
        assert 10 <= violated <= 50


def random_symmetric_instance(rng):
    """n = 2-4 agents, 2-4 grid points (at most 14 in all), capacity 1..n-1."""
    n = int(rng.integers(2, 5))
    size = int(rng.integers(2, 5))
    while n * size > 14:
        size -= 1
    w = rng.integers(1, 5, size=size)
    return DiscreteInstance.symmetric(n, tuple(np.linspace(0, 1, size)),
                                      tuple(w / w.sum()),
                                      capacity=int(rng.integers(1, n)))


_NET = flows._NETWORK_MAX_N


@pytest.mark.parametrize("n", [1, 2, _NET - 1, _NET, _NET + 1, 12])
def test_column_sort_matches_a_stable_sort(n):
    # values from a small set, so rows tie, with both infinities and both zeros
    rng = np.random.default_rng(n)
    pool = np.array([-np.inf, -1.5, -0.0, 0.0, 0.25, 3.0, np.inf])
    a = pool[rng.integers(0, len(pool), (2_000, n))]
    ints = rng.integers(0, 3, (2_000, n)).astype(np.int16)
    for x in (a, ints, rng.random((50, n))):
        asc = flows._sorted_columns(x)
        assert len(asc) == n
        assert np.array_equal(np.column_stack(asc), np.sort(x, axis=1))


class TestCollapsedAgainstBruteForce:
    """The symmetric check of check_interim_allocation, which sorts the
    types by P, for monotone and non-monotone rules, against the profile
    network and brute force."""

    def test_agreement_on_random_symmetric_instances(self):
        rng = np.random.default_rng(505)
        infeasible_seen = non_monotone_seen = 0
        for _ in range(30):
            inst = random_symmetric_instance(rng)
            n, size = inst.n_agents, inst.sizes[0]
            p = [float(x) for x in np.round(rng.random(size) * rng.uniform(0.3, 1.0), 3)]
            if rng.random() < 0.5:
                p.sort()
            non_monotone_seen += any(a > b for a, b in zip(p, p[1:]))
            symmetric = check_interim_allocation(inst, p)
            general = check_feasible(inst, [p] * n, want_expost=False)
            brute = brute_force_verdict(inst, [p] * n)
            assert symmetric.feasible == general.feasible == brute.feasible, (
                inst.to_json_dict(), p)
            if symmetric.feasible:
                for row in symmetric.expost.marginals():
                    assert np.max(np.abs(row - np.array(p))) <= EXACT_READ_TOL
                assert symmetric.expost.max_violation() <= 1e-12
            else:
                infeasible_seen += 1
                E = symmetric.violating_set.check_set
                assert all(Ei == E[0] for Ei in E)
                assert border_lhs(inst, [p] * n, E) > border_rhs(inst, E)
        assert infeasible_seen >= 5 and non_monotone_seen >= 5

    def test_monotone_is_decided_on_exact_units(self):
        # 0.3 - 1e-13 passes a float test for monotonicity against 0.3, but
        # it is lower in exact units: sorted on them, the types run [1, 0]
        inst = DiscreteInstance.symmetric(2, (0.2, 0.8), (0.5, 0.5), capacity=1)
        p = [0.3, 0.3 - 1e-13]
        with mock.patch.object(flows, "_pooled_rules", wraps=flows._pooled_rules) as walk:
            verdict = check_interim_allocation(inst, p)
        units = walk.call_args.args[0]
        assert units[0] < units[1]
        assert verdict.feasible == brute_force_verdict(inst, [p] * 2).feasible
        for row in verdict.expost.marginals():
            assert np.max(np.abs(row - np.array(p))) <= flows.TOLERANCE + 1e-15

    def test_unsorted_infeasible_witness_is_the_top_by_p(self):
        # the two types with the highest P sit at grid points 0 and 2; they
        # ask for 3 * (0.62 + 0.6) / 4 = 0.915 of the object against the
        # supply 1 - (1/2)^3 = 0.875 of their half of the mass, while the
        # larger sets by P hold
        inst = DiscreteInstance.symmetric(3, (0.1, 0.4, 0.6, 0.9), (0.25,) * 4,
                                          capacity=1)
        p = [0.62, 0.02, 0.6, 0.01]
        verdict = check_interim_allocation(inst, p)
        assert not verdict.feasible and verdict.expost is None
        v = verdict.violating_set
        assert v.check_set == (frozenset({0, 2}),) * 3
        assert v.lhs == pytest.approx(border_lhs(inst, [p] * 3, v.check_set), abs=1e-9)
        assert v.rhs == pytest.approx(border_rhs(inst, v.check_set), abs=1e-9)
        assert v.lhs == pytest.approx(0.915, abs=1e-9)
        assert v.rhs == pytest.approx(0.875, abs=1e-9)
        assert not brute_force_verdict(inst, [p] * 3).feasible


def _exact_supply(inst):
    """G[e] = E[min(#agents with type >= e, m)] and the mass of {tau >= e},
    as exact fractions of the instance's masses, which need not sum to 1."""
    n, size, m = inst.n_agents, inst.sizes[0], inst.capacity_default
    mass = [Fraction(w) for w in inst.masses[0]]
    above = [sum(mass[e:]) for e in range(size + 1)]
    supply = [sum(math.comb(n, x) * a**x * (above[0] - a) ** (n - x) * min(x, m)
                  for x in range(1, n + 1)) for a in above]
    return above, supply


def _pooled_interim(inst, starts):
    """Exact interim rule of the pooled-efficient rule whose pools begin at
    the sorted type indices ``starts`` (types below the first get 0)."""
    n, size = inst.n_agents, inst.sizes[0]
    above, supply = _exact_supply(inst)
    rule = [Fraction(0)] * size
    for lo, end in zip(starts, [*starts[1:], size]):
        y = (supply[lo] - supply[end]) / (n * (above[lo] - above[end]))
        rule[lo:end] = [y] * (end - lo)
    return rule


@st.composite
def monotone_cases(draw):
    """A symmetric instance and a feasible nondecreasing rule in floats: a
    random shape at the screen's boundary, a pooled-efficient rule,
    the efficient rule, the zero rule or a constant at the boundary."""
    n = draw(st.integers(2, 5))
    size = draw(st.integers(1, {2: 8, 3: 8, 4: 6, 5: 5}[n]))
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=size, max_size=size)))
    inst = DiscreteInstance.symmetric(n, tuple(np.linspace(0, 1, size)),
                                      tuple(weights / weights.sum()),
                                      capacity=draw(st.integers(1, n)))
    kind = draw(st.sampled_from(["random", "pooled", "efficient", "zero", "constant"]))
    if kind == "pooled":
        starts = sorted(draw(st.sets(st.integers(0, size - 1), min_size=1)))
        rule = _pooled_interim(inst, starts)
    elif kind == "efficient":
        rule = _pooled_interim(inst, list(range(size)))
    elif kind == "zero":
        rule = [Fraction(0)] * size
    else:
        shape = ([1] * size if kind == "constant" else
                 sorted(draw(st.lists(st.integers(0, 20), min_size=size, max_size=size))))
        above, supply = _exact_supply(inst)
        mass = [above[t] - above[t + 1] for t in range(size)]
        # largest factor whose multiple of the shape passes every threshold
        factor = min((supply[e] / (n * sum(s * w for s, w in zip(shape[e:], mass[e:])))
                      for e in range(size) if any(shape[e:])), default=Fraction(0))
        factor *= draw(st.sampled_from([Fraction(1), Fraction(99, 100), Fraction(1, 2)]))
        rule = [factor * s for s in shape]
    # rounding to floats moves the rule by an ulp, well within the tolerance,
    # and keeps it nondecreasing
    p = [float(x) for x in rule]
    return inst, p


@st.composite
def permuted_cases(draw):
    """A ``monotone_cases`` draw, as drawn or with its types permuted: P and
    the masses move together, and the grid stays increasing."""
    inst, p = draw(monotone_cases())
    size = inst.sizes[0]
    perm = draw(st.one_of(st.just(range(size)), st.permutations(range(size))))
    masses = tuple(inst.masses[0][t] for t in perm)
    return (DiscreteInstance.symmetric(inst.n_agents, inst.grids[0], masses,
                                       inst.capacity_default),
            [p[t] for t in perm])


def seventeenths_case():
    """Two agents, one object, masses (1,1,1,2,4,4,4)/17 and a feasible rule
    in nine decimals, with the rules the symmetric and the general check
    build for it."""
    inst = DiscreteInstance.symmetric(
        2, tuple(np.linspace(0, 1, 7)), tuple(np.array([1, 1, 1, 2, 4, 4, 4]) / 17),
        capacity=1)
    p = [0.029411764, 0.088235293, 0.147058822, 0.235294116, 0.411764705,
         0.647058823, 0.882352941]
    return inst, p, [check_interim_allocation(inst, p).expost,
                     check_feasible(inst, [p] * 2).expost]


class TestPooledConstruction:
    """The flow-free construction against exact sums and the general
    profile network."""

    @settings(max_examples=150, deadline=None)
    @given(case=permuted_cases())
    def test_mixture_realizes_the_rule(self, case):
        inst, p = case
        n, size = inst.n_agents, inst.sizes[0]
        walk, walks = flows._pooled_rules, []

        def record(*args):
            walks.append(walk(*args))
            return walks[-1]

        with mock.patch.object(flows, "_pooled_rules", side_effect=record):
            verdict = check_interim_allocation(inst, p)
        assert verdict.feasible
        (rules,) = walks
        assert len(rules) <= size + 1
        assert all(w > 0 for w, _ in rules) and sum(w for w, _ in rules) == 1
        alloc = verdict.expost.alloc
        assert alloc.min() >= 0.0 and alloc.max() <= 1.0
        assert verdict.expost.max_violation() <= 1e-12
        for row in verdict.expost.marginals():
            assert np.max(np.abs(row - np.array(p))) <= MARGINAL_TOL
        assert check_feasible(inst, [p] * n, want_expost=False).feasible

    def test_marginals_are_exact_for_the_instance_masses(self):
        _, p, rules = seventeenths_case()
        assert max(np.max(np.abs(row - np.array(p)))
                   for rule in rules for row in rule.marginals()) <= MARGINAL_TOL

    def test_shares_stay_at_most_one(self):
        # the walk's weights sum to 1 exactly; summed as floats they put the
        # share of a lone agent of the top type one ulp above 1
        inst = DiscreteInstance.symmetric(3, tuple(np.linspace(0, 1, 5)),
                                          (0.125, 0.25, 0.1875, 0.25, 0.1875), capacity=1)
        p = [0.005208333, 0.067708333, 0.22265625, 0.477864583, 0.82421875]
        assert check_interim_allocation(inst, p).expost.alloc.max() <= 1.0

    # rules on four and on three sorted types, each with its own order of
    # the grid's types and its count of distinct pools
    _MIXTURES = {
        4: ([(Fraction(1, 6), [(0, 0), (1, 1), (2, 2), (3, 3)]),
             (Fraction(1, 3), [(1, 1), (2, 3)]),
             (Fraction(1, 2), [(2, 3)])], [1, 3, 0, 2], 5),
        3: ([(Fraction(1, 6), [(0, 0), (1, 1), (2, 2)]),
             (Fraction(1, 3), [(0, 0), (1, 2)]),
             (Fraction(1, 2), [(1, 2)])], [2, 0, 1], 4),
    }

    def _assert_shares_match_a_sum_over_rules(self, n, size):
        # every profile and agent, tied types included, against the sum of
        # every rule's share on the types relabelled by their sorted place
        rules, order, distinct = self._MIXTURES[size]
        place = {t: r for r, t in enumerate(order)}
        for m in (1, 2):
            alloc, pool_count = flows._pooled_alloc(rules, order, n, m)
            assert pool_count == distinct and alloc.shape == (size**n, n)
            expected = np.zeros(alloc.shape)
            for row, prof in enumerate(itertools.product(range(size), repeat=n)):
                ranks = [place[t] for t in prof]
                for i, x in enumerate(ranks):
                    for w, pools in rules:
                        for lo, hi in pools:
                            if lo <= x <= hi:
                                above = sum(y > hi for y in ranks)
                                within = sum(lo <= y <= hi for y in ranks)
                                expected[row, i] += float(w) * min(1.0, max(0, m - above) / within)
            assert np.max(np.abs(alloc - expected)) <= 1e-15

    def test_mix_matches_a_sum_over_rules(self):
        # three agents on four types ranked (2, 0, 3, 1)
        self._assert_shares_match_a_sum_over_rules(3, 4)

    @pytest.mark.parametrize("n,size", [(1, 4), (2, 4), (_NET + 1, 3)])
    def test_profile_shares_match_a_sum_over_rules(self, n, size):
        self._assert_shares_match_a_sum_over_rules(n, size)

    def test_stats_count_the_rules_and_pools(self, ex_inst, ex_solved):
        # the paper's rule at 64 bins, the benchmark's symmetric input
        rules = merit_with_guarantee(ex_solved.phi_star, ex_inst, ex_solved.partition)
        disc, p_avg = discretize_rules(ex_inst, rules, 64)
        assert check_interim_allocation(disc, p_avg).stats == {
            "path": "pooled", "profiles": 64**3, "rules": 44, "pools": 51}

    def test_paper_rule_on_four_agents_at_31_bins(self):
        # 923,521 profiles, just under the cap; the marginals miss P by tau
        # plus float rounding, so they are bound by MARGINAL_TOL, not TOLERANCE
        inst = ProblemInstance(4, 2, 1, make_uniform())
        solved = solve(inst)
        disc, p_avg = discretize_rules(
            inst, merit_with_guarantee(solved.phi_star, inst, solved.partition), 31)
        verdict = check_interim_allocation(disc, p_avg)
        assert verdict.feasible and verdict.stats["path"] == "pooled"
        assert verdict.stats["profiles"] == 31**4 <= flows.DEFAULT_MAX_PROFILES
        assert verdict.expost.max_violation() <= 0
        for row in verdict.expost.marginals():
            assert np.max(np.abs(row - np.array(p_avg))) <= MARGINAL_TOL

    def test_walk_refuses_a_decreasing_rule(self):
        # two agents, one object, two types of mass 1/2 each, scale 8: the
        # pooled-efficient interim values are 2/8 (low) and 6/8 (high)
        mass_above, supply, unit = [2, 1, 0], [32, 24, 0], 4
        with pytest.raises(RuntimeError, match="weight"):
            flows._pooled_rules([2, 1], mass_above, supply, unit)
        # with two objects every pool's value is 8/8, and no step exists
        with pytest.raises(RuntimeError, match="weight"):
            flows._pooled_rules([2, 1], mass_above, [64, 32, 0], unit)

    def test_walk_refuses_a_rule_above_supply(self):
        # 7/8 for both types needs 7/4 objects in expectation; there is one
        with pytest.raises(RuntimeError, match="residual"):
            flows._pooled_rules([7, 7], [2, 1, 0], [32, 24, 0], 4)

    def test_walk_recovers_a_mixture(self):
        # half the efficient rule (2/8, 6/8) plus half the pooled one (4/8,
        # 4/8) is (3/8, 5/8): one step to each, then nothing left
        rules = flows._pooled_rules([3, 5], [2, 1, 0], [32, 24, 0], 4)
        assert rules == [(Fraction(1, 2), [(0, 0), (1, 1)]),
                         (Fraction(1, 2), [(0, 1)])]


class TestConstructExpost:
    def test_infeasible_raises_with_witness(self, footnote):
        with pytest.raises(ValueError, match="infeasible"):
            construct_expost(footnote, FOOTNOTE_P)

    def test_example_discretization_realizes_interim_rule(self, ex_inst, ex_solved):
        rules = merit_with_guarantee(ex_solved.phi_star, ex_inst,
                                     ex_solved.partition)
        disc, p_avg = discretize_rules(ex_inst, rules, 16)
        rule = construct_expost(disc, [p_avg] * 3)
        for row in rule.marginals():
            assert np.max(np.abs(row - np.array(p_avg))) <= MARGINAL_TOL
        assert rule.max_violation() <= 1e-12


class TestDiscretizeRules:
    def test_full_grid_keeps_every_bin(self, ex_inst, ex_solved):
        rules = merit_with_guarantee(ex_solved.phi_star, ex_inst, ex_solved.partition)
        disc, p_avg = discretize_rules(ex_inst, rules, 16)
        grid = cell_grid(ex_inst.dist, 16, [iv.lo for iv in rules.partition.intervals])
        edges = np.linspace(0.0, 1.0, 17)
        masses = grid.bin_mass.tolist()
        assert disc.grids == (tuple((0.5 * (edges[:-1] + edges[1:])).tolist()),) * 3
        assert disc.masses == (tuple(w / sum(masses) for w in masses),) * 3
        assert p_avg == grid.bin_mean(grid.integrate(rules.P)).tolist()

    def test_empty_bins_are_left_out(self):
        inst = ProblemInstance(3, 2, 1, make_power(400))
        solved = solve(inst)
        rules = merit_with_guarantee(solved.phi_star, inst, solved.partition)
        disc, p_avg = discretize_rules(inst, rules, 64)
        grid = cell_grid(inst.dist, 64, [iv.lo for iv in rules.partition.intervals])
        keep = grid.bin_mass > 0
        assert not keep[:10].any() and keep[10:].all()  # t^400 is subnormal below 10/64
        edges = np.linspace(0.0, 1.0, 65)
        assert disc.grids[0] == tuple((0.5 * (edges[:-1] + edges[1:]))[keep].tolist())
        assert min(disc.masses[0]) > 0 and len(p_avg) == 54
        assert np.isfinite(p_avg).all()
        # the checks carry the smallest masses, near 1e-306, exactly
        verdict = check_interim_allocation(disc, p_avg)
        assert verdict.feasible
        for row in verdict.expost.marginals():
            assert np.max(np.abs(row - np.array(p_avg))) <= MARGINAL_TOL


@pytest.fixture(scope="module")
def audit_setup(ex_inst, ex_solved):
    part = ex_solved.partition
    disc, labels = snapped_discretization(ex_inst, part, 16)
    p_merit = merit_rule_on_grid(disc, labels, ex_inst.m, ex_inst.k)
    # exact discrete interim of the merit stage
    mass = np.array(disc.masses[0])
    interim = np.zeros((3, len(mass)))
    for pid, prof in enumerate(disc.profiles()):
        w = float(np.prod(mass[list(prof)]))
        for i in range(3):
            if p_merit[pid, i]:
                interim[i, prof[i]] += w
    interim /= mass[None, :]
    phi = ex_solved.phi_star
    A = [
        [max(interim[i, t] - (phi if labels[t] == LABEL_ALLO else 0.0), 0.0)
         for t in range(len(mass))]
        for i in range(3)
    ]
    return disc, labels, p_merit, A


class TestAuditFeasibility:
    def test_damped_audit_demand_feasible(self, audit_setup, ex_inst):
        disc, labels, p_merit, A = audit_setup
        # the audit demand of the two-stage mechanism sits exactly on the
        # feasibility boundary (its binding constraint is an equality in
        # the continuum); any epsilon of slack makes the grid version
        # implementable
        A_damped = [[x * (1 - 1e-6) for x in row] for row in A]
        verdict = check_interim_audit(disc, p_merit, A_damped, ex_inst.k)
        assert verdict.feasible
        for row, target in zip(verdict.expost.marginals(), A_damped):
            assert np.max(np.abs(row - np.array(target))) <= MARGINAL_TOL

    def test_exact_audit_demand_is_knife_edge(self, audit_setup, ex_inst):
        disc, labels, p_merit, A = audit_setup
        verdict = check_interim_audit(disc, p_merit, A, ex_inst.k,
                                      want_expost=False)
        if not verdict.feasible:
            v = verdict.violating_set
            # any violation is pure discretization noise, not a real breach
            assert v.lhs - v.rhs < 1e-9

    def test_inflated_audit_demand_infeasible(self, audit_setup, ex_inst):
        disc, labels, p_merit, A = audit_setup
        A_over = [list(row) for row in A]
        t_allo = max(t for t in range(len(labels)) if labels[t] == LABEL_ALLO)
        for row in A_over:
            row[t_allo] = min(1.0, row[t_allo] + 0.05)
        verdict = check_interim_audit(disc, p_merit, A_over, ex_inst.k,
                                      want_expost=False)
        assert not verdict.feasible
        v = verdict.violating_set
        assert v.lhs > v.rhs

    def test_flow_rows_are_the_footprints(self, audit_setup, ex_inst):
        disc, labels, p_merit, A = audit_setup
        audit = flows._audit_instance(disc, p_merit, ex_inst.k)
        footprints = {footprint(audit, prof) for prof in audit.profiles()}
        with mock.patch.object(flows, "MaxFlow", wraps=flows.MaxFlow) as network:
            verdict = check_interim_audit(disc, p_merit, A, ex_inst.k, want_expost=False)
        assert verdict.stats["rows"] == len(footprints) < disc.n_profiles
        # source, one node per row and per (agent, type), sink
        assert network.call_args.args == (len(footprints) + sum(disc.sizes) + 2,)

    def test_audit_capacity_never_binding(self):
        # k = n with everyone always allocated: audit everyone at will
        inst = DiscreteInstance.symmetric(2, (0.3, 0.7), (0.5, 0.5), capacity=2)
        p_merit = np.ones((4, 2), dtype=bool)
        verdict = check_interim_audit(inst, p_merit, [[1.0, 1.0]] * 2, 2)
        assert verdict.feasible

    def test_threshold_family_matches_flow_worst_set(self, audit_setup, ex_inst):
        disc, labels, p_merit, A = audit_setup
        aud_lo = labels.index(LABEL_AUD)
        aud_hi = next(t for t in range(aud_lo, len(labels))
                      if labels[t] == LABEL_ALLO)
        A_stressed = [[min(1.0, x + 0.02) for x in row] for row in A]
        rep = audit_threshold_report(disc, p_merit, A_stressed, ex_inst.k,
                                     aud_lo, aud_hi)
        verdict = check_interim_audit(disc, p_merit, A_stressed, ex_inst.k,
                                      want_expost=False)
        assert not rep["all_hold"] and not verdict.feasible
        v = verdict.violating_set
        eligible = {tuple(prof): frozenset(np.flatnonzero(p_merit[pid]).tolist())
                    for pid, prof in enumerate(disc.profiles())}
        audit = flows._audit_instance(disc, p_merit, ex_inst.k)
        assert audit.eligible == {prof: J for prof, J in eligible.items() if len(J) < 3}

        # the worst threshold-form set must achieve the same violation as
        # the min-cut set found by the general flow check
        sc = flows._Scaled(
            DiscreteInstance(grids=disc.grids, masses=disc.masses,
                             capacity_default=ex_inst.k, eligible=eligible),
            A_stressed,
        )
        flow_gap = sc.lhs_units(v.check_set) - sc.rhs_units(v.check_set)
        family_gap = round((rep["lhs"] - rep["rhs"]) * sc.common)
        assert family_gap == pytest.approx(flow_gap, rel=1e-9)


def test_grid_refinement_documents_convergence(ex_inst, ex_solved):
    """Interim rules of the grid merit stage approach their continuum
    counterparts as the grid refines (halving widths shrinks the error)."""
    part = ex_solved.partition
    phi = ex_solved.phi_star
    from verialloc.interim import allocation_branch

    errors = []
    for bins in (8, 16, 32):
        disc, labels = snapped_discretization(ex_inst, part, bins)
        p_merit = merit_rule_on_grid(disc, labels, ex_inst.m, ex_inst.k)
        mass = np.array(disc.masses[0])
        interim = np.zeros(len(mass))
        for pid, prof in enumerate(disc.profiles()):
            w = float(np.prod(mass[list(prof)]))
            if p_merit[pid, 0]:
                interim[prof[0]] += w
        interim /= mass

        def continuum_merit(t):
            label = part.region_of(t)
            if label == LABEL_ALLO:
                return allocation_branch(label, t, phi, ex_inst)
            if label == LABEL_AUD:
                return allocation_branch(label, t, phi, ex_inst) - phi
            return 0.0

        mids = np.array([g for g in disc.grids[0]])
        err = float(np.max(np.abs(interim - np.array(
            [continuum_merit(float(t)) for t in mids]
        ))))
        errors.append(err)
    print(f"grid refinement errors (8/16/32 bins): {errors}")
    assert errors[2] < errors[0]
    assert errors[2] < 0.05
