import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verialloc import distributions, simulation
from verialloc.distributions import integrate, make_power, make_uniform
from verialloc.envelope import (
    LABEL_ALLO,
    LABEL_AUD,
    LABEL_IC,
    ProblemInstance,
    RegionInterval,
    RegionPartition,
    partition,
)
from verialloc.flows import multiset_table
from verialloc.interim import merit_with_guarantee
from verialloc.optimizer import solve
from verialloc.simulation import (
    BinWeights,
    CalibrationError,
    EpicWitness,
    _mechanism_batch,
    _merit_stage,
    _top_quota,
    audit_select,
    calibrate_audit,
    calibrate_lottery,
    epic_counterexample,
    lottery_allocate,
    merit_allocate,
    simulate,
)

PHI = 0.34764


@pytest.fixture(scope="module")
def ex_part(ex_inst):
    return partition(PHI, ex_inst)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _count_batch_rows(monkeypatch) -> list:
    """Record the rows of every ``_mechanism_batch`` call from now on."""
    rows = []
    real = simulation._mechanism_batch

    def counted(types, *args, **kwargs):
        rows.append(len(types))
        return real(types, *args, **kwargs)

    monkeypatch.setattr(simulation, "_mechanism_batch", counted)
    return rows


# -- oracle for the one-sort kernel: selection by full stable argsort ranks --

def _rank_desc(values):
    """0-based rank of each column entry when its row is sorted descending."""
    order = np.argsort(-values, axis=1, kind="stable")
    ranks = np.empty_like(order)
    width = np.arange(values.shape[1])
    np.put_along_axis(ranks, order, np.broadcast_to(width, order.shape), axis=1)
    return ranks


def _reference_merit(types, reg, m, k):
    ranks = _rank_desc(types)
    sorted_vals = np.take_along_axis(types, np.argsort(-types, axis=1, kind="stable"), axis=1)
    tie = (np.diff(sorted_vals, axis=1) == 0).any(axis=1)
    merit = (~tie)[:, None] & (((reg == 2) & (ranks < m)) | ((reg == 1) & (ranks < k)))
    return merit, tie


def _reference_pick(mask, keys, quota):
    return mask & (_rank_desc(keys) < quota[:, None])


@st.composite
def _tied_rows(draw, values, width=st.integers(2, 12)):
    """A (rows, n) batch whose entries often repeat within a row."""
    n = draw(width)
    rows = draw(st.integers(1, 6))
    pool = draw(st.lists(values, min_size=1, max_size=3))
    entry = st.sampled_from(pool) | values
    grid = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=rows, max_size=rows))
    return np.array(grid, dtype=float)


class TestMeritAllocate:
    def test_two_supply_winners(self, ex_part, ex_inst):
        # both high reports in the supply region and among the 2 highest
        assert merit_allocate([0.9, 0.8, 0.1], ex_part, ex_inst) == {0, 1}

    def test_audit_region_top_k_only(self, ex_part, ex_inst):
        # 0.40 and 0.38 sit between the cutoffs: only the single highest
        # report wins with k = 1
        assert merit_allocate([0.40, 0.38, 0.1], ex_part, ex_inst) == {0}

    def test_tie_allocates_nothing(self, ex_part, ex_inst):
        assert merit_allocate([0.2, 0.2, 0.2], ex_part, ex_inst) == frozenset()
        assert merit_allocate([0.9, 0.9, 0.1], ex_part, ex_inst) == frozenset()

    def test_guarantee_region_never_wins_merit(self, ex_part, ex_inst):
        assert merit_allocate([0.1, 0.2, 0.3], ex_part, ex_inst) == frozenset()


class TestLotteryAllocate:
    def test_no_remaining_objects(self, ex_part, ex_inst):
        out = lottery_allocate([0.9, 0.8, 0.1], {0, 1}, BinWeights.uniform(8),
                               _rng(), ex_part, ex_inst)
        assert out == frozenset()

    def test_supply_covers_all_eligible(self, ex_part, ex_inst):
        # two remaining objects and exactly two eligible low types (the
        # supply-region agent is excluded): both eligible agents win
        for seed in range(10):
            out = lottery_allocate([0.1, 0.9, 0.2], frozenset(),
                                   BinWeights.uniform(8), _rng(seed),
                                   ex_part, ex_inst)
            assert out == {0, 2}

    def test_one_object_two_eligible(self, ex_part, ex_inst):
        # one remaining object among two eligible agents: exactly one wins
        seen = set()
        for seed in range(40):
            out = lottery_allocate([0.9, 0.1, 0.2], {0}, BinWeights.uniform(8),
                                   _rng(seed), ex_part, ex_inst)
            assert len(out) == 1 and out <= {1, 2}
            seen |= out
        assert seen == {1, 2}  # both low types can win

    def test_supply_region_losers_excluded(self):
        inst = ProblemInstance(5, 2, 1, make_uniform())
        part = partition(0.3, inst)
        allo = [iv for iv in part.intervals if iv.label == "allo"][-1]
        span = allo.hi - allo.lo
        profile = [allo.lo + 0.8 * span, allo.lo + 0.5 * span, 0.05, 0.1,
                   allo.lo + 0.9 * span]
        winners = merit_allocate(profile, part, inst)
        assert winners == {0, 4}  # agent 1 is supply region but not top-2
        # a supply-region loser never enters the lottery
        for seed in range(20):
            out = lottery_allocate(profile, winners, BinWeights.uniform(8),
                                   _rng(seed), part, inst)
            assert 1 not in out


class TestAuditSelect:
    def test_under_capacity_audits_all(self, ex_part, ex_inst):
        stage = ("merit", "none", "none")
        out = audit_select([0.4, 0.3, 0.1], stage, _rng(), ex_part, ex_inst)
        assert out == {0}

    def test_no_winners_no_audits(self, ex_part, ex_inst):
        stage = ("none", "none", "none")
        out = audit_select([0.1, 0.2, 0.3], stage, _rng(),
                           ex_part, ex_inst)
        assert out == frozenset()

    def test_over_capacity_audits_exactly_k(self, ex_part, ex_inst):
        stage = ("merit", "merit", "none")
        counts = {0: 0, 1: 0}
        for seed in range(50):
            out = audit_select([0.9, 0.8, 0.1], stage, _rng(seed),
                               ex_part, ex_inst)
            assert len(out) == 1 and out <= {0, 1}
            counts[next(iter(out))] += 1
        assert counts[0] > 0 and counts[1] > 0  # selection is randomized

    def test_audit_region_winner_always_audited(self):
        # supply-region types outrank audit-region types, so an
        # audit-region winner forces W <= k and the audit covers her
        from verialloc.optimizer import solve

        inst = ProblemInstance(4, 3, 1, make_uniform())
        part = solve(inst).partition
        aud = [iv for iv in part.intervals if iv.label == LABEL_AUD][0]
        assert aud.hi - aud.lo > 1e-6
        aud_mid = 0.5 * (aud.lo + aud.hi)
        # the audit-region agent tops the profile: the only merit winner
        profile = [aud_mid, 0.9 * aud.lo, 0.8 * aud.lo, 0.5 * part.gamma1]
        winners = merit_allocate(profile, part, inst)
        assert winners == {0}
        stage = ("merit", "none", "none", "none")
        for seed in range(10):
            out = audit_select(profile, stage, _rng(seed), part, inst)
            assert out == {0}

    def test_excess_winners_are_supply_region(self):
        # whenever more than k agents win the merit stage, every winner is
        # in the supply region (audit-region winners need rank < k)
        from verialloc.optimizer import solve

        inst = ProblemInstance(4, 3, 1, make_uniform())
        rep = solve(inst)
        part = rep.partition
        rng = np.random.default_rng(31)
        seen_excess = False
        for _ in range(400):
            profile = rng.random(4)
            winners = merit_allocate(profile, part, inst)
            if len(winners) > inst.k:
                seen_excess = True
                for i in winners:
                    assert part.region_of(float(profile[i])) == "allo"
        assert seen_excess


class TestScalarMatchesBatch:
    """The single-profile helpers draw exactly what the batch kernel draws."""

    @pytest.mark.parametrize("n, m, k, phi", [(3, 2, 1, PHI), (5, 2, 1, 0.3)])
    def test_lottery_and_audit(self, n, m, k, phi):
        inst = ProblemInstance(n, m, k, make_uniform())
        part = partition(phi, inst)
        w = BinWeights(np.linspace(0.0, 1.0, 9), np.linspace(0.5, 3.0, 8))
        flat = BinWeights.uniform(8)
        profiles = np.random.default_rng(n).random((300, n))
        seen_lottery = seen_audit_draw = False
        for s, p in enumerate(profiles):
            winners = merit_allocate(p, part, inst)
            _, _, lottery, _, _, _ = _mechanism_batch(
                p[None], part, inst, w, flat, _rng(s), run_audit=False)
            out = lottery_allocate(p, winners, w, _rng(s), part, inst)
            assert out == frozenset(np.flatnonzero(lottery[0]).tolist())

            _, _, _, _, audited, _ = _mechanism_batch(
                p[None], part, inst, flat, w, _rng(s), run_lottery=False)
            stage = tuple("merit" if i in winners else "none" for i in range(n))
            out = audit_select(p, stage, _rng(s), part, inst, w)
            assert out == frozenset(np.flatnonzero(audited[0]).tolist())
            seen_lottery |= bool(lottery.any())
            seen_audit_draw |= len(winners) > k
        assert seen_lottery and seen_audit_draw


class TestKernelMatchesReference:
    """The one-sort kernel selects exactly what full stable ranks select."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), types=_tied_rows(st.floats(0.0, 1.0)))
    def test_merit_stage(self, data, types):
        rows, n = types.shape
        reg = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
            min_size=rows, max_size=rows)))
        k = data.draw(st.integers(1, n + 1))
        m = data.draw(st.integers(k, n + 1))
        merit, tie = _merit_stage(types, reg, m, k)
        ref_merit, ref_tie = _reference_merit(types, reg, m, k)
        assert np.array_equal(tie, ref_tie)
        assert np.array_equal(merit, ref_merit)
        assert not merit[tie].any()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           raw=_tied_rows(st.floats(-50.0, 50.0) | st.just(-np.inf)))
    def test_top_quota_selection(self, data, raw):
        rows, n = raw.shape
        mask = np.array(data.draw(st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n),
            min_size=rows, max_size=rows)))
        quota = np.array(data.draw(st.lists(st.integers(-1, n + 1),
                                            min_size=rows, max_size=rows)))
        keys = np.where(mask, raw, -np.inf)
        picked = mask & _top_quota(keys, quota)
        assert np.array_equal(picked, _reference_pick(mask, keys, quota))
        assert (picked.sum(axis=1) <= np.maximum(quota, 0)).all()

    @pytest.mark.parametrize("n", [3, 255, 256, 600])
    def test_row_count(self, n):
        # rows narrower than 256 are counted in bytes, wider ones in int64
        mask = np.random.default_rng(n).random((50, n)) < 0.9
        mask[0] = True
        counts = simulation._row_count(mask)
        assert counts.dtype == np.int64
        assert counts.tolist() == mask.sum(axis=1).tolist() and counts[0] == n

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           types=_tied_rows(st.sampled_from([0.1, 0.4, 0.6, 0.9]), st.just(3)))
    def test_tie_rows_allocate_nothing(self, data, types, ex_inst, ex_part):
        w = BinWeights.uniform(4)
        _, merit, lottery, allocated, audited, tie = _mechanism_batch(
            types, ex_part, ex_inst, w, w, _rng(data.draw(st.integers(0, 99))))
        assert not (merit | lottery | allocated | audited)[tie].any()


class TestBinWeights:
    def test_non_uniform_edges_rejected(self):
        with pytest.raises(ValueError, match="uniform edges"):
            BinWeights(np.array([0.0, 0.3, 1.0]), np.ones(2))
        with pytest.raises(ValueError, match="uniform edges"):
            BinWeights(np.linspace(0.0, 1.0, 5), np.ones(3))
        with pytest.raises(ValueError, match="uniform edges"):
            BinWeights(np.linspace(0.0, 2.0, 3), np.ones(2))
        with pytest.raises(ValueError, match="uniform edges"):
            BinWeights(np.array([0.0]), np.ones(0))

    def test_lookup_uses_the_tally_bins(self):
        w = BinWeights(np.linspace(0.0, 1.0, 5), np.array([1.0, 2.0, 3.0, 4.0]))
        t = np.array([0.0, 0.2499, 0.25, 0.5, 0.99, 1.0])
        assert w.lookup(t).tolist() == [1.0, 1.0, 2.0, 3.0, 4.0, 4.0]


class TestCalibration:
    def test_case3_uniform_weights_converge_immediately(self, ex_inst):
        # empty audit region: all eligible types survive merit identically
        part = partition(0.6, ex_inst)
        assert part.case_tag == "IcAllo"
        w = calibrate_lottery(ex_inst, part, bins=16)
        assert w.stats["iterations"] == 1
        active = w.values[:8]
        assert np.allclose(active, active.mean(), rtol=0.2)

    def test_weights_increase_over_audit_region(self, ex_inst, ex_solved):
        part = ex_solved.partition
        w = calibrate_lottery(ex_inst, part, bins=32)
        edges = w.edges
        mids = 0.5 * (edges[:-1] + edges[1:])
        in_aud = (mids > part.gamma2) & (mids < part.gamma3)
        in_ic = mids < part.gamma1
        # higher audit-region types win merit more often, so they need
        # larger weights to reach the same lottery probability
        assert w.values[in_aud].max() > 1.2 * w.values[in_ic].mean()

    def test_audit_unreachable_target_raises(self, ex_inst, monkeypatch):
        # at phi = 0.6 a lone supply-region merit winner just above gamma1
        # is always audited, while its target P(t) - phi tends to 0; the
        # exact map shows it before any profile is simulated
        part = partition(0.6, ex_inst)
        rules = merit_with_guarantee(0.6, ex_inst, part)
        rows = _count_batch_rows(monkeypatch)
        with pytest.raises(CalibrationError, match="audit.*forced-audit") as err:
            calibrate_audit(ex_inst, part, rules, bins=16)
        assert rows == []
        # the error names the bin holding gamma1 = 0.829, just above which
        # the target tends to 0, and both rates
        assert "[0.8125, 0.875)" in str(err.value)
        forced, target = map(float, re.findall(r"rate ([0-9.]+) alone exceeds "
                                               r"the audit target ([0-9.]+)",
                                               str(err.value))[0])
        assert forced > target + 0.1

    def test_exact_weights_do_not_depend_on_the_seed(self, ex_inst, ex_solved):
        part = ex_solved.partition
        rules = merit_with_guarantee(ex_solved.phi_star, ex_inst, part)
        a = calibrate_lottery(ex_inst, part)
        assert np.array_equal(a.values, calibrate_lottery(ex_inst, part).values)
        # two v nodes in each audit-region cell and in the supply region,
        # whose cells hold no pool member and merge into one
        grid, reg = simulation._cells(ex_inst, part, 64)
        assert a.stats.keys() == {"v_nodes", "x_nodes", "iterations", "max_residual"}
        assert a.stats["v_nodes"] == 2 * (np.sum(reg == 1) + 1)
        assert a.stats["x_nodes"] % 12 == 0
        assert a.stats["max_residual"] <= 1e-10
        runs = [simulate(ex_inst, ex_solved.phi_star, 1_000, seed=seed).stats
                for seed in (1, 2)]
        for stage, fitted in (("lottery", a), ("audit", calibrate_audit(ex_inst, part, rules))):
            assert runs[0][stage] == runs[1][stage] == fitted.stats


def _reference_targets(inst, part, rules, bins):
    """Per-bin P, merit-stage and supply-region audit targets, each by one
    ``integrate`` call per bin split at the region cutoffs; NaN where the
    mass divided by is below the smallest normal float."""
    tiny = np.finfo(float).tiny
    dist, phi, cuts = inst.dist, part.phi, [iv.lo for iv in part.intervals]

    def merit(t):
        label = part.region_of(t)
        return 0.0 if label == LABEL_IC else rules.P(t) - phi * (label == LABEL_AUD)

    def supply(f):
        return lambda t: f(t) if part.region_of(t) == LABEL_ALLO else 0.0

    out = []
    edges = np.linspace(0.0, 1.0, bins + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mass = float(dist.cdf(hi)) - float(dist.cdf(lo))
        share = integrate(supply(lambda t: 1.0), dist, lo, hi, cuts)
        out.append([
            integrate(rules.P, dist, lo, hi, cuts) / mass if mass >= tiny else np.nan,
            integrate(merit, dist, lo, hi, cuts) / mass if mass >= tiny else np.nan,
            integrate(supply(lambda t: rules.P(t) - phi), dist, lo, hi, cuts) / share
            if share >= tiny else np.nan,
        ])
    return np.array(out).T


class TestCellTargets:
    """Targets from one integral of P per cell of the cell grid."""

    @pytest.mark.parametrize("n, m, k, alpha, phi, bins", [
        (3, 2, 1, 1.0, "star", 64), (12, 6, 2, 0.3, "star", 64),
        (3, 2, 1, 1.0, 2 / 3, 16), (3, 2, 1, 400.0, "star", 64),
    ])
    def test_match_per_bin_integrals(self, n, m, k, alpha, phi, bins):
        inst = ProblemInstance(n, m, k, make_uniform() if alpha == 1.0 else make_power(alpha))
        part = partition(solve(inst).phi_star if phi == "star" else phi, inst)
        rules = merit_with_guarantee(part.phi, inst, part)
        p_t, m_t, a_t = simulation._cell_targets(inst, part, rules, bins)
        ref_p, ref_m, ref_a = _reference_targets(inst, part, rules, bins)
        assert np.array_equal(p_t, ref_p, equal_nan=True)
        for got, ref in ((m_t, ref_m), (a_t, ref_a)):
            assert np.array_equal(np.isnan(got), np.isnan(ref))
            assert np.max(np.abs(got - ref)[~np.isnan(ref)], initial=0.0) <= 1e-13
        if phi == 2 / 3:
            # the supply region is the single point 1: no bin has a target
            assert np.isnan(a_t).all()
        if alpha == 400.0:
            assert 2 <= np.isnan(p_t).sum() < bins

    def test_one_quadrature_pass_per_simulate(self, ex_inst, ex_solved, monkeypatch):
        # the targets of the report and of the audit calibration come from
        # one cell integral of P, in one quadrature over all the cells
        calls = []
        real = distributions.quantile_rule
        monkeypatch.setattr(distributions, "quantile_rule",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        simulate(ex_inst, ex_solved.phi_star, 1_000, seed=1)
        cells = len(simulation._cells(ex_inst, ex_solved.partition, 64)[0].mass)
        assert cells == 64 + 2  # cut at gamma1 and gamma3
        assert len(calls) == 1

    def test_subnormal_cell_is_empty(self):
        # under power(400) bin 9 has mass 3.5e-323, too few significant bits
        # to divide by: the bin has no target and no calibrated weight
        inst = ProblemInstance(3, 2, 1, make_power(400.0))
        phi = solve(inst).phi_star
        bin_mass = inst.dist.cdf(10 / 64) - inst.dist.cdf(9 / 64)
        assert 0.0 < bin_mass < np.finfo(float).tiny
        grid, _ = simulation._cells(inst, partition(phi, inst), 64)
        assert grid.bin_mass[9] == 0.0 and grid.mass[grid.bin == 9].max() == 0.0
        report = simulate(inst, phi, 20_000, seed=1)
        assert np.isnan(report.p_target[9]) and report.draws[9] == 0
        for stage in ("lottery", "audit"):
            assert report.stats[stage]["max_residual"] <= 1e-10
        assert report.bins_within_3se_p == report.bins_within_3se_a == 64


def _successive_draws(w, quota):
    """P(each entry is among the first ``quota`` draws), summed over every
    full order of successive weighted draws without replacement."""
    top = np.zeros(len(w))
    for order in itertools.permutations(range(len(w))):
        p, left = 1.0, float(sum(w))
        for j in order:
            p *= w[j] / left
            left -= w[j]
        top[list(order[:quota])] += p
    return top


def _plackett_luce_top(w, quota):
    """P(each column is among the first ``quota`` of a successive weighted
    draw without replacement), row by row of the positive weights ``w``:
    P(the first j draws are the set S) summed over the member of S drawn
    last.  Each step's weight left is the sum of the undrawn weights;
    subtracting the drawn ones, as ``_successive_draws`` does, cancels when
    they dominate (2.3e-4 off on rows of weights 1e-6 and 1e6)."""
    rows, s = w.shape
    layer = {(): np.ones(rows)}
    for _ in range(quota):
        nxt = {}
        for drawn, p in layer.items():
            left = w[:, [i for i in range(s) if i not in drawn]].sum(axis=1)
            for j in set(range(s)) - set(drawn):
                key = tuple(sorted(drawn + (j,)))
                nxt[key] = nxt.get(key, 0.0) + p * w[:, j] / left
        layer = nxt
    top = np.zeros_like(w)
    for drawn, p in layer.items():
        top[:, list(drawn)] += p[:, None]
    return top


def _fraction_top(w, quota):
    """``_plackett_luce_top`` of one row in exact rational arithmetic."""
    layer = {(): Fraction(1)}
    for _ in range(quota):
        nxt = {}
        for drawn, p in layer.items():
            left = sum(x for i, x in enumerate(w) if i not in drawn)
            for j in set(range(len(w))) - set(drawn):
                key = tuple(sorted(drawn + (j,)))
                nxt[key] = nxt.get(key, 0) + p * w[j] / left
        layer = nxt
    return [sum((p for drawn, p in layer.items() if j in drawn), Fraction(0))
            for j in range(len(w))]


def _profiles(inst, part, bins):
    """Every descending profile of the kept type cells of ``_cells``, as
    (bin, region) per position, with its multinomial count and the masses
    of its cells: the enumeration the region-count map replaces."""
    grid, reg = simulation._cells(inst, part, bins)
    keep = np.flatnonzero(grid.mass > 0)
    table = multiset_table(len(keep), inst.n)[:, ::-1]
    count = np.array([math.factorial(inst.n) // math.prod(
        math.factorial(c) for c in np.unique(row, return_counts=True)[1]) for row in table])
    return grid.bin[keep][table], reg[keep][table], count, grid.mass[keep][table]


def _enumerated_rates(inst, part, bins, stage, w, exact=False):
    """Per-bin hit rate of one stage at weights ``w``, summed over every
    profile of type cells, with its draw's Plackett-Luce law; in exact
    rational arithmetic when ``exact``."""
    cell_bin, reg, count, mass = _profiles(inst, part, bins)
    rank = np.arange(inst.n)
    merit = ((reg == 2) & (rank < inst.m)) | ((reg == 1) & (rank < inst.k))
    tallied, pool, quota, sure, choice = simulation._stage_rule(stage, reg, merit,
                                                                inst.m, inst.k)
    if not exact:
        prob = count * np.prod(mass, axis=1)
        draws, hits = (np.bincount(cell_bin.ravel(), (prob[:, None] * (mask & tallied)).ravel(),
                                   bins) for mask in (tallied, sure))
        for q, size in set(zip(quota[choice].tolist(), pool[choice].sum(axis=1).tolist())):
            rows = np.flatnonzero(choice & (quota == q) & (pool.sum(axis=1) == size))
            pool_bins = cell_bin[rows][pool[rows]].reshape(-1, size)
            top = _plackett_luce_top(w[pool_bins], q)
            hits += np.bincount(pool_bins.ravel(), (prob[rows, None] * top).ravel(), bins)
        with np.errstate(invalid="ignore", divide="ignore"):
            return hits / draws
    wf = [Fraction(float(x)) for x in w]
    draws, hits = [Fraction(0)] * bins, [Fraction(0)] * bins
    for row in range(len(count)):
        prob = int(count[row]) * math.prod(Fraction(float(x)) for x in mass[row])
        for j in np.flatnonzero(tallied[row]):
            draws[cell_bin[row, j]] += prob
            hits[cell_bin[row, j]] += prob * sure[row, j]
        if choice[row]:
            members = np.flatnonzero(pool[row])
            top = _fraction_top([wf[cell_bin[row, j]] for j in members], int(quota[row]))
            for j, t in zip(members, top):
                hits[cell_bin[row, j]] += prob * t
    return np.array([float(h / d) if d else np.nan for h, d in zip(hits, draws)])


def _tally(inst, part, weights, stage, rows, seed):
    """Per-bin (hits, draws) of one stage over ``rows`` simulated profiles."""
    bins = len(weights.values)
    flat = BinWeights.uniform(bins)
    lottery_w, audit_w = (weights, flat) if stage == "lottery" else (flat, weights)
    rng = _rng(seed)
    hits, draws = np.zeros(bins), np.zeros(bins)
    for _ in range(rows // 125_000):
        types = simulation._sample_types(inst, 125_000, rng)
        reg, _, lottery, _, audited, _ = _mechanism_batch(
            types, part, inst, lottery_w, audit_w, rng,
            run_lottery=stage == "lottery", run_audit=stage == "audit")
        tallied, hit = (reg <= 1, lottery) if stage == "lottery" else (reg == 2, audited)
        idx = simulation._bin_index(types, bins).ravel()
        hits += np.bincount(idx, weights=(hit & tallied).ravel(), minlength=bins)
        draws += np.bincount(idx, weights=tallied.ravel(), minlength=bins)
    return hits, draws


# lottery pools of up to 5 (n = 5) and 8 (n = 8) agents with quotas up to 3
# and 4, audit pools of 3 and 4 merit winners with quota 2
_MAP_CASES = [
    (3, 2, 1, "star", 64, "lottery"), (3, 2, 1, "star", 64, "audit"),
    (3, 2, 1, 2 / 3, 16, "lottery"), (3, 2, 1, 0.6, 16, "audit"),
    (3, 2, 1, "interleaved", 16, "lottery"), (3, 2, 1, "interleaved", 16, "audit"),
    (5, 3, 1, "star", 8, "lottery"), (5, 3, 1, "star", 8, "audit"),
    (8, 4, 2, "star", 8, "lottery"), (8, 4, 2, "star", 8, "audit"),
]


# more cut runs: an audit pool cut out of the lower supply region (k = 2 of
# a larger supply region), and the interleaved partition with n = 6
_ENUMERATED_CASES = sorted({case[:5] for case in _MAP_CASES}
                           | {(5, 3, 2, "star", 8), (6, 4, 2, "interleaved", 8)}, key=str)


def _map_instance(dist, n, m, k, phi):
    """The instance and partition of a ``_MAP_CASES`` entry."""
    inst = ProblemInstance(n, m, k, dist)
    if phi == "interleaved":
        # regions out of order (supply below and above the audit region): a
        # losing low supply-region type leaves the lottery pool no larger
        # than its quota, so some draws are certain
        return inst, RegionPartition(0.3, "IcAlloAudAllo", 0.2, 0.4, 0.6, (
            RegionInterval(0.0, 0.2, LABEL_IC), RegionInterval(0.2, 0.4, LABEL_ALLO),
            RegionInterval(0.4, 0.6, LABEL_AUD), RegionInterval(0.6, 1.0, LABEL_ALLO)))
    return inst, partition(solve(inst).phi_star if phi == "star" else phi, inst)


def _assert_map_matches_tally(inst, part, bins, stage):
    """The map's rates at random non-flat weights, and its expected tallied
    agents, within 4.5 standard errors of a 1M-profile tally per bin."""
    w = np.exp(np.random.default_rng(bins).normal(0.0, 0.7, bins))
    weights = BinWeights(np.linspace(0.0, 1.0, bins + 1), w)
    smap = simulation._stage_maps(inst, part, bins, (stage,))[stage]
    exact = smap.rate(w)
    hits, draws = _tally(inst, part, weights, stage, 1_000_000, seed=bins)
    active = smap.draws > 0
    assert np.array_equal(active, draws > 0) and active.sum() >= 3
    exact, hits, draws = exact[active], hits[active], draws[active]
    se = np.sqrt(np.clip(exact * (1.0 - exact), 1e-12, None) / draws)
    assert np.max(np.abs(hits / draws - exact) / se) <= 4.5
    expected = 1_000_000 * smap.draws[active]
    assert np.max(np.abs(draws - expected) / np.sqrt(expected)) <= 4.5


def _plain_fit(smap, target):
    """The plain multiplicative fixed point that the exact fit accelerates:
    w <- w * target / rate per bin, normalised to unit geometric mean over
    the active bins and clipped to [1e-6, 1e6].  Weights and the number of
    evaluations of the map, or None when it stalls."""
    active = (smap.draws > 0) & np.isfinite(target)
    w = np.ones(len(target))
    for it in range(1, simulation._EXACT_MAX_ITER + 1):
        rate = smap.rate(w)
        if np.max(np.abs(rate - target)[active], initial=0.0) <= simulation._EXACT_TOL:
            return w, it
        w = np.where(active & (rate > 0), w * target / np.where(rate > 0, rate, 1.0), w)
        w = np.clip(w / np.exp(np.mean(np.log(w[active]))), 1e-6, 1e6)
    return None


class TestExactMap:
    """The exact interim map against brute force and a Monte Carlo tally."""

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_plackett_luce_matches_successive_draws(self, size):
        # the enumeration oracle's draw law, against every order of draws
        rng = np.random.default_rng(size)
        rows = [np.ones(size), rng.uniform(0.1, 5.0, size), rng.uniform(0.1, 5.0, size),
                np.array([1e-3] + [1.0] * (size - 1))]
        w = np.array(rows)
        for quota in range(1, size):
            top = _plackett_luce_top(w, quota)
            brute = np.array([_successive_draws(row, quota) for row in w])
            np.testing.assert_allclose(top, brute, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(top[0], quota / size, rtol=1e-14)
            np.testing.assert_allclose(top.sum(axis=1), quota, rtol=1e-13)

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_plackett_luce_matches_fraction_sums_at_extreme_weights(self, size):
        # weights 1e-6 and 1e6, the ends of the fit's clip range
        w = np.where(np.random.default_rng(size).random((40, size)) < 0.5, 1e-6, 1e6)
        for quota in range(1, size):
            top = _plackett_luce_top(w, quota)
            exact = np.array([[float(x) for x in _fraction_top(
                [Fraction(float(x)) for x in row], quota)] for row in w])
            assert np.max(np.abs(top - exact)) <= 1e-13

    def test_profiles_are_a_distribution(self, ex_inst, ex_part):
        # the enumeration oracle's profiles
        cell_bin, _, count, mass = _profiles(ex_inst, ex_part, 64)
        prob = count * np.prod(mass, axis=1)
        assert len(prob) == 50_116
        assert prob.sum() == pytest.approx(1.0, abs=1e-12)
        # each agent's bin has the bin's mass: n agents, 1/64 each
        per_bin = np.bincount(cell_bin.ravel(), weights=np.repeat(prob, 3), minlength=64)
        np.testing.assert_allclose(per_bin, 3 / 64, rtol=1e-12)

    def test_draws_spread_the_agents_over_the_bins(self, ex_inst, ex_part):
        # the lottery tallies the incentive and audit regions, the audit the
        # supply region: together every agent, n times each bin's mass
        maps = simulation._stage_maps(ex_inst, ex_part, 64, ("lottery", "audit"))
        np.testing.assert_allclose(maps["lottery"].draws + maps["audit"].draws, 3 / 64,
                                   rtol=1e-13)

    @pytest.mark.parametrize("n, m, k, phi, bins", _ENUMERATED_CASES)
    def test_map_matches_enumeration(self, uniform, n, m, k, phi, bins):
        inst, part = _map_instance(uniform, n, m, k, phi)
        maps = simulation._stage_maps(inst, part, bins, ("lottery", "audit"))
        for sigma in (0.0, 0.7, 4.0):
            w = np.exp(np.random.default_rng(bins).normal(0.0, sigma, bins))
            for stage, smap in maps.items():
                reference = _enumerated_rates(inst, part, bins, stage, w)
                active = smap.draws > 0
                assert np.array_equal(active, ~np.isnan(reference))
                assert np.max(np.abs(smap.rate(w) - reference)[active], initial=0.0) <= 1e-9

    @pytest.mark.parametrize("pieces", [
        ((0.5, LABEL_AUD), (1.0, LABEL_ALLO)),
        ((0.3, LABEL_ALLO), (0.6, LABEL_AUD), (1.0, LABEL_ALLO)),
        ((0.2, LABEL_IC), (0.5, LABEL_ALLO), (1.0, LABEL_AUD))])
    @pytest.mark.parametrize("n, m, k, bins", [(4, 3, 1, 4), (5, 3, 2, 3)])
    def test_map_matches_enumeration_without_some_regions(self, pieces, n, m, k, bins):
        # hand-built partitions with no incentive region, or with supply
        # below the audit region and none above it
        inst = ProblemInstance(n, m, k, make_power(2.0))
        ends = (0.0,) + tuple(hi for hi, _ in pieces)
        part = RegionPartition(0.3, "hand-built", 0.2, 0.4, 0.6, tuple(
            RegionInterval(lo, hi, label) for lo, (hi, label) in zip(ends, pieces)))
        maps = simulation._stage_maps(inst, part, bins, ("lottery", "audit"))
        w = np.exp(np.random.default_rng(bins).normal(0.0, 0.8, bins))
        for stage, smap in maps.items():
            reference = _enumerated_rates(inst, part, bins, stage, w)
            active = smap.draws > 0
            assert np.array_equal(active, ~np.isnan(reference)) and active.any()
            assert np.max(np.abs(smap.rate(w) - reference)[active]) <= 1e-9

    @pytest.mark.parametrize("n, m, k, phi, bins", [
        (3, 2, 1, "star", 8), (3, 2, 1, "interleaved", 8), (6, 4, 2, "interleaved", 4)])
    def test_map_matches_fraction_sums_at_extreme_weights(self, uniform, n, m, k, phi, bins):
        inst, part = _map_instance(uniform, n, m, k, phi)
        maps = simulation._stage_maps(inst, part, bins, ("lottery", "audit"))
        w = np.where(np.random.default_rng(bins).random(bins) < 0.5, 1e-6, 1e6)
        for stage, smap in maps.items():
            exact = _enumerated_rates(inst, part, bins, stage, w, exact=True)
            active = smap.draws > 0
            assert np.array_equal(active, ~np.isnan(exact)) and active.sum() >= 2
            assert np.max(np.abs(smap.rate(w) - exact)[active]) <= 1e-12

    @pytest.mark.parametrize("n, m, k, phi, bins, stage", _MAP_CASES)
    def test_map_matches_monte_carlo_tally(self, uniform, n, m, k, phi, bins, stage):
        _assert_map_matches_tally(*_map_instance(uniform, n, m, k, phi), bins, stage)

    @pytest.mark.parametrize("stage", ["lottery", "audit"])
    def test_map_matches_monte_carlo_tally_at_twelve_agents(self, stage):
        # 455 splits of 12 agents over four region blocks, where the
        # profiles of 64 bins' cells would number about 1.4e13
        inst = ProblemInstance(12, 6, 2, make_power(0.3))
        _assert_map_matches_tally(inst, partition(solve(inst).phi_star, inst), 64, stage)

    @pytest.mark.parametrize("n, m, k, phi, bins, stage", _MAP_CASES)
    def test_fit_matches_plain_fixed_point(self, uniform, n, m, k, phi, bins, stage):
        inst, part = _map_instance(uniform, n, m, k, phi)
        rules = merit_with_guarantee(part.phi, inst, part)
        target = (np.full(bins, part.phi) if stage == "lottery"
                  else simulation._cell_targets(inst, part, rules, bins)[2])
        smap = simulation._stage_maps(inst, part, bins, (stage,))[stage]
        reference = _plain_fit(smap, target)
        if reference is None:
            # the unreachable targets of 0.6 and the interleaved partition
            with pytest.raises(CalibrationError):
                simulation._fit_exact(smap, target, stage)
            return
        fitted = simulation._fit_exact(smap, target, stage)
        active = (smap.draws > 0) & np.isfinite(target)
        assert np.max(np.abs(smap.rate(fitted.values) - target)[active],
                      initial=0.0) <= simulation._EXACT_TOL
        # bins with no target enter no draw: their weights are free
        np.testing.assert_allclose(fitted.values[active], reference[0][active], rtol=1e-6)
        assert fitted.stats["iterations"] <= reference[1]

    def test_fit_iterations_at_the_paper_instance(self, ex_inst, ex_solved):
        part = ex_solved.partition
        rules = merit_with_guarantee(part.phi, ex_inst, part)
        maps = simulation._stage_maps(ex_inst, part, 64, ("lottery", "audit"))
        targets = {"lottery": np.full(64, part.phi),
                   "audit": simulation._cell_targets(ex_inst, part, rules, 64)[2]}
        for stage, target in targets.items():
            # the plain fixed point takes 59 (lottery) and 69 (audit)
            assert simulation._fit_exact(maps[stage], target, stage).stats["iterations"] <= 25

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unreachable_lottery_target_stalls(self, ex_inst, ex_part):
        # the lowest bin asks to win 0.99 of the time, which no weights give
        # (two merit winners leave no object); the other bins' targets are
        # scaled so the total is the one the lottery hands out, so the fit
        # cannot refuse the targets at once and must stall on finite weights,
        # without an overflow on the way
        smap = simulation._stage_maps(ex_inst, ex_part, 16, ("lottery",))["lottery"]
        rate = smap.rate(np.ones(16))
        target = rate.copy()
        target[0] = 0.99
        # (bins without draws have no rate and no target)
        target[1:] *= 1 + smap.draws[0] * (rate[0] - 0.99) / np.nansum(smap.draws[1:] * rate[1:])
        with pytest.raises(CalibrationError, match="lottery calibration stalled") as err:
            simulation._fit_exact(smap, target, "lottery")
        # the error names the lowest bin, its rate and target, and its weight
        message = str(err.value)
        assert "type bin [0, 0.0625)" in message
        hit, goal = map(float, re.findall(r"rate ([0-9.e-]+) against its target ([0-9.e-]+)",
                                          message)[0])
        assert goal == pytest.approx(0.99) and hit < goal
        assert re.search(r"with weight [0-9.e+-]+ (held at the clip bound 1e-?6|inside)", message)

    @pytest.mark.parametrize("stage", ["lottery", "audit"])
    def test_target_total_out_of_reach_raises_after_one_evaluation(
            self, ex_inst, ex_part, uniform, monkeypatch, stage):
        # lottery: phi = 0.9 for every eligible type asks for more objects
        # than merit leaves; audit: at (4,2,1) and phi = 0.35 the supply
        # region's targets sum to 0.6 audits per profile where the stage
        # makes 0.6876 whatever the weights; both fail at flat weights
        if stage == "lottery":
            inst, part, bins, target = ex_inst, ex_part, 16, np.full(16, 0.9)
        else:
            inst, bins = ProblemInstance(4, 2, 1, uniform), 64
            part = partition(0.35, inst)
            target = simulation._cell_targets(
                inst, part, merit_with_guarantee(0.35, inst, part), bins)[2]
        smap = simulation._stage_maps(inst, part, bins, (stage,))[stage]
        calls = []
        real = simulation._StageMap.rate

        def counted(self, w):
            calls.append(w.copy())
            return real(self, w)

        monkeypatch.setattr(simulation._StageMap, "rate", counted)
        with pytest.raises(CalibrationError, match=rf"{stage} target unreachable: the stage "
                                                   r"hits [0-9.]+ agents per profile") as err:
            simulation._fit_exact(smap, target, stage)
        assert len(calls) == 1 and np.all(calls[0] == 1.0)
        hits, goal = map(float, re.findall(r"hits ([0-9.]+) .* ask for ([0-9.]+)",
                                           str(err.value))[0])
        if stage == "audit":
            assert (hits, goal) == (0.687591, 0.6)
        else:
            assert hits < goal

    def test_lottery_total_does_not_depend_on_the_weights_at_the_cap(self):
        # every lottery object left by merit is drawn, so the expected wins
        # summed over the bins are the same at any weights; with a first race
        # panel of [0, 1/w_max] the sum at flat weights was 8.9e-8 off here
        n = 24
        inst = ProblemInstance(n, n // 3, 3, make_uniform())
        smap = simulation._stage_maps(inst, partition(solve(inst).phi_star, inst), 16,
                                      ("lottery",))["lottery"]
        active = smap.draws > 0
        totals = [np.sum(smap.rate(np.exp(np.random.default_rng(1).normal(0.0, sigma, 16)))
                         [active] * smap.draws[active]) for sigma in (0.0, 0.05, 2.0)]
        assert np.ptp(totals) <= 1e-12


class TestSimulate:
    def test_empty_run(self, ex_inst):
        report = simulate(ex_inst, PHI, 0, seed=1)
        assert report.trials == 0
        assert report.capacity_violations == 0
        assert report.payoff_total == 0.0
        assert report.bins_within_3se_p == report.bins

    def test_small_run_consistency(self, ex_inst, ex_solved):
        report = simulate(ex_inst, ex_solved.phi_star, 150_000, seed=11, bins=32)
        assert report.capacity_violations == 0
        assert abs(report.payoff_total - ex_solved.payoff) < 0.02
        # generous bands for the small run
        assert report.bins - report.bins_within_3se_p <= 3
        assert report.bins - report.bins_within_3se_a <= 3
        # merit stage alone reproduces its interim form
        dev = np.abs(report.merit_hat - report.merit_target)
        se = np.sqrt(np.clip(report.merit_target * (1 - report.merit_target),
                             1e-12, None) / np.maximum(report.draws, 1))
        assert int(np.sum(dev > 4 * se)) <= 3

    def test_guarantee_region_hits_phi(self, ex_inst, ex_solved):
        report = simulate(ex_inst, ex_solved.phi_star, 150_000, seed=13, bins=32)
        part = ex_solved.partition
        mids = 0.5 * (report.bin_edges[:-1] + report.bin_edges[1:])
        low = mids < part.gamma1 - 1.0 / 32
        assert np.allclose(report.p_target[low], ex_solved.phi_star, atol=1e-9)
        assert np.max(np.abs(report.p_hat[low] - ex_solved.phi_star)) < 0.02

    def test_pure_lottery_limit(self, ex_inst):
        # phi = m/n: every type should receive with probability about m/n
        report = simulate(ex_inst, 2 / 3, 60_000, seed=17, bins=16)
        assert report.capacity_violations == 0
        assert np.max(np.abs(report.p_hat - 2 / 3)) < 0.03

    def test_deterministic_reports(self, ex_inst, ex_solved):
        a = simulate(ex_inst, ex_solved.phi_star, 60_000, seed=99, bins=16)
        b = simulate(ex_inst, ex_solved.phi_star, 60_000, seed=99, bins=16)
        assert np.array_equal(a.p_hat, b.p_hat)
        assert np.array_equal(a.a_hat, b.a_hat)
        assert a.payoff_total == b.payoff_total
        assert json.dumps(a.to_record(), sort_keys=True) == json.dumps(
            b.to_record(), sort_keys=True
        )

    def test_stats_add_up_to_the_batch_rows(self, ex_inst, ex_solved, monkeypatch):
        # the exact map calibrates both stages without running the kernel
        rows = _count_batch_rows(monkeypatch)
        report = simulate(ex_inst, ex_solved.phi_star, 30_000, seed=5, bins=16)
        stats = report.stats
        assert stats["main_rows"] == 30_000
        assert sum(rows) == 30_000
        for stage in ("lottery", "audit"):
            assert stats[stage]["iterations"] >= 1
            assert stats[stage]["v_nodes"] > 0 and stats[stage]["x_nodes"] > 0
            assert 0.0 <= stats[stage]["max_residual"] <= 1e-10
        assert "stats" not in report.to_record()

        rows.clear()
        again = simulate(ex_inst, ex_solved.phi_star, 30_000, seed=5, bins=16,
                         lottery_weights=BinWeights.uniform(16),
                         audit_weights=BinWeights.uniform(16))
        assert again.stats.keys() == {"main_rows", "main_draw_rows"}
        assert sum(rows) == 30_000

    def test_main_draw_rows_repeat_and_stay_out_of_the_record(self, ex_inst, ex_solved):
        runs = [simulate(ex_inst, ex_solved.phi_star, 40_000, seed=21, bins=16)
                for _ in range(2)]
        drawn = runs[0].stats["main_draw_rows"]
        assert drawn == runs[1].stats["main_draw_rows"]
        # about 43% of the rows draw in the lottery and 57% in the audit
        assert drawn.keys() == {"lottery", "audit"}
        assert 0 < drawn["lottery"] < drawn["audit"] < 40_000
        record = runs[0].to_record()
        assert record.keys() == {
            "trials", "seed", "phi", "bins", "capacity_violations", "payoff_total",
            "max_dev_p", "max_dev_a", "bins_within_3se_p", "bins_within_3se_a"}
        assert json.dumps(record, sort_keys=True) == json.dumps(runs[1].to_record(),
                                                                sort_keys=True)

    def test_csv_export(self, tmp_path, ex_inst):
        report = simulate(ex_inst, PHI, 5_000, seed=3, bins=8)
        path = tmp_path / "sim.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("t_mid,draws,P_target,P_hat")


class TestLargerInstances:
    """Instances whose profiles of type cells are too many to enumerate: the
    map conditions on the merit cut, so nothing is simulated to calibrate."""

    def test_stats_add_up_to_the_batch_rows(self, monkeypatch):
        # (4,2,1) at 64 bins has 864,501 cell multisets
        inst = ProblemInstance(4, 2, 1, make_uniform())
        phi = solve(inst).phi_star
        rows = _count_batch_rows(monkeypatch)
        runs = [simulate(inst, phi, 500, seed=seed) for seed in (1, 2)]
        assert rows == [500, 500]
        for stage in ("lottery", "audit"):
            stats = runs[0].stats[stage]
            assert stats == runs[1].stats[stage]
            assert stats["max_residual"] <= 1e-10
        assert runs[0].capacity_violations == 0

    def test_unreachable_audit_target_raises(self, monkeypatch):
        # at phi = 0.4 the supply region starts at 0.825: a lone merit winner
        # there is always audited, more often than its target allows
        inst = ProblemInstance(4, 2, 1, make_uniform())
        part = partition(0.4, inst)
        rules = merit_with_guarantee(0.4, inst, part)
        rows = _count_batch_rows(monkeypatch)
        with pytest.raises(CalibrationError,
                           match=r"audit target unreachable in type bin \[0.8125, 0.875\)"):
            calibrate_audit(inst, part, rules, bins=16)
        assert rows == []


    @pytest.mark.parametrize("n, m, k", [(100, 50, 10), (200, 100, 20)])
    def test_lottery_total_does_not_depend_on_the_weights_at_large_n(self, n, m, k):
        # the race rule's panels narrow as 4 / sqrt(n) above 16 agents: with
        # unit panels these totals drifted by 6.1e-10 and 1.2e-8 relative
        inst = ProblemInstance(n, m, k, make_uniform())
        smap = simulation._stage_maps(inst, partition(solve(inst).phi_star, inst), 16,
                                      ("lottery",))["lottery"]
        active = smap.draws > 0
        totals = [np.sum(smap.rate(np.exp(np.random.default_rng(1).normal(0.0, sigma, 16)))
                         [active] * smap.draws[active]) for sigma in (0.0, 1.0, 4.0)]
        assert np.ptp(totals) <= 1e-12 * np.mean(totals)

    def test_calibrates_both_stages_at_a_hundred_agents(self):
        # a stochastic fit of these weights was seen to fail here
        inst = ProblemInstance(100, 50, 10, make_uniform())
        report = simulate(inst, solve(inst).phi_star, 2_000, seed=1)
        assert report.capacity_violations == 0
        for stage in ("lottery", "audit"):
            assert report.stats[stage]["max_residual"] <= 1e-10


class TestEpicWitness:
    def test_reference_witness(self, ex_inst, ex_solved):
        w = epic_counterexample(ex_inst, ex_solved.phi_star)
        assert isinstance(w, EpicWitness)
        assert w.truthful_allocation_prob == 0.0
        assert w.escape_probability_bound == pytest.approx(0.5)
        assert w.agent == 0
        assert len(w.merit_winners_truthful) == ex_inst.m
        assert w.agent not in w.merit_winners_truthful
        assert w.agent in w.merit_winners_deviating
        part = ex_solved.partition
        assert part.region_of(w.deviation_report) == "allo"

    def test_witness_profile_allocates_nothing_to_agent(self, ex_inst, ex_solved):
        w = epic_counterexample(ex_inst, ex_solved.phi_star)
        part = ex_solved.partition
        winners = merit_allocate(list(w.profile), part, ex_inst)
        assert w.agent not in winners
        assert len(winners) == ex_inst.m  # no object remains for the lottery

    def test_deviation_within_guarantee_region_gains_nothing(self, ex_inst, ex_solved):
        w = epic_counterexample(ex_inst, ex_solved.phi_star)
        part = ex_solved.partition
        profile = list(w.profile)
        profile[w.agent] = 0.99 * part.gamma1  # still below the first cutoff
        winners = merit_allocate(profile, part, ex_inst)
        assert w.agent not in winners
        assert len(winners) == ex_inst.m  # lottery still receives nothing

    def test_escape_bound_general(self):
        inst = ProblemInstance(6, 4, 1, make_uniform())
        from verialloc.optimizer import solve

        rep = solve(inst)
        w = epic_counterexample(inst, rep.phi_star)
        assert w.escape_probability_bound == pytest.approx(0.75)

    def test_degenerate_supply_region_rejected(self, ex_inst):
        # at phi = m/n the supply region collapses to the single point 1
        with pytest.raises(ValueError):
            epic_counterexample(ex_inst, 2 / 3)
