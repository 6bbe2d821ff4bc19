"""Ex-post simulation of the two-stage mechanism on sampled type profiles.

Stage one (merit) is deterministic: with all reports distinct, an agent
wins an object if her type is in the supply region and among the m highest
reports, or in the audit region and among the k highest; exact ties
allocate nothing.  Stage two is a weighted lottery over agents from the
audit and incentive regions who hold no object yet; stage three audits
merit winners, always including audit-region winners and filling the
remaining capacity from supply-region winners by weighted selection.

The lottery and audit-selection weights are piecewise-constant over type
bins and are calibrated so the interim probabilities hit their targets:
every audit/incentive-region type wins the lottery with probability phi,
and every supply-region type is audited with probability P(t) - phi.
Weighted draws without replacement are exponential races: each pool
member arrives at E / w with E ~ Exp(1) and the first arrivals are drawn
(successive-draws semantics, i.e. Plackett-Luce).  Only rows whose draw
is a real choice, 0 < quota < pool size, draw any variates.  Each
stage's per-bin hit rate is computed exactly by conditioning on the order
statistic at which merit cuts the pool's block (``_stage_maps``), and the
weights are fitted on it by an Anderson-accelerated fixed point: at every
n they depend on nothing random, and no profile is simulated to fit them.

All randomness of the main pass flows through counter-based Philox streams
keyed by (seed, stage, chunk), so a report is a pure function of its seed.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import CellGrid, cell_grid
from .envelope import (
    LABEL_ALLO,
    LABEL_AUD,
    LABEL_IC,
    ProblemInstance,
    RegionPartition,
    _anchor_pmf,
    _binom_cdf,
    partition,
)
from .flows import _sorted_columns
from .interim import InterimRules, merit_with_guarantee

_REGION_CODE = {LABEL_IC: 0, LABEL_AUD: 1, LABEL_ALLO: 2}
_CHUNK = 250_000


class CalibrationError(RuntimeError):
    """Raised when no weights reach a stage's targets, or the fit fails to."""


def _bin_index(types: np.ndarray, bins: int) -> np.ndarray:
    """Index of each type's bin among ``bins`` equal bins of [0, 1]."""
    return np.clip((types * bins).astype(np.int64), 0, bins - 1)


@dataclass(frozen=True)
class BinWeights:
    """Piecewise-constant positive weights over equal type bins.

    ``edges`` must be ``linspace(0, 1, len(values) + 1)``: a type's weight
    is read by the same floor(t * bins) index the simulation tallies use.
    ``stats`` describes the calibration that fitted the weights, if any:
    the exact map's ``v_nodes`` (its nodes in the merit cut's order
    statistic) and ``x_nodes`` (its race nodes at the fitted weights), the
    fit's ``iterations`` (evaluations of the map) and the largest final
    |rate - target|, ``max_residual``.
    """

    edges: np.ndarray
    values: np.ndarray
    stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        bins = len(self.values)
        if bins < 1 or not np.array_equal(self.edges, np.linspace(0.0, 1.0, bins + 1)):
            raise ValueError(
                "BinWeights needs at least one value and the uniform edges "
                "linspace(0, 1, len(values) + 1)"
            )

    @classmethod
    def uniform(cls, bins: int) -> "BinWeights":
        return cls(edges=np.linspace(0.0, 1.0, bins + 1), values=np.ones(bins))

    def lookup(self, t: np.ndarray) -> np.ndarray:
        return self.values[_bin_index(t, len(self.values))]


# flat weights for the merit-only pass, which draws nothing, and for an
# unweighted audit draw
_FLAT = BinWeights.uniform(1)


@dataclass(frozen=True, eq=False)
class SimReport:
    """Binned empirical interim rules versus their targets.

    ``stats`` counts the work behind it: ``main_rows`` profiles in the main
    pass, ``main_draw_rows`` of them whose ``lottery`` and ``audit`` draws
    had a real choice and, for each stage calibrated here (``lottery``,
    ``audit``), the ``stats`` of its fitted weights (``BinWeights``), which
    no seed changes.  It is left out of ``to_record()``, which holds
    results only.
    """

    trials: int
    seed: int
    phi: float
    bin_edges: np.ndarray
    draws: np.ndarray
    p_target: np.ndarray
    p_hat: np.ndarray
    a_target: np.ndarray
    a_hat: np.ndarray
    merit_target: np.ndarray
    merit_hat: np.ndarray
    stderr_p: np.ndarray
    stderr_a: np.ndarray
    max_dev_p: float
    max_dev_a: float
    bins_within_3se_p: int
    bins_within_3se_a: int
    capacity_violations: int
    payoff_total: float
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def bins(self) -> int:
        return len(self.draws)

    def to_record(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "phi": self.phi,
            "bins": self.bins,
            "capacity_violations": self.capacity_violations,
            "payoff_total": self.payoff_total,
            "max_dev_p": self.max_dev_p,
            "max_dev_a": self.max_dev_a,
            "bins_within_3se_p": self.bins_within_3se_p,
            "bins_within_3se_a": self.bins_within_3se_a,
        }

    def to_csv(self, path) -> None:
        mids = 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["t_mid", "draws", "P_target", "P_hat", "A_target", "A_hat",
                 "stderr_P", "stderr_A"]
            )
            for row in zip(mids, self.draws, self.p_target, self.p_hat,
                           self.a_target, self.a_hat, self.stderr_p, self.stderr_a):
                writer.writerow([f"{x:.12g}" for x in row])


def _philox(seed: int, stage: int, round_id: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, stage, round_id]))
    )


def _regions(types: np.ndarray, part: RegionPartition) -> np.ndarray:
    """Region code of every type: 0 incentive, 1 audit, 2 supply."""
    codes = np.array([_REGION_CODE[iv.label] for iv in part.intervals], dtype=np.int8)
    return codes[part.region_codes(types)]


def _row_count(mask: np.ndarray) -> np.ndarray:
    """Number of set entries in each row of a 2-d mask.  einsum's summing
    loop is several times faster than ``sum(axis=1)`` on short rows, and
    faster again on bytes, which hold counts up to 255."""
    if mask.shape[1] < 256:
        return np.einsum("ij->i", mask.view(np.uint8)).astype(np.int64)
    return np.einsum("ij->i", mask, dtype=np.int64)


def _top_quota(keys: np.ndarray, quota: np.ndarray) -> np.ndarray:
    """Entries ranked below ``quota`` when their row is sorted descending,
    exact ties ranked by column as a stable sort would.

    One sort of the keys into columns (``_sorted_columns``): an entry is
    kept when it reaches its row's quota-th largest key.  Only a row whose
    next key equals that threshold can have more than ``quota`` entries
    reach it; there the entries at the threshold are kept in column order
    until the quota is full.
    """
    rows, n = keys.shape
    q = np.clip(quota, 0, n)
    asc = np.asarray(_sorted_columns(keys))  # one n x rows array for the gathers
    at = n - np.maximum(q, 1)
    r = np.arange(rows)
    kth = asc[at, r]
    top = (keys >= kth[:, None]) & (q > 0)[:, None]
    tied = np.flatnonzero((q > 0) & (q < n) & (asc[np.maximum(at - 1, 0), r] == kth))
    if tied.size:
        sub, thr = keys[tied], kth[tied, None]
        above = sub > thr
        at_thr = sub == thr
        room = q[tied] - _row_count(above)
        top[tied] = above | (at_thr & (np.cumsum(at_thr, axis=1) <= room[:, None]))
    return top


def _race_pick(pool: np.ndarray, quota: np.ndarray, rows: np.ndarray,
               types: np.ndarray, weights: BinWeights,
               rng: np.random.Generator) -> np.ndarray:
    """Weighted draw of ``quota`` members of ``pool`` on each of ``rows``,
    without replacement, as an exponential race: each member arrives at
    E / w with E ~ Exp(1), and the first ``quota`` to arrive are drawn.
    This is the successive-draws (Plackett-Luce) law (Efraimidis & Spirakis
    2006).  Only ``rows`` draw, one exponential per entry."""
    picked = np.zeros_like(pool)
    if rows.size:
        arrival = rng.standard_exponential((rows.size, pool.shape[1]))
        arrival /= weights.lookup(types[rows])
        keys = np.where(pool[rows], -arrival, -np.inf)
        picked[rows] = _top_quota(keys, quota[rows])
    return picked


def _merit_stage(types, reg, m: int, k: int):
    """Merit winners (supply-region types among the m highest reports,
    audit-region types among the k highest) and the rows with an exact tie,
    which allocate nothing.

    One sort of the batch into columns (``_sorted_columns``): in a row
    without ties, "among the c highest" is "at least the row's c-th largest
    report", and a tie is two equal neighbours in the sorted row.
    """
    n = types.shape[1]
    asc = _sorted_columns(types)
    tie = np.zeros(len(types), dtype=bool)
    for lo, hi in zip(asc, asc[1:]):
        tie |= lo == hi
    merit = (~tie)[:, None] & (((reg == 2) & (types >= asc[max(n - m, 0)][:, None]))
                               | ((reg == 1) & (types >= asc[max(n - k, 0)][:, None])))
    return merit, tie


def _stage_rule(stage: str, reg: np.ndarray, merit: np.ndarray, m: int, k: int):
    """The weighted draw of the lottery or the audit stage on rows of region
    codes and merit winners, as (tallied, pool, quota, sure, choice): each
    row draws ``quota`` members of ``pool``, ``sure`` are the hits no weight
    can move, ``tallied`` are the agents whose hit rate the stage's weights
    fit, and ``choice`` marks the rows with a real choice, 0 < quota < pool
    size.

    Lottery: the objects the merit stage left go to the audit/incentive-region
    agents without one, and all of them win when the objects suffice.
    Audit: all merit winners are audited when they fit k; otherwise every
    audit-region winner is (they are among the k highest), and a draw of
    supply-region winners fills the remaining slots.
    """
    won = _row_count(merit)
    if stage == "lottery":
        tallied = reg <= 1
        pool = tallied & ~merit
        size = _row_count(pool)
        quota = np.minimum(m - won, size)
        sure = pool & (quota == size)[:, None]
        return tallied, pool, quota, sure, (quota > 0) & (quota < size)
    tallied = reg == 2
    over = won > k
    pool = merit & tallied & over[:, None]
    # with more than k winners the pool outnumbers the slots left
    quota = np.where(over, k - _row_count(merit & (reg == 1)), 0)
    return tallied, pool, quota, merit & ~pool, quota > 0


def _stage_pick(stage: str, types, reg, merit, m: int, k: int,
                weights: BinWeights, rng, draw_rows: Optional[dict] = None) -> np.ndarray:
    """Hits of one stage's draw: its sure hits and a race pick on the rows
    with a real choice, whose number is added to ``draw_rows[stage]``."""
    _, pool, quota, sure, choice = _stage_rule(stage, reg, merit, m, k)
    rows = np.flatnonzero(choice)
    if draw_rows is not None:
        draw_rows[stage] += rows.size
    return sure | _race_pick(pool, quota, rows, types, weights, rng)


def _mechanism_batch(types: np.ndarray, part: RegionPartition,
                     inst: ProblemInstance, lottery_w: BinWeights,
                     audit_w: BinWeights, rng: np.random.Generator,
                     *, run_lottery: bool = True, run_audit: bool = True,
                     draw_rows: Optional[dict] = None):
    """One vectorized pass of merit, lottery and audit over sampled profiles.

    Returns (region codes, merit, lottery, allocated, audited, tie) masks.
    The rows whose draw had a real choice are counted into ``draw_rows``
    by stage, when it is given.
    """
    m, k = inst.m, inst.k
    reg = _regions(types, part)
    merit, tie = _merit_stage(types, reg, m, k)

    if run_lottery:
        lottery = (~tie)[:, None] & _stage_pick("lottery", types, reg, merit, m, k,
                                                lottery_w, rng, draw_rows)
    else:
        lottery = np.zeros_like(merit)
    allocated = merit | lottery

    if run_audit:
        audited = _stage_pick("audit", types, reg, merit, m, k, audit_w, rng, draw_rows)
    else:
        audited = np.zeros_like(merit)

    return reg, merit, lottery, allocated, audited, tie


# ---------------------------------------------------------------------------
# scalar operations (single profile)
# ---------------------------------------------------------------------------

def _row_set(mask: np.ndarray) -> frozenset:
    return frozenset(np.flatnonzero(mask[0]).tolist())


def merit_allocate(profile, part: RegionPartition, inst: ProblemInstance) -> frozenset:
    """Winners of the deterministic merit stage at one profile of reports.

    An agent wins iff all reports are distinct and her report is either in
    the supply region and among the m highest, or in the audit region and
    among the k highest.  Any exact tie allocates nothing.
    """
    types = np.asarray(profile, dtype=float)[None, :]
    _, merit, _, _, _, _ = _mechanism_batch(
        types, part, inst, _FLAT, _FLAT, None, run_lottery=False, run_audit=False,
    )
    return _row_set(merit)


def lottery_allocate(profile, merit_winners, weights: BinWeights,
                     rng: np.random.Generator, part: RegionPartition,
                     inst: ProblemInstance) -> frozenset:
    """Second-stage winners: a weighted draw without replacement of the
    remaining objects among audit/incentive-region agents not yet holding
    an object.  Supply-region losers never enter."""
    types = np.asarray(profile, dtype=float)[None, :]
    merit = np.zeros(types.shape, dtype=bool)
    merit[0, list(merit_winners)] = True
    return _row_set(_stage_pick("lottery", types, _regions(types, part), merit,
                                inst.m, inst.k, weights, rng))


def audit_select(profile, stage_labels, rng: np.random.Generator,
                 part: RegionPartition, inst: ProblemInstance,
                 weights: Optional[BinWeights] = None) -> frozenset:
    """Choose whom to verify among this profile's merit winners.

    All merit winners are audited when they fit the capacity k; otherwise
    every audit-region winner is audited (they are among the k highest, so
    any excess is in the supply region) and the remaining slots go to
    supply-region winners by weighted draw.  Lottery winners are never
    audited: their truthfulness has no allocation consequence.
    """
    if weights is None:
        weights = _FLAT
    types = np.asarray(profile, dtype=float)[None, :]
    merit = np.array([[label == "merit" for label in stage_labels]])
    return _row_set(_stage_pick("audit", types, _regions(types, part), merit,
                                inst.m, inst.k, weights, rng))


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def _cells(inst: ProblemInstance, part: RegionPartition,
           bins: int) -> tuple[CellGrid, np.ndarray]:
    """The ``bins`` uniform bins cut again at the region cutoffs, so each
    cell lies in one bin and one region, and each cell's region code."""
    grid = cell_grid(inst.dist, bins, [iv.lo for iv in part.intervals])
    return grid, _regions(0.5 * (grid.lo + grid.hi), part)


def _cell_targets(inst: ProblemInstance, part: RegionPartition,
                  rules: InterimRules, bins: int):
    """Per-bin means of P, of the merit stage alone (P - phi on the audit
    region, P on the supply region, 0 on the incentive region) and of the
    audit probability P - phi of a supply-region type, from one integral
    of P dF per cell.  Bin means, not midpoint samples, are the correct
    comparison for binned empirical frequencies.
    """
    grid, reg = _cells(inst, part, bins)
    p_mass = grid.integrate(rules.P)
    phi_mass = rules.phi * grid.mass
    merit = np.where(reg == 2, p_mass, np.where(reg == 1, p_mass - phi_mass, 0.0))
    supply = reg == 2
    audit = grid.bin_mean(np.where(supply, p_mass - phi_mass, 0.0),
                          np.where(supply, grid.mass, 0.0))
    return grid.bin_mean(p_mass), grid.bin_mean(merit), audit


def bin_targets(inst: ProblemInstance, rules: InterimRules,
                edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin-averaged targets for P, A = P - phi and the merit stage alone."""
    p_t, m_t, _ = _cell_targets(inst, rules.partition, rules, len(edges) - 1)
    return p_t, p_t - rules.phi, m_t


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

# The fit stops when every bin is within _EXACT_TOL of its target.
_EXACT_TOL = 1e-10
_EXACT_MAX_ITER = 2_000
# the exact fit's Anderson depth and its log-weight bound, log(1e6)
_ANDERSON_DEPTH = 5
_LOG_CLIP = math.log(1e6)

# The race integral's rule in x: 12 Gauss-Legendre nodes on each panel of
# ``_race_nodes``.  Against exact Fraction sums over every profile, with
# weights spread up to 1e12, the rates were within 3.7e-15 (16 nodes:
# 5.6e-16; 10 nodes, even on the wider range [1e-2/w_hi, 60/w_lo]: 9.0e-13).
_RACE_X, _RACE_W = np.polynomial.legendre.leggauss(12)


def _race_nodes(w_lo: float, w_hi: float, agents: int):
    """Nodes and weights in x for the integral over [0, inf) of a sum of
    terms w e^{-w x} g(x), w in [w_lo, w_hi], g a polynomial of degree
    below ``agents`` in the e^{-w_c x}: one panel on [0, 1 / (agents w_hi)],
    over which no term falls by more than a factor e, then panels of equal
    width in log x up to 40 / w_lo, past which e^{-w x} is below 5e-18.
    (A first panel of [0, 1 / w_hi] was 4.4e-9 off at flat weights with 24
    agents, where the terms fall as e^{-24 w x}.)

    The panels are a unit wide up to 16 agents and 4 / sqrt(agents) wide
    above: g holds binomial tails over up to ``agents`` draws, whose step
    in log x narrows as 1 / sqrt(agents).  With unit panels the lottery's
    total hits, which no weights move, differed between flat weights and
    log-normal weights of sigma 1 and 4 by 3.7e-11 of itself at (60,30,6),
    6.1e-10 at (100,50,10) and 1.2e-8 at (200,100,20), with 16 bins; with
    these panels by at most 4.3e-16, and at (24,8,3) by 1e-15 either way.
    """
    start = 1.0 / (agents * w_hi)
    width = min(1.0, 4.0 / math.sqrt(agents))
    panels = max(1, math.ceil(math.log(40.0 / (w_lo * start)) / width))
    ends = np.concatenate([[0.0], start * np.exp(width * np.arange(panels + 1))])
    lo, hi = ends[:-1, None], ends[1:, None]
    return ((0.5 * (lo + hi) + 0.5 * (hi - lo) * _RACE_X).ravel(),
            (0.5 * (hi - lo) * _RACE_W).ravel())


def _compositions(total: int, parts: int):
    """Every tuple of ``parts`` counts of at least 0 that sum to ``total``."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        ends = (-1,) + bars + (total + parts - 1,)
        yield tuple(b - a - 1 for a, b in zip(ends, ends[1:]))


def _multinomial_sums(probs, total: int, keeps) -> list:
    """For each predicate of ``keeps``, the chance that ``total`` iid draws
    over the categories of probabilities ``probs`` (arrays) give counts it
    keeps: a sum over every tuple of counts."""
    powers = [np.cumprod([np.ones_like(p)] + [p] * total, axis=0) for p in probs]
    sums = [np.zeros(np.broadcast_shapes(*(p.shape for p in probs))) for _ in keeps]
    for counts in _compositions(total, len(probs)):
        term = math.factorial(total) // math.prod(map(math.factorial, counts)) * math.prod(
            power[c] for power, c in zip(powers, counts))
        for out, keep in zip(sums, keeps):
            if keep(*counts):
                out += term
    return sums


@dataclass(frozen=True)
class _StageMap:
    """Exact per-bin hit rate of one weighted draw as a function of the bin
    weights.

    A pool member in cell c arrives at x with density w_c e^{-w_c x} and is
    drawn when the others that merit made winners or that arrived before
    her number fewer than m (lottery) or k (audit).  Her rate is the
    integral over x of that density times H_c(x), the chance that she is in
    the pool and the count stays below the bound by x; H_c(inf) are her
    sure hits.  Merit cuts the pool's block at an order statistic V of the
    other n - 1 types: the k-th highest for the lottery (audit-region types
    below it lose merit and join the pool) and the m-th highest for the
    audit (supply-region types above it win).  Given V = v the others on
    the pool's side of v are iid, and each adds one Bernoulli to the count:
    a winner, or a pool member who arrived by x.  So H_c is a Gauss-Legendre
    sum over v of V's density, the mass of c on the pool's side of v and one
    binomial tail; the lottery adds a short sum for the draws merit does
    not cut, when fewer than k others lie in the audit and supply regions.

    The cells run from the end of the pool's side (the bottom for the
    lottery, the top for the audit); a run of cells no pool member holds is
    one cell.  ``block`` marks each as incentive (0), supply below the audit
    region (1), audit (2) or supply above it (3).  Supply below the audit
    region changes who wins merit: there the count is summed over every
    tuple of counts per category (``_multinomial_sums``), and the pool
    members inside the audit region (lottery) or the supply above it
    (audit) are a class of their own.  ``nodes`` hold each cell's mass on
    the pool's side of each v node (``spread``) and the side's mass;
    ``classes`` hold each class's tallied cells and their ``spread`` times
    each node's quadrature weight and V's density.  ``settled`` holds
    H_c(inf) times the cell's mass; ``draws`` and ``sure`` are the expected
    tallied agents and sure hits per bin.
    """

    stage: str
    n: int
    m: int
    k: int
    mu: np.ndarray
    cell_bin: np.ndarray
    block: np.ndarray
    tallied: np.ndarray
    interleaved: bool
    classes: tuple
    nodes: tuple
    draws: np.ndarray
    sure: np.ndarray
    settled: np.ndarray

    def race_nodes(self, w: np.ndarray):
        wc = w[self.cell_bin[self.tallied]]
        return _race_nodes(float(wc.min()), float(wc.max()), self.n)

    def node_counts(self, w: np.ndarray) -> dict:
        """The map's v nodes and its x nodes at the weights ``w``."""
        return {"v_nodes": len(self.nodes[1]),
                "x_nodes": len(self.race_nodes(w)[0]) if self.tallied.any() else 0}

    def rate(self, w: np.ndarray) -> np.ndarray:
        hits = np.zeros(len(self.mu))
        if self.tallied.any():
            x, wx = self.race_nodes(w)
            wc = w[self.cell_bin]
            wt = np.outer(wc, x)
            left = np.exp(-wt)
            held = self._held(-np.expm1(-wt), left) - self.settled[:, None]
            hits = self.n * np.einsum("cx,cx->c", (wx * wc[:, None]) * left, held)
        with np.errstate(invalid="ignore", divide="ignore"):
            return (np.bincount(self.cell_bin, hits, len(self.draws)) + self.sure) / self.draws

    def _kinds(self, came, left) -> list:
        """Per cell and x, the chance that an agent of the cell falls in
        each category of the count: for a binomial tail, counted or not;
        with supply below the audit region, the categories of ``_tails``."""
        b = self.block[:, None]
        if self.stage == "lottery":
            if not self.interleaved:
                return [(b == 3) + self.tallied[:, None] * came]
            return [(b == 3) + (b == 2) * came, (b == 2) * left, 1.0 * (b == 1),
                    (b == 0) * came, (b == 0) * left]
        if not self.interleaved:
            return [self.tallied[:, None] * came]
        return [(b == 3) * came, (b == 3) * left, 1.0 * (b == 2), (b == 1) * came,
                (b == 0) + (b == 1) * left]

    def _lottery_ok(self, above: int, iota: int):
        """Whether fewer than m lottery objects are gone: ``above`` winners
        at or above the cut, and below it u_in audit or high supply agents
        who count (winners, or pool members who arrived) and u_out who do
        not, ``low`` supply agents below the audit region, who win while
        fewer than m agents outrank them (the pool member herself among them
        when ``iota``), and i_in incentive-region agents who arrived."""
        m = self.m
        return lambda u_in, u_out, low, i_in, _: (
            above + u_in + i_in + min(low, max(0, m - above - u_in - u_out - iota)) <= m - 1)

    def _tails(self, probs) -> list:
        """Per v node and x, the chance that the count stays below the
        quota, for a pool member outside (index 0) and inside (1) the audit
        region (lottery) or the supply above it (audit)."""
        n, m, k = self.n, self.m, self.k
        if self.stage == "lottery":
            if not self.interleaved:
                return [_binom_cdf(m - k - 1, n - 1 - k, probs[0])]
            return _multinomial_sums(probs, n - 1 - k, [self._lottery_ok(k, 0),
                                                          self._lottery_ok(k, 1)])
        if not self.interleaved:
            return [_binom_cdf(k - 1, m - 1, probs[0])]
        # h_in + h_out high supply winners outrank the audit region, whose
        # top winners fill what is left of the first k ranks
        return _multinomial_sums(probs, m - 1, [
            lambda h_in, h_out, aud, low_in, _, iota=iota:
                min(aud, max(0, k - h_in - h_out - iota)) + h_in + low_in <= k - 1
            for iota in (0, 1)])

    def _uncut(self, came, left) -> np.ndarray:
        """Per x, the chance of a lottery pool member of the incentive region
        that merit cuts no block, fewer than k others lying in the audit and
        supply regions (all winners), and that the count stays below m."""
        n, m, k = self.n, self.m, self.k
        mu, b = self.mu[:, None], self.block[:, None]
        if self.interleaved:
            probs = [np.sum(mu * kind, axis=0) for kind in (
                1.0 * (b >= 2), 1.0 * (b == 1), (b == 0) * came, (b == 0) * left)]
            whole = self._lottery_ok(0, 0)
            return _multinomial_sums(probs, n - 1, [
                lambda u, low, i_in, i_out: u < k and whole(u, 0, low, i_in, i_out)])[0]
        pool = self.block == 0
        mass, rest = mu[pool].sum(), mu[~pool].sum()
        share = np.sum(mu[pool] * came[pool], axis=0) / mass
        return sum(math.comb(n - 1, s) * rest ** s * mass ** (n - 1 - s)
                   * _binom_cdf(m - 1 - s, n - 1 - s, share) for s in range(k))

    def _held(self, came, left) -> np.ndarray:
        """H_c(x) times the mass of cell c, per cell and x (0 on the cells
        not tallied), given each cell's chance to have arrived (``came``)
        and not (``left``) by x."""
        spread, side = self.nodes
        held = np.zeros(np.broadcast_shapes(came.shape, left.shape))
        if len(side):
            probs = [np.minimum(spread @ kind / side[:, None], 1.0)
                     for kind in self._kinds(came, left)]
            for (rows, reach), tail in zip(self.classes, self._tails(probs)):
                held[rows] = reach @ tail
        if self.stage == "lottery" and self.block[0] == 0:
            # the incentive region, the lowest cells
            rows = np.flatnonzero(self.block == 0)
            held[rows] += self.mu[rows, None] * self._uncut(came, left)
        return held


def _stage_maps(inst: ProblemInstance, part: RegionPartition, bins: int, stages) -> dict:
    """The exact maps of the given stages' draws, by stage (``_StageMap``)."""
    n, m, k = inst.n, inst.m, inst.k
    grid, reg = _cells(inst, part, bins)
    keep = np.flatnonzero(grid.mass > 0)
    mu, cell_bin, reg = grid.mass[keep], grid.bin[keep], reg[keep]
    block = np.array([0, 2, 3])[reg]
    if (reg == 1).any():
        block[(reg == 2) & (np.arange(len(reg)) < np.argmax(reg == 1))] = 1
    if np.any(np.diff(block) < 0):
        raise ValueError("the exact map needs the incentive region lowest and "
                         "no supply between audit-region pieces")
    interleaved = bool(np.any(block == 1))
    gx, gw = np.polynomial.legendre.leggauss((n - 1) // 2 + 1)
    maps = {}
    for stage in stages:
        lottery = stage == "lottery"
        order = slice(None) if lottery else slice(None, None, -1)
        s_mu, s_bin, s_block = mu[order], cell_bin[order], block[order]
        tallied = np.isin(s_block, (0, 2) if lottery else (1, 3))
        # no pool member holds a cell that is not tallied, so its weight
        # moves nothing: a run of them is one cell
        at = np.flatnonzero(np.r_[True, tallied[1:] | tallied[:-1]])
        s_mu, s_bin, s_block, tallied = (np.add.reduceat(s_mu, at), s_bin[at],
                                         s_block[at], tallied[at])
        # the v nodes, in the cells V can lie in when merit cuts the pool's block
        cut = np.repeat(np.flatnonzero(s_block >= (2 if lottery else 0)), len(gx))
        off = s_mu[cut] * np.resize(0.5 * (gx + 1.0), len(cut))
        # each cell's mass on the pool's side of each node: all of it for
        # the cells before the node's, the offset into the node's own
        spread = np.where(np.arange(len(s_mu)) < cut[:, None], s_mu, 0.0)
        spread[np.arange(len(cut)), cut] = off
        side = (np.cumsum(s_mu) - s_mu)[cut] + off
        # V's density: n - 1 choices of the cut agent, and the others on
        # the pool's side of it are n - 1 - k (lottery) or m - 1 (audit)
        dens = (n - 1) * _anchor_pmf(n - 2, n - 1 - k if lottery else m - 1, side)
        weight = 0.5 * s_mu[cut] * np.resize(gw, len(cut)) * dens
        inside = s_block == (2 if lottery else 3)
        # the tallied cells, by class, and the mass of each on the pool's side
        # of each node times its weight
        classes = tuple((rows, (spread[:, rows] * weight[:, None]).T) for rows in (
            map(np.flatnonzero, (tallied & ~inside, tallied & inside)) if interleaved
            else [np.flatnonzero(tallied)]))
        smap = _StageMap(stage, n, m, k, s_mu, s_bin, s_block, tallied, interleaved, classes,
                         (spread, side),
                         n * np.bincount(s_bin, s_mu * tallied, bins), np.zeros(bins),
                         np.zeros(len(s_mu)))
        settled = smap._held(np.ones((len(s_mu), 1)), np.zeros((len(s_mu), 1)))[:, 0]
        maps[stage] = dataclasses.replace(smap, sure=n * np.bincount(s_bin, settled, bins),
                                          settled=settled)
    return maps


def _fit_exact(smap: _StageMap, target: np.ndarray, stage: str) -> BinWeights:
    """Deterministic fit of the weights on the exact map, until every bin is
    within ``_EXACT_TOL`` of its target.

    The plain step is the multiplicative fixed point w <- w * target / rate
    per bin, normalised to unit geometric mean and clipped to [1e-6, 1e6],
    taken in log-weights.  Anderson mixing of the last ``_ANDERSON_DEPTH``
    plain steps accelerates it; a mixed step that does not lower the worst
    bin's residual is replaced by the plain step, and the history restarts.
    ``iterations`` counts evaluations of the map.

    Every object or audit slot a draw hands out goes to some pool member,
    so the expected hits summed over the bins are the same at any weights:
    targets whose sum differs raise at the first evaluation, at flat weights.
    A fit that stalls raises naming its worst bin.
    """
    bins = len(target)
    active = (smap.draws > 0) & np.isfinite(target)
    with np.errstate(invalid="ignore", divide="ignore"):
        excess = np.where(active, smap.sure / smap.draws - target, -np.inf)
    if stage == "audit" and excess.max() > _EXACT_TOL:
        b = int(np.argmax(excess))
        raise CalibrationError(
            f"audit target unreachable in type bin [{b / bins:.6g}, {(b + 1) / bins:.6g}): "
            f"its forced-audit rate {smap.sure[b] / smap.draws[b]:.6g} alone exceeds the "
            f"audit target {target[b]:.6g} (supply-region merit winners in a profile with "
            f"at most k winners are always audited)")
    goal = target[active]
    draws = smap.draws[active]
    log_goal = np.log(goal)

    def plain(x, rate):
        hit = rate > 0
        y = x + np.where(hit, log_goal - np.log(np.where(hit, rate, 1.0)), 0.0)
        return np.clip(y - y.mean(), -_LOG_CLIP, _LOG_CLIP)

    w = np.ones(bins)
    x = np.zeros(len(goal))  # log-weights of the active bins
    xs, gs = [], []  # the last iterates and their plain steps
    plain_x, best = None, np.inf  # the plain step a mixed step stands in for
    for it in range(1, _EXACT_MAX_ITER + 1):
        w[active] = np.exp(x)
        rate = smap.rate(w)[active]
        if it == 1 and abs(draws @ (rate - goal)) > draws.sum() * _EXACT_TOL:
            raise CalibrationError(
                f"{stage} target unreachable: the stage hits {draws @ rate:.6g} agents "
                f"per profile in expectation, and its targets ask for {draws @ goal:.6g}; "
                f"no weights move this total")
        resid = float(np.max(np.abs(rate - goal), initial=0.0))
        if resid <= _EXACT_TOL:
            break
        if plain_x is not None and resid >= best:
            x, plain_x, xs, gs = plain_x, None, [], []
            continue
        best = resid
        xs = (xs + [x])[-_ANDERSON_DEPTH - 1:]
        gs = (gs + [plain(x, rate)])[-_ANDERSON_DEPTH - 1:]
        x, plain_x = gs[-1], None
        if len(xs) > 1:
            g = np.array(gs)
            f = g - np.array(xs)
            gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
            mixed = g[-1] - gamma @ np.diff(g, axis=0)
            x, plain_x = np.clip(mixed - mixed.mean(), -_LOG_CLIP, _LOG_CLIP), x
    else:
        worst = int(np.argmax(np.abs(rate - goal)))
        b = int(np.flatnonzero(active)[worst])
        clip = ("held at the clip bound " + ("1e6" if w[b] > 1.0 else "1e-6")
                if abs(math.log(w[b])) >= _LOG_CLIP - 1e-9 else "inside the clip range")
        raise CalibrationError(
            f"{stage} calibration stalled: after {_EXACT_MAX_ITER} iterations of the "
            f"exact map the worst bin, type bin [{b / bins:.6g}, {(b + 1) / bins:.6g}), "
            f"hits at rate {rate[worst]:.6g} against its target {goal[worst]:.6g} "
            f"({resid:.3g} off), with weight {w[b]:.3g} {clip}"
        )
    stats = {**smap.node_counts(w), "iterations": it, "max_residual": resid}
    return BinWeights(edges=np.linspace(0.0, 1.0, bins + 1), values=w, stats=stats)


def _sample_types(inst: ProblemInstance, rows: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random((rows, inst.n))
    return np.asarray(inst.dist.quantile(u), dtype=float)


def _bin_counts(idx: np.ndarray, mask: np.ndarray, bins: int) -> np.ndarray:
    """Per-bin count of the set entries of ``mask``, whose bins are ``idx``."""
    return np.bincount(idx, weights=mask.ravel(), minlength=bins)


def _calibrate(inst: ProblemInstance, part: RegionPartition, targets: dict,
               bins: int) -> dict:
    """Fit each stage's weights to its target ``targets[stage]`` (per bin,
    or one float for every bin) on the exact map of the stage."""
    maps = _stage_maps(inst, part, bins, tuple(targets))  # checks bins >= 1
    return {stage: _fit_exact(maps[stage], np.broadcast_to(np.asarray(target, dtype=float),
                                                           (bins,)), stage)
            for stage, target in targets.items()}


def calibrate_lottery(inst: ProblemInstance, part: RegionPartition, *,
                      bins: int = 64) -> BinWeights:
    """Fit lottery weights so each audit/incentive-region type wins with
    probability phi.

    The fit is exact (``_fit_exact`` on the stage's ``_StageMap``), so the
    weights depend on nothing random.  When the audit region is empty every
    eligible type survives the merit stage with the same probability, so
    the uniform start is already a fixed point.
    """
    return _calibrate(inst, part, {"lottery": part.phi}, bins)["lottery"]


def calibrate_audit(inst: ProblemInstance, part: RegionPartition,
                    rules: InterimRules, *, bins: int = 64) -> BinWeights:
    """Fit audit-selection weights so every supply-region type is audited
    with probability P(t) - phi, P read from ``rules``.

    Audit-region winners are audited unconditionally, which already matches
    their target; the weights only steer the choice among supply-region
    winners when more than k agents won the merit stage.  A bin whose
    forced audits alone exceed its target raises ``CalibrationError``
    naming the bin.  The fit is exact, as in ``calibrate_lottery``.
    """
    _, _, target = _cell_targets(inst, part, rules, bins)
    return _calibrate(inst, part, {"audit": target}, bins)["audit"]


# ---------------------------------------------------------------------------
# main entry points
# ---------------------------------------------------------------------------

def simulate(inst: ProblemInstance, phi: float, trials: int, seed: int, *,
             bins: int = 64,
             lottery_weights: Optional[BinWeights] = None,
             audit_weights: Optional[BinWeights] = None) -> SimReport:
    """Run the full mechanism on ``trials`` iid profiles and compare the
    binned empirical interim rules against their targets.

    Weights not supplied are calibrated first, exactly on each stage's map
    (``calibrate_lottery``, ``calibrate_audit``), so at every n they do not
    depend on the seed and the ``trials`` profiles of the main pass are
    the only ones simulated.  Identical (inst, phi, trials, seed, bins)
    inputs give a bit-identical report.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    part = partition(phi, inst)
    rules = merit_with_guarantee(phi, inst, part)
    p_target, m_target, audit_target = _cell_targets(inst, part, rules, bins)
    edges = np.linspace(0.0, 1.0, bins + 1)
    a_target = p_target - part.phi

    if trials == 0:
        zeros = np.zeros(bins)
        return SimReport(
            trials=0, seed=seed, phi=part.phi, bin_edges=edges,
            draws=zeros, p_target=p_target, p_hat=zeros.copy(),
            a_target=a_target, a_hat=zeros.copy(),
            merit_target=m_target, merit_hat=zeros.copy(),
            stderr_p=np.full(bins, np.nan), stderr_a=np.full(bins, np.nan),
            max_dev_p=0.0, max_dev_a=0.0,
            bins_within_3se_p=bins, bins_within_3se_a=bins,
            capacity_violations=0, payoff_total=0.0, stats={"main_rows": 0},
        )

    targets = {}
    if lottery_weights is None:
        targets["lottery"] = np.full(bins, part.phi)
    if audit_weights is None:
        targets["audit"] = audit_target
    fitted = _calibrate(inst, part, targets, bins) if targets else {}
    lottery_weights = fitted.get("lottery", lottery_weights)
    audit_weights = fitted.get("audit", audit_weights)
    stats = {"main_rows": trials, "main_draw_rows": {"lottery": 0, "audit": 0}}
    stats.update((stage, w.stats) for stage, w in fitted.items())

    draws, alloc_hits, audit_hits, merit_hits = np.zeros((4, bins))
    violations = 0
    payoff_sum = 0.0

    for chunk_id, done in enumerate(range(0, trials, _CHUNK)):
        rng = _philox(seed, 2, chunk_id)
        types = _sample_types(inst, min(_CHUNK, trials - done), rng)
        reg, merit, lottery, allocated, audited, tie = _mechanism_batch(
            types, part, inst, lottery_weights, audit_weights, rng,
            draw_rows=stats["main_draw_rows"],
        )
        idx = _bin_index(types, bins).ravel()
        draws += np.bincount(idx, minlength=bins)
        alloc_hits += _bin_counts(idx, allocated, bins)
        audit_hits += _bin_counts(idx, audited, bins)
        merit_hits += _bin_counts(idx, merit, bins)
        payoff_sum += float((types * allocated).sum())
        over_alloc = _row_count(allocated) > inst.m
        over_audit = _row_count(audited) > inst.k
        orphan = _row_count(audited & ~allocated) > 0
        violations += int((over_alloc | over_audit | orphan).sum())

    with np.errstate(invalid="ignore", divide="ignore"):
        p_hat = np.where(draws > 0, alloc_hits / draws, 0.0)
        a_hat = np.where(draws > 0, audit_hits / draws, 0.0)
        merit_hat = np.where(draws > 0, merit_hits / draws, 0.0)
        stderr_p = np.sqrt(np.clip(p_target * (1 - p_target), 1e-12, None) / draws)
        stderr_a = np.sqrt(np.clip(a_target * (1 - a_target), 1e-12, None) / draws)
        dev_p = np.abs(p_hat - p_target) / stderr_p
        dev_a = np.abs(a_hat - a_target) / stderr_a
    dev_p = np.where(draws > 0, dev_p, 0.0)
    dev_a = np.where(draws > 0, dev_a, 0.0)

    return SimReport(
        trials=trials, seed=seed, phi=part.phi, bin_edges=edges,
        draws=draws, p_target=p_target, p_hat=p_hat,
        a_target=a_target, a_hat=a_hat,
        merit_target=m_target, merit_hat=merit_hat,
        stderr_p=stderr_p, stderr_a=stderr_a,
        max_dev_p=float(np.max(dev_p)), max_dev_a=float(np.max(dev_a)),
        bins_within_3se_p=int(np.sum(dev_p <= 3.0)),
        bins_within_3se_a=int(np.sum(dev_a <= 3.0)),
        capacity_violations=violations,
        payoff_total=payoff_sum / trials,
        stats=stats,
    )


@dataclass(frozen=True)
class EpicWitness:
    """A profile showing that truthfulness fails ex post.

    At ``profile`` the deviator gets nothing by reporting truthfully (all
    objects go to higher supply-region reports and none remain for the
    lottery), while reporting ``deviation_report`` joins the merit winners;
    with at most k of the m winners audited, the lie escapes detection with
    probability at least (m-k)/m under any size-k selection drawn evenly
    over winners.
    """

    profile: tuple
    agent: int
    truthful_report: float
    deviation_report: float
    truthful_allocation_prob: float
    merit_winners_truthful: frozenset
    merit_winners_deviating: frozenset
    escape_probability_bound: float
    gain_bound: float


def epic_counterexample(inst: ProblemInstance, phi: float) -> EpicWitness:
    """Construct an explicit failure of ex-post incentive compatibility."""
    if inst.n < inst.m + 1:
        raise ValueError("witness construction needs at least m+1 agents")
    part = partition(phi, inst)
    allo_intervals = [iv for iv in part.intervals if iv.label == LABEL_ALLO
                      and iv.hi - iv.lo > 1e-6]
    if not allo_intervals:
        raise ValueError(
            f"no supply region with interior at phi={phi}; "
            "the witness needs room for m distinct high reports"
        )
    top = allo_intervals[-1]
    n, m = inst.n, inst.m

    others = [top.lo + (top.hi - top.lo) * (j + 1) / (m + 1) for j in range(m)]
    low_cap = part.intervals[0].hi
    low_slots = [low_cap * (j + 1) / (n - m + 1) for j in range(n - m)]
    deviator_type = low_slots[-1]
    fillers = low_slots[:-1]

    profile = [deviator_type] + others + fillers
    winners = merit_allocate(profile, part, inst)
    if winners != frozenset(range(1, m + 1)):
        raise RuntimeError(f"witness construction failed: winners {sorted(winners)}")

    deviation = max(others) + (top.hi - max(others)) / 2.0
    deviated = [deviation] + others + fillers
    winners_dev = merit_allocate(deviated, part, inst)
    if 0 not in winners_dev or len(winners_dev) != m:
        raise RuntimeError("deviation did not join the merit winners as expected")

    escape = (m - inst.k) / m
    return EpicWitness(
        profile=tuple(profile),
        agent=0,
        truthful_report=deviator_type,
        deviation_report=deviation,
        truthful_allocation_prob=0.0,
        merit_winners_truthful=winners,
        merit_winners_deviating=winners_dev,
        escape_probability_bound=escape,
        gain_bound=escape,
    )
