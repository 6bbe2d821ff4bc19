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
is a real choice, 0 < quota < pool size, draw any variates.  Where the
profiles of type cells can be enumerated (at most ``_EXACT_MAX_PROFILES``
multisets), each stage's per-bin hit rate is computed exactly, both
stages from one profile table, and the weights are fitted on it by an
Anderson-accelerated fixed point, so they do not depend on the seed;
otherwise a damped stochastic fixed point fits them on simulated profiles.

All randomness flows through counter-based Philox streams keyed by
(seed, stage, round), so a report is a pure function of its seed.
"""

from __future__ import annotations

import csv
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
    partition,
)
from .flows import multiset_table
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
    ``stats`` describes the calibration that fitted the weights, if any.
    With ``method`` "exact": iterations (evaluations of the exact map),
    cell multisets enumerated and the largest final |rate - target|.  With
    ``method`` "monte_carlo": fixed-point rounds, polish rounds, rows
    simulated and the worst bin deviation (in standard errors) of the last
    round.
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
    ``audit``), the ``stats`` of its fitted weights.  It is left out of
    ``to_record()``, which holds results only.
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

    One sort: an entry is kept when it reaches its row's quota-th largest
    key.  Only a row whose next key equals that threshold can have more
    than ``quota`` entries reach it; there the entries at the threshold are
    kept in column order until the quota is full.
    """
    rows, n = keys.shape
    q = np.clip(quota, 0, n)
    asc = np.sort(keys, axis=1)
    at = n - np.maximum(q, 1)
    r = np.arange(rows)
    kth = asc[r, at]
    top = (keys >= kth[:, None]) & (q > 0)[:, None]
    tied = np.flatnonzero((q > 0) & (q < n) & (asc[r, np.maximum(at - 1, 0)] == kth))
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

    One sort per batch: in a row without ties, "among the c highest" is "at
    least the row's c-th largest report".
    """
    n = types.shape[1]
    asc = np.sort(types, axis=1)
    tie = np.zeros(len(types), dtype=bool)
    for j in range(1, n):
        tie |= asc[:, j] == asc[:, j - 1]
    merit = (~tie)[:, None] & (((reg == 2) & (types >= asc[:, max(n - m, 0), None]))
                               | ((reg == 1) & (types >= asc[:, max(n - k, 0), None])))
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

# Limits of the exact interim map, from timings of both calibrators on one
# Xeon core (uniform types at phi*, 100,000-row Monte Carlo rounds).  In
# every case tried under these caps, n = 3 to 8 with 4 to 64 bins, the map
# fitted both stages 5-90x faster than the fallback, with a peak memory at most 2 MB above its.
# Above about 150,000 multisets its memory passes the fallback's: 105 MB
# against 99 MB for (3,2,1) with 100 bins (182,104 multisets), 197 MB
# against 101 MB for n = 4 with 64 bins (864,501).  (3,2,1) with 64 bins
# has 50,116.  A draw's exact law sums over up to 2^n drawn sets, so at
# n = 12 the map was only 1.2x faster; n is capped at 8, the largest
# instance the tests check against a Monte Carlo tally.
_EXACT_MAX_PROFILES = 150_000
_EXACT_MAX_AGENTS = 8
_EXACT_TOL = 1e-10
_EXACT_MAX_ITER = 2_000
# the exact fit's Anderson depth and its log-weight bound, log(1e6)
_ANDERSON_DEPTH = 5
_LOG_CLIP = math.log(1e6)
# the Monte Carlo fixed point: its round cap, the damping exponent of its
# rounds and the number of polish rounds averaged after them
_MAX_ROUNDS = 100
_DAMPING = 0.5
_POLISH_ROUNDS = 3


def _plackett_luce_top(w: np.ndarray, quota: int) -> np.ndarray:
    """P(each column is among the first ``quota`` of a successive weighted
    draw without replacement), row by row of the positive weights ``w``.

    Dynamic program over the set drawn so far: P(the first j draws are the
    set S) is summed over the member of S drawn last.  This is the law of
    the race pick (Efraimidis & Spirakis 2006; Kool et al. 2019).
    """
    rows, s = w.shape
    layer = {(): (np.ones(rows), w.sum(axis=1))}  # set -> (probability, weight left)
    for _ in range(quota):
        nxt = {}
        for drawn, (p, left) in layer.items():
            for j in range(s):
                if j in drawn:
                    continue
                key = tuple(sorted(drawn + (j,)))
                step = p * w[:, j] / left
                if key in nxt:
                    nxt[key][0] += step
                else:
                    nxt[key] = [step, left - w[:, j]]
        layer = nxt
    top = np.zeros_like(w)
    for drawn, (p, _) in layer.items():
        top[:, list(drawn)] += p[:, None]
    return top


def _profile_table(inst: ProblemInstance, part: RegionPartition, bins: int):
    """Every descending profile of type cells, with its probability.

    Cells are those of ``_cells``; empty ones are left out.  Types are iid
    and continuous, so a profile is a multiset of n cells, weighted by its
    multinomial count times the product of its cells' masses; agents
    sharing a cell are exchangeable and ties have probability 0.  Returns
    (bin, region) of the cell at each descending position and the profile
    probabilities, or None when there are more than ``_EXACT_MAX_PROFILES``
    multisets or ``_EXACT_MAX_AGENTS`` agents.
    """
    n = inst.n
    grid, reg = _cells(inst, part, bins)
    keep = grid.mass > 0
    mass = grid.mass[keep]
    cells = len(mass)
    if n > _EXACT_MAX_AGENTS or math.comb(cells + n - 1, n) > _EXACT_MAX_PROFILES:
        return None

    table = multiset_table(cells, n)
    prob = np.full(len(table), float(math.factorial(n)))
    run = np.ones(len(table))
    for j in range(1, n):
        run = np.where(table[:, j] == table[:, j - 1], run + 1.0, 1.0)
        prob /= run
    prob *= np.prod(mass[table], axis=1)

    desc = table[:, ::-1]
    cell_bin = grid.bin[keep].astype(np.int16)
    return cell_bin[desc], reg[keep][desc], prob


@dataclass(frozen=True)
class _StageMap:
    """Exact per-bin hit rate of one weighted draw as a function of the
    bin weights.

    ``draws`` and ``sure`` are the expected tallied agents and their
    expected sure hits (certain lottery wins, forced audits) per bin.
    Each group holds the profiles whose draw is a real choice, 0 < quota <
    pool size, with one quota and pool size: the pool members' bins and the
    profile probabilities.
    """

    draws: np.ndarray
    sure: np.ndarray
    groups: tuple
    multisets: int

    def rate(self, w: np.ndarray) -> np.ndarray:
        bins = len(self.draws)
        hits = self.sure.copy()
        for quota, pool_bins, prob in self.groups:
            top = _plackett_luce_top(w[pool_bins], quota)
            hits += np.bincount(pool_bins.ravel(), weights=(prob[:, None] * top).ravel(),
                                minlength=bins)
        with np.errstate(invalid="ignore", divide="ignore"):
            return hits / self.draws


def _stage_maps(inst: ProblemInstance, part: RegionPartition, bins: int,
                stages) -> Optional[dict]:
    """The exact maps of the given stages' draws, by stage, from one profile
    table, or None when the instance has too many cell multisets to
    enumerate."""
    table = _profile_table(inst, part, bins)
    if table is None:
        return None
    cell_bin, reg, prob = table
    # positions hold descending types, so the merit stage reads the ranks
    rank = np.arange(inst.n)
    merit = ((reg == 2) & (rank < inst.m)) | ((reg == 1) & (rank < inst.k))
    return {stage: _stage_map(cell_bin, reg, prob, merit, inst, bins, stage)
            for stage in stages}


def _stage_map(cell_bin, reg, prob, merit, inst: ProblemInstance, bins: int,
               stage: str) -> _StageMap:
    """The exact map of one stage's draw over the profile table."""
    tallied, pool, quota, sure, chosen = _stage_rule(stage, reg, merit, inst.m, inst.k)
    size = _row_count(pool)
    draws, sure = (np.bincount(cell_bin.ravel(), minlength=bins,
                               weights=(prob[:, None] * (mask & tallied)).ravel())
                   for mask in (tallied, sure))

    # a draw depends only on its quota and its pool's bins (in descending
    # order), so profiles sharing both are merged into one row
    width = reg.shape[1] + 1
    group = np.where(chosen, quota * width + size, -1)
    groups = []
    for code in np.unique(group[chosen]).tolist():
        q, s = divmod(code, width)
        rows = np.flatnonzero(group == code)
        pool_bins = cell_bin[rows][pool[rows]].reshape(-1, s)
        order = np.lexsort(pool_bins.T)
        pool_bins, rows = pool_bins[order], rows[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (pool_bins[1:] != pool_bins[:-1]).any(axis=1)
        merged = np.bincount(np.cumsum(first) - 1, weights=prob[rows])
        groups.append((q, pool_bins[first], merged))
    return _StageMap(draws, sure, tuple(groups), len(prob))


def _forced_audit_error(b: int, bins: int, forced: float,
                        target: float) -> CalibrationError:
    return CalibrationError(
        f"audit target unreachable in type bin [{b / bins:.6g}, {(b + 1) / bins:.6g}): "
        f"its forced-audit rate {forced:.6g} alone exceeds the audit target "
        f"{target:.6g} (supply-region merit winners in a profile with at most "
        f"k winners are always audited)"
    )


def _fit_exact(smap: _StageMap, target: np.ndarray, stage: str) -> BinWeights:
    """Deterministic fit of the weights on the exact map, until every bin is
    within ``_EXACT_TOL`` of its target.

    The plain step is the multiplicative fixed point w <- w * target / rate
    per bin, normalised to unit geometric mean and clipped to [1e-6, 1e6],
    taken in log-weights.  Anderson mixing of the last ``_ANDERSON_DEPTH``
    plain steps accelerates it; a mixed step that does not lower the worst
    bin's residual is replaced by the plain step, and the history restarts.
    ``iterations`` counts evaluations of the map.
    """
    bins = len(target)
    active = (smap.draws > 0) & np.isfinite(target)
    with np.errstate(invalid="ignore", divide="ignore"):
        excess = np.where(active, smap.sure / smap.draws - target, -np.inf)
    if stage == "audit" and excess.max() > _EXACT_TOL:
        b = int(np.argmax(excess))
        raise _forced_audit_error(b, bins, smap.sure[b] / smap.draws[b], target[b])
    goal = target[active]
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
        raise CalibrationError(
            f"{stage} calibration stalled: after {_EXACT_MAX_ITER} iterations of the "
            f"exact map the worst bin is still {resid:.3g} from its target"
        )
    stats = {"method": "exact", "iterations": it, "multisets": smap.multisets,
             "max_residual": resid}
    return BinWeights(edges=np.linspace(0.0, 1.0, bins + 1), values=w, stats=stats)


def _sample_types(inst: ProblemInstance, rows: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random((rows, inst.n))
    return np.asarray(inst.dist.quantile(u), dtype=float)


def _bin_counts(idx: np.ndarray, mask: np.ndarray, bins: int) -> np.ndarray:
    """Per-bin count of the set entries of ``mask``, whose bins are ``idx``."""
    return np.bincount(idx, weights=mask.ravel(), minlength=bins)


def _fit_weights(inst: ProblemInstance, part: RegionPartition, target: np.ndarray,
                 *, stage: str, trials: int, seed: int, bins: int,
                 polish_trials: Optional[int]) -> BinWeights:
    """Damped multiplicative fixed point for the weights of one stage.

    ``target`` is the per-bin hit probability wanted among the stage's
    tallied agents (NaN marks a bin with no target).  Each round measures
    the stage on fresh rows with the other stage switched off and sets
    w <- w * (target / empirical)^``_DAMPING`` per bin, normalised to unit
    geometric mean, until every bin deviation is under two standard errors
    (``CalibrationError`` after ``_MAX_ROUNDS`` rounds).  ``_POLISH_ROUNDS`` rounds then
    continue with lower damping on ``polish_trials`` rows each, and the
    log-weights of the polish rounds are averaged.

    Audit calibration fails at once when no weights can reach the target:
    if the sure audits alone exceed a bin's target by more than six
    standard errors in the first round, the fixed point cannot converge.
    The fitted weights carry the work done in ``stats``.
    """
    lottery_stage = stage == "lottery"
    stream = 0 if lottery_stage else 1
    edges = np.linspace(0.0, 1.0, bins + 1)
    flat = BinWeights.uniform(bins)
    w = np.ones(bins)

    def measure(weights: np.ndarray, rows: int, rng):
        """Per-bin hits, tallied agents and sure hits of the stage."""
        fitted = BinWeights(edges, weights)
        lottery_w, audit_w = (fitted, flat) if lottery_stage else (flat, fitted)
        counts = np.zeros((3, bins))
        for done in range(0, rows, _CHUNK):
            types = _sample_types(inst, min(_CHUNK, rows - done), rng)
            reg, merit, lottery, _, audited, _ = _mechanism_batch(
                types, part, inst, lottery_w, audit_w, rng,
                run_lottery=lottery_stage, run_audit=not lottery_stage,
            )
            idx = _bin_index(types, bins).ravel()
            tallied, _, _, sure, _ = _stage_rule(stage, reg, merit, inst.m, inst.k)
            for row, hit in zip(counts, (lottery if lottery_stage else audited, tallied, sure)):
                row += _bin_counts(idx, hit & tallied, bins)
        return counts

    def step(weights, rows, rng, clip_lo, clip_hi, power, check_sure=False):
        hits, draws, sure_hits = measure(weights, rows, rng)
        active = (draws > 0) & np.isfinite(target)
        with np.errstate(invalid="ignore", divide="ignore"):
            emp = hits / draws
            se = np.sqrt(np.clip(target * (1.0 - target), 1e-12, None) / draws)
            dev = np.abs(emp - target) / se
            ratio = np.where(active & (hits > 0), target / np.where(hits > 0, emp, 1.0), 1.0)
            sure_rate = sure_hits / draws
            excess = np.where(active, (sure_rate - target) / se, -np.inf)
        if check_sure and excess.max() > 6.0:
            b = int(np.argmax(excess))
            raise _forced_audit_error(b, bins, sure_rate[b], target[b])
        ratio = np.clip(np.nan_to_num(ratio, nan=1.0), clip_lo, clip_hi)
        worst = float(np.nanmax(np.where(active, dev, 0.0)))
        return active, dev, worst, weights * ratio**power

    for rnd in range(_MAX_ROUNDS):
        active, dev, worst, stepped = step(
            w, trials, _philox(seed, stream, rnd), 0.25, 4.0, _DAMPING,
            check_sure=rnd == 0 and not lottery_stage,
        )
        if worst < 2.0:
            break
        w = np.clip(stepped / np.exp(np.mean(np.log(stepped[active]))), 1e-6, 1e6)
    else:
        hint = "" if lottery_stage else (
            "; check that the target is above the forced-audit floor")
        raise CalibrationError(
            f"{stage} calibration did not reach the 2-standard-error band in "
            f"{_MAX_ROUNDS} rounds (worst deviation {np.nanmax(dev):.2f} se){hint}"
        )
    stats = {"method": "monte_carlo", "rounds": rnd + 1, "polish_rounds": 0,
             "rows": (rnd + 1) * trials, "max_dev": worst}

    if polish_trials and np.isfinite(target).any():
        logs = []
        for rnd in range(_POLISH_ROUNDS):
            rng = _philox(seed, stream, _MAX_ROUNDS + rnd)
            _, _, worst, w = step(w, polish_trials, rng, 0.5, 2.0, 0.3)
            logs.append(np.log(w))
        w = np.exp(np.mean(logs, axis=0))
        stats.update(polish_rounds=_POLISH_ROUNDS, max_dev=worst,
                     rows=stats["rows"] + _POLISH_ROUNDS * polish_trials)
    return BinWeights(edges=edges, values=w, stats=stats)


def _calibrate(inst: ProblemInstance, part: RegionPartition, targets: dict,
               *, trials: int, seed: int, bins: int,
               polish_trials: Optional[int]) -> dict:
    """Fit each stage's weights to its target ``targets[stage]``: all on the
    exact maps of one profile table where they cover the instance, each by
    the Monte Carlo fixed point otherwise."""
    if trials < 1:
        raise ValueError("calibration needs at least one trial")
    maps = _stage_maps(inst, part, bins, tuple(targets))
    if maps is not None:
        return {stage: _fit_exact(maps[stage], target, stage)
                for stage, target in targets.items()}
    return {stage: _fit_weights(inst, part, target, stage=stage, trials=trials, seed=seed,
                                bins=bins, polish_trials=polish_trials)
            for stage, target in targets.items()}


def calibrate_lottery(inst: ProblemInstance, part: RegionPartition, *,
                      trials: int = 200_000, seed: int = 0, bins: int = 64,
                      polish_trials: Optional[int] = None) -> BinWeights:
    """Fit lottery weights so each audit/incentive-region type wins with
    probability phi.

    ``trials``, ``seed`` and ``polish_trials`` steer the Monte Carlo
    fallback only; the exact map ignores them.  When the audit region is
    empty every eligible type survives the merit stage with the same
    probability, so the uniform start is already a fixed point and the
    first round converges.
    """
    return _calibrate(inst, part, {"lottery": np.full(bins, part.phi)}, trials=trials,
                      seed=seed, bins=bins, polish_trials=polish_trials)["lottery"]


def calibrate_audit(inst: ProblemInstance, part: RegionPartition,
                    rules: InterimRules, *,
                    trials: int = 200_000, seed: int = 0, bins: int = 64,
                    polish_trials: Optional[int] = None) -> BinWeights:
    """Fit audit-selection weights so every supply-region type is audited
    with probability P(t) - phi, P read from ``rules``.

    Audit-region winners are audited unconditionally, which already matches
    their target; the weights only steer the choice among supply-region
    winners when more than k agents won the merit stage.  A bin whose
    forced audits alone exceed its target raises ``CalibrationError``
    naming the bin.  The other keywords are as in ``calibrate_lottery``.
    """
    _, _, target = _cell_targets(inst, part, rules, bins)
    return _calibrate(inst, part, {"audit": target}, trials=trials, seed=seed,
                      bins=bins, polish_trials=polish_trials)["audit"]


# ---------------------------------------------------------------------------
# main entry points
# ---------------------------------------------------------------------------

def simulate(inst: ProblemInstance, phi: float, trials: int, seed: int, *,
             bins: int = 64,
             lottery_weights: Optional[BinWeights] = None,
             audit_weights: Optional[BinWeights] = None,
             calibration_trials: Optional[int] = None) -> SimReport:
    """Run the full mechanism on ``trials`` iid profiles and compare the
    binned empirical interim rules against their targets.

    Weights not supplied are calibrated first: exactly, and independently
    of the seed, where the exact map covers the instance; otherwise by the
    Monte Carlo fixed point on ``calibration_trials`` rows per round (default
    max(100000, trials / 5)), reproducibly from the same seed.  Identical
    (inst, phi, trials, seed, bins) inputs give a bit-identical report.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    part = partition(phi, inst)
    rules = merit_with_guarantee(phi, inst, part)
    edges = np.linspace(0.0, 1.0, bins + 1)
    p_target, m_target, audit_target = _cell_targets(inst, part, rules, bins)
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

    cal_rows = calibration_trials or max(100_000, trials // 5)
    targets = {}
    if lottery_weights is None:
        targets["lottery"] = np.full(bins, part.phi)
    if audit_weights is None:
        targets["audit"] = audit_target
    fitted = _calibrate(inst, part, targets, trials=cal_rows, seed=seed, bins=bins,
                        polish_trials=max(cal_rows, trials // 2)) if targets else {}
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
