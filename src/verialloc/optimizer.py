"""Principal's payoff, the first-order condition, and the optimal guarantee.

The mechanism family is indexed by the guarantee phi in [(m-k)/n, m/n]
(values below the floor are dominated: raising phi relaxes the audit bound
at no cost).  The total payoff is n * E[P(t) * t]; interior optima satisfy

    g1 F(g1) + g2 (1 - F(g2))
        = g3 (1 - F(g3)) + int_0^g1 t dF + int_g2^g3 t dF

where g1 <= g2 <= g3 are the partition cutoffs at phi.  Nothing here
assumes the payoff is quasi-concave: solve() enumerates every bracketed
first-order-condition root plus both endpoints, takes the payoff argmax,
and checks it against the best payoff on the grid of guarantees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .distributions import expected_value, integrate, quantile_rule
from .envelope import (
    _TABLE_Q,
    CASE_AUD_ALLO,
    LABEL_ALLO,
    LABEL_AUD,
    ProblemInstance,
    RegionPartition,
    _binom_cdf,
    _bracketed_roots,
    partition,
    partitions,
)
from .interim import efficient_rule, top_k_rule

CROSS_CHECK_TOL = 1e-7
ZOOM_TOL = 1e-6


@dataclass(frozen=True)
class Candidate:
    phi: float
    payoff: float
    source: str  # "foc-root" | "endpoint" | "grid"


@dataclass(frozen=True)
class SolveReport:
    """Result of optimizing the guarantee for one problem instance.

    ``stats`` counts the work behind it: points of the curve table, FOC
    grid points, FOC roots found, polish iterations (of the crossings and
    the FOC roots) and quadrature nodes.  It is left out of ``to_record()``,
    which holds results only.
    """

    phi_star: float
    payoff: float
    foc_residual: float
    partition: RegionPartition
    baselines: dict
    candidates: tuple[Candidate, ...]
    stats: dict = field(default_factory=dict, compare=False)

    def to_record(self) -> dict:
        return {
            "phi_star": self.phi_star,
            "payoff": self.payoff,
            "foc_residual": self.foc_residual,
            "partition": self.partition.to_record(),
            "baselines": dict(self.baselines),
            "candidates": [
                {"phi": c.phi, "payoff": c.payoff, "source": c.source}
                for c in self.candidates
            ],
        }


def _antiderivatives(inst: ProblemInstance, points, branches: bool, stats):
    """The sorted quantile cut points and, at each, the integrals from 0 of
    t dF and, with ``branches``, of P_allo t dF and (P_aud - phi) t dF, by
    one ``quantile_rule`` over the segments between consecutive points."""
    cuts = np.unique(np.concatenate([[0.0, 1.0], points]))
    u, t, w, seg = quantile_rule(inst.dist, cuts)
    above = 1.0 - u
    rows = [t]
    if branches:
        rows += [_binom_cdf(inst.m - 1, inst.n - 1, above) * t,
                 _binom_cdf(inst.k - 1, inst.n - 1, above) * t]
    if stats is not None:
        stats["quadrature_nodes"] += u.size
    return cuts, [np.concatenate([[0.0], np.cumsum(np.bincount(seg, w * r, len(cuts) - 1))])
                  for r in rows]


def _payoffs(parts, inst: ProblemInstance, stats=None) -> np.ndarray:
    """payoff of each partition, from one quadrature over all their cuts."""
    ivs = [(j, part.phi, iv) for j, part in enumerate(parts) for iv in part.intervals]
    owner, phi = np.array([j for j, _, _ in ivs]), np.array([p for _, p, _ in ivs])
    label = np.array([iv.label for _, _, iv in ivs])
    ends = inst.dist.cdf(np.array([(iv.lo, iv.hi) for _, _, iv in ivs]))
    cuts, (mean, allo, aud) = _antiderivatives(inst, ends.ravel(), True, stats)
    i_lo, i_hi = np.searchsorted(cuts, ends).T
    mean, allo, aud = (c[i_hi] - c[i_lo] for c in (mean, allo, aud))
    piece = np.where(label == LABEL_ALLO, allo,
                     phi * mean + np.where(label == LABEL_AUD, aud, 0.0))
    return inst.n * np.bincount(owner, piece, len(parts))


def payoff(phi: float, inst: ProblemInstance,
           part: RegionPartition | None = None) -> float:
    """Total expected payoff n * E[P(t) t] of the guarantee-phi rule.

    Integrated piecewise over the partition intervals with the analytic
    branch form of P on each region.
    """
    if part is None:
        part = partition(phi, inst)
    return float(_payoffs([part], inst)[0])


def _foc_residuals(parts, inst: ProblemInstance, stats=None) -> np.ndarray:
    """foc_residual of each partition, NaN where the incentive region is
    empty, from one quadrature over all their cutoffs."""
    g = np.array([(p.gamma1, p.gamma2, p.gamma3) for p in parts]).reshape(-1, 3)
    F = inst.dist.cdf(g)
    cuts, (mean,) = _antiderivatives(inst, F.ravel(), False, stats)
    at = mean[np.searchsorted(cuts, F)]
    lhs = g[:, 0] * F[:, 0] + g[:, 1] * (1.0 - F[:, 1])
    rhs = g[:, 2] * (1.0 - F[:, 2]) + at[:, 0] + at[:, 2] - at[:, 1]
    empty = np.array([p.case_tag == CASE_AUD_ALLO for p in parts], dtype=bool)
    return np.where(empty, np.nan, lhs - rhs)


def foc_residual(phi: float, inst: ProblemInstance,
                 part: RegionPartition | None = None) -> float:
    """Left minus right side of the first-order condition at phi.

    Zero at interior optima.  Raises on partitions where the incentive
    region is empty (guarantees below (m-k)/n), where the condition does
    not apply.
    """
    if part is None:
        part = partition(phi, inst)
    if part.case_tag == CASE_AUD_ALLO:
        raise ValueError(
            f"first-order condition undefined for phi={phi} <= (m-k)/n: "
            "the incentive region is empty"
        )
    return float(_foc_residuals([part], inst)[0])


def baseline_payoffs(inst: ProblemInstance) -> dict:
    """Reference payoffs: first best, uniform lottery, and audit-the-top-k.

    first_best allocates to the m highest types (infeasible without more
    audits).  random_lottery gives every agent probability m/n.  k_top
    audits the k highest reports, allocates to them, and spreads the
    remaining m - k objects uniformly over everyone else.
    """
    n, m, k = inst.n, inst.m, inst.k
    share = (m - k) / (n - k)
    fb = integrate(lambda t: efficient_rule(t, inst) * t, inst.dist, 0.0, 1.0)
    kt = integrate(lambda t: (share + (1.0 - share) * top_k_rule(t, inst)) * t,
                   inst.dist, 0.0, 1.0)
    return {"first_best": n * fb, "random_lottery": m * expected_value(inst.dist),
            "k_top": n * kt}


def solve(inst: ProblemInstance, *, grid: int = 200) -> SolveReport:
    """Find the optimal guarantee phi* and its payoff.

    Partitions a grid over [(m-k)/n, m/n] in one batch, finds the sign
    changes of the first-order condition on it and polishes every bracketed
    root together to rounding, then evaluates the payoff at every root and
    both endpoints and returns the argmax.  No grid point, nor any point
    of a zoom onto the best one, may beat the winner by more than 1e-7 in
    payoff, otherwise a root was missed and solve raises.
    """
    lo, hi = inst.phi_floor, inst.phi_max
    stats = Counter(curve_points=len(_TABLE_Q), foc_grid=grid)
    phis = np.linspace(lo, hi, grid)
    parts = partitions(phis, inst, stats)
    residuals = _foc_residuals(parts, inst, stats)
    # the condition is undefined exactly at the floor (empty incentive
    # region); probe just above so a root in the first cell is not missed
    if np.isnan(residuals[0]):
        probe = partitions([lo + 1e-7 * (hi - lo)], inst, stats)
        probe_res = _foc_residuals(probe, inst, stats)[0]
        if not np.isnan(probe_res):
            phis[0], parts[0], residuals[0] = probe[0].phi, probe[0], probe_res

    r0, r1 = residuals[:-1], residuals[1:]
    cells = np.flatnonzero(r0 * r1 < 0.0)
    polished, its = _bracketed_roots(
        lambda phi, rows: _foc_residuals(partitions(phi, inst, stats), inst, stats),
        phis[cells], phis[cells + 1], r0[cells], r1[cells])
    stats["polish_iterations"] += its
    roots = sorted([*phis[:-1][r0 == 0.0], *polished, *phis[-1:][residuals[-1:] == 0.0]])

    cand_phis = [lo, hi, *roots]
    cand_parts = partitions(cand_phis, inst, stats)
    values = _payoffs(cand_parts + parts, inst, stats)
    pairs = sorted(((Candidate(p.phi, float(u), "endpoint" if j < 2 else "foc-root"), p)
                    for j, (p, u) in enumerate(zip(cand_parts, values))),
                   key=lambda pair: pair[0].phi)
    candidates = [c for c, _ in pairs]
    best, best_part = max(pairs, key=lambda pair: (pair[0].payoff, -pair[0].phi))

    # the cross-check: the grid's best guarantee, zoomed 8-fold per round
    # onto its neighbours down to ZOOM_TOL, sees peaks narrower than a cell
    zs, us = phis, values[len(cand_parts):]
    while True:
        j = int(np.argmax(us))
        a, b = zs[max(j - 1, 0)], zs[min(j + 1, len(zs) - 1)]
        if b - a <= ZOOM_TOL:
            break
        zs = np.linspace(a, b, 17)
        us = _payoffs(partitions(zs, inst, stats), inst, stats)
    if us[j] > best.payoff + CROSS_CHECK_TOL:
        raise RuntimeError(f"payoff U({zs[j]})={us[j]} on the guarantee grid exceeds the best "
                           f"enumerated candidate U({best.phi})={best.payoff}; a first-order "
                           "condition root was missed")

    stats["foc_roots"] = len(roots)
    return SolveReport(best.phi, best.payoff, float(_foc_residuals([best_part], inst)[0]),
                       best_part, baseline_payoffs(inst), tuple(candidates), dict(stats))
