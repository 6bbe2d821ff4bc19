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

from . import envelope
from .distributions import expected_value, integrate, quantile_rule
from .envelope import (
    _TABLE_Q,
    CASE_AUD_ALLO,
    ProblemInstance,
    RegionPartition,
    _cutoff_slopes,
    _cutoffs,
    _newton_roots,
    _tails,
    partition,
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
    grid points, FOC roots found, polish iterations (the Newton rounds of
    the crossings plus the Newton steps of the FOC roots) and quadrature
    nodes.  It is left out of ``to_record()``, which holds results only.
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
        # P_allo and P_aud - phi: the chance of fewer than m, or k, of the
        # n - 1 others above
        below = _tails(inst.n - 1, np.array([[inst.m], [inst.k]]), above, moments=False)[0]
        rows += list(below * t)
    if stats is not None:
        stats["quadrature_nodes"] += u.size
    return cuts, [np.concatenate([[0.0], np.cumsum(np.bincount(seg, w * r, len(cuts) - 1))])
                  for r in rows]


def _payoffs(phi, g, inst: ProblemInstance, stats=None) -> np.ndarray:
    """payoff at each guarantee phi with quantile cutoffs g (rows g1, g2,
    g3), from one quadrature over all the cutoffs:
    n [phi M(0,g1) + Allo(g1,g2) + (phi M(g2,g3) + Aud(g2,g3)) + Allo(g3,1)],
    M the integral of t dF and Allo, Aud those of P_allo t dF and
    (P_aud - phi) t dF."""
    cuts, antiderivatives = _antiderivatives(inst, g.ravel(), True, stats)
    ends = np.searchsorted(cuts, np.vstack([np.zeros_like(phi), g, np.ones_like(phi)]))
    mean, allo, aud = (np.diff(c[ends], axis=0) for c in antiderivatives)
    return inst.n * (phi * mean[0] + allo[1] + (phi * mean[2] + aud[2]) + allo[3])


def _part_cutoffs(part: RegionPartition, inst: ProblemInstance) -> np.ndarray:
    """The quantile cutoffs of a partition, as a column."""
    return inst.dist.cdf(np.array([[part.gamma1], [part.gamma2], [part.gamma3]]))


def payoff(phi: float, inst: ProblemInstance,
           part: RegionPartition | None = None) -> float:
    """Total expected payoff n * E[P(t) t] of the guarantee-phi rule.

    Integrated piecewise between the partition cutoffs with the analytic
    branch form of P on each region.
    """
    if part is None:
        part = partition(phi, inst)
    return float(_payoffs(np.array([part.phi]), _part_cutoffs(part, inst), inst)[0])


def _foc_residuals(g, inst: ProblemInstance, stats=None) -> np.ndarray:
    """foc_residual at each column of quantile cutoffs g (rows g1, g2, g3),
    NaN where the incentive region is empty (g1 = 0), from one quadrature
    over all the cutoffs."""
    t = inst.dist.quantile(g)
    cuts, (mean,) = _antiderivatives(inst, g.ravel(), False, stats)
    at = mean[np.searchsorted(cuts, g)]
    lhs = t[0] * g[0] + t[1] * (1.0 - g[1])
    rhs = t[2] * (1.0 - g[2]) + at[0] + at[2] - at[1]
    return np.where(g[0] == 0.0, np.nan, lhs - rhs)


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
    return float(_foc_residuals(_part_cutoffs(part, inst), inst)[0])


def _foc_slopes(g, dg, inst: ProblemInstance) -> np.ndarray:
    """The derivative in phi of foc_residual at quantile cutoffs g with
    derivatives dg in phi (rows g1, g2, g3): with Q the quantile function,
    g1 Q'(g1) g1' + (1 - g2) Q'(g2) g2' - (1 - g3) Q'(g3) g3', Q' = 1 / f(Q)
    (each Q(g_j) g_j' from a product cancels one from an integral's end)."""
    weights = np.array([g[0], 1.0 - g[1], g[2] - 1.0])
    return np.sum(weights * dg / inst.dist.pdf(inst.dist.quantile(g)), axis=0)


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

    Finds the cutoffs of a grid of ``grid`` >= 2 guarantees over
    [(m-k)/n, m/n] in one batch, finds the sign changes of the first-order
    condition on it and polishes every bracketed root together to rounding
    by safeguarded Newton steps on the condition's closed-form slope, each
    from its grid cell's secant point (``envelope._newton_roots``, which
    also polishes the crossings).  It then evaluates the payoff at every
    root and both endpoints and returns the argmax with its partition.  No
    grid point, nor any point of a zoom onto the best one, may beat the
    winner by more than 1e-7 in payoff, otherwise a root was missed and
    solve raises.
    """
    if grid < 2:
        raise ValueError(f"grid must be at least 2, got {grid}")
    lo, hi = inst.phi_floor, inst.phi_max
    stats = Counter(curve_points=len(_TABLE_Q), foc_grid=grid)
    phis, _, g = _cutoffs(np.linspace(lo, hi, grid), inst, stats)
    residuals = _foc_residuals(g, inst, stats)
    # the condition is undefined exactly at the floor (empty incentive
    # region); probe just above so a root in the first cell is not missed
    if np.isnan(residuals[0]):
        probe_phi, _, probe_g = _cutoffs([lo + 1e-7 * (hi - lo)], inst, stats)
        probe_res = _foc_residuals(probe_g, inst, stats)[0]
        if not np.isnan(probe_res):
            phis[0], g[:, 0], residuals[0] = probe_phi[0], probe_g[:, 0], probe_res

    r0, r1 = residuals[:-1], residuals[1:]
    cells = np.flatnonzero(r0 * r1 < 0.0)

    def foc(phi, rows):
        _, crossings, cutoffs = _cutoffs(phi, inst, stats)
        return (_foc_residuals(cutoffs, inst, stats),
                _foc_slopes(cutoffs, _cutoff_slopes(crossings, inst), inst))

    # with g_tol 0 a root is resolved by its Newton step (4 ulps) or its
    # bracket (2 ulps), not by a small residual
    a, b, ra, rb = phis[cells], phis[cells + 1], r0[cells], r1[cells]
    polished, its = _newton_roots(foc, a, b, ra, rb, a - ra * (b - a) / (rb - ra),
                                  np.zeros(len(cells)))
    stats["polish_iterations"] += its
    roots = sorted([*phis[:-1][r0 == 0.0], *polished, *phis[-1:][residuals[-1:] == 0.0]])

    cand_phi, cand_crossings, cand_g = _cutoffs([lo, hi, *roots], inst, stats)
    values = _payoffs(np.append(cand_phi, phis), np.hstack([cand_g, g]), inst, stats).tolist()
    candidates = sorted((Candidate(p, u, "endpoint" if j < 2 else "foc-root")
                         for j, (p, u) in enumerate(zip(cand_phi.tolist(), values))),
                        key=lambda c: c.phi)
    best = max(range(len(cand_phi)), key=lambda j: (values[j], -cand_phi[j]))
    phi_star, u_star = float(cand_phi[best]), values[best]

    # the cross-check: the grid's best guarantee, zoomed 8-fold per round
    # onto its neighbours down to ZOOM_TOL, sees peaks narrower than a cell
    zs, us = phis, values[len(cand_phi):]
    while True:
        j = int(np.argmax(us))
        a, b = zs[max(j - 1, 0)], zs[min(j + 1, len(zs) - 1)]
        if b - a <= ZOOM_TOL:
            break
        zs, _, zg = _cutoffs(np.linspace(a, b, 17), inst, stats)
        us = _payoffs(zs, zg, inst, stats)
    if us[j] > u_star + CROSS_CHECK_TOL:
        raise RuntimeError(f"payoff U({zs[j]})={us[j]} on the guarantee grid exceeds the best "
                           f"enumerated candidate U({phi_star})={u_star}; a first-order "
                           "condition root was missed")

    stats["foc_roots"] = len(roots)
    return SolveReport(phi_star, u_star, float(_foc_residuals(cand_g[:, [best]], inst)[0]),
                       envelope._assemble(phi_star, cand_crossings[:, best].tolist(), inst),
                       baseline_payoffs(inst), tuple(candidates), dict(stats))
