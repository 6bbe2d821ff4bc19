"""Principal's payoff, the first-order condition, and the optimal guarantee.

The mechanism family is indexed by the guarantee phi in [(m-k)/n, m/n]
(values below the floor are dominated: raising phi relaxes the audit bound
at no cost).  The total payoff is n * E[P(t) * t]; interior optima satisfy

    g1 F(g1) + g2 (1 - F(g2))
        = g3 (1 - F(g3)) + int_0^g1 t dF + int_g2^g3 t dF

where g1 <= g2 <= g3 are the partition cutoffs at phi.  Nothing here
assumes the payoff is quasi-concave: solve() enumerates every bracketed
first-order-condition root plus both endpoints, takes the payoff argmax,
and cross-validates against a golden-section maximization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .distributions import expected_value, integrate, truncated_mean
from .envelope import (
    CASE_AUD_ALLO,
    ProblemInstance,
    RegionPartition,
    _golden_max,
    partition,
)
from .interim import allocation_branch, efficient_rule, top_k_rule

FOC_ROOT_TOL = 1e-10
GOLDEN_TOL = 1e-6
CROSS_CHECK_TOL = 1e-7


@dataclass(frozen=True)
class Candidate:
    phi: float
    payoff: float
    source: str  # "foc-root" | "endpoint" | "grid"


@dataclass(frozen=True)
class SolveReport:
    """Result of optimizing the guarantee for one problem instance.

    ``stats`` counts the work behind it: partitions built, FOC grid points
    scanned, FOC roots found and golden-section payoff evaluations.  It is
    left out of ``to_record()``, which holds results only.
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


def payoff(phi: float, inst: ProblemInstance,
           part: RegionPartition | None = None) -> float:
    """Total expected payoff n * E[P(t) t] of the guarantee-phi rule.

    Integrated piecewise over the partition intervals with the analytic
    branch form of P on each region.
    """
    if part is None:
        part = partition(phi, inst)
    total = sum(
        integrate(lambda t, label=iv.label: allocation_branch(label, t, part.phi, inst) * t,
                  inst.dist, iv.lo, iv.hi)
        for iv in part.intervals if iv.hi > iv.lo
    )
    return inst.n * total


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
    g1, g2, g3 = part.gamma1, part.gamma2, part.gamma3
    F = inst.dist.cdf
    lhs = g1 * float(F(g1)) + g2 * (1.0 - float(F(g2)))
    rhs = (
        g3 * (1.0 - float(F(g3)))
        + truncated_mean(inst.dist, 0.0, g1)
        + truncated_mean(inst.dist, g2, g3)
    )
    return lhs - rhs


def baseline_payoffs(inst: ProblemInstance) -> dict:
    """Reference payoffs: first best, uniform lottery, and audit-the-top-k.

    first_best allocates to the m highest types (infeasible without more
    audits).  random_lottery gives every agent probability m/n.  k_top
    audits the k highest reports, allocates to them, and spreads the
    remaining m - k objects uniformly over everyone else.
    """
    n, m, k = inst.n, inst.m, inst.k
    residual_share = (m - k) / (n - k)

    def p_ktop(t: float) -> float:
        p_top = top_k_rule(t, inst)
        return p_top + (1.0 - p_top) * residual_share

    fb = integrate(lambda t: efficient_rule(t, inst) * t, inst.dist, 0.0, 1.0)
    kt = integrate(lambda t: p_ktop(t) * t, inst.dist, 0.0, 1.0)

    return {
        "first_best": n * fb,
        "random_lottery": m * expected_value(inst.dist),
        "k_top": n * kt,
    }


def solve(inst: ProblemInstance, *, grid: int = 200) -> SolveReport:
    """Find the optimal guarantee phi* and its payoff.

    Scans a grid over [(m-k)/n, m/n] for sign changes of the first-order
    condition, refines each bracketed root to 1e-10, evaluates the payoff
    at every root and both endpoints and returns the argmax.  A
    golden-section maximization of the payoff must agree with the winner
    to within 1e-7 in value, otherwise a root was missed and solve raises.
    """
    lo, hi = inst.phi_floor, inst.phi_max
    part_cache: dict[float, RegionPartition] = {}

    def part_at(phi: float) -> RegionPartition:
        if phi not in part_cache:
            part_cache[phi] = partition(phi, inst)
        return part_cache[phi]

    def residual_or_none(phi: float):
        try:
            return foc_residual(phi, inst, part_at(phi))
        except ValueError:
            return None

    phis = [float(p) for p in np.linspace(lo, hi, grid)]
    residuals = [residual_or_none(p) for p in phis]
    # the condition is undefined exactly at the floor (empty incentive
    # region); probe just above so a root in the first cell is not missed
    if residuals[0] is None:
        probe = lo + 1e-7 * (hi - lo)
        probe_res = residual_or_none(probe)
        if probe_res is not None:
            phis[0], residuals[0] = probe, probe_res

    roots: list[float] = []
    for p0, p1, r0, r1 in zip(phis[:-1], phis[1:], residuals[:-1], residuals[1:]):
        if r0 is None or r1 is None:
            continue
        if r0 == 0.0:
            roots.append(float(p0))
        elif r0 * r1 < 0:
            roots.append(
                float(brentq(lambda p: foc_residual(p, inst, part_at(p)),
                             p0, p1, xtol=FOC_ROOT_TOL, maxiter=200))
            )
    if residuals[-1] == 0.0:
        roots.append(float(phis[-1]))

    candidates = [
        Candidate(phi=lo, payoff=payoff(lo, inst, part_at(lo)), source="endpoint"),
        Candidate(phi=hi, payoff=payoff(hi, inst, part_at(hi)), source="endpoint"),
    ]
    for r in roots:
        candidates.append(Candidate(phi=r, payoff=payoff(r, inst, part_at(r)),
                                    source="foc-root"))
    candidates.sort(key=lambda c: c.phi)

    best = max(candidates, key=lambda c: (c.payoff, -c.phi))

    golden_evals = 0

    def golden_payoff(phi: float) -> float:
        nonlocal golden_evals
        golden_evals += 1
        return payoff(phi, inst, part_at(phi))

    phi_gold = _golden_max(golden_payoff, lo, hi, GOLDEN_TOL)
    u_gold = payoff(phi_gold, inst, part_at(phi_gold))
    if u_gold > best.payoff + CROSS_CHECK_TOL:
        raise RuntimeError(
            f"golden-section maximum U({phi_gold})={u_gold} exceeds the best "
            f"enumerated candidate U({best.phi})={best.payoff}; a first-order "
            "condition root was missed"
        )

    res_star = residual_or_none(best.phi)
    return SolveReport(
        phi_star=best.phi,
        payoff=best.payoff,
        foc_residual=float("nan") if res_star is None else res_star,
        partition=part_at(best.phi),
        baselines=baseline_payoffs(inst),
        candidates=tuple(candidates),
        stats={"partitions": len(part_cache), "foc_grid": len(phis),
               "foc_roots": len(roots), "golden_evals": golden_evals},
    )
