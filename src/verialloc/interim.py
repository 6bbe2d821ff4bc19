"""Interim allocation and audit rules for the guarantee-phi mechanism family.

The merit-with-guarantee rule allocates as much as possible to high types
subject to the constraint envelope: its interim allocation probability is
P(t) = -(1/n) * d/dq [envelope](F(t)), taking the right-hand branch at
kinks, and its interim audit probability is A(t) = P(t) - phi.  On each
region of the partition P has a closed form:

    incentive region:  P(t) = phi
    audit region:      P(t) = P(at most k-1 others above t) + phi
    supply region:     P(t) = P(at most m-1 others above t)

so P is evaluated piecewise-analytically rather than by differencing the
envelope numerically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import _values, integrate
from .envelope import (
    LABEL_ALLO,
    LABEL_AUD,
    LABEL_IC,
    ProblemInstance,
    RegionPartition,
    _binom_cdf,
    partition,
)

_INF_GRID = 10_001


@dataclass(frozen=True)
class InterimRules:
    """A pair of interim rules: allocation P and audit A, both type -> [0, 1].

    ``merit_with_guarantee`` builds the optimal family; the container also
    accepts arbitrary callables so candidate rules can be checked for
    incentive compatibility.
    """

    P: Callable[[float], float]
    A: Callable[[float], float]
    phi: Optional[float] = None
    partition: Optional[RegionPartition] = None
    inst: Optional[ProblemInstance] = None

    def sample_table(self, grid: int = 1001) -> np.ndarray:
        """(t, P, A) rows on an evenly spaced type grid; P and A get the
        whole grid at once where they take arrays."""
        ts = np.linspace(0.0, 1.0, grid)
        return np.column_stack([ts, _values(self.P, ts), _values(self.A, ts)])

    def to_csv(self, path, grid: int = 1001) -> None:
        table = self.sample_table(grid)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "P", "A"])
            for row in table:
                writer.writerow([f"{x:.12g}" for x in row])


def allocation_branch(label: str, t, phi: float, inst: ProblemInstance):
    """Interim allocation probability of the branch binding on ``label``,
    elementwise in t."""
    above = 1.0 - inst.dist.cdf(t)
    if label == LABEL_IC:
        return phi + 0.0 * above
    if label == LABEL_AUD:
        return _binom_cdf(inst.k - 1, inst.n - 1, above) + phi
    if label == LABEL_ALLO:
        return _binom_cdf(inst.m - 1, inst.n - 1, above)
    raise ValueError(f"unknown region label {label!r}")


def efficient_rule(t, inst: ProblemInstance):
    """First-best interim rule: probability of being among the m highest types."""
    return allocation_branch(LABEL_ALLO, t, 0.0, inst)


def top_k_rule(t, inst: ProblemInstance):
    """Probability of being among the k highest types."""
    return allocation_branch(LABEL_AUD, t, 0.0, inst)


def merit_with_guarantee(phi: float, inst: ProblemInstance,
                         part: Optional[RegionPartition] = None) -> InterimRules:
    """Build the merit-with-guarantee interim rules at guarantee phi.

    P follows the analytic derivative of the binding constraint on each
    partition interval, applying the right-hand branch at cutoffs, and
    A = P - phi binds the incentive constraint everywhere.  Both are
    elementwise in t.
    """
    if part is None:
        part = partition(phi, inst)
    phi = part.phi

    def P(t):
        t = np.asarray(t, dtype=float)
        if t.size and not (t.min() >= 0.0 and t.max() <= 1.0):
            raise ValueError(f"types outside [0, 1]: {t}")
        codes = part.region_codes(t)
        out = np.empty(t.shape)
        for code, iv in enumerate(part.intervals):
            hit = codes == code
            if hit.any():
                out[hit] = allocation_branch(iv.label, t[hit], phi, inst)
        return out[()]

    def A(t):
        return P(t) - phi

    return InterimRules(P=P, A=A, phi=phi, partition=part, inst=inst)


def interim_integral(rules: InterimRules, inst: ProblemInstance, t: float) -> float:
    """n times the integral of P(x) dF(x) over [t, 1].

    For merit-with-guarantee rules this equals the envelope value at F(t)
    since the envelope vanishes at q = 1.  Quadrature is split at the
    partition cutoffs where P has kinks.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"type {t} outside [0, 1]")
    if t == 1.0:
        return 0.0
    breakpoints = (
        [iv.lo for iv in rules.partition.intervals]
        if rules.partition is not None else []
    )
    return inst.n * integrate(rules.P, inst.dist, t, 1.0, breakpoints)


def bic_slack(rules: InterimRules) -> Callable[[float], float]:
    """Incentive-compatibility slack t -> A(t) - (P(t) - inf P).

    Truthful reporting is optimal for every type iff the slack is
    nonnegative everywhere.  inf P is taken over a dense grid plus the
    partition cutoffs, which is exact for piecewise-continuous rules with
    finitely many pieces.
    """
    ts = np.linspace(0.0, 1.0, _INF_GRID)
    candidates = _values(rules.P, ts).tolist()
    if rules.partition is not None:
        for iv in rules.partition.intervals:
            candidates.append(rules.P(iv.lo))
            candidates.append(rules.P(min(iv.hi, 1.0)))
    p_inf = min(candidates)

    def slack(t: float) -> float:
        return rules.A(t) - (rules.P(t) - p_inf)

    return slack
