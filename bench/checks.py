"""Independent checks of every operation's output.

Each check recomputes what it can apart from the program, from closed
forms and the benchmark's own envelope built on ``scipy.special`` binomial
tails, or tests a property the method must have.  Nothing here calls
``verialloc``: a check reads an output, never the code that made it.

``make_checker(workload, state)`` returns a function that takes one
operation's output and returns a list of failure messages (empty when the
output passes).  Reference values that depend only on the inputs are
computed once, when the checker is made.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import bdtr, bdtrc, betaln

PAPER_PHI = 0.34764
PAPER_PAYOFF = 1.223


# ---------------------------------------------------------------------------
# the benchmark's own envelope, for cdf t^alpha on [0, 1]
# ---------------------------------------------------------------------------

def capped_mean(n: int, c: int, p):
    """E[min(X, c)] for X ~ Binomial(n, p), as the sum of P(X > j), j < c."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    for j in range(c):
        out += bdtrc(j, n, p)
    return out


def envelopes(n: int, m: int, k: int, phi: float, q):
    """(c_ic, c_aud, c_allo) at quantiles q."""
    q = np.asarray(q, dtype=float)
    above = 1.0 - q
    return (m - n * q * phi,
            capped_mean(n, k, above) + n * above * phi,
            capped_mean(n, m, above))


def branch_P(label: str, n: int, m: int, k: int, phi: float, q):
    """Interim allocation -(1/n) d/dq of the constraint binding on ``label``."""
    above = 1.0 - np.asarray(q, dtype=float)
    if label == "ic":
        return phi + 0.0 * above
    if label == "aud":
        return bdtr(k - 1, n - 1, above) + phi
    if label == "allo":
        return bdtr(m - 1, n - 1, above)
    raise ValueError(f"unknown region label {label!r}")


def own_P(n: int, m: int, k: int, phi: float, q) -> np.ndarray:
    """Interim allocation of the binding constraint, ties to ic, then aud."""
    ic, aud, allo = envelopes(n, m, k, phi, q)
    low = np.minimum(np.minimum(ic, aud), allo)
    tol = 1e-12 * np.maximum(1.0, np.abs(low))
    return np.where(ic <= low + tol, branch_P("ic", n, m, k, phi, q),
                    np.where(aud <= low + tol, branch_P("aud", n, m, k, phi, q),
                             branch_P("allo", n, m, k, phi, q)))


class EnvelopePayoff:
    """U(phi) = integral over t of the envelope at F(t).

    n E[P(t) t] equals the integral of n * int_t^1 P dF over t in [0, 1],
    and the inner integral is the envelope value at F(t).  The t-grid is
    t = s^2 so the cusp of t^alpha at 0 is smoothed; the phi-free parts of
    the envelope are evaluated once per instance.
    """

    def __init__(self, n: int, m: int, k: int, alpha: float, points: int = 20_001):
        self.n, self.m, self.k = n, m, k
        self.s = np.linspace(0.0, 1.0, points)
        self.q = (self.s ** 2) ** alpha
        above = 1.0 - self.q
        self.allo = capped_mean(n, m, above)
        self.kcap = capped_mean(n, k, above)

    def __call__(self, phi: float) -> float:
        n, m, q = self.n, self.m, self.q
        env = np.minimum(np.minimum(m - n * q * phi, self.kcap + n * (1.0 - q) * phi),
                         self.allo)
        return float(np.trapezoid(env * 2.0 * self.s, self.s))


def order_stat_means(n: int, alpha: float) -> np.ndarray:
    """E[X_(j:n)], j = 1..n ascending, for cdf t^alpha: B(j+1/a, n-j+1)/B(j, n-j+1)."""
    j = np.arange(1, n + 1, dtype=float)
    return np.exp(betaln(j + 1.0 / alpha, n - j + 1) - betaln(j, n - j + 1))


def closed_form_baselines(n: int, m: int, k: int, alpha: float) -> dict:
    means = order_stat_means(n, alpha)
    top_m = float(means[n - m:].sum())
    top_k = float(means[n - k:].sum())
    total = n * alpha / (alpha + 1.0)
    return {
        "first_best": top_m,
        "random_lottery": m * alpha / (alpha + 1.0),
        "k_top": top_k + (m - k) / (n - k) * (total - top_k),
    }


def payoff_from_intervals(n: int, m: int, k: int, alpha: float, phi: float,
                          intervals) -> float:
    """n * sum over reported intervals of the integral of P_label(t) t dF(t)."""
    total = 0.0
    for iv in intervals:
        if iv.hi <= iv.lo:
            continue
        piece, _ = quad(
            lambda t, lab=iv.label: float(branch_P(lab, n, m, k, phi, t ** alpha))
            * alpha * t ** alpha,
            iv.lo, iv.hi, epsabs=1e-13, limit=200)
        total += piece
    return n * total


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

class SolveChecker:
    """Baselines, ordering, payoff, paper values, labels and optimality."""

    PHI_GRID = 41

    def __init__(self, specs):
        self.specs = list(specs)
        self.baselines = [closed_form_baselines(*s) for s in self.specs]
        self.payoffs = [EnvelopePayoff(*s) for s in self.specs]
        self.grid_best = []
        for (n, m, k, _), U in zip(self.specs, self.payoffs):
            phis = np.linspace((m - k) / n, m / n, self.PHI_GRID)
            self.grid_best.append(max((U(float(p)), float(p)) for p in phis))

    def __call__(self, reports) -> list[str]:
        if len(reports) != len(self.specs):
            return [f"expected {len(self.specs)} reports, got {len(reports)}"]
        fails = []
        for spec, base, U, best, rep in zip(self.specs, self.baselines, self.payoffs,
                                            self.grid_best, reports):
            fails += [f"solve{spec}: {msg}" for msg in self.check_one(spec, base, U, best, rep)]
        return fails

    @staticmethod
    def check_one(spec, base, U, best, rep) -> list[str]:
        n, m, k, alpha = spec
        fails = []
        phi, u = rep.phi_star, rep.payoff
        for key, value in base.items():
            if not _close(rep.baselines.get(key, math.nan), value, 1e-9):
                fails.append(f"baseline {key} {rep.baselines.get(key)} != closed form {value}")
        if not (base["k_top"] - 1e-9 <= u <= base["first_best"] + 1e-9):
            fails.append(f"payoff {u} outside [k_top, first_best]")
        if not ((m - k) / n - 1e-12 <= phi <= m / n + 1e-12):
            fails.append(f"phi* {phi} outside [(m-k)/n, m/n]")
        own = payoff_from_intervals(n, m, k, alpha, phi, rep.partition.intervals)
        if not _close(u, own, 1e-9):
            fails.append(f"payoff {u} != {own} integrated from the reported intervals")
        if spec == (3, 2, 1, 1.0) and not (abs(phi - PAPER_PHI) <= 1e-4
                                           and abs(u - PAPER_PAYOFF) <= 1e-3):
            fails.append(f"(phi*, U) = ({phi}, {u}), paper has ({PAPER_PHI}, {PAPER_PAYOFF})")
        for iv in rep.partition.intervals:
            if iv.hi - iv.lo <= 1e-12:
                continue
            q = (0.5 * (iv.lo + iv.hi)) ** alpha
            values = dict(zip(("ic", "aud", "allo"),
                              (float(v) for v in envelopes(n, m, k, phi, q))))
            low = min(values.values())
            if values.get(iv.label, math.inf) > low + 1e-9 * max(1.0, abs(low)):
                fails.append(f"interval [{iv.lo}, {iv.hi}) labelled {iv.label!r}, "
                             f"envelope minimum there is {min(values, key=values.get)!r}")
        u_env = U(phi)
        if not _close(u, u_env, 1e-6):
            fails.append(f"payoff {u} != envelope integral {u_env}")
        if best[0] > u_env + 1e-6 * max(1.0, abs(u_env)):
            fails.append(f"grid phi={best[1]} reaches {best[0]} > U* {u_env}")
        return fails


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class SimulateChecker:
    """Per-bin targets and properties, capacity, and the payoff of the run."""

    SUBCELLS = 4_000
    MIN_BINS_WITHIN_3SE = 60  # of 64: "all but a few"

    def __init__(self, spec, phi: float, trials: int, bins: int = 64):
        n, m, k, alpha = spec
        self.spec, self.phi, self.trials, self.bins = spec, phi, trials, bins
        self.p_target = np.empty(bins)
        for b in range(bins):
            edges = np.linspace(b / bins, (b + 1) / bins, self.SUBCELLS + 1)
            dF = np.diff(edges ** alpha)
            P = own_P(n, m, k, phi, (0.5 * (edges[:-1] + edges[1:])) ** alpha)
            self.p_target[b] = np.sum(P * dF) / np.sum(dF)
        self.payoff = EnvelopePayoff(*spec)(phi)
        # a profile's payoff lies in [0, m], so its standard deviation is at most m/2
        self.payoff_tol = 5.0 * (m / 2.0) / math.sqrt(trials)

    def __call__(self, rep) -> list[str]:
        n, m, k, _ = self.spec
        fails = []
        p_hat, a_hat = np.asarray(rep.p_hat), np.asarray(rep.a_hat)
        draws = np.asarray(rep.draws, dtype=float)
        if p_hat.shape != (self.bins,) or a_hat.shape != (self.bins,) or draws.shape != (self.bins,):
            return [f"report does not have {self.bins} bins"]
        if draws.sum() != n * self.trials:
            fails.append(f"draws sum to {draws.sum()}, expected n * trials = {n * self.trials}")
        with np.errstate(divide="ignore", invalid="ignore"):
            se = np.sqrt(np.clip(self.p_target * (1 - self.p_target), 1e-12, None) / draws)
            within = int(np.sum(np.abs(p_hat - self.p_target) <= 3.0 * se))
        if within < self.MIN_BINS_WITHIN_3SE:
            fails.append(f"only {within}/{self.bins} bins of P-hat within 3 se of the target")
        if np.any(a_hat > p_hat + 1e-12):
            fails.append(f"A-hat above P-hat in {int(np.sum(a_hat > p_hat + 1e-12))} bins")
        alloc_per_profile = float(np.sum(p_hat * draws)) / self.trials
        audit_per_profile = float(np.sum(a_hat * draws)) / self.trials
        if alloc_per_profile > m + 1e-9:
            fails.append(f"mean allocations per profile {alloc_per_profile} > m = {m}")
        if audit_per_profile > k + 1e-9:
            fails.append(f"mean audits per profile {audit_per_profile} > k = {k}")
        if rep.capacity_violations != 0:
            fails.append(f"{rep.capacity_violations} capacity violations")
        if abs(rep.payoff_total - self.payoff) > self.payoff_tol:
            fails.append(f"payoff_total {rep.payoff_total} is more than {self.payoff_tol:.4g} "
                         f"from U = {self.payoff}")
        return fails


# ---------------------------------------------------------------------------
# feasibility certificates
# ---------------------------------------------------------------------------

def expost_failures(masses, alloc, requested, cap: int, tol: float,
                    eligible=None) -> list[str]:
    """Re-sum an ex-post rule: entries, eligibility, row sums and marginals."""
    masses = [np.asarray(w, dtype=float) for w in masses]
    sizes = [len(w) for w in masses]
    n = len(masses)
    alloc = np.asarray(alloc, dtype=float)
    if alloc.shape != (math.prod(sizes), n):
        return [f"ex-post rule has shape {alloc.shape}, expected {(math.prod(sizes), n)}"]
    fails = []
    if alloc.min() < -1e-12 or alloc.max() > 1.0 + 1e-12:
        fails.append(f"entries outside [0, 1]: min {alloc.min()}, max {alloc.max()}")
    if eligible is not None:
        stray = np.abs(alloc[~np.asarray(eligible, dtype=bool)])
        if stray.size and stray.max() > 0.0:
            fails.append(f"ineligible agents receive up to {stray.max()}")
    if alloc.sum(axis=1).max() > cap + 1e-12:
        fails.append(f"a row sums to {alloc.sum(axis=1).max()} > h = {cap}")
    for i in range(n):
        weight = np.ones(sizes)
        for j in range(n):
            if j != i:
                shape = [1] * n
                shape[j] = sizes[j]
                weight = weight * masses[j].reshape(shape)
        other = tuple(j for j in range(n) if j != i)
        marginal = (alloc[:, i].reshape(sizes) * weight).sum(axis=other)
        err = float(np.max(np.abs(marginal - np.asarray(requested[i], dtype=float))))
        if err > tol:
            fails.append(f"agent {i} marginal differs from the requested rule by {err:.3g}")
    return fails


def exact_sides(masses, A, eligible, cap: int, E) -> tuple[Fraction, Fraction]:
    """Exact (demand, supply) of check set E with rational masses and rule."""
    lhs = sum((Fraction(A[i][t]) * Fraction(masses[i][t])
               for i, Ei in enumerate(E) for t in Ei), Fraction(0))
    denom = max(Fraction(w).denominator for row in masses for w in row)
    units = [[int(Fraction(w) * denom) for w in row] for row in masses]
    n = len(masses)
    total = 0
    for pid, prof in enumerate(itertools.product(*(range(len(r)) for r in masses))):
        hits = sum(1 for i in range(n) if eligible[pid][i] and prof[i] in E[i])
        if hits:
            w = 1
            for i in range(n):
                w *= units[i][prof[i]]
            total += w * min(hits, cap)
    return lhs, Fraction(total, denom ** n)


def violated_set_failures(masses, A, eligible, cap: int, vset) -> list[str]:
    lhs, rhs = exact_sides(masses, A, eligible, cap, vset.check_set)
    fails = []
    if not lhs > rhs:
        fails.append(f"violated set does not violate: exact lhs {float(lhs)} <= rhs {float(rhs)}")
    if abs(vset.lhs - float(lhs)) > 1e-7 or abs(vset.rhs - float(rhs)) > 1e-7:
        fails.append(f"reported sides ({vset.lhs}, {vset.rhs}) != exact "
                     f"({float(lhs)}, {float(rhs)})")
    return fails


def check_symmetric_failures(state: dict, verdict) -> list[str]:
    disc = state["disc"]
    if not verdict.feasible or verdict.expost is None:
        return ["the discretized optimal rule came back infeasible or without an ex-post rule"]
    n = disc.n_agents
    return expost_failures(disc.masses, verdict.expost.alloc, [state["p_avg"]] * n,
                           disc.capacity_default, 1e-9)


def check_audit_failures(state: dict, verdicts) -> list[str]:
    disc, p_merit, k = state["disc"], state["p_merit"], state["k"]
    feasible, infeasible = verdicts
    fails = []
    if not feasible.feasible or feasible.expost is None:
        fails.append("the damped audit rule came back infeasible or without an ex-post rule")
    else:
        fails += expost_failures(disc.masses, feasible.expost.alloc, state["A_feasible"],
                                 k, 2e-9, eligible=p_merit)
    if infeasible.feasible or infeasible.violating_set is None:
        fails.append("the inflated audit rule came back feasible or without a violated set")
    else:
        fails += violated_set_failures(disc.masses, state["A_infeasible"], p_merit, k,
                                       infeasible.violating_set)
    return fails


def make_checker(workload: str, state: dict):
    if workload == "solve":
        return SolveChecker(state["specs"])
    if workload == "simulate":
        return SimulateChecker(state["spec"], state["phi"], state["trials"])
    if workload == "check-symmetric":
        return lambda verdict: check_symmetric_failures(state, verdict)
    if workload == "check-audit":
        return lambda verdicts: check_audit_failures(state, verdicts)
    raise ValueError(f"unknown workload {workload!r}")
