"""Constraint envelopes for allocation with capacity-constrained verification.

For an instance with n agents, m objects and k < m audits, three functions
of the quantile q = F(t) bound the expected number of objects that can go
to agents with types above t:

    c_allo(q)      = sum_i min(i, m) C(n,i) (1-q)^i q^(n-i)
    c_aud(q, phi)  = sum_i min(i, k) C(n,i) (1-q)^i q^(n-i) + n (1-q) phi
    c_ic(q, phi)   = m - n q phi

c_allo comes from the object supply, c_aud from the audit capacity plus a
guarantee phi for low types, and c_ic from incentive compatibility.  The
pointwise minimum of the three is the binding upper bound; this module
evaluates the functions, their closed-form derivatives, and partitions the
type space into the regions where each constraint binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import brentq
from scipy.special import bdtr, bdtrc

from .distributions import TypeDistribution

ROOT_TOL = 1e-12

LABEL_IC = "ic"
LABEL_AUD = "aud"
LABEL_ALLO = "allo"
# tie priority at boundary points (zero-measure): ic beats aud beats allo
_PRIORITY = (LABEL_IC, LABEL_AUD, LABEL_ALLO)

CASE_AUD_ALLO = "AudAllo"
CASE_IC_ALLO_AUD_ALLO = "IcAlloAudAllo"
CASE_IC_AUD_ALLO = "IcAudAllo"
CASE_IC_ALLO = "IcAllo"

_CASE_BY_SEQUENCE = {
    (LABEL_AUD, LABEL_ALLO): CASE_AUD_ALLO,
    (LABEL_AUD,): CASE_AUD_ALLO,
    (LABEL_IC, LABEL_ALLO, LABEL_AUD, LABEL_ALLO): CASE_IC_ALLO_AUD_ALLO,
    (LABEL_IC, LABEL_AUD, LABEL_ALLO): CASE_IC_AUD_ALLO,
    (LABEL_IC, LABEL_ALLO): CASE_IC_ALLO,
    (LABEL_IC,): CASE_IC_ALLO,
}


@dataclass(frozen=True)
class ProblemInstance:
    """An allocation problem: n agents, m identical objects, k audits, k < m < n."""

    n: int
    m: int
    k: int
    dist: TypeDistribution

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.m, int) and isinstance(self.k, int)):
            raise ValueError("n, m, k must be integers")
        if not (0 < self.k < self.m < self.n):
            raise ValueError(
                f"need 0 < k < m < n, got n={self.n}, m={self.m}, k={self.k}"
            )

    @property
    def phi_max(self) -> float:
        return self.m / self.n

    @property
    def phi_floor(self) -> float:
        """Guarantee below which the audit constraint is dominated everywhere."""
        return (self.m - self.k) / self.n


@dataclass(frozen=True)
class RegionInterval:
    """One labeled interval of the type space; label applies on [lo, hi)."""

    lo: float
    hi: float
    label: str


@dataclass(frozen=True)
class RegionPartition:
    """Partition of the type space by which constraint binds at guarantee phi.

    gamma1, gamma2, gamma3 are the type-space cutoffs: the incentive
    constraint binds on [0, gamma1], the audit constraint on [gamma2,
    gamma3], and the supply constraint on the rest.  ``intervals`` lists the
    regions left to right (the supply region may appear twice); labels are
    right-continuous so a cutoff point belongs to the interval on its right.
    ``crossings`` holds the located pairwise crossing points in quantile
    space: z1 (ic vs allo), z2 (ic vs aud), r1 and r2 (allo vs aud).
    """

    phi: float
    case_tag: str
    gamma1: float
    gamma2: float
    gamma3: float
    intervals: tuple[RegionInterval, ...]
    crossings: dict = field(default_factory=dict)

    def region_of(self, t: float) -> str:
        """Label of the region containing type t (right-continuous at cutoffs)."""
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"type {t} outside [0, 1]")
        for iv in self.intervals[:-1]:
            if iv.lo <= t < iv.hi:
                return iv.label
        return self.intervals[-1].label

    def region_codes(self, t: np.ndarray) -> np.ndarray:
        """Vectorized region lookup; returns indices into ``intervals``.

        The index of t is the number of interval starts after the first at
        or below it, counted one start at a time: there are only a few.
        """
        idx = np.zeros(np.shape(t), dtype=np.int8)
        for iv in self.intervals[1:]:
            idx += t >= iv.lo
        return idx

    def to_record(self) -> dict:
        return {
            "phi": self.phi,
            "case": self.case_tag,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "gamma3": self.gamma3,
            "intervals": [
                {"lo": iv.lo, "hi": iv.hi, "label": iv.label} for iv in self.intervals
            ],
            "crossings": dict(self.crossings),
        }


# ---------------------------------------------------------------------------
# binomial building blocks
# ---------------------------------------------------------------------------

def _binom_cdf(j: int, n_trials: int, p):
    """P(Binomial(n_trials, p) <= j), elementwise in p (a float or an array).

    bdtr is exact at p = 0 and p = 1; j outside [0, n_trials) is settled
    without it.
    """
    if j < 0:
        return np.zeros_like(p)
    if j >= n_trials:
        return np.ones_like(p)
    return bdtr(j, n_trials, p)


def _capped_count_expectation(n_trials: int, cap: int, p):
    """E[min(X, cap)] for X ~ Binomial(n_trials, p), 0 < cap < n_trials.

    E[X; X <= cap] = n p P(Binomial(n-1, p) <= cap-1) gives the closed form
    n p bdtr(cap-1, n-1, p) + cap bdtrc(cap, n, p), elementwise in p; it is
    exactly 0 at p = 0 and exactly cap at p = 1, where bdtr and bdtrc are.
    """
    return n_trials * p * bdtr(cap - 1, n_trials - 1, p) + cap * bdtrc(cap, n_trials, p)


def _check_q(q):
    """q as a float, or as a float array for array input, checked to lie in [0, 1]."""
    if np.isscalar(q):
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile {q} outside [0, 1]")
        return float(q)
    arr = np.asarray(q, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        bad = arr[~((arr >= 0.0) & (arr <= 1.0))].flat[0]
        raise ValueError(f"quantile {bad} outside [0, 1]")
    return arr


def _like(value):
    """An array result as it is; a scalar one as a Python float."""
    return value if isinstance(value, np.ndarray) else float(value)


def _check_phi(phi: float, inst: ProblemInstance) -> float:
    if not (-1e-12 <= phi <= inst.phi_max + 1e-12):
        raise ValueError(f"phi={phi} outside [0, m/n] = [0, {inst.phi_max}]")
    return min(max(float(phi), 0.0), inst.phi_max)


# ---------------------------------------------------------------------------
# constraint functions and derivatives; q may be a scalar or an array
# ---------------------------------------------------------------------------

def c_allo(q, inst: ProblemInstance):
    """Supply bound: expected count min(#above, m); equals m at q=0 and 0 at q=1."""
    above = 1.0 - _check_q(q)
    return _like(_capped_count_expectation(inst.n, inst.m, above))


def c_aud(q, phi: float, inst: ProblemInstance):
    """Audit bound: expected count min(#above, k) plus the guarantee term n(1-q)phi."""
    above = 1.0 - _check_q(q)
    phi = _check_phi(phi, inst)
    return _like(_capped_count_expectation(inst.n, inst.k, above) + inst.n * above * phi)


def c_ic(q, phi: float, inst: ProblemInstance):
    """Incentive bound: m - n q phi."""
    q = _check_q(q)
    phi = _check_phi(phi, inst)
    return _like(inst.m - inst.n * q * phi)


def d_c_allo(q, inst: ProblemInstance):
    """Derivative of c_allo in q: -n * P(Binomial(n-1, 1-q) <= m-1)."""
    above = 1.0 - _check_q(q)
    return _like(-inst.n * _binom_cdf(inst.m - 1, inst.n - 1, above))


def d_c_aud(q, phi: float, inst: ProblemInstance):
    """Derivative of c_aud in q: -n * P(Binomial(n-1, 1-q) <= k-1) - n phi."""
    above = 1.0 - _check_q(q)
    phi = _check_phi(phi, inst)
    return _like(-inst.n * _binom_cdf(inst.k - 1, inst.n - 1, above) - inst.n * phi)


def d_c_ic(phi: float, inst: ProblemInstance) -> float:
    """Derivative of c_ic in q: -n phi (constant)."""
    phi = _check_phi(phi, inst)
    return -inst.n * phi


def envelope_value(q: float, phi: float, inst: ProblemInstance) -> tuple[float, str]:
    """Pointwise minimum of the three constraints and which one attains it.

    Exact ties are labeled by the fixed priority ic > aud > allo, which only
    affects zero-measure boundary points.
    """
    values = {
        LABEL_IC: c_ic(q, phi, inst),
        LABEL_AUD: c_aud(q, phi, inst),
        LABEL_ALLO: c_allo(q, inst),
    }
    vmin = min(values.values())
    tol = 1e-12 * max(1.0, abs(vmin))
    for label in _PRIORITY:
        if values[label] <= vmin + tol:
            return vmin, label
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# crossing location and the region partition
# ---------------------------------------------------------------------------

def _bracketed_root(f, a: float, b: float) -> float:
    return float(brentq(f, a, b, xtol=ROOT_TOL, maxiter=200))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """Golden-section maximizer of a scalar unimodal function on [a, b]."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def _scan_sign(f, grid: np.ndarray, want_negative: bool) -> Optional[float]:
    """First grid point, in grid order, where the array-valued f has the wanted sign."""
    v = f(grid)
    hits = np.flatnonzero(v < 0.0 if want_negative else v > 0.0)
    return float(grid[hits[0]]) if hits.size else None


# probes for the dip of c_ic - c_allo below zero, in scan order; the decades
# under 1e-6 come last and matter only for phi so small that the dip is
# narrower than the first probe
_Z1_PROBES = np.array([1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9,
                       *np.geomspace(1e-7, 1e-15, 9)])
# grids of the allo/aud scans: interior points of [0, 1]; probes away from
# q=0 and toward q=1; and steps from a peak toward q=1, as shares of 1 - peak
_AUD_SCAN = np.linspace(0.0, 1.0, 129)[1:-1]
_NEAR_ZERO = np.array([0.0, 1e-5, 1e-3, 1e-2])
_NEAR_ONE = 1.0 - np.geomspace(1e-6, 1.0, 24, endpoint=False)[::-1]
_PAST_PEAK = 1.0 - np.geomspace(1e-7, 1.0, 30, endpoint=False)[::-1]


def _differences(phi: float, inst: ProblemInstance):
    """c_ic - c_allo, c_aud - c_ic and c_allo - c_aud at a checked phi.

    The root searches call these tens of thousands of times on q in [0, 1]
    and a phi that ``partition`` has already clipped, so they skip the
    public functions' validation; each side is the public expression, so
    the values are the same bit for bit.
    """
    n, m, k = inst.n, inst.m, inst.k

    def ic_minus_allo(q):
        return (m - n * q * phi) - _capped_count_expectation(n, m, 1.0 - q)

    def aud_minus_ic(q):
        above = 1.0 - q
        return (_capped_count_expectation(n, k, above) + n * above * phi) - (m - n * q * phi)

    def allo_minus_aud(q):
        above = 1.0 - q
        return (_capped_count_expectation(n, m, above)
                - (_capped_count_expectation(n, k, above) + n * above * phi))

    return ic_minus_allo, aud_minus_ic, allo_minus_aud


def _locate_crossings(phi: float, inst: ProblemInstance) -> dict:
    """Find the pairwise crossing points in quantile space.

    z1: c_ic vs c_allo (unique interior crossing for phi > 0),
    z2: c_ic vs c_aud (unique crossing when phi > (m-k)/n),
    r1, r2: c_allo vs c_aud (at most two interior crossings).

    Sign scans evaluate the constraints on a whole probe grid in one call;
    every bracketed root is then polished by Brent iteration to ROOT_TOL.
    """
    crossings: dict = {}
    ic_minus_allo, aud_minus_ic, allo_minus_aud = _differences(phi, inst)

    # z1: both equal m at q=0; the difference dips negative then rises to
    # m - n*phi >= 0 at q=1 (convexity of ic - allo), so it is negative on
    # (0, z1) and any negative probe brackets z1 with q=1
    if phi <= 0.0:
        crossings["z1"] = 0.0
    else:
        probe = _scan_sign(ic_minus_allo, _Z1_PROBES, True)
        if probe is None:
            # no probe sees the dip: it is narrower than 1e-15 or shallower
            # than rounding, so z1 is indistinguishable from 0
            crossings["z1"] = 0.0
        elif ic_minus_allo(1.0) <= 0.0:
            crossings["z1"] = 1.0
        else:
            crossings["z1"] = _bracketed_root(ic_minus_allo, probe, 1.0)

    # z2: c_aud - c_ic is strictly decreasing past 0; positive at q=0 iff
    # phi > (m-k)/n, and <= 0 at q=1.
    if phi <= inst.phi_floor:
        crossings["z2"] = 0.0
    elif aud_minus_ic(1.0) >= 0.0:
        crossings["z2"] = 1.0
    else:
        crossings["z2"] = _bracketed_root(aud_minus_ic, 0.0, 1.0)

    # r1, r2: allo - aud is concave-difference with at most two interior
    # zeros and vanishes at q=1.
    g0 = allo_minus_aud(0.0)
    if g0 >= 0.0:
        # single interior crossing down (r1 pinned at 0); phi = 0 keeps the
        # audit bound below supply everywhere (allo - aud = E[min(X,m) -
        # min(X,k)] > 0 on [0, 1)) so the crossing sits at q=1, where the
        # difference is below rounding and is not scanned
        crossings["r1"] = 0.0
        neg = None if phi <= 0.0 else _scan_sign(allo_minus_aud, _NEAR_ONE, True)
        if neg is None:
            crossings["r2"] = 1.0
        else:
            # g0 = m - k - n*phi and the slope at q=0 is n*phi > 0, so a
            # positive probe exists unless the crossing sits within 1e-5 of 0
            pos = _scan_sign(allo_minus_aud, _NEAR_ZERO, False)
            if pos is None:
                raise RuntimeError(f"failed to bracket the allo/aud crossing at phi={phi}")
            crossings["r2"] = _bracketed_root(allo_minus_aud, pos, neg)
    else:
        # negative at both ends of (0, 1); an audit region exists iff the
        # difference turns positive somewhere in between
        vals = allo_minus_aud(_AUD_SCAN)
        imax = int(np.argmax(vals))
        q_peak = float(_AUD_SCAN[imax])
        g_peak = float(vals[imax])
        if g_peak <= 0.0:
            # the grid may straddle a narrow positive window near tangency;
            # refine the unique interior maximum before concluding
            lo_b = float(_AUD_SCAN[max(imax - 1, 0)])
            hi_b = float(_AUD_SCAN[min(imax + 1, len(_AUD_SCAN) - 1)])
            q_peak = _golden_max(allo_minus_aud, lo_b, hi_b, 1e-11)
            g_peak = allo_minus_aud(q_peak)
        if g_peak > 0.0:
            crossings["r1"] = _bracketed_root(allo_minus_aud, 0.0, q_peak)
            # past the peak the difference falls to -n*phi*(1-q) + o(1-q) < 0
            # near q=1; the probes reach within 1e-7 (1 - q_peak) of it
            neg = _scan_sign(allo_minus_aud, q_peak + (1.0 - q_peak) * _PAST_PEAK, True)
            if neg is None:
                raise RuntimeError(
                    f"failed to bracket the upper allo/aud crossing at phi={phi}"
                )
            crossings["r2"] = _bracketed_root(allo_minus_aud, q_peak, neg)
        # otherwise no interior crossings: the audit bound never undercuts supply

    return crossings


def partition(phi: float, inst: ProblemInstance) -> RegionPartition:
    """Partition the type space by the binding constraint at guarantee phi.

    Crossings are located by bracketed root-finding to 1e-12 in quantile
    space; region labels are then read off as the pointwise argmin between
    consecutive crossing candidates, so the emitted intervals always agree
    with the envelope minimum.  Quantile cutoffs are mapped to type space
    through the distribution's quantile function.
    """
    phi = _check_phi(phi, inst)
    crossings = _locate_crossings(phi, inst)

    # at or below (m-k)/n the audit bound sits weakly under the incentive
    # bound everywhere (E[min(X,k)] <= m - n*phi), often within float
    # resolution of it; labeling those stretches "aud" keeps the structure
    # that the incentive region is empty in this regime
    ic_dominated = phi <= inst.phi_floor

    cuts = sorted({0.0, 1.0, *(v for v in crossings.values() if 0.0 < v < 1.0)})
    runs: list[list] = []  # [label, q_lo, q_hi]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        _, label = envelope_value(mid, phi, inst)
        if ic_dominated and label == LABEL_IC:
            label = LABEL_AUD
        if runs and runs[-1][0] == label:
            runs[-1][2] = hi
        else:
            runs.append([label, lo, hi])

    sequence = tuple(r[0] for r in runs)
    case_tag = _CASE_BY_SEQUENCE.get(sequence)
    if case_tag is None:
        raise RuntimeError(
            f"unexpected envelope structure {sequence} at phi={phi} "
            f"(n={inst.n}, m={inst.m}, k={inst.k}); crossings={crossings}"
        )

    quantile = inst.dist.quantile
    intervals = tuple(
        RegionInterval(float(quantile(lo)), float(quantile(hi)), label)
        for label, lo, hi in runs
    )

    by_label: dict[str, list[RegionInterval]] = {}
    for iv in intervals:
        by_label.setdefault(iv.label, []).append(iv)

    if LABEL_IC in by_label:
        gamma1 = by_label[LABEL_IC][0].hi
    else:
        gamma1 = 0.0
    if LABEL_AUD in by_label:
        gamma2 = by_label[LABEL_AUD][0].lo
        gamma3 = by_label[LABEL_AUD][0].hi
    else:
        gamma2 = gamma3 = 1.0 if case_tag == CASE_IC_ALLO else gamma1
    if case_tag == CASE_AUD_ALLO:
        gamma1 = gamma2 = 0.0

    if not (-1e-9 <= gamma1 <= gamma2 + 1e-9 <= gamma3 + 2e-9 <= 1.0 + 3e-9):
        raise RuntimeError(
            f"cutoff ordering violated: {gamma1}, {gamma2}, {gamma3} at phi={phi}"
        )

    return RegionPartition(
        phi=phi,
        case_tag=case_tag,
        gamma1=float(gamma1),
        gamma2=float(gamma2),
        gamma3=float(gamma3),
        intervals=intervals,
        crossings=crossings,
    )
