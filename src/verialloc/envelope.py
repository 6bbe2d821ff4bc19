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
evaluates the functions and their closed-form derivatives.

Which bound binds is given by three quantile cutoffs g1 <= g2 <= g3: c_ic
on [0, g1), c_aud on [g2, g3) and c_allo on the rest.  They follow from
where the bounds cross each other, for a whole array of guarantees at once;
a ``RegionPartition`` is built only from the cutoffs of one guarantee.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import bdtr, bdtrc

from .distributions import TypeDistribution

LABEL_IC = "ic"
LABEL_AUD = "aud"
LABEL_ALLO = "allo"
# tie priority at boundary points (zero-measure): ic beats aud beats allo
_PRIORITY = (LABEL_IC, LABEL_AUD, LABEL_ALLO)

CASE_AUD_ALLO = "AudAllo"
CASE_IC_ALLO_AUD_ALLO = "IcAlloAudAllo"
CASE_IC_AUD_ALLO = "IcAudAllo"
CASE_IC_ALLO = "IcAllo"


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


def _check_q(q) -> np.ndarray:
    """q as a float array (0-d for a float), checked to lie in [0, 1]."""
    arr = np.asarray(q, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        bad = arr[~((arr >= 0.0) & (arr <= 1.0))].flat[0]
        raise ValueError(f"quantile {bad} outside [0, 1]")
    return arr


def _check_phis(phis, inst: ProblemInstance) -> np.ndarray:
    """The guarantees as a float array, each checked to lie in [0, m/n] up to
    1e-12 and clipped onto it."""
    given = np.atleast_1d(phis)
    phi = given.astype(float)
    bad = ~((phi >= -1e-12) & (phi <= inst.phi_max + 1e-12))
    if bad.any():
        raise ValueError(f"phi={given[bad][0].item()} outside [0, m/n] = [0, {inst.phi_max}]")
    return np.clip(phi, 0.0, inst.phi_max)


def _check_phi(phi: float, inst: ProblemInstance) -> float:
    return float(_check_phis([phi], inst)[0])


# ---------------------------------------------------------------------------
# constraint functions and derivatives, elementwise in q
# ---------------------------------------------------------------------------

def c_allo(q, inst: ProblemInstance):
    """Supply bound: expected count min(#above, m); equals m at q=0 and 0 at q=1."""
    above = 1.0 - _check_q(q)
    return _capped_count_expectation(inst.n, inst.m, above)


def c_aud(q, phi: float, inst: ProblemInstance):
    """Audit bound: expected count min(#above, k) plus the guarantee term n(1-q)phi."""
    above = 1.0 - _check_q(q)
    phi = _check_phi(phi, inst)
    return _capped_count_expectation(inst.n, inst.k, above) + inst.n * above * phi


def c_ic(q, phi: float, inst: ProblemInstance):
    """Incentive bound: m - n q phi."""
    q = _check_q(q)
    phi = _check_phi(phi, inst)
    return inst.m - inst.n * q * phi


def d_c_allo(q, inst: ProblemInstance):
    """Derivative of c_allo in q: -n * P(Binomial(n-1, 1-q) <= m-1)."""
    above = 1.0 - _check_q(q)
    return -inst.n * _binom_cdf(inst.m - 1, inst.n - 1, above)


def d_c_aud(q, phi: float, inst: ProblemInstance):
    """Derivative of c_aud in q: -n * P(Binomial(n-1, 1-q) <= k-1) - n phi."""
    above = 1.0 - _check_q(q)
    phi = _check_phi(phi, inst)
    return -inst.n * _binom_cdf(inst.k - 1, inst.n - 1, above) - inst.n * phi


def d_c_ic(phi: float, inst: ProblemInstance) -> float:
    """Derivative of c_ic in q: -n phi (constant)."""
    phi = _check_phi(phi, inst)
    return -inst.n * phi


def envelope_value(q, phi: float, inst: ProblemInstance):
    """Pointwise minimum of the three constraints and which one attains it,
    elementwise in q.

    Exact ties are labeled by the fixed priority ic > aud > allo, which only
    affects zero-measure boundary points.
    """
    values = [c_ic(q, phi, inst), c_aud(q, phi, inst), c_allo(q, inst)]
    vmin = np.minimum(np.minimum(values[0], values[1]), values[2])
    tol = 1e-12 * np.maximum(1.0, np.abs(vmin))
    return vmin, np.select([v <= vmin + tol for v in values], _PRIORITY, LABEL_ALLO)


# ---------------------------------------------------------------------------
# the three phi-free curves behind the crossings
# ---------------------------------------------------------------------------
# With X ~ Binomial(n, 1-q) agents above quantile q, each crossing at
# guarantee phi is where a curve that does not depend on phi equals phi:
#   c_ic < c_allo   where  z1 curve  E[(m-X)^+] / (n q)                    < phi,
#   c_aud < c_ic    where  z2 curve  (m - k + E[(k-X)^+]) / n              > phi,
#   c_aud < c_allo  where  band      (E[min(X,m)] - E[min(X,k)]) / (n(1-q)) > phi.
# z1 and z2 rise from 0 and (m-k)/n to m/n; the band rises from (m-k)/n to
# one interior peak and falls to 0 (its slope has the sign of m P(X > m) -
# k P(X > k), which changes once as P(X > m) / P(X > k) rises in 1-q).

def _shortfall(n_trials: int, cap: int, p):
    """E[(cap - X)^+] for X ~ Binomial(n_trials, p): cap P(X <= cap-1) minus
    E[X; X <= cap-1].  Unlike cap - E[min(X, cap)] it keeps its relative
    precision where it is small."""
    return (cap * _binom_cdf(cap - 1, n_trials, p)
            - n_trials * p * _binom_cdf(cap - 2, n_trials - 1, p))


def _band(n: int, m: int, k: int, p):
    """E[min(X, m)] - E[min(X, k)] for X ~ Binomial(n, p), by upper tails."""
    return (n * p * (bdtrc(k - 1, n - 1, p) - bdtrc(m - 1, n - 1, p))
            + m * bdtrc(m, n, p) - k * bdtrc(k, n, p))


def _curve_z1(q, n: int, m: int, k: int):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q > 0.0, _shortfall(n, m, 1.0 - q) / (n * q), 0.0)


def _curve_z2(q, n: int, m: int, k: int):
    return (m - k + _shortfall(n, k, 1.0 - q)) / n


def _curve_band(q, n: int, m: int, k: int):
    p = 1.0 - q
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, _band(n, m, k, p) / (n * p), 0.0)


# quantiles of the curve tables: 256 equal steps, refined by halvings toward
# both ends, where the crossings of guarantees near 0 and m/n sit
_TABLE_Q = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257), 0.5 ** np.arange(9, 61),
                                     1.0 - 0.5 ** np.arange(9, 54)]))


def _bracketed_roots(g, lo, hi, g_lo, g_hi):
    """A root of g in each bracket [lo[i], hi[i]], where g_lo = g(lo) and
    g_hi = g(hi) differ in sign, and the number of iterations.

    g(x, rows) evaluates the function of the brackets ``rows`` at x.  All
    brackets are polished together by the Illinois variant of regula falsi
    until each is resolved to rounding (the secant step lands on an end or
    hits a zero); the last iterate is the root.
    """
    lo, hi, g_lo, g_hi = (np.array(v, dtype=float) for v in (lo, hi, g_lo, g_hi))
    root = np.where(g_lo == 0.0, lo, hi)
    last = np.zeros(len(lo), dtype=np.int8)  # the end moved last: -1 lo, 1 hi
    rows = np.flatnonzero((g_lo != 0.0) & (g_hi != 0.0))
    iterations = 0
    while rows.size and iterations < 200:
        iterations += 1
        a, b, ga, gb = lo[rows], hi[rows], g_lo[rows], g_hi[rows]
        x = np.clip(a - ga * (b - a) / (gb - ga), a, b)
        gx = g(x, rows)
        root[rows] = x
        move_lo = np.sign(gx) == np.sign(ga)
        # Illinois: an end kept twice running has its value halved
        g_lo[rows] = np.where(move_lo, gx, np.where(last[rows] == 1, 0.5 * ga, ga))
        g_hi[rows] = np.where(move_lo, np.where(last[rows] == -1, 0.5 * gb, gb), gx)
        lo[rows], hi[rows] = np.where(move_lo, x, a), np.where(move_lo, b, x)
        last[rows] = np.where(move_lo, -1, 1)
        rows = rows[(gx != 0.0) & (x != a) & (x != b)]
    return root, iterations


@functools.lru_cache(maxsize=64)
def _curves(n: int, m: int, k: int):
    """The z1, z2 and band curves on _TABLE_Q and the band's peak (q, value),
    located as the root of the sign of its slope."""
    q = _TABLE_Q
    band = _curve_band(q, n, m, k)
    i = int(np.argmax(band))

    def rise(x, rows):  # the sign of the band's slope in q
        return m * bdtrc(m, n, 1.0 - x) - k * bdtrc(k, n, 1.0 - x)

    lo, hi = q[i - 1:i], q[i + 1:i + 2]
    peak, _ = _bracketed_roots(rise, lo, hi, rise(lo, None), rise(hi, None))
    return (_curve_z1(q, n, m, k), _curve_z2(q, n, m, k), band,
            float(peak[0]), float(_curve_band(peak[0], n, m, k)))


def _crossings(phi: np.ndarray, inst: ProblemInstance, stats=None) -> np.ndarray:
    """Rows z1, z2, r1 and r2 at each (checked) guarantee, NaN where r1, r2
    do not exist.  Each crossing inside its curve's range is bracketed by
    ``searchsorted`` on a running maximum of the table (valid even where
    rounding made the table dip); all polish together.  ``stats``, a
    Counter if given, gains the polish iterations."""
    n, m, k = inst.n, inst.m, inst.k
    z1_tab, z2_tab, band_tab, q_peak, band_peak = _curves(n, m, k)
    q = _TABLE_Q
    rise, fall = q < q_peak, q > q_peak
    # within rounding of (m-k)/n the incentive and audit bounds differ by
    # less than the rounding of m: there is no incentive region to tell
    # apart, and at phi = 0 the audit bound stays below supply on [0, 1)
    dominated = phi <= inst.phi_floor + 4.0 * np.finfo(float).eps * inst.phi_max
    out = np.array([np.where(phi <= 0.0, 0.0, 1.0), np.where(dominated, 0.0, 1.0),
                    np.where(dominated, 0.0, np.nan), np.where(phi <= 0.0, 1.0, np.nan)])
    curves = (_curve_z1, _curve_z2, _curve_band)
    level_sets = (  # (curve, table q, table values, rising, guarantees inside)
        (0, q, z1_tab, 1.0, (phi > 0.0) & (phi < inst.phi_max)),
        (1, q, z2_tab, 1.0, ~dominated & (phi < inst.phi_max)),
        (2, np.append(q[rise], q_peak), np.append(band_tab[rise], band_peak), 1.0,
         ~dominated & (phi < band_peak)),
        (2, np.insert(q[fall], 0, q_peak), np.insert(band_tab[fall], 0, band_peak), -1.0,
         (phi > 0.0) & (phi < band_peak)),
    )
    rows = []  # (crossing, phi index, curve, sign, lo, hi, g_lo, g_hi)
    for c, (curve, tq, tv, sign, inside) in enumerate(level_sets):
        at = np.flatnonzero(inside)
        i = np.clip(np.searchsorted(np.maximum.accumulate(sign * tv), sign * phi[at],
                                    side="right") - 1, 0, len(tq) - 2)
        rows.append((np.full(at.size, c), at, np.full(at.size, curve), np.full(at.size, sign),
                     tq[i], tq[i + 1], sign * (tv[i] - phi[at]), sign * (tv[i + 1] - phi[at])))
    which, at, curve, sign, lo, hi, g_lo, g_hi = map(np.concatenate, zip(*rows))

    def g(x, rows):
        value = np.empty(rows.size)
        for c, fn in enumerate(curves):
            sel = curve[rows] == c
            if sel.any():
                value[sel] = fn(x[sel], n, m, k)
        return sign[rows] * (value - phi[at[rows]])

    roots, iterations = _bracketed_roots(g, lo, hi, g_lo, g_hi)
    out[which, at] = roots
    if stats is not None:
        stats["polish_iterations"] += iterations
    return out


# ---------------------------------------------------------------------------
# the region partition
# ---------------------------------------------------------------------------

def _cutoff_rule(z1, z2, r1, r2):
    """The quantile cutoffs (g1, g2, g3) of the partition with crossings z1,
    z2, r1 and r2, elementwise.

    ic sits under allo before z1 and under aud before z2, so the incentive
    region ends at min(z1, z2).  aud sits under allo on (r1, r2) and under
    ic past z2, so the audit region is [max(r1, z2), r2) when that is not
    empty (never where r1 and r2 are NaN); without one, g2 = g3 = 1.
    """
    a = np.maximum(r1, z2)
    audit = a < r2
    return np.minimum(z1, z2), np.where(audit, a, 1.0), np.where(audit, r2, 1.0)


def _cutoffs(phis, inst: ProblemInstance, stats=None):
    """The checked guarantees, their ``_crossings`` and their quantile
    cutoffs (rows g1, g2, g3)."""
    phi = _check_phis(phis, inst)
    crossings = _crossings(phi, inst, stats)
    return phi, crossings, np.array(_cutoff_rule(*crossings))


def _assemble(phi: float, crossings, inst: ProblemInstance) -> RegionPartition:
    """The partition at phi from its crossings (z1, z2, r1, r2).

    Its intervals are those of the pieces ic [0, g1), allo [g1, g2), aud
    [g2, g3) and allo [g3, 1] that are not empty in quantile space, and its
    case names them; its gammas and interval ends are the quantile images
    of the cutoffs.
    """
    g1, g2, g3 = (float(g) for g in _cutoff_rule(*crossings))
    pieces = ((LABEL_IC, 0.0, g1), (LABEL_ALLO, g1, g2), (LABEL_AUD, g2, g3),
              (LABEL_ALLO, g3, 1.0))
    quantile = inst.dist.quantile
    intervals = tuple(RegionInterval(float(quantile(lo)), float(quantile(hi)), label)
                      for label, lo, hi in pieces if lo < hi)
    if g2 == g3:
        case_tag = CASE_IC_ALLO
    elif g1 == 0.0:
        case_tag = CASE_AUD_ALLO
    else:
        case_tag = CASE_IC_ALLO_AUD_ALLO if g1 < g2 else CASE_IC_AUD_ALLO
    gamma1, gamma2, gamma3 = (float(quantile(g)) for g in (g1, g2, g3))
    if not (-1e-9 <= gamma1 <= gamma2 + 1e-9 <= gamma3 + 2e-9 <= 1.0 + 3e-9):
        raise RuntimeError(f"cutoff ordering violated: {gamma1}, {gamma2}, {gamma3} at phi={phi}")
    return RegionPartition(phi, case_tag, gamma1, gamma2, gamma3, intervals,
                           {key: x for key, x in zip(("z1", "z2", "r1", "r2"), crossings)
                            if not np.isnan(x)})


def partitions(phis, inst: ProblemInstance) -> list[RegionPartition]:
    """The partition of the type space at each guarantee in phis.

    The crossings of every phi are level sets of three phi-free curves,
    tabulated once per (n, m, k), and are polished together to rounding;
    the cutoffs follow from them by ``_cutoff_rule``.
    """
    phi, crossings, _ = _cutoffs(phis, inst)
    return [_assemble(p, row, inst) for p, row in zip(phi.tolist(), crossings.T.tolist())]


def partition(phi: float, inst: ProblemInstance) -> RegionPartition:
    """Partition of the type space by the binding constraint at guarantee
    phi: ``partitions`` of the single guarantee."""
    return partitions([phi], inst)[0]
