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
evaluates the functions and their closed-form derivatives.  Every binomial
quantity is a sum of pmf terms over one tail (``_tails``), with no special
functions.

Which bound binds is given by three quantile cutoffs g1 <= g2 <= g3: c_ic
on [0, g1), c_aud on [g2, g3) and c_allo on the rest.  They follow from
where the bounds cross each other, for a whole array of guarantees at once,
polished by safeguarded Newton steps on the crossing curves' closed-form
slopes; a ``RegionPartition`` is built only from the cutoffs of one
guarantee.  The same polisher, ``_newton_roots``, finds the band's peak and
a solve's first-order-condition roots, whose slope in the guarantee follows
from the cutoffs' (``_cutoff_slopes``); a solve counts its rounds as
``polish_iterations``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

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
# Every binomial quantity here is a sum of pmf terms of X ~ Binomial(N, p) on
# one side of an integer cut c.  ``_tails`` adds up the side away from the
# mean Np, where the terms fall monotonically away from c (the pmf is
# log-concave), so it adds only nonnegative terms and keeps its relative
# precision however small the tail is; the side holding the mean follows as
# a complement.

# Up to this many trials the term at the cut is the exact coefficient
# math.comb(N, i), which still fits in a float (C(1030, 515) does not),
# times powers; above it, Loader's saddle-point form.  The others follow by
# the exact ratio pmf(i+1) / pmf(i) = (N-i) p / ((i+1) q).  Against 40-digit
# sums at random p the exact form stays within 2.5e-15 up to N = 1020;
# Loader's is within the 2e-14 to 7e-14 that any form through the exp of a
# log pmf of some -100 reaches.
_EXACT_MAX_TRIALS = 1020

# stirlerr(i) = log(i!) - log(sqrt(2 pi i) (i/e)^i) for i = 0, ..., 15, from
# 40-digit sums (0 at i = 0 by convention)
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])

# 1 / (2j + 3) for j = 0, ..., 29: the deviance series below, to 1e-19 for
# |v| < 1/2
_BD0_SERIES = 1.0 / (2.0 * np.arange(29, -1, -1) + 3.0)


@functools.lru_cache(maxsize=16)
def _coefficients(n_trials: int) -> np.ndarray:
    return np.array([float(math.comb(n_trials, i)) for i in range(n_trials + 1)])


def _stirlerr(x):
    """Loader's stirlerr at the integers x >= 0: the table, else its series."""
    big = np.maximum(x, 16).astype(float)
    sq = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / sq) / sq) / sq) / sq) / big
    return np.where(x < 16, _STIRLERR[np.minimum(x, 15)], series)


def _bd0(x, hi, lo):
    """Loader's deviance x log(x/M) + M - x for M = hi + lo (lo the rounding
    of hi), to a few ulps of itself: the series in v = (x-M)/(x+M) where
    |v| < 1/2, and beyond, where x/M is at least 3 or at most 1/3, the log."""
    d = (x - hi) - lo
    v = d / ((x + hi) + lo)
    w = v * v
    acc = np.zeros_like(v)
    for coef in _BD0_SERIES:
        acc = acc * w + coef
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.where(x > 0, x * np.log(x / hi) - x * np.log1p(lo / hi), 0.0) - d
    return np.where(np.abs(v) < 0.5, d * v + 2.0 * x * v * w * acc, direct)


def _exact_mean(n_trials: int, p):
    """N p as the float N * p and its rounding error, exact for N < 2^26."""
    split = p * 134217729.0  # 2^27 + 1: p's high 26 bits times N are exact
    p_hi = split - (split - p)
    mean = n_trials * p
    return mean, (n_trials * p_hi - mean) + n_trials * (p - p_hi)


def _loader_pmf(n_trials: int, x, p):
    """P(X = x) for X ~ Binomial(n_trials, p), 0 < p < 1, at integers 0 <= x
    <= n_trials, by Loader's saddle-point form (C. Loader, "Fast and accurate
    computation of binomial probabilities", 2000).  Its deviances use N p and
    N q = N - N p as exact sums of two floats, so p's own value is kept."""
    mean, mean_lo = _exact_mean(n_trials, p)
    rest = n_trials - mean
    rest_lo = ((n_trials - rest) - mean) - mean_lo
    y = n_trials - x
    log_term = (_stirlerr(n_trials) - _stirlerr(x) - _stirlerr(y)
                - _bd0(x, mean, mean_lo) - _bd0(y, rest, rest_lo))
    with np.errstate(divide="ignore", invalid="ignore"):
        body = np.exp(log_term) * np.sqrt(n_trials / (2.0 * np.pi * x * y))
    return np.select([x == 0, y == 0],
                     [np.exp(n_trials * np.log1p(-p)), np.exp(n_trials * np.log(p))], body)


def _anchor_pmf(n_trials: int, x, p):
    """P(X = x) for X ~ Binomial(n_trials, p) at integers 0 <= x <= N: the
    exact coefficient times powers up to _EXACT_MAX_TRIALS trials, with
    q^(N-x) taken for the exact 1 - p = q + e as q^(N-x) (1 + (N-x) e/q),
    else Loader's form (exact at p = 0 and 1)."""
    q = 1.0 - p
    if n_trials <= _EXACT_MAX_TRIALS:
        # the powers in halves, so no product of the coefficient (at most
        # 1.1e306) and some of them underflows where the term is normal
        rest, half_x = n_trials - x, x // 2
        half_rest = rest // 2
        return ((((_coefficients(n_trials)[x] * q ** half_rest) * p ** half_x)
                 * q ** (rest - half_rest)) * p ** (x - half_x)
                * (1.0 + rest * (((1.0 - q) - p) / np.maximum(q, 1e-300))))
    solid = (p > 0.0) & (p < 1.0)
    certain = np.where(p == 0.0, x == 0, x == n_trials)
    return np.where(solid, _loader_pmf(n_trials, x, np.where(solid, p, 0.5)), certain)


def _far_sums(n_trials: int, c, p, lower, width: int, moment: bool):
    """Sums of the pmf terms at i = c-1-t (``lower``) or c+t, t < width,
    elementwise in (c, p): of the terms and of the terms times t (with
    ``moment``, else None), and whether the terms past the window could
    not change them (``_settled``; None where the window covers all N + 1
    counts).

    The term at t = 0 is ``_anchor_pmf``'s; each next one is the last times
    the exact ratio pmf(i-1) / pmf(i) = i q / ((n+1-i) p) going down, or
    pmf(i+1) / pmf(i) = (n-i) p / ((i+1) q) going up: j / (n+1-j) times
    q/p or p/q with j = i or n - i, which is 0 past either end.  Every sum
    runs in the order of t, so an element's sums do not depend on the
    others: a few go as one array; many go term by term, each until the
    terms left could not change its sums (``_settled``).
    """
    term = _anchor_pmf(n_trials, c - lower, p)
    # q/p or p/q for the exact 1 - p = q + e (e is q's rounding, exact);
    # where the divisor is 0 the anchor is 0 and so is every term
    q = 1.0 - p
    eq = ((1.0 - q) - p) / np.maximum(q, 1e-300)
    step = (np.where(lower, q, p) / np.maximum(np.where(lower, p, q), 1e-300)
            * (1.0 + np.where(lower, eq, -eq)))
    top = np.where(lower, c - 1.0, n_trials - c)
    # numpy's accumulate takes about 5 ns a term, a pass over an array some
    # 2 us: one array wins up to about 200 elements.  Both ways are needed:
    # on the benchmark's solve workload (2 vCPUs, median of 3 runs) op_loops
    # was 35.8 with this cut, 41.8 with the loop alone, 78.9 with one array
    # alone, and 39.4 and 37.2 with cuts at 50 and 1000 elements
    if term.size * (width + 8) <= 200 * width:
        t = np.arange(width).reshape((-1,) + (1,) * term.ndim)
        terms = np.empty((width,) + term.shape)
        terms[0] = term
        j = top - t[:-1]
        np.divide(j * step, n_trials + 1.0 - j, out=terms[1:])
        np.multiply.accumulate(terms, axis=0, out=terms)
        s0 = np.cumsum(terms, axis=0)[-1]
        s1 = np.cumsum(terms * t, axis=0)[-1] if moment else None
        if width > n_trials:
            return s0, s1, None
        return s0, s1, _settled(terms[-1], terms[-2], width - 1, s0, s1)
    term, step, top = (np.broadcast_to(v, term.shape).ravel() for v in (term, step, top))
    out = [term.copy(), 0.0 * term, np.ones(term.shape, dtype=bool)]
    live = np.arange(term.size)
    s0, s1, j = term.copy(), 0.0 * term, top + 1.0
    for t in range(1, width):
        j -= 1.0
        before, term = term, term * (j * step / (n_trials + 1.0 - j))
        s0 += term
        if moment:
            s1 += t * term
        end = t == width - 1 and width <= n_trials
        if t % 8 == 0 or end:
            done = _settled(term, before, t, s0, s1 if moment else None)
            if end:
                out[2][live] = done
                done[:] = True
            out[0][live[done]], out[1][live[done]] = s0[done], s1[done]
            keep = ~done
            live, s0, s1, term, j, step = (v[keep] for v in (live, s0, s1, term, j, step))
            if not live.size:
                break
    out[0][live], out[1][live] = s0, s1
    return (out[0].reshape(lower.shape), out[1].reshape(lower.shape) if moment else None,
            out[2].reshape(lower.shape) if width <= n_trials else None)


def _settled(last, before, weight, s0, s1=None):
    """Where the terms after ``last`` would leave the sums s0 and s1 (of the
    terms, and of the terms times weights rising by 1 from ``weight`` at
    ``last``; None for none) as they are: all of them add under 1/256 of
    an ulp of each.  The pmf is log-concave, so on the far side the terms
    fall at least by the ratio r of ``last`` to the term ``before`` it, and
    add at most last r / (1-r) and last (weight r / (1-r) + r / (1-r)^2)."""
    ratio = last / np.maximum(before, 5e-324)
    fall = np.maximum(1.0 - ratio, 1e-300)
    tail = last * ratio / fall
    ok = (ratio < 1.0) & (tail <= np.spacing(s0) / 256)
    if s1 is not None:
        ok &= tail * (weight + 1.0 / fall) <= np.spacing(s1) / 256
    return (last == 0.0) | ok


def _tails(n_trials: int, c, p, moments: bool = True):
    """P(X < c), E[(c - X)^+], P(X >= c) and E[(X - c)^+] for X ~
    Binomial(n_trials, p), elementwise in the integer cuts 1 <= c <= N and
    p (broadcast together; a float gives numpy floats); without
    ``moments`` the two first moments are left out (None).

    The tail on the far side of c - 1/2 from the mean, at most about 0.7
    (the median is the mean rounded either way), and its first moment about
    c, are sums of nonnegative pmf terms (``_far_sums``); the near side
    follows by P(X < c) + P(X >= c) = 1 and E[(X - c)^+] - E[(c - X)^+] =
    Np - c.  The sums stop where the terms left, bounded by a geometric
    series, cannot change them (so an element's sums do not depend on the
    window its batch needs).  They are exact at p = 0 and p = 1.
    """
    p = np.asarray(p, dtype=float)
    shape = np.broadcast_shapes(p.shape, np.shape(c))
    if not math.prod(shape):
        empty = np.zeros(shape)
        return (empty, empty if moments else None) * 2
    p = p.reshape(p.shape or 1)  # numpy's scalar pow is not its array pow
    mean = n_trials * p
    lower = c <= mean + 0.5
    width = n_trials + 1
    if width > 40:
        # terms past the cut fall like a normal's: from z deviations out, by
        # 2^-60 within sd (sqrt(z^2 + 84) - z) = 84 sd / (sqrt(z^2 + 84) + z)
        # more.  The sums' own stopping rule checks it; 20 more terms covered
        # every case of 25,000 quantiles by 20 cuts, n from 99 to 3000
        sd = np.sqrt(mean * (1.0 - p))
        z = np.abs(c - 0.5 - mean) / np.maximum(sd, 1e-300)
        with np.errstate(over="ignore"):
            width = min(width, int((84.0 * sd / (np.sqrt(z * z + 84.0) + z)).max()) + 20)
    while True:
        s0, s1, settled = _far_sums(n_trials, c, p, lower, width, moments)
        if width > n_trials or settled.all():
            break
        width = min(2 * width, n_trials + 1)
    near0 = 1.0 - s0
    out = [np.where(lower, s0, near0), None, np.where(lower, near0, s0), None]
    if moments:
        s1 += lower * s0  # the weights c - i below c are t + 1
        gap = (c - mean) - _exact_mean(n_trials, p)[1]
        out[1], out[3] = np.where(lower, s1, s1 + gap), np.where(lower, s1 - gap, s1)
    return tuple(None if part is None else part.reshape(shape)[()] for part in out)


def _binom_cdf(j: int, n_trials: int, p):
    """P(Binomial(n_trials, p) <= j), elementwise in p (a float or an array);
    j outside [0, n_trials) is settled without sums."""
    if j < 0:
        return np.zeros_like(p)
    if j >= n_trials:
        return np.ones_like(p)
    return _tails(n_trials, j + 1, p, moments=False)[0]


def _capped_count_expectation(n_trials: int, cap: int, p):
    """E[min(X, cap)] for X ~ Binomial(n_trials, p), 0 < cap < n_trials:
    cap - E[(cap - X)^+] where cap is at most n p + 1/2, else n p -
    E[(X - cap)^+], whichever moment ``_tails`` sums directly, so neither
    cancels.  It is exactly 0 at p = 0 and exactly cap at p = 1."""
    _, short, _, over = _tails(n_trials, cap, p)
    mean, mean_lo = _exact_mean(n_trials, np.asarray(p, dtype=float))
    return np.where(cap <= mean + 0.5, cap - short, (mean - over) + mean_lo)[()]


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

def _band_sums(n: int, m: int, k: int, p, at_k, at_m):
    """From the ``_tails`` of X ~ Binomial(n, p) at k and at m: the band sum
    E[min(X, m)] - E[min(X, k)] = sum over c in [k, m) of P(X > c), and
    sum over i in [k, m) of (n - i) P(X = i) = n q P(k <= Y < m) with Y ~
    Binomial(n-1, p).  Each is a difference of two tails that does not
    cancel: of lower tails where m <= n p + 1/2, else of upper tails (for
    the second, of upper tails only where k > n p + 1/2)."""
    a0k, a1k, b0k, b1k = at_k
    a0m, a1m, b0m, b1m = at_m
    mean = n * p
    band = np.where(m <= mean + 0.5, (m - k) - (a1m - a1k), b1k - b1m)
    inner = np.where(k > mean + 0.5, ((n - k) * b0k - b1k) - ((n - m) * b0m - b1m),
                     ((n - m) * a0m + a1m) - ((n - k) * a0k + a1k))
    return band, inner


def _curve_points(q, n: int, m: int, k: int):
    """Values and slopes in q (rows z1, z2, band) of the curves at q in
    (0, 1), from the ``_tails`` at m and k.  With p = 1 - q, S_c =
    E[(c - X)^+], B the band sum and Y ~ Binomial(n-1, p):
      z1 = S_m / (n q),        dz1/dq = (n q P(Y < m) - S_m) / (n q^2) = (n-m) P(X < m) / (n q^2),
      z2 = (m - k + S_k) / n,  dz2/dq = P(Y < k) = ((n-k) P(X < k) + S_k) / (n q),
      band = B / (n p),        dband/dq = (B - p n P(k <= Y < m)) / (n p^2)."""
    p = 1.0 - q
    (a0m, a0k), (a1m, a1k), (b0m, b0k), (b1m, b1k) = _tails(n, np.array([[m], [k]]), p)
    band, inner = _band_sums(n, m, k, p, (a0k, a1k, b0k, b1k), (a0m, a1m, b0m, b1m))
    nq, np_ = n * q, n * p
    return (np.array([a1m / nq, (m - k + a1k) / n, band / np_]),
            np.array([(n - m) * a0m / (nq * q), ((n - k) * a0k + a1k) / nq,
                      (q * band - p * inner) / (np_ * p * q)]))


# quantiles of the curve tables: 256 equal steps, refined by halvings toward
# both ends, where the crossings of guarantees near 0 and m/n sit
_TABLE_Q = np.unique(np.concatenate([np.linspace(0.0, 1.0, 257), 0.5 ** np.arange(9, 61),
                                     1.0 - 0.5 ** np.arange(9, 54)]))


def _newton_roots(g, lo, hi, g_lo, g_hi, start, g_tol):
    """A root of g in each bracket [lo[i], hi[i]], where g_lo = g(lo) and
    g_hi = g(hi) differ in sign, and the number of iterations.

    g(x, rows) gives the value and the slope at x of the functions of the
    brackets ``rows``.  All brackets are polished together by Newton steps
    from ``start`` (inside the brackets); a step that leaves its (shrinking)
    bracket, or has no finite slope to take, is replaced by bisection.  A
    bracket is resolved once its Newton step g/g' is at most 4 ulps of the
    iterate (its root is then the step's end, if inside), once |g| is at
    most g_tol[i], below which rounding of g hides the root, or once it
    shrinks to two ulps.
    """
    lo, hi, g_lo, g_hi = (np.array(v, dtype=float) for v in (lo, hi, g_lo, g_hi))
    root = np.where(g_lo == 0.0, lo, hi)
    rows = np.flatnonzero((g_lo != 0.0) & (g_hi != 0.0))
    a, b, low, x = lo[rows], hi[rows], np.sign(g_lo[rows]), np.asarray(start, dtype=float)[rows]
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while rows.size and iterations < 200:
            iterations += 1
            gx, slope = g(x, rows)
            up = np.sign(gx) == low
            a, b = np.where(up, x, a), np.where(up, b, x)
            # an infinite slope would give a step of 0, a false convergence
            step = np.where(np.isfinite(slope), gx / slope, np.nan)
            new = x - step
            flat = np.abs(gx) <= g_tol[rows]
            done = (np.abs(step) <= 4.0 * np.spacing(x)) | flat | (b - a <= 2.0 * np.spacing(b))
            inside = (new >= a) & (new <= b)
            root[rows[done]] = np.where(inside & ~flat, new, x)[done]
            keep = ~done
            x = np.where(inside & (new != a) & (new != b), new, 0.5 * (a + b))[keep]
            rows, a, b, low = rows[keep], a[keep], b[keep], low[keep]
    return root, iterations


@functools.lru_cache(maxsize=64)
def _curves(n: int, m: int, k: int):
    """The curves' values (rows z1, z2, band) on _TABLE_Q; the band's peak
    (q, value): the root of m P(X > m) - k P(X > k), which has the sign of
    the band's slope, polished by ``_newton_roots`` from where the slope's
    secant across the table's highest point is 0; and the four level-set
    tables the crossings are bracketed on (z1, z2, and the band up to and
    from its peak), one after another: curve, +1 for a rising table or -1,
    and first row of each; and the rows' q, values and slopes, and the
    table's number plus i times its running maximum of the signed values:
    numpy orders complex numbers by real part, then imaginary, so these
    rise across all four tables, and each keeps its values unrounded."""
    q = _TABLE_Q
    with np.errstate(divide="ignore", invalid="ignore"):
        values, slopes = _curve_points(q, n, m, k)
    # z1 is 0 at q = 0 and the band is 0 at q = 1; no start is drawn from
    # their slopes there
    values[0, 0], values[2, -1], slopes[0, 0], slopes[2, -1] = 0.0, 0.0, np.nan, np.nan
    i = int(np.argmax(values[2]))

    def rise(x, rows):
        # m P(X > m) - k P(X > k), and its slope -(m (n-m) P(X = m) - k (n-k)
        # P(X = k)) / q, since d/dp P(X > c) = n P(Y = c) = (n-c) P(X = c) / q
        p = 1.0 - x
        above = _tails(n, np.array([[m + 1], [k + 1]]), p, moments=False)[2]
        at = _anchor_pmf(n, np.array([[m], [k]]), p)
        return m * above[0] - k * above[1], (k * (n - k) * at[1] - m * (n - m) * at[0]) / x

    lo, hi, s_lo, s_hi = q[i - 1:i], q[i + 1:i + 2], slopes[2, i - 1:i], slopes[2, i + 1:i + 2]
    start = lo - s_lo * (hi - lo) / (s_hi - s_lo)
    peak, _ = _newton_roots(rise, lo, hi, s_lo, s_hi, start, np.zeros(1))
    q_peak, band_peak = float(peak[0]), float(_curve_points(peak, n, m, k)[0][2, 0])
    rising, falling = q < q_peak, q > q_peak
    tables = [(q, values[0], slopes[0]), (q, values[1], slopes[1]),
              (np.append(q[rising], q_peak), np.append(values[2][rising], band_peak),
               np.append(slopes[2][rising], 0.0)),
              (np.insert(q[falling], 0, q_peak), np.insert(values[2][falling], 0, band_peak),
               np.insert(slopes[2][falling], 0, 0.0))]
    sign = np.array([1.0, 1.0, 1.0, -1.0])
    first = np.cumsum([0] + [len(t[0]) for t in tables])
    rows = [np.concatenate(part) for part in zip(*tables)]
    top = np.concatenate([c + 1j * np.maximum.accumulate(s * t[1])
                          for c, (s, t) in enumerate(zip(sign, tables))])
    return values, q_peak, band_peak, (np.array([0, 1, 2, 2]), sign, first, *rows, top)


def _crossings(phi: np.ndarray, inst: ProblemInstance, stats=None) -> np.ndarray:
    """Rows z1, z2, r1 and r2 at each (checked) guarantee, NaN where r1, r2
    do not exist.  Each crossing inside its curve's range is bracketed by
    ``searchsorted`` on a running maximum of the table (valid even where
    rounding made the table dip), and all are polished together by
    safeguarded Newton steps on the curves' closed-form slopes.  They start
    from the cubic through the bracket's ends with the table's values and
    slopes, taken as q against the curve (from the secant point where that
    leaves the bracket).  ``stats``, a Counter if given, gains the Newton
    iterations."""
    n, m, k = inst.n, inst.m, inst.k
    _, _, band_peak, tables = _curves(n, m, k)
    # within rounding of (m-k)/n the incentive and audit bounds differ by
    # less than the rounding of m: there is no incentive region to tell
    # apart, and at phi = 0 the audit bound stays below supply on [0, 1)
    dominated = phi <= inst.phi_floor + 4.0 * np.finfo(float).eps * inst.phi_max
    out = np.array([np.where(phi <= 0.0, 0.0, 1.0), np.where(dominated, 0.0, 1.0),
                    np.where(dominated, 0.0, np.nan), np.where(phi <= 0.0, 1.0, np.nan)])
    inside = ((phi > 0.0) & (phi < inst.phi_max), ~dominated & (phi < inst.phi_max),
              ~dominated & (phi < band_peak), (phi > 0.0) & (phi < band_peak))
    curves, signs, first, tq, tv, td, top = tables
    which, at = np.nonzero(np.array(inside))
    curve, sign = curves[which], signs[which]
    i = np.clip(np.searchsorted(top, which + 1j * (sign * phi[at]), side="right") - 1,
                first[which], first[which + 1] - 2)
    lo, hi, f_lo, f_hi, d_lo, d_hi = tq[i], tq[i + 1], tv[i], tv[i + 1], td[i], td[i + 1]
    level = phi[at]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (level - f_lo) / (f_hi - f_lo)
        start = ((1.0 + 2.0 * s) * lo + s * (f_hi - f_lo) / d_lo) * (1.0 - s) ** 2 \
            + ((3.0 - 2.0 * s) * hi - (1.0 - s) * (f_hi - f_lo) / d_hi) * s * s
    start = np.where((start > lo) & (start < hi), start, lo + s * (hi - lo))

    def g(x, rows):
        values, slopes = _curve_points(x, n, m, k)
        pick = curve[rows]
        return (sign[rows] * (np.choose(pick, values) - level[rows]),
                sign[rows] * np.choose(pick, slopes))

    # the curves are sums of a few roundings of values near the guarantee
    roots, iterations = _newton_roots(g, lo, hi, sign * (f_lo - level), sign * (f_hi - level),
                                      start, 4.0 * np.spacing(level))
    out[which, at] = roots
    if stats is not None:
        stats["polish_iterations"] += iterations
    return out


# ---------------------------------------------------------------------------
# the region partition
# ---------------------------------------------------------------------------

def _cutoff_rule(crossings):
    """The quantile cutoffs (rows g1, g2, g3) of the partitions with
    crossings z1, z2, r1 and r2 (rows), elementwise, and the source of
    each: the row of the crossing it is, or 4 for the constant 1.

    ic sits under allo before z1 and under aud before z2, so the incentive
    region ends at min(z1, z2).  aud sits under allo on (r1, r2) and under
    ic past z2, so the audit region is [max(r1, z2), r2) when that is not
    empty (never where r1 and r2 are NaN); without one, g2 = g3 = 1.
    """
    z1, z2, r1, r2 = crossings
    audit = np.maximum(r1, z2) < r2
    sources = np.array([np.where(z1 <= z2, 0, 1), np.where(audit, np.where(r1 > z2, 2, 1), 4),
                        np.where(audit, 3, 4)])
    return np.choose(sources, (z1, z2, r1, r2, 1.0)), sources


def _cutoffs(phis, inst: ProblemInstance, stats=None):
    """The checked guarantees, their ``_crossings`` and their quantile
    cutoffs (rows g1, g2, g3)."""
    phi = _check_phis(phis, inst)
    crossings = _crossings(phi, inst, stats)
    return phi, crossings, _cutoff_rule(crossings)[0]


def _cutoff_slopes(crossings, inst: ProblemInstance) -> np.ndarray:
    """The derivatives in phi of the quantile cutoffs (rows g1, g2, g3) at
    the guarantees of these crossings: 1 over the slope in q, at the
    cutoff, of the curve whose level set gives it (z1, z2, or the band for
    r1 and r2), and 0 for the constant 1."""
    g, sources = _cutoff_rule(crossings)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = _curve_points(g.ravel(), inst.n, inst.m, inst.k)[1].reshape((3,) + g.shape)
        return np.where(sources == 4, 0.0, 1.0 / np.choose(np.minimum(sources, 2), slopes))


def _assemble(phi: float, crossings, inst: ProblemInstance) -> RegionPartition:
    """The partition at phi from its crossings (z1, z2, r1, r2).

    Its intervals are those of the pieces ic [0, g1), allo [g1, g2), aud
    [g2, g3) and allo [g3, 1] that are not empty in quantile space, and its
    case names them; its gammas and interval ends are the quantile images
    of the cutoffs.
    """
    g1, g2, g3 = _cutoff_rule(crossings)[0].tolist()
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
