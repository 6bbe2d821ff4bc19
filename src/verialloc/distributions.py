"""Type distributions on [0, 1] and the integration primitives built on them.

Agents' private types are iid draws from a distribution with strictly
positive density on the unit interval.  A distribution is supplied as the
triple (cdf, pdf, quantile); nothing is derived by differentiation or
numerical inversion, so each piece can be audited independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad

QUAD_ABS_TOL = 1e-12
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class TypeDistribution:
    """A type distribution on [0, 1] given by its cdf, pdf and quantile."""

    cdf: Callable[[float], float]
    pdf: Callable[[float], float]
    quantile: Callable[[float], float]
    name: str = field(default="custom")

    def __repr__(self) -> str:
        return f"TypeDistribution({self.name!r})"


def _identity(t):
    return t


def _unit_density(t):
    return np.ones_like(t, dtype=float) if isinstance(t, np.ndarray) else 1.0


def make_uniform() -> TypeDistribution:
    """Uniform distribution on [0, 1]: cdf(t) = t."""
    return TypeDistribution(
        cdf=_identity,
        pdf=_unit_density,
        quantile=_identity,
        name="uniform",
    )


def make_power(alpha: float) -> TypeDistribution:
    """Power-family distribution with cdf(t) = t**alpha, alpha > 0.

    alpha = 1 reduces to the uniform.  For alpha < 1 the density is
    unbounded at 0 (still integrable); quadrature routines here only ever
    evaluate the pdf at interior points.
    """
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"alpha must be a positive real, got {alpha!r}")
    a = float(alpha)
    return TypeDistribution(
        cdf=lambda t: t**a,
        pdf=lambda t: a * t ** (a - 1.0),
        quantile=lambda q: q ** (1.0 / a),
        name=f"power({a:g})",
    )


def from_config(config: dict) -> TypeDistribution:
    """Build a distribution from {"family": "uniform"} or {"family": "power", "alpha": x}."""
    family = config.get("family")
    if family == "uniform":
        return make_uniform()
    if family == "power":
        if "alpha" not in config:
            raise ValueError("power family requires an 'alpha' entry")
        return make_power(float(config["alpha"]))
    raise ValueError(f"unknown distribution family: {family!r}")


def integrate(f: Callable[[float], float], dist: TypeDistribution, a: float,
              b: float, breakpoints=()) -> float:
    """Integral of f dF over [a, b] by adaptive quadrature, split at the
    breakpoints inside (a, b) so each piece of a piecewise rule is smooth.

    Every integral of the package goes through here, at absolute tolerance
    1e-12; scipy's default relative tolerance usually stops refinement first.
    A piece narrower than the smallest normal float is too narrow for the
    quadrature nodes, which round onto its ends (where a power density with
    alpha < 1 is infinite); it contributes f at its midpoint times its mass.
    """
    pts = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo < _TINY:
            total += f(0.5 * (lo + hi)) * (float(dist.cdf(hi)) - float(dist.cdf(lo)))
            continue
        piece, _ = quad(lambda t: f(t) * dist.pdf(t), lo, hi,
                        epsabs=QUAD_ABS_TOL, limit=200)
        total += piece
    return total


@dataclass(frozen=True, eq=False)
class CellGrid:
    """The ``bins`` equal bins of [0, 1], cut again at breakpoints.

    Cell j spans [lo[j], hi[j]] inside bin ``bin[j]`` with probability
    ``mass[j]``; ``bin_mass`` holds the bins' probabilities.  A cell or bin
    with less mass than the smallest normal float is empty (mass 0), as in
    ``integrate``: a subnormal mass has too few significant bits to divide by.
    """

    dist: TypeDistribution
    lo: np.ndarray
    hi: np.ndarray
    bin: np.ndarray
    mass: np.ndarray
    bin_mass: np.ndarray

    def integrate(self, f: Callable[[float], float]) -> np.ndarray:
        """Integral of f dF over each cell: one ``integrate`` call per
        nonempty cell, 0 on an empty one."""
        return np.array([
            integrate(f, self.dist, lo, hi) if w > 0 else 0.0
            for lo, hi, w in zip(self.lo.tolist(), self.hi.tolist(), self.mass.tolist())
        ])

    def bin_mean(self, values: np.ndarray, weights=None) -> np.ndarray:
        """Per-bin sum of the per-cell ``values`` over that of ``weights``
        (default the bin's mass); NaN where that is 0."""
        bins = len(self.bin_mass)
        den = self.bin_mass if weights is None else np.bincount(self.bin, weights, bins)
        return np.where(den > 0, np.bincount(self.bin, values, bins)
                        / np.where(den > 0, den, 1.0), np.nan)


def cell_grid(dist: TypeDistribution, bins: int, breakpoints=()) -> CellGrid:
    """The cell grid of ``bins`` equal bins cut at the breakpoints inside
    (0, 1); masses are differences of the cdf at the cuts."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    cuts = np.unique(np.concatenate([edges, [x for x in breakpoints if 0.0 < x < 1.0]]))
    cdf = np.array([float(dist.cdf(x)) for x in cuts.tolist()])
    mass, bin_mass = np.diff(cdf), np.diff(cdf[np.searchsorted(cuts, edges)])
    mass[mass < _TINY] = 0.0
    bin_mass[bin_mass < _TINY] = 0.0
    return CellGrid(dist, cuts[:-1], cuts[1:],
                    np.searchsorted(edges, cuts[:-1], side="right") - 1, mass, bin_mass)


def truncated_mean(dist: TypeDistribution, a: float, b: float) -> float:
    """Integral of t dF(t) over [a, b].

    The integrand t*pdf(t) is bounded on [0, 1] for every shipped family,
    including power densities with alpha < 1.
    """
    if not (0.0 <= a <= b <= 1.0):
        raise ValueError(f"need 0 <= a <= b <= 1, got a={a}, b={b}")
    if a == b:
        return 0.0
    return integrate(_identity, dist, a, b)


def expected_value(dist: TypeDistribution) -> float:
    """Mean of the distribution, truncated_mean over the full support."""
    return truncated_mean(dist, 0.0, 1.0)
