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

_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class TypeDistribution:
    """A type distribution on [0, 1] given by its cdf, pdf and quantile,
    each elementwise on arrays."""

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
    unbounded at 0 (still integrable); quadrature runs in quantile space
    and never evaluates it.
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


# Fixed cuts of quantile space: steps of 1/16, and halvings down to 2^-40
# toward u = 0 (where a power law's quantile u^(1/alpha) has an infinite
# slope for alpha > 1) and down to 2^-20 toward u = 1 (where the rule of a
# few objects among n agents turns within about 1/n).  Each panel between
# cuts gets 16 Gauss-Legendre nodes: against closed forms, within 5e-14
# relative for binomial tails times u^(1/alpha) up to n = 3000.
_GL_NODES = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_CUTS = np.unique(np.concatenate([np.arange(1, 16) / 16, 0.5 ** np.arange(5, 41),
                                  1.0 - 0.5 ** np.arange(5, 21)]))


def quantile_rule(dist: TypeDistribution, cuts: np.ndarray):
    """Nodes u, types t = Q(u), weights w and piece of each node, such that
    the integral of f dF over piece i, that of f(Q(u)) du between the
    ascending ``cuts[i]`` and ``cuts[i+1]``, is the sum of w f(t) over its
    nodes.  No density enters, so none can be infinite at a node."""
    ends = np.union1d(cuts, _CUTS[(_CUTS > cuts[0]) & (_CUTS < cuts[-1])])
    lo, hi = ends[:-1, None], ends[1:, None]
    u = (0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_X).ravel()
    piece = np.searchsorted(cuts, ends[:-1], side="right") - 1
    return (u, np.asarray(dist.quantile(u), dtype=float),
            (0.5 * (hi - lo) * _GL_W).ravel(), np.repeat(piece, _GL_NODES))


def _values(f: Callable, t: np.ndarray) -> np.ndarray:
    """f on the node array t at once where f takes arrays; node by node
    where it takes floats only."""
    try:
        out = np.asarray(f(t), dtype=float)
        if out.shape == t.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([f(x) for x in t.tolist()], dtype=float)


def integrate(f: Callable[[float], float], dist: TypeDistribution, a: float,
              b: float, breakpoints=()) -> float:
    """Integral of f dF over [a, b], split at the breakpoints inside (a, b)
    so each piece of a piecewise rule is smooth.

    It is the integral of f(Q(u)) du over [F(a), F(b)] by ``quantile_rule``,
    which every integral of the package uses; f gets all nodes at once when
    it takes arrays.  Pieces are added in order, so integrals over
    consecutive pieces add up to this one to the last bit.
    """
    pts = np.array(sorted({a, b, *(x for x in breakpoints if a < x < b)}), dtype=float)
    u = np.asarray(dist.cdf(pts), dtype=float)
    _, t, w, piece = quantile_rule(dist, u)
    return float(sum(np.bincount(piece, w * _values(f, t), len(u) - 1).tolist()))


@dataclass(frozen=True, eq=False)
class CellGrid:
    """The ``bins`` equal bins of [0, 1], cut again at breakpoints.

    Cell j spans [lo[j], hi[j]] inside bin ``bin[j]`` with probability
    ``mass[j]``; ``bin_mass`` holds the bins' probabilities.  A cell or bin
    with less mass than the smallest normal float is empty (mass 0): a
    subnormal mass has too few significant bits to divide by.
    """

    dist: TypeDistribution
    lo: np.ndarray
    hi: np.ndarray
    bin: np.ndarray
    mass: np.ndarray
    bin_mass: np.ndarray

    def integrate(self, f: Callable[[float], float]) -> np.ndarray:
        """Integral of f dF over each cell, 0 on an empty one, from one
        ``quantile_rule`` over all the cell cuts and one call of f.

        A cell's panels and nodes are those ``integrate`` builds for it
        alone, and ``bincount`` adds each cell's nodes in the same order, so
        every cell's integral equals ``integrate(f, dist, lo, hi)`` to the
        last bit.
        """
        u = np.asarray(self.dist.cdf(np.append(self.lo, self.hi[-1])), dtype=float)
        _, t, w, piece = quantile_rule(self.dist, u)
        sums = np.bincount(piece, w * _values(f, t), len(self.mass))
        return np.where(self.mass > 0, sums, 0.0)

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
    """Integral of t dF(t) over [a, b], the integral of Q(u) du over
    [F(a), F(b)]."""
    if not (0.0 <= a <= b <= 1.0):
        raise ValueError(f"need 0 <= a <= b <= 1, got a={a}, b={b}")
    if a == b:
        return 0.0
    return integrate(_identity, dist, a, b)


def expected_value(dist: TypeDistribution) -> float:
    """Mean of the distribution, truncated_mean over the full support."""
    return truncated_mean(dist, 0.0, 1.0)
