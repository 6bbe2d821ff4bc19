import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verialloc
from verialloc.distributions import (
    cell_grid,
    expected_value,
    from_config,
    integrate,
    make_power,
    make_uniform,
    truncated_mean,
)


def riemann_mean(dist, a, b, points=1_000_000):
    """Independent oracle: midpoint Riemann sum of t * pdf(t)."""
    ts = np.linspace(a, b, points, endpoint=False) + (b - a) / (2 * points)
    return float(np.sum(ts * dist.pdf(ts)) * (b - a) / points)


def test_uniform_identities():
    d = make_uniform()
    assert d.cdf(0.5) == 0.5
    assert d.quantile(0.25) == 0.25
    assert d.pdf(0.7) == 1.0
    assert truncated_mean(d, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_power_reduces_to_uniform():
    d = make_power(1.0)
    assert d.cdf(0.3) == pytest.approx(0.3, abs=1e-15)


def test_power_values():
    d = make_power(2.0)
    assert d.cdf(0.5) == pytest.approx(0.25, abs=1e-15)
    # closed form: int t * 2t dt = 2/3
    assert expected_value(d) == pytest.approx(2.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, float("nan")])
def test_power_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        make_power(alpha)


def test_from_config():
    assert from_config({"family": "uniform"}).name == "uniform"
    assert from_config({"family": "power", "alpha": 2}).cdf(0.5) == 0.25
    with pytest.raises(ValueError):
        from_config({"family": "beta"})
    with pytest.raises(ValueError):
        from_config({"family": "power"})


def test_truncated_mean_uniform_closed_form():
    d = make_uniform()
    # (b^2 - a^2) / 2
    assert truncated_mean(d, 0.2, 0.8) == pytest.approx(0.30, abs=1e-12)
    assert truncated_mean(d, 0.5, 0.5) == 0.0


def test_truncated_mean_rejects_bad_interval():
    d = make_uniform()
    with pytest.raises(ValueError):
        truncated_mean(d, 0.8, 0.2)
    with pytest.raises(ValueError):
        truncated_mean(d, -0.1, 0.5)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.7])
def test_truncated_mean_against_riemann_oracle(alpha):
    d = make_power(alpha)
    for a, b in [(0.0, 1.0), (0.1, 0.9), (0.0, 0.3)]:
        assert truncated_mean(d, a, b) == pytest.approx(
            riemann_mean(d, a, b), abs=1e-6
        )


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_cdf_consistent_with_pdf_quadrature(alpha):
    from scipy.integrate import quad

    d = make_power(alpha)
    for a, b in [(0.0, 0.4), (0.25, 1.0)]:
        integral, _ = quad(d.pdf, a, b, epsabs=1e-12, limit=200)
        assert integral == pytest.approx(d.cdf(b) - d.cdf(a), abs=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
def test_quantile_cdf_round_trip(alpha):
    d = make_power(alpha)
    ts = np.linspace(0.0, 1.0, 1001)
    back = d.quantile(d.cdf(ts))
    assert np.max(np.abs(back - ts)) < 1e-9


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_pdf_positive_on_interior_grid(alpha):
    d = make_power(alpha)
    ts = (np.arange(1000) + 0.5) / 1000
    assert np.all(d.pdf(ts) > 0)


def test_cdf_monotone_on_grid():
    for d in (make_uniform(), make_power(0.7), make_power(3.0)):
        ts = np.linspace(0.0, 1.0, 1000)
        vals = d.cdf(ts)
        assert vals[0] == pytest.approx(0.0, abs=1e-15)
        assert vals[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(vals) >= 0)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.3, 5.0),
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
    c=st.floats(0.0, 1.0),
)
def test_truncated_mean_additive(alpha, a, b, c):
    lo, mid, hi = sorted([a, b, c])
    d = make_power(alpha)
    whole = truncated_mean(d, lo, hi)
    split = truncated_mean(d, lo, mid) + truncated_mean(d, mid, hi)
    assert whole == pytest.approx(split, abs=1e-9)


def test_subnormal_piece_integrates_without_quadrature():
    # quadrature nodes on [0, 5e-324] round onto t = 0, where the alpha < 1
    # power density is infinite; such a piece contributes f(mid) * mass
    d = make_power(0.5)
    assert truncated_mean(d, 0.0, 5e-324) == 0.0
    assert truncated_mean(d, 0.0, 0.25) == pytest.approx(
        truncated_mean(d, 0.0, 5e-324) + truncated_mean(d, 5e-324, 0.25), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 1.0, 4.0, 8.0])
@pytest.mark.parametrize("a", [0.0, 1e-12, 1e-6, 0.1])
def test_power_moments_match_closed_form(alpha, a):
    # int_a^b t^j dF = alpha (b^(alpha+j) - a^(alpha+j)) / (alpha+j).  For
    # alpha > 1 the quantile u^(1/alpha) has an infinite slope at u = 0,
    # where plain Gauss-Legendre loses digits and the halvings must not
    d = make_power(alpha)
    for b in (0.5, 1.0):
        def exact(j):
            return alpha * (b ** (alpha + j) - a ** (alpha + j)) / (alpha + j)

        assert truncated_mean(d, a, b) == pytest.approx(exact(1), rel=1e-13, abs=0)
        for j in (0, 2, 3):
            assert integrate(lambda t: t ** j, d, a, b) == pytest.approx(exact(j), rel=1e-13, abs=0)
        assert integrate(lambda t: t, d, a, b, [0.2, 0.3]) == pytest.approx(exact(1), rel=1e-13)


def test_integrand_taking_floats_only():
    # f gets the node array where it takes arrays, else one node at a time
    d = make_power(4.0)
    one_by_one = integrate(lambda t: float(t) ** 2, d, 0.0, 1.0)
    assert one_by_one == integrate(lambda t: t ** 2, d, 0.0, 1.0)


@pytest.mark.parametrize("alpha", [1.0, 0.3, 4.0, 400.0])
def test_cell_grid_integrate_matches_per_cell_integrate(alpha):
    # one quadrature over all the cells gives each cell the bits of its own
    # integrate call; power(400) at 64 bins has empty (subnormal) cells
    inst = verialloc.ProblemInstance(3, 2, 1, make_uniform() if alpha == 1.0
                                     else make_power(alpha))
    phi = verialloc.solve(inst).phi_star
    part = verialloc.partition(phi, inst)
    rules = verialloc.merit_with_guarantee(phi, inst, part)
    grid = cell_grid(inst.dist, 64, [iv.lo for iv in part.intervals])
    for f in (rules.P, lambda t: float(t) ** 2):
        per_cell = [integrate(f, inst.dist, lo, hi) if w > 0 else 0.0
                    for lo, hi, w in zip(grid.lo.tolist(), grid.hi.tolist(),
                                         grid.mass.tolist())]
        assert grid.integrate(f).tolist() == per_cell
    if alpha == 400.0:
        assert (grid.mass == 0).sum() >= 2


@pytest.mark.parametrize("bins", [0, -3])
def test_cell_grid_rejects_bins_below_one(bins):
    # the one check behind simulate, both calibrators and discretize_rules
    inst = verialloc.ProblemInstance(3, 2, 1, make_uniform())
    part = verialloc.partition(0.35, inst)
    rules = verialloc.merit_with_guarantee(0.35, inst, part)
    message = f"bins must be at least 1, got {bins}"
    for call in (lambda: cell_grid(inst.dist, bins),
                 lambda: verialloc.simulate(inst, 0.35, 100, 1, bins=bins),
                 lambda: verialloc.calibrate_lottery(inst, part, bins=bins),
                 lambda: verialloc.calibrate_audit(inst, part, rules, bins=bins),
                 lambda: verialloc.discretize_rules(inst, rules, bins)):
        with pytest.raises(ValueError, match=message):
            call()


def test_import_needs_neither_scipy_optimize_nor_integrate():
    # quadrature, root finding and the binomial sums are the package's own,
    # and importing any of scipy costs set-up time
    code = ("import sys, verialloc; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    env = {**os.environ, "PYTHONPATH": str(Path(verialloc.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
