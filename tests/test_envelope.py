import functools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from conftest import gamma1_closed, gamma3_closed, random_instance
from verialloc.distributions import make_power, make_uniform
from verialloc.envelope import (
    CASE_AUD_ALLO,
    CASE_IC_ALLO,
    CASE_IC_AUD_ALLO,
    LABEL_ALLO,
    LABEL_AUD,
    LABEL_IC,
    ProblemInstance,
    c_allo,
    c_aud,
    c_ic,
    d_c_allo,
    d_c_aud,
    d_c_ic,
    envelope_value,
    partition,
    partitions,
)
from verialloc import envelope
from verialloc.interim import allocation_branch
from verialloc.optimizer import solve

PHI = 0.34764


def allo_poly(q):
    return q**3 - 3 * q**2 + 2


def aud_poly(q, phi):
    return -(q**3) - 3 * phi * q + 1 + 3 * phi


def binomial_sum_oracle(n, cap, q):
    """Direct evaluation with exact binomial coefficients."""
    return sum(min(i, cap) * comb(n, i) * (1 - q) ** i * q ** (n - i)
               for i in range(1, n + 1))


class TestConstraintValues:
    def test_instance_validation(self, uniform):
        with pytest.raises(ValueError):
            ProblemInstance(3, 2, 2, uniform)
        with pytest.raises(ValueError):
            ProblemInstance(3, 3, 1, uniform)
        with pytest.raises(ValueError):
            ProblemInstance(3, 2, 0, uniform)

    def test_example_values(self, ex_inst):
        assert c_allo(0.0, ex_inst) == 2.0
        assert c_allo(0.5, ex_inst) == pytest.approx(1.375, abs=1e-12)
        assert c_allo(1.0, ex_inst) == 0.0
        assert c_aud(0.0, 1 / 3, ex_inst) == pytest.approx(2.0, abs=1e-12)
        assert c_aud(0.5, 0.4, ex_inst) == pytest.approx(1.475, abs=1e-12)
        assert c_aud(1.0, 0.4, ex_inst) == 0.0
        assert c_ic(0.0, 0.5, ex_inst) == 2.0
        assert c_ic(0.5, 0.5, ex_inst) == pytest.approx(1.25, abs=1e-15)
        assert c_ic(0.7, 0.0, ex_inst) == 2.0

    def test_matches_example_polynomials_on_grid(self, ex_inst):
        qs = np.linspace(0.0, 1.0, 1000)
        for q in qs:
            q = float(q)
            assert abs(c_allo(q, ex_inst) - allo_poly(q)) <= 1e-12
            assert abs(c_aud(q, PHI, ex_inst) - aud_poly(q, PHI)) <= 1e-12

    def test_matches_binomial_oracle_bigger_instance(self, uniform):
        inst = ProblemInstance(7, 4, 2, uniform)
        for q in np.linspace(0.0, 1.0, 41):
            q = float(q)
            assert c_allo(q, inst) == pytest.approx(
                binomial_sum_oracle(7, 4, q), abs=1e-12
            )
            assert c_aud(q, 0.3, inst) == pytest.approx(
                binomial_sum_oracle(7, 2, q) + 7 * (1 - q) * 0.3, abs=1e-12
            )

    def test_large_n_stable(self, uniform):
        inst = ProblemInstance(1000, 400, 100, uniform)
        for q in (0.0, 1e-6, 0.3, 0.9, 1.0):
            v = c_allo(q, inst)
            assert 0.0 <= v <= 400.0
            assert np.isfinite(v)
        assert c_allo(0.0, inst) == 400.0
        assert c_allo(1.0, inst) == 0.0

    def test_domain_errors(self, ex_inst):
        with pytest.raises(ValueError):
            c_allo(-0.1, ex_inst)
        with pytest.raises(ValueError):
            c_aud(0.5, 0.9, ex_inst)  # phi above m/n
        with pytest.raises(ValueError):
            c_ic(1.2, 0.1, ex_inst)


class TestDerivatives:
    def test_example_derivative_values(self, ex_inst):
        # closed form for n=3, m=2: -3(2q - q^2)
        assert d_c_allo(0.5, ex_inst) == pytest.approx(-2.25, abs=1e-12)
        assert d_c_ic(PHI, ex_inst) == pytest.approx(-3 * PHI, abs=1e-15)
        assert d_c_aud(1.0, 0.0, ex_inst) == pytest.approx(-3.0, abs=1e-12)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(6):
            inst = random_instance(rng, n_max=40)
            phi = float(rng.uniform(0, inst.phi_max))
            for q in np.linspace(0.01, 0.99, 25):
                q = float(q)
                fd = (c_allo(q + h, inst) - c_allo(q - h, inst)) / (2 * h)
                assert abs(d_c_allo(q, inst) - fd) <= 1e-6
                fd = (c_aud(q + h, phi, inst) - c_aud(q - h, phi, inst)) / (2 * h)
                assert abs(d_c_aud(q, phi, inst) - fd) <= 1e-6
                fd = (c_ic(q + h, phi, inst) - c_ic(q - h, phi, inst)) / (2 * h)
                assert abs(d_c_ic(phi, inst) - fd) <= 1e-6

    def test_concavity_second_differences(self, ex_inst):
        qs = np.linspace(0.0, 1.0, 1000)
        for f in (lambda q: c_allo(q, ex_inst), lambda q: c_aud(q, 0.4, ex_inst)):
            vals = np.array([f(float(q)) for q in qs])
            second = np.diff(vals, 2)
            assert np.max(second) <= 1e-9


class TestEnvelope:
    def test_boundary_ties(self, ex_inst):
        value, tag = envelope_value(0.0, 0.5, ex_inst)  # phi >= (m-k)/n
        assert value == 2.0 and tag == LABEL_IC
        value, tag = envelope_value(1.0, 0.5, ex_inst)
        assert value == 0.0 and tag == LABEL_AUD

    def test_example_interior_point(self, ex_inst):
        value, tag = envelope_value(0.2, PHI, ex_inst)
        assert value == pytest.approx(2 - 3 * PHI * 0.2, abs=1e-12)
        assert tag == LABEL_IC

    def test_envelope_is_pointwise_min(self, ex_inst):
        for phi in (0.1, 1 / 3, PHI, 0.5, 2 / 3):
            for q in np.linspace(0, 1, 101):
                q = float(q)
                value, _ = envelope_value(q, phi, ex_inst)
                brute = min(c_allo(q, ex_inst), c_aud(q, phi, ex_inst),
                            c_ic(q, phi, ex_inst))
                assert value == pytest.approx(brute, abs=1e-14)

    def test_monotone_in_phi(self, ex_inst):
        for q in np.linspace(0, 1, 21):
            q = float(q)
            lo = c_aud(q, 0.3, ex_inst)
            hi = c_aud(q, 0.5, ex_inst)
            assert hi >= lo - 1e-12

    def test_aud_dominates_supply_at_zero_above_floor(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_instance(rng, n_max=20)
            phi = float(rng.uniform(inst.phi_floor, inst.phi_max))
            assert c_aud(0.0, phi, inst) >= c_allo(0.0, inst) - 1e-12


class TestPartition:
    def test_example_case(self, ex_inst):
        part = partition(PHI, ex_inst)
        assert part.case_tag == CASE_IC_AUD_ALLO
        assert part.gamma1 == pytest.approx(gamma1_closed(PHI), abs=1e-9)
        assert part.gamma2 == part.gamma1
        assert part.gamma3 == pytest.approx(gamma3_closed(PHI), abs=1e-9)

    def test_phi_zero_case1(self, ex_inst):
        part = partition(0.0, ex_inst)
        assert part.case_tag == CASE_AUD_ALLO
        assert part.gamma1 == 0.0 and part.gamma2 == 0.0
        labels = [iv.label for iv in part.intervals]
        assert LABEL_IC not in labels

    def test_phi_floor_case1(self, ex_inst):
        part = partition(1 / 3, ex_inst)
        assert part.case_tag == CASE_AUD_ALLO
        # allo/aud crossing of 2q^2 - q = 0 at q = 1/2
        assert part.gamma3 == pytest.approx(0.5, abs=1e-9)

    def test_phi_max_case3(self, ex_inst):
        part = partition(2 / 3, ex_inst)
        assert part.case_tag == CASE_IC_ALLO
        assert part.gamma1 == pytest.approx(1.0, abs=1e-9)
        assert part.gamma2 == 1.0 and part.gamma3 == 1.0

    def test_phi_out_of_range(self, ex_inst):
        with pytest.raises(ValueError):
            partition(0.7, ex_inst)
        with pytest.raises(ValueError):
            partition(-0.01, ex_inst)

    @pytest.mark.parametrize("seed", range(7))
    @pytest.mark.parametrize("alpha", [1.0, 0.3, 4.0])
    def test_labels_match_grid_argmin(self, seed, alpha):
        # at 400 types, the bound the region's label names is the binding
        # one, at phi = 0, the floor, the cap and a random guarantee; seed 0
        # is the paper's instance, also at the guarantees of its example
        rng = np.random.default_rng(100 + seed)
        spec = ProblemInstance(3, 2, 1, make_uniform()) if seed == 0 else random_instance(rng, 15)
        inst = ProblemInstance(spec.n, spec.m, spec.k,
                               make_uniform() if alpha == 1.0 else make_power(alpha))
        ts = np.linspace(0.0, 1.0, 400)
        qs = inst.dist.cdf(ts)
        phis = [0.0, inst.phi_floor, inst.phi_max, float(rng.uniform(0, inst.phi_max))]
        for phi in phis + ([0.05, PHI, 0.42, 0.6] if seed == 0 else []):
            part = partition(phi, inst)
            value, _ = envelope_value(qs, phi, inst)
            bounds = {LABEL_IC: c_ic(qs, phi, inst), LABEL_AUD: c_aud(qs, phi, inst),
                      LABEL_ALLO: c_allo(qs, inst)}
            for j, t in enumerate(ts.tolist()):
                label = part.region_of(t)
                assert bounds[label][j] <= value[j] + 1e-9, (phi, t, label)

    def test_no_guarantee_puts_supply_below_the_audit_region(self):
        # supply below the audit region needs cutoffs g1 < g2 < g3; the
        # curves satisfy z2 = q z1 + (1 - q) band, so that needs a q where
        # the band rises below the z1 curve.  Neither turns up (cutoffs live
        # in quantile space, so this holds for every distribution)
        q = (np.arange(2001) + 0.5) / 2001
        for n in range(3, 21):
            for m, k in ((m, k) for m in range(2, n) for k in range(1, m)):
                if n <= 12:
                    inst = ProblemInstance(n, m, k, make_uniform())
                    g1, g2, g3 = envelope._cutoffs(np.linspace(0.0, m / n, 201), inst)[2]
                    assert not np.any((g1 < g2) & (g2 < g3)), (n, m, k)
                (z1, _, band), (_, _, rise) = envelope._curve_points(q, n, m, k)
                assert not np.any((rise > 0) & (band < z1)), (n, m, k)

    def test_supply_region_on_both_sides_of_the_audit_region(self):
        # no guarantee gives this case (see
        # test_no_guarantee_puts_supply_below_the_audit_region) and the
        # exact calibration map refuses it: a hand-built crossing row with
        # z1 < z2 < r1 < r2 gives supply on [z1, r1) and past r2
        inst = ProblemInstance(3, 2, 1, make_power(2.0))
        part = envelope._assemble(0.5, (0.04, 0.09, 0.25, 0.64), inst)
        assert part.case_tag == envelope.CASE_IC_ALLO_AUD_ALLO
        assert [(iv.lo, iv.hi, iv.label) for iv in part.intervals] == [
            (0.0, 0.2, LABEL_IC), (0.2, 0.5, LABEL_ALLO), (0.5, 0.8, LABEL_AUD),
            (0.8, 1.0, LABEL_ALLO)]
        assert (part.gamma1, part.gamma2, part.gamma3) == (0.2, 0.5, 0.8)
        assert part.crossings == {"z1": 0.04, "z2": 0.09, "r1": 0.25, "r2": 0.64}

    def test_gamma_ordering_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            inst = random_instance(rng, n_max=15)
            phi = float(rng.uniform(0, inst.phi_max))
            part = partition(phi, inst)
            assert 0 <= part.gamma1 <= part.gamma2 <= part.gamma3 <= 1 + 1e-12
            assert part.intervals[0].lo == 0.0
            assert part.intervals[-1].hi == 1.0
            for a, b in zip(part.intervals[:-1], part.intervals[1:]):
                assert a.hi == b.lo

    def test_power_distribution_cutoffs_in_type_space(self):
        inst = ProblemInstance(3, 2, 1, make_power(2.0))
        part = partition(PHI, inst)
        # q-space crossings are distribution free; type cutoffs are their
        # quantile images, here sqrt
        assert part.gamma3 == pytest.approx(np.sqrt(gamma3_closed(PHI)), abs=1e-8)

    def test_serialization_record(self, ex_inst):
        part = partition(PHI, ex_inst)
        rec = part.to_record()
        assert rec["case"] == CASE_IC_AUD_ALLO
        assert rec["phi"] == PHI
        assert [iv["label"] for iv in rec["intervals"]] == [
            LABEL_IC, LABEL_AUD, LABEL_ALLO,
        ]
        assert set(rec["crossings"]) >= {"z1", "z2", "r1", "r2"}

    def test_region_lookup_right_continuous(self, ex_inst):
        part = partition(PHI, ex_inst)
        assert part.region_of(part.gamma3) == LABEL_ALLO
        assert part.region_of(part.gamma1) == LABEL_AUD
        codes = part.region_codes(np.array([0.0, part.gamma1, part.gamma3, 1.0]))
        assert codes.tolist() == [0, 1, 2, 2]


def exact_binomial_pmf(n, q):
    """P(i of n iid agents lie above quantile q), exactly, for Fraction q."""
    return [comb(n, i) * (1 - q) ** i * q ** (n - i) for i in range(n + 1)]


def relative_gap(value, exact):
    """|value - exact| / |exact|, or |value| when the exact value is 0."""
    gap = abs(Fraction(value) - exact)
    return float(gap / abs(exact)) if exact != 0 else float(gap)


# (n, m, k) for the exact oracle: small, mid-size and n = 60 instances with
# m and k near both ends
ORACLE_INSTANCES = [(3, 2, 1), (7, 4, 2), (20, 10, 3), (20, 19, 18),
                    (60, 30, 10), (60, 2, 1), (60, 59, 1), (60, 45, 44)]
ORACLE_QS = [Fraction(j, 64) for j in range(65)]


class TestExactOracle:
    """Closed forms against exact rational binomial sums at dyadic q."""

    @pytest.mark.parametrize("n,m,k", ORACLE_INSTANCES)
    def test_values_and_derivatives(self, n, m, k, uniform):
        inst = ProblemInstance(n, m, k, uniform)
        phi = Fraction(m / (2 * n))  # the float's exact value
        worst = 0.0
        for q in ORACLE_QS:
            pmf = exact_binomial_pmf(n, q)
            below = exact_binomial_pmf(n - 1, q)  # among the n-1 others
            allo = sum(min(i, m) * w for i, w in enumerate(pmf))
            aud = sum(min(i, k) * w for i, w in enumerate(pmf)) + n * (1 - q) * phi
            cdf_m = sum(below[:m])  # P(at most m-1 others above q)
            cdf_k = sum(below[:k])
            qf, pf = float(q), float(phi)
            pairs = [
                (c_allo(qf, inst), allo),
                (c_aud(qf, pf, inst), aud),
                (d_c_allo(qf, inst), -n * cdf_m),
                (d_c_aud(qf, pf, inst), -n * cdf_k - n * phi),
                (allocation_branch(LABEL_ALLO, qf, pf, inst), cdf_m),
                (allocation_branch(LABEL_AUD, qf, pf, inst), cdf_k + phi),
            ]
            worst = max(worst, *(relative_gap(v, e) for v, e in pairs))
        assert worst <= 1e-13

    def test_endpoints_exact(self, uniform):
        for n, m, k in [(3, 2, 1), (60, 59, 1), (1000, 500, 100), (3000, 1000, 10)]:
            inst = ProblemInstance(n, m, k, uniform)
            phi = inst.phi_max
            assert c_allo(0.0, inst) == m and c_allo(1.0, inst) == 0.0
            assert c_aud(0.0, phi, inst) == k + n * phi and c_aud(1.0, phi, inst) == 0.0
            assert d_c_allo(0.0, inst) == 0.0 and d_c_allo(1.0, inst) == -n
            assert d_c_aud(0.0, phi, inst) == -n * phi
            assert d_c_aud(1.0, phi, inst) == -n - n * phi


class TestArrayPath:
    def test_array_matches_scalar_bit_for_bit(self, uniform):
        rng = np.random.default_rng(5)
        qs = np.concatenate([[0.0, 1.0, 1e-15, 1.0 - 1e-15], rng.random(200)])
        for n, m, k in [(3, 2, 1), (40, 10, 3), (1000, 500, 100)]:
            inst = ProblemInstance(n, m, k, uniform)
            phi = 0.5 * (inst.phi_floor + inst.phi_max)
            for f in (lambda q: c_allo(q, inst), lambda q: c_aud(q, phi, inst),
                      lambda q: c_ic(q, phi, inst), lambda q: d_c_allo(q, inst),
                      lambda q: d_c_aud(q, phi, inst)):
                vec = f(qs)
                scalars = [f(float(q)) for q in qs]
                assert isinstance(vec, np.ndarray) and vec.shape == qs.shape
                assert all(isinstance(v, float) for v in scalars)
                assert np.array_equal(vec, np.array(scalars))
                assert f(np.array([])).shape == (0,)
            assert envelope_value(np.array([]), phi, inst)[0].shape == (0,)

    def test_array_domain_checked(self, ex_inst):
        with pytest.raises(ValueError, match="-0.5"):
            c_allo(np.array([0.0, 0.5, -0.5]), ex_inst)
        with pytest.raises(ValueError):
            d_c_aud(np.array([0.2, np.nan]), 0.4, ex_inst)


# (n, m, k) of the curve checks: every instance with n <= 30 and three large ones
CURVE_INSTANCES = [(n, m, k) for n in range(3, 31) for m in range(2, n) for k in range(1, m)]
CURVE_INSTANCES += [(400, 100, 20), (1000, 500, 100), (3000, 1000, 10)]
CURVE_NS = sorted({spec[0] for spec in CURVE_INSTANCES})


def oracle_p(n):
    """Chances p of an agent above a quantile: one minus every inner
    quantile of the curve table for n <= 30, every 16th for the large
    instances (where 1 - q rounds to 1, 2^-60 in its place); and each cut
    c's switch point (c - 1/2) / n, where ``_tails`` turns from summing the
    lower tail to the upper, with the floats either side of it, for every
    cut for n <= 30 and the instances' m and k for the large ones."""
    q = envelope._TABLE_Q[1:-1][::1 if n <= 30 else 16]
    cuts = range(1, n + 1) if n <= 30 else [c for spec in CURVE_INSTANCES if spec[0] == n
                                            for c in spec[1:]]
    switch = (np.array(cuts) - 0.5) / n
    return np.unique(np.concatenate([1.0 - q[q >= 2.0 ** -52], [2.0 ** -60], switch,
                                     np.nextafter(switch, 0.0), np.nextafter(switch, 1.0)]))


@functools.lru_cache(maxsize=None)
def exact_binomial(n):
    """P(X = j), P(X <= j) and P(X > j) for X ~ Binomial(n, p), j = 0..n
    (rows) at each p of ``oracle_p(n)`` (columns), each summed from its own
    side with 40 digits (p the float's exact value) and rounded once."""
    mp = pytest.importorskip("mpmath")
    out = []
    with mp.workdps(40):
        for p in oracle_p(n).tolist():
            p, q = mp.mpf(p), 1 - mp.mpf(p)
            pmf = [q ** n]
            for i in range(n):
                pmf.append(pmf[-1] * (n - i) / (i + 1) * p / q)
            below, above, s = [], [], mp.mpf(0)
            for term in pmf:
                s += term
                below.append(s)
            s = mp.mpf(0)
            for term in reversed(pmf):
                above.append(s)
                s += term
            out.append([[float(v) for v in seq] for seq in (pmf, below, above[::-1])])
    return tuple(np.array(part).T for part in zip(*out))


def assert_close(got, exact, what):
    """Within 1e-13 of the exact values, relative; values under 1e-100, far
    below any guarantee, are held to 1e-113 absolute."""
    bad = np.abs(got - exact) > 1e-13 * np.maximum(np.abs(exact), 1e-100)
    assert not bad.any(), (what, np.max(np.abs(got - exact) / np.maximum(np.abs(exact), 1e-100)))


class TestCrossingCurves:
    """The three phi-free curves whose level sets are the crossings, on the
    table the partition brackets them on."""

    def test_shapes(self):
        # the z1 and z2 curves rise and the band has one interior peak, up to
        # rounding of 64 ulps of their scale m/n (near q = 0 the band's terms
        # cancel to (m-k)/n, and near the ends values underflow): the batched
        # partition brackets on these shapes
        q = envelope._TABLE_Q
        for n, m, k in CURVE_INSTANCES:
            tol = 64 * np.finfo(float).eps * m / n
            (z1, z2, band), q_peak, peak, _ = envelope._curves(n, m, k)
            assert np.all(np.diff(z1) >= -tol) and np.all(np.diff(z2) >= -tol), (n, m, k)
            i = int(np.argmax(band))
            assert 0 < i < len(q) - 1, (n, m, k)
            assert np.all(np.diff(band[:i + 1]) >= -tol), (n, m, k)
            assert np.all(np.diff(band[i:]) <= tol), (n, m, k)
            assert q[i - 1] <= q_peak <= q[i + 1] and peak >= band[i] - tol, (n, m, k)

    def test_closed_forms_match_tail_sums(self):
        # E[(c - X)^+] = sum over j < c of P(X <= j), and E[min(X, m)] -
        # E[min(X, k)] = sum over c in [k, m) of P(X > c), summed from
        # 40-digit tails at every p of ``oracle_p``, to 1e-13 relative for
        # every n (the tails are correctly rounded, and numpy's pairwise sum
        # of at most 3000 of them adds under 2e-15)
        for n in CURVE_NS:
            p = oracle_p(n)
            _, below, above = exact_binomial(n)
            pairs = [(m, k) for nn, m, k in CURVE_INSTANCES if nn == n]
            cuts = sorted({c for pair in pairs for c in pair})
            short = envelope._tails(n, np.array(cuts)[:, None], p)[1]
            for row, c in enumerate(cuts):
                assert_close(short[row], below[:c].sum(axis=0), ("shortfall", n, c))
            m, k = (np.array(side)[:, None] for side in zip(*pairs))
            at_k, at_m = envelope._tails(n, k, p), envelope._tails(n, m, p)
            band = envelope._band_sums(n, m, k, p, at_k, at_m)[0]
            for row, (m, k) in enumerate(pairs):
                assert_close(band[row], above[k:m].sum(axis=0), ("band", n, m, k))

    @pytest.mark.parametrize("n,m,k", [spec for spec in CURVE_INSTANCES if spec[0] > 30])
    def test_large_n_tail_sums_match_scipy_on_the_whole_table(self, n, m, k):
        # the same sums at every inner quantile of the table (the 40-digit
        # sums above take every 16th here), against sums of scipy's binomial
        # tails, which are themselves up to 7e-12 off at n = 3000
        special = pytest.importorskip("scipy.special")
        p = 1.0 - envelope._TABLE_Q[1:-1]
        cdf = special.bdtr(np.arange(n)[:, None], n, p)
        upper = special.bdtrc(np.arange(n)[:, None], n, p)
        pairs = [(envelope._tails(n, c, p)[1], cdf[:c].sum(axis=0)) for c in (m, k)]
        at_k, at_m = envelope._tails(n, k, p), envelope._tails(n, m, p)
        pairs.append((envelope._band_sums(n, m, k, p, at_k, at_m)[0], upper[k:m].sum(axis=0)))
        for got, tail in pairs:
            assert np.all(np.abs(got - tail) <= 2e-11 * np.maximum(tail, 1e-100))

    @pytest.mark.parametrize("n", CURVE_NS)
    def test_pmf_cdf_and_capped_count_match_40_digit_sums(self, n):
        # the pmf at every count, P(X <= j) at every j < n (so at m-1 and
        # k-1 of each instance) and E[min(X, c)] = sum over j < c of P(X > j)
        # at every cut c of the instances
        p = oracle_p(n)
        pmf, below, above = exact_binomial(n)
        counts = np.arange(n + 1)[:, None]
        assert_close(envelope._anchor_pmf(n, counts, p), pmf, ("pmf", n))
        for j in range(n):
            assert_close(envelope._binom_cdf(j, n, p), below[j], ("cdf", n, j))
        cuts = sorted({c for nn, m, k in CURVE_INSTANCES if nn == n for c in (m, k)})
        capped = envelope._capped_count_expectation(n, np.array(cuts)[:, None], p)
        for row, c in enumerate(cuts):
            assert_close(capped[row], above[:c].sum(axis=0), ("E[min(X, c)]", n, c))

    @pytest.mark.parametrize("n,m,k", [(3, 2, 1), (12, 6, 2), (40, 10, 3), (100, 40, 10),
                                       (400, 100, 20), (1000, 500, 100)])
    def test_slopes_are_the_curves_derivatives(self, n, m, k):
        # the closed-form slopes in q of z1, z2 and the band against centred
        # differences of the curves summed with 40 digits (h = 1e-15: the
        # step's error, of order h^2, and the rounding's are far below the
        # bound), to 1e-12 of the slope's scale, its size plus the curve
        # over q (1 - q); near the band's peak the slope itself is 0
        mp = pytest.importorskip("mpmath")
        qs = np.array([0.07, 0.3, 0.55, 0.8, 0.95])
        values, slopes = envelope._curve_points(qs, n, m, k)

        def curves(q):
            p = 1 - q
            pmf = [q ** n]
            for i in range(n):
                pmf.append(pmf[-1] * (n - i) / (i + 1) * p / q)
            short = [sum((c - i) * pmf[i] for i in range(c)) for c in (m, k)]
            band = sum(min(max(i - k, 0), m - k) * pmf[i] for i in range(n + 1))
            return [short[0] / (n * q), (m - k + short[1]) / n, band / (n * p)]

        with mp.workdps(40):
            h = mp.mpf("1e-15")
            for j, q in enumerate(qs.tolist()):
                up, down = curves(mp.mpf(q) + h), curves(mp.mpf(q) - h)
                for curve in range(3):
                    exact = float((up[curve] - down[curve]) / (2 * h))
                    scale = abs(exact) + values[curve, j] / (q * (1 - q))
                    assert abs(slopes[curve, j] - exact) <= 1e-12 * scale, (curve, q, exact)

    @pytest.mark.parametrize("n,m,k", [(3, 2, 1), (12, 6, 2), (40, 10, 3), (1000, 500, 100)])
    def test_crossings_are_where_the_public_bounds_meet(self, n, m, k, uniform):
        inst = ProblemInstance(n, m, k, uniform)
        meet = {"z1": lambda q, phi: c_ic(q, phi, inst) - c_allo(q, inst),
                "z2": lambda q, phi: c_aud(q, phi, inst) - c_ic(q, phi, inst),
                "r1": lambda q, phi: c_allo(q, inst) - c_aud(q, phi, inst)}
        meet["r2"] = meet["r1"]
        for part in partitions(np.linspace(0.0, inst.phi_max, 41), inst):
            for key, q in part.crossings.items():
                if 0.0 < q < 1.0:
                    assert abs(meet[key](q, part.phi)) <= 1e-12 * m, (key, part.phi)

    @pytest.mark.parametrize("n,m,k", [(12, 6, 2), (40, 10, 3), (1000, 500, 100)])
    @pytest.mark.parametrize("phi", [1e-20, 1e-16])
    def test_band_crossing_at_a_tiny_guarantee(self, n, m, k, phi, uniform):
        # r2, where the falling band meets a guarantee far below the
        # rounding of values near 1, lies between the floats at which the
        # band is above and below phi, a few ulps either side
        r2 = partition(phi, ProblemInstance(n, m, k, uniform)).crossings["r2"]
        qs = np.array([r2 - 8 * np.spacing(r2), r2 + 8 * np.spacing(r2)])
        above, below = envelope._curve_points(qs, n, m, k)[0][2]
        assert above > phi > below, (r2, above / phi, below / phi)

    @pytest.mark.parametrize("n,m,k,alpha", [(3, 2, 1, 1.0), (12, 6, 2, 0.3), (40, 10, 3, 4.0)])
    def test_batch_is_the_single_partition(self, n, m, k, alpha):
        inst = ProblemInstance(n, m, k, make_uniform() if alpha == 1.0 else make_power(alpha))
        phis = np.linspace(0.0, inst.phi_max, 41)
        assert ([p.to_record() for p in partitions(phis, inst)]
                == [partition(float(phi), inst).to_record() for phi in phis])


EDGE_INSTANCES = [(3, 2, 1), (1000, 500, 100), (3000, 1000, 10)]


class TestEdgeRegimes:
    @pytest.mark.parametrize("n,m,k", EDGE_INSTANCES)
    @pytest.mark.parametrize("alpha", [1.0, 0.1, 8.0])
    def test_partition_at_floor_and_cap(self, n, m, k, alpha):
        dist = make_uniform() if alpha == 1.0 else make_power(alpha)
        inst = ProblemInstance(n, m, k, dist)
        # no incentive region at the floor; at the cap it is everything
        for phi, case, gamma1 in ((inst.phi_floor, CASE_AUD_ALLO, 0.0),
                                  (inst.phi_max, CASE_IC_ALLO, 1.0)):
            part = partition(phi, inst)
            assert part.case_tag == case
            assert part.gamma1 == pytest.approx(gamma1, abs=1e-9)
            assert 0.0 <= part.gamma1 <= part.gamma2 <= part.gamma3 <= 1.0
            assert part.intervals[0].lo == 0.0 and part.intervals[-1].hi == 1.0

    def test_solve_large_instance(self, uniform):
        report = solve(ProblemInstance(1000, 500, 100, uniform))
        base = report.baselines
        assert base["k_top"] <= report.payoff <= base["first_best"]


class TestNewtonRoots:
    """The safeguarded Newton polish behind every crossing, the band's peak
    and the first-order-condition roots."""

    @staticmethod
    def polish(g, start, g_tol=0.0):
        # one bracket [0, 1] per start; g(x, None) evaluates every row
        start = np.atleast_1d(np.asarray(start, dtype=float))
        ends = [np.full(start.shape, end) for end in (0.0, 1.0)]
        values = [g(end, None)[0] for end in ends]
        return envelope._newton_roots(g, *ends, *values, start, np.full(start.shape, g_tol))

    def test_a_step_that_leaves_the_bracket_bisects(self):
        # a slope 1000 times too small throws every Newton step far outside
        # [0, 1]: the iterates halve the bracket around 0.3 instead
        seen = []

        def g(x, rows):
            seen.append(float(x[0]))
            return x - 0.3, np.full(np.shape(x), 1e-3)

        root, _ = self.polish(g, 0.9)
        assert seen[2:6] == [0.9, 0.45, 0.225, 0.3375]
        assert abs(root[0] - 0.3) <= 2 * np.spacing(0.3)

    def test_an_infinite_slope_does_not_stop_the_polish(self):
        # g / g' = 0 at the start would read as converged there, 0.6 off
        def g(x, rows):
            return x - 0.3, np.where(x == 0.9, np.inf, 1.0)

        root, iterations = self.polish(g, 0.9)
        assert iterations > 1
        assert abs(root[0] - 0.3) <= 2 * np.spacing(0.3)

    def test_a_value_within_g_tol_resolves_its_row(self):
        def g(x, rows):
            return x - 0.3, np.ones(np.shape(x))

        root, iterations = self.polish(g, [0.35, 0.9], g_tol=0.1)
        assert root[0] == 0.35 and iterations == 2
        assert abs(root[1] - 0.3) <= 2 * np.spacing(0.3)

    def test_a_rows_root_does_not_depend_on_its_batch(self):
        # x^3 = c on [0, 1] for three levels, alone and together
        levels = np.array([0.2, 0.5, 0.7])

        def batch(chosen):
            def g(x, rows):
                c = levels[chosen] if rows is None else levels[chosen][rows]
                return x ** 3 - c, 3.0 * x * x

            return self.polish(g, np.full(len(chosen), 0.5))[0]

        together = batch(np.arange(3))
        alone = [batch(np.array([i]))[0] for i in range(3)]
        assert together.tolist() == alone
        assert np.allclose(together, np.cbrt(levels), rtol=4e-16, atol=0)
