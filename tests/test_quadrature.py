import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from besselwave.errors import ContractError, DomainError
from besselwave.fields import (FieldSum, GaussianField, PlaneWaveField,
                               PolynomialField)
from besselwave.quadrature import (MAX_RADIAL_ORDER, SphereRule,
                                   ball_kernel_integral_many, make_radial_rule,
                                   sphere_means_many)
from besselwave.special import sphere_area_const


def beta_fn(a, b):
    """Euler beta function, evaluated in 30-digit arithmetic."""
    with mp.workdps(30):
        return float(mp.beta(a, b))


@functools.lru_cache(maxsize=None)
def _chebyshev_recurrence(beta, order):
    """Recurrence coefficients of (1-s^2)^beta on (0,1) from the exact
    moments mu_j = B((j+1)/2, beta+1)/2 by the Chebyshev algorithm, in
    mpmath at 50 + 2*order digits against the moment map's exponential
    ill-conditioning.  The first k coefficients are those of order k."""
    with mp.workdps(50 + 2 * order):
        mu = [mp.beta(mp.mpf(j + 1) / 2, mp.mpf(beta) + 1) / 2
              for j in range(2 * order)]
        alpha_mp = [mu[1] / mu[0]]
        beta_mp = [mu[0]]
        sigma_prev = {l: mp.mpf(0) for l in range(2 * order)}
        sigma_cur = {l: mu[l] for l in range(2 * order)}
        for k in range(1, order):
            sigma_new = {}
            for l in range(k, 2 * order - k):
                sigma_new[l] = (sigma_cur[l + 1]
                                - alpha_mp[k - 1] * sigma_cur[l]
                                - beta_mp[k - 1] * sigma_prev[l])
            alpha_mp.append(sigma_new[k + 1] / sigma_new[k]
                            - sigma_cur[k] / sigma_cur[k - 1])
            beta_mp.append(sigma_new[k] / sigma_cur[k - 1])
            sigma_prev, sigma_cur = sigma_cur, sigma_new
        return (np.array([float(v) for v in alpha_mp]),
                np.array([float(v) for v in beta_mp]))


def chebyshev_reference_rule(beta, order):
    """The moment-based build: Chebyshev algorithm, then float64
    Golub-Welsch."""
    a, b = _chebyshev_recurrence(beta, 128)
    a, b = a[:order], b[:order]
    off = np.sqrt(b[1:])
    nodes, vecs = np.linalg.eigh(np.diag(a) + np.diag(off, 1)
                                 + np.diag(off, -1))
    return nodes, b[0] * vecs[0] ** 2


class DirectionRuleMeans:
    """A field seen through eval alone: its sphere means are the direction
    rule SphereRule(n, order) summed over points, the reference for the
    closed forms (n in {1, 2, 3})."""

    def __init__(self, field, order):
        self.field, self.order = field, order

    def sphere_mean(self, x, radii, lap=0):
        rule, n = SphereRule(x.size, self.order), x.size
        pts = x[None, None, :] + radii[:, None, None] * rule.directions[None]
        vals = self.field.eval(pts.reshape(-1, n), lap).reshape(radii.size, -1)
        return vals @ rule.weights / sphere_area_const(n)


def ball(f, x, t, beta, lam, radial, sphere):
    """One ball kernel integral at nu = beta."""
    return float(ball_kernel_integral_many(f, x, np.array([t]), beta, beta,
                                           lam, radial, sphere)[0])


def mean(f, x, r):
    return float(sphere_means_many(f, x, np.array([r]))[0])


class TestRadialRule:
    def test_node_and_weight_shape(self):
        rule = make_radial_rule(-0.3, 24)
        assert rule.nodes.size == 24
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all((rule.nodes > 0) & (rule.nodes < 1))
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("beta", [-0.3, 0.0, 0.7, 1.5])
    def test_moment_exactness(self, beta):
        # integral_0^1 s^j (1-s^2)^beta ds = B((j+1)/2, beta+1)/2,
        # exact for j <= 2*order - 1
        order = 20
        rule = make_radial_rule(beta, order)
        for j in range(2 * order):
            val = float(np.sum(rule.weights * rule.nodes ** j))
            exact = beta_fn((j + 1) / 2.0, beta + 1.0) / 2.0
            assert val == pytest.approx(exact, rel=1e-12)

    def test_beta_weight_example(self):
        # alpha = 0.7, eta = 0: integral (1-s^2)^{-0.3} s ds = B(0.7,1)/2
        rule = make_radial_rule(-0.3, 16)
        val = float(np.sum(rule.weights * rule.nodes))
        assert val == pytest.approx(1.0 / 1.4, rel=1e-13)

    def test_plain_gauss_at_beta_zero(self):
        rule = make_radial_rule(0.0, 12)
        val = float(np.sum(rule.weights * np.exp(rule.nodes)))
        assert val == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            make_radial_rule(-1.0, 8)
        with pytest.raises(DomainError):
            make_radial_rule(0.5, 0)
        with pytest.raises(DomainError):
            make_radial_rule(0.5, MAX_RADIAL_ORDER + 1)
        assert make_radial_rule(0.5, MAX_RADIAL_ORDER).nodes.size == 256

    @pytest.mark.parametrize("beta", [-0.999, -0.95, -0.75, -0.5, 0.25, 1.0,
                                      4.0])
    @pytest.mark.parametrize("order", [1, 2, 8, 32, 64, 128])
    def test_matches_chebyshev_algorithm(self, beta, order):
        nodes, weights = chebyshev_reference_rule(beta, order)
        rule = make_radial_rule(beta, order)
        assert np.max(np.abs(rule.nodes - nodes)) <= 1e-12
        assert np.max(np.abs(rule.weights - weights)) <= 1e-12 * np.sum(weights)

    @settings(max_examples=40, deadline=None)
    @given(beta=st.floats(-0.999, 4.0),
           order=st.integers(1, MAX_RADIAL_ORDER))
    @example(beta=-0.999, order=MAX_RADIAL_ORDER)
    @example(beta=4.0, order=MAX_RADIAL_ORDER)
    @example(beta=-0.999, order=1)
    def test_moments_exact_to_1e12(self, beta, order):
        # sum_i w_i s_i^j = B((j+1)/2, beta+1)/2 for every j < 2*order,
        # relative to the moment, which at beta = 4, j = 511 is ~1e-11
        # of the mass: small weights near s = 1 must be accurate
        rule = make_radial_rule(beta, order)
        j = np.arange(2 * order)
        got = np.sum(rule.weights * rule.nodes ** j[:, None], axis=1)
        with mp.workdps(30):
            exact = np.array([float(mp.beta(mp.mpf(int(i) + 1) / 2,
                                            mp.mpf(beta) + 1) / 2) for i in j])
        assert np.max(np.abs(got - exact) / exact) <= 1e-12

    def test_cached_identity(self):
        assert make_radial_rule(0.25, 8) is make_radial_rule(0.25, 8)


class TestSphereRule:
    def test_dimension_one(self):
        rule = SphereRule(1, 5)
        assert sorted(rule.directions[:, 0].tolist()) == [-1.0, 1.0]
        assert np.allclose(rule.weights, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_total_measure(self, n):
        rule = SphereRule(n, 16)
        assert np.sum(rule.weights) == pytest.approx(sphere_area_const(n),
                                                     rel=1e-12)

    def test_second_moment_n3(self):
        rule = SphereRule(3, 8)
        val = float(np.sum(rule.weights * rule.directions[:, 0] ** 2))
        assert val == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_unsupported_dimension(self):
        with pytest.raises(DomainError):
            SphereRule(4, 8).directions
        with pytest.raises(DomainError):
            SphereRule(3, 0)

    def test_directions_built_on_first_access(self):
        rule = SphereRule(4, 8)  # no directions needed yet
        with pytest.raises(DomainError):
            rule.weights
        with pytest.raises(DomainError):
            SphereRule(3, 0)


class TestSphereMean:
    def test_constant_field(self):
        const = PolynomialField({(0, 0, 0): 2.5}, 3)
        assert mean(const, np.zeros(3), 1.7) == pytest.approx(2.5)

    def test_harmonic_mean_value(self):
        lin = PolynomialField({(1, 0, 0): 1.0}, 3)
        x = np.array([0.4, -1.0, 2.0])
        assert mean(lin, x, 0.9) == pytest.approx(0.4, abs=1e-13)

    def test_plane_wave_mean(self):
        # mean of cos(k.xi) over S(0, r) in R^3 is sin(|k| r)/(|k| r)
        k = np.array([0.3, -1.1, 0.7])
        pw = PlaneWaveField(k)
        kabs = np.linalg.norm(k)
        for r in (0.5, 1.3, 2.0):
            assert mean(pw, np.zeros(3), r) == pytest.approx(
                math.sin(kabs * r) / (kabs * r), abs=1e-12)

    def test_small_radius_limit(self):
        pw = PlaneWaveField(np.array([1.0, 0.5, -0.2]))
        x = np.array([0.1, 0.2, 0.3])
        f0 = pw.eval(x[None, :])[0]
        e1 = abs(mean(pw, x, 1e-2) - f0)
        e2 = abs(mean(pw, x, 5e-3) - f0)
        assert e2 <= 0.3 * e1  # O(r^2)

    def test_vectorised_matches_scalar(self):
        pw = PlaneWaveField(np.array([0.7, -0.4]))
        x = np.array([0.3, 0.8])
        radii = np.array([0.2, 0.9, 1.6])
        many = sphere_means_many(pw, x, radii)
        for r, v in zip(radii, many):
            assert v == pytest.approx(mean(pw, x, float(r)))


class TestBallKernelIntegral:
    def test_constant_field_beta_integral(self):
        # f = 1, lam = 0, beta = alpha-1, n = 3:
        #   omega_3 t^{2 alpha + 1} B(alpha, 3/2)/2
        alpha = 0.8
        radial = make_radial_rule(alpha - 1.0, 32)
        const = PolynomialField({(0, 0, 0): 1.0}, 3)
        t = 1.4
        val = ball(const, np.zeros(3), t, alpha - 1.0, 0.0, radial,
                   SphereRule(3, 8))
        exact = (sphere_area_const(3) * t ** (2.0 * alpha + 1.0)
                 * beta_fn(alpha, 1.5) / 2.0)
        assert val == pytest.approx(exact, rel=1e-12)

    def test_odd_field_cancels(self):
        radial = make_radial_rule(0.5, 16)
        x = np.array([0.7, -0.3, 1.1])
        odd = PolynomialField({(1, 0, 0): 1.0, (0, 0, 0): -0.7}, 3)
        # xi_1 - x_1 is odd about x; shift the constant so the field is odd
        val = ball(odd, x, 1.0, 0.5, 0.0, radial, SphereRule(3, 8))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_linearity(self):
        radial = make_radial_rule(-0.2, 24)
        sphere = SphereRule(2, 12)
        f = PlaneWaveField(np.array([0.9, -0.3]))
        g = PlaneWaveField(np.array([0.2, 0.8]), phase=0.5)
        x = np.array([0.1, -0.4])
        ts = np.array([0.7, 1.9])
        combo = FieldSum([(2.0, 0, f), (-0.5, 0, g)])
        vc, vf, vg = (ball_kernel_integral_many(h, x, ts, -0.2, -0.2, 0.8,
                                                radial, sphere)
                      for h in (combo, f, g))
        assert np.max(np.abs(vc - (2.0 * vf - 0.5 * vg))) <= 1e-13 * max(
            1.0, np.max(np.abs(vc)))

    def test_order_doubling_converged(self):
        f = PlaneWaveField(np.array([0.6, -0.5, 0.3]))
        x = np.array([0.2, 0.1, -0.3])
        vals = [ball(f, x, 2.0, -0.25, 1.0, make_radial_rule(-0.25, order),
                     SphereRule(3, 16))
                for order in (24, 48)]
        assert abs(vals[1] - vals[0]) <= 1e-10 * max(1.0, abs(vals[1]))

    def test_rule_mismatch(self):
        radial = make_radial_rule(0.3, 8)
        with pytest.raises(ContractError):
            ball(PlaneWaveField(np.ones(2)), np.zeros(2), 1.0, 0.4, 0.0,
                 radial, SphereRule(2, 8))

    @pytest.mark.parametrize("field", [
        PlaneWaveField(np.array([0.6, -0.5, 0.3]), phase=0.2),
        GaussianField(1.2, np.array([0.1, -0.2, 0.0]), amplitude=0.7),
        PolynomialField({(2, 0, 1): 0.4, (0, 1, 0): -1.0, (0, 0, 0): 0.3}, 3),
    ])
    def test_closed_form_matches_direction_rule(self, field):
        radial = make_radial_rule(-0.25, 32)
        sphere = SphereRule(3, 24)
        x = np.array([0.2, 0.1, -0.3])
        ts = np.array([0.4, 1.3, 2.1])
        exact = ball_kernel_integral_many(field, x, ts, -0.25, -0.25, 0.9,
                                          radial, sphere)
        quad = ball_kernel_integral_many(DirectionRuleMeans(field, 24), x, ts,
                                         -0.25, -0.25, 0.9, radial, sphere)
        assert np.max(np.abs(exact - quad)) <= 1e-12 * max(
            1.0, np.max(np.abs(quad)))

    def test_closed_form_needs_no_direction_rule(self):
        # n = 4 has no direction rule; closed-form means do not need one
        radial = make_radial_rule(0.5, 16)
        f = PolynomialField({(0, 0, 0, 0): 2.0}, 4)
        val = ball(f, np.zeros(4), 1.2, 0.5, 0.0, radial, SphereRule(4, 8))
        exact = (2.0 * sphere_area_const(4) * 1.2 ** 5.0
                 * beta_fn(2.0, 1.5) / 2.0)
        assert val == pytest.approx(exact, rel=1e-12)

    def test_nonpositive_t(self):
        radial = make_radial_rule(0.3, 8)
        with pytest.raises(DomainError):
            ball(PlaneWaveField(np.ones(2)), np.zeros(2), 0.0, 0.3, 0.0,
                 radial, SphereRule(2, 8))
