import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import besselwave.fields as fields_mod
from besselwave.errors import CapabilityError, DomainError
from besselwave.fields import (FieldSum, GaussianField, PlaneWaveField,
                               PolynomialField, SineProductField, SmoothField,
                               build_psi_star_data, build_transformed_data,
                               coefficient_a, iterated_laplacian,
                               psi_star_from_psi, zero_field)
from besselwave.quadrature import make_sphere_rule, sphere_means_many
from besselwave.special import sphere_area_const


def fd_laplacian(f, x, h):
    x = np.asarray(x, dtype=float)
    n = x.size
    total = -2.0 * n * f.eval(x[None, :])[0]
    for d in range(n):
        for s in (1.0, -1.0):
            xp = x.copy()
            xp[d] += s * h
            total += f.eval(xp[None, :])[0]
    return total / h ** 2


class TestFieldFamilies:
    def test_plane_wave_eigen(self):
        k = np.array([0.6, -0.5, 0.2])
        pw = PlaneWaveField(k, phase=0.3, amplitude=1.5)
        x = np.array([0.4, 0.1, -0.7])
        v0 = 1.5 * math.cos(float(k @ x) + 0.3)
        assert iterated_laplacian(pw, x, 0) == pytest.approx(v0, rel=1e-14)
        k4 = float(k @ k) ** 2
        assert iterated_laplacian(pw, x, 2) == pytest.approx(k4 * v0, rel=1e-13)

    def test_sine_product_eigen(self):
        k = np.array([1.1, 0.4])
        f = SineProductField(k, amplitude=0.7)
        x = np.array([0.9, -0.6])
        v0 = 0.7 * math.sin(1.1 * 0.9) * math.sin(0.4 * -0.6)
        assert iterated_laplacian(f, x, 0) == pytest.approx(v0, rel=1e-13)
        assert iterated_laplacian(f, x, 1) == pytest.approx(
            f.eigenvalue * v0, rel=1e-13)

    def test_polynomial_radius_squared(self):
        # |x|^2 in R^3: Laplacian is 6, then 0
        f = PolynomialField({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}, 3)
        x = np.array([0.3, -1.2, 0.5])
        assert iterated_laplacian(f, x, 1) == pytest.approx(6.0, rel=1e-14)
        assert iterated_laplacian(f, x, 2) == 0.0

    def test_polynomial_bad_index(self):
        with pytest.raises(DomainError):
            PolynomialField({(1, 2): 1.0}, 3)

    def test_gaussian_laplacian_matches_fd(self):
        g = GaussianField(0.8, np.array([0.2, -0.1]), amplitude=2.0)
        x = np.array([0.7, 0.4])
        exact = iterated_laplacian(g, x, 1)
        e1 = abs(fd_laplacian(g, x, 1e-3) - exact)
        e2 = abs(fd_laplacian(g, x, 5e-4) - exact)
        assert e2 <= 0.3 * e1 + 1e-12

    def test_gaussian_order_cap(self):
        g = GaussianField(1.0, np.zeros(2))
        with pytest.raises(CapabilityError):
            iterated_laplacian(g, np.zeros(2), 4)

    def test_gaussian_width_guard(self):
        with pytest.raises(DomainError):
            GaussianField(0.0, np.zeros(2))

    def test_negative_laplacian_order(self):
        with pytest.raises(DomainError):
            iterated_laplacian(PlaneWaveField(np.ones(2)), np.zeros(2), -1)


class TestFieldSum:
    def test_combination_and_scaling(self):
        pw = PlaneWaveField(np.array([0.5, 0.5]))
        poly = PolynomialField({(2, 0): 1.0}, 2)
        fs = FieldSum([(2.0, 0, pw), (-1.0, 1, poly)])
        x = np.array([[0.3, 0.4]])
        expected = 2.0 * pw.eval(x) - poly.eval(x, 1)
        assert fs.eval(x)[0] == pytest.approx(expected[0], rel=1e-14)
        assert fs.scaled(0.5).eval(x)[0] == pytest.approx(0.5 * expected[0],
                                                          rel=1e-14)

    def test_zero_field(self):
        z = zero_field(3)
        assert z.eval(np.zeros((4, 3))).tolist() == [0.0] * 4
        assert not z.terms


def _vectors(n, bound):
    return st.lists(st.floats(-bound, bound), min_size=n,
                    max_size=n).map(np.array)


def _fields(n):
    """Every shipped family, with its highest supported Laplacian order 3
    (polynomials of degree <= 4 per variable are zeroed by higher ones)."""
    amplitude = st.floats(0.5, 2.0)
    return st.one_of(
        st.builds(PlaneWaveField, _vectors(n, 1.5),
                  phase=st.floats(0.0, 2.0 * math.pi), amplitude=amplitude),
        st.builds(SineProductField, _vectors(n, 1.5), amplitude=amplitude),
        st.builds(GaussianField, st.floats(0.05, 2.0), _vectors(n, 1.0),
                  amplitude=amplitude),
        st.dictionaries(st.tuples(*[st.integers(0, 4)] * n),
                        st.floats(-2.0, 2.0), min_size=1, max_size=5)
        .map(lambda c: PolynomialField(c, n)))


def _quadrature_means(f, x, radii, lap):
    """High-order direction-rule means of Laplacian^lap f, with the largest
    integrand magnitude on each sphere as the scale of the error."""
    n = x.size
    rule = make_sphere_rule(n, 48)
    pts = x[None, None, :] + radii[:, None, None] * rule.directions[None]
    vals = f.eval(pts.reshape(-1, n), lap).reshape(radii.size, -1)
    return vals @ rule.weights / sphere_area_const(n), np.max(np.abs(vals), axis=1)


class TestSphereMean:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.sampled_from([2, 3]),
           lap=st.integers(0, 3), at_centre=st.booleans(),
           radii=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=4))
    def test_closed_form_matches_quadrature(self, data, n, lap, at_centre,
                                            radii):
        f = data.draw(_fields(n))
        x = data.draw(_vectors(n, 1.0))
        if at_centre and isinstance(f, GaussianField):
            x = f.center.copy()  # d = 0
        radii = np.array([0.0, 1e-7] + radii)
        exact = f.sphere_mean(x, radii, lap)
        ref, scale = _quadrature_means(f, x, radii, lap)
        assert exact.shape == radii.shape
        assert np.all(np.abs(exact - ref) <= 1e-12 * np.maximum(scale, 1e-300))

    def test_zero_radius_is_centre_value(self):
        x = np.array([0.3, -0.1, 0.5])
        for f in (PlaneWaveField(np.array([0.4, 1.0, -0.3]), phase=0.2),
                  GaussianField(1.3, np.array([0.1, 0.0, 0.2])),
                  PolynomialField({(2, 1, 0): 1.5, (0, 0, 4): -0.5}, 3)):
            for lap in range(3):
                assert f.sphere_mean(x, np.array([0.0]), lap)[0] == \
                    pytest.approx(iterated_laplacian(f, x, lap), rel=1e-14)

    def test_gaussian_far_from_centre_has_no_closed_form(self):
        # exp(-a d^2) underflows: the mean is left to the quadrature
        g = GaussianField(2.0, np.zeros(2))
        assert g.sphere_mean(np.array([30.0, 0.0]), np.array([1.0])) is None

    def test_field_sum_combines_terms(self):
        pw = PlaneWaveField(np.array([0.5, -0.9]), phase=0.3)
        g = GaussianField(0.7, np.array([0.1, 0.2]))
        fs = FieldSum([(2.0, 1, pw), (-0.5, 0, g)])
        x, radii = np.array([0.4, -0.3]), np.array([0.2, 1.1])
        expected = (2.0 * pw.sphere_mean(x, radii, 1)
                    - 0.5 * g.sphere_mean(x, radii))
        assert np.allclose(fs.sphere_mean(x, radii), expected, rtol=1e-15,
                           atol=0)

    def test_field_sum_without_closed_form_falls_back(self):
        class Opaque(SmoothField):  # no sphere_mean: only eval is known
            dimension = 3

            def eval(self, points, lap=0):
                points = np.atleast_2d(points)
                return np.exp(points[:, 0]) * np.cos(points[:, 1])

        pw = PlaneWaveField(np.array([0.6, -0.5, 0.2]))
        fs = FieldSum([(1.5, 0, pw), (0.5, 0, Opaque())])
        x, radii = np.array([0.2, 0.1, -0.3]), np.array([0.3, 0.8, 1.4])
        assert fs.sphere_mean(x, radii) is None
        rule = make_sphere_rule(3, 24)
        means = sphere_means_many(fs, x, radii, rule)
        ref, scale = _quadrature_means(fs, x, radii, 0)
        assert np.all(np.abs(means - ref) <= 1e-12 * scale)
        # the closed-form part alone agrees with its quadrature too
        split = (1.5 * pw.sphere_mean(x, radii)
                 + 0.5 * sphere_means_many(Opaque(), x, radii, rule))
        assert np.allclose(means, split, rtol=1e-12, atol=1e-14)

    def _term_by_term(self, fs, x, radii, lap):
        terms = [c * f.sphere_mean(x, radii, lap + s) for c, s, f in fs.terms]
        return np.sum(terms, axis=0), np.sum(np.abs(terms), axis=0)

    @pytest.mark.parametrize("lap", [0, 1, 2])
    def test_field_sum_merges_eigenfield_terms(self, monkeypatch, lap):
        # the acceptance-03 reduced data: f[1] holds phi0 twice
        phi0 = PlaneWaveField(np.array([0.6, -0.5, 0.6244997998398398]))
        phi1 = PlaneWaveField(np.array([0.2, 0.3, -0.1]), phase=0.4,
                              amplitude=0.8)
        g = GaussianField(0.7, np.array([0.1, -0.2, 0.0]))
        data = build_transformed_data([phi0, phi1], [], 2, 0.5, 0.75)
        x, radii = np.array([0.3, -0.2, 0.45]), np.linspace(0.0, 2.5, 11)
        for fs in (data.f[1], FieldSum([(1.5, 0, phi0), (-0.5, 0, g),
                                        (2.0, 1, phi0), (0.3, 2, phi0)])):
            expected, scale = self._term_by_term(fs, x, radii, lap)
            assert np.all(np.abs(fs.sphere_mean(x, radii, lap) - expected)
                          <= 1e-14 * scale)

        calls = []
        kernel = fields_mod.bessel_clifford
        monkeypatch.setattr(fields_mod, "bessel_clifford",
                            lambda *a, **k: calls.append(a) or kernel(*a, **k))
        data.f[1].sphere_mean(x, radii, lap)
        assert len(calls) == 2  # one per base eigenfield, phi0 and phi1

    def test_nested_field_sums_are_flattened(self, monkeypatch):
        # the psi route's reduced data nests FieldSums three deep
        pw0 = PlaneWaveField(np.array([0.6, -0.5, 0.6244997998398398]))
        pw1 = PlaneWaveField(np.array([0.2, 0.3, -0.1]), phase=0.4,
                             amplitude=0.8)
        alpha = 0.3
        data = build_psi_star_data(psi_star_from_psi([pw0, pw1], 2, alpha),
                                   2, 0.5, alpha)
        fs = data.f[1]
        assert all(not isinstance(f, FieldSum) for _, _, f in fs.terms)
        nested = FieldSum([(2.0, 1, FieldSum([(0.5, 1, pw0), (3.0, 0, pw1)]))])
        assert nested.terms == [(1.0, 2, pw0), (6.0, 1, pw1)]

        x, radii = np.array([0.3, -0.2, 0.45]), np.linspace(0.0, 2.5, 11)
        expected, scale = self._term_by_term(fs, x, radii, 0)
        calls = []
        kernel = fields_mod.bessel_clifford
        monkeypatch.setattr(fields_mod, "bessel_clifford",
                            lambda *a, **k: calls.append(a) or kernel(*a, **k))
        assert np.all(np.abs(fs.sphere_mean(x, radii) - expected)
                      <= 1e-14 * scale)
        assert len(calls) == 2  # one per base eigenfield, pw0 and pw1


class TestDampedIbar:
    @settings(max_examples=80, deadline=None)
    @given(mu=st.floats(-1.0, 4.0, exclude_min=True),
           a=st.floats(0.01, 2.0), d=st.floats(0.0, 3.0),
           radii=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=5))
    def test_matches_hyp0f1(self, mu, a, d, radii):
        # the arguments GaussianField.sphere_mean passes: z = 2 a d r,
        # damp = a r^2; z spans the series branch and the scaled-I_nu one
        r = np.array(radii)
        z, damp = 2.0 * a * d * r, a * r * r
        got = fields_mod._damped_ibar(mu, z, damp)
        with mp.workdps(30):
            for zi, di, value in zip(z, damp, got):
                ref = mp.exp(-mp.mpf(di)) * mp.hyp0f1(mp.mpf(mu) + 1,
                                                      (mp.mpf(zi) / 2) ** 2)
                assert abs(value - float(ref)) <= 1e-13 * float(ref)


class TestCoefficientA:
    def test_examples(self):
        assert coefficient_a(0, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert coefficient_a(1, 1.0) == pytest.approx(1.5, rel=1e-14)
        assert coefficient_a(0, 1e-8) == pytest.approx(1.0, rel=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            coefficient_a(0, 0.0)
        with pytest.raises(DomainError):
            coefficient_a(-1, 1.0)


class TestTransformedData:
    def test_m1_passthrough(self):
        pw = PlaneWaveField(np.array([1.0, 0.0]))
        data = build_transformed_data([pw], [], 1, 0.7, 0.9)
        x = np.array([[0.4, -0.2]])
        a0 = coefficient_a(0, 0.9)
        assert data.capital_phi[0].eval(x)[0] == pytest.approx(
            a0 * pw.eval(x)[0], rel=1e-14)
        # f_0 = Phi_0 identically
        assert data.f[0].eval(x)[0] == pytest.approx(
            data.capital_phi[0].eval(x)[0], rel=1e-14)
        assert data.g[0].eval(x)[0] == 0.0

    def test_lambda_zero_diagonal(self):
        pw0 = PlaneWaveField(np.array([1.0, 0.0]))
        pw1 = PlaneWaveField(np.array([0.0, 1.0]), phase=0.2)
        alpha = 0.6
        data = build_transformed_data([pw0, pw1], [], 2, 0.0, alpha)
        x = np.array([[0.3, 0.9]])
        # lam = 0 kills all j < k terms: Phi_k = a_k phi_k
        assert data.capital_phi[1].eval(x)[0] == pytest.approx(
            coefficient_a(1, alpha) * pw1.eval(x)[0], rel=1e-13)

    def test_reduced_data_eigenfield(self):
        # single-mode data: f_1 = Phi_1 - Laplacian Phi_0 = Phi_1 + |k|^2 Phi_0
        k = np.array([0.6, -0.5, 0.2])
        pw = PlaneWaveField(k)
        alpha, lam = 0.75, 0.5
        data = build_transformed_data([pw, pw], [], 2, lam, alpha)
        x = np.array([[0.2, 0.4, -0.1]])
        p0 = data.capital_phi[0].eval(x)[0]
        p1 = data.capital_phi[1].eval(x)[0]
        kk = float(k @ k)
        assert data.f[1].eval(x)[0] == pytest.approx(p1 + kk * p0, rel=1e-13)

    def test_linearity_in_phi(self):
        pw = PlaneWaveField(np.array([0.8, 0.1]))
        x = np.array([[0.5, 0.5]])
        d1 = build_transformed_data([pw, pw], [], 2, 0.4, 0.7)
        scaled = FieldSum([(3.0, 0, pw)])
        d3 = build_transformed_data([scaled, scaled], [], 2, 0.4, 0.7)
        for k in range(2):
            assert d3.f[k].eval(x)[0] == pytest.approx(
                3.0 * d1.f[k].eval(x)[0], rel=1e-13)

    def test_length_mismatch(self):
        pw = PlaneWaveField(np.ones(2))
        with pytest.raises(DomainError):
            build_transformed_data([pw], [], 2, 0.0, 0.5)


class TestPsiData:
    def test_condition_map_identity_at_k0(self):
        pw = PlaneWaveField(np.ones(2))
        out = psi_star_from_psi([pw], 1, 0.2)
        x = np.array([[0.1, 0.7]])
        assert out[0].eval(x)[0] == pytest.approx(pw.eval(x)[0], rel=1e-14)

    def test_condition_map_scaling(self):
        pw = PlaneWaveField(np.ones(2))
        alpha = 0.2
        out = psi_star_from_psi([pw, pw], 2, alpha)
        x = np.array([[0.1, 0.7]])
        assert out[1].eval(x)[0] == pytest.approx(
            pw.eval(x)[0] / (1.0 - alpha), rel=1e-13)

    def test_condition_map_degenerate(self):
        pw = PlaneWaveField(np.ones(2))
        with pytest.raises(DomainError):
            psi_star_from_psi([pw, pw], 2, 1.0)

    def test_out_of_window_warning(self):
        pw = PlaneWaveField(np.ones(2))
        data = build_psi_star_data([pw], 1, 0.0, 0.8)
        assert data.warnings
        data = build_psi_star_data([pw], 1, 0.0, 0.2)
        assert not data.warnings


class TestDampedIbarBothBranches:
    """_damped_ibar across the series / Hankel switch at z = 40.

    GaussianField.sphere_mean passes z = 2 a d r and damp = a r^2, so with
    q = a d^2 the pairs are (z, z^2 / (4 q)) and exp(z - damp) <= exp(q);
    q <= 700 keeps every result finite.  The bound is relative wherever the
    result is a normal float.
    """

    @settings(max_examples=60, deadline=None)
    @given(mu=st.floats(-0.5, 8.0), q=st.floats(1e-3, 700.0),
           zs=st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=6))
    @example(mu=0.0, q=700.0, zs=[float(np.nextafter(40.0, 0.0)), 40.0, 4999.0])
    @example(mu=8.0, q=20.0, zs=[39.0, 41.0])
    @example(mu=1.5, q=300.0, zs=[0.0, 5000.0])
    # damp ~ 720 with z just below 40: exp(-damp) alone is subnormal
    @example(mu=-0.5, q=0.55, zs=[39.9, 39.0])
    def test_matches_hyp0f1(self, mu, q, zs):
        z = np.array(zs)
        damp = z * z / (4.0 * q)
        got = fields_mod._damped_ibar(mu, z, damp)
        with mp.workdps(30):
            for zi, di, value in zip(z, damp, got):
                ref = float(mp.exp(-mp.mpf(di))
                            * mp.hyp0f1(mp.mpf(mu) + 1, (mp.mpf(zi) / 2) ** 2))
                assert abs(value - ref) <= max(1e-13 * ref,
                                               np.finfo(float).tiny)

    def test_switch_is_continuous(self):
        # the two branches agree to roundoff on either side of the switch
        z = np.array([np.nextafter(40.0, 0.0), 40.0])
        for mu in (-0.5, 0.0, 0.5, 2.0, 8.0):
            below, above = fields_mod._damped_ibar(mu, z, z)
            assert abs(below - above) <= 1e-14 * above
