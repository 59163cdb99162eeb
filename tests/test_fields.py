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
                               coefficient_a, psi_star_from_psi, zero_field)
from besselwave.quadrature import SphereRule
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
        assert pw.eval(x[None, :], 0)[0] == pytest.approx(v0, rel=1e-14)
        k4 = float(k @ k) ** 2
        assert pw.eval(x[None, :], 2)[0] == pytest.approx(k4 * v0, rel=1e-13)

    def test_sine_product_eigen(self):
        k = np.array([1.1, 0.4])
        f = SineProductField(k, amplitude=0.7)
        x = np.array([0.9, -0.6])
        v0 = 0.7 * math.sin(1.1 * 0.9) * math.sin(0.4 * -0.6)
        assert f.eval(x[None, :], 0)[0] == pytest.approx(v0, rel=1e-13)
        assert f.eval(x[None, :], 1)[0] == pytest.approx(
            f.eigenvalue * v0, rel=1e-13)

    def test_polynomial_radius_squared(self):
        # |x|^2 in R^3: Laplacian is 6, then 0
        f = PolynomialField({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0}, 3)
        x = np.array([0.3, -1.2, 0.5])
        assert f.eval(x[None, :], 1)[0] == pytest.approx(6.0, rel=1e-14)
        assert f.eval(x[None, :], 2)[0] == 0.0

    def test_polynomial_bad_index(self):
        with pytest.raises(DomainError):
            PolynomialField({(1, 2): 1.0}, 3)

    def test_gaussian_laplacian_matches_fd(self):
        g = GaussianField(0.8, np.array([0.2, -0.1]), amplitude=2.0)
        x = np.array([0.7, 0.4])
        exact = g.eval(x[None, :], 1)[0]
        e1 = abs(fd_laplacian(g, x, 1e-3) - exact)
        e2 = abs(fd_laplacian(g, x, 5e-4) - exact)
        assert e2 <= 0.3 * e1 + 1e-12

    def test_gaussian_order_cap(self):
        g = GaussianField(1.0, np.zeros(2))
        with pytest.raises(CapabilityError):
            g.eval(np.zeros((1, 2)), 4)

    def test_gaussian_width_guard(self):
        with pytest.raises(DomainError):
            GaussianField(0.0, np.zeros(2))

    def test_negative_laplacian_order(self):
        with pytest.raises(DomainError):
            PlaneWaveField(np.ones(2)).eval(np.zeros((1, 2)), -1)


class TestFieldSum:
    def test_combination_and_scaling(self):
        pw = PlaneWaveField(np.array([0.5, 0.5]))
        poly = PolynomialField({(2, 0): 1.0}, 2)
        fs = FieldSum([(2.0, 0, pw), (-1.0, 1, poly)])
        x = np.array([[0.3, 0.4]])
        expected = 2.0 * pw.eval(x) - poly.eval(x, 1)
        assert fs.eval(x)[0] == pytest.approx(expected[0], rel=1e-14)

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
    rule = SphereRule(n, 48)
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
                    pytest.approx(f.eval(x[None, :], lap)[0], rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(1e-3, 100.0), q=st.floats(0.0, 1e4),
           amplitude=st.floats(0.5, 2.0),
           offsets=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=6))
    # d = 30, a = 2: the data of TestFarGaussian in test_cli.py
    @example(a=2.0, q=1800.0, amplitude=1.0, offsets=[-0.5 / 18.87, 0.0])
    @example(a=1.0, q=0.0, amplitude=1.0, offsets=[0.0, 0.3, 1.2])
    def test_gaussian_matches_elementary_mean_n3(self, a, q, amplitude,
                                                 offsets):
        # n = 3: the mean of A exp(-a|xi-c|^2) over S(x, r), d = |x-c|, is
        #   A exp(-a(d-r)^2) (1 - exp(-4adr)) / (4adr).
        # a d^2 = q reaches 1e4 (exp(-a d^2) alone underflows from ~745);
        # radii span |d-r| <= 1.2 sqrt(745/a), across the underflow edge
        d = math.sqrt(q / a)
        g = GaussianField(a, np.array([d, 0.0, 0.0]), amplitude)
        radii = np.abs(d + np.array(offsets) * math.sqrt(745.0 / a))
        got = g.sphere_mean(np.zeros(3), radii)
        # exp(-x) is as accurate as x: one rounding of x near 700 moves it
        # by ~1e-13 relative.  `shared` takes the float64 exponent, `exact`
        # allows for its roundings
        expo = a * (d - radii) ** 2
        with mp.workdps(40):
            for r, x_rounded, value in zip(radii, expo, got):
                z = 4 * mp.mpf(a) * mp.mpf(d) * mp.mpf(r)
                ratio = -mp.expm1(-z) / z if z else mp.mpf(1)
                exact = float(amplitude * ratio * mp.exp(
                    -mp.mpf(a) * (mp.mpf(d) - mp.mpf(r)) ** 2))
                shared = float(amplitude * ratio * mp.exp(-mp.mpf(x_rounded)))
                if exact < np.finfo(float).tiny:
                    assert abs(value - exact) <= np.finfo(float).tiny
                    continue
                assert abs(value - shared) <= 1e-13 * shared
                assert abs(value - exact) <= ((1e-13 + 4.5e-16 * x_rounded)
                                              * exact)

    @pytest.mark.xfail(strict=True, reason=(
        "the lap >= 2 moment sums cancel near r = d when a d^2 is large"))
    @pytest.mark.parametrize("lap", [2, 3])
    def test_gaussian_iterated_laplacian_mean_far_from_centre(self, lap):
        # n = 3, Darboux: M[Laplacian^lap f](r) = ((1/r) d_r^2 r)^lap M[f](r)
        # = (1/r) d_r^(2 lap) (r M[f](r)), with r M[f](r) =
        # (exp(-a(d-r)^2) - exp(-a(d+r)^2)) / (4ad); a d^2 = 648
        a, d = 2.0, 18.0
        g = GaussianField(a, np.array([d, 0.0, 0.0]))
        radii = np.linspace(17.5, 18.0, 11)
        got = g.sphere_mean(np.zeros(3), radii, lap)
        with mp.workdps(60):
            A, D = mp.mpf(a), mp.mpf(d)

            def r_mean(r):
                return (mp.exp(-A * (D - r) ** 2)
                        - mp.exp(-A * (D + r) ** 2)) / (4 * A * D)
            ref = np.array([float(mp.diff(r_mean, mp.mpf(r), 2 * lap) / r)
                            for r in radii])
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    def test_field_sum_combines_terms(self):
        pw = PlaneWaveField(np.array([0.5, -0.9]), phase=0.3)
        g = GaussianField(0.7, np.array([0.1, 0.2]))
        fs = FieldSum([(2.0, 1, pw), (-0.5, 0, g)])
        x, radii = np.array([0.4, -0.3]), np.array([0.2, 1.1])
        expected = (2.0 * pw.sphere_mean(x, radii, 1)
                    - 0.5 * g.sphere_mean(x, radii))
        assert np.allclose(fs.sphere_mean(x, radii), expected, rtol=1e-15,
                           atol=0)

    def test_base_field_has_no_mean(self):
        with pytest.raises(NotImplementedError):
            SmoothField().sphere_mean(np.zeros(2), np.ones(1))

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
        data = build_transformed_data([phi0, phi1], 2, 0.5, 0.75)
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
        # the argument GaussianField.sphere_mean passes, z = 2 a d r, on
        # the series branch
        z = 2.0 * a * d * np.array(radii)
        got = fields_mod._damped_ibar(mu, z)
        with mp.workdps(30):
            for zi, value in zip(z, got):
                ref = mp.exp(-mp.mpf(zi)) * mp.hyp0f1(mp.mpf(mu) + 1,
                                                      (mp.mpf(zi) / 2) ** 2)
                assert abs(value - float(ref)) <= 1e-13 * float(ref)

    @pytest.mark.parametrize("mu, z", [(-0.49, 52.70051645149163),
                                       (-0.2723076923076923, 49.035016928760044)])
    def test_rows_are_lone_calls(self, mu, z):
        # Hankel's term count follows the smallest z of its call; one count
        # shared with a row at z = 40 moves these values by one bit
        batch = np.array([[40.0, 12.0], [z, 0.5 * z]])
        batched = fields_mod._damped_ibar(mu, batch, rows=True)
        for p in range(2):
            assert np.array_equal(batched[p],
                                  fields_mod._damped_ibar(mu, batch[p]))


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
        data = build_transformed_data([pw], 1, 0.7, 0.9)
        x = np.array([[0.4, -0.2]])
        a0 = coefficient_a(0, 0.9)
        assert data.capital_phi[0].eval(x)[0] == pytest.approx(
            a0 * pw.eval(x)[0], rel=1e-14)
        # f_0 = Phi_0 identically
        assert data.f[0].eval(x)[0] == pytest.approx(
            data.capital_phi[0].eval(x)[0], rel=1e-14)

    def test_lambda_zero_diagonal(self):
        pw0 = PlaneWaveField(np.array([1.0, 0.0]))
        pw1 = PlaneWaveField(np.array([0.0, 1.0]), phase=0.2)
        alpha = 0.6
        data = build_transformed_data([pw0, pw1], 2, 0.0, alpha)
        x = np.array([[0.3, 0.9]])
        # lam = 0 kills all j < k terms: Phi_k = a_k phi_k
        assert data.capital_phi[1].eval(x)[0] == pytest.approx(
            coefficient_a(1, alpha) * pw1.eval(x)[0], rel=1e-13)

    def test_reduced_data_eigenfield(self):
        # single-mode data: f_1 = Phi_1 - Laplacian Phi_0 = Phi_1 + |k|^2 Phi_0
        k = np.array([0.6, -0.5, 0.2])
        pw = PlaneWaveField(k)
        alpha, lam = 0.75, 0.5
        data = build_transformed_data([pw, pw], 2, lam, alpha)
        x = np.array([[0.2, 0.4, -0.1]])
        p0 = data.capital_phi[0].eval(x)[0]
        p1 = data.capital_phi[1].eval(x)[0]
        kk = float(k @ k)
        assert data.f[1].eval(x)[0] == pytest.approx(p1 + kk * p0, rel=1e-13)

    def test_linearity_in_phi(self):
        pw = PlaneWaveField(np.array([0.8, 0.1]))
        x = np.array([[0.5, 0.5]])
        d1 = build_transformed_data([pw, pw], 2, 0.4, 0.7)
        scaled = FieldSum([(3.0, 0, pw)])
        d3 = build_transformed_data([scaled, scaled], 2, 0.4, 0.7)
        for k in range(2):
            assert d3.f[k].eval(x)[0] == pytest.approx(
                3.0 * d1.f[k].eval(x)[0], rel=1e-13)

    def test_length_mismatch(self):
        pw = PlaneWaveField(np.ones(2))
        with pytest.raises(DomainError):
            build_transformed_data([pw], 2, 0.0, 0.5)


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


class TestDampedIbarBothBranches:
    """_damped_ibar across the series / Hankel switch at z = 40 and up to
    the z = 2 a d r of Gaussians far from x (a d^2 = 1e4, r ~ d).  The
    bound is relative: exp(-z) Ibar_mu(z) ~ z^(-mu-1/2) stays normal."""

    @settings(max_examples=60, deadline=None)
    @given(mu=st.floats(-0.5, 8.0),
           zs=st.lists(st.floats(0.0, 2e4), min_size=1, max_size=6))
    @example(mu=0.0, zs=[float(np.nextafter(40.0, 0.0)), 40.0, 4999.0])
    @example(mu=8.0, zs=[39.0, 41.0])
    @example(mu=1.5, zs=[0.0, 2e4])
    @example(mu=-0.5, zs=[39.9, 39.0])
    def test_matches_hyp0f1(self, mu, zs):
        z = np.array(zs)
        got = fields_mod._damped_ibar(mu, z)
        with mp.workdps(30):
            for zi, value in zip(z, got):
                ref = float(mp.exp(-mp.mpf(zi))
                            * mp.hyp0f1(mp.mpf(mu) + 1, (mp.mpf(zi) / 2) ** 2))
                assert abs(value - ref) <= 1e-13 * ref

    def test_switch_is_continuous(self):
        # the two branches agree to roundoff on either side of the switch
        z = np.array([np.nextafter(40.0, 0.0), 40.0])
        for mu in (-0.5, 0.0, 0.5, 2.0, 8.0):
            below, above = fields_mod._damped_ibar(mu, z)
            assert abs(below - above) <= 1e-14 * above
