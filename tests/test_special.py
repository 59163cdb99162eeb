import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from besselwave.errors import AccuracyError, DomainError
import besselwave.special as special_mod
from besselwave.special import (MAX_ARGUMENT, SERIES_CUTOFF, _hyp0f1,
                                _poisson_rule, bessel_clifford,
                                double_factorial_odd, pochhammer, rgamma,
                                sphere_area_const)


def _jbar_reference(nu, z):
    """jbar(nu, z) = 0F1(; nu+1; -z^2/4) in 30-digit arithmetic."""
    with mp.workdps(30):
        return float(mp.hyp0f1(mp.mpf(nu) + 1, -(mp.mpf(float(z)) / 2) ** 2))


def _kernel_bound(z):
    # series branch: cancellation leaves ~eps x the largest term (~1e4 at
    # nu = -0.9, |z| = 8); jv branch: scaled J_nu
    return 2e-12 if abs(z) <= SERIES_CUTOFF else 1e-12


class TestBesselClifford:
    def test_value_at_zero_is_one(self):
        for nu in (-0.4, 0.0, 0.7, 2.0, 5.5):
            assert bessel_clifford(nu, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_order_identities(self):
        # jbar(-1/2, z) = cos z and jbar(1/2, z) = sin(z)/z
        assert bessel_clifford(-0.5, math.pi) == pytest.approx(-1.0, abs=1e-13)
        assert bessel_clifford(0.5, math.pi) == pytest.approx(0.0, abs=1e-13)
        z = np.linspace(-20.0, 20.0, 401)
        assert np.max(np.abs(bessel_clifford(-0.5, z) - np.cos(z))) <= 1e-12
        z = z[np.abs(z) > 1e-3]
        assert np.max(np.abs(bessel_clifford(0.5, z) - np.sin(z) / z)) <= 1e-12

    def test_defining_ode_residual_order(self):
        # y = jbar(nu, mu t) solves y'' + ((2 nu + 1)/t) y' + mu^2 y = 0
        mu = 1.4
        for nu in (-0.4, 0.0, 0.7, 2.0):
            for t in (0.5, 3.0, 11.0):
                res = []
                hs = (4e-3, 2e-3, 1e-3)
                for h in hs:
                    yp = bessel_clifford(nu, mu * (t + h))
                    ym = bessel_clifford(nu, mu * (t - h))
                    y0 = bessel_clifford(nu, mu * t)
                    r = ((yp - 2.0 * y0 + ym) / h ** 2
                         + (2.0 * nu + 1.0) / t * (yp - ym) / (2.0 * h)
                         + mu ** 2 * y0)
                    res.append(abs(r))
                order = np.polyfit(np.log(hs), np.log(res), 1)[0]
                assert 1.7 <= order <= 2.3

    def test_order_domain(self):
        with pytest.raises(DomainError):
            bessel_clifford(-1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_clifford(-1.5, 1.0)

    def test_argument_range_guard(self):
        with pytest.raises(AccuracyError):
            bessel_clifford(0.0, 51.0)

    def test_max_terms_exhaustion(self, monkeypatch):
        monkeypatch.setattr(special_mod, "_MAX_TERMS", 3)
        with pytest.raises(AccuracyError):
            bessel_clifford(0.0, 5.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf,
                                   np.array([0.5, math.nan, 3.0])])
    def test_non_finite_argument(self, z):
        with pytest.raises(DomainError):
            bessel_clifford(0.5, z)

    def test_non_finite_order(self):
        for nu in (math.nan, math.inf):
            with pytest.raises(DomainError):
                bessel_clifford(nu, 1.0)

    @settings(max_examples=80, deadline=None)
    @given(nu=st.floats(-0.9, 4.0),
           zs=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6))
    @example(nu=-0.9, zs=[SERIES_CUTOFF, np.nextafter(SERIES_CUTOFF, 9.0),
                          7.9, 0.0, 1e-9])
    @example(nu=4.0, zs=[50.0, -8.0, 3.0])
    def test_matches_hyp0f1(self, nu, zs):
        # one array mixes both branches, and the series term count comes
        # from its largest |z|
        got = bessel_clifford(nu, np.array(zs))
        for z, value in zip(zs, got):
            assert abs(value - _jbar_reference(nu, z)) <= _kernel_bound(z)
        assert bessel_clifford(nu, zs[0]) == got[0]

    @pytest.mark.xfail(strict=True, reason=(
        "as nu -> -1, jbar and its largest series term grow like 1/(nu+1), "
        "so both branches miss the absolute bound (about 9e-11 series, "
        "1.5e-10 jv at nu = -0.999)"))
    def test_matches_hyp0f1_near_order_minus_one(self):
        nu = -0.999
        zs = np.linspace(0.0, 50.0, 501)
        got = bessel_clifford(nu, zs)
        errors = [abs(v - _jbar_reference(nu, z)) - _kernel_bound(z)
                  for z, v in zip(zs, got)]
        assert max(errors) <= 0.0

    def test_explicit_params_force_the_series(self):
        # the series core called explicitly past the cutoff loses digits to
        # cancellation (largest term ~1e3 at |z| = 12) but stays far inside
        # 1e-11
        z = np.linspace(8.0, 12.0, 9)
        got = _hyp0f1(0.3, -0.25 * z * z)
        for zi, value in zip(z, got):
            assert abs(value - _jbar_reference(0.3, zi)) <= 1e-11

    @pytest.mark.parametrize("nu", [-0.7, 0.0, 0.5, 2.5])
    def test_rows_are_lone_calls(self, nu):
        # with rows, each row of a batch gets the bits a call on that row
        # alone gives; a term count shared by the batch changes about 5 in
        # 10^4 values in the last bit, so 6000 values show it
        rng = np.random.default_rng(7)
        z = rng.uniform(-12.0, 12.0, (300, 20)) * rng.uniform(0.0, 1.0, (300, 1))
        batched = bessel_clifford(nu, z, rows=True)
        for p in range(len(z)):
            assert np.array_equal(batched[p], bessel_clifford(nu, z[p]))


class TestPochhammer:
    def test_examples(self):
        assert pochhammer(7.3, 0) == 1.0
        assert pochhammer(0.5, 2) == pytest.approx(0.75, rel=1e-15)
        assert pochhammer(1.0, 5) == pytest.approx(120.0, rel=1e-15)

    @given(st.floats(-5, 5, allow_nan=False), st.integers(0, 12))
    def test_recurrence(self, x, k):
        assert pochhammer(x, k + 1) == pytest.approx(
            pochhammer(x, k) * (x + k), rel=1e-12, abs=1e-12)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)


class TestDoubleFactorial:
    def test_examples(self):
        assert double_factorial_odd(0) == 1
        assert double_factorial_odd(1) == 1
        assert double_factorial_odd(3) == 15
        assert double_factorial_odd(5) == 945

    def test_guards(self):
        with pytest.raises(DomainError):
            double_factorial_odd(-1)
        with pytest.raises(DomainError):
            double_factorial_odd(151)


class TestSphereArea:
    def test_known_dimensions(self):
        assert sphere_area_const(1) == pytest.approx(2.0, rel=1e-14)
        assert sphere_area_const(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
        assert sphere_area_const(3) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            sphere_area_const(0)


_NEAR_MINUS_HALF = float(np.nextafter(-0.5, 0.0))


class TestPoissonBranch:
    """jbar for SERIES_CUTOFF < |z| <= MAX_ARGUMENT: the Poisson-integral
    rule above nu = -1/2, its derivative form at and below."""

    @pytest.mark.parametrize("nu", [-0.9, -0.75, -0.5, _NEAR_MINUS_HALF,
                                    -0.3, 0.0, 0.5, 1.0, 2.5, 5.0, 9.0])
    def test_grid_matches_hyp0f1(self, nu):
        zs = np.linspace(np.nextafter(SERIES_CUTOFF, 9.0), MAX_ARGUMENT, 43)
        got = bessel_clifford(nu, zs)
        for z, value in zip(zs, got):
            assert abs(value - _jbar_reference(nu, z)) <= _kernel_bound(z)

    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(-0.9, 9.0),
           zs=st.lists(st.floats(SERIES_CUTOFF, MAX_ARGUMENT,
                                 exclude_min=True), min_size=1, max_size=6))
    @example(nu=-0.5, zs=[MAX_ARGUMENT, 8.5, 31.0])
    @example(nu=_NEAR_MINUS_HALF, zs=[MAX_ARGUMENT, 8.5, 31.0])
    @example(nu=-0.9, zs=[MAX_ARGUMENT, -MAX_ARGUMENT, 49.9])
    def test_matches_hyp0f1(self, nu, zs):
        got = bessel_clifford(nu, np.array(zs))
        for z, value in zip(zs, got):
            assert abs(value - _jbar_reference(nu, z)) <= _kernel_bound(z)
        assert bessel_clifford(nu, zs[-1]) == got[-1]

    @pytest.mark.parametrize("nu", [_NEAR_MINUS_HALF, -0.3, 0.0, 1.0, 9.0])
    def test_rule_moments(self, nu):
        # the 32-node rule in u = s^2 is exact for u^j, j < 64:
        # sum w s^(2j) = (1/2)_j / (nu+1)_j.  The bound is absolute, as the
        # kernel uses the rule: it sums w times a cosine bounded by 1.
        s, w = _poisson_rule(nu)
        assert s.size == 32 and abs(w.sum() - 1.0) <= 1e-15
        assert np.all((s > 0.0) & (s <= 1.0)) and np.all(w >= 0.0)
        for j in range(64):
            exact = float(mp.rf(0.5, j) / mp.rf(mp.mpf(nu) + 1, j))
            assert abs(np.sum(w * s ** (2 * j)) - exact) <= 2e-15


class TestRgamma:
    def test_poles_and_overflow_are_zero(self):
        for x in (0.0, -0.0, -1.0, -7.0, 171.7, 1e300, 1e-310):
            assert rgamma(x) == 0.0

    @pytest.mark.parametrize("x", [1e-8, 0.5, 1.0, 3.25, 100.5, -0.5, -2.5])
    def test_matches_reciprocal_gamma(self, x):
        assert rgamma(x) == pytest.approx(float(mp.rgamma(x)), rel=1e-14)
