import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from besselwave.errors import ContractError, DomainError
from besselwave.fields import (FieldSum, PlaneWaveField, TransformedData,
                               zero_field)
from besselwave.special import sphere_area_const
from besselwave.transmute import lemma1_constants
from besselwave.wave import (PolyWaveProblem, RuleSet, ball_series_constants,
                             polywave_solve_even_many, polywave_solve_odd_many,
                             radial_time_operator, time_derivative)

RULES = RuleSet()

K3 = np.array([0.6, -0.5, math.sqrt(1.0 - 0.61)])  # |K3| = 1
PW3 = PlaneWaveField(K3)
X3 = np.array([0.3, -0.2, 0.45])
TS = np.array([0.5, 1.2, 2.4])


def plain_data(f_fields, g_fields):
    m = len(f_fields)
    return TransformedData(capital_phi=f_fields, capital_psi=g_fields,
                           f=f_fields, g=g_fields, a_coeffs=[1.0] * m)


def single(field, coeff=1.0):
    return FieldSum([(coeff, 0, field)])


def wave_residual(problem, x, t, m, h, rules=RULES):
    """(d^2/dt^2 - Laplacian)^m of the computed solution by nested
    second-order stencils; independent of the solver's quadrature."""
    n = problem.n
    stencil = {(0, (0,) * n): 1.0}
    for _ in range(m):
        new = {}

        def add(key, c):
            new[key] = new.get(key, 0.0) + c

        for (it, ix), c in stencil.items():
            add((it + 1, ix), c / h ** 2)
            add((it - 1, ix), c / h ** 2)
            add((it, ix), c * (2.0 * n - 2.0) / h ** 2)
            for d in range(n):
                for step in (1, -1):
                    jx = list(ix)
                    jx[d] += step
                    add((it, tuple(jx)), -c / h ** 2)
        stencil = new
    solver = (polywave_solve_odd_many if n % 2 else polywave_solve_even_many)
    by_x = {}
    for (it, ix), c in stencil.items():
        by_x.setdefault(ix, []).append((it, c))
    total = 0.0
    for ix, entries in by_x.items():
        its = sorted({it for it, _ in entries})
        pt = x + h * np.asarray(ix, dtype=float)
        vals = solver(pt, t + h * np.asarray(its, dtype=float), problem, rules)
        lookup = dict(zip(its, vals))
        total += sum(c * lookup[it] for it, c in entries)
    return abs(total)


class TestProblemValidation:
    def test_spec_guards(self):
        data = plain_data([single(PW3)], [zero_field(3)])
        with pytest.raises(DomainError):
            PolyWaveProblem(1, 1, data)
        with pytest.raises(DomainError):
            PolyWaveProblem(3, 0, data)
        with pytest.raises(ContractError):
            PolyWaveProblem(3, 2, data)  # data length 1 != m

    def test_parity_dispatch(self):
        data = plain_data([single(PW3)], [zero_field(3)])
        prob = PolyWaveProblem(3, 1, data)
        with pytest.raises(ContractError):
            polywave_solve_even_many(X3, TS, prob, RULES)


class TestOddDimension:
    def test_kirchhoff_phi_oracle(self):
        # f_0 = cos(k.x), g_0 = 0, |k| = 1 -> cos(t) cos(k.x)
        prob = PolyWaveProblem(3, 1, plain_data([single(PW3)], [zero_field(3)]))
        u = polywave_solve_odd_many(X3, TS, prob, RULES)
        exact = np.cos(TS) * PW3.eval(X3[None, :])[0]
        assert np.max(np.abs(u - exact)) <= 1e-10

    def test_kirchhoff_psi_oracle(self):
        # g_0 = cos(k.x) -> sin(t) cos(k.x)
        prob = PolyWaveProblem(3, 1, plain_data([zero_field(3)], [single(PW3)]))
        u = polywave_solve_odd_many(X3, TS, prob, RULES)
        exact = np.sin(TS) * PW3.eval(X3[None, :])[0]
        assert np.max(np.abs(u - exact)) <= 1e-12

    def test_iterated_mode_oracle(self):
        # double wave operator, single mode: Phi_0 = v, Phi_1 = b v gives
        # U = [cos t + (b + 1) t sin(t)/2] v   (|k| = 1)
        b = 0.7
        f1 = single(PW3, b + 1.0)  # reduced data Phi_1 - Laplacian Phi_0
        prob = PolyWaveProblem(3, 2, plain_data([single(PW3), f1],
                                                [zero_field(3), zero_field(3)]))
        u = polywave_solve_odd_many(X3, TS, prob, RULES)
        amp = PW3.eval(X3[None, :])[0]
        exact = (np.cos(TS) + 0.5 * (b + 1.0) * TS * np.sin(TS)) * amp
        assert np.max(np.abs(u - exact)) <= 1e-10

    def test_small_t_recovers_data(self):
        prob = PolyWaveProblem(3, 1, plain_data([single(PW3)], [zero_field(3)]))
        phi0 = PW3.eval(X3[None, :])[0]
        e1, e2 = np.abs(polywave_solve_odd_many(X3, np.array([2e-2, 1e-2]),
                                                prob, RULES) - phi0)
        assert e2 <= 0.3 * e1 + 1e-12  # O(t^2)

    def test_zero_data(self):
        prob = PolyWaveProblem(3, 1, plain_data([zero_field(3)], [zero_field(3)]))
        assert np.all(polywave_solve_odd_many(X3, TS, prob, RULES) == 0.0)


class TestEvenDimension:
    K2 = np.array([0.8, -0.6])
    X2 = np.array([0.25, -0.4])

    def test_phi_oracle(self):
        pw = PlaneWaveField(self.K2)
        prob = PolyWaveProblem(2, 1, plain_data([single(pw)], [zero_field(2)]))
        u = polywave_solve_even_many(self.X2, TS, prob, RULES)
        exact = np.cos(TS) * pw.eval(self.X2[None, :])[0]
        assert np.max(np.abs(u - exact)) <= 1e-10

    def test_psi_oracle(self):
        pw = PlaneWaveField(self.K2)
        prob = PolyWaveProblem(2, 1, plain_data([zero_field(2)], [single(pw)]))
        u = polywave_solve_even_many(self.X2, TS, prob, RULES)
        exact = np.sin(TS) * pw.eval(self.X2[None, :])[0]
        assert np.max(np.abs(u - exact)) <= 1e-10

    def test_iterated_mode_oracle(self):
        b = -0.4
        pw = PlaneWaveField(self.K2)
        f1 = single(pw, b + 1.0)
        prob = PolyWaveProblem(2, 2, plain_data([single(pw), f1],
                                                [zero_field(2), zero_field(2)]))
        u = polywave_solve_even_many(self.X2, TS, prob, RULES)
        amp = pw.eval(self.X2[None, :])[0]
        exact = (np.cos(TS) + 0.5 * (b + 1.0) * TS * np.sin(TS)) * amp
        assert np.max(np.abs(u - exact)) <= 1e-9


class TestHigherDimensions:
    """The m = 2 single-mode oracle at n = 4, 5, where the outer operator
    is (1/t d/dt)^2: Phi_0 = v, Phi_1 = b v (f-data) gives
    U = [cos t + (b + 1) t sin(t)/2] v, and Psi_0 = v, Psi_1 = b v (g-data)
    gives U = [(1 + (b + 1)/2) sin t - (b + 1) t cos(t)/2] v, |k| = 1."""

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("family", ["f", "g"])
    def test_iterated_mode_oracle(self, n, family):
        rng = np.random.default_rng(n)
        k = rng.normal(size=n)
        pw = PlaneWaveField(k / np.linalg.norm(k))
        x = 0.4 * rng.normal(size=n)
        b = 0.7
        data = [single(pw), single(pw, b + 1.0)]
        zeros = [zero_field(n), zero_field(n)]
        prob = PolyWaveProblem(n, 2, plain_data(data, zeros) if family == "f"
                               else plain_data(zeros, data))
        solver = polywave_solve_odd_many if n % 2 else polywave_solve_even_many
        u = solver(x, TS, prob, RULES)
        amp = pw.eval(x[None, :])[0]
        c = 0.5 * (b + 1.0)
        if family == "f":
            exact = (np.cos(TS) + c * TS * np.sin(TS)) * amp
        else:
            exact = ((1.0 + c) * np.sin(TS) - c * TS * np.cos(TS)) * amp
        # the nested outer operator leaves ~2e-8 of float64 roundoff
        assert np.max(np.abs(u - exact)) <= 1e-6


class TestBallSeriesConstants:
    @staticmethod
    def _closed_form_coefficients(n, a, m):
        """const * w_k as the closed forms write them, in 30-digit
        arithmetic: odd n 2 / ((n-2)!! omega_n Gamma(a) 2^2k k! (a)_k),
        even n (descent) 2 sqrt(pi) / ((n-1)!! omega_{n+1} Gamma(a) ...),
        with a = alpha or alpha + 1/2 for the phi closed forms."""
        with mp.workdps(30):
            dim = n if n % 2 else n + 1
            omega = 2 * mp.pi ** (mp.mpf(dim) / 2) / mp.gamma(mp.mpf(dim) / 2)
            c = 2 if n % 2 else 2 * mp.sqrt(mp.pi)
            const = c / (math.prod(range(1, dim - 1, 2)) * omega * mp.gamma(a))
            return [float(const / (4 ** k * math.factorial(k) * mp.rf(a, k)))
                    for k in range(m)]

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 5),
           alpha=st.floats(0.0, 3.0, exclude_min=True, exclude_max=True))
    def test_matches_closed_form_constants(self, n, alpha):
        # beta0 exactly as the routes compute it: phi closed form, psi direct
        routes = [alpha - 1.0 if n % 2 else alpha - 0.5]
        if alpha < 0.5:
            routes.append(-alpha if n % 2 else 0.5 - alpha)
        for beta0 in routes:
            # below 2^-53, alpha - 1.0 rounds to the pole beta0 = -1
            assume(beta0 > -1.0)
            weights, const = ball_series_constants(n, beta0, 4)
            # the reference at a = beta0 + 1, the parameter the kernel
            # exponent stands for (alpha - 1.0 + 1 differs from alpha by
            # up to half an ulp of 1 when alpha < 1/2)
            expected = self._closed_form_coefficients(n, mp.mpf(beta0) + 1, 4)
            for w, e in zip(weights, expected):
                assert abs(const * w - e) <= 2e-15 * abs(e)

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_polywave_weights(self, n):
        weights, const = ball_series_constants(n, -1.0, 4)
        assert weights[0] == 0.0  # 1/Gamma(0): the Kirchhoff term replaces it
        gamma_n = 1.0 / (math.prod(range(1, n - 1, 2)) * sphere_area_const(n))
        assert 0.5 * const == pytest.approx(gamma_n, rel=1e-15)
        for k in range(1, 4):
            coef = 1.0 / (2.0 ** (2 * k - 1) * math.factorial(k - 1)
                          * math.factorial(k))
            assert const * weights[k] == pytest.approx(gamma_n * coef,
                                                       rel=2e-15)

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_polywave_weights(self, n):
        weights, const = ball_series_constants(n, -0.5, 4)
        descent = 2.0 * math.sqrt(math.pi) / (math.prod(range(1, n, 2))
                                             * sphere_area_const(n + 1))
        for k in range(4):
            coef = 1.0 / (math.gamma(k + 0.5) * 4.0 ** k * math.factorial(k))
            assert const * weights[k] == pytest.approx(descent * coef,
                                                       rel=2e-15)


class TestResidualAndConditions:
    def test_residual_order_m1(self):
        prob = PolyWaveProblem(3, 1, plain_data([single(PW3)], [zero_field(3)]))
        hs = (0.2, 0.1, 0.05)
        res = [wave_residual(prob, X3, 1.5, 1, h) for h in hs]
        order = np.polyfit(np.log(hs), np.log(res), 1)[0]
        assert 1.6 <= order <= 2.4

    def test_residual_order_m2(self):
        f1 = single(PW3, 1.7)
        prob = PolyWaveProblem(3, 2, plain_data([single(PW3), f1],
                                                [zero_field(3), zero_field(3)]))
        hs = (0.2, 0.1, 0.05)
        res = [wave_residual(prob, X3, 1.5, 2, h) for h in hs]
        order = np.polyfit(np.log(hs), np.log(res), 1)[0]
        assert 1.6 <= order <= 2.6

    def test_initial_conditions_m2(self):
        # d^2 U/dt^2 at t->0 recovers Phi_1 for the two-level problem
        b = 0.7
        f1 = single(PW3, b + 1.0)
        prob = PolyWaveProblem(3, 2, plain_data([single(PW3), f1],
                                                [zero_field(3), zero_field(3)]))
        amp = PW3.eval(X3[None, :])[0]
        target = b * amp  # Phi_1

        def d2(t0):
            h = t0 / 4.0
            ts = t0 + h * np.arange(-1, 2)
            v = polywave_solve_odd_many(X3, ts, prob, RULES)
            return (v[2] - 2.0 * v[1] + v[0]) / h ** 2

        ladder = [d2(t) for t in (0.2, 0.1, 0.05)]
        r1 = [(4.0 * ladder[i + 1] - ladder[i]) / 3.0 for i in range(2)]
        est = (16.0 * r1[1] - r1[0]) / 15.0
        assert abs(est - target) <= 1e-4 * max(1.0, abs(target))


class TestOuterOperators:
    def test_time_derivative(self):
        d = time_derivative(np.sin, 1e-4)
        t = np.array([0.7, 2.0])
        assert np.max(np.abs(d(t) - np.cos(t))) <= 1e-11

    def test_radial_time_operator(self):
        # (1/t d/dt)^2 t^4 = 8 identically
        op = radial_time_operator(lambda t: np.asarray(t) ** 4, 2, 1e-4)
        t = np.array([0.9, 1.8])
        assert np.max(np.abs(op(t) - 8.0)) <= 1e-6


class TestLemma1Identity:
    def test_second_derivative_form(self):
        # (d^2/dr^2)(1/r d/dr)^{p-1}(r^{2p-1} w) = (1/r d/dr)^p (r^{2p} w')
        # for w = cos r, p = 2, via the exact expansion constants on the
        # left and nested FD on the right
        A = lemma1_constants(2)

        def lhs_profile(r):
            return A[0] * r * np.cos(r) - A[1] * r ** 2 * np.sin(r)

        def rhs_inner(r):
            return -r ** 4 * np.sin(r)

        r0 = 1.3
        gaps = []
        hs = (4e-3, 2e-3, 1e-3)
        for h in hs:
            lhs = (lhs_profile(r0 + h) - 2.0 * lhs_profile(r0)
                   + lhs_profile(r0 - h)) / h ** 2

            def od(g, r):
                return (g(r + h) - g(r - h)) / (2.0 * h * r)

            rhs = (od(rhs_inner, r0 + h) - od(rhs_inner, r0 - h)) / (2.0 * h * r0)
            gaps.append(abs(lhs - rhs))
        order = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
        assert 1.8 <= order <= 2.2
