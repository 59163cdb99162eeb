import math

import numpy as np
import pytest

from besselwave.errors import ContractError, DomainError
from besselwave.fields import PlaneWaveField, SineProductField
from besselwave.solver import (ProblemSpec, SolutionEvaluator,
                               check_lemma2_conditions, solve_point_even,
                               solve_point_odd, solve_profile_odd,
                               solve_profile_psi, solve_profile_transmutation,
                               solve_psi_problem, transformed_data)
from besselwave.special import bessel_clifford, pochhammer
from besselwave.wave import RuleSet

FAST = RuleSet(radial_order=32, sphere_order=16)

K3 = np.array([0.6, -0.5, math.sqrt(1.0 - 0.61)])  # |k| = 1
X3 = np.array([0.3, -0.2, 0.45])


def spec_odd_m1(gamma_param=0.5, lam=1.0):
    return ProblemSpec(n=3, m=1, gamma_param=gamma_param, lam=lam,
                       fields=(PlaneWaveField(K3),))


def spec_mixed_m2():
    phi0 = PlaneWaveField(K3)
    phi1 = PlaneWaveField(np.array([0.2, 0.3, -0.1]), phase=0.4, amplitude=0.8)
    return ProblemSpec(n=3, m=2, gamma_param=0.25, lam=0.5,
                       fields=(phi0, phi1))


class TestProblemSpec:
    def test_alpha(self):
        assert spec_odd_m1(0.5).alpha == pytest.approx(1.0)

    def test_validation(self):
        pw = PlaneWaveField(K3)
        with pytest.raises(DomainError):
            ProblemSpec(n=1, m=1, gamma_param=0.5, lam=0.0, fields=(pw,))
        with pytest.raises(DomainError):
            ProblemSpec(n=3, m=0, gamma_param=0.5, lam=0.0, fields=())
        with pytest.raises(DomainError):
            ProblemSpec(n=3, m=1, gamma_param=-0.5, lam=0.0, fields=(pw,))
        with pytest.raises(DomainError):
            ProblemSpec(n=3, m=1, gamma_param=0.5, lam=0.0, family="chi",
                        fields=(pw,))
        with pytest.raises(DomainError):
            ProblemSpec(n=3, m=2, gamma_param=0.5, lam=0.0, fields=(pw,))

    @pytest.mark.parametrize("gamma_param, lam", [
        (math.inf, 0.5), (math.nan, 0.5), (0.5, math.nan), (0.5, -math.inf)])
    def test_non_finite_parameters(self, gamma_param, lam):
        with pytest.raises(DomainError):
            ProblemSpec(n=3, m=1, gamma_param=gamma_param, lam=lam,
                        fields=(PlaneWaveField(K3),))

    def test_transformed_data_is_phi_only(self):
        spec = ProblemSpec(n=3, m=1, gamma_param=-0.3, lam=0.0, family="psi",
                           fields=(PlaneWaveField(K3),))
        with pytest.raises(ContractError):
            transformed_data(spec)


# |k| = 1 wave vectors and probe points in four and five dimensions
K_HIGH = {4: np.array([0.5, -0.5, 0.5, 0.5]),
          5: np.array([0.6, -0.4, 0.2, 0.4, math.sqrt(0.28)])}
X_HIGH = {4: np.array([0.9, -0.7, 1.1, 0.8]),
          5: np.array([0.9, -0.7, 1.1, 0.8, -1.2])}
# acceptance tests 01 (odd n) and 02 (even n)
ORACLE_TOL = {1: 1e-6, 0: 1e-5}


class TestHigherDimensions:
    """n = 4, 5 reach the data only through closed-form sphere means."""

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("family", [PlaneWaveField, SineProductField])
    @pytest.mark.parametrize("method", ["direct", "transmutation"])
    def test_m1_eigenfield_oracle(self, n, family, method):
        # u = f(x) jbar(gamma, sqrt(|k|^2 + lam^2) t), error relative to
        # the centre value (the oracle itself crosses zero on this grid)
        spec = ProblemSpec(n=n, m=1, gamma_param=0.5, lam=1.0,
                           fields=(family(K_HIGH[n]),))
        x = X_HIGH[n]
        ts = np.linspace(0.1, 3.0, 20)
        u = SolutionEvaluator(spec, RuleSet(48, 24), method).profile(x, ts)
        centre = spec.fields[0].eval(x[None, :])[0]
        exact = centre * bessel_clifford(0.5, math.sqrt(2.0) * ts)
        assert np.max(np.abs(u - exact)) <= ORACLE_TOL[n % 2] * abs(centre)


class TestSeparableOracles:
    def test_odd_profile(self):
        # u = jbar(gamma, sqrt(|k|^2 + lam^2) t) cos(k.x)
        spec = spec_odd_m1()
        ts = np.linspace(0.3, 2.5, 6)
        u = solve_profile_odd(spec, X3, ts, FAST)
        amp = spec.fields[0].eval(X3[None, :])[0]
        exact = bessel_clifford(0.5, math.sqrt(2.0) * ts) * amp
        assert np.max(np.abs(u - exact) / np.abs(exact)) <= 1e-8

    def test_even_point(self):
        k2 = np.array([0.8, -0.6])
        spec = ProblemSpec(n=2, m=1, gamma_param=0.3, lam=0.7,
                           fields=(PlaneWaveField(k2),))
        x2 = np.array([0.25, -0.4])
        mu = math.sqrt(1.0 + 0.49)
        for t in (0.4, 1.1, 2.2):
            amp = spec.fields[0].eval(x2[None, :])[0]
            exact = bessel_clifford(0.3, mu * t) * amp
            assert solve_point_even(spec, x2, t, FAST) == pytest.approx(
                exact, rel=1e-8)

    def test_odd_profile_at_alpha_rounding_to_zero(self):
        # at the smallest gamma > -1/2, alpha - 1.0 rounds to -1: at lam = 0
        # the closed form is its alpha -> 0 limit, the plain wave
        # cos(|k| t) cos(k.x); at lam != 0 that limit keeps a ball
        # integral the series cannot take, so it is refused
        gamma_param = float(np.nextafter(-0.5, 0.0))
        ts = np.array([0.5, 1.0, 2.0])
        u = solve_profile_odd(spec_odd_m1(gamma_param, 0.0), X3, ts, FAST)
        amp = PlaneWaveField(K3).eval(X3[None, :])[0]
        assert np.max(np.abs(u - np.cos(ts) * amp)) <= 1e-10
        with pytest.raises(DomainError):
            solve_profile_odd(spec_odd_m1(gamma_param, 0.5), X3, ts, FAST)

    @pytest.mark.parametrize("gamma_param, lam, method", [
        (float(np.nextafter(-0.5, 0.0)), 0.5, "direct"),
        (float(np.nextafter(-0.5, 0.0)), 0.5, "transmutation"),
        (float(np.nextafter(-0.5, 0.0)), 0.0, "transmutation"),
        (-0.5 + 1e-15, 0.5, "direct"),
        (-0.5 + 1e-15, 0.5, "transmutation"),
        (-0.5 + 1e-10, 0.5, "direct"),
        (-0.5 + 1e-10, 0.5, "transmutation")])
    def test_gamma_at_the_pole_is_named(self, gamma_param, lam, method):
        # alpha - 1.0 rounds to -1 (no radial rule), or jbar(alpha - 1, .)
        # at lam != 0 loses about eps / alpha: refused naming gamma
        ev = SolutionEvaluator(spec_odd_m1(gamma_param, lam), FAST, method)
        with pytest.raises(DomainError, match=r"^gamma=.* alpha - 1 = "):
            ev.profile(X3, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("method", ["direct", "transmutation"])
    def test_small_alpha_at_lam_zero(self, method):
        # without the kernel the routes stay exact near the pole: the
        # solution is the plain wave cos(|k| t) cos(k.x) up to O(alpha)
        ts = np.array([0.5, 1.0, 2.0])
        ev = SolutionEvaluator(spec_odd_m1(-0.5 + 1e-10, 0.0), FAST, method)
        amp = PlaneWaveField(K3).eval(X3[None, :])[0]
        assert np.max(np.abs(ev.profile(X3, ts) - np.cos(ts) * amp)) <= 1e-8

    def test_parity_contracts(self):
        spec = spec_odd_m1()
        with pytest.raises(ContractError):
            solve_point_even(spec, X3, 1.0, FAST)
        k2 = np.array([0.8, -0.6])
        even = ProblemSpec(n=2, m=1, gamma_param=0.3, lam=0.7,
                           fields=(PlaneWaveField(k2),))
        with pytest.raises(ContractError):
            solve_point_odd(even, np.zeros(2), 1.0, FAST)


class TestTransmutationPath:
    def test_matches_direct_m1(self):
        spec = spec_odd_m1()
        ts = np.array([0.6, 1.4])
        direct = solve_profile_odd(spec, X3, ts, FAST)
        via = solve_profile_transmutation(spec, X3, ts, FAST)
        assert np.max(np.abs(direct - via)) <= 1e-9

    def test_lambda_continuity(self):
        ts = np.array([0.8, 1.7])
        u0 = solve_profile_odd(spec_odd_m1(lam=0.0), X3, ts, FAST)
        ue = solve_profile_odd(spec_odd_m1(lam=1e-6), X3, ts, FAST)
        assert np.max(np.abs(u0 - ue)) <= 1e-9


class TestIteratedProblem:
    def test_exact_single_mode(self):
        # phi_1 = -mu^2/(2(gamma+1)) phi_0 makes u separable:
        # u = jbar(gamma, mu t) phi_0
        gamma_param, lam = 0.25, 0.5
        mu = math.sqrt(1.0 + lam ** 2)
        c1 = -mu ** 2 / (2.0 * (gamma_param + 1.0))
        spec = ProblemSpec(n=3, m=2, gamma_param=gamma_param, lam=lam,
                           fields=(PlaneWaveField(K3),
                                   PlaneWaveField(K3, amplitude=c1)))
        ts = np.array([0.5, 1.3, 2.1])
        u = solve_profile_odd(spec, X3, ts, FAST)
        amp = PlaneWaveField(K3).eval(X3[None, :])[0]
        exact = bessel_clifford(gamma_param, mu * ts) * amp
        assert np.max(np.abs(u - exact)) <= 1e-9

    def test_two_path_m2(self):
        spec = spec_mixed_m2()
        ts = np.array([0.7, 1.9])
        direct = solve_profile_odd(spec, X3, ts, FAST)
        via = solve_profile_transmutation(spec, X3, ts, FAST)
        assert np.max(np.abs(direct - via)) <= 1e-8

    def test_operator_trace_conditions(self):
        # iterated singular-operator traces at t -> 0 recover the
        # Pochhammer-rescaled data
        spec = spec_mixed_m2()
        u = SolutionEvaluator(spec, FAST)
        report = check_lemma2_conditions(spec, u, X3)
        alpha = spec.alpha
        for k in range(spec.m):
            ratio = pochhammer(alpha + 0.5, k) / pochhammer(0.5, k)
            target = ratio * spec.fields[k].eval(X3[None, :])[0]
            assert report[k]["target"] == pytest.approx(target, rel=1e-12)
            assert report[k]["error"] <= 1e-4 * max(1.0, abs(target))


class TestPsiProblem:
    def make_spec(self):
        return ProblemSpec(n=3, m=1, gamma_param=-0.3, lam=0.6, family="psi",
                           fields=(PlaneWaveField(K3),))

    def test_separable_oracle(self):
        # single-mode data: u = t^{1-2a} jbar(1/2 - a, mu t) psi_0 / (1 - 2a)
        spec = self.make_spec()
        alpha = spec.alpha
        mu = math.sqrt(1.0 + spec.lam ** 2)
        amp = spec.fields[0].eval(X3[None, :])[0]
        for method in ("lemma4", "direct"):
            for t in (0.5, 1.6):
                exact = (t ** (1.0 - 2.0 * alpha)
                         * bessel_clifford(0.5 - alpha, mu * t) * amp
                         / (1.0 - 2.0 * alpha))
                val = solve_psi_problem(spec, X3, t, FAST, method)
                assert val == pytest.approx(exact, rel=1e-9)

    def test_methods_agree(self):
        spec = self.make_spec()
        ts = np.array([0.4, 1.2, 2.0])
        a = solve_profile_psi(spec, X3, ts, FAST, "lemma4")
        b = solve_profile_psi(spec, X3, ts, FAST, "direct")
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_window_guard(self):
        spec = ProblemSpec(n=3, m=1, gamma_param=0.2, lam=0.0, family="psi",
                           fields=(PlaneWaveField(K3),))
        with pytest.raises(DomainError):
            solve_profile_psi(spec, X3, np.array([1.0]), FAST)

    def test_family_guard(self):
        with pytest.raises(ContractError):
            solve_profile_psi(spec_odd_m1(), X3, np.array([1.0]), FAST)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            solve_profile_psi(self.make_spec(), X3, np.array([1.0]), FAST,
                              "magic")


class TestSolutionEvaluator:
    def test_dispatch_and_call(self):
        spec = spec_odd_m1()
        ev = SolutionEvaluator(spec, FAST)
        assert ev(X3, 1.0) == pytest.approx(
            solve_point_odd(spec, X3, 1.0, FAST), rel=1e-13)
        ev_t = SolutionEvaluator(spec, FAST, method="transmutation")
        assert ev_t(X3, 1.0) == pytest.approx(ev(X3, 1.0), abs=1e-9)

    def test_psi_dispatch(self):
        spec = ProblemSpec(n=3, m=1, gamma_param=-0.3, lam=0.6, family="psi",
                           fields=(PlaneWaveField(K3),))
        ev = SolutionEvaluator(spec, FAST)
        assert ev(X3, 0.9) == pytest.approx(
            solve_psi_problem(spec, X3, 0.9, FAST), rel=1e-12)


class TestWeightedConjugation:
    def test_power_weight_identity(self):
        # the operator with drift parameter a - 1/2 applied to
        # t^{1-2a} v equals t^{1-2a} times the operator with drift
        # parameter 1/2 - a applied to v, for any smooth v (checked by
        # nested FD stencils, O(h^2) agreement)
        from besselwave.verify import residual_stencil
        alpha, lam = 0.2, 0.6

        def v(x, t):
            return math.cos(0.7 * t) * math.cos(x[0] + 0.5 * x[1])

        def apply_stencil(fun, gamma_param, m, x, t, h):
            st = residual_stencil(m, 2, t, h, gamma_param, lam)
            return sum(c * fun(x + h * np.asarray(ix, dtype=float), t + h * it)
                       for (it, ix), c in st.items())

        x = np.array([0.4, -0.3])
        t = 1.1
        for m, hs in ((1, (4e-3, 2e-3, 1e-3)), (2, (4e-2, 2e-2, 1e-2))):
            gaps = []
            for h in hs:
                lhs = apply_stencil(
                    lambda xx, tt: tt ** (1.0 - 2.0 * alpha) * v(xx, tt),
                    alpha - 0.5, m, x, t, h)
                rhs = t ** (1.0 - 2.0 * alpha) * apply_stencil(
                    v, 0.5 - alpha, m, x, t, h)
                gaps.append(abs(lhs - rhs))
            order = np.polyfit(np.log(hs), np.log(gaps), 1)[0]
            assert 1.8 <= order <= 2.2
