import math

import mpmath as mp
import numpy as np
import pytest

from besselwave.errors import CapabilityError, ContractError, DomainError
from besselwave.fields import GaussianField, PlaneWaveField
from besselwave.highprec import HighPrecEvaluator, residual_high_precision
from besselwave.solver import ProblemSpec, SolutionEvaluator
from besselwave.special import bessel_clifford
from besselwave.verify import (check_initial_conditions, convergence_study,
                               estimate_order, residual_iterated_operator,
                               residual_stencil, residual_sweep,
                               two_path_consistency)
from besselwave.wave import RuleSet

FAST = RuleSet(radial_order=32, sphere_order=16)

K3 = np.array([0.6, -0.5, math.sqrt(1.0 - 0.61)])  # |k| = 1
X3 = np.array([0.3, -0.2, 0.45])


def spec_odd_m1(gamma_param=0.5, lam=1.0):
    return ProblemSpec(n=3, m=1, gamma_param=gamma_param, lam=lam,
                       fields=(PlaneWaveField(K3),))


class ExactEvaluator:
    """Closed-form separable solution for single-mode data with |k| = 1."""

    def __init__(self, spec):
        self.spec = spec
        self.mu = math.sqrt(1.0 + spec.lam ** 2)

    def profile(self, x, tvals):
        # x of shape (n,) with tvals (T,), or (P, n) with tvals (P, T)
        x = np.asarray(x, dtype=float)
        amp = self.spec.fields[0].eval(np.atleast_2d(x))
        amp = amp[0] if x.ndim == 1 else amp[:, None]
        return bessel_clifford(self.spec.gamma_param,
                               self.mu * np.asarray(tvals, dtype=float)) * amp


class ZeroEvaluator:
    def profile(self, x, tvals):
        return np.zeros_like(np.asarray(tvals, dtype=float))


def nested_stencil(m, n, t, h, gamma_param, lam):
    """The m-fold stencil built by applying L_h to every entry m times,
    the construction residual_stencil factorises."""
    drift = 2.0 * gamma_param + 1.0
    stencil = {(0, (0,) * n): 1.0}
    for _ in range(m):
        new = {}

        def add(key, c):
            new[key] = new.get(key, 0.0) + c

        for (it, ix), c in stencil.items():
            tp = t + it * h
            add((it + 1, ix), c * (1.0 / h ** 2 + drift / (2.0 * h * tp)))
            add((it - 1, ix), c * (1.0 / h ** 2 - drift / (2.0 * h * tp)))
            add((it, ix), c * (-2.0 / h ** 2 + lam ** 2 + 2.0 * n / h ** 2))
            for d in range(n):
                for step in (1, -1):
                    jx = list(ix)
                    jx[d] += step
                    add((it, tuple(jx)), -c / h ** 2)
        stencil = new
    return stencil


# (t, h, gamma, lambda): the verify-suite residual probes and wider cases
STENCIL_CASES = [(1.0, 1e-3, 0.25, 0.5), (1.5, 4e-3, 0.5, 1.0),
                 (1.2, 2e-3, -0.3, 0.6), (2.0, 1e-2, 2.0, 4.0),
                 (0.9, 1e-3, -0.45, 0.0)]


class TestResidualStencil:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_factorised_matches_nested(self, m, n):
        # float64: within 1e-15 of the largest coefficient (measured
        # 6.6e-16); at 30 digits within 1e-30 (measured 7.3e-31)
        for case in STENCIL_CASES:
            for tol, args in ((1e-15, case),
                              (1e-30, [mp.mpf(v) for v in case])):
                with mp.workdps(30):
                    got = residual_stencil(m, n, *args)
                    want = nested_stencil(m, n, *args)
                    assert set(got) == set(want)
                    scale = max(abs(c) for c in want.values())
                    gap = max(abs(got[k] - want[k]) for k in want)
                    assert gap <= tol * scale

    def test_quadratic_hand_value(self):
        # u = t^2 is spatially constant and quadratic in t, so the
        # stencil is exact: L u = 2 + 2 (2 gamma + 1) + lam^2 t^2
        gamma_param, lam, t, h = 0.3, 0.7, 1.4, 1e-3
        st = residual_stencil(1, 2, t, h, gamma_param, lam)
        val = sum(c * (t + h * it) ** 2 for (it, _), c in st.items())
        exact = 2.0 + 2.0 * (2.0 * gamma_param + 1.0) + lam ** 2 * t ** 2
        assert val == pytest.approx(exact, abs=1e-8)

    def test_zero_function(self):
        u = ZeroEvaluator()
        r = residual_iterated_operator(u, X3, 1.0, 1, 1e-3,
                                       gamma_param=0.5, lam=1.0)
        assert r == 0.0

    def test_small_t_guard(self):
        u = ZeroEvaluator()
        with pytest.raises(ContractError):
            residual_iterated_operator(u, X3, 0.005, 1, 1e-3,
                                       gamma_param=0.5, lam=1.0)

    def test_missing_params(self):
        with pytest.raises(ContractError):
            residual_iterated_operator(ZeroEvaluator(), X3, 1.0, 1, 1e-3)


class TestEstimateOrder:
    def test_guards(self):
        with pytest.raises(DomainError):
            estimate_order([(1e-3, 1e-6), (5e-4, 2.5e-7)])
        with pytest.raises(DomainError):
            estimate_order([(1e-3, 1e-6), (5e-4, 0.0), (2.5e-4, 1e-8)])

    def test_exact_slope(self):
        pairs = [(h, 3.0 * h ** 2) for h in (4e-3, 2e-3, 1e-3)]
        assert estimate_order(pairs) == pytest.approx(2.0, abs=1e-12)


class TestResidualSweep:
    def test_exact_oracle_order_two(self):
        u = ExactEvaluator(spec_odd_m1())
        report = residual_sweep(u, [(X3, 1.5)], 1,
                                gamma_param=0.5, lam=1.0)
        assert 1.7 <= report.estimated_order <= 2.3

    def test_parameters_from_spec(self):
        u = ExactEvaluator(spec_odd_m1())
        report = residual_sweep(u, [(X3, 1.5)], 1)
        assert 1.7 <= report.estimated_order <= 2.3

    def test_deterministic(self):
        u = SolutionEvaluator(spec_odd_m1(), FAST)
        a = residual_sweep(u, [(X3, 1.5)], 1, steps=(4e-3, 2e-3, 1e-3))
        b = residual_sweep(u, [(X3, 1.5)], 1, steps=(4e-3, 2e-3, 1e-3))
        assert a.residual_norms == b.residual_norms


class TestInitialConditions:
    def test_phi_family(self):
        spec = spec_odd_m1()
        u = SolutionEvaluator(spec, FAST)
        report = check_initial_conditions(u, spec, [X3])
        assert report.ic_errors[0] <= 1e-6
        assert report.ic_errors["odd_0"] <= 1e-6
        assert not report.flags

    def test_psi_family(self):
        spec = ProblemSpec(n=3, m=1, gamma_param=-0.3, lam=0.6, family="psi",
                           fields=(PlaneWaveField(K3),))
        u = SolutionEvaluator(spec, FAST)
        report = check_initial_conditions(u, spec, [X3])
        assert report.ic_errors[0] <= 1e-5
        assert not report.flags


class TestTwoPathConsistency:
    def test_small_case(self):
        report = two_path_consistency(spec_odd_m1(), [X3], np.array([0.8]),
                                      FAST)
        assert report.two_path_gap <= 1e-9


class TestConvergenceStudy:
    def test_needs_three_orders(self):
        with pytest.raises(DomainError):
            convergence_study(lambda o: None, [16, 32], [(X3, 1.0)])

    def test_eigen_data_converged(self):
        spec = spec_odd_m1()

        def factory(order):
            return SolutionEvaluator(
                spec, RuleSet(radial_order=order, sphere_order=16))

        report = convergence_study(factory, [16, 24, 32], [(X3, 1.0)])
        assert report.oracle_gap <= 1e-10
        assert len(report.details["successive_diffs"]) == 2


class TestHighPrecision:
    def test_capability_guards(self):
        k2 = np.array([0.8, -0.6])
        even = ProblemSpec(n=2, m=1, gamma_param=0.5, lam=1.0,
                           fields=(PlaneWaveField(k2),))
        with pytest.raises(CapabilityError):
            HighPrecEvaluator(even)
        psi = ProblemSpec(n=3, m=1, gamma_param=-0.3, lam=0.6, family="psi",
                          fields=(PlaneWaveField(K3),))
        with pytest.raises(CapabilityError):
            HighPrecEvaluator(psi)
        gauss = ProblemSpec(n=3, m=1, gamma_param=0.5, lam=1.0,
                            fields=(GaussianField(1.0, np.zeros(3)),))
        with pytest.raises(CapabilityError):
            HighPrecEvaluator(gauss)

    def test_matches_float64_solver(self):
        spec = spec_odd_m1()
        hp = HighPrecEvaluator(spec)
        f64 = SolutionEvaluator(spec, FAST)
        for t in (0.7, 1.6):
            assert float(hp.profile(X3, [t])[0]) == pytest.approx(
                f64(X3, t), abs=1e-10)

    def test_residual_guard_and_magnitude(self):
        spec = spec_odd_m1()
        ev = HighPrecEvaluator(spec)
        with pytest.raises(ContractError):
            residual_high_precision(spec, X3, 0.005, 1, 1e-3, evaluator=ev)
        r = residual_high_precision(spec, X3, 1.5, 1, 2e-3, evaluator=ev)
        assert r <= 1e-4
