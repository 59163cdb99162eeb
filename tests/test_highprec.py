"""The extended-precision reference: an exact m = 1 oracle, the radial
quadrature + numerical-derivative evaluator it replaced, and its work
count on the acceptance-03 residual sweep."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besselwave import highprec
from besselwave.fields import PlaneWaveField
from besselwave.highprec import HighPrecEvaluator, residual_high_precision
from besselwave.quadrature import make_radial_rule
from besselwave.solver import ProblemSpec, transformed_data
from besselwave.special import double_factorial_odd

K3 = np.array([0.6, -0.5, math.sqrt(1.0 - 0.61)])  # |k| = 1
X3 = np.array([0.3, -0.2, 0.45])


def acc03_spec():
    phi1 = PlaneWaveField(np.array([0.2, 0.3, -0.1]), phase=0.4, amplitude=0.8)
    return ProblemSpec(n=3, m=2, gamma_param=0.25, lam=0.5,
                       fields=(PlaneWaveField(K3), phi1))


class QuadratureDiffReference:
    """The odd-n plane-wave evaluator before the closed form: a radial
    Gauss rule per k with two hyp0f1 calls per node, then the outer
    operator (1/t d/dt)^q by mpmath.diff."""

    def __init__(self, spec, radial_order=48, dps=30):
        self.dps, n = dps, spec.n
        self.q, self.n = (n - 1) // 2, n
        with mp.workdps(dps):
            alpha = self.alpha = mp.mpf(spec.alpha)
            self.lam = mp.mpf(spec.lam)
            self.omega = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
            self.const = 2 / (double_factorial_odd(n // 2) * self.omega
                              * mp.gamma(alpha))
            self.terms = []
            for k, fsum in enumerate(transformed_data(spec).f):
                beta = alpha + k - 1
                rule = make_radial_rule(float(beta), radial_order)
                wk = mp.mpf(4) ** (-k) / (mp.factorial(k) * mp.rf(alpha, k))
                for coeff, shift, f in fsum.terms:
                    c = mp.mpf(coeff * f.eigenvalue ** shift * f.amplitude)
                    self.terms.append((wk * c, beta, f, rule))

    def _ball(self, beta, kabs, rule, t):
        total = mp.mpf(0)
        for s, w in zip(rule.nodes, rule.weights):
            s, w = mp.mpf(s), mp.mpf(w)
            total += (w * s ** (self.n - 1)
                      * highprec._jbar_mp(beta, self.lam * t * mp.sqrt(1 - s * s))
                      * highprec._jbar_mp(mp.mpf(self.n - 2) / 2, kabs * t * s))
        return t ** (self.n + 2 * beta) * self.omega * total

    def value(self, x, t):
        with mp.workdps(self.dps):
            t, val = mp.mpf(t), mp.mpf(0)
            for c, beta, f, rule in self.terms:
                kabs = mp.sqrt(-mp.mpf(f.eigenvalue))

                def g(tt, beta=beta, kabs=kabs, rule=rule):
                    return self._ball(beta, kabs, rule, tt)
                for _ in range(self.q):
                    g = (lambda gg: lambda tt: mp.diff(gg, tt) / tt)(g)
                spatial = mp.cos(mp.fdot(f.wave_vector.tolist(), x.tolist())
                                 + f.phase)
                val += c * spatial * g(t)
            return self.const * t ** (1 - 2 * self.alpha) * val


class TestExactReference:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.sampled_from([3, 5]),
           gamma=st.floats(-0.45, 2.0), lam=st.floats(0.0, 2.0),
           phase=st.floats(0.0, 2.0 * math.pi), amplitude=st.floats(0.5, 2.0),
           t=st.floats(0.1, 5.0))
    def test_m1_oracle(self, data, n, gamma, lam, phase, amplitude, t):
        # m = 1: u = A cos(k.x + p) jbar(gamma, mu t), mu^2 = |k|^2 + lam^2
        coords = st.floats(-1.5, 1.5)
        k = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
        x = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
        spec = ProblemSpec(n=n, m=1, gamma_param=gamma, lam=lam,
                           fields=(PlaneWaveField(k, phase, amplitude),))
        got = HighPrecEvaluator(spec).profile(x, [t])[0]
        with mp.workdps(30):
            mu = mp.sqrt(mp.fdot(k.tolist(), k.tolist()) + mp.mpf(lam) ** 2)
            exact = (amplitude * mp.cos(mp.fdot(k.tolist(), x.tolist()) + phase)
                     * highprec._jbar_mp(mp.mpf(gamma), mu * t))
            assert abs(got - exact) <= 1e-14 * amplitude

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_quadrature_and_numerical_derivative(self, m):
        fields = (PlaneWaveField(K3),
                  PlaneWaveField(np.array([0.2, 0.3, -0.1]), 0.4, 0.8),
                  PlaneWaveField(np.array([-0.5, 0.1, 0.7]), 1.1, -0.6))[:m]
        spec = ProblemSpec(n=3, m=m, gamma_param=0.25, lam=0.5, fields=fields)
        ev, ref = HighPrecEvaluator(spec), QuadratureDiffReference(spec)
        for x, t in ((X3, 1.0), (np.array([-0.7, 0.4, 1.1]), 2.3)):
            got = ev.profile(x, [t])[0]
            want = ref.value(x, t)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_acc03_sweep_work_count(self, monkeypatch):
        calls = []
        real = highprec._jbar_mp
        monkeypatch.setattr(highprec, "_jbar_mp",
                            lambda nu, z: calls.append(z) or real(nu, z))
        spec = acc03_spec()
        ev = HighPrecEvaluator(spec)
        assert len(ev.terms) == 3  # f[1] holds phi0 at shifts 0 and 1
        for h in (4e-3, 2e-3, 1e-3):
            residual_high_precision(spec, X3, 1.0, spec.m, h, evaluator=ev)
        # one call per merged term and distinct t: t + {0, ±1, ±2, ±4, ±8} ms
        assert len(calls) <= 27
