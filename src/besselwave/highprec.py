"""Extended-precision evaluation of the odd-dimension closed form, for
residual convergence studies.

The m-fold nested second-order stencil for the singular operator carries
an h^{-2m} amplification; at the step sizes the residual sweeps use,
float64 roundoff in the solution values (about 1e-16 relative) swamps
the O(h^2) truncation signal as soon as m = 2.  This module evaluates
the solution in mpmath, in closed form for plane-wave data:

  * the mean of cos(k.x + p) over a sphere of radius r about x is its
    centre value times jbar(nu, |k| r), nu = (n-2)/2;
  * the radial ball integral is Sonine's second finite integral
    (Watson, Treatise on Bessel Functions, 12.13), mu^2 = |k|^2 + lam^2:
        int_0^1 s^(n-1) (1-s^2)^beta jbar(beta, lam t sqrt(1-s^2))
                jbar(nu, |k| t s) ds
            = Gamma(nu+1) Gamma(beta+1) / (2 Gamma(nu+beta+2))
              * jbar(nu+beta+1, mu t);
  * the outer operator lowers the order exactly (Watson 3.2):
        (1/t d/dt) t^(2a) jbar(a, mu t) = 2a t^(2a-2) jbar(a-1, mu t).

With beta_k = alpha + k - 1 and q = (n-1)/2, the term of f[k] with
coefficient c is const w_k c omega_n Gamma(nu+1) Gamma(beta_k+1) 2^(q-1)
/ Gamma(gamma+k+1) cos(k.x + p) t^(2k) jbar(gamma+k, mu t); for odd n
the constants collapse to sqrt(pi) 2^(-2k) / (k! Gamma(gamma+k+1)).

The residual check stays independent of the float64 solver: its stencil
tests a closed form derived without the float64 quadrature, kernel
series or finite-difference outer operator.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from .errors import CapabilityError
from .fields import PlaneWaveField
from .verify import stencil_batch


def _jbar_mp(nu, z):
    return mp.hyp0f1(nu + 1, -(z / 2) ** 2)


def _plane_terms(fsum):
    """Merge a FieldSum over plane waves into {field: coefficient}; terms
    on one field differ only by the factor eigenvalue^shift."""
    out = {}
    for coeff, shift, f in fsum.terms:
        if not isinstance(f, PlaneWaveField):
            raise CapabilityError(
                "extended-precision path supports plane-wave data only")
        out[f] = out.get(f, 0) + mp.mpf(coeff * f.eigenvalue ** shift
                                        * f.amplitude)
    return out


class HighPrecEvaluator:
    """profile(x, tvals) in mpmath arithmetic, shaped as
    ``SolutionEvaluator.profile``; odd n, phi family.

    The radial factor of each term is computed once per distinct t and
    kept for the evaluator's lifetime, the spatial ones once per x.
    """

    def __init__(self, spec, dps: int = 30):
        from .solver import transformed_data
        if spec.n % 2 == 0 or spec.family != "phi":
            raise CapabilityError(
                "extended-precision path implements the odd-dimension "
                "phi-family formula")
        self.spec = spec
        self.dps = dps
        data = transformed_data(spec)
        # (order gamma+k, t power 2k, mu, scale * c, wave vector, phase)
        self.terms = []
        with mp.workdps(dps):
            gamma = mp.mpf(spec.gamma_param)
            lam2 = mp.mpf(spec.lam) ** 2
            for k in range(spec.m):
                scale = mp.sqrt(mp.pi) / (4 ** k * mp.factorial(k)
                                          * mp.gamma(gamma + k + 1))
                for f, c in _plane_terms(data.f[k]).items():
                    kvec = [mp.mpf(ki) for ki in f.wave_vector]
                    mu = mp.sqrt(mp.fsum(ki * ki for ki in kvec) + lam2)
                    self.terms.append((gamma + k, 2 * k, mu, scale * c, kvec,
                                       mp.mpf(f.phase)))
        self._radial = {}  # t -> [scale c t^(2k) jbar(gamma+k, mu t) per term]

    def _radial_factors(self, t):
        out = self._radial.get(t)
        if out is None:
            out = self._radial[t] = [
                scale * t ** power * _jbar_mp(order, mu * t)
                for order, power, mu, scale, _, _ in self.terms]
        return out

    def profile(self, x, tvals):
        x = np.asarray(x, dtype=float)
        rows = x.ndim == 2
        spatial, out = {}, []
        with mp.workdps(self.dps):
            for xp, tp in zip(x, tvals) if rows else [(x, tvals)]:
                key = tuple(xp.tolist())
                if key not in spatial:
                    xm = list(map(mp.mpf, key))
                    spatial[key] = [mp.cos(mp.fdot(kvec, xm) + phase)
                                    for *_, kvec, phase in self.terms]
                out.append([mp.fdot(spatial[key], self._radial_factors(
                    t if isinstance(t, mp.mpf) else mp.mpf(float(t))))
                            for t in np.atleast_1d(tp)])
        out = np.array(out, dtype=object)
        return out if rows else out[0]


def residual_high_precision(spec, x, t: float, m: int, h: float,
                            dps: int = 30,
                            evaluator: HighPrecEvaluator | None = None) -> float:
    """|L^m u|(x, t) with stencil coefficients and solution values both in
    mpmath, from one batched profile call; returns a float64 magnitude."""
    ev = evaluator or HighPrecEvaluator(spec, dps)
    with mp.workdps(dps):
        points, times, coeffs = stencil_batch(
            m, x, mp.mpf(t), mp.mpf(h), mp.mpf(spec.gamma_param),
            mp.mpf(spec.lam))
        return float(abs(mp.fdot(coeffs, ev.profile(points, times)[:, 0])))
