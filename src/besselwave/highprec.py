"""Extended-precision evaluation of the odd-dimension closed form, for
residual convergence studies.

The m-fold nested second-order stencil for the singular operator carries
an h^{-2m} amplification; at the step sizes the residual sweeps use,
float64 roundoff in the solution values (about 1e-16 relative) swamps
the O(h^2) truncation signal as soon as m = 2.  This module evaluates
the identical closed-form expression in mpmath so that the only rough
error left is far below the signal.  Two simplifications keep it fast
and are exact, not approximations:

  * data fields must be plane waves, whose spherical mean about any
    centre is the plane-wave value at the centre times the radial factor
    jbar((n-2)/2, |k| r) -- an identity, so the spherical quadrature
    layer drops out;
  * the outer operators (1/t d/dt)^q are applied by mpmath numerical
    differentiation at working precision.

The float64 solver is tied to these values through the oracle and
two-path acceptance checks; this path exists only to make the residual
ladder measurable.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from .errors import CapabilityError
from .fields import PlaneWaveField
from .quadrature import make_radial_rule
from .verify import MIN_T_FACTOR


def _jbar_mp(nu, z):
    return mp.hyp0f1(nu + 1, -(z / 2) ** 2)


def _plane_terms(fsum):
    """Decompose a FieldSum over plane waves into
    (scalar coefficient, wave vector, phase) triples."""
    out = []
    for coeff, shift, f in fsum.terms:
        if not isinstance(f, PlaneWaveField):
            raise CapabilityError(
                "extended-precision path supports plane-wave data only")
        out.append((mp.mpf(coeff * f.eigenvalue ** shift * f.amplitude),
                    f.wave_vector, f.phase))
    return out


class HighPrecEvaluator:
    """profile(x, tvals) in mpmath arithmetic; odd n, phi family."""

    def __init__(self, spec, radial_order: int = 32, dps: int = 30):
        from .solver import transformed_data
        from .special import double_factorial_odd
        if spec.n % 2 == 0 or spec.family != "phi":
            raise CapabilityError(
                "extended-precision path implements the odd-dimension "
                "phi-family formula")
        self.spec = spec
        self.dps = dps
        n = spec.n
        alpha = mp.mpf(spec.alpha)
        self.lam = mp.mpf(spec.lam)
        self.q = (n - 1) // 2
        self.n = n
        omega_n = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        self.const = 2 / (double_factorial_odd(n // 2) * omega_n
                          * mp.gamma(alpha))
        self.alpha = alpha
        self.omega_n = omega_n
        data = transformed_data(spec)
        self.terms = []  # (weight_k * coeff, beta_k, kvec, phase, nodes, weights)
        for k in range(spec.m):
            beta = alpha + k - 1
            rule = make_radial_rule(float(beta), radial_order)
            nodes = [mp.mpf(s) for s in rule.nodes]
            weights = [mp.mpf(w) for w in rule.weights]
            wk = mp.mpf(2) ** (-2 * k) / (mp.factorial(k) * mp.rf(alpha, k))
            for coeff, kvec, phase in _plane_terms(data.f[k]):
                self.terms.append((wk * coeff, beta, kvec, phase,
                                   nodes, weights))

    def _ball(self, beta, kabs, nodes, weights, t):
        n = self.n
        total = mp.mpf(0)
        for s, w in zip(nodes, weights):
            c = mp.sqrt(1 - s * s)
            total += (w * s ** (n - 1)
                      * _jbar_mp(beta, self.lam * t * c)
                      * _jbar_mp(mp.mpf(n - 2) / 2, kabs * t * s))
        return t ** (n + 2 * beta) * self.omega_n * total

    def profile(self, x, tvals):
        x = np.asarray(x, dtype=float)
        with mp.workdps(self.dps):
            out = []
            for t in np.atleast_1d(tvals):
                t = mp.mpf(float(t)) if not isinstance(t, mp.mpf) else t
                val = mp.mpf(0)
                for coeff, beta, kvec, phase, nodes, weights in self.terms:
                    kabs = mp.sqrt(mp.fsum(mp.mpf(ki) ** 2 for ki in kvec))
                    g = (lambda nb=(beta, kabs, nodes, weights):
                         lambda tt: self._ball(*nb, tt))()
                    for _ in range(self.q):
                        g = (lambda gg: lambda tt: mp.diff(gg, tt) / tt)(g)
                    spatial = mp.cos(mp.fsum(mp.mpf(ki) * mp.mpf(xi)
                                             for ki, xi in zip(kvec, x))
                                     + mp.mpf(phase))
                    val += coeff * spatial * g(t)
                out.append(self.const * t ** (1 - 2 * self.alpha) * val)
        return np.array(out, dtype=object)


def residual_high_precision(spec, x, t: float, m: int, h: float,
                            radial_order: int = 32, dps: int = 30,
                            evaluator: HighPrecEvaluator | None = None) -> float:
    """|L^m u|(x, t) with stencil coefficients and solution values both in
    mpmath; returns a float64 magnitude."""
    from .errors import ContractError
    from .verify import residual_stencil
    if t <= MIN_T_FACTOR * m * h:
        raise ContractError("residual stencil needs larger t for this h")
    ev = evaluator or HighPrecEvaluator(spec, radial_order, dps)
    x = np.asarray(x, dtype=float)
    with mp.workdps(dps):
        stencil = residual_stencil(m, x.size, mp.mpf(t), mp.mpf(h),
                                   mp.mpf(spec.gamma_param), mp.mpf(spec.lam))
        by_x: dict = {}
        for (it, ix), c in stencil.items():
            by_x.setdefault(ix, []).append((it, c))
        total = mp.mpf(0)
        for ix, entries in by_x.items():
            its = sorted({it for it, _ in entries})
            pt = x + h * np.asarray(ix, dtype=float)
            vals = ev.profile(pt, [mp.mpf(t) + mp.mpf(h) * it for it in its])
            lookup = dict(zip(its, vals))
            total += mp.fsum(c * lookup[it] for it, c in entries)
        return float(abs(total))
