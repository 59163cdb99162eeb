"""Ball-series core shared by every solution route, and the iterated
plain-wave solvers built on it.

Every explicit solution in the package is one weighted series of ball
integrals,

    const * t^p * sum_k w_k (1/t d/dt)^q
        int_{|xi-x|<t} (t^2-rho^2)^{beta0+k}
                       jbar(beta0+k, lam sqrt(t^2-rho^2)) f_k(xi) dxi,

with q = n // 2 and (w_k, const) from ``ball_series_constants``.  The
closed forms, the weighted-data ("psi") direct formula and the iterated
plain-wave solvers differ only in beta0, lam, p and the data f_k.

The outer radial-time operator (1/t d/dt)^q is applied by central finite
differences with one Richardson level.  The inner ball integrals are
smooth functions of t after the r = t*s substitution, so the differences
see a smooth integrand and converge at order 4 with the Richardson step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .fields import TransformedData
from .quadrature import (SphereRule, ball_kernel_integral_many,
                         make_radial_rule, sphere_means_many)
from .special import double_factorial_odd, rgamma, sphere_area_const

_TINY_T = 1e-30

#: Relative step h/t of the finite differences in (1/t d/dt)^q.
FD_STEP_REL = 1e-4


@dataclass(frozen=True)
class RuleSet:
    """Quadrature orders shared by all point evaluations.  sphere_order
    changes no value: every mean is exact (``quadrature`` docstring)."""

    radial_order: int = 48
    sphere_order: int = 24


@dataclass(frozen=True)
class PolyWaveProblem:
    """Cauchy problem for (d^2/dt^2 - Laplacian)^m U = 0 with data
    U^(2k)(0) = Phi_k, U^(2k+1)(0) = Psi_k carried as reduced f_k, g_k."""

    n: int
    m: int
    data: TransformedData

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("spatial dimension must be >= 2")
        if self.m < 1:
            raise DomainError("iteration count must be >= 1")
        if self.data.m != self.m:
            raise ContractError("transformed data length does not match m")


def time_derivative(g, rel_h: float):
    """d/dt of a vectorised function of a t-array, by central differences
    with step rel_h * t and one Richardson level.  The shifted times are
    stacked along the last axis, so a (P, T) batch stays one call."""

    def dg(tvals: np.ndarray) -> np.ndarray:
        tvals = np.asarray(tvals, dtype=float)
        h = rel_h * np.maximum(np.abs(tvals), _TINY_T)
        stacked = np.concatenate(
            [tvals + h, tvals - h, tvals + h / 2, tvals - h / 2], axis=-1)
        vp, vm, vp2, vm2 = np.split(g(stacked), 4, axis=-1)
        d_h = (vp - vm) / (2.0 * h)
        d_h2 = (vp2 - vm2) / h
        return (4.0 * d_h2 - d_h) / 3.0

    return dg


def radial_time_operator(g, q: int, rel_h: float):
    """(1/t d/dt)^q applied to a vectorised g."""
    out = g
    for _ in range(q):
        inner = time_derivative(out, rel_h)
        out = (lambda f: (lambda T: f(T) / np.asarray(T, dtype=float)))(inner)
    return out


def ball_series_constants(n: int, beta0: float, m: int) -> tuple[list, float]:
    """Weights w_0..w_{m-1} and leading constant of the ball series:

        w_k = 2^{-2k} / (k! Gamma(beta0 + 1 + k)),
        const = c / ((2p-1)!! omega),   p = n // 2,

    with (c, omega) = (2, omega_n) for odd n and (2 sqrt(pi), omega_{n+1})
    for even n.  1/Gamma is 0 at its poles, so w_0 = 0 for beta0 = -1.

    Derivation.  The iterated plain-wave solution (the transformed-data
    problem) is the alpha -> 0 case of the closed form: beta0 = alpha - 1
    -> -1 and t^{1-2 alpha} -> t.  For odd n its k = 0 term on g-data is
    Kirchhoff's formula

        1/((n-2)!! omega_n) (1/t d/dt)^{(n-3)/2} (1/t) int_{S(x,t)} g dS.

    As beta -> -1 the kernel (t^2-rho^2)_+^beta / Gamma(beta+1) tends to
    delta(t^2-rho^2), whose ball integral is (1/2t) int_{S(x,t)}: half the
    surface term, so c = 2 (``ball_series`` evaluates this limit for the
    term with beta0 + k = -1).  At alpha > 0 the transmutation operator's
    leading factor 2/Gamma(alpha) gives the same c = 2, and
    Gamma(alpha + k) = Gamma(alpha) (alpha)_k moves the 1/Gamma(alpha) into
    the weights.  Even n follows by descent from dimension n + 1:
    integrating the kernel over the extra coordinate,

        int_{-a}^{a} (a^2-s^2)^beta ds
            = sqrt(pi) Gamma(beta+1) / Gamma(beta+3/2) a^{2 beta+1},

    shifts beta0 by 1/2 and brings the factor sqrt(pi); (n-1)!! and
    omega_{n+1} are the constants of dimension n + 1, whose q is also
    n // 2.
    """
    p = n // 2
    if n % 2:
        c, omega = 2.0, sphere_area_const(n)
    else:
        c, omega = 2.0 * math.sqrt(math.pi), sphere_area_const(n + 1)
    weights = [2.0 ** (-2 * k) / math.factorial(k) * rgamma(beta0 + 1.0 + k)
               for k in range(m)]
    return weights, c / (double_factorial_odd(p) * omega)


def _surface_term(field, x, n: int):
    """(1/t) * integral of field over the sphere |xi-x| = t, as a smooth
    vectorised function of t:  omega_n t^{n-2} * the field's exact
    sphere mean."""
    omega = sphere_area_const(n)

    def g(tvals: np.ndarray) -> np.ndarray:
        tvals = np.asarray(tvals, dtype=float)
        means = sphere_means_many(field, x, np.abs(tvals))
        return omega * tvals ** (n - 2) * means

    return g


def ball_series(fields, x, tvals, n: int, beta0: float, lam: float, q: int,
                t_power: float, rules: RuleSet) -> np.ndarray:
    """const * t^t_power * sum_k w_k (1/t d/dt)^q of the ball integral of
    fields[k] against (t^2-rho^2)^{beta0+k} jbar(beta0+k, lam sqrt(t^2-rho^2)),
    with (w_k, const) = ball_series_constants(n, beta0, len(fields)).
    x of shape (n,) takes tvals of shape (T,), and x of shape (P, n)
    tvals of shape (P, T); row p of the result is the series about x[p].

    At lam = 0 the term with beta0 + k = -1 has weight 1/Gamma(0) = 0 on a
    divergent integral; it is replaced by its limit, 1/2 times the
    Kirchhoff surface term (see ``ball_series_constants``).  At lam != 0
    the kernel's higher Bessel terms leave a ball integral in that limit,
    and the radial rule refuses beta = -1.
    """
    tvals = np.asarray(tvals, dtype=float)
    weights, const = ball_series_constants(n, beta0, len(fields))
    sphere = SphereRule(n, rules.sphere_order)  # not read (quadrature docstring)
    total = np.zeros_like(tvals)
    for k, (weight, fld) in enumerate(zip(weights, fields)):
        if not fld.terms:
            continue
        beta = beta0 + k
        if beta == -1.0 and lam == 0.0:
            weight, inner = 0.5, _surface_term(fld, x, n)
        else:
            radial = make_radial_rule(beta, rules.radial_order)

            def inner(ts, fld=fld, beta=beta, radial=radial):
                return ball_kernel_integral_many(
                    fld, x, np.asarray(ts, dtype=float), beta, beta, lam,
                    radial, sphere)

        total += weight * radial_time_operator(inner, q, FD_STEP_REL)(tvals)
    return const * tvals ** t_power * total


def _polywave(x, tvals, problem: PolyWaveProblem, rules: RuleSet,
              beta0: float) -> np.ndarray:
    # d/dt (1/t d/dt)^{q-1} = t (1/t d/dt)^q on the f-data, and
    # (1/t d/dt)^{q-1} on the g-data
    n, data, q = problem.n, problem.data, problem.n // 2
    return (ball_series(data.f, x, tvals, n, beta0, 0.0, q, 1.0, rules)
            + ball_series(data.g, x, tvals, n, beta0, 0.0, q - 1, 0.0, rules))


def polywave_solve_odd_many(x, tvals: np.ndarray, problem: PolyWaveProblem,
                            rules: RuleSet) -> np.ndarray:
    """Explicit odd-dimension solution: the ball series at beta0 = -1,
    whose k = 0 term is the Kirchhoff surface term."""
    if problem.n % 2 == 0 or problem.n < 3:
        raise ContractError(f"odd-dimension solver called with n={problem.n}")
    return _polywave(x, tvals, problem, rules, -1.0)


def polywave_solve_even_many(x, tvals: np.ndarray, problem: PolyWaveProblem,
                             rules: RuleSet) -> np.ndarray:
    """Even-dimension solution by descent: the ball series at
    beta0 = -1/2."""
    if problem.n % 2 or problem.n < 2:
        raise ContractError(f"even-dimension solver called with n={problem.n}")
    return _polywave(x, tvals, problem, rules, -0.5)
