"""Iterated wave equation layer: spherical-mean reduction, the 1-D
closed form for the reduced system, and the explicit Cauchy solutions in
odd and even dimension.

The outer radial-time operators (1/t d/dt)^q and d/dt are applied by
central finite differences with one Richardson level.  The inner ball
integrals are smooth functions of t after the r = t*s substitution, so
the differences see a smooth integrand and converge at order 4 with the
Richardson step.

The even-dimension formula is obtained from the odd one by descent from
dimension n+1; carrying the descent through the k-sum fixes the leading
constant to

    2 sqrt(pi) / (1*3*...*(n-1) * omega_{n+1}),

which is the value used here (see the package docs for the derivation;
the per-k weights Gamma(k+1/2)^{-1} / (2^{2k} k!) are unchanged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .errors import ContractError, DomainError
from .fields import TransformedData
from .quadrature import (SphereRule, ball_kernel_integral_many,
                         make_radial_rule, sphere_means_many)
from .special import gamma, odd_product_upto, sphere_area_const
from .transmute import lemma1_constants

_TINY_T = 1e-30


@dataclass(frozen=True)
class RuleSet:
    """Quadrature orders and finite-difference settings shared by all
    point evaluations."""

    radial_order: int = 48
    sphere_order: int = 24
    fd_step_rel: float = 1e-4
    richardson: bool = True
    line_order: int = 64  # Gauss-Legendre order for 1-D interval integrals


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


def time_derivative(g, rel_h: float, richardson: bool = True):
    """d/dt of a vectorised function of a t-array, by central differences
    with step rel_h * t and an optional Richardson level."""

    def dg(tvals: np.ndarray) -> np.ndarray:
        tvals = np.asarray(tvals, dtype=float)
        h = rel_h * np.maximum(np.abs(tvals), _TINY_T)
        if richardson:
            stacked = np.concatenate(
                [tvals + h, tvals - h, tvals + h / 2, tvals - h / 2])
            vp, vm, vp2, vm2 = np.split(g(stacked), 4)
            d_h = (vp - vm) / (2.0 * h)
            d_h2 = (vp2 - vm2) / h
            return (4.0 * d_h2 - d_h) / 3.0
        stacked = np.concatenate([tvals + h, tvals - h])
        vp, vm = np.split(g(stacked), 2)
        return (vp - vm) / (2.0 * h)

    return dg


def radial_time_operator(g, q: int, rel_h: float, richardson: bool = True,
                         extra_derivative: bool = False):
    """(d/dt)^{e} (1/t d/dt)^q applied to a vectorised g, e in {0, 1}."""
    out = g
    for _ in range(q):
        inner = time_derivative(out, rel_h, richardson)
        out = (lambda f: (lambda T: f(T) / np.asarray(T, dtype=float)))(inner)
    if extra_derivative:
        out = time_derivative(out, rel_h, richardson)
    return out


def _surface_term(field, x, n: int, sphere):
    """(1/t) * integral of field over the sphere |xi-x| = t, as a smooth
    vectorised function of t:  omega_n t^{n-2} * sphere mean.  The mean
    is the field's closed form; the direction rule `sphere` is only the
    fallback for fields without one."""
    omega = sphere_area_const(n)

    def g(tvals: np.ndarray) -> np.ndarray:
        tvals = np.asarray(tvals, dtype=float)
        means = sphere_means_many(field, x, np.abs(tvals), sphere)
        return omega * tvals ** (n - 2) * means

    return g


def _ball_term(field, x, beta: float, sphere, radial_order: int):
    radial = make_radial_rule(beta, radial_order)

    def g(tvals: np.ndarray) -> np.ndarray:
        return ball_kernel_integral_many(field, x, np.asarray(tvals, dtype=float),
                                         beta, 0.0, 0.0, radial, sphere)

    return g


def polywave_solve_odd(x, t, problem: PolyWaveProblem, rules: RuleSet) -> float:
    return float(polywave_solve_odd_many(x, np.array([t]), problem, rules)[0])


def polywave_solve_odd_many(x, tvals: np.ndarray, problem: PolyWaveProblem,
                            rules: RuleSet) -> np.ndarray:
    """Explicit odd-dimension solution: Kirchhoff-type surface term for
    k = 0 plus weighted ball integrals for 1 <= k <= m-1, under the outer
    operators d/dt (1/t d/dt)^{(n-3)/2} (f-data) and (1/t d/dt)^{(n-3)/2}
    (g-data)."""
    n, m, data = problem.n, problem.m, problem.data
    if n % 2 == 0 or n < 3:
        raise ContractError(f"odd-dimension solver called with n={n}")
    tvals = np.asarray(tvals, dtype=float)
    q = (n - 3) // 2
    sphere = SphereRule(n, rules.sphere_order)
    gamma_n = 1.0 / (odd_product_upto(n - 2) * sphere_area_const(n))

    total = np.zeros_like(tvals)
    if data.f[0].terms:
        g0 = _surface_term(data.f[0], x, n, sphere)
        total += radial_time_operator(g0, q, rules.fd_step_rel,
                                      rules.richardson, True)(tvals)
    if data.g[0].terms:
        h0 = _surface_term(data.g[0], x, n, sphere)
        total += radial_time_operator(h0, q, rules.fd_step_rel,
                                      rules.richardson, False)(tvals)
    for k in range(1, m):
        coef = 1.0 / (2.0 ** (2 * k - 1) * math.factorial(k - 1) * math.factorial(k))
        if data.f[k].terms:
            gk = _ball_term(data.f[k], x, k - 1.0, sphere, rules.radial_order)
            total += coef * radial_time_operator(
                gk, q, rules.fd_step_rel, rules.richardson, True)(tvals)
        if data.g[k].terms:
            hk = _ball_term(data.g[k], x, k - 1.0, sphere, rules.radial_order)
            total += coef * radial_time_operator(
                hk, q, rules.fd_step_rel, rules.richardson, False)(tvals)
    return gamma_n * total


def polywave_solve_even(x, t, problem: PolyWaveProblem, rules: RuleSet) -> float:
    return float(polywave_solve_even_many(x, np.array([t]), problem, rules)[0])


def polywave_solve_even_many(x, tvals: np.ndarray, problem: PolyWaveProblem,
                             rules: RuleSet) -> np.ndarray:
    """Even-dimension solution by descent: ball integrals with kernel
    exponent k - 1/2 under d/dt (1/t d/dt)^{(n-2)/2} (f-data) and
    (1/t d/dt)^{(n-2)/2} (g-data)."""
    n, m, data = problem.n, problem.m, problem.data
    if n % 2 or n < 2:
        raise ContractError(f"even-dimension solver called with n={n}")
    tvals = np.asarray(tvals, dtype=float)
    q = (n - 2) // 2
    sphere = SphereRule(n, rules.sphere_order)
    const = 2.0 * math.sqrt(math.pi) / (odd_product_upto(n - 1)
                                        * sphere_area_const(n + 1))

    total = np.zeros_like(tvals)
    for k in range(m):
        coef = 1.0 / (gamma(k + 0.5) * 2.0 ** (2 * k) * math.factorial(k))
        if data.f[k].terms:
            gk = _ball_term(data.f[k], x, k - 0.5, sphere, rules.radial_order)
            total += coef * radial_time_operator(
                gk, q, rules.fd_step_rel, rules.richardson, True)(tvals)
        if data.g[k].terms:
            hk = _ball_term(data.g[k], x, k - 0.5, sphere, rules.radial_order)
            total += coef * radial_time_operator(
                hk, q, rules.fd_step_rel, rules.richardson, False)(tvals)
    return const * total


class OddExtension:
    """Antisymmetric continuation of a half-line profile to r < 0."""

    def __init__(self, base):
        self.base = base

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.sign(r) * self.base(np.abs(r))


def radial_profile(field, x, n: int, rules: RuleSet, deriv_step: float = 1e-3):
    """Odd profile (1/r d/dr)^{p-1} (r^{2p-1} F(x, r)) of the sphere mean
    F of a field, for n = 2p+1, via the exact radial constants and
    central-difference derivatives of F."""
    if n % 2 == 0:
        raise DomainError("radial profiles are defined for odd n")
    p = (n - 1) // 2
    consts = lemma1_constants(p)
    sphere = SphereRule(n, rules.sphere_order)

    def mean(r):
        return sphere_means_many(field, x, np.asarray(r, dtype=float), sphere)

    def base(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for j, a_j in enumerate(consts):
            if j == 0:
                dj = mean(r)
            else:
                # j-th central difference of the (even) sphere mean
                h = deriv_step
                offsets = np.arange(-j, j + 1, 2)
                coeffs = np.array([math.comb(j, i) * (-1.0) ** (j - i)
                                   for i in range(j + 1)])
                pts = np.abs(r[:, None] + h * offsets[None, :])
                vals = mean(pts.reshape(-1)).reshape(pts.shape)
                dj = vals @ coeffs / h ** j
            out += a_j * r ** (j + 1) * dj
        return out

    return OddExtension(base)


def iterated_wave_1d(phi_profiles: list, psi_profiles: list, m: int,
                     t: float, r: float, rules: RuleSet) -> float:
    """1-D iterated-wave closed form on the line for odd data profiles:

        W(t, r) = (1/2)[Phi_0(r+t) + Phi_0(r-t)] + (1/2) int Psi_0
                + sum_{k>=1} (2^{2k+1} (k!)^2)^{-1}
                    [ d/dt int (t^2-(r-s)^2)^k Phi_k + int ... Psi_k ].

    Profiles must already be odd-extended callables on the whole line.
    """
    nodes, weights = roots_legendre(rules.line_order)

    def line_integral(prof, k: int, tv: float) -> float:
        # split at s = 0: the odd extension is C^0 but may kink there
        total = 0.0
        lo, hi = r - tv, r + tv
        cuts = sorted({lo, min(max(0.0, lo), hi), hi})
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b <= a:
                continue
            s = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            vals = prof(s)
            if k:
                vals = vals * (tv ** 2 - (r - s) ** 2) ** k
            total += 0.5 * (b - a) * float(np.dot(weights, vals))
        return total

    w = 0.5 * (float(phi_profiles[0](np.array([r + t]))[0])
               + float(phi_profiles[0](np.array([r - t]))[0]))
    w += 0.5 * line_integral(psi_profiles[0], 0, t)
    for k in range(1, m):
        coef = 1.0 / (2.0 ** (2 * k + 1) * math.factorial(k) ** 2)

        def phi_int(tarr, k=k):
            tarr = np.atleast_1d(np.asarray(tarr, dtype=float))
            return np.array([line_integral(phi_profiles[k], k, tv)
                             for tv in tarr])

        dphi = time_derivative(phi_int, rules.fd_step_rel, rules.richardson)
        w += coef * float(dphi(np.array([t]))[0])
        w += coef * line_integral(psi_profiles[k], k, t)
    return w


def w0_closed_form(x, t: float, r: float, problem: PolyWaveProblem,
                   rules: RuleSet) -> float:
    """Reduced 1-D solution W_0(x, t, r) built from sphere-mean profiles
    of the transformed data; W_0(x, t, 0) = 0 by oddness."""
    phi_profiles = [radial_profile(f, x, problem.n, rules)
                    for f in problem.data.f]
    psi_profiles = [radial_profile(g, x, problem.n, rules)
                    for g in problem.data.g]
    return iterated_wave_1d(phi_profiles, psi_profiles, problem.m, t, r, rules)


def polywave_limit_from_w0(x, t: float, problem: PolyWaveProblem,
                           rules: RuleSet, r0: float = 1e-2) -> float:
    """Direct reconstruction U(x, t) = lim_{r->0} W_0 / (A_0^p r), by
    Richardson extrapolation over r in {r0, r0/2} (the ratio is even in r)."""
    p = (problem.n - 1) // 2
    a0 = float(lemma1_constants(p)[0])
    v1 = w0_closed_form(x, t, r0, problem, rules) / (a0 * r0)
    v2 = w0_closed_form(x, t, r0 / 2.0, problem, rules) / (a0 * r0 / 2.0)
    return (4.0 * v2 - v1) / 3.0
