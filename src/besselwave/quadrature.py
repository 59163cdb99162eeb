"""Weighted radial quadrature, spherical means and ball kernel integrals.

All solution formulas share one building block: integrals over the ball
|xi - x| < t of a smooth field against the kernel

    (t^2 - |xi - x|^2)^beta * jbar(nu, lam * sqrt(t^2 - |xi - x|^2)).

The substitution r = t*s turns the integral into

    omega_n t^{n+2 beta} int_0^1 (1-s^2)^beta s^{n-1}
                         jbar(nu, lam t sqrt(1-s^2)) M_f(x, t s) ds,

where M_f(x, r) is the mean of f over the sphere S(x, r).  The weight
(1-s^2)^beta is singular at s = 1 for beta in (-1, 0); a Gauss rule with
respect to it absorbs the singularity exactly.  It is built in float64
by discretized Stieltjes (Gautschi 2004, 2.2): the M-point Gauss-Jacobi
rule for (1-s)^beta, weights times (1+s)^beta, is reduced to the order-N
recurrence; Golub-Welsch gives the rule.  (1+s)^beta is analytic on the
Bernstein ellipse of (0, 1) with rho = 3 + 2 sqrt(2), so inner products
of degree < 2N polynomials err by O(rho^(-2(M-N))); M = 2N + 40 puts
that far below roundoff.

The spherical means are the one interface to the data: every field
gives them in closed form (``SmoothField.sphere_mean``), so a ball
integral costs one mean per radial node and no direction rule on the
sphere is ever summed.  ``SphereRule`` survives only as a parameter of
``ball_kernel_integral_many`` that the solver does not read:
bench/tracer.py counts its weights as the ball's node count
(ROADMAP item 1), and the tests build direction-rule references from
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ContractError, DomainError
from .special import bessel_clifford, sphere_area_const

#: Largest radial order (a build solves eigenproblems of size 2*order + 40).
MAX_RADIAL_ORDER = 256


@dataclass(frozen=True)
class RadialRule:
    """Gauss rule for integral_0^1 g(s) (1-s^2)^beta ds.

    Exact (to roundoff) for polynomial g of degree <= 2*order - 1,
    including odd powers; nodes lie strictly inside (0, 1).
    """

    beta: float
    order: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SphereRule:
    """Quadrature on the unit sphere in R^n, n in {1, 2, 3}.

    weights sum to omega_n; directions are unit vectors of shape (S, n).
    The solver never reads them, so they are built (and cached) on first
    access; a dimension outside {1, 2, 3} raises DomainError there.
    """

    dimension: int
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise DomainError("sphere order must be >= 1")

    @property
    def directions(self) -> np.ndarray:
        return _sphere_nodes_cached(self.dimension, self.order)[0]

    @property
    def weights(self) -> np.ndarray:
        return _sphere_nodes_cached(self.dimension, self.order)[1]


@np.errstate(all="ignore")  # a failed build surfaces as DomainError
def _golub_welsch(diag, offdiag, mass):
    """Ascending Gauss nodes and weights of a Jacobi matrix (eigh reads its
    lower triangle).  Eigenvector weights err by ~eps * mass, so those below
    1e-6 * mass are 1/sum p_k^2 over the orthonormal p_k instead."""
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(offdiag, -1))
    weights = mass * vecs[0] ** 2
    small = weights < 1e-6 * mass
    x, b = nodes[small], np.r_[0.0, offdiag]
    p = [np.zeros_like(x), np.full_like(x, mass ** -0.5)]
    for k in range(diag.size - 1 if x.size else 0):
        p.append(((x - diag[k]) * p[-1] - b[k] * p[-2]) / b[k + 1])
    weights[small] = 1.0 / np.sum(np.square(p[1:]), axis=0)
    return nodes, weights


@lru_cache(maxsize=128)
def _radial_rule_cached(beta: float, order: int) -> RadialRule:
    # M = 2*order + 40 point Gauss-Jacobi rule for (1-s)^beta (module note),
    # m = 2k + beta; (2k-1)+beta and k+beta stay exact as beta -> -1.
    k = np.arange(1, 2 * order + 40, dtype=float)
    m = 2.0 * k + beta
    diag = np.r_[1.0 / (beta + 2.0), 0.5 - 0.5 * beta * beta / (m * (m + 2.0))]
    offdiag = k * (k + beta) / m / np.sqrt((m + 1.0) * (2.0 * k - 1.0 + beta))
    s, w = _golub_welsch(diag, offdiag, 1.0 / (beta + 1.0))
    w *= (1.0 + s) ** beta  # then Stieltjes, orthonormal, down to order N
    a, b = np.empty(order), np.empty(order)
    p_prev, p, b_prev = np.zeros_like(s), np.full_like(s, w.sum() ** -0.5), 0.0
    for j in range(order):
        a[j] = w @ (s * p * p)
        r = (s - a[j]) * p - b_prev * p_prev
        b[j] = b_prev = np.sqrt(w @ (r * r))
        p_prev, p = p, r / b_prev
    nodes, weights = _golub_welsch(a, b[:-1], w.sum())
    if not (np.all(np.diff(np.r_[0.0, nodes, 1.0]) > 0.0)
            and np.all((weights > 0.0) & (weights < np.inf))):
        raise DomainError(
            f"radial rule construction failed for beta={beta}, order={order}")
    return RadialRule(beta=beta, order=order, nodes=nodes, weights=weights)


def make_radial_rule(beta: float, order: int) -> RadialRule:
    """Gauss rule for weight (1-s^2)^beta on (0,1); cached immutably."""
    if beta <= -1.0:
        raise DomainError(f"radial weight exponent must be > -1, got {beta}")
    if not 1 <= order <= MAX_RADIAL_ORDER:
        raise DomainError(f"radial order {order} not in 1..{MAX_RADIAL_ORDER}")
    return _radial_rule_cached(float(beta), int(order))


@lru_cache(maxsize=64)
def _sphere_nodes_cached(n: int, order: int):
    if n == 1:
        directions = np.array([[-1.0], [1.0]])
        weights = np.array([1.0, 1.0])
    elif n == 2:
        m = 2 * order
        theta = 2.0 * np.pi * np.arange(m) / m
        directions = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(m, 2.0 * np.pi / m)
    elif n == 3:
        # Product rule: Gauss-Legendre in the polar cosine, equispaced
        # azimuth.  Exact on spherical polynomials of degree <= 2*order-1.
        mu, wmu = leggauss(order)
        m_phi = 2 * order
        phi = 2.0 * np.pi * np.arange(m_phi) / m_phi
        sin_th = np.sqrt(1.0 - mu ** 2)
        dirs = np.empty((order, m_phi, 3))
        dirs[:, :, 0] = sin_th[:, None] * np.cos(phi)[None, :]
        dirs[:, :, 1] = sin_th[:, None] * np.sin(phi)[None, :]
        dirs[:, :, 2] = mu[:, None]
        directions = dirs.reshape(-1, 3)
        weights = (wmu[:, None] * (2.0 * np.pi / m_phi)).repeat(m_phi).reshape(order, m_phi).reshape(-1)
    else:
        raise DomainError(f"sphere quadrature supports n in {{1,2,3}}, got {n}")
    return directions, weights


def sphere_means_many(f, x, radii: np.ndarray) -> np.ndarray:
    """Exact sphere means of the field f about x for a vector of radii."""
    return f.sphere_mean(np.asarray(x, dtype=float),
                         np.asarray(radii, dtype=float))


def ball_kernel_integral_many(f, x, tvals: np.ndarray, beta: float, nu: float,
                              lam: float, radial: RadialRule,
                              sphere: SphereRule) -> np.ndarray:
    """Weighted ball integrals over a batch of radii t > 0,

        int_{|xi-x|<t} (t^2-|xi-x|^2)^beta jbar(nu, lam*sqrt(t^2-|xi-x|^2))
                       f(xi) dxi,

    via the substitution r = t*s, whose kernel the radial rule absorbs:
    one closed-form sphere mean per (t, s) node.  x of shape (n,) takes
    tvals of shape (T,); x of shape (P, n) takes tvals of shape (P, T),
    row p about x[p].  ``sphere`` is not read (module docstring).
    """
    if radial.beta != beta:
        raise ContractError(
            f"radial rule built for beta={radial.beta} used with beta={beta}")
    x = np.asarray(x, dtype=float)
    tvals = np.asarray(tvals, dtype=float)
    if np.any(tvals <= 0.0):
        raise DomainError("ball integral needs t > 0")
    n, s = x.shape[-1], radial.nodes
    radii = tvals[..., None] * s
    sphere_sums = sphere_area_const(n) * f.sphere_mean(
        x, radii.reshape(tvals.shape[:-1] + (-1,))).reshape(radii.shape)
    if lam != 0.0:
        kern = bessel_clifford(nu, lam * tvals[..., None]
                               * np.sqrt(1.0 - s * s), rows=x.ndim == 2)
    else:
        kern = 1.0
    return tvals ** (n + 2.0 * beta) * np.sum(
        radial.weights * s ** (n - 1) * kern * sphere_sums, axis=-1)
