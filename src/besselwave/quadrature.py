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

The spherical means are the one interface to the data.  Fields that
provide ``sphere_mean`` (every shipped family) give them in closed form,
so a ball integral costs one mean per radial node.  Plain callables and
fields without a closed form fall back to a direction rule on the unit
sphere (n in {1, 2, 3}), evaluated in chunks of at most
_MAX_POINTS_PER_CHUNK space points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ContractError, DomainError
from .special import bessel_clifford, sphere_area_const

# Chunk limit for batched fallback field evaluations (number of space points).
_MAX_POINTS_PER_CHUNK = 4_000_000

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
    Only the fallback for fields without closed-form sphere means reads
    them, so they are built (and cached) on first access; a dimension
    outside {1, 2, 3} raises DomainError there.
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


def make_sphere_rule(n: int, order: int) -> SphereRule:
    """Sphere rule with its directions built now (DomainError for n > 3)."""
    rule = SphereRule(int(n), int(order))
    _sphere_nodes_cached(rule.dimension, rule.order)
    return rule


def _field_values(f, points: np.ndarray) -> np.ndarray:
    if hasattr(f, "eval"):
        return f.eval(points)
    return np.asarray(f(points), dtype=float)


def _closed_form_means(f, x: np.ndarray, radii: np.ndarray):
    """Exact sphere means of f about x when f has them, else None."""
    closed_form = getattr(f, "sphere_mean", None)
    return closed_form(x, radii) if closed_form else None


def sphere_mean(f, x, r: float, rule: SphereRule) -> float:
    """Arithmetic mean of f over the sphere S(x, r); f(x) at r = 0."""
    if r < 0.0:
        raise DomainError("sphere radius must be non-negative")
    return float(sphere_means_many(f, x, np.array([r]), rule)[0])


def sphere_means_many(f, x, radii: np.ndarray, rule: SphereRule) -> np.ndarray:
    """Sphere means of f about x for a whole vector of radii at once:
    closed form when f has one, the direction rule otherwise."""
    x = np.asarray(x, dtype=float)
    radii = np.asarray(radii, dtype=float)
    means = _closed_form_means(f, x, radii)
    if means is not None:
        return means
    pts = x[None, None, :] + radii[:, None, None] * rule.directions[None, :, :]
    vals = _field_values(f, pts.reshape(-1, x.size)).reshape(radii.size, -1)
    return vals @ rule.weights / sphere_area_const(rule.dimension)


def ball_kernel_integral(f, x, t: float, beta: float, nu: float, lam: float,
                         radial: RadialRule, sphere: SphereRule) -> float:
    """Weighted ball integral

        int_{|xi-x|<t} (t^2-|xi-x|^2)^beta jbar(nu, lam*sqrt(t^2-|xi-x|^2))
                       f(xi) dxi

    via the substitution r = t*s, whose kernel the radial rule absorbs.
    """
    return float(ball_kernel_integral_many(
        f, x, np.array([t]), beta, nu, lam, radial, sphere)[0])


def ball_kernel_integral_many(f, x, tvals: np.ndarray, beta: float, nu: float,
                              lam: float, radial: RadialRule,
                              sphere: SphereRule) -> np.ndarray:
    """Vectorised ball kernel integral over a batch of radii t > 0.

    One closed-form sphere mean per (t, s) node when f has them; the
    direction rule ``sphere`` is read only for the fallback.
    """
    if radial.beta != beta:
        raise ContractError(
            f"radial rule built for beta={radial.beta} used with beta={beta}")
    x = np.asarray(x, dtype=float)
    tvals = np.asarray(tvals, dtype=float)
    if np.any(tvals <= 0.0):
        raise DomainError("ball integral needs t > 0")
    n = x.size
    s = radial.nodes
    n_t, n_r = tvals.size, s.size
    root = np.sqrt(1.0 - s * s)
    radial_w = radial.weights * s ** (n - 1)

    def radial_sum(tc, sphere_sums):
        # sphere_sums[i, j]: integral of f over S(x, tc[i] * s[j]) / radius^(n-1)
        if lam != 0.0:
            kern = bessel_clifford(nu, lam * tc[:, None] * root[None, :])
        else:
            kern = 1.0
        return tc ** (n + 2.0 * beta) * np.sum(radial_w * kern * sphere_sums,
                                               axis=-1)

    means = _closed_form_means(f, x, (tvals[:, None] * s[None, :]).ravel())
    if means is not None:
        return radial_sum(tvals, sphere_area_const(n) * means.reshape(n_t, n_r))

    n_s = sphere.weights.size
    out = np.empty(n_t)
    chunk = max(1, _MAX_POINTS_PER_CHUNK // (n_r * n_s))
    for start in range(0, n_t, chunk):
        tc = tvals[start:start + chunk]
        pts = (x[None, None, None, :]
               + tc[:, None, None, None] * s[None, :, None, None]
               * sphere.directions[None, None, :, :])
        vals = _field_values(f, pts.reshape(-1, n)).reshape(tc.size, n_r, n_s)
        out[start:start + chunk] = radial_sum(tc, vals @ sphere.weights)
    return out
