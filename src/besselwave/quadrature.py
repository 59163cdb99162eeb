"""Weighted radial quadrature, spherical means and ball kernel integrals.

All solution formulas share one building block: integrals over the ball
|xi - x| < t of a smooth field against the kernel

    (t^2 - |xi - x|^2)^beta * jbar(nu, lam * sqrt(t^2 - |xi - x|^2)).

The substitution r = t*s turns the integral into

    omega_n t^{n+2 beta} int_0^1 (1-s^2)^beta s^{n-1}
                         jbar(nu, lam t sqrt(1-s^2)) M_f(x, t s) ds,

where M_f(x, r) is the mean of f over the sphere S(x, r).  The weight
(1 - s^2)^beta is singular at s = 1 for beta in (-1, 0); a Gauss rule
with respect to it absorbs the singularity exactly.  Its recurrence
coefficients come from the exact moments by the Chebyshev algorithm in
mpmath, followed by Golub-Welsch.

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
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_legendre

from .errors import ContractError, DomainError
from .special import bessel_clifford, sphere_area_const

# Chunk limit for batched fallback field evaluations (number of space points).
_MAX_POINTS_PER_CHUNK = 4_000_000


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


@lru_cache(maxsize=128)
def _radial_rule_cached(beta: float, order: int) -> RadialRule:
    # Recurrence coefficients of the orthogonal polynomials for the weight
    # (1-s^2)^beta on (0,1), from the exact moments
    #     mu_j = B((j+1)/2, beta+1) / 2
    # via the Chebyshev algorithm.  The raw-moment map is exponentially
    # ill-conditioned, so the algorithm runs in mpmath with precision
    # scaled to the order; the final Golub-Welsch step is float64.
    import mpmath as mp

    with mp.workdps(50 + 2 * order):
        mu = [mp.beta(mp.mpf(j + 1) / 2, mp.mpf(beta) + 1) / 2
              for j in range(2 * order)]
        alpha_mp = [mu[1] / mu[0]]
        beta_mp = [mu[0]]
        sigma_prev = {l: mp.mpf(0) for l in range(2 * order)}
        sigma_cur = {l: mu[l] for l in range(2 * order)}
        for k in range(1, order):
            sigma_new = {}
            for l in range(k, 2 * order - k):
                sigma_new[l] = (sigma_cur[l + 1]
                                - alpha_mp[k - 1] * sigma_cur[l]
                                - beta_mp[k - 1] * sigma_prev[l])
            alpha_mp.append(sigma_new[k + 1] / sigma_new[k]
                            - sigma_cur[k] / sigma_cur[k - 1])
            beta_mp.append(sigma_new[k] / sigma_cur[k - 1])
            sigma_prev, sigma_cur = sigma_cur, sigma_new
        a = np.array([float(v) for v in alpha_mp])
        b = np.array([float(v) for v in beta_mp])

    if order == 1:
        nodes = a.copy()
        weights = np.array([b[0]])
    else:
        evals, evecs = eigh_tridiagonal(a, np.sqrt(b[1:]))
        nodes = evals
        weights = b[0] * evecs[0, :] ** 2

    idx = np.argsort(nodes)
    nodes = nodes[idx]
    weights = weights[idx]
    if np.any(nodes <= 0.0) or np.any(nodes >= 1.0) or np.any(weights <= 0.0):
        raise DomainError(
            f"radial rule construction failed for beta={beta}, order={order}")
    return RadialRule(beta=beta, order=order, nodes=nodes, weights=weights)


def make_radial_rule(beta: float, order: int) -> RadialRule:
    """Gauss rule for weight (1-s^2)^beta on (0,1); cached immutably."""
    if beta <= -1.0:
        raise DomainError(f"radial weight exponent must be > -1, got {beta}")
    if order < 1:
        raise DomainError("radial order must be >= 1")
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
        mu, wmu = roots_legendre(order)
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
