"""Scalar special functions used by every kernel in the package.

The central object is the Bessel-Clifford function

    jbar(nu, z) = Gamma(nu+1) * (z/2)**(-nu) * J_nu(z)
               = sum_k (-z^2/4)^k / ((nu+1)_k k!)  =  0F1(; nu+1; -z^2/4),

an entire function of z normalised so that jbar(nu, 0) = 1 (Watson,
*Treatise on the Theory of Bessel Functions*, 3.1).  Its modified
counterpart Ibar_nu(z) = 0F1(; nu+1; z^2/4) shares the coefficients
c_k = 1/((nu+1)_k k!), so both are summed by one core, ``_hyp0f1``:

  * the term count K is fixed once per call from the largest |w| in the
    argument array: the smallest K with |c_K| max|w|^K <= _TERM_TOL.
    One scalar recurrence yields K and c_0..c_K together, which costs
    less than looking a table up;
  * the polynomial sum_{k<=K} c_k w^k is evaluated by in-place Horner,
    two array operations per term;
  * with ``rows`` (a batch over the leading axis) K is fixed per row, and
    zeros pad each row's coefficients: Horner keeps a row's total exactly
    0 up to its own leading term, so a row gets the bits it gets alone.

The tolerance is absolute.  Nothing is lost against a test relative to
the partial sum near the zeros of jbar: there the alternating series
already cancels, and its rounding error of about eps times the largest
term (|c_k| |w|^k peaks near k ~ |z|/2) dominates any truncation error
below 1e-16.  That cancellation also caps the series: at |z| = 20 the
largest term is ~1e7, which eats about seven digits.

Above SERIES_CUTOFF the kernel is Poisson's integral (DLMF 10.9.4),
which has no cancellation to fight.  With u = s^2 it reads

    jbar(nu, z) = int_0^1 cos(z sqrt(u)) u^(-1/2) (1-u)^(nu-1/2) du
                  / B(1/2, nu+1/2),                       nu > -1/2,

so jbar(nu, z) = sum_i w_i cos(z s_i), s_i = sqrt(u_i), where (u_i, w_i)
is the Gauss-Jacobi rule for that weight, normalised to sum w_i = 1.
Golub-Welsch builds it from the closed-form Jacobi recurrence, once per
nu.  An N-node rule in u is a 2N-node Gauss-Gegenbauer rule in s, exact
for polynomials of degree < 4N in s.  Its error is therefore at most
twice the best uniform approximation error of cos(z s) on [-1, 1] by
such polynomials, about 4 |J_4N(z)| (the Chebyshev coefficients of
cos(z s) are 2 J_2k(z)).  At |z| = MAX_ARGUMENT = 50 that is 6e-39 for
N = 32 and 8e-19 for N = 24, so 32 nodes are exact to roundoff, about
eps per node, with room to spare.

For nu in (-1, -1/2] the weight is not integrable.  There the rule at
nu + 1 gives jbar(nu) = jbar(nu+1) + z/(2(nu+1)) d/dz jbar(nu+1), from
J_nu = (nu+1)/z J_{nu+1} + J'_{nu+1} (Watson 3.2):

    jbar(nu, z) = sum_i w_i [cos(z s_i) - z s_i sin(z s_i) / (2(nu+1))].

The factor z/(2(nu+1)) amplifies the rule's roundoff, to about 4e-13 at
nu = -0.9 for |z| <= 50.  The contiguous relation through jbar(nu+2)
amplifies it by z^2/(4(nu+1)(nu+2)) instead: 4.9e-11 at nu = -0.9.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError

#: Largest |z| the evaluation is documented for.
MAX_ARGUMENT = 50.0

#: Below this |z| the series is used (largest term ~1e2, full accuracy).
SERIES_CUTOFF = 8.0

#: Absolute tolerance of the series' last term bound, and the term count
#: past which the series gives up with AccuracyError.
_TERM_TOL = 1e-16
_MAX_TERMS = 200

#: Largest p of double_factorial_odd: (2p-1)!! stays below the float range.
MAX_DOUBLE_FACTORIAL_P = 150

#: Nodes of the Poisson-integral rule: its Gauss error at |z| = MAX_ARGUMENT
#: is 6e-39 with 32 nodes and 8e-19 with 24 (module docstring).
_POISSON_NODES = 32


def gamma(x: float) -> float:
    """Euler gamma function (thin wrapper, kept as the package-wide entry
    point so kernels never import math directly for it)."""
    return math.gamma(x)


def rgamma(x: float) -> float:
    """1/Gamma(x): 0 at the poles x = 0, -1, -2, ... and where Gamma overflows."""
    try:
        return 1.0 / math.gamma(x)
    except (ValueError, OverflowError):
        return 0.0


def _hyp0f1(nu: float, w: np.ndarray, rows: bool = False) -> np.ndarray:
    """0F1(; nu+1; w) = sum_k c_k w^k, c_k = 1/((nu+1)_k k!), for nu > -1
    and a float array w with |w| <= MAX_ARGUMENT^2 / 4.

    One term count K for the whole array, or per row (see the module
    docstring).  The term bound |c_k| max|w|^k rises to one peak and then
    falls; with |w| <= 625 and nu + 1 >= 2^-53 the peak stays below 1e40,
    so the recurrence cannot overflow.  AccuracyError if K would exceed
    _MAX_TERMS.
    """
    w_max = float(np.max(np.abs(w), initial=0.0))
    coeffs = [1.0]
    bound = 1.0
    while bound > _TERM_TOL:
        k = len(coeffs)
        if k > _MAX_TERMS:
            raise AccuracyError(
                f"Bessel-Clifford series did not converge in {_MAX_TERMS} terms")
        step = 1.0 / ((nu + k) * k)
        coeffs.append(coeffs[-1] * step)
        bound *= w_max * step
    if rows:  # the same bound products per row; its K is their first <= tol
        steps = np.array([1.0 / ((nu + k) * k) for k in range(1, len(coeffs))])
        row_max = np.max(np.abs(w).reshape(len(w), -1), axis=1, initial=0.0)
        bounds = np.cumprod(row_max[:, None] * steps, axis=1)
        last = np.argmax(bounds <= _TERM_TOL, axis=1) + 1
        keep = np.arange(len(coeffs))[:, None] <= last
        coeffs = list((np.array(coeffs)[:, None] * keep).reshape(
            (len(coeffs), len(w)) + (1,) * (w.ndim - 1)))
    return _horner(coeffs, w)


def _horner(coeffs: list, w: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] w^k by in-place Horner, two array operations per term."""
    total = np.full_like(w, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        total *= w
        total += c
    return total


@lru_cache(maxsize=128)
def _poisson_rule(nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_i = sqrt(u_i) and weights (sum 1) of the Gauss-Jacobi rule
    for u^(-1/2) (1-u)^(nu-1/2) on (0, 1), nu > -1/2.

    Golub-Welsch on the Jacobi recurrence with a = nu - 1/2, b = -1/2,
    mapped from (-1, 1) to (0, 1).  Every factor is written in nu itself:
    a + 1 = nu + 1/2 is exact as nu -> -1/2, where a would round to -1, and
    the k = 1 off-diagonal has the removable 0/0 at nu = 0 cancelled.
    """
    k = np.arange(1.0, _POISSON_NODES)
    m = 2.0 * k + nu - 1.0                     # 2k + a + b
    diag = np.r_[0.5 / (nu + 1.0), 0.5 + 0.5 * nu * (1.0 - nu) / (m * (m + 2.0))]
    k, m = k[1:], m[1:]
    off2 = np.r_[2.0 * (nu + 0.5) / ((nu + 1.0) ** 2 * (nu + 2.0)),
                 4.0 * k * (k + nu - 0.5) * (k - 0.5) * (k + nu - 1.0)
                 / (m * m * (m + 1.0) * (m - 1.0))]
    u, vecs = np.linalg.eigh(np.diag(diag) + np.diag(0.5 * np.sqrt(off2), -1))
    nodes, weights = np.sqrt(np.maximum(u, 0.0)), vecs[0] ** 2
    weights /= weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False  # cached, shared
    return nodes, weights


def _poisson_jbar(nu: float, z: np.ndarray) -> np.ndarray:
    """jbar(nu, z) by the Poisson-integral rule (module docstring), nu > -1.

    Rows are summed by np.sum rather than a matrix product, so that an
    argument's value does not depend on the array it arrives in.
    """
    if nu > -0.5:
        s, w = _poisson_rule(nu)
        return np.sum(w * np.cos(z[:, None] * s), axis=-1)
    s, w = _poisson_rule(nu + 1.0)
    zs = z[:, None] * s
    return np.sum(w * (np.cos(zs) - zs * np.sin(zs) / (2.0 * (nu + 1.0))),
                  axis=-1)


def bessel_clifford(nu: float, z, rows: bool = False):
    """Evaluate jbar(nu, z): series for small |z|, Poisson's integral beyond.

    Accepts a scalar or an ndarray argument, with rows a batch over its
    leading axis (module docstring).  Raises DomainError for nu <= -1 or
    a non-finite z, AccuracyError for |z| > MAX_ARGUMENT or if the series
    needs more than _MAX_TERMS terms.
    """
    if not (nu > -1.0 and math.isfinite(nu)):
        raise DomainError(
            f"Bessel-Clifford order must be finite and > -1, got {nu}")
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    za = np.abs(np.atleast_1d(z_arr))  # jbar is even in z
    z_max = float(np.max(za, initial=0.0))
    if not math.isfinite(z_max):
        raise DomainError("Bessel-Clifford argument must be finite")
    if z_max > MAX_ARGUMENT:
        raise AccuracyError(
            f"|z| > {MAX_ARGUMENT} is outside the documented range")

    if z_max <= SERIES_CUTOFF:
        out = _hyp0f1(nu, -0.25 * za * za, rows)
    else:  # zeros keep the series' array, and its rows, whole
        big = za > SERIES_CUTOFF
        zs = np.where(big, 0.0, za)
        out = _hyp0f1(nu, -0.25 * zs * zs, rows)
        out[big] = _poisson_jbar(nu, za[big])
    return float(out[0]) if scalar else out


def pochhammer(x: float, k: int) -> float:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1); (x)_0 = 1."""
    if k < 0:
        raise DomainError("pochhammer order must be non-negative")
    result = 1.0
    for i in range(k):
        result *= x + i
    return result


def double_factorial_odd(p: int) -> int:
    """(2p-1)!! = 1*3*5*...*(2p-1), with the empty product (p = 0) equal to 1.

    Exact integer arithmetic, so there is no overflow; very large p is
    rejected only to keep downstream float conversion meaningful.
    """
    if p < 0:
        raise DomainError("p must be non-negative")
    if p > MAX_DOUBLE_FACTORIAL_P:
        raise DomainError(f"(2p-1)!! exceeds float range for "
                          f"p > {MAX_DOUBLE_FACTORIAL_P}")
    result = 1
    for j in range(1, 2 * p, 2):
        result *= j
    return result


def sphere_area_const(n: int) -> float:
    """Surface area of the unit sphere in R^n: omega_n = 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)
