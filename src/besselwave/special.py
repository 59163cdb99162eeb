"""Scalar special functions used by every kernel in the package.

The central object is the Bessel-Clifford function

    jbar(nu, z) = Gamma(nu+1) * (z/2)**(-nu) * J_nu(z)
               = sum_k (-z^2/4)^k / ((nu+1)_k k!)  =  0F1(; nu+1; -z^2/4),

an entire function of z normalised so that jbar(nu, 0) = 1 (Watson,
*Treatise on the Theory of Bessel Functions*, 3.1).  Its modified
counterpart Ibar_nu(z) = 0F1(; nu+1; z^2/4) shares the coefficients
c_k = 1/((nu+1)_k k!), so both are summed by one core, ``_hyp0f1``:

  * the term count K is fixed once per call from the largest |w| in the
    argument array: the smallest K with |c_K| max|w|^K <= term_tolerance.
    One scalar recurrence yields K and c_0..c_K together, which costs
    less than looking a table up;
  * the polynomial sum_{k<=K} c_k w^k is evaluated by in-place Horner,
    two array operations per term.

The tolerance is absolute.  Nothing is lost against a test relative to
the partial sum near the zeros of jbar: there the alternating series
already cancels, and its rounding error of about eps times the largest
term (|c_k| |w|^k peaks near k ~ |z|/2) dominates any truncation error
below 1e-16.  That cancellation also caps the series: at |z| = 20 the
largest term is ~1e7, which eats about seven digits.  Above a cutoff the
evaluation therefore routes through the scaled classical Bessel function
instead, which keeps the identity checks at the 1e-12 level across the
documented range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv as _bessel_jv

from .errors import AccuracyError, DomainError

#: Largest |z| the evaluation is documented for.
MAX_ARGUMENT = 50.0

#: Below this |z| the series is used (largest term ~1e2, full accuracy).
SERIES_CUTOFF = 8.0

DEFAULT_MAX_TERMS = 200
DEFAULT_TERM_TOL = 1e-16


def gamma(x: float) -> float:
    """Euler gamma function (thin wrapper, kept as the package-wide entry
    point so kernels never import math directly for it)."""
    return math.gamma(x)


@dataclass(frozen=True)
class BesselCliffordParams:
    """Evaluation parameters for the Bessel-Clifford series.

    order must satisfy order > -1 (so (order+1)_k never hits zero).  The
    series sums the terms k = 0..K, where K is the smallest count whose
    term bound |c_K| max|w|^K (w = -z^2/4 over the whole argument array)
    is at most term_tolerance; the tolerance is absolute, not relative to
    the partial sum.  AccuracyError if K would exceed max_terms.
    """

    order: float
    max_terms: int = DEFAULT_MAX_TERMS
    term_tolerance: float = DEFAULT_TERM_TOL

    def __post_init__(self):
        if self.order <= -1.0:
            raise DomainError(f"Bessel-Clifford order must be > -1, got {self.order}")
        if self.max_terms < 1:
            raise DomainError("max_terms must be a positive integer")
        if self.term_tolerance <= 0.0:
            raise DomainError("term_tolerance must be positive")


def _hyp0f1(nu: float, w: np.ndarray, max_terms: int = DEFAULT_MAX_TERMS,
            term_tolerance: float = DEFAULT_TERM_TOL) -> np.ndarray:
    """0F1(; nu+1; w) = sum_k c_k w^k, c_k = 1/((nu+1)_k k!), for nu > -1
    and a float array w with |w| <= MAX_ARGUMENT^2 / 4.

    One term count K for the whole array (see the module docstring).  The
    term bound |c_k| max|w|^k rises to one peak and then falls; with
    |w| <= 625 and nu + 1 >= 2^-53 the peak stays below 1e40, so the
    recurrence cannot overflow.  AccuracyError if K would exceed
    max_terms.
    """
    w_max = float(np.max(np.abs(w), initial=0.0))
    coeffs = [1.0]
    bound = 1.0
    while bound > term_tolerance:
        k = len(coeffs)
        if k > max_terms:
            raise AccuracyError(
                f"Bessel-Clifford series did not converge in {max_terms} terms")
        step = 1.0 / ((nu + k) * k)
        coeffs.append(coeffs[-1] * step)
        bound *= w_max * step
    total = np.full_like(w, coeffs.pop())
    for c in reversed(coeffs):
        total *= w
        total += c
    return total


def bessel_clifford(nu: float, z, *, params: BesselCliffordParams | None = None):
    """Evaluate jbar(nu, z): series for small |z|, scaled J_nu beyond.

    Accepts a scalar or an ndarray argument.  Passing explicit params
    forces the series branch everywhere (series parameters would be
    meaningless otherwise).  Raises DomainError for nu <= -1 or a
    non-finite z, AccuracyError for |z| > MAX_ARGUMENT or if the series
    needs more than max_terms terms.
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

    if params is not None:
        out = _hyp0f1(nu, -0.25 * za * za, params.max_terms,
                      params.term_tolerance)
    elif z_max <= SERIES_CUTOFF:
        out = _hyp0f1(nu, -0.25 * za * za)
    else:
        out = np.empty_like(za)
        big = za > SERIES_CUTOFF
        zb = za[big]
        out[big] = gamma(nu + 1.0) * (zb / 2.0) ** (-nu) * _bessel_jv(nu, zb)
        zs = za[~big]
        out[~big] = _hyp0f1(nu, -0.25 * zs * zs)
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
    if p > 150:
        raise DomainError("(2p-1)!! exceeds float range for p > 150")
    result = 1
    for j in range(1, 2 * p, 2):
        result *= j
    return result


def sphere_area_const(n: int) -> float:
    """Surface area of the unit sphere in R^n: omega_n = 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)
