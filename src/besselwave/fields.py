"""Smooth spatial data fields with analytically known iterated Laplacians
and spherical means, and the initial-data transformations feeding the
solvers.

Verification accuracy hinges on the data being analytic: every field
family reports exact iterated Laplacians, so residual and oracle gaps
measure the solver, not the data.  Every route reaches the data only
through spherical means M(x, r) of (iterated Laplacians of) the fields,
and every shipped family has them in closed form (``sphere_mean``):

  * Laplacian eigenfields: M = f(x) jbar(nu, sqrt(-eigenvalue) r);
  * polynomials: Pizzetti's finite series
        M = sum_j r^{2j} Laplacian^j f(x) / (2^j j! n(n+2)...(n+2j-2));
  * Gaussians: an I_nu closed form and its width derivatives,

with nu = (n-2)/2 (F. John, *Plane Waves and Spherical Means*, 1955).
There is no other way in: a field family must give ``sphere_mean`` as
it gives ``eval``.  Each closed form reads the data through the field's
own ``eval`` (the centre value, or a Gaussian's amplitude).  Linear
combinations of (possibly Laplacian-shifted) fields are first-class,
because the transformed data sets are exactly such combinations.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, CapabilityError, DomainError
from .special import _horner, _hyp0f1, bessel_clifford, gamma


class SmoothField:
    """Base interface: eval(points, lap) returns Laplacian^lap applied to
    the field, evaluated at an (N, n) array of points."""

    dimension: int
    max_laplacian_order: int | None = None  # None = unbounded

    def eval(self, points: np.ndarray, lap: int = 0) -> np.ndarray:
        raise NotImplementedError

    def sphere_mean(self, x, radii, lap: int = 0) -> np.ndarray:
        """Exact mean of Laplacian^lap f over each sphere S(x, r), r in
        radii, as an array shaped like radii.  x is one centre (n,), or P
        centres (P, n) with radii (P, ...): row p is the call on x[p]."""
        raise NotImplementedError

    def _check_order(self, lap: int):
        if lap < 0:
            raise DomainError("Laplacian order must be non-negative")
        if self.max_laplacian_order is not None and lap > self.max_laplacian_order:
            raise CapabilityError(
                f"{type(self).__name__} supports Laplacian orders up to "
                f"{self.max_laplacian_order}, got {lap}")


class LaplaceEigenfield(SmoothField):
    """Field with Laplacian f = eigenvalue * f, eigenvalue <= 0.

    By the mean-value theorem for the Helmholtz equation its sphere mean
    is the centre value times jbar((n-2)/2, sqrt(-eigenvalue) r).
    """

    eigenvalue: float

    def sphere_mean(self, x, radii, lap=0):
        x, radii = np.asarray(x, dtype=float), np.asarray(radii, dtype=float)
        # one (1, n) point per centre, so k . x rounds as in a lone call
        centre = _per_centre(self.eval(x[..., None, :], lap).reshape(-1),
                             x, radii)
        return centre * bessel_clifford((self.dimension - 2) / 2.0,
                                        math.sqrt(-self.eigenvalue) * radii,
                                        rows=x.ndim == 2)


class PlaneWaveField(LaplaceEigenfield):
    """amplitude * cos(k . x + phase); Laplacian eigenfield with value -|k|^2."""

    def __init__(self, wave_vector, phase: float = 0.0, amplitude: float = 1.0):
        self.wave_vector = np.asarray(wave_vector, dtype=float)
        self.phase = float(phase)
        self.amplitude = float(amplitude)
        self.dimension = self.wave_vector.size
        self.eigenvalue = -float(np.dot(self.wave_vector, self.wave_vector))

    def eval(self, points, lap=0):
        self._check_order(lap)
        points = np.asarray(points, dtype=float)
        return (self.amplitude * self.eigenvalue ** lap
                * np.cos(points @ self.wave_vector + self.phase))


class SineProductField(LaplaceEigenfield):
    """amplitude * prod_i sin(k_i x_i); eigenfield with value -sum k_i^2."""

    def __init__(self, wave_vector, amplitude: float = 1.0):
        self.wave_vector = np.asarray(wave_vector, dtype=float)
        self.amplitude = float(amplitude)
        self.dimension = self.wave_vector.size
        self.eigenvalue = -float(np.dot(self.wave_vector, self.wave_vector))

    def eval(self, points, lap=0):
        self._check_order(lap)
        points = np.asarray(points, dtype=float)
        return (self.amplitude * self.eigenvalue ** lap
                * np.prod(np.sin(points * self.wave_vector), axis=-1))


class PolynomialField(SmoothField):
    """Multivariate polynomial given as {multi-index: coefficient}."""

    def __init__(self, coefficients: dict, dimension: int):
        self.dimension = dimension
        self.coefficients = {tuple(int(a) for a in k): float(c)
                             for k, c in coefficients.items()}
        for k in self.coefficients:
            if len(k) != dimension or any(a < 0 for a in k):
                raise DomainError(f"bad multi-index {k} for dimension {dimension}")

    @staticmethod
    def _laplacian_coeffs(coeffs: dict, dimension: int) -> dict:
        out: dict = {}
        for idx, c in coeffs.items():
            for i in range(dimension):
                a = idx[i]
                if a >= 2:
                    new = list(idx)
                    new[i] = a - 2
                    key = tuple(new)
                    out[key] = out.get(key, 0.0) + c * a * (a - 1)
        return out

    def eval(self, points, lap=0):
        self._check_order(lap)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        coeffs = self.coefficients
        for _ in range(lap):
            coeffs = self._laplacian_coeffs(coeffs, self.dimension)
        vals = np.zeros(points.shape[0])
        for idx, c in coeffs.items():
            term = np.full(points.shape[0], c)
            for i, a in enumerate(idx):
                if a:
                    term = term * points[:, i] ** a
            vals += term
        return vals

    def sphere_mean(self, x, radii, lap=0):
        """Pizzetti's formula; the series ends where Laplacian^j f = 0."""
        self._check_order(lap)
        x = np.asarray(x, dtype=float)
        r2 = np.asarray(radii, dtype=float) ** 2
        n = self.dimension
        degree = max((sum(idx) for idx in self.coefficients), default=0)
        total = np.zeros_like(r2)
        weight = 1.0  # 1 / (2^j j! n (n+2) ... (n+2j-2))
        for j in range(max(0, degree // 2 - lap) + 1):
            if j:
                weight /= 2.0 * j * (n + 2 * j - 2)
            total = total + weight * r2 ** j * _per_centre(
                self.eval(np.atleast_2d(x), lap + j), x, r2)
        return total


class GaussianField(SmoothField):
    """amplitude * exp(-a |x - center|^2), iterated Laplacians up to order 3.

    Laplacian^j has the form q_j(|x-c|^2) exp(-a|x-c|^2) with polynomial
    q_j obtained from the recurrence
        q -> 4 v (q'' - 2 a q' + a^2 q) + 2 n (q' - a q),   v = |x-c|^2.
    The order cap keeps the data provenance analytic rather than falling
    back to finite differences.
    """

    max_laplacian_order = 3

    def __init__(self, width: float, center, amplitude: float = 1.0):
        if width <= 0.0:
            raise DomainError("gaussian width parameter must be positive")
        self.width = float(width)
        self.center = np.asarray(center, dtype=float)
        self.amplitude = float(amplitude)
        self.dimension = self.center.size
        self._radial_polys = self._build_polys()

    def _build_polys(self):
        a, n = self.width, self.dimension
        polys = [np.array([1.0])]  # coefficients of q_j in v, ascending
        for _ in range(self.max_laplacian_order):
            q = polys[-1]
            dq = np.polynomial.polynomial.polyder(q)
            d2q = np.polynomial.polynomial.polyder(q, 2)
            def padd(*terms):
                size = max(len(t) for t in terms)
                out = np.zeros(size)
                for t in terms:
                    out[:len(t)] += t
                return out
            inner = padd(d2q, -2.0 * a * dq, a * a * q)
            shifted = np.concatenate([[0.0], 4.0 * inner])  # times 4 v
            polys.append(padd(shifted, 2.0 * n * dq, -2.0 * a * n * q))
        return polys

    def eval(self, points, lap=0):
        self._check_order(lap)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        v = np.sum((points - self.center) ** 2, axis=-1)
        q = np.polynomial.polynomial.polyval(v, self._radial_polys[lap])
        return self.amplitude * q * np.exp(-self.width * v)

    def sphere_mean(self, x, radii, lap=0):
        """Mean of q_lap(v) exp(-a v), v = |xi-c|^2, over S(x, r).

        With d = |x-c|, P = d^2 + r^2 and Ibar_mu(z) = jbar(mu, i z), the
        mean of v^i exp(-a v) is (-d/da)^i [exp(-a P) Ibar_nu(2 a d r)];
        the derivatives close on Ibar_{nu+k} through
        Ibar_mu'(z) = z Ibar_{mu+1}(z) / (2(mu+1)).  With z = 2 a d r,
        exp(-a P) = exp(-a (d-r)^2) exp(-z), and each exp(-z) Ibar_{nu+k}(z)
        is at most 1, so the product underflows only where the mean itself
        is below the normal range, however far x is from the centre.  The
        amplitude is eval at the centre.
        """
        self._check_order(lap)
        x = np.asarray(x, dtype=float)
        radii = np.asarray(radii, dtype=float)
        a, nu = self.width, (self.dimension - 2) / 2.0
        d = _per_centre(np.array([np.linalg.norm(v) for v in
                                  np.atleast_2d(x) - self.center]), x, radii)
        big_p = d * d + radii * radii
        b2 = 4.0 * d * d * radii * radii       # z = a b, b = 2 d r
        # moments[i]: {(p, k): c} for sum c a^p exp(-a P) Ibar_{nu+k}(a b)
        moments = [{(0, 0): np.ones_like(radii)}]
        for _ in range(lap):
            nxt = defaultdict(float)
            for (p, k), c in moments[-1].items():
                if p:
                    nxt[p - 1, k] -= p * c
                nxt[p, k] += big_p * c
                nxt[p + 1, k + 1] -= b2 * c / (2.0 * (nu + k + 1.0))
            moments.append(nxt)
        z = 2.0 * a * d * radii
        ibar = [_damped_ibar(nu + k, z, x.ndim == 2) for k in range(lap + 1)]
        total = np.zeros_like(radii)
        for coeff, terms in zip(self._radial_polys[lap], moments):
            for (p, k), c in terms.items():
                total = total + coeff * a ** p * c * ibar[k]
        amplitude = self.eval(self.center[None, :])[0]
        return amplitude * np.exp(-a * (d - radii) ** 2) * total


#: Where _damped_ibar switches from the power series to Hankel's expansion.
#: Below it the series' positive terms need at most ~70 Horner steps; above
#: it Hankel's expansion, whose smallest term is ~exp(-2z), reaches 1e-17
#: relative for mu <= 8 in at most 17 terms.
_HANKEL_CUTOFF = 40.0


def _damped_ibar(mu: float, z: np.ndarray, rows: bool = False) -> np.ndarray:
    """exp(-z) * Ibar_mu(z), Ibar_mu(z) = Gamma(mu+1) (z/2)^-mu I_mu(z),
    for z >= 0 and mu > -1; for mu >= -1/2 it lies in (0, 1], so
    nothing overflows.

    Below _HANKEL_CUTOFF (which covers d = 0 and r = 0) the power series
    Ibar_mu(z) = 0F1(; mu+1; z^2/4) goes through the Bessel-Clifford
    series core: its terms are all positive, so nothing cancels however
    large they grow (Ibar_mu(40) ~ 1e16).  From there on Hankel's
    expansion (DLMF 10.40.1)

        I_mu(z) = e^z / sqrt(2 pi z) * sum_k (-1)^k a_k(mu) / z^k,
        a_k(mu) = (4mu^2 - 1^2)(4mu^2 - 3^2)...(4mu^2 - (2k-1)^2) / (k! 8^k),

    is summed by Horner in 1/z up to the first term below 1e-17 at the
    smallest z; its factor e^z cancels exp(-z) exactly.  Its
    exponentially small second part, e^-z I_mu's partner, is below e^-80
    relative and is dropped.  Both branches are accurate to about 1e-13
    relative.  rows: as in ``special.bessel_clifford``.
    """
    large = z >= _HANKEL_CUTOFF
    zs = np.where(large, 0.0, z)
    out = _hyp0f1(mu, 0.25 * zs * zs, rows) * np.exp(-zs)
    # Hankel's term count follows the smallest z of its call: one per row
    for row in (range(len(z)) if rows and large.any() else [...]):
        zl = z[row][large[row]]
        if zl.size:
            out[row][large[row]] = (gamma(mu + 1.0) * (zl / 2.0) ** (-mu)
                                    * _hankel_sum(mu, zl)
                                    / np.sqrt(2.0 * math.pi * zl))
    return out


def _hankel_sum(mu: float, z: np.ndarray) -> np.ndarray:
    """sum_k (-1)^k a_k(mu) / z^k of Hankel's expansion, z >= _HANKEL_CUTOFF.

    At z >= 40 and mu <= 8 the terms fall below 1e-17 within 17 steps;
    for half-integer mu the sum ends by itself.  AccuracyError if the
    expansion needs more than 60 terms (mu far beyond the package's
    orders).
    """
    inv_min = 1.0 / float(np.min(z))
    coeffs, bound = [1.0], 1.0
    while bound > 1e-17 and coeffs[-1] != 0.0:
        k = len(coeffs)
        if k > 60:
            raise AccuracyError(f"Hankel expansion of I_{mu} did not converge")
        coeffs.append(-coeffs[-1] * (4.0 * mu * mu - (2 * k - 1) ** 2) / (8 * k))
        bound = abs(coeffs[-1]) * inv_min ** k
    return _horner(coeffs, 1.0 / z)


def _per_centre(values, x, radii):
    """Values at the centres x against radii: a scalar or a column."""
    if x.ndim == 1:
        return values[0]
    return values.reshape(values.shape + (1,) * (np.ndim(radii) - 1))


@dataclass
class FieldSum(SmoothField):
    """Linear combination sum_i c_i * Laplacian^{s_i} f_i, itself a field.

    A term whose field is itself a FieldSum is replaced by that sum's
    terms (c * c_j, s + s_j, f_j), so the terms are always leaf fields.
    """

    terms: list  # list of (coeff, lap_shift, SmoothField)
    dimension: int = 0

    def __post_init__(self):
        if self.terms and not self.dimension:
            self.dimension = self.terms[0][2].dimension
        flat = []
        for coeff, shift, f in self.terms:
            if isinstance(f, FieldSum):
                flat.extend((coeff * c, shift + s, g) for c, s, g in f.terms)
            else:
                flat.append((coeff, shift, f))
        self.terms = flat

    def eval(self, points, lap=0):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.zeros(points.shape[0])
        for coeff, shift, f in self.terms:
            vals += coeff * f.eval(points, lap + shift)
        return vals

    def sphere_mean(self, x, radii, lap=0):
        """Sum of the terms' closed forms.

        Terms on the same eigenfield f differ only by the factor
        eigenvalue^(lap+shift), so they are merged into one coefficient
        and cost one mean (one Bessel-Clifford call) per f.
        """
        total = np.zeros(np.shape(radii))
        eigen = {}  # eigenfield (hashed by identity) -> summed coefficient
        for coeff, shift, f in self.terms:
            if isinstance(f, LaplaceEigenfield):
                eigen[f] = (eigen.get(f, 0.0)
                            + coeff * f.eigenvalue ** (lap + shift))
            else:
                total = total + coeff * f.sphere_mean(x, radii, lap + shift)
        for f, coeff in eigen.items():
            total = total + coeff * f.sphere_mean(x, radii)
        return total


def zero_field(dimension: int) -> FieldSum:
    return FieldSum([], dimension)


def coefficient_a(j: int, alpha: float) -> float:
    """a_j = Gamma(j + 1/2 + alpha) / Gamma(j + 1/2)."""
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    if j < 0:
        raise DomainError("index must be non-negative")
    return gamma(j + 0.5 + alpha) / gamma(j + 0.5)


@dataclass
class TransformedData:
    """Initial data after the two transformation layers.

    capital_phi[k] are the wave-problem initial values U^(2k)(0), and
    f[k] the reduced-system data built from their iterated Laplacians.
    Both lists have length m; f[0] is capital_phi[0] identically.
    """

    capital_phi: list
    f: list

    @property
    def m(self) -> int:
        return len(self.f)


def _capital_transform(base: list, m: int, lam: float, alpha: float) -> list:
    out = []
    for k in range(m):
        terms = []
        for j in range(k + 1):
            c = coefficient_a(j, alpha) * math.comb(k, j) * lam ** (2 * (k - j))
            if c != 0.0:
                terms.append((c, 0, base[j]))
        out.append(FieldSum(terms, base[0].dimension))
    return out


def _reduced_data(capital: list, m: int) -> list:
    # Expanding (d^2/dt^2 - Laplacian)^k at t = 0 pairs Laplacian^{k-j}
    # with the 2j-th time derivative and the sign (-1)^{k-j}; the flat
    # single-mode solution pins the sign convention down uniquely.
    out = []
    for k in range(m):
        terms = []
        for j in range(k + 1):
            sign = -1.0 if (k - j) % 2 else 1.0
            for c, s, f in capital[j].terms:
                terms.append((sign * math.comb(k, j) * c, s + (k - j), f))
        out.append(FieldSum(terms, capital[0].dimension))
    return out


def build_transformed_data(phi: list, m: int, lam: float,
                           alpha: float) -> TransformedData:
    """Build Phi_k and the reduced-system data f_k:

    Phi_k = sum_j a_j C(k,j) lam^{2(k-j)} phi_j, and
    f_k = sum_j (-1)^{k-j} C(k,j) Laplacian^{k-j} Phi_j.

    Only even-derivative data enter: the weighted odd-derivative problem
    reaches this through the complementary parameter
    (``build_psi_star_data``).
    """
    if len(phi) != m:
        raise DomainError(f"need {m} phi fields, got {len(phi)}")
    capital = _capital_transform(phi, m, lam, alpha)
    return TransformedData(capital_phi=capital, f=_reduced_data(capital, m))


def psi_star_from_psi(psi: list, m: int, alpha: float) -> list:
    """Invert the condition map psi_k = prod_{j=1}^k (1 - alpha/j) psi*_k."""
    out = []
    for k in range(m):
        prod = 1.0
        for j in range(1, k + 1):
            prod *= 1.0 - alpha / j
        if prod == 0.0:
            raise DomainError(f"condition map degenerate at k={k}, alpha={alpha}")
        out.append(FieldSum([(1.0 / prod, 0, psi[k])], psi[k].dimension))
    return out


def build_psi_star_data(psi_star: list, m: int, lam: float,
                        alpha: float) -> TransformedData:
    """Data combinations for the odd-initial-condition problem.

    The solution with weighted-odd data at parameter alpha is
    t^{1-2 alpha} times the even-data solution at the complementary
    parameter 1 - alpha, so all combinations here are built at
    alpha' = 1 - alpha: the Pochhammer map from Bessel-operator traces
    back to plain even derivatives, the 1/(1-2 alpha) normalisation from
    the weighted first-derivative condition, and the usual capital
    transform.  The spatial operator in the reduced data is the
    Laplacian, mirroring the even-data construction.  The callers refuse
    alpha outside (0, 1/2), the route's validity window.
    """
    alpha_c = 1.0 - alpha
    scale = 1.0 / (1.0 - 2.0 * alpha) if alpha != 0.5 else math.inf
    phi_equiv = []
    for k in range(m):
        # (B-operator data) -> (plain even-derivative data) Pochhammer map
        # at the complementary parameter, then the weighted normalisation.
        num = 1.0
        den = 1.0
        for i in range(k):
            num *= 0.5 + i
            den *= (alpha_c + 0.5) + i
        phi_equiv.append(FieldSum([(scale * num / den, 0, psi_star[k])],
                                  psi_star[k].dimension))
    return build_transformed_data(phi_equiv, m, lam, alpha_c)
