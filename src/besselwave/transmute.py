"""Fractional-order transmutation operators and their exact constants.

The generalized operator with Bessel-Clifford kernel,

    J_lam(eta, alpha) f(x) = (2 x^{-2(alpha+eta)} / Gamma(alpha))
        * int_0^x t^{2 eta + 1} (x^2 - t^2)^{alpha-1}
                  jbar(alpha-1, lam sqrt(x^2 - t^2)) f(t) dt,

reduces at lam = 0 to the classical fractional integral with kernel
(x^2 - t^2)^{alpha-1} t^{2 eta + 1}.  Both are evaluated through the
substitution t = x*s, which maps the singular kernel onto the weighted
radial rule.

The module also carries the exact-rational constant tables used by the
derivative identities (a_mj, b_mj) and by the radial reduction of
spherical means (A_j^p), plus a nested finite-difference application of
the singular operator d^2/dt^2 + ((2 eta + 1)/t) d/dt for identity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ContractError, DomainError
from .quadrature import RadialRule
from .special import bessel_clifford, double_factorial_odd, gamma


@dataclass(frozen=True)
class EKParams:
    """Order parameters of the generalized operator."""

    eta: float
    alpha: float
    lam: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if self.eta < -0.5:
            raise DomainError(f"eta must be >= -1/2, got {self.eta}")


def lowndes_apply(f, p: EKParams, x: float, radial: RadialRule) -> float:
    """Apply the Bessel-Clifford-kernel operator to f at x > 0.

    The radial rule must carry the weight exponent alpha - 1; the factor
    s^{2 eta + 1} stays in the integrand (smooth for eta >= -1/2).
    """
    return float(lowndes_apply_many(f, p, np.array([x]), radial)[0])


def lowndes_apply_many(f, p: EKParams, xvals: np.ndarray,
                       radial: RadialRule) -> np.ndarray:
    """Vectorised operator application over a batch of x > 0.

    f must accept an ndarray of evaluation points of shape (X, S) or
    a flat array and broadcast elementwise.
    """
    if radial.beta != p.alpha - 1.0:
        raise ContractError(
            f"radial rule carries beta={radial.beta}, operator needs "
            f"alpha-1={p.alpha - 1.0}")
    xvals = np.asarray(xvals, dtype=float)
    if np.any(xvals <= 0.0):
        raise DomainError("operator evaluation needs x > 0")
    s = radial.nodes
    args = xvals[:, None] * s[None, :]
    fv = np.asarray(f(args), dtype=float)
    if p.lam != 0.0:
        kern = bessel_clifford(p.alpha - 1.0,
                               p.lam * xvals[:, None] * np.sqrt(1.0 - s * s))
    else:
        kern = 1.0
    w = radial.weights * s ** (2.0 * p.eta + 1.0)
    return (2.0 / gamma(p.alpha)) * np.sum(w * kern * fv, axis=-1)


def erdelyi_kober_apply(f, eta: float, alpha: float, x: float,
                        radial: RadialRule) -> float:
    """Classical fractional integral; the lam = 0 case of lowndes_apply."""
    return lowndes_apply(f, EKParams(eta=eta, alpha=alpha, lam=0.0), x, radial)


def bessel_op_apply(f, eta: float, m: int, x: float, h: float) -> float:
    """Numeric [d^2/dt^2 + ((2 eta + 1)/t) d/dt]^m f(x) by nested central
    differences of step h; O(h^2) accurate.  Requires x > m*h."""
    return shifted_bessel_apply(f, eta, 0.0, m, x, h)


def shifted_bessel_apply(f, eta: float, lam: float, m: int, x: float,
                         h: float) -> float:
    """Numeric [B_eta + lam^2]^m f(x), nested central differences; the
    left side of the intertwining identity."""
    if m < 0:
        raise DomainError("operator power must be non-negative")
    if h <= 0.0:
        raise DomainError("step must be positive")
    if m > 0 and x <= m * h:
        raise ContractError(f"stencil of half-width {m * h} leaves t > 0 at x={x}")

    def apply_once(g):
        def bg(t):
            t = np.asarray(t, dtype=float)
            up, um, u0 = g(t + h), g(t - h), g(t)
            return (up - 2.0 * u0 + um) / h ** 2 \
                + (2.0 * eta + 1.0) / t * (up - um) / (2.0 * h) \
                + lam ** 2 * u0
        return bg

    g = f
    for _ in range(m):
        g = apply_once(g)
    return float(np.asarray(g(np.asarray(x, dtype=float))).reshape(-1)[0])


def intertwining_gap(p: EKParams, f, bf, m: int, x: float, h: float,
                     radial: RadialRule) -> float:
    """|[B_{eta+alpha} + lam^2]^m (J f)(x) - J([B_eta]^m f)(x)|.

    f and bf are vectorised callables; bf must be [B_eta]^m f (analytic
    or itself FD-based).  Decays O(h^2) when both are exact.
    """
    def jf(xs):
        return lowndes_apply_many(f, p, np.atleast_1d(np.asarray(xs, float)),
                                  radial).reshape(np.shape(xs))

    lhs = shifted_bessel_apply(jf, p.eta + p.alpha, p.lam, m, x, h)
    rhs = lowndes_apply(bf, p, x, radial)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class RecurrenceTable:
    """Exact-rational constants a_mj, b_mj of the derivative identities.

    Seeded by a_00 = 1, b_00 = 1/2 and closed by
        b_mj      = a_mj / 2 + 2 (j+1) a_m(j+1),
        a_(m+1)j  = b_m(j-1) / 2 + (2j+1) b_mj,
        a_(m+1)0  = b_m0,
    with all entries zero for j > m.  The printed recurrence leaves the
    top corner a_(m+1)(m+1) out of its displayed index range; the only
    closure consistent with b_mj = 0 for j > m is the j = m+1 instance of
    the same relation, a_(m+1)(m+1) = b_mm / 2, which is what the table
    uses.
    """

    m_max: int
    a_table: tuple
    b_table: tuple

    def a(self, m: int, j: int) -> Fraction:
        if j > m:
            return Fraction(0)
        return self.a_table[m][j]

    def b(self, m: int, j: int) -> Fraction:
        if j > m:
            return Fraction(0)
        return self.b_table[m][j]


def recurrence_constants(m_max: int) -> RecurrenceTable:
    if m_max < 0:
        raise DomainError("m_max must be >= 0")
    a = [[Fraction(1)]]
    b = []
    for m in range(m_max + 1):
        row_a = a[m]
        row_b = [row_a[j] / 2
                 + 2 * (j + 1) * (row_a[j + 1] if j + 1 <= m else Fraction(0))
                 for j in range(m + 1)]
        b.append(row_b)
        if m < m_max:
            nxt = [row_b[0]]
            for j in range(1, m + 2):
                left = row_b[j - 1] / 2
                right = (2 * j + 1) * (row_b[j] if j <= m else Fraction(0))
                nxt.append(left + right)
            a.append(nxt)
    table = RecurrenceTable(m_max=m_max,
                            a_table=tuple(tuple(r) for r in a),
                            b_table=tuple(tuple(r) for r in b))
    for m in range(1, m_max + 1):
        expected = Fraction(double_factorial_odd(m), 2 ** m)
        if table.a(m, 0) != expected:
            raise AssertionError("recurrence table failed its closed form")
    return table


def lemma1_constants(p: int) -> list:
    """Integer coefficients A_j^p with

        (1/r d/dr)^{p-1} (r^{2p-1} w) = sum_{j=0}^{p-1} A_j^p r^{j+1} w^(j),

    computed by symbolic recursion on terms c * r^e * w^(j).
    A_0^p = (2p-1)!! always.
    """
    if p < 1:
        raise DomainError("p must be >= 1")
    terms = {(2 * p - 1, 0): Fraction(1)}  # (power of r, derivative order)
    for _ in range(p - 1):
        new: dict = {}
        for (e, j), c in terms.items():
            if e != 0:
                key = (e - 2, j)
                new[key] = new.get(key, Fraction(0)) + c * e
            key = (e - 1, j + 1)
            new[key] = new.get(key, Fraction(0)) + c
        terms = new
    out = [0] * p
    for (e, j), c in terms.items():
        if e != j + 1 or c.denominator != 1:
            raise AssertionError("radial reduction lost its expected shape")
        out[j] = int(c)
    if out[0] != double_factorial_odd(p):
        raise AssertionError("leading radial constant mismatch")
    return out
