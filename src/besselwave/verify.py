"""Independent verification of computed solutions.

Nothing here reuses the solver's quadrature identities: the iterated
operator is applied by nested second-order finite-difference stencils,
and initial conditions are recovered by Richardson extrapolation of
small-t derivative ladders.  Agreement is therefore evidence, not
circularity.
Each residual step is one ``profile`` call on the whole stencil
(``stencil_batch``), and all phi ladders at one x sample share one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .errors import ContractError, DomainError

#: minimum t, in units of m*h, for the nested residual stencil; keeps the
#: drift coefficient (2 gamma + 1)/t well away from its singularity.
MIN_T_FACTOR = 10.0


@dataclass
class VerificationReport:
    ic_errors: dict = dc_field(default_factory=dict)
    two_path_gap: float | None = None
    oracle_gap: float | None = None
    details: dict = dc_field(default_factory=dict)
    flags: list = dc_field(default_factory=list)


@lru_cache(maxsize=None)
def _laplacian_power(n: int, j: int) -> dict:
    """Integer coefficients {i_x: c} of (h^2 Delta_h)^j on the n-d grid."""
    if j == 0:
        return {(0,) * n: 1}
    out: dict = {}
    for ix, c in _laplacian_power(n, j - 1).items():
        out[ix] = out.get(ix, 0) - 2 * n * c
        for d in range(n):
            for step in (1, -1):
                jx = ix[:d] + (ix[d] + step,) + ix[d + 1:]
                out[jx] = out.get(jx, 0) + c
    return out


def residual_stencil(m: int, n: int, t: float, h: float, gamma_param: float,
                     lam: float) -> dict:
    """Coefficients of the m-fold nested second-order stencil for the
    operator  L = d^2/dt^2 + ((2 gamma + 1)/t) d/dt - Laplacian + lam^2.

    Keys are (i_t, i_x) grid offsets (i_x an n-tuple); the represented
    functional is  sum c * u(x + h*i_x, t + h*i_t)  ~ (L^m u)(x, t),
    accurate to O(h^2).  The drift coefficient is evaluated at the grid
    point the stencil acts on, so composition stays consistent.  The
    t-part T_h and the grid Laplacian Delta_h commute, so L_h^m =
    sum_j C(m, j) (T_h + lam^2)^(m-j) (-Delta_h)^j: the x-part is a cached
    integer table, and only the 1-D t-part is built, in the arithmetic of
    t and h (float or mpmath).
    """
    inv_h2, half_drift = 1.0 / h ** 2, (2.0 * gamma_param + 1.0) / (2.0 * h)
    centre = lam ** 2 - 2.0 * inv_h2
    t_parts = [{0: 1.0}]  # (T_h + lam^2)^p as {i_t: c}, p = 0..m
    for _ in range(m):
        new: dict = {}
        for it, c in t_parts[-1].items():
            b = half_drift / (t + it * h)
            for jt, cj in ((it + 1, c * (inv_h2 + b)),
                           (it - 1, c * (inv_h2 - b)), (it, c * centre)):
                new[jt] = new[jt] + cj if jt in new else cj
        t_parts.append(new)
    stencil: dict = {}
    for j in range(m + 1):
        scale = math.comb(m, j) * (-1) ** j * inv_h2 ** j
        for it, ct in t_parts[m - j].items():
            sc = scale * ct
            for ix, cx in _laplacian_power(n, j).items():
                term = sc * cx
                key = (it, ix)
                stencil[key] = stencil[key] + term if key in stencil else term
    return stencil


def stencil_batch(m: int, x, t, h, gamma_param, lam):
    """The residual stencil at (x, t) as one profile batch: (E, n) points
    x + h*i_x, (E, 1) times t + h*i_t in the arithmetic of t and h, and
    the E coefficients.  ContractError unless t > MIN_T_FACTOR * m * h."""
    if t <= MIN_T_FACTOR * m * h:
        raise ContractError(
            f"residual stencil needs t > {MIN_T_FACTOR * m * h} "
            f"(t={t}, m={m}, h={h})")
    x = np.asarray(x, dtype=float)
    stencil = residual_stencil(m, x.size, t, h, gamma_param, lam)
    its, ixs = zip(*stencil)
    points = x + float(h) * np.asarray(ixs, dtype=float)
    return points, np.array([[t + h * it] for it in its]), list(stencil.values())


def residual_iterated_operator(u, x, t: float, m: int,
                               h: float = 1e-3) -> float:
    """|L^m u|(x, t) by nested finite differences, with gamma and lambda
    of u.spec.  u.profile takes x of shape (P, n) and tvals of shape
    (P, T).
    """
    points, times, coeffs = stencil_batch(m, x, t, h, u.spec.gamma_param,
                                          u.spec.lam)
    return abs(float(np.dot(coeffs, u.profile(points, times)[:, 0])))


def estimate_order(pairs: list) -> float:
    """Least-squares slope of log(residual) against log(h); needs >= 3
    levels with positive residuals."""
    if len(pairs) < 3:
        raise DomainError("order estimation needs at least 3 step levels")
    hs = np.array([p[0] for p in pairs], dtype=float)
    rs = np.array([p[1] for p in pairs], dtype=float)
    if np.any(rs <= 0.0):
        raise DomainError("order estimation needs positive residuals")
    slope = np.polyfit(np.log(hs), np.log(rs), 1)[0]
    return float(slope)


def _derivative(vals: np.ndarray, order: int, h: float) -> float:
    """Central-difference derivative of given order from samples at
    t + h*i, |i| <= 2 ((order + 1) // 2), by iterated second/first
    differences (O(h^2))."""
    k = order
    while k >= 2:
        vals = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h ** 2
        k -= 2
    if k == 1:
        vals = (vals[2:] - vals[:-2]) / (2.0 * h)
    return float(vals[vals.size // 2])


def _phi_ladders(u, x, m: int, t0: float, rel_step: float) -> dict:
    """{order: derivative at t0, t0/2, t0/4} for orders 0..2m-1 at x, from
    one profile call; order 2k and 2k + 1 use step rel_step * tv / (k+1)."""
    plan = [(order, tv, rel_step * tv / (order // 2 + 1))
            for order in range(2 * m) for tv in (t0, t0 / 2.0, t0 / 4.0)]
    reach = [2 * ((order + 1) // 2) for order, _, _ in plan]
    tvals = [tv + h * np.arange(-r, r + 1)
             for (_, tv, h), r in zip(plan, reach)]
    vals = np.split(u.profile(x, np.concatenate(tvals)),
                    np.cumsum([tv.size for tv in tvals])[:-1])
    ladders: dict = {}
    for (order, _, h), v in zip(plan, vals):
        ladders.setdefault(order, []).append(_derivative(v, order, h))
    return ladders


def check_initial_conditions(u, spec, x_sample: list, t0: float = 0.1,
                             rel_step: float = 0.25) -> VerificationReport:
    """Recover the data from the solution near t = 0.

    phi family: even-derivative limits d^{2k}u/dt^{2k} -> phi_k and
    vanishing odd derivatives, by finite differences at t0, t0/2, t0/4
    with Richardson extrapolation (even error series).

    psi family: plain derivatives of the t^{1-2 alpha}-singular profile
    carry a step-proportional bias, so the smooth factor
    v(t) = t^{2 alpha - 1} u(t) is extrapolated instead, using

        psi*_k = (1 - 2 alpha) [B^t_{1/2-alpha}]^k v |_{t->0}

    and the condition map psi_k = prod_{j<=k}(1 - alpha/j) psi*_k.
    Non-convergent ladders are flagged, not raised.
    """
    from .transmute import bessel_op_apply
    report = VerificationReport()
    alpha = spec.alpha
    xs = [np.asarray(xp, dtype=float) for xp in x_sample]
    if spec.family == "phi":
        ladders = [_phi_ladders(u, xp, spec.m, t0, rel_step) for xp in xs]
    for k in range(spec.m):
        errs = []
        for p, xp in enumerate(xs):
            target = float(spec.fields[k].eval(xp[None, :])[0])
            if spec.family == "phi":
                ladder = ladders[p][2 * k]
            else:
                ladder = []
                cond_map = math.prod(1.0 - alpha / j for j in range(1, k + 1))
                for tv in (t0, t0 / 2.0, t0 / 4.0):
                    h = rel_step * tv / max(1, k + 1)

                    def v_of_t(ts, xp=xp):
                        ts = np.atleast_1d(np.asarray(ts, dtype=float))
                        return ts ** (2.0 * alpha - 1.0) * u.profile(xp, ts)

                    ladder.append(cond_map * (1.0 - 2.0 * alpha) * bessel_op_apply(
                        v_of_t, 0.5 - alpha, k, tv, h))
            r1 = [(4.0 * ladder[i + 1] - ladder[i]) / 3.0 for i in range(2)]
            est = (16.0 * r1[1] - r1[0]) / 15.0
            gaps = [abs(ladder[1] - ladder[0]), abs(ladder[2] - ladder[1])]
            if gaps[0] > 0 and gaps[1] > 0.5 * gaps[0] and gaps[1] > 1e-10:
                report.flags.append(
                    f"k={k}: extrapolation ladder not converging at x={xp}")
            scale = max(1.0, abs(target))
            errs.append(abs(est - target) / scale)
            report.details.setdefault(k, []).append(
                {"x": xp.tolist(), "target": target, "ladder": ladder,
                 "estimate": est})
        report.ic_errors[k] = max(errs)
        if spec.family == "phi":
            odd_errs = []
            for ladder in (lad[2 * k + 1] for lad in ladders):
                # odd derivatives of an even solution form an odd series
                # a t + b t^3 + ..., so eliminate t then t^3 at ratio 2
                r1 = [2.0 * ladder[i + 1] - ladder[i] for i in range(2)]
                odd_errs.append(abs((8.0 * r1[1] - r1[0]) / 7.0))
            report.ic_errors[f"odd_{k}"] = max(odd_errs)
    return report


def two_path_consistency(spec, x_sample: list, tvals, rules=None) -> VerificationReport:
    """Max gap between the closed-form and transmutation evaluations."""
    from .solver import (solve_profile_even, solve_profile_odd,
                         solve_profile_transmutation)
    report = VerificationReport()
    gap = 0.0
    for xp in x_sample:
        xp = np.asarray(xp, dtype=float)
        tv = np.asarray(tvals, dtype=float)
        if spec.n % 2:
            direct = solve_profile_odd(spec, xp, tv, rules)
        else:
            direct = solve_profile_even(spec, xp, tv, rules)
        via = solve_profile_transmutation(spec, xp, tv, rules)
        gap = max(gap, float(np.max(np.abs(direct - via))))
    report.two_path_gap = gap
    return report


def convergence_study(factory, orders: list, probes: list) -> VerificationReport:
    """Solution values at probe (x, t) points per quadrature order, with
    successive max differences; spectral decay shows as a fast drop."""
    if len(orders) < 3:
        raise DomainError("convergence study needs at least 3 orders")
    report = VerificationReport()
    values = []
    for order in orders:
        ev = factory(order)
        row = [float(ev(np.asarray(x, dtype=float), t)) for x, t in probes]
        values.append(row)
        report.details[order] = row
    diffs = [float(np.max(np.abs(np.array(values[i + 1]) - np.array(values[i]))))
             for i in range(len(values) - 1)]
    report.details["successive_diffs"] = diffs
    report.oracle_gap = diffs[-1]
    return report
