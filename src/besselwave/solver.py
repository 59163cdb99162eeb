"""Explicit solutions of the iterated Klein-Gordon-Fock Cauchy problem
with a time Bessel operator, and the transmutation route used to verify
them.

Two independent evaluation paths are provided for the even-derivative
data problem:

  * the direct closed-form ball-integral formulas (odd and even n), and
  * the transmutation composition: apply the Bessel-Clifford-kernel
    fractional operator in time to the poly-wave solution of the
    transformed data problem.

Both must agree; their gap is the package's core verification quantity.

The solution constants and weights of every route come from one table,
``wave.ball_series_constants``, whose docstring derives them.  They are
validated here by the two-path consistency checks and by the t -> 0
recovery of the initial data.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ContractError, DomainError
from .fields import (TransformedData, build_psi_star_data,
                     build_transformed_data, psi_star_from_psi)
from .quadrature import MAX_RADIAL_ORDER, make_radial_rule
from .transmute import EKParams, lowndes_apply_many
from .wave import (PolyWaveProblem, RuleSet, ball_series,
                   polywave_solve_even_many, polywave_solve_odd_many)


#: Largest spatial dimension solved.  The outer operator's nested central
#: differences amplify roundoff with q = n // 2: against the m = 1 oracle
#: the direct route errs by 2.4e-5 at n = 6 and by 0.29 at n = 8.
MAX_DIMENSION = 5


@dataclass(frozen=True)
class ProblemSpec:
    """One Cauchy problem instance.

    family 'phi' means the even-derivative conditions (data fields are
    the phi_k); family 'psi' the weighted odd-derivative conditions
    (data fields are the psi_k).  alpha = gamma + 1/2 must be positive,
    and 2 <= n <= MAX_DIMENSION.
    """

    n: int
    m: int
    gamma_param: float
    lam: float
    family: str = "phi"
    fields: tuple = ()

    def __post_init__(self):
        if self.n < 2:
            raise DomainError("spatial dimension must be >= 2")
        if self.n > MAX_DIMENSION:
            raise DomainError(
                f"spatial dimension n={self.n} is not supported until the "
                "outer operator (1/t d/dt)^(n//2) is exact: its finite "
                "differences lose digits from n = 6 on")
        if self.m < 1:
            raise DomainError("iteration count must be >= 1")
        if not (math.isfinite(self.gamma_param) and math.isfinite(self.lam)):
            raise DomainError(
                f"gamma and lambda must be finite, got gamma={self.gamma_param}, "
                f"lambda={self.lam}")
        if self.gamma_param <= -0.5:
            raise DomainError("gamma must be > -1/2 so that alpha > 0")
        if self.family not in ("phi", "psi"):
            raise DomainError(f"unknown data family {self.family!r}")
        if len(self.fields) != self.m:
            raise DomainError(f"need {self.m} data fields, got {len(self.fields)}")
        for k, fld in enumerate(self.fields):
            if fld.dimension != self.n:
                raise DomainError(
                    f"data field {k} (data.{self.family}{k}) has dimension "
                    f"{fld.dimension}, but n={self.n}")

    @property
    def alpha(self) -> float:
        return self.gamma_param + 0.5


#: Smallest alpha the routes through jbar(alpha - 1, z) accept at lam != 0:
#: that kernel loses about eps * z^2 / alpha, so at alpha = 1e-8 errors reach
#: 1e-7 and at 1e-14 they are O(1).
_MIN_ALPHA_LAM = 1e-8


@contextmanager
def _gamma_named(spec: ProblemSpec, order: int):
    """Refuse, naming gamma, a route whose weight exponent alpha - 1.0 is
    too close to -1: at lam != 0 below _MIN_ALPHA_LAM, and wherever the
    radial rule at alpha - 1.0 cannot be built (below alpha = 2^-53 the
    exponent rounds to -1)."""
    beta = spec.alpha - 1.0
    error = DomainError(f"gamma={spec.gamma_param!r} is too close to -1/2: "
                        f"alpha - 1 = {beta!r} is too close to -1")
    if spec.lam != 0.0 and spec.alpha < _MIN_ALPHA_LAM:
        raise error
    try:
        yield
    except DomainError:
        if 1 <= order <= MAX_RADIAL_ORDER:
            try:
                make_radial_rule(beta, order)
            except DomainError:
                raise error from None
        raise


def transformed_data(spec: ProblemSpec) -> TransformedData:
    """The data every route of spec reads: the phi transform, or for a psi
    problem the psi-star data at the complementary parameter 1 - alpha."""
    if spec.family == "psi":
        return build_psi_star_data(
            psi_star_from_psi(list(spec.fields), spec.m, spec.alpha),
            spec.m, spec.lam, spec.alpha)
    return build_transformed_data(list(spec.fields), spec.m, spec.lam,
                                  spec.alpha)


def _phi_data(spec: ProblemSpec, data: TransformedData | None):
    """data, or the spec's own when None; the closed forms and the
    transmutation route solve phi problems only."""
    if spec.family != "phi":
        raise ContractError("the phi-problem routes need a phi-family spec")
    return transformed_data(spec) if data is None else data


def solve_point_odd(spec: ProblemSpec, x, t: float,
                    rules: RuleSet | None = None) -> float:
    return float(solve_profile_odd(spec, x, np.array([t]), rules)[0])


def solve_profile_odd(spec: ProblemSpec, x, tvals, rules: RuleSet | None = None,
                      data: TransformedData | None = None) -> np.ndarray:
    """Odd-dimension closed form, vectorised over t > 0."""
    if spec.n % 2 == 0 or spec.n < 3:
        raise ContractError(f"odd-dimension formula needs odd n >= 3, got n={spec.n}")
    alpha, rules = spec.alpha, rules or RuleSet()
    data = _phi_data(spec, data)
    with _gamma_named(spec, rules.radial_order):
        return ball_series(data.f, x, tvals, spec.n, alpha - 1.0, spec.lam,
                           spec.n // 2, 1.0 - 2.0 * alpha, rules)


def solve_point_even(spec: ProblemSpec, x, t: float,
                     rules: RuleSet | None = None) -> float:
    return float(solve_profile_even(spec, x, np.array([t]), rules)[0])


def solve_profile_even(spec: ProblemSpec, x, tvals, rules: RuleSet | None = None,
                       data: TransformedData | None = None) -> np.ndarray:
    """Even-dimension closed form (descent of the odd one), vectorised."""
    if spec.n % 2:
        raise ContractError(f"even-dimension formula needs even n, got n={spec.n}")
    alpha = spec.alpha
    data = _phi_data(spec, data)
    return ball_series(data.f, x, tvals, spec.n, alpha - 0.5, spec.lam,
                       spec.n // 2, 1.0 - 2.0 * alpha, rules or RuleSet())


def solve_point_transmutation(spec: ProblemSpec, x, t: float,
                              rules: RuleSet | None = None) -> float:
    return float(solve_profile_transmutation(spec, x, np.array([t]), rules)[0])


def solve_profile_transmutation(spec: ProblemSpec, x, tvals,
                                rules: RuleSet | None = None,
                                data: TransformedData | None = None
                                ) -> np.ndarray:
    """Transmutation route: fractional time-operator applied to the
    poly-wave solution of the transformed-data problem; row by row."""
    rules, x = rules or RuleSet(), np.asarray(x, dtype=float)
    alpha = spec.alpha
    data = _phi_data(spec, data)
    if x.ndim == 2:
        return np.array([solve_profile_transmutation(spec, xp, tp, rules, data)
                         for xp, tp in zip(x, tvals)])
    problem = PolyWaveProblem(spec.n, spec.m, data)
    solver = (polywave_solve_odd_many if spec.n % 2
              else polywave_solve_even_many)

    def wave_profile(svals):
        return solver(x, np.asarray(svals, dtype=float), problem, rules)

    with _gamma_named(spec, rules.radial_order):
        radial = make_radial_rule(alpha - 1.0, rules.radial_order)
    params = EKParams(eta=-0.5, alpha=alpha, lam=spec.lam)
    tvals = np.asarray(tvals, dtype=float)

    def flat(args):
        return wave_profile(np.asarray(args).reshape(-1)).reshape(np.shape(args))

    return lowndes_apply_many(flat, params, tvals, radial)


def solve_profile_psi(spec: ProblemSpec, x, tvals, rules: RuleSet | None = None,
                      method: str = "lemma4",
                      data: TransformedData | None = None) -> np.ndarray:
    """Weighted-odd-data problem, valid for 0 < alpha < 1/2.

    'lemma4' routes through the even-data solver at the complementary
    parameter 1 - alpha and multiplies by t^{1-2 alpha}; 'direct'
    evaluates the ball-integral formula with kernel exponents k - alpha
    (odd n) or k + 1/2 - alpha (even n).  The two must agree.  data:
    ``transformed_data(spec)``, or None to build it.
    """
    rules = rules or RuleSet()
    alpha = spec.alpha
    if spec.family != "psi":
        raise ContractError("solve_profile_psi expects a psi-family problem")
    if not (0.0 < alpha < 0.5):
        raise DomainError(
            f"the weighted-data route requires 0 < alpha < 1/2, got alpha={alpha}")
    tvals = np.asarray(tvals, dtype=float)
    if data is None:
        data = transformed_data(spec)
    alpha_c = 1.0 - alpha

    if method == "lemma4":
        comp = ProblemSpec(n=spec.n, m=spec.m, gamma_param=alpha_c - 0.5,
                           lam=spec.lam, family="phi",
                           fields=tuple(data.capital_phi))
        # capital_phi of `data` are already the complementary-parameter
        # transforms, so hand the solver the reduced data directly.
        if spec.n % 2:
            u1 = solve_profile_odd(comp, x, tvals, rules, data=data)
        else:
            u1 = solve_profile_even(comp, x, tvals, rules, data=data)
        return tvals ** (1.0 - 2.0 * alpha) * u1
    if method == "direct":
        beta0 = -alpha if spec.n % 2 else 0.5 - alpha
        return ball_series(data.f, x, tvals, spec.n, beta0, spec.lam,
                           spec.n // 2, 0.0, rules)
    raise DomainError(f"unknown psi-problem method {method!r}")


def solve_psi_problem(spec: ProblemSpec, x, t: float,
                      rules: RuleSet | None = None,
                      method: str = "lemma4") -> float:
    return float(solve_profile_psi(spec, x, np.array([t]), rules, method)[0])


@dataclass
class SolutionEvaluator:
    """Immutable point evaluator dispatching on dimension parity and
    data family; profile(x, tvals) is the batched entry point: x of shape
    (n,) with tvals (T,), or x of shape (P, n) with tvals (P, T).

    data: ``transformed_data(spec)``, built once by a caller that makes
    many calls; None builds it per call, so an evaluator used once holds
    none.
    """

    spec: ProblemSpec
    rules: RuleSet = dc_field(default_factory=RuleSet)
    method: str = "direct"  # 'direct' | 'transmutation'
    data: TransformedData | None = None

    def profile(self, x, tvals) -> np.ndarray:
        spec = self.spec
        if spec.family == "psi":
            return solve_profile_psi(spec, x, tvals, self.rules,
                                     data=self.data)
        if self.method == "transmutation":
            return solve_profile_transmutation(spec, x, tvals, self.rules,
                                               self.data)
        if spec.n % 2:
            return solve_profile_odd(spec, x, tvals, self.rules, self.data)
        return solve_profile_even(spec, x, tvals, self.rules, self.data)

    def __call__(self, x, t: float) -> float:
        return float(self.profile(x, np.array([float(t)]))[0])
