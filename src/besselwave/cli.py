"""Command-line front end.

Subcommands: solve | verify | operators | convergence.  Problems are
described by a flat key/value config with dotted sections, e.g.::

    problem.n = 3
    problem.m = 1
    problem.gamma = 0.5
    problem.lambda = 1.0
    problem.family = phi
    data.phi0 = planewave:k=0.6 -0.5 0.6245,phase=0.0,amplitude=1.0
    grid.x = 0.3 -0.2 0.45; 0.0 0.1 0.2
    grid.t = 0.5 1.0 1.5
    output.csv = solution.csv

Field specs are family:param,... strings with space-separated vectors.
Exit codes: 0 success, 1 config/validation error, 2 numerical-accuracy
error, 3 verification tolerance exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (AccuracyError, BesselWaveError, CapabilityError,
                     ConfigError, ContractError, DomainError)
from .fields import (GaussianField, PlaneWaveField, PolynomialField,
                     SineProductField, zero_field)
from .quadrature import MAX_RADIAL_ORDER
from .solver import ProblemSpec, SolutionEvaluator
from .special import MAX_DOUBLE_FACTORIAL_P
from .wave import RuleSet

_KNOWN_KEYS = {
    "problem.n", "problem.m", "problem.gamma", "problem.lambda",
    "problem.family",
    "grid.x", "grid.t",
    "quadrature.radial_order", "quadrature.sphere_order",
    "verify.fd_step", "verify.probes", "verify.tolerance", "verify.t0",
    "output.csv", "output.precision",
    "operators.m_max",
    "convergence.orders",
}


@dataclass
class RunConfig:
    spec: ProblemSpec
    rules: RuleSet
    grid_x: list
    grid_t: list
    verify_opts: dict = dc_field(default_factory=dict)
    csv_path: str | None = None
    precision: int = 17
    operators_m_max: int = 3
    convergence_orders: list = dc_field(default_factory=lambda: [16, 24, 32])


def _number(raw: dict, key: str, default: str, kind=float):
    """raw[key] (or default) as a finite float or, with kind=int, an
    integer; ConfigError otherwise."""
    text = raw.get(key, default)
    if kind is float:
        return _finite(text, key)
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad {key}: {text!r} is not an integer") from None


def _positive(raw: dict, key: str, default: str, kind=float):
    """_number(raw, key, default, kind), refused unless it is > 0."""
    value = _number(raw, key, default, kind)
    if value <= 0:
        raise ConfigError(f"bad {key}: {value} is not positive")
    return value


def _finite(text: str, what: str) -> float:
    """float(text); ConfigError unless it is a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"bad {what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"bad {what}: {text!r} is not finite")
    return value


def _radial_order(order: int, key: str) -> int:
    if not 1 <= order <= MAX_RADIAL_ORDER:
        raise ConfigError(f"bad {key}: radial order {order} is outside "
                          f"1..{MAX_RADIAL_ORDER}")
    return order


def _vector(text: str) -> np.ndarray:
    return np.array([_finite(v, f"vector {text!r}") for v in text.split()],
                    dtype=float)


def parse_field_spec(text: str, dimension: int):
    """family:key=value,... with space-separated vector values."""
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    params = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ConfigError(f"field parameter {item!r} is not key=value")
            params[key.strip()] = val.strip()

    def number(key, default=None):
        raw = params.pop(key) if default is None else params.pop(key, default)
        return _finite(raw, f"{family} parameter {key}")

    try:
        if family == "planewave":
            out = PlaneWaveField(_vector(params.pop("k")),
                                 phase=number("phase", "0"),
                                 amplitude=number("amplitude", "1"))
        elif family == "sineproduct":
            out = SineProductField(_vector(params.pop("k")),
                                   amplitude=number("amplitude", "1"))
        elif family == "gaussian":
            out = GaussianField(number("width"),
                                _vector(params.pop("center")),
                                amplitude=number("amplitude", "1"))
        elif family == "polynomial":
            coeffs = {}
            for key in list(params):
                if key.startswith("c(") and key.endswith(")"):
                    try:
                        idx = tuple(int(a) for a in key[2:-1].split())
                    except ValueError:
                        raise ConfigError(
                            f"bad polynomial index {key!r}") from None
                    coeffs[idx] = number(key)
            out = PolynomialField(coeffs, dimension)
        elif family == "zero":
            params.pop("dim", None)
            out = zero_field(dimension)
        else:
            raise ConfigError(f"unknown field family {family!r}")
    except KeyError as exc:
        raise ConfigError(f"field spec {text!r} missing parameter {exc}") from None
    if params:
        raise ConfigError(
            f"field spec {text!r} has unknown parameters {sorted(params)}")
    return out


def parse_config(text: str) -> RunConfig:
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    data_keys = {k for k in raw if k.startswith("data.")}
    unknown = set(raw) - _KNOWN_KEYS - data_keys
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def need(key):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")
        return raw[key]

    try:
        n = int(need("problem.n"))
        m = int(need("problem.m"))
        gamma_param = float(need("problem.gamma"))
        lam = float(need("problem.lambda"))
    except ValueError as exc:
        raise ConfigError(f"bad problem block: {exc}") from None
    family = raw.get("problem.family", "phi")

    prefix = "phi" if family == "phi" else "psi"
    fields = []
    for k in range(m):
        key = f"data.{prefix}{k}"
        if key not in raw:
            raise ConfigError(f"missing data field {key!r} "
                              f"(family {family!r} needs {prefix}0..{prefix}{m - 1})")
        fields.append(parse_field_spec(raw[key], n))
    extra = data_keys - {f"data.{prefix}{k}" for k in range(m)}
    if extra:
        raise ConfigError(f"unexpected data keys: {sorted(extra)}")

    spec = ProblemSpec(n=n, m=m, gamma_param=gamma_param, lam=lam,
                       family=family, fields=tuple(fields))
    if family == "psi" and spec.alpha >= 0.5:
        raise ConfigError(
            "psi-family problems require alpha = gamma + 1/2 < 1/2 "
            "(validity window of the weighted-data solution)")

    rules = RuleSet(
        radial_order=_radial_order(
            _number(raw, "quadrature.radial_order", "48", int),
            "quadrature.radial_order"),
        sphere_order=_number(raw, "quadrature.sphere_order", "24", int))

    grid_x = []
    if "grid.x" in raw:
        for part in raw["grid.x"].split(";"):
            if part.strip():
                pt = _vector(part)
                if pt.size != n:
                    raise ConfigError(
                        f"grid point {part.strip()!r} has dimension {pt.size}, "
                        f"expected {n}")
                grid_x.append(pt)
    grid_t = [_finite(v, "grid.t") for v in raw.get("grid.t", "").split()]
    if any(t <= 0.0 for t in grid_t):
        raise ConfigError("grid.t values must be positive")

    verify_opts = {
        "fd_step": _positive(raw, "verify.fd_step", "1e-3"),
        "probes": _positive(raw, "verify.probes", "5", int),
        "tolerance": _number(raw, "verify.tolerance", "1e-4"),
        "t0": _positive(raw, "verify.t0", "0.1"),
    }
    m_max = _number(raw, "operators.m_max", "3", int)
    if not 0 <= m_max <= MAX_DOUBLE_FACTORIAL_P:  # the table uses (2m-1)!!
        raise ConfigError(f"bad operators.m_max: {m_max} is outside "
                          f"0..{MAX_DOUBLE_FACTORIAL_P}")
    precision = _number(raw, "output.precision", "17", int)
    if precision < 0:
        raise ConfigError(f"output.precision must be >= 0, got {precision}")
    orders = raw.get("convergence.orders", "16 24 32")
    try:
        convergence_orders = [int(v) for v in orders.split()]
    except ValueError:
        raise ConfigError(f"bad convergence.orders: {orders!r} is not a "
                          "list of integers") from None
    for order in convergence_orders:
        _radial_order(order, "convergence.orders")
    return RunConfig(
        spec=spec, rules=rules, grid_x=grid_x, grid_t=grid_t,
        verify_opts=verify_opts,
        csv_path=raw.get("output.csv"),
        precision=precision,
        operators_m_max=m_max,
        convergence_orders=convergence_orders,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}g}"


def cmd_solve(cfg: RunConfig, out_path: str | None) -> int:
    evaluator = SolutionEvaluator(cfg.spec, cfg.rules)
    tvals = np.array(sorted(cfg.grid_t), dtype=float)
    xs = sorted(cfg.grid_x, key=lambda p: tuple(p))
    profiles = [evaluator.profile(x, tvals) if tvals.size else np.array([])
                for x in xs]

    n = cfg.spec.n
    lines = [",".join([f"x{i + 1}" for i in range(n)] + ["t", "u"])]
    for ti, t in enumerate(tvals):
        for x, prof in zip(xs, profiles):
            cells = [_fmt(v, cfg.precision) for v in x]
            cells += [_fmt(t, cfg.precision), _fmt(prof[ti], cfg.precision)]
            lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    target = out_path or cfg.csv_path
    if target:
        with open(target, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _report(lines, out_path):
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_verify(cfg: RunConfig, out_path: str | None,
               tolerance: float | None = None) -> int:
    from . import verify as V
    from .solver import solve_profile_psi, transformed_data
    tol = tolerance if tolerance is not None else cfg.verify_opts["tolerance"]
    spec = cfg.spec
    evaluator = SolutionEvaluator(
        spec, cfg.rules,
        data=transformed_data(spec) if spec.family == "phi" else None)
    xs = cfg.grid_x or [np.zeros(spec.n)]
    ts = cfg.grid_t or [1.0]
    probes = cfg.verify_opts["probes"]
    checks = []  # (name, value, tol, ok)

    # two-path consistency (or psi method agreement)
    if spec.family == "phi":
        rep = V.two_path_consistency(spec, xs[:probes], ts, cfg.rules)
        checks.append(("two_path_gap", rep.two_path_gap, tol,
                       rep.two_path_gap <= tol))
    else:
        gap = 0.0
        for x in xs[:probes]:
            a = solve_profile_psi(spec, x, np.asarray(ts), cfg.rules, "lemma4")
            b = solve_profile_psi(spec, x, np.asarray(ts), cfg.rules, "direct")
            gap = max(gap, float(np.max(np.abs(a - b))))
        checks.append(("psi_method_gap", gap, tol, gap <= tol))

    # initial conditions
    ic = V.check_initial_conditions(evaluator, spec, xs[:probes],
                                    t0=cfg.verify_opts["t0"])
    for key, err in sorted(ic.ic_errors.items(), key=str):
        checks.append((f"initial_condition[{key}]", err, tol, err <= tol))

    # residual convergence order
    h = cfg.verify_opts["fd_step"]
    steps = (4.0 * h, 2.0 * h, h)
    t_res = max(ts)
    try:
        if spec.family == "phi" and spec.n % 2:
            from .highprec import HighPrecEvaluator, residual_high_precision
            hp = HighPrecEvaluator(spec)
            pairs = [(hh, residual_high_precision(spec, xs[0], t_res, spec.m,
                                                  hh, evaluator=hp))
                     for hh in steps]
        else:
            pairs = [(hh, V.residual_iterated_operator(evaluator, xs[0],
                                                       t_res, spec.m, hh))
                     for hh in steps]
        if all(r == 0.0 for _, r in pairs):  # zero data: nothing to fit
            checks.append(("residual_order", "skipped: the residual is "
                           "exactly 0 at every step", "", True))
        else:
            order = V.estimate_order(pairs)
            checks.append(("residual_order", order, "[1.7, 2.3]",
                           1.7 <= order <= 2.3))
    except (CapabilityError, ContractError) as exc:
        checks.append(("residual_order", f"skipped: {exc}", "", True))

    lines = []
    for name, value, tol_text, ok in checks:
        val = value if isinstance(value, str) else f"{value:.6e}"
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} = {val}"
                     + (f" (tolerance {tol_text})" if tol_text != "" else ""))
    lines.extend(f"NOTE {flag}" for flag in ic.flags)
    failed = [c for c in checks if not c[3]]
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    _report(lines, out_path)
    return 3 if failed else 0


def cmd_operators(cfg: RunConfig | None, out_path: str | None) -> int:
    from .quadrature import make_radial_rule
    from .special import gamma as gamma_fn
    from .transmute import (EKParams, erdelyi_kober_apply, intertwining_gap,
                            lemma1_constants, recurrence_constants)
    m_max = cfg.operators_m_max if cfg else 3
    lines = ["derivative-identity constants a(m,j), b(m,j):"]
    table = recurrence_constants(m_max)
    for m in range(m_max + 1):
        arow = " ".join(str(table.a(m, j)) for j in range(m + 1))
        brow = " ".join(str(table.b(m, j)) for j in range(m + 1))
        lines.append(f"  m={m}: a = [{arow}]  b = [{brow}]")
    for p in range(1, 5):
        lines.append(f"radial reduction constants A_j^{p} = {lemma1_constants(p)}")

    lines.append("fractional-integral constants (f = 1):")
    for eta, alpha in ((-0.5, 0.75), (0.0, 1.3), (1.0, 0.5)):
        radial = make_radial_rule(alpha - 1.0, 48)
        val = erdelyi_kober_apply(lambda s: np.ones_like(s), eta, alpha,
                                  1.3, radial)
        exact = gamma_fn(eta + 1.0) / gamma_fn(alpha + eta + 1.0)
        lines.append(f"  eta={eta} alpha={alpha}: {val:.12f} "
                     f"(exact {exact:.12f}, diff {abs(val - exact):.2e})")

    lines.append("intertwining identity ladder (f = cos(1.3 t), m = 1):")
    p = EKParams(eta=-0.5, alpha=0.75, lam=1.0)
    radial = make_radial_rule(p.alpha - 1.0, 48)
    a = 1.3

    def f(s):
        return np.cos(a * s)

    def bf(s):
        s = np.asarray(s, dtype=float)
        return -a * a * np.cos(a * s) - a * (2.0 * p.eta + 1.0) * np.sin(a * s) / s

    prev = None
    for h in (4e-3, 2e-3, 1e-3):
        gap = intertwining_gap(p, f, bf, 1, 1.1, h, radial)
        ratio = "" if prev is None else f"  ratio {prev / gap:.2f}"
        lines.append(f"  h={h:g}: gap = {gap:.3e}{ratio}")
        prev = gap
    _report(lines, out_path)
    return 0


def cmd_convergence(cfg: RunConfig, out_path: str | None) -> int:
    from .verify import convergence_study
    spec = cfg.spec
    xs = cfg.grid_x or [np.zeros(spec.n)]
    ts = cfg.grid_t or [1.0]
    probes = [(x, t) for x in xs[:3] for t in ts[:3]]

    def factory(order):
        rules = RuleSet(radial_order=order,
                        sphere_order=max(4, order // 2))
        return SolutionEvaluator(spec, rules)

    rep = convergence_study(factory, cfg.convergence_orders, probes)
    lines = ["quadrature convergence study:"]
    for order in cfg.convergence_orders:
        vals = " ".join(f"{v:.12e}" for v in rep.details[order])
        lines.append(f"  radial order {order}: {vals}")
    diffs = " ".join(f"{d:.3e}" for d in rep.details["successive_diffs"])
    lines.append(f"  successive max differences: {diffs}")
    _report(lines, out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besselwave",
        description="Evaluate and verify explicit solutions of the iterated "
                    "singular Klein-Gordon-Fock Cauchy problem.")
    parser.add_argument("command",
                        choices=["solve", "verify", "operators", "convergence"])
    parser.add_argument("--config", help="path to key/value config file")
    parser.add_argument("--out", help="output path (CSV or report)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; solve runs in "
                             "one thread")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override verify tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = None
        if args.config:
            cfg = load_config(args.config)
        if args.command != "operators" and cfg is None:
            raise ConfigError(f"command {args.command!r} requires --config")
        if args.command == "solve":
            return cmd_solve(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, tolerance=args.tolerance)
        if args.command == "operators":
            return cmd_operators(cfg, args.out)
        return cmd_convergence(cfg, args.out)
    except (ConfigError, DomainError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AccuracyError, CapabilityError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except BesselWaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
