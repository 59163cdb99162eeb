"""The benchmark's workloads: seeded inputs, closed-loop operations and
their untimed correctness checks.

Every workload is a repeating *cycle* of operations with a fixed mix of
operation kinds; only the seeded inputs (points, times, parameters,
data) change from cycle to cycle.  Timing whole cycles keeps the mix, and
with it the throughput and the latency percentiles, the same from run to
run.

Importing this module imports the package, so the caller times the
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math

import numpy as np

from besselwave import cli, solver
from besselwave.fields import PlaneWaveField, SineProductField
from besselwave.special import bessel_clifford
from besselwave.wave import RuleSet

# Acceptance-suite tolerances the per-op checks are judged against:
# tests 01/02 (m = 1 oracle, relative to the data scale, odd/even n) and
# tests 03/08 (two routes or a reference, absolute).
ORACLE_TOL = {1: 1e-6, 0: 1e-5}      # keyed by n % 2
ROUTE_TOL = 1e-5

# random stream of the set-up evaluation, apart from every cycle's stream
WARM_STREAM = 2 ** 31

K3 = "0.6 -0.5 0.6244997998398398"   # |k| = 1, the acceptance-03 data
ACC03_PROBLEM = f"""\
problem.n = 3
problem.m = 2
problem.gamma = 0.25
problem.lambda = 0.5
data.phi0 = planewave:k={K3}
data.phi1 = planewave:k=0.2 0.3 -0.1,phase=0.4,amplitude=0.8
quadrature.radial_order = 64
quadrature.sphere_order = 32
"""
N2M2_PROBLEM = """\
problem.n = 2
problem.m = 2
problem.gamma = 0.25
problem.lambda = 0.5
data.phi0 = planewave:k=0.8 -0.6
data.phi1 = gaussian:width=0.7,center=0.1 -0.2,amplitude=0.5
"""


@dataclasses.dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    check(result) returns (ok, accuracy figure or None, note).
    """

    kind: str
    run: object
    check: object


def _capture(fn, *args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fn(*args)
    return code, buf.getvalue()


def _digits(figures) -> float:
    figures = [f for f in figures if f is not None]
    if not figures:
        return 0.0
    return -math.log10(max(max(figures), 1e-17))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, index: int):
        return np.random.default_rng([self.seed, index])

    def warm(self):
        """First cold evaluation: builds rules and transformed data."""

    def cycle(self, index: int) -> list:
        raise NotImplementedError

    def accuracy_digits(self, figures) -> float:
        return _digits(figures)

    def layer_figures(self, results) -> dict:
        """Per-layer figures the harness reads off operation outputs."""
        return {"verify.checks_failed": 0.0}


# ---------------------------------------------------------------- grid-direct
_GRID_T = "0.5 1.0 1.5 2.0 2.5 3.0"
# kind -> (config, the higher-order rules of the reference a profile is
# checked against at one seeded t)
_GRID_SETS = {
    # acceptance-03 data, n = 3, m = 2
    "n3-planewave": (ACC03_PROBLEM, RuleSet(80, 40)),
    # lambda * t reaches 12, past the kernel's series cutoff of 8
    "n3-mixed-lam4": ("""\
problem.n = 3
problem.m = 3
problem.gamma = 0.5
problem.lambda = 4.0
data.phi0 = gaussian:width=0.8,center=0.1 0.0 -0.2
data.phi1 = sineproduct:k=0.7 -0.4 0.5,amplitude=0.6
data.phi2 = polynomial:c(2 0 0)=0.3,c(1 1 0)=-0.2,c(0 0 2)=0.1,c(0 0 0)=0.5
quadrature.radial_order = 48
quadrature.sphere_order = 24
""", RuleSet(56, 28)),
    "n2-planewave-gauss": (N2M2_PROBLEM + """\
quadrature.radial_order = 48
quadrature.sphere_order = 24
""", RuleSet(64, 32)),
    # acceptance-08 data, weighted odd-derivative problem
    "n3-psi": (f"""\
problem.n = 3
problem.m = 1
problem.gamma = -0.3
problem.lambda = 0.6
problem.family = psi
data.psi0 = planewave:k={K3}
quadrature.radial_order = 48
quadrature.sphere_order = 24
""", RuleSet(64, 32)),
}
# the cheap n = 2 kind twice, so that the median latency falls inside
# one kind rather than between two
_GRID_CYCLE = ("n3-planewave", "n3-mixed-lam4", "n2-planewave-gauss",
               "n2-planewave-gauss", "n3-psi")


class GridDirect(Workload):
    """``besselwave solve`` of one seeded x-profile over a fixed t-grid."""

    name = "grid-direct"

    def __init__(self, seed):
        super().__init__(seed)
        self.configs = {kind: cli.parse_config(text + f"grid.t = {_GRID_T}\n")
                        for kind, (text, _) in _GRID_SETS.items()}

    def warm(self):
        for cfg in self.configs.values():
            cold = dataclasses.replace(cfg, grid_x=[np.zeros(cfg.spec.n)],
                                       grid_t=cfg.grid_t[:1])
            _capture(cli.cmd_solve, cold, None)

    def cycle(self, index):
        rng = self.rng(index)
        ops = []
        for kind in _GRID_CYCLE:
            cfg = self.configs[kind]
            x = rng.uniform(-0.6, 0.6, cfg.spec.n)
            probe = int(rng.integers(len(cfg.grid_t)))
            run_cfg = dataclasses.replace(cfg, grid_x=[x])
            ops.append(Op(kind, lambda c=run_cfg: _capture(cli.cmd_solve, c, None),
                          lambda res, k=kind, x=x, j=probe:
                          self._check(k, x, j, res)))
        return ops

    def _check(self, kind, x, probe, res):
        code, text = res
        cfg = self.configs[kind]
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        if code != 0 or len(rows) != len(cfg.grid_t):
            return False, None, f"exit {code}, {len(rows)} rows"
        t = sorted(cfg.grid_t)[probe]
        row = rows[probe]
        if not np.allclose([float(v) for v in row[:-2]], x, rtol=0, atol=1e-15) \
                or float(row[-2]) != t:
            return False, None, "CSV row does not match the requested point"
        ref_rules = _GRID_SETS[kind][1]
        if cfg.spec.family == "psi":
            ref = solver.solve_profile_psi(cfg.spec, x, np.array([t]),
                                           ref_rules, "direct")[0]
        else:
            ref = solver.SolutionEvaluator(cfg.spec, ref_rules).profile(
                x, np.array([t]))[0]
        err = abs(float(row[-1]) - ref)
        return err <= ROUTE_TOL, err, ""


# ------------------------------------------------------------------- two-path
_TWO_PATH_RULES = RuleSet(64, 32)
# 14 cheap probes per n = 3 probe put a 15 s run about midway between
# four and five whole cycles, so the cycle count does not flip
_TWO_PATH_CYCLE = ("n3-acc03",) + ("n2-m2",) * 14


class TwoPath(Workload):
    """Probes evaluated by the closed form and by transmutation."""

    name = "two-path"

    def __init__(self, seed):
        super().__init__(seed)
        self.specs = {"n3-acc03": cli.parse_config(ACC03_PROBLEM).spec,
                      "n2-m2": cli.parse_config(N2M2_PROBLEM).spec}
        self.routes = {kind: (solver.SolutionEvaluator(spec, _TWO_PATH_RULES),
                              solver.SolutionEvaluator(spec, _TWO_PATH_RULES,
                                                       "transmutation"))
                       for kind, spec in self.specs.items()}

    def warm(self):
        # the n = 3 transmutation route costs seconds; its first probe in
        # the timed phase builds the one rule the direct route lacks
        t = np.array([1.0])
        for kind, (direct, via) in self.routes.items():
            direct.profile(np.zeros(self.specs[kind].n), t)
        self.routes["n2-m2"][1].profile(np.zeros(2), t)

    def cycle(self, index):
        rng = self.rng(index)
        ops = []
        for kind in _TWO_PATH_CYCLE:
            direct, via = self.routes[kind]
            x = rng.uniform(-0.5, 0.5, self.specs[kind].n)
            t = np.array([rng.uniform(0.3, 2.5)])
            ops.append(Op(kind,
                          lambda d=direct, v=via, x=x, t=t:
                          (d.profile(x, t)[0], v.profile(x, t)[0]),
                          _check_two_routes))
        return ops


def _check_two_routes(res):
    gap = abs(res[0] - res[1])
    return gap <= ROUTE_TOL, gap, ""


# --------------------------------------------------------------- verify-suite
_VERIFY_CONFIGS = {
    "readme": """\
problem.n = 3
problem.m = 1
problem.gamma = 0.5
problem.lambda = 1.0
data.phi0 = planewave:k=0.6 -0.5 0.6244997998398398
grid.x = 0.3 -0.2 0.45; 0.0 0.1 0.2
grid.t = 0.5 1.0 1.5
quadrature.radial_order = 48
quadrature.sphere_order = 24
""",
    "acc03": ACC03_PROBLEM + "grid.x = 0.3 -0.2 0.45\ngrid.t = 1.0\n",
    "n2-m2": N2M2_PROBLEM + """\
grid.x = 0.3 -0.2
grid.t = 1.0
quadrature.radial_order = 48
quadrature.sphere_order = 24
""",
    # the weighted-data branch of verify, the one that reaches
    # transmute.bessel_op_apply
    "psi": f"""\
problem.n = 3
problem.m = 1
problem.gamma = -0.3
problem.lambda = 0.6
problem.family = psi
data.psi0 = planewave:k={K3}
grid.x = 0.3 -0.2 0.45
grid.t = 1.2
quadrature.radial_order = 48
quadrature.sphere_order = 24
""",
}
# the cheap n2-m2 config dominates the op count, so that the median and
# the tail both fall inside one kind
_VERIFY_CYCLE = ("acc03", "readme", "readme", "psi") + ("n2-m2",) * 13

# Seed-state verdicts: check name -> (value, passed).  The FAILs are known
# defects of the program, recorded rather than tuned away:
#  * acc03 initial_condition[odd_1]: third-derivative ladder at t0 = 0.1;
#  * n2-m2 initial_condition[odd_1], same ladder in n = 2;
#  * n2-m2 and psi residual_order: the float64 residual path is roundoff
#    limited for these problems (only odd-n phi problems use mpmath).
SEED_VERDICTS = {
    "readme": {"two_path_gap": (2.262301e-12, True),
               "initial_condition[odd_0]": (1.112973e-08, True),
               "initial_condition[0]": (2.263378e-11, True),
               "residual_order": (1.999999e+00, True)},
    "acc03": {"two_path_gap": (2.186251e-12, True),
              "initial_condition[odd_0]": (8.808423e-09, True),
              "initial_condition[odd_1]": (1.839774e-04, False),
              "initial_condition[0]": (1.957479e-11, True),
              "initial_condition[1]": (4.930810e-07, True),
              "residual_order": (1.999998e+00, True)},
    "n2-m2": {"two_path_gap": (1.830092e-12, True),
              "initial_condition[odd_0]": (1.303294e-07, True),
              "initial_condition[odd_1]": (2.701531e-04, False),
              "initial_condition[0]": (2.804715e-10, True),
              "initial_condition[1]": (3.601623e-07, True),
              "residual_order": (-3.510368e+00, False)},
    "psi": {"psi_method_gap": (9.834356e-13, True),
            "initial_condition[0]": (8.912648e-12, True),
            "residual_order": (4.179197e-01, False)},
}
# An error figure may grow tenfold (one digit) before the op fails; figures
# at roundoff level get an absolute floor.
_FIGURE_GROWTH = 10.0
_FIGURE_FLOOR = 1e-10


def parse_verdicts(text: str) -> dict:
    """'PASS name = value (...)' lines -> {name: (value, passed)}."""
    out = {}
    for line in text.splitlines():
        word, _, rest = line.partition(" ")
        if word not in ("PASS", "FAIL") or " = " not in rest:
            continue
        name, _, value = rest.partition(" = ")
        out[name] = (float(value.split()[0]), word == "PASS")
    return out


class VerifySuite(Workload):
    """``besselwave verify`` in-process on fixed configs."""

    name = "verify-suite"

    def __init__(self, seed):
        super().__init__(seed)
        self.configs = {kind: cli.parse_config(text)
                        for kind, text in _VERIFY_CONFIGS.items()}

    def warm(self):
        for cfg in self.configs.values():
            ev = solver.SolutionEvaluator(cfg.spec, cfg.rules)
            ev.profile(cfg.grid_x[0], np.array(cfg.grid_t[:1]))

    def cycle(self, index):
        order = list(_VERIFY_CYCLE)
        self.rng(index).shuffle(order)
        return [Op(kind, lambda c=self.configs[kind]: _capture(cli.cmd_verify, c, None),
                   lambda res, k=kind: self._check(k, res))
                for kind in order]

    def _check(self, kind, res):
        code, text = res
        got = parse_verdicts(text)
        seed = SEED_VERDICTS[kind]
        if code not in (0, 3) or set(got) != set(seed):
            return False, None, f"exit {code}, checks {sorted(got)}"
        bad = []
        for name, (value, passed) in got.items():
            seed_value, seed_passed = seed[name]
            if seed_passed and not passed:
                bad.append(f"{name} now fails")
            elif name != "residual_order" and value > max(
                    _FIGURE_GROWTH * seed_value, _FIGURE_FLOOR):
                bad.append(f"{name} grew {seed_value:.2e} -> {value:.2e}")
        gap = got.get("two_path_gap", got.get("psi_method_gap"))[0]
        return not bad, gap, "; ".join(bad)

    def layer_figures(self, results):
        failed = sum(1 for code, text in results
                     for _, passed in parse_verdicts(text).values()
                     if not passed)
        return {"verify.checks_failed": float(failed)}


# ---------------------------------------------------------------- gamma-sweep
_SWEEP_ORDERS = (32, 48, 64)
_SWEEP_SPHERE = 24


class GammaSweep(Workload):
    """One point per op at a fresh gamma; half the ops revisit a gamma."""

    name = "gamma-sweep"

    def warm(self):
        for n in (2, 3):
            spec, x, t, _ = self._point(self.rng(WARM_STREAM), 0.5, n, 0)
            solver.SolutionEvaluator(spec, RuleSet(48, _SWEEP_SPHERE)).profile(x, t)

    @staticmethod
    def _point(rng, gamma, n, family):
        k = rng.uniform(-1.0, 1.0, n)
        if family == 0:
            field = PlaneWaveField(k, phase=rng.uniform(0.0, math.pi),
                                   amplitude=rng.uniform(0.5, 1.5))
        else:
            field = SineProductField(k, amplitude=rng.uniform(0.5, 1.5))
        lam = rng.uniform(0.2, 1.5)
        spec = solver.ProblemSpec(n=n, m=1, gamma_param=gamma, lam=lam,
                                  fields=(field,))
        x = rng.uniform(-0.5, 0.5, n)
        t = np.array([rng.uniform(0.2, 3.0)])
        return spec, x, t, field

    def cycle(self, index):
        rng = self.rng(index)
        fresh = []
        for j in range(6):
            gamma = rng.uniform(-0.45, 2.0)
            fresh.append((gamma, _SWEEP_ORDERS[j % 3], 2 + j % 2))
        ops = []
        for visit, (gamma, order, n) in (
                [("fresh", f) for f in fresh] + [("revisit", f) for f in fresh]):
            # both families on both dimensions
            spec, x, t, field = self._point(rng, gamma, n, len(ops) // 2 % 2)
            ev = solver.SolutionEvaluator(spec, RuleSet(order, _SWEEP_SPHERE))
            ops.append(Op(f"{visit}-n{n}", lambda e=ev, x=x, t=t: e.profile(x, t)[0],
                          lambda res, s=spec, x=x, t=t, f=field:
                          _check_eigen_oracle(s, f, x, t[0], res)))
        return ops


def _check_eigen_oracle(spec, field, x, t, value):
    """m = 1 eigenfield oracle u = f(x) jbar(gamma, sqrt(|k|^2+lam^2) t),
    error relative to the data amplitude."""
    mu = math.sqrt(-field.eigenvalue + spec.lam ** 2)
    exact = field.eval(x[None, :])[0] * bessel_clifford(spec.gamma_param, mu * t)
    err = abs(value - exact) / field.amplitude
    return err <= ORACLE_TOL[spec.n % 2], err, ""


WORKLOADS = {cls.name: cls for cls in (GridDirect, TwoPath, VerifySuite,
                                       GammaSweep)}
