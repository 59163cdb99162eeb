import os
import subprocess
import sys

import numpy as np
import pytest

import besselwave.cli
from besselwave.cli import main, parse_config, parse_field_spec
from besselwave.errors import ConfigError
from besselwave.fields import (GaussianField, PlaneWaveField, PolynomialField,
                               SineProductField)
from besselwave.solver import ProblemSpec, SolutionEvaluator
from besselwave.special import bessel_clifford

GOOD_CONFIG = """\
problem.n = 3
problem.m = 1
problem.gamma = 0.5
problem.lambda = 1.0
data.phi0 = planewave:k=0.6 -0.5 0.6244997998398398
grid.x = 0.3 -0.2 0.45; 0.0 0.1 0.2
grid.t = 0.5 1.0
quadrature.radial_order = 32
quadrature.sphere_order = 16
"""


README_CONFIG = """\
problem.n = 3
problem.m = 1
problem.gamma = 0.5
problem.lambda = 1.0
data.phi0 = planewave:k=0.6 -0.5 0.6244997998398398
grid.x = 0.3 -0.2 0.45; 0.0 0.1 0.2
grid.t = 0.5 1.0 1.5
quadrature.radial_order = 48
quadrature.sphere_order = 24
"""

# the verify-suite n = 2, m = 2 config
N2M2_CONFIG = """\
problem.n = 2
problem.m = 2
problem.gamma = 0.25
problem.lambda = 0.5
data.phi0 = planewave:k=0.8 -0.6
data.phi1 = gaussian:width=0.7,center=0.1 -0.2,amplitude=0.5
grid.x = 0.3 -0.2
grid.t = 1.0
quadrature.radial_order = 48
quadrature.sphere_order = 24
"""


class TestParseFieldSpec:
    def test_planewave(self):
        f = parse_field_spec("planewave:k=1 0 0,phase=0.2,amplitude=2", 3)
        assert isinstance(f, PlaneWaveField)
        assert f.eval(np.zeros((1, 3)))[0] == pytest.approx(2 * np.cos(0.2))

    def test_sineproduct(self):
        f = parse_field_spec("sineproduct:k=1 2", 2)
        assert isinstance(f, SineProductField)

    def test_gaussian(self):
        f = parse_field_spec("gaussian:width=0.5,center=0 0 0", 3)
        assert isinstance(f, GaussianField)

    def test_polynomial(self):
        f = parse_field_spec("polynomial:c(2 0)=1,c(0 2)=1", 2)
        assert isinstance(f, PolynomialField)
        assert f.eval(np.array([[1.0, 2.0]]))[0] == pytest.approx(5.0)

    def test_zero(self):
        f = parse_field_spec("zero:", 3)
        assert f.eval(np.zeros((1, 3)))[0] == 0.0

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_field_spec("vortex:k=1 0 0", 3)
        with pytest.raises(ConfigError):
            parse_field_spec("planewave:phase=0.2", 3)  # k missing
        with pytest.raises(ConfigError):
            parse_field_spec("planewave:k=1 0 0,spin=2", 3)
        with pytest.raises(ConfigError):
            parse_field_spec("planewave:k", 3)


class TestParseConfig:
    def test_good(self):
        cfg = parse_config(GOOD_CONFIG)
        assert cfg.spec.n == 3
        assert cfg.spec.m == 1
        assert len(cfg.grid_x) == 2
        assert cfg.grid_t == [0.5, 1.0]
        assert cfg.rules.radial_order == 32

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD_CONFIG + "problem.zeta = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD_CONFIG + "problem.n = 4\n")

    def test_missing_data(self):
        bad = GOOD_CONFIG.replace("data.phi0 = planewave:"
                                  "k=0.6 -0.5 0.6244997998398398\n", "")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_bad_vector(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD_CONFIG.replace("grid.t = 0.5 1.0",
                                             "grid.t = 0.5 one"))

    def test_wrong_point_dimension(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD_CONFIG.replace("grid.x = 0.3 -0.2 0.45; 0.0 0.1 0.2",
                                             "grid.x = 0.3 -0.2"))

    def test_psi_window(self):
        text = GOOD_CONFIG.replace("problem.gamma = 0.5",
                                   "problem.gamma = 0.1")
        text = text.replace("data.phi0", "data.psi0")
        text += "problem.family = psi\n"
        with pytest.raises(ConfigError):
            parse_config(text)  # alpha = 0.6 >= 1/2

    def test_negative_time(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD_CONFIG.replace("grid.t = 0.5 1.0",
                                             "grid.t = 0.5 -1.0"))

    def test_not_key_value(self):
        with pytest.raises(ConfigError):
            parse_config("problem.n: 3\n")


class TestSolveCommand:
    def write_config(self, tmp_path, text=GOOD_CONFIG):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return str(p)

    def test_solve_csv(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sol.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,x3,t,u"
        assert len(lines) == 1 + 2 * 2  # 2 times x 2 points, t-major
        # t-major ordering: first two rows share t = 0.5
        assert lines[1].split(",")[3] == "0.5"
        assert lines[2].split(",")[3] == "0.5"
        assert lines[3].split(",")[3] == "1"

    def test_reruns_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_deterministic(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--threads", "4",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_time_grid(self, tmp_path):
        cfg = self.write_config(tmp_path,
                                GOOD_CONFIG.replace("grid.t = 0.5 1.0",
                                                    "grid.t ="))
        out = tmp_path / "sol.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text() == "x1,x2,x3,t,u\n"

    def test_invalid_config_exit_1(self, tmp_path):
        cfg = self.write_config(tmp_path, GOOD_CONFIG + "problem.zeta = 1\n")
        assert main(["solve", "--config", cfg]) == 1

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert main(["solve"]) == 1


    @pytest.mark.parametrize("key, value", [
        ("quadrature.radial_order", "abc"),
        ("quadrature.sphere_order", "1.5"),
        ("verify.fd_step", "x"),
        ("verify.richardson_levels", "three"),
        ("verify.probes", "2.0"),
        ("verify.tolerance", "tight"),
        ("verify.t0", "0,1"),
        ("operators.m_max", "x"),
        ("convergence.orders", "16 2x 32"),
        ("output.precision", "high"),
        ("output.precision", "-3"),
    ])
    def test_bad_number_exit_1(self, tmp_path, capsys, key, value):
        text = GOOD_CONFIG.replace(f"{key} = ", "# ") + f"{key} = {value}\n"
        cfg = self.write_config(tmp_path, text)
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert key in err

    @pytest.mark.parametrize("key, value", [
        ("quadrature.radial_order", "0"),
        ("quadrature.radial_order", "257"),
        ("quadrature.radial_order", "100000"),
        ("convergence.orders", "16 0 32"),
        ("convergence.orders", "16 257"),
        ("convergence.orders", "100000"),
    ])
    def test_radial_order_out_of_range_exit_1(self, tmp_path, capsys, key,
                                              value):
        # refused before any rule is built: 100000 would otherwise ask for
        # a dense eigenproblem of size 200040
        text = GOOD_CONFIG.replace(f"{key} = ", "# ") + f"{key} = {value}\n"
        cfg = self.write_config(tmp_path, text)
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert key in err and "1..256" in err

    @pytest.mark.parametrize("gamma", [
        repr(float(np.nextafter(-0.5, 0.0))),  # alpha - 1.0 rounds to -1
        "-0.499999999999999",                  # alpha ~ 1e-15
    ])
    def test_gamma_at_the_pole_exit_1(self, tmp_path, capsys, gamma):
        text = GOOD_CONFIG.replace("problem.gamma = 0.5",
                                   f"problem.gamma = {gamma}")
        cfg = self.write_config(tmp_path, text)
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"gamma={gamma}" in err and "alpha - 1" in err

    def test_solve_loads_neither_mpmath_nor_scipy_linalg(self, tmp_path):
        cfg = self.write_config(tmp_path, README_CONFIG)
        code = ("import sys\n"
                "from besselwave.cli import cmd_solve, load_config\n"
                f"cmd_solve(load_config({cfg!r}), {str(tmp_path / 'u.csv')!r})\n"
                "print(sorted(m for m in ('mpmath', 'scipy.linalg')"
                " if m in sys.modules))\n")
        src = os.path.dirname(os.path.dirname(besselwave.cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"
        assert (tmp_path / "u.csv").read_text().count("\n") == 1 + 2 * 3

    def test_ignored_richardson_levels_key_exit_1(self, tmp_path, capsys):
        # nothing reads verify.richardson_levels, so even a valid value is
        # refused as an unknown key instead of being silently ignored
        cfg = self.write_config(tmp_path, GOOD_CONFIG
                                + "verify.richardson_levels = 3\n")
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: unknown config keys")
        assert "verify.richardson_levels" in err

    @pytest.mark.parametrize("key, value", [
        ("problem.gamma", "inf"),
        ("problem.gamma", "nan"),
        ("problem.lambda", "nan"),
        ("problem.lambda", "inf"),
        ("grid.t", "nan"),
        ("grid.t", "inf"),
        ("grid.x", "0.3 nan 0.45"),
        ("data.phi0", "planewave:k=nan 0 0"),
        ("data.phi0", "planewave:k=1 0 0,phase=inf"),
        ("data.phi0", "planewave:k=1 0 0,phase=abc"),
        ("data.phi0", "gaussian:width=nan,center=0 0 0"),
        ("data.phi0", "polynomial:c(2 0 0)=inf"),
        ("data.phi0", "polynomial:c(x 0 0)=1"),
        ("verify.tolerance", "nan"),
        ("verify.fd_step", "inf"),
        ("verify.t0", "inf"),
    ])
    def test_non_finite_or_malformed_input_exit_1(self, tmp_path, capsys,
                                                  key, value):
        text = GOOD_CONFIG.replace(f"{key} = ", "# ") + f"{key} = {value}\n"
        cfg = self.write_config(tmp_path, text)
        assert main(["solve", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize("n, k", [
        (4, "0.5 -0.5 0.5 0.5"),
        (5, "0.6 -0.4 0.2 0.4 0.5291502622129181"),
    ])
    def test_solve_higher_dimension(self, tmp_path, n, k):
        x = " ".join(["0.2"] * n)
        text = (f"problem.n = {n}\nproblem.m = 1\nproblem.gamma = 0.5\n"
                f"problem.lambda = 1.0\ndata.phi0 = planewave:k={k}\n"
                f"grid.x = {x}\ngrid.t = 0.5 1.5\n")
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "sol.csv"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        centre = np.cos(0.2 * sum(float(v) for v in k.split()))
        for row in rows:
            t, u = (float(v) for v in row.split(",")[-2:])
            exact = centre * bessel_clifford(0.5, np.sqrt(2.0) * t)
            assert u == pytest.approx(exact, abs=1e-6)


class TestFarGaussian:
    """A Gaussian whose value at x underflows (a d^2 = 1800) but whose
    sphere means at t ~ d do not."""

    CONFIG = """\
problem.n = 3
problem.m = 1
problem.gamma = 0.5
problem.lambda = 0.5
data.phi0 = gaussian:width=2,center=30 0 0
grid.x = 0 0 0
grid.t = 29.5
"""

    class ElementaryGaussian(GaussianField):
        """n = 3, lap = 0, d r > 0: the mean is elementary,
        A exp(-a(d-r)^2) (1 - exp(-4adr)) / (4adr)."""

        def sphere_mean(self, x, radii, lap=0):
            assert lap == 0 and self.dimension == 3
            a, d = self.width, np.linalg.norm(x - self.center)
            z = 4.0 * a * d * radii
            return (self.amplitude * np.exp(-a * (d - radii) ** 2)
                    * -np.expm1(-z) / z)

    def test_sphere_order_changes_nothing(self, tmp_path):
        csvs = []
        for order in (24, 96):
            cfg = tmp_path / f"far{order}.cfg"
            cfg.write_text(self.CONFIG + f"quadrature.sphere_order = {order}\n")
            out = tmp_path / f"far{order}.csv"
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        u = float(csvs[0].decode().splitlines()[1].split(",")[-1])
        spec = ProblemSpec(n=3, m=1, gamma_param=0.5, lam=0.5, fields=(
            self.ElementaryGaussian(2.0, np.array([30.0, 0.0, 0.0])),))
        exact_mean = SolutionEvaluator(spec).profile(np.zeros(3),
                                                     np.array([29.5]))[0]
        assert u == pytest.approx(exact_mean, rel=1e-12)
        assert u == pytest.approx(2.0791e-5, rel=1e-4)


class TestOutOfRangeKeys:
    @pytest.mark.parametrize("command, key, value", [
        ("verify", "verify.probes", "0"),
        ("verify", "verify.probes", "-1"),
        ("verify", "verify.fd_step", "0"),
        ("verify", "verify.fd_step", "-1e-3"),
        ("verify", "verify.t0", "0"),
        ("verify", "verify.t0", "-0.1"),
        ("operators", "operators.m_max", "-1"),
        ("operators", "operators.m_max", "151"),
        ("operators", "operators.m_max", "400"),
        ("operators", "operators.m_max", "4000"),
    ])
    def test_exit_1_naming_the_key(self, tmp_path, capsys, command, key,
                                   value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG + f"{key} = {value}\n")
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert key in err

    def test_largest_m_max_runs(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG + "operators.m_max = 150\n")
        assert main(["operators", "--config", str(cfg)]) == 0
        assert "m=150:" in capsys.readouterr().out


class TestOperatorsCommand:
    def test_runs_and_prints_constants(self, capsys):
        assert main(["operators"]) == 0
        out = capsys.readouterr().out
        assert "3/4" in out  # a(2, 0)
        assert "[3, 1]" in out  # radial reduction constants, p = 2


class TestVerifyCommand:
    def test_good_problem_exit_0(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG + "verify.fd_step = 2e-3\n")
        assert main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "two_path_gap" in out

    def test_corrupted_solution_exit_3(self, tmp_path, capsys, monkeypatch):
        # skew the direct-path constant so the two paths disagree: at m = 1
        # the closed form's weight is 1/Gamma(alpha), while the plain-wave
        # solution is the Kirchhoff term alone
        import besselwave.wave as wave_mod
        real_rgamma = wave_mod.rgamma
        monkeypatch.setattr(wave_mod, "rgamma",
                            lambda x: 1.01 * real_rgamma(x))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG + "verify.fd_step = 2e-3\n")
        assert main(["verify", "--config", str(cfg)]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_ladder_flags_print_as_notes(self, tmp_path, capsys):
        # at t0 = 1e-4 the second-derivative ladder is roundoff-bound: the
        # flag is a NOTE after the checks, never a verdict of its own
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG.replace("problem.m = 1", "problem.m = 2")
                       + "data.phi1 = planewave:k=0.2 0.3 -0.1\n"
                       + "verify.t0 = 1e-4\n")
        assert main(["verify", "--config", str(cfg)]) == 3
        lines = capsys.readouterr().out.splitlines()
        notes = [i for i, line in enumerate(lines) if line.startswith("NOTE ")]
        assert notes
        assert "extrapolation ladder not converging" in lines[notes[0]]
        verdicts = [i for i, line in enumerate(lines)
                    if line.split(" ", 1)[0] in ("PASS", "FAIL")]
        assert max(verdicts) < min(notes) and max(notes) == len(lines) - 2
        assert lines[-1].endswith(f"/{len(verdicts)} checks passed")

    def test_no_flags_no_notes(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG + "verify.fd_step = 2e-3\n")
        assert main(["verify", "--config", str(cfg)]) == 0
        assert "NOTE" not in capsys.readouterr().out

    @pytest.mark.parametrize("config", [
        # odd n: the mpmath residual
        GOOD_CONFIG.replace("0.6244997998398398",
                            "0.6244997998398398,amplitude=0"),
        # even n: the float64 residual
        N2M2_CONFIG.replace("amplitude=0.5", "amplitude=0")
        .replace("k=0.8 -0.6", "k=0.8 -0.6,amplitude=0")])
    def test_zero_data_exit_0(self, tmp_path, capsys, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert main(["verify", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PASS residual_order = skipped: the residual is exactly 0 " \
               "at every step" in lines
        assert {line.split(" ")[1] for line in lines[:-1]} >= {
            "two_path_gap", "initial_condition[0]", "initial_condition[odd_0]",
            "residual_order"}
        assert not any(line.startswith("FAIL") for line in lines)

    def test_some_zero_residuals_exit_1(self, tmp_path, capsys, monkeypatch):
        import besselwave.verify as verify_mod
        values = iter([0.0, 1e-6, 2.5e-7])
        monkeypatch.setattr(verify_mod, "residual_iterated_operator",
                            lambda *args: next(values))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(N2M2_CONFIG)
        assert main(["verify", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.strip() == (
            "error: order estimation needs positive residuals")

    @pytest.mark.parametrize("grid_x", ["0.3 -0.2", "0.3 -0.2; -0.1 0.4"])
    def test_n2_m2_profile_calls(self, monkeypatch, capsys, grid_x):
        # one batched (P, n) call per residual step, and one call per x
        # sample for every phi ladder; the unbatched verify made 51 calls
        # at one x sample
        shapes = []
        real = SolutionEvaluator.profile
        monkeypatch.setattr(SolutionEvaluator, "profile",
                            lambda self, x, t: shapes.append(np.ndim(x))
                            or real(self, x, t))
        cfg = parse_config(N2M2_CONFIG.replace("0.3 -0.2", grid_x))
        besselwave.cli.cmd_verify(cfg, None)
        assert shapes.count(2) == 3
        assert shapes.count(1) == len(cfg.grid_x)
        assert len(shapes) == 3 + len(cfg.grid_x)


class TestConvergenceCommand:
    def test_exit_0(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(GOOD_CONFIG + "convergence.orders = 16 24 32\n")
        assert main(["convergence", "--config", str(cfg)]) == 0
        assert "successive max differences" in capsys.readouterr().out


class TestDimensionLimit:
    @pytest.mark.parametrize("n", [6, 8])
    def test_n_six_and_up_exit_1(self, tmp_path, capsys, n):
        # the finite-difference outer operator errs by 2.4e-5 at n = 6 and
        # by 0.29 at n = 8 (u = 0.99495 where the exact value is 0.92808)
        k = " ".join(["0.3"] * n)
        x = " ".join(["0.1"] * n)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem.n = {n}\nproblem.m = 1\nproblem.gamma = 0.5\n"
                       f"problem.lambda = 1.0\ndata.phi0 = planewave:k={k}\n"
                       f"grid.x = {x}\ngrid.t = 0.5\n")
        out = tmp_path / "sol.csv"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"n={n}" in err
        assert not out.exists()


KERNEL_BRANCH_CONFIG = """\
problem.n = 3
problem.m = 2
problem.gamma = 0.3
problem.lambda = 4.0
data.phi0 = planewave:k=0.6 -0.5 0.6
data.phi1 = sineproduct:k=0.4 0.3 -0.2
grid.x = 0.3 -0.2 0.45
grid.t = 1.0 2.5
"""

GAUSSIAN_CONFIG = """\
problem.n = 3
problem.m = 1
problem.gamma = 0.25
problem.lambda = 0.5
data.phi0 = gaussian:width=20,center=0 0 0
grid.x = 1.0 0.0 0.0; 0.2 0.1 0.0
grid.t = 0.5 1.5
"""


class TestImportPath:
    def test_no_scipy_or_thread_pool_on_any_branch(self, tmp_path):
        # solve on a config whose kernel arguments pass SERIES_CUTOFF
        # (lambda t = 10) and on a Gaussian one whose Ibar arguments pass
        # the Hankel switch (z = 2 a d r up to 60), then verify the README
        # config: none of them may load scipy or concurrent.futures
        paths = {}
        for name, text in (("kernel", KERNEL_BRANCH_CONFIG),
                           ("gaussian", GAUSSIAN_CONFIG),
                           ("readme", README_CONFIG)):
            paths[name] = tmp_path / f"{name}.cfg"
            paths[name].write_text(text)
        code = f"""\
import sys
import besselwave.fields as fields
import besselwave.special as special
from besselwave.cli import cmd_solve, cmd_verify, load_config

hankel = []
real_hankel = fields._hankel_sum
fields._hankel_sum = lambda mu, z: hankel.append(z.size) or real_hankel(mu, z)

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m == "concurrent.futures")

print("run", cmd_solve(load_config({str(paths['kernel'])!r}), {str(tmp_path / 'a.csv')!r}),
      special._poisson_rule.cache_info().currsize > 0, loaded())
print("run", cmd_solve(load_config({str(paths['gaussian'])!r}), {str(tmp_path / 'b.csv')!r}),
      sum(hankel) > 0, loaded())
print("run", cmd_verify(load_config({str(paths['readme'])!r}), {str(tmp_path / 'v.txt')!r}),
      loaded())
"""
        src = os.path.dirname(os.path.dirname(besselwave.cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        runs = [line for line in run.stdout.splitlines()
                if line.startswith("run ")]
        assert runs == ["run 0 True []", "run 0 True []", "run 0 []"]

    def test_src_does_not_mention_scipy(self):
        src = os.path.dirname(besselwave.cli.__file__)
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name)) as fh:
                    assert "scipy" not in fh.read(), name
