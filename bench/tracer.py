"""Per-layer tracing of the besselwave package from the outside.

The layers are the package modules.  Installing a Tracer replaces every
public function and every public method of a class defined in a layer
module with a timing wrapper, in every package module that bound the
function by name (``solver`` and ``wave`` both hold their own reference to
``quadrature.ball_kernel_integral_many``, for example).  Uninstalling
puts the original objects back.

Each wrapper opens a span.  A span's self time is its duration minus the
time covered by the spans it caused, and a layer's self time is the sum
over its spans, so the layer self times add up to the traced wall time.
Spans are aggregated as they close rather than kept, which bounds memory
on long runs.  Counts are taken at the same boundaries:

* field points at leaf ``SmoothField.eval`` calls only (``FieldSum``
  merely forwards to its terms);
* Bessel-Clifford kernel calls and arguments at the outermost
  ``bessel_clifford`` call only, because it recurses into itself;
* radial-rule builds and hits from ``_radial_rule_cached.cache_info()``
  deltas;
* mpmath ``hyp0f1`` evaluations through ``highprec._jbar_mp``.

The tracer is not thread-safe; the benchmark runs one client in one
thread.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

LAYERS = ("special", "quadrature", "fields", "wave", "transmute", "solver",
          "verify", "highprec", "cli")

# span groups finer than a layer, keyed by (layer, function name)
_GROUPS = {
    ("special", "bessel_clifford"): "special.kernel",
    ("quadrature", "ball_kernel_integral"): "quadrature.ball",
    ("quadrature", "ball_kernel_integral_many"): "quadrature.ball",
    ("quadrature", "sphere_mean"): "quadrature.sphere_mean",
    ("quadrature", "sphere_means_many"): "quadrature.sphere_mean",
    ("transmute", "lowndes_apply"): "transmute.lowndes",
    ("transmute", "lowndes_apply_many"): "transmute.lowndes",
}

_PROFILE_FUNCS = {"profile", "solve_profile_odd", "solve_profile_even",
                  "solve_profile_transmutation", "solve_profile_psi",
                  "solve_point_odd", "solve_point_even",
                  "solve_point_transmutation", "solve_psi_problem"}

_LEAF_FIELDS = {"PlaneWaveField": "planewave",
                "SineProductField": "sineproduct",
                "GaussianField": "gaussian",
                "PolynomialField": "polynomial"}


class Tracer:
    """Aggregated spans and counts for the package's public boundaries."""

    def __init__(self, package_modules: dict):
        # package_modules: short layer name -> imported module
        self.modules = package_modules
        self._patched: list = []   # (owner, attribute name, original)
        self.reset()

    # ---- aggregation -------------------------------------------------
    def reset(self):
        self.counts: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)     # layer or group -> s
        self._stack: list = []                     # [layer, group, child_s]
        self._depth: dict = defaultdict(int)       # layer -> open spans
        self._kernel_depth = 0

    def _span(self, layer, group, fn, args, kwargs):
        outermost = self._depth[layer] == 0
        self._depth[layer] += 1
        frame = [layer, group, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), outermost
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            self._depth[layer] -= 1
            own = dur - frame[2]
            self.self_s[layer] += own
            if group:
                self.self_s[group] += own
            if self._stack:
                self._stack[-1][2] += dur

    # ---- wrappers ----------------------------------------------------
    def _wrap(self, layer, fn, owner_name=None):
        name = fn.__name__
        group = _GROUPS.get((layer, name))
        hook = getattr(self, f"_on_{layer}_{name}", None)
        if layer == "fields" and owner_name in _LEAF_FIELDS and name == "eval":
            family = _LEAF_FIELDS[owner_name]

            def hook(args, kwargs, result, outermost, family=family):
                pts = np.shape(args[1] if len(args) > 1 else kwargs["points"])
                n = int(np.prod(pts[:-1])) if len(pts) > 1 else 1
                self.counts["fields.points"] += n
                self.counts[f"fields.points.{family}"] += n
        if layer == "solver" and name in _PROFILE_FUNCS:
            def hook(args, kwargs, result, outermost):
                if outermost:
                    self.counts["solver.profile.calls"] += 1
                    self.counts["solver.values"] += np.size(result)

        if name == "radial_time_operator":
            return self._wrap_outer_operator(fn)
        if name == "bessel_clifford":
            return self._wrap_kernel(fn)
        if name == "make_radial_rule":
            return self._wrap_radial_rule(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result, outermost = self._span(layer, group, fn, args, kwargs)
            if hook is not None:
                hook(args, kwargs, result, outermost)
            return result

        return traced

    def _wrap_kernel(self, fn):
        cutoff = self.modules["special"].SERIES_CUTOFF

        @functools.wraps(fn)
        def traced(nu, z, **kwargs):
            if self._kernel_depth:          # the function's own recursion
                return fn(nu, z, **kwargs)
            self._kernel_depth += 1
            try:
                result, _ = self._span("special", "special.kernel", fn,
                                       (nu, z), kwargs)
            finally:
                self._kernel_depth -= 1
            z = np.abs(np.asarray(z, dtype=float))
            self.counts["special.kernel.calls"] += 1
            self.counts["special.kernel.args"] += z.size
            if kwargs.get("params") is None:
                self.counts["special.kernel.jv_args"] += int(
                    np.count_nonzero(z > cutoff))
            return result

        return traced

    def _wrap_radial_rule(self, fn):
        cache = self.modules["quadrature"]._radial_rule_cached

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache.cache_info().misses
            start = time.perf_counter()
            result, _ = self._span("quadrature", None, fn, args, kwargs)
            if cache.cache_info().misses > misses:
                self.counts["quadrature.radial_rule.build_s"] += (
                    time.perf_counter() - start)
            return result

        return traced

    def _wrap_outer_operator(self, fn):
        """(1/t d/dt)^q builder: count the t-values the finished operator
        is asked for and the t-values it feeds the inner function, and
        time the operator's own finite-difference work under ``wave``."""

        @functools.wraps(fn)
        def traced(g, *args, **kwargs):
            def counted_g(tvals):
                self.counts["wave.outer_op.inner_t"] += np.size(tvals)
                return g(tvals)

            op, _ = self._span("wave", None, fn, (counted_g,) + args, kwargs)

            def traced_op(tvals):
                self.counts["wave.outer_op.requested_t"] += np.size(tvals)
                return self._span("wave", None, op, (tvals,), {})[0]

            return traced_op

        return traced

    def _count_only(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # ---- per-function count hooks -------------------------------------
    def _on_quadrature_ball_kernel_integral_many(self, args, kwargs, result,
                                                 outermost):
        bound = _bind(self._originals["quadrature.ball_kernel_integral_many"],
                      args, kwargs)
        x = np.asarray(bound["x"])
        nodes = (np.size(bound["tvals"]) * bound["radial"].nodes.size
                 * bound["sphere"].weights.size)
        self.counts["quadrature.ball.calls"] += 1
        self.counts["quadrature.ball.nodes"] += nodes
        self.counts["quadrature.ball.bytes_computed"] += nodes * x.size * 8

    def _on_quadrature_sphere_mean(self, args, kwargs, result, outermost):
        self.counts["quadrature.sphere_mean.calls"] += 1

    _on_quadrature_sphere_means_many = _on_quadrature_sphere_mean

    def _on_wave_polywave_solve_odd_many(self, args, kwargs, result,
                                         outermost):
        self.counts["wave.polywave.calls"] += 1

    _on_wave_polywave_solve_even_many = _on_wave_polywave_solve_odd_many

    def _on_transmute_lowndes_apply_many(self, args, kwargs, result,
                                         outermost):
        bound = _bind(self._originals["transmute.lowndes_apply_many"],
                      args, kwargs)
        self.counts["transmute.lowndes.calls"] += 1
        self.counts["transmute.lowndes.args"] += (
            np.size(bound["xvals"]) * bound["radial"].nodes.size)

    def _on_transmute_bessel_op_apply(self, args, kwargs, result, outermost):
        self.counts["transmute.bessel_op.calls"] += 1

    def _on_verify_residual_iterated_operator(self, args, kwargs, result,
                                              outermost):
        self.counts["verify.residual.evals"] += 1

    def _on_highprec_residual_high_precision(self, args, kwargs, result,
                                             outermost):
        self.counts["verify.residual.evals"] += 1

    def _on_verify_check_initial_conditions(self, args, kwargs, result,
                                            outermost):
        bound = _bind(self._originals["verify.check_initial_conditions"],
                      args, kwargs)
        n_x = len(bound["x_sample"])
        odd = sum(1 for k in result.ic_errors if str(k).startswith("odd_"))
        self.counts["verify.ic.ladders"] += (
            sum(len(v) for v in result.details.values()) + odd * n_x)

    def _on_highprec_profile(self, args, kwargs, result, outermost):
        self.counts["highprec.profile.calls"] += 1

    # ---- install / uninstall -------------------------------------------
    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._cache_start = self._radial_cache_info()
        self._originals = {}   # "layer.name" -> original module function
        replace = {}           # id(original) -> wrapper
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._originals[f"{layer}.{name}"] = obj
                    replace[id(obj)] = self._wrap(layer, obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        self._set(obj, meth, self._wrap(layer, fn, name))
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace and inspect.isfunction(obj):
                    self._set(mod, name, replace[id(obj)])
        hp = self.modules["highprec"]
        self._set(hp, "_jbar_mp",
                  self._count_only("highprec.jbar_evals", hp._jbar_mp))

    def _set(self, owner, name, value):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        """Restore the package; radial-rule cache deltas since install()
        are added to the counts."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        info = self._radial_cache_info()
        self.counts["quadrature.radial_rule.builds"] += (
            info.misses - self._cache_start.misses)
        self.counts["quadrature.radial_rule.hits"] += (
            info.hits - self._cache_start.hits)

    def _radial_cache_info(self):
        return self.modules["quadrature"]._radial_rule_cached.cache_info()

    # ---- results ------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer figures for the traced interval."""
        c = self.counts
        builds = c["quadrature.radial_rule.builds"]
        hits = c["quadrature.radial_rule.hits"]
        out = {name: c[name] for name in (
            "fields.points", "fields.points.planewave",
            "fields.points.sineproduct", "fields.points.gaussian",
            "fields.points.polynomial",
            "quadrature.ball.calls", "quadrature.ball.nodes",
            "quadrature.ball.bytes_computed",
            "quadrature.sphere_mean.calls",
            "quadrature.radial_rule.build_s",
            "special.kernel.calls", "special.kernel.args",
            "wave.polywave.calls",
            "transmute.lowndes.calls", "transmute.lowndes.args",
            "transmute.bessel_op.calls",
            "solver.profile.calls", "solver.values",
            "verify.residual.evals", "verify.ic.ladders",
            "highprec.jbar_evals", "highprec.profile.calls")}
        out["fields.points_per_value"] = _ratio(c["fields.points"],
                                                c["solver.values"])
        out["quadrature.radial_rule.builds"] = builds
        out["quadrature.radial_rule.hits"] = hits
        out["quadrature.radial_rule.hit_ratio"] = _ratio(hits, hits + builds)
        out["special.kernel.jv_share"] = _ratio(c["special.kernel.jv_args"],
                                                c["special.kernel.args"])
        out["wave.outer_op.amplification"] = _ratio(
            c["wave.outer_op.inner_t"], c["wave.outer_op.requested_t"])
        for group in ("special.kernel", "quadrature.ball",
                      "quadrature.sphere_mean", "transmute.lowndes"):
            out[f"{group}.self_s"] = self.self_s[group]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return bound.arguments
