"""Batched evaluation over many centres: x of shape (P, n) with radii or
times of shape (P, ...).  Row p of a sphere mean must be the unbatched
call on x[p] to the bit, because the routes' outer finite differences
amplify a last-bit change up to 1e8-fold; row p of a profile must agree
with the unbatched call to 1e-14 of the data's scale, for every field
family, n = 2...5 and both data families."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from besselwave.fields import (FieldSum, GaussianField, PlaneWaveField,
                               PolynomialField, SineProductField)
from besselwave.highprec import HighPrecEvaluator
from besselwave.solver import ProblemSpec, SolutionEvaluator
from besselwave.wave import RuleSet

FAMILIES = ("planewave", "sineproduct", "gaussian", "polynomial")
FAST = RuleSet(radial_order=16, sphere_order=8)


def draw_field(data, kind, n):
    """A field of the given family and its amplitude."""
    def vec(lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=n,
                                           max_size=n)))

    amp = data.draw(st.floats(0.5, 2.0))
    if kind == "planewave":
        return PlaneWaveField(vec(-1.5, 1.5), data.draw(st.floats(0.0, 6.3)),
                              amp), amp
    if kind == "sineproduct":
        return SineProductField(vec(-1.5, 1.5), amp), amp
    if kind == "gaussian":
        return GaussianField(data.draw(st.floats(0.2, 4.0)), vec(-1.0, 1.0),
                             amp), amp
    index = st.tuples(*[st.integers(0, 2)] * n)
    monomials = data.draw(st.lists(index, min_size=1, max_size=3, unique=True))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                               min_size=len(monomials),
                               max_size=len(monomials)))
    return PolynomialField({i: s * amp for i, s in zip(monomials, signs)},
                           n), amp


class TestSphereMeanRows:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(FAMILIES),
           n=st.integers(2, 5), lap=st.integers(0, 2),
           rows=st.integers(1, 4), radii=st.integers(1, 5),
           summed=st.booleans())
    def test_row_is_single_centre(self, data, kind, n, lap, rows, radii,
                                  summed):
        # radii up to 6 reach the Poisson kernel branch for eigenfields and
        # Hankel's expansion (2 a d r >= 40) for Gaussians
        field, _ = draw_field(data, kind, n)
        if summed:  # a FieldSum with a second family and a Laplacian shift
            other, _ = draw_field(data, data.draw(st.sampled_from(FAMILIES)), n)
            field = FieldSum([(0.7, 0, field), (-0.3, 1, other)])
        xs = np.array(data.draw(st.lists(
            st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n),
            min_size=rows, max_size=rows)))
        rs = np.array(data.draw(st.lists(
            st.lists(st.floats(0.0, 6.0), min_size=radii, max_size=radii),
            min_size=rows, max_size=rows)))
        batched = field.sphere_mean(xs, rs, lap)
        assert batched.shape == rs.shape
        for p in range(rows):
            assert np.array_equal(batched[p],
                                  field.sphere_mean(xs[p], rs[p], lap))


class TestProfileRows:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 5), m=st.integers(1, 2),
           family=st.sampled_from(["phi", "psi"]),
           lam=st.sampled_from([0.0, 0.7, 4.0]),
           rows=st.integers(1, 3), times=st.integers(1, 3))
    def test_row_matches_single_centre(self, data, n, m, family, lam, rows,
                                       times):
        kinds = data.draw(st.lists(st.sampled_from(FAMILIES), min_size=m,
                                   max_size=m))
        drawn = [draw_field(data, kind, n) for kind in kinds]
        gamma = data.draw(st.floats(-0.45, 2.0) if family == "phi"
                          else st.floats(-0.45, -0.05))
        spec = ProblemSpec(n=n, m=m, gamma_param=gamma, lam=lam, family=family,
                           fields=tuple(f for f, _ in drawn))
        ev = SolutionEvaluator(spec, FAST)
        xs = np.array(data.draw(st.lists(
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
            min_size=rows, max_size=rows)))
        ts = np.array(data.draw(st.lists(
            st.lists(st.floats(0.2, 3.0), min_size=times, max_size=times),
            min_size=rows, max_size=rows)))
        batched = ev.profile(xs, ts)
        assert batched.shape == ts.shape
        amp = max(a for _, a in drawn)
        for p in range(rows):
            single = ev.profile(xs[p], ts[p])
            scale = max(amp, float(np.max(np.abs(single))))
            assert np.max(np.abs(batched[p] - single)) <= 1e-14 * scale

    def test_transmutation_rows(self):
        spec = ProblemSpec(n=2, m=1, gamma_param=0.25, lam=0.5,
                           fields=(PlaneWaveField(np.array([0.8, -0.6])),))
        ev = SolutionEvaluator(spec, FAST, "transmutation")
        xs, ts = np.array([[0.3, -0.2], [0.0, 0.5]]), np.array([[0.7], [1.3]])
        batched = ev.profile(xs, ts)
        for p in range(2):
            assert np.array_equal(batched[p], ev.profile(xs[p], ts[p]))


class TestHighPrecRows:
    def test_row_matches_single_centre(self):
        k3 = np.array([0.6, -0.5, math.sqrt(1.0 - 0.61)])
        spec = ProblemSpec(n=3, m=2, gamma_param=0.25, lam=0.5,
                           fields=(PlaneWaveField(k3),
                                   PlaneWaveField(np.array([0.2, 0.3, -0.1]),
                                                  0.4, 0.8)))
        ev = HighPrecEvaluator(spec)
        xs = np.array([[0.3, -0.2, 0.45], [0.3, -0.2, 0.45], [0.0, 0.1, 0.2]])
        ts = np.array([[1.0, 1.5], [0.5, 1.0], [2.0, 0.7]])
        batched = ev.profile(xs, ts)
        assert batched.shape == (3, 2)
        for p in range(3):
            assert list(batched[p]) == list(ev.profile(xs[p], ts[p]))
