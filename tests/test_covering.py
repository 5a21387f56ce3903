import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlab.covering import (
    IdentityChart,
    ModularCover,
    ThetaConfig,
    base_triangle_image_area,
    halfplane_side_points,
    hororegion_test,
    lambda_map,
    lambda_prime,
    puncture_class,
    puncture_distance,
    punctures,
    sphere_distance,
    stereo_lift,
    theta2,
    theta3,
    theta4,
)
from ghlab.errors import ConvergenceError, PunctureError
from ghlab.tessellation import Cusp, base_triangle, tessellate

mpmath = pytest.importorskip("mpmath")

THETA_SAMPLES = [0.3 + 1.1j, -0.7 + 0.8j, 0.05 + 2.3j]

halfplane_taus = st.builds(
    complex,
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.3, max_value=3.0),
)
# Re tau on a 2^-20 grid: then tau + 2 is exact in floating point, and
# a period test sees the period of lambda, not the rounding of its own
# shift (which alone moves lambda by 5e-12 where |lambda| ~ 1e3).
grid_taus = st.builds(
    complex,
    st.integers(min_value=-(2**21), max_value=2**21).map(lambda k: k / 2**20),
    st.floats(min_value=0.3, max_value=3.0),
)


class TestTheta:
    @pytest.mark.parametrize("tau", THETA_SAMPLES)
    @pytest.mark.parametrize("n,fn", [(2, theta2), (3, theta3), (4, theta4)])
    def test_against_mpmath(self, tau, n, fn):
        q = cmath.exp(1j * math.pi * tau)
        ref = complex(mpmath.jtheta(n, 0, mpmath.mpc(q)))
        assert abs(fn(tau) - ref) < 1e-14

    @given(tau=halfplane_taus)
    @settings(max_examples=40, deadline=None)
    def test_jacobi_identity(self, tau):
        lhs = theta2(tau) ** 4 + theta4(tau) ** 4
        assert abs(lhs - theta3(tau) ** 4) < 1e-12

    def test_low_imaginary_part_rejected(self):
        with pytest.raises(ConvergenceError):
            theta3(0.5 + 0.01j)

    def test_starved_series_rejected(self):
        cfg = ThetaConfig(threshold=1e-16, max_terms=2)
        with pytest.raises(ConvergenceError):
            theta3(0.5 + 0.2j, cfg)


class TestLambda:
    """The map itself, its derivative, and the fundamental-domain
    reduction that lets both be evaluated anywhere in the half-plane."""

    def test_value_at_i(self):
        assert lambda_map(1j) == pytest.approx(0.5, abs=1e-14)

    def test_value_at_2i(self):
        # closed form (sqrt(2) - 1)^4
        assert lambda_map(2j) == pytest.approx((math.sqrt(2) - 1) ** 4, abs=1e-13)

    @given(tau=grid_taus)
    @settings(max_examples=40, deadline=None)
    def test_period_two(self, tau):
        assert abs(lambda_map(tau + 2) - lambda_map(tau)) < 1e-12

    def test_inversion_relation(self):
        tau = 0.3 + 0.9j
        assert abs(lambda_map(-1 / tau) - (1 - lambda_map(tau))) < 1e-14

    def test_shift_relation(self):
        tau = 0.3 + 0.9j
        lam = lambda_map(tau)
        assert abs(lambda_map(tau + 1) - lam / (lam - 1)) < 1e-13

    @pytest.mark.parametrize(
        "tau", [0.2 + 1.3j, 0.3 + 0.9j, 2.7 + 0.4j, -1.4 + 0.23j]
    )
    def test_prime_matches_finite_difference(self, tau):
        h = 1e-6
        fd = (lambda_map(tau + h) - lambda_map(tau - h)) / (2 * h)
        fd_i = (lambda_map(tau + 1j * h) - lambda_map(tau - 1j * h)) / (2j * h)
        an = lambda_prime(tau)
        assert abs(fd - an) / abs(an) < 1e-7
        assert abs(fd_i - an) / abs(an) < 1e-7

    def test_prime_closed_form_in_fundamental_domain(self):
        tau = 0.2 + 1.3j
        lam = lambda_map(tau)
        expect = 1j * math.pi * lam * (1 - lam) * theta3(tau) ** 4
        assert abs(lambda_prime(tau) - expect) < 1e-14

    def test_boundary_tau_rejected(self):
        with pytest.raises(PunctureError):
            lambda_map(0.5 + 0j)


def _interior_grid(n=10, rmax=0.82):
    pts = []
    for k in range(n):
        r = rmax * (k + 1) / n
        ang = 2.399963 * k + 0.31
        pts.append(r * cmath.exp(1j * ang))
    return pts


class TestModularCover:
    cover = ModularCover()

    def test_origin_value(self):
        val = self.cover.value(0j)
        assert abs(val.w - 0.5) < 1e-14
        assert np.allclose(val.p, [0.8, 0.0, -0.6], atol=1e-14)

    @pytest.mark.parametrize("z", [0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.55j])
    def test_chart_derivative_matches_fd(self, z):
        h = 1e-6
        fd = (self.cover.value(z + h).w - self.cover.value(z - h).w) / (2 * h)
        an = self.cover.value(z).dw_dz
        assert abs(fd - an) / abs(an) < 1e-8

    def test_metric_factor_is_sphere_speed(self):
        # m(du^2 + dv^2) must equal the pulled-back round metric, so the
        # squared speed of the sphere curve u -> p(z + u) is exactly m.
        z = 0.25 + 0.3j
        h = 1e-6
        pa = self.cover.value(z + h).p
        pb = self.cover.value(z - h).p
        speed_sq = (np.linalg.norm(pa - pb) / (2 * h)) ** 2
        assert speed_sq == pytest.approx(self.cover.metric_factor(z), rel=1e-8)

    def test_derivative_nonvanishing_on_grid(self):
        for z in _interior_grid(50):
            assert abs(self.cover.value(z).dw_dz) > 1e-12

    def test_deck_invariance(self):
        tess = tessellate(1)
        reflections = [s.as_moebius() for t in tess.triangles for s in t.sides]
        checked = 0
        for ma, mb in itertools.permutations(reflections[:8], 2):
            g = ma @ mb
            if g.reflecting:
                continue
            for z in (0.2 + 0.1j, -0.15 + 0.3j):
                gz = g(z)
                if abs(gz) >= 0.999:
                    continue
                assert abs(self.cover.value(gz).w - self.cover.value(z).w) < 1e-10
                checked += 1
        assert checked >= 20

    def test_outside_disc_rejected(self):
        with pytest.raises(PunctureError):
            self.cover.value(1.2 + 0j)


class TestPunctures:
    cover = ModularCover()

    def test_pairwise_distances(self):
        p1, p2, p3 = punctures()
        assert sphere_distance(p1, p2) == pytest.approx(math.pi / 2, abs=1e-15)
        assert sphere_distance(p2, p3) == pytest.approx(math.pi / 2, abs=1e-15)
        assert sphere_distance(p1, p3) == pytest.approx(math.pi, abs=1e-15)

    def test_all_on_great_circle(self):
        for p in punctures():
            assert p[1] == 0.0

    def test_class_of_cusp(self):
        assert puncture_class(Cusp.make(1, 0)) == 1
        assert puncture_class(Cusp.make(0, 1)) == 2
        assert puncture_class(Cusp.make(1, 1)) == 3
        assert puncture_class(Cusp.make(-1, 1)) == 3

    def test_radial_approach_to_vertex_one(self):
        # Along z = s toward the boundary vertex at 1 the image piles up
        # on the puncture below it; past s = 0.9 the chart saturates and
        # the remaining spherical distance is far below float resolution.
        dists = [puncture_distance(self.cover, s, 2) for s in (0.5, 0.7, 0.9)]
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 1e-20

    def test_chart_overflow_near_vertex_i(self):
        with pytest.raises(PunctureError):
            self.cover.value(0.9999j)
        ext = self.cover.value_extended(0.9999j)
        assert ext.w is None
        assert abs(ext.w_inv) < 1e-200
        assert puncture_distance(self.cover, 0.9999j, 3) < 1e-100

    def test_moderate_points_keep_plain_chart(self):
        val = self.cover.value_extended(0.3 + 0.1j)
        assert val.w is not None and val.dw_dz is not None


class TestHororegions:
    cover = ModularCover()
    tess = tessellate(2)

    def test_member_near_vertex_one(self):
        member, idx = hororegion_test(self.cover, 0.97, 2, r=0.1, tess=self.tess)
        assert member
        assert self.tess.vertices[idx].cusp == Cusp.make(0, 1)

    def test_member_near_vertex_i(self):
        member, idx = hororegion_test(self.cover, 0.97j, 3, r=0.1, tess=self.tess)
        assert member
        assert self.tess.vertices[idx].cusp == Cusp.make(1, 1)

    def test_nonmember_at_origin(self):
        for j in (1, 2, 3):
            member, idx = hororegion_test(self.cover, 0j, j, r=0.1, tess=self.tess)
            assert not member
            assert idx is None

    def test_doubled_ball_is_larger(self):
        # pick a point whose image distance to p2 lies between r and 2r
        z = None
        for s in np.linspace(0.05, 0.9, 400):
            d = puncture_distance(self.cover, s, 2)
            if 0.12 < d < 0.19:
                z = s
                break
        assert z is not None
        inner, _ = hororegion_test(self.cover, z, 2, r=0.1, tess=self.tess)
        outer, _ = hororegion_test(
            self.cover, z, 2, r=0.1, doubled=True, tess=self.tess
        )
        assert not inner and outer

    def test_radius_precondition(self):
        with pytest.raises(ValueError):
            hororegion_test(self.cover, 0j, 1, r=1.0)
        with pytest.raises(ValueError):
            hororegion_test(self.cover, 0j, 1, r=0.0)


class TestSidePoints:
    def test_points_lie_on_geodesic(self):
        pts = halfplane_side_points(Cusp.make(0, 1), Cusp.make(1, 1), n=64)
        for tau in pts:
            assert tau.imag > 0
            assert abs(abs(tau - 0.5) - 0.5) < 1e-12

    def test_endpoints_approached(self):
        pts = halfplane_side_points(Cusp.make(0, 1), Cusp.make(1, 1), n=64)
        assert abs(pts[0] - 1.0) < 1e-3
        assert abs(pts[-1] - 0.0) < 1e-3

    def test_orientation_convention(self):
        # y -> infinity runs to the first cusp regardless of argument order
        pts = halfplane_side_points(Cusp.make(1, 1), Cusp.make(0, 1), n=64)
        assert abs(pts[-1] - 1.0) < 1e-3
        for tau in pts:
            assert tau.imag > 0

    def test_vertical_side(self):
        pts = halfplane_side_points(Cusp.make(1, 0), Cusp.make(1, 1), n=32)
        for tau in pts:
            assert tau.real == pytest.approx(1.0)
        assert pts[-1].imag > 1e3


def test_base_triangle_image_covers_hemisphere_twice():
    # the image of one ideal triangle is a hemisphere of the round
    # sphere counted... once; its area in the pulled-back metric is the
    # area of that hemisphere, 2 pi
    area = base_triangle_image_area()
    assert area == pytest.approx(2 * math.pi, rel=1e-6)


class TestIdentityChart:
    chart = IdentityChart()

    def test_value_is_identity(self):
        val = self.chart.value(0.3 + 0.4j)
        assert val.w == 0.3 + 0.4j
        assert val.dw_dz == 1.0

    def test_metric_factor(self):
        z = 0.3 + 0.4j
        expect = 4.0 / (1.0 + abs(z) ** 2) ** 2
        assert self.chart.metric_factor(z) == pytest.approx(expect, rel=1e-15)

    def test_lift_matches_stereo(self):
        z = 0.2 - 0.5j
        assert np.allclose(self.chart.value(z).p, stereo_lift(z))
