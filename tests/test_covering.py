import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghlab.ansatz import sphere_jacobian
from ghlab.covering import (
    IdentityChart,
    ModularCover,
    _metric_factors,
    _nome_series,
    geodesic_point,
    hororegion_test,
    puncture_class,
    puncture_distance,
    punctures,
    sphere_distance,
)
from ghlab.errors import ConvergenceError, GHLabError, PunctureError
from ghlab.tessellation import (
    AT_MINUS_ONE,
    Cusp,
    reduce_to_fundamental,
    tessellate,
)
from oracles import base_triangle_image_area, lambda_values, metric_factors, reflect_point

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
# disc points out to the circle and past it; the radii 1 - 10^-k reach
# into the cusps, where the plain chart overflows
cover_points = st.builds(
    lambda r, t: r * cmath.exp(1j * t),
    st.floats(min_value=0.0, max_value=1.3)
    | st.integers(min_value=1, max_value=12).map(lambda k: 1.0 - 10.0**-k),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)


def _mp_theta(n, tau):
    q = cmath.exp(1j * math.pi * tau)
    return complex(mpmath.jtheta(n, 0, mpmath.mpc(q)))


def _thetas(taus):
    """(theta2, theta3) over an array of tau from the nome series that
    lambda is summed from: theta2 = 2 q^(1/4) S2."""
    _, s2, t3 = _nome_series(taus)
    return 2.0 * np.exp(0.25j * math.pi * taus) * s2, t3


def theta2(tau):
    return complex(_thetas(np.array([tau]))[0][0])


def theta3(tau):
    return complex(_thetas(np.array([tau]))[1][0])


def lambda_map(tau):
    return lambda_values(tau)[0]


def lambda_prime(tau):
    return lambda_values(tau)[1]


class TestTheta:
    """The fixed series in the nome that lambda is summed from.  Its
    first left-out term is below 1e-26 wherever Im tau >= 0.8, which
    covers the reduced points and every sample here."""

    @pytest.mark.parametrize("tau", THETA_SAMPLES)
    @pytest.mark.parametrize("n,fn", [(2, theta2), (3, theta3)])
    def test_against_mpmath(self, tau, n, fn):
        assert abs(fn(tau) - _mp_theta(n, tau)) < 1e-14

    @pytest.mark.parametrize("tau", THETA_SAMPLES)
    def test_fourth_power_of_theta2_needs_no_quarter_power(self, tau):
        # lambda's numerator theta2^4 = 16 q S2^4, from q alone
        q, s2, _ = (complex(x[0]) for x in _nome_series(np.array([tau])))
        ref = _mp_theta(2, tau) ** 4
        assert abs(16.0 * q * s2**4 - ref) < 1e-14 * max(1.0, abs(ref))

    def test_batch_matches_point(self):
        taus = np.array(THETA_SAMPLES)
        t2, t3 = _thetas(taus)
        for k, tau in enumerate(THETA_SAMPLES):
            assert abs(t2[k] - theta2(tau)) < 1e-15
            assert abs(t3[k] - theta3(tau)) < 1e-15


class TestLambda:
    """The map itself, its derivative, and the fundamental-domain
    reduction that lets both be evaluated anywhere in the half-plane."""

    @pytest.mark.parametrize("tau", THETA_SAMPLES)
    def test_against_mpmath(self, tau):
        ref = (_mp_theta(2, tau) / _mp_theta(3, tau)) ** 4
        assert abs(lambda_map(tau) - ref) < 1e-14 * max(1.0, abs(ref))

    @given(tau=halfplane_taus)
    @settings(max_examples=40, deadline=None)
    def test_against_mpmath_on_the_half_plane(self, tau):
        ref = (_mp_theta(2, tau) / _mp_theta(3, tau)) ** 4
        assert abs(lambda_map(tau) - ref) < 1e-14 * max(1.0, abs(ref))

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
        expect = 1j * math.pi * lam * (1 - lam) * _mp_theta(3, tau) ** 4
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
        w, dw_dz = self.cover.value(0j)
        assert abs(w - 0.5) < 1e-14
        assert np.allclose(sphere_jacobian(w, dw_dz)[0], [0.8, 0.0, -0.6], atol=1e-14)

    @pytest.mark.parametrize("z", [0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.55j])
    def test_chart_derivative_matches_fd(self, z):
        h = 1e-6
        fd = (self.cover.value(z + h)[0] - self.cover.value(z - h)[0]) / (2 * h)
        an = self.cover.value(z)[1]
        assert abs(fd - an) / abs(an) < 1e-8

    def test_metric_factor_is_sphere_speed(self):
        # m(du^2 + dv^2) must equal the pulled-back round metric, so the
        # squared speed of the sphere curve u -> p(z + u) is exactly m.
        z = 0.25 + 0.3j
        h = 1e-6
        pa, pb = sphere_jacobian(*self.cover.values(np.array([z + h, z - h])))[0]
        speed_sq = (np.linalg.norm(pa - pb) / (2 * h)) ** 2
        assert speed_sq == pytest.approx(metric_factors(self.cover, z), rel=1e-8)

    def test_derivative_nonvanishing_on_grid(self):
        for z in _interior_grid(50):
            assert abs(self.cover.value(z)[1]) > 1e-12

    def test_deck_invariance(self):
        tess = tessellate(1)
        sides = [s for t in tess.triangles for s in t.sides]
        checked = 0
        # a product of two side reflections is orientation preserving
        for sa, sb in itertools.permutations(sides[:8], 2):
            for z in (0.2 + 0.1j, -0.15 + 0.3j):
                gz = reflect_point(sa, reflect_point(sb, z))
                if abs(gz) >= 0.999:
                    continue
                assert abs(self.cover.value(gz)[0] - self.cover.value(z)[0]) < 1e-10
                checked += 1
        assert checked >= 20

    def test_outside_disc_rejected(self):
        with pytest.raises(PunctureError):
            self.cover.value(1.2 + 0j)


disc_points = st.builds(
    lambda r, t: r * cmath.exp(1j * t),
    st.floats(min_value=0.0, max_value=0.99),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
# z = cusp (1 - eps e^{i t}): deep in the cusps 1, i and -i, and now and
# then just outside the disc
cusp_points = st.builds(
    lambda cusp, e, t: cusp * (1.0 - 10.0 ** e * cmath.exp(1j * t)),
    st.sampled_from([1.0, 1j, -1j]),
    st.floats(min_value=-9.0, max_value=-1.0),
    st.floats(min_value=-1.5, max_value=1.5),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GHLabError as exc:
        return exc


class TestBatchedCover:
    """The conformal factor of a cover batch against the chart at one
    point, value(z)."""

    cover = ModularCover()

    @given(z=st.one_of(disc_points, cusp_points))
    @settings(max_examples=300, deadline=None)
    @example(z=1.2 + 0j)
    @example(z=0.8 + 0.8j)
    @example(z=-1.0 + 1e-16j)
    @example(z=0.999j)
    def test_agrees_with_scalar_chart(self, z):
        # z alone, and z inside a batch with points that settle at once
        scalar = _outcome(lambda: _metric_factors(*self.cover.value(z)))
        batch = _outcome(lambda: metric_factors(self.cover, np.array([0.1, z, -0.3j]))[1])
        if isinstance(scalar, GHLabError):
            assert type(batch) is type(scalar)
            assert str(batch) == str(scalar)
        elif scalar > 1e-250:
            assert abs(batch - scalar) <= 1e-12 * scalar

    def test_one_batch_matches_each_point(self):
        zs = np.array(_interior_grid(n=24, rmax=0.99))
        expect = np.array([_metric_factors(*self.cover.value(z)) for z in zs])
        got = metric_factors(self.cover, zs.reshape(2, -1))
        assert got.shape == (2, zs.size // 2)
        np.testing.assert_allclose(got.ravel(), expect, rtol=1e-12, atol=0.0)

    def test_first_failing_point_is_reported(self):
        zs = np.array([0.1, 0.5j, 1.5, -2.0])
        with pytest.raises(PunctureError, match=r"\|z\| = 1\.5 "):
            metric_factors(self.cover, zs)

    def test_reduction_budget_is_the_scalar_one(self):
        tau = 0.3 + 0.01j
        with pytest.raises(ConvergenceError) as scalar:
            reduce_to_fundamental(tau, max_iter=2)
        with pytest.raises(ConvergenceError) as batch:
            reduce_to_fundamental(np.array([0.1j + 2.0, tau]), max_iter=2)
        assert str(batch.value) == str(scalar.value)
        assert str(scalar.value).endswith(f"for {tau}")

    def test_in_disc_factor_reads_cusps_as_zero(self):
        # deep in the cusp at i the chart flips; -1 + 1e-16 is at the cusp -1
        zs = np.array([0.3 + 0.2j, 0.9999j, -0.9999999999999999])
        m = self.cover.metric_factors_in_disc(zs)
        assert m[0] == metric_factors(self.cover, zs[0]) > 0.0
        assert m[1] == m[2] == 0.0
        for z in zs[1:]:
            with pytest.raises(PunctureError, match="numerically at"):
                metric_factors(self.cover, z)
        with pytest.raises(PunctureError, match="not inside the disc"):
            self.cover.metric_factors_in_disc(np.array([0.3, 1.2]))

    def test_identity_chart(self):
        chart = IdentityChart()
        zs = np.array([0j, 0.3 + 0.4j, -0.9j, 0.6 - 0.7j])
        expect = [4.0 / (1.0 + abs(z) ** 2) ** 2 for z in zs]
        np.testing.assert_allclose(metric_factors(chart, zs), expect, rtol=1e-15)
        # the disc rule of every chart
        with pytest.raises(PunctureError, match=r"^\|z\| = 1\.5 is not inside the disc"):
            metric_factors(chart, np.array([0.3, 1.5, 2.0j]))


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
        w_inv, _, flipped = self.cover.chart(0.9999j)
        assert flipped
        assert abs(w_inv) < 1e-200
        assert puncture_distance(self.cover, 0.9999j, 3) < 1e-100

    @pytest.mark.parametrize("eps", [0.0075, 0.006, 0.005])
    def test_flipped_chart_derivative_matches_its_difference(self, eps):
        # the flipped chart swaps the anharmonic map's rows, which turns
        # the sign of its determinant; 1/w ~ 1e-180 .. 1e-270 here
        z = (1.0 - eps) * 1j
        h = 1e-9
        x, dx, flipped = self.cover.chart(np.array([z, z + h, z - h, z + 1j * h, z - 1j * h]))
        assert flipped.all()
        for fd in ((x[1] - x[2]) / (2 * h), (x[3] - x[4]) / (2j * h)):
            assert abs(fd / dx[0] - 1.0) < 1e-6

    @given(z=cover_points)
    @example(z=0.9999j)
    @example(z=1.2 + 0j)
    @example(z=1.0 + 0j)
    @example(z=0.5 + 0.9j)
    @settings(max_examples=200, deadline=None)
    def test_extended_chart_agrees_with_plain_chart(self, z):
        if abs(z) >= 1.0 or abs(1.0 + z) < AT_MINUS_ONE:
            # outside the disc, or numerically at the cusp z = -1
            for fn in (self.cover.value, self.cover.chart):
                with pytest.raises(PunctureError):
                    fn(z)
            return
        w, dw_dz, flipped = self.cover.chart(z)
        try:
            val = self.cover.value(z)
        except PunctureError:
            # the chart overflowed next to the puncture at w = infinity
            assert flipped
            assert puncture_distance(self.cover, z, 3) < 1e-12
            return
        assert not flipped
        assert (w, dw_dz) == val

    def test_moderate_points_keep_plain_chart(self):
        _, _, flipped = self.cover.chart(0.3 + 0.1j)
        assert not flipped


class TestHororegions:
    cover = ModularCover()

    def test_member_near_vertex_one(self):
        assert hororegion_test(self.cover, 0.97, 2, r=0.1)

    def test_member_near_vertex_i(self):
        assert hororegion_test(self.cover, 0.97j, 3, r=0.1)

    def test_nonmember_at_origin(self):
        for j in (1, 2, 3):
            assert not hororegion_test(self.cover, 0j, j, r=0.1)

    def test_doubled_ball_is_larger(self):
        # pick a point whose image distance to p2 lies between r and 2r
        z = None
        for s in np.linspace(0.05, 0.9, 400):
            d = puncture_distance(self.cover, s, 2)
            if 0.12 < d < 0.19:
                z = s
                break
        assert z is not None
        inner = hororegion_test(self.cover, z, 2, r=0.1)
        outer = hororegion_test(self.cover, z, 2, r=0.1, doubled=True)
        assert not inner and outer

    def test_an_array_of_z_is_tested_point_by_point(self):
        zs = np.array([0.97, 0.97j])
        member = hororegion_test(self.cover, zs, 2, r=0.1)
        assert member.tolist() == [True, False]
        assert member.tolist() == [hororegion_test(self.cover, z, 2, r=0.1) for z in zs]

    def test_radius_precondition(self):
        with pytest.raises(ValueError):
            hororegion_test(self.cover, 0j, 1, r=1.0)
        with pytest.raises(ValueError):
            hororegion_test(self.cover, 0j, 1, r=0.0)


def halfplane_side_points(c1, c2, n):
    """The geodesic joining two cusps at n log-spaced y in [1e-4, 1e4]."""
    ys = np.exp(np.linspace(math.log(1e-4), math.log(1e4), n))
    return [geodesic_point(c1, c2, y) for y in ys]


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
        w, dw_dz = self.chart.values(0.3 + 0.4j)
        assert w == 0.3 + 0.4j
        assert dw_dz == 1.0

    def test_metric_factor(self):
        z = 0.3 + 0.4j
        expect = 4.0 / (1.0 + abs(z) ** 2) ** 2
        assert metric_factors(self.chart, z) == pytest.approx(expect, rel=1e-15)

    def test_lift_matches_stereo(self):
        # the orientation-preserving stereographic lift of w = z
        z = 0.2 - 0.5j
        s = abs(z) ** 2
        stereo = np.array([2.0 * z.real, -2.0 * z.imag, s - 1.0]) / (1.0 + s)
        assert np.allclose(sphere_jacobian(*self.chart.values(z))[0], stereo)
