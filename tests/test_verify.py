import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ghlab.holo
import ghlab.verify
from ghlab.ansatz import HolomorphicData, beta_cross_check, standard_data
from ghlab.cli import interior_points
from ghlab.covering import ModularCover
from ghlab.errors import (
    CoframeDomainError,
    DegenerateFrameError,
    DegenerateMetricError,
    GHLabError,
    InvalidDataError,
    MetricDomainError,
    StencilError,
    ZeroCountError,
)
from ghlab.holo import BlaschkeSpec, psi_fn
from ghlab.verify import (
    _CURL_DEGREE,
    _FORM_DEGREE,
    BetaZeroReport,
    FDConfig,
    _partials,
    beta_zero_search,
    cauchy_riemann_residual,
    closure_residual,
    contact_ratio,
    curl_residual,
    curvature,
    curvature_with_noise,
    metric_field,
    quaternion_check,
    stencil_points,
    structure_coeffs,
)
from oracles import fd_exterior_derivative, metric_factors

FLAT = HolomorphicData.flat_reference()
DATA = standard_data()


class TestFDEngine:
    def test_gradient_of_scalar(self):
        f = lambda x: x[0] ** 2 + x[1] * x[2]
        g = fd_exterior_derivative(f, [1.0, 2.0, 3.0])
        assert np.allclose(g, [2.0, 3.0, 2.0], atol=1e-9)

    def test_rotation_one_form(self):
        field = lambda x: np.array([-x[1], x[0]])
        d = fd_exterior_derivative(field, [0.4, -0.3])
        assert d[0, 1] == pytest.approx(2.0, abs=1e-9)
        assert d[1, 0] == pytest.approx(-2.0, abs=1e-9)

    def test_two_form(self):
        # d(x0 dx1^dx2) = dx0^dx1^dx2
        def field(x):
            F = np.zeros((3, 3))
            F[1, 2] = x[0]
            return F - F.T

        d = fd_exterior_derivative(field, [0.7, 0.1, -0.2])
        assert d[0, 1, 2] == pytest.approx(1.0, abs=1e-9)
        assert d[1, 0, 2] == pytest.approx(-1.0, abs=1e-9)

    def test_richardson_kills_cubic_error(self):
        f = lambda x: x[0] ** 3
        plain = fd_exterior_derivative(f, [0.5], FDConfig(h=1e-2, richardson=0))
        rich = fd_exterior_derivative(f, [0.5], FDConfig(h=1e-2, richardson=1))
        # central difference of x^3 carries error h^2 exactly
        assert abs(plain[0] - 0.75) == pytest.approx(1e-4, rel=1e-6)
        assert abs(rich[0] - 0.75) < 1e-12

    @pytest.mark.parametrize("richardson", [0, 1])
    def test_stacked_stencil(self, richardson):
        """A stack of centres is differenced as each centre alone, bit for
        bit, and stencil_points lists exactly the z a stencil evaluates."""
        config = FDConfig(h=1e-3, richardson=richardson)
        seen = set()

        def forms(X):
            z = X[:, 1] + 1j * X[:, 2]
            seen.update(z.tolist())
            return DATA.symplectic(X[:, 0], z)

        centres = np.array([[1.1, 0.3, 0.2], [0.7, -0.2, -0.35], [1.3, 0.05, 0.4]])
        value, stacked = _partials(forms, centres, config, n=4, value=True)
        for x, v, P in zip(centres, value, stacked):
            assert np.array_equal(P, _partials(forms, x, config, n=4))
            assert np.array_equal(v, DATA.symplectic(x[0], complex(x[1], x[2])))
        for x in centres:
            seen.clear()
            _partials(forms, x, config)
            assert seen == set(stencil_points(complex(x[1], x[2]), config).tolist())

        def metric(X):
            seen.update((X[:, 1] + 1j * X[:, 2]).tolist())
            return metric_field(DATA)(X)

        seen.clear()
        curvature(metric, centres[0], h=1e-3)
        z = complex(*centres[0, 1:])
        assert seen == set(stencil_points(z, FDConfig(1e-3, richardson=0), depth=2).tolist())
        # a stack of centres: one flat array of every centre's points
        stack = centres[:, 1] + 1j * centres[:, 2]
        for depth in (1, 2):
            alone = set().union(*(stencil_points(w, config, depth).tolist() for w in stack))
            assert set(stencil_points(stack, config, depth).tolist()) == alone

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FDConfig(h=0.0)
        with pytest.raises(ValueError):
            FDConfig(richardson=3)
        with pytest.raises(ValueError, match="curvature step must be positive"):
            FDConfig(curvature_h=0.0)

    def test_a_step_that_rounds_back_raises_at_any_level(self):
        """A step that rounds back onto a centre in the u or v it moves
        raises, naming u before v and h before h/2.  u0 just below 1/2
        moves by 4e-17 onto 1/2, where half an ulp is 5.6e-17: the nested
        stencil of curvature would not move it on."""
        u0 = math.nextafter(0.5, 0.0)
        config = FDConfig(4e-17, richardson=0)
        assert 0.5 in stencil_points(u0, config).real.tolist()
        with pytest.raises(StencilError, match=re.escape(
                "the step 4e-17 rounds back onto its centre at u = 0.5")):
            stencil_points(u0, config, depth=2)
        with pytest.raises(StencilError, match=re.escape(
                "the step 1e-20 rounds back onto its centre at u = 0.3")):
            stencil_points(0.3 + 0.2j, FDConfig(1e-20))
        # u = 0.1 moves by 5e-17, v = 0.9 does not, nor does u = 0.6 by h/2
        with pytest.raises(StencilError, match=re.escape(
                "the step 5e-17 rounds back onto its centre at v = 0.9")):
            stencil_points([0.3j, 0.1 + 0.9j], FDConfig(5e-17, richardson=0))
        with pytest.raises(StencilError, match=re.escape(
                "the step 5e-17 rounds back onto its centre at u = 0.6")):
            stencil_points([0.3j, 0.6 + 0.1j], FDConfig(1e-16))

    def test_cauchy_riemann(self):
        assert cauchy_riemann_residual(lambda z: z * z, 0.3 + 0.2j) < 1e-9
        zs = np.array([[0.3 + 0.2j, -0.5 + 0.1j]])
        got = cauchy_riemann_residual(np.conj, zs)
        assert got.shape == zs.shape
        assert got.tolist() == [[cauchy_riemann_residual(np.conj, z) for z in zs[0]]]
        assert cauchy_riemann_residual(lambda z: z.conjugate(), 0.3 + 0.2j) == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_covering_chart_is_holomorphic(self):
        for z in (0.25 + 0.1j, -0.3 + 0.4j):
            res = cauchy_riemann_residual(lambda w: DATA.cover.values(w)[0], z)
            assert res < 1e-8


class TestGibbonsHawking:
    @pytest.mark.parametrize("data", [FLAT, DATA], ids=["flat", "blaschke"])
    def test_forms_closed(self, data):
        assert closure_residual(data, 1.1, 0.3 + 0.2j) < 1e-8

    @pytest.mark.parametrize("data", [FLAT, DATA], ids=["flat", "blaschke"])
    def test_curl_equation(self, data):
        assert curl_residual(data, 1.1, 0.3 + 0.2j)["max"] < 1e-8

    def test_corrupted_potential_flagged(self):
        bad = standard_data(v_multiplier=1.01)
        z = 0.3 + 0.2j
        out = curl_residual(bad, 1.1, z)
        expected = -0.01 * bad.phi(z).imag * metric_factors(bad.cover, z)
        assert out["du^dv"] == pytest.approx(expected, rel=1e-4)
        assert out["max"] > 1e-3

    @pytest.mark.parametrize("data", [FLAT, DATA], ids=["flat", "blaschke"])
    @pytest.mark.parametrize("rho,z", [(1.1, 0.3 + 0.2j), (0.7, -0.2 - 0.35j)])
    def test_quaternion_algebra(self, data, rho, z):
        out = quaternion_check(data, rho, z)
        assert out["unit"] < 1e-12
        assert out["product"] < 1e-12
        assert out["anticommute"] < 1e-12
        assert out["roundtrip"] < 1e-12


DIRECTIONS = [cmath.exp(1j * (0.5 + 2 * math.pi * j / 8)) for j in range(8)]


class TestExactRhoColumn:
    """closure_residual and curl_residual take the partials along rho of
    the forms, of Theta and of V from the homothety, d_rho F = k F / rho
    for a field that goes as rho^k.  That agrees with the central
    difference along rho to within its truncation, h^2/6 |k (k - 1)
    (k - 2)| |F| / rho^3 at leading order, which vanishes for k = 0
    and 1, and rounding."""

    H = 1e-3

    @pytest.mark.parametrize("rho, z", [(1.1, 0.3 + 0.2j), (0.7, -0.2 - 0.35j), (2.5, 0.15 + 0.5j),
                                        (0.3, -0.55 + 0.1j)])
    def test_matches_the_difference_along_rho(self, rho, z):
        def forms(X):
            return DATA.symplectic(X[:, 0], z)

        def eta_and_v(X):
            V, theta, _ = DATA._fields(X[:, 0], z)
            return np.column_stack((theta[:, :3], V))

        for field, degree in ((forms, _FORM_DEGREE), (eta_and_v, _CURL_DEGREE)):
            F, P = _partials(field, [rho], FDConfig(h=self.H, richardson=0), value=True)
            exact = degree * F / rho
            truncation = self.H ** 2 / 6 * np.abs(degree * (degree - 1) * (degree - 2) * F) / rho ** 3
            assert np.all(np.abs(P[0] - exact) <= 1.5 * truncation + 1e-12 * np.abs(F).max())
            # the difference sees the truncation of each nonzero entry of
            # degree -1: V and Theta_rho (the forms have none)
            seen = (np.broadcast_to(degree, F.shape) == -1) & (F != 0)
            assert np.all(np.abs(P[0] - exact)[seen] > 0.5 * truncation[seen])
            assert seen.sum() == (2 if field is eta_and_v else 0)


class TestQuaternionDomain:
    def test_residual_or_domain_error(self):
        """Along eight directions and the real axis up to |z| = 0.95, at
        rho = 1 and on the canonical slice, quaternion_check returns
        residuals below 1e-8 or raises MetricDomainError, and nothing
        else."""
        limited = []
        for d in DIRECTIONS + [1.0]:
            for r in np.linspace(0.0, 0.95, 39):
                z = complex(r * d)
                for rho in (1.0, DATA.psi(z).imag):
                    try:
                        out = quaternion_check(DATA, rho, z)
                    except MetricDomainError:
                        limited.append(z)
                    except GHLabError as exc:
                        pytest.fail(f"quaternion_check at z = {z} raised {exc!r}")
                    else:
                        assert max(out.values()) < 1e-8, (z, rho, out)
        # m decays fastest along the real axis, and only there the
        # coordinate arrays lose the coframe
        assert limited and all(z.imag == 0.0 and z.real > 0.6 for z in limited)

    def test_ill_conditioned_metric(self):
        """At the worst point of verify --grid 400 --seed 16, where
        cond(G) is 2.5e5, the coframe keeps the algebra exact."""
        z = 0.6014 - 0.0001j
        out = quaternion_check(DATA, DATA.psi(z).imag, z)
        assert max(out.values()) < 1e-11


def _agree(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    assert np.all(np.abs(got - want) <= np.maximum(1e-12 * np.abs(want), 1e-15)), what


class TestStackedChecks:
    """Each check runs once over a stack of centres.  At every one of
    the 100 verify centres it gives what the one-centre call gives, and
    its results take the shape of the centres."""

    @pytest.fixture(scope="class")
    def centres(self):
        z = np.array(interior_points(100, 0))
        rho = DATA.slice_frames(z).rho
        return rho.reshape(10, 10), z.reshape(10, 10)

    @staticmethod
    def _each(stacked, one, rho, z):
        """Compare stacked (a float, dict or fit per centre, on the
        (10, 10) grid) with one(rho, z) at each centre."""
        for idx in np.ndindex(z.shape):
            want = one(float(rho[idx]), complex(z[idx]))
            if isinstance(want, float):
                want = {"value": want}
                got = {"value": stacked[idx]}
            elif isinstance(want, dict):
                got = {k: v[idx] for k, v in stacked.items()}
            else:
                want = vars(want)
                got = {k: v[idx] for k, v in vars(stacked).items()}
            assert got.keys() == want.keys()
            for key in want:
                _agree(got[key], want[key], (key, z[idx]))

    def test_closure(self, centres):
        self._each(closure_residual(DATA, *centres),
                   lambda rho, z: closure_residual(DATA, rho, z), *centres)

    def test_curl(self, centres):
        self._each(curl_residual(DATA, *centres),
                   lambda rho, z: curl_residual(DATA, rho, z), *centres)

    def test_quaternion(self, centres):
        self._each(quaternion_check(DATA, *centres),
                   lambda rho, z: quaternion_check(DATA, rho, z), *centres)

    @pytest.mark.parametrize("which", ["zero", "canonical"])
    def test_structure(self, centres, which):
        data = standard_data(rho0_kind="scaled", rho0_scale=0.7)
        self._each(structure_coeffs(data, centres[1], which),
                   lambda rho, z: structure_coeffs(data, z, which), *centres)

    def test_contact(self, centres):
        self._each(contact_ratio(DATA, centres[1]),
                   lambda rho, z: contact_ratio(DATA, z), *centres)

    def test_beta_cross(self, centres):
        self._each(beta_cross_check(DATA, centres[1]),
                   lambda rho, z: beta_cross_check(DATA, z), *centres)

    def test_scalar_calls_give_floats(self):
        z = 0.3 + 0.2j
        assert type(closure_residual(DATA, 1.1, z)) is float
        assert all(type(v) is float for v in curl_residual(DATA, 1.1, z).values())
        assert all(type(v) is float for v in quaternion_check(DATA, 1.1, z).values())
        assert all(type(v) is float for v in contact_ratio(DATA, z).values())
        fit = structure_coeffs(DATA, z)
        assert (type(fit.lam0), type(fit.residual), type(fit.lam0_predicted)) == (float,) * 3
        assert fit.beta0.shape == fit.beta0_predicted.shape == (3,)

    def test_domain_limited_centre_is_named(self, centres):
        """A stack with a centre where rounding has taken the coframe,
        on the real axis at |z| = 0.75 on the canonical slice, raises
        for that centre, the first limited one in point order."""
        z = np.concatenate((centres[1].ravel()[:5], [0.75, 0.8], centres[1].ravel()[5:9]))
        rho = DATA.psi(z).imag
        with pytest.raises(CoframeDomainError, match=re.escape("|z| = 0.75:")):
            quaternion_check(DATA, rho, z)


class TestCurvature:
    def test_flat_reference_is_flat(self):
        rep = curvature(metric_field(FLAT), [1.3, 0.2, 0.1, 0.0], h=1e-3)
        assert rep.riemann_max < 1e-4
        assert rep.ricci_max < 1e-4

    def test_hyperkahler_is_ricci_flat_but_curved(self):
        coarse, fine, noise = curvature_with_noise(
            metric_field(DATA), [1.1, 0.3, 0.2, 0.0], h=1e-3
        )
        assert coarse.ricci_max < 10.0 * max(noise["ricci"], 1e-10)
        assert coarse.riemann_max > 100.0 * max(noise["riemann"], 1e-10)
        assert coarse.riemann_max > 0.1

    def test_truncation_error_is_second_order(self):
        # Ricci of this data is genuinely zero, so the measured value is
        # pure truncation error of the plain central scheme
        r1 = curvature(metric_field(DATA), [1.1, 0.3, 0.2, 0.0], h=1e-2)
        r2 = curvature(metric_field(DATA), [1.1, 0.3, 0.2, 0.0], h=5e-3)
        assert 3.0 < r1.ricci_max / r2.ricci_max < 5.0

    def test_cone_point_guard(self):
        with pytest.raises(StencilError):
            curvature(metric_field(FLAT), [1e-3, 0.1, 0.1, 0.0], h=1e-3)

    def test_a_step_that_rounds_back_onto_rho_raises(self):
        # 0.1 + 1e-17 moves, 1.1 + 1e-17 == 1.1: a rho partial of zeros
        with pytest.raises(StencilError, match=re.escape(
                "the step 1e-17 rounds back onto its centre at rho = 1.1")):
            curvature(metric_field(DATA), [[0.1, 0.1, 0.1], [1.1, 0.3, 0.2]], h=1e-17)

    def test_both_steps_are_checked_before_the_first_pass(self):
        # 0.9 + 8e-17 moves and 0.9 + 4e-17 == 0.9: the fine step fails,
        # and the coarse pass must not run first
        calls = []
        fn = metric_field(DATA)

        def counting(X):
            calls.append(len(X))
            return fn(X)

        with pytest.raises(StencilError, match=re.escape(
                "the step 4e-17 rounds back onto its centre at rho = 0.9")):
            curvature_with_noise(counting, [0.9, 0.1, 0.1], h=8e-17)
        assert calls == []

    def test_singular_metric_is_a_degenerate_metric(self):
        with pytest.raises(DegenerateMetricError, match=r"x = \[1\.0, 0\.0, 0\.0\]"):
            curvature(lambda X: np.zeros((len(X), 4, 4)), [1.0, 0.0, 0.0])


class TestStackedCurvature:
    """curvature over a stack of centres equals the one-centre calls bit
    for bit, and its errors name the first failing centre."""

    @staticmethod
    def centres(width):
        zs = interior_points(8, 3, radius=0.45)
        rho = np.linspace(0.8, 1.4, len(zs))
        x = np.array([[r, z.real, z.imag, 0.3 * k] for k, (r, z) in enumerate(zip(rho, zs))])
        return x[:, :width]

    @pytest.mark.parametrize("chunk", [16, 3], ids=["one-stack", "chunked"])
    @pytest.mark.parametrize("width", [3, 4], ids=["rho-u-v", "with-theta"])
    @pytest.mark.parametrize("data", [FLAT, DATA], ids=["flat", "blaschke"])
    def test_stack_matches_one_centre_calls(self, monkeypatch, data, width, chunk):
        monkeypatch.setattr(ghlab.verify, "_CURVATURE_CHUNK", chunk)
        fn, x = metric_field(data), self.centres(width)
        coarse, fine, noise = curvature_with_noise(fn, x, h=1e-3)
        for i, xi in enumerate(x):
            c, f, n = curvature_with_noise(fn, xi, h=1e-3)
            for stack, one in ((coarse, c), (fine, f)):
                assert (stack.riemann_max[i], stack.ricci_max[i], stack.scalar[i]) == (
                    one.riemann_max, one.ricci_max, one.scalar)
            assert (noise["riemann"][i], noise["ricci"][i]) == (n["riemann"], n["ricci"])
        grid = curvature(fn, x.reshape(2, 4, width), h=1e-3)
        assert grid.riemann_max.shape == (2, 4)
        assert np.array_equal(grid.scalar.ravel(), coarse.scalar)

    @pytest.mark.parametrize("rho", [1e-3, float("nan")], ids=["low", "nan"])
    def test_a_low_centre_names_its_rho(self, rho):
        x = self.centres(3)
        x[5, 0] = rho
        x[6, 0] = 2e-3
        with pytest.raises(StencilError, match=f"^rho = {rho} too close"):
            curvature(metric_field(FLAT), x, h=1e-3)

    def test_a_singular_centre_is_named(self):
        x = self.centres(3)

        def metric(X):
            G = metric_field(FLAT)(X)
            G[X[:, 1] == x[4, 1]] = 0.0  # singular on the line u = u_4
            return G

        with pytest.raises(DegenerateMetricError,
                           match=re.escape(f"x = {x[4].tolist()}")):
            curvature(metric, x, h=1e-3)


class TestStructureEquations:
    @pytest.mark.parametrize("z", [0.3 + 0.2j, -0.2 + 0.4j])
    def test_canonical_slice(self, z):
        fit = structure_coeffs(DATA, z, "canonical")
        assert fit.residual < 1e-8
        assert fit.lam0 == pytest.approx(1.0, abs=1e-8)
        assert np.abs(fit.beta0 - fit.beta0_predicted).max() < 1e-8

    @pytest.mark.parametrize("z", [0.3 + 0.2j, -0.2 + 0.4j])
    def test_zero_slice_constant_rho0(self, z):
        data = standard_data(rho0_kind="constant", rho0_scale=0.7)
        fit = structure_coeffs(data, z, "zero")
        assert fit.residual < 1e-8
        assert fit.lam0 == pytest.approx(math.exp(data.slice_frame(z).t_slice), rel=1e-6)
        assert fit.lam0 == pytest.approx(fit.lam0_predicted, rel=1e-8)
        assert np.abs(fit.beta0 - fit.beta0_predicted).max() < 1e-8


class TestContactRatio:
    @pytest.mark.parametrize("z", [0.3 + 0.2j, 0.5 - 0.1j, -0.15 + 0.42j])
    def test_two_routes_agree_and_are_negative(self, z):
        out = contact_ratio(DATA, z)
        assert out["ratio"] == pytest.approx(out["algebraic"], abs=1e-8)
        assert out["ratio"] < 0

    def test_vanishes_at_contact_zero(self):
        rep = _zeros()
        ring = [z for z in rep.zeros if abs(z) > 0.1][0]
        out = contact_ratio(DATA, ring)
        assert abs(out["algebraic"]) < 1e-12
        assert abs(out["ratio"]) < 1e-8


class TestDegenerateFrames:
    """Linear algebra that fails on a frame is a DegenerateFrameError
    naming z, never a bare LinAlgError."""

    Z = 0.3 + 0.2j

    @pytest.fixture
    def nan_frames(self):
        # a NaN coframe at Z alone, planted in the kept frame's store row
        data = standard_data()
        data.slice_frame(self.Z)
        data._store["canonical"]["omega"][data._rows(self.Z)] = np.nan
        return data

    @pytest.mark.parametrize("check", [structure_coeffs, contact_ratio])
    def test_stack_names_the_failing_centre(self, nan_frames, check):
        zs = np.array([-0.2 + 0.1j, self.Z, 0.1 - 0.3j])
        with pytest.raises(DegenerateFrameError, match=re.escape(f"z = {self.Z}")):
            check(nan_frames, zs)

    def test_structure_fit(self, nan_frames):
        with pytest.raises(DegenerateFrameError, match=re.escape(f"z = {self.Z}")):
            structure_coeffs(nan_frames, self.Z)

    def test_contact_ratio(self, nan_frames):
        with pytest.raises(DegenerateFrameError, match=re.escape(f"z = {self.Z}")):
            contact_ratio(nan_frames, self.Z)

    def test_contact_solve(self, monkeypatch):
        data = standard_data()
        data.slice_frame(self.Z)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(DegenerateFrameError, match="Singular matrix"):
            contact_ratio(data, self.Z)


_ZERO_CACHE = []


def _zeros() -> BetaZeroReport:
    if not _ZERO_CACHE:
        _ZERO_CACHE.append(beta_zero_search(DATA))
    return _ZERO_CACHE[0]


class TestBetaZeros:
    def test_count_and_radii(self):
        rep = _zeros()
        assert len(rep.zeros) == 5
        radii = sorted(abs(z) for z in rep.zeros)
        assert radii[0] < 1e-3
        for r in radii[1:]:
            assert r == pytest.approx(0.6625322041, abs=1e-6)

    def test_fourfold_symmetry(self):
        rep = _zeros()
        ring = [z for z in rep.zeros if abs(z) > 0.1]
        base = [z for z in ring if abs(z.imag) < 1e-6 and z.real > 0][0]
        for k in range(4):
            target = base * 1j**k
            assert min(abs(z - target) for z in ring) < 1e-9

    def test_all_are_actual_zeros(self):
        rep = _zeros()
        assert max(rep.beta_norms) < 1e-10

    def test_separated(self):
        assert _zeros().min_separation > 0.6

    def test_three_vertex_variant(self):
        rep = beta_zero_search(standard_data(vertices=(1, -1, 1j)))
        assert len(rep.zeros) == 1
        assert rep.zeros[0] == pytest.approx(0.658269j, abs=1e-4)
        assert rep.min_separation == math.inf

    def test_constant_data_rejected(self):
        with pytest.raises(InvalidDataError):
            beta_zero_search(FLAT)

    def test_origin_is_a_triple_critical_point(self):
        rep = _zeros()
        (centre, mult), = [(z, k) for z, k in rep.critical_points if abs(z) < 1e-3]
        assert mult == 3
        assert abs(centre) < 1e-12
        assert centre in rep.zeros

    def test_certificate(self):
        rep = _zeros()
        assert rep.winding == pytest.approx(7.0, abs=1e-6)
        assert sum(k for _, k in rep.critical_points) == 7
        assert rep.winding_gap <= 1e-6
        assert rep.radius == 0.9
        assert rep.nodes % 2 == 0
        assert rep.min_dpsi > 0.1

    @pytest.mark.parametrize("m", range(2, 9))
    def test_power_of_z_is_one_critical_point(self, m):
        """B = z^m: psi' has one zero, of multiplicity m - 1, at 0.  The
        power-sum roots of it spread by about 1e-3 from m = 7 on, beyond
        the cluster radius, and their reaches link them."""
        rep = beta_zero_search(HolomorphicData(cover=ModularCover(),
                                               psi=psi_fn(BlaschkeSpec(m=m))))
        (centre, mult), = rep.critical_points
        assert mult == m - 1
        assert abs(centre) < 1e-12

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("a", [0.3, 0.5j, cmath.rect(0.7, 2.0), -0.8])
    def test_stacked_zero_is_one_critical_point(self, a, k):
        """B = z ((a - z)/(1 - conj(a) z))^k: psi' has a zero of
        multiplicity k - 1 at a and a simple one between 0 and a."""
        spec = BlaschkeSpec(m=1, zeros=((a, k),))
        rep = beta_zero_search(HolomorphicData(cover=ModularCover(), psi=psi_fn(spec)))
        assert sorted(mult for _, mult in rep.critical_points) == sorted((1, k - 1))
        assert min(abs(z - a) for z, mult in rep.critical_points if mult == k - 1) < 1e-12

    @pytest.mark.parametrize("radius", [0.0, -0.5, 1.0, 1.5, math.nan])
    def test_radius_outside_the_disc_rejected(self, radius, monkeypatch):
        """A circle not strictly inside the disc is a bad argument, not a
        false mathematical failure: no jet is taken."""
        def no_jet(spec, z):
            raise AssertionError("psi's jet taken")

        monkeypatch.setattr(ghlab.holo, "blaschke_derivs", no_jet)
        with pytest.raises(ValueError, match=re.escape(f"radius = {radius} outside (0, 1)")):
            beta_zero_search(DATA, radius=radius)

    @pytest.mark.parametrize("radius", [0.665, 0.66253])
    def test_zero_near_the_circle_is_not_counted(self, radius):
        """At 0.665 four zeros lie 0.0025 inside the circle, at 0.66253
        just outside: the trapezoid sums have not converged."""
        with pytest.raises(ZeroCountError):
            beta_zero_search(DATA, radius=radius)


@st.composite
def blaschke_specs(draw):
    """Degree 2 to 9: up to z^4 times zeros of multiplicity 1 or 2 with
    0.01 <= |a| <= 0.8, at least 0.05 apart.  Zeros stacked higher at
    one point are drawn apart, in TestBetaZeros."""
    degree = draw(st.integers(2, 9))
    m = draw(st.integers(0, min(4, degree)))
    zeros = []
    left = degree - m
    while left:
        mult = draw(st.integers(1, min(2, left)))
        a = cmath.rect(draw(st.floats(0.01, 0.8)), draw(st.floats(0.0, 2 * math.pi)))
        assume(all(abs(a - b) >= 0.05 for b, _ in zeros))
        zeros.append((a, mult))
        left -= mult
    return BlaschkeSpec(m=m, zeros=tuple(zeros))


class TestZeroCount:
    @given(spec=blaschke_specs())
    @settings(max_examples=100, deadline=None)
    def test_critical_points_of_blaschke_products(self, spec):
        """A Blaschke product of degree n has n - 1 critical points in
        the disc (Walsh), and so psi' has n - 1 zeros."""
        data = HolomorphicData(cover=ModularCover(), psi=psi_fn(spec))
        rep = beta_zero_search(data)
        n = spec.m + sum(mult for _, mult in spec.zeros)
        assert rep.winding == pytest.approx(n - 1, abs=1e-6)
        assert sum(k for _, k in rep.critical_points) == n - 1
        assert set(rep.zeros) <= {z for z, _ in rep.critical_points}
