import cmath
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghlab.ansatz import HolomorphicData, standard_data
from ghlab.covering import ModularCover
from ghlab.errors import (
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
    fd_exterior_derivative,
    metric_field,
    quaternion_check,
    stencil_points,
    structure_coeffs,
)

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
            assert seen == set(stencil_points(complex(x[1], x[2]), config))

        def metric(X):
            seen.update((X[:, 1] + 1j * X[:, 2]).tolist())
            return metric_field(DATA)(X)

        seen.clear()
        curvature(metric, centres[0], h=1e-3)
        z = complex(*centres[0, 1:])
        assert seen == set(stencil_points(z, FDConfig(1e-3, richardson=0), depth=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FDConfig(h=0.0)
        with pytest.raises(ValueError):
            FDConfig(richardson=3)

    def test_cauchy_riemann(self):
        assert cauchy_riemann_residual(lambda z: z * z, 0.3 + 0.2j) < 1e-9
        assert cauchy_riemann_residual(lambda z: z.conjugate(), 0.3 + 0.2j) == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_covering_chart_is_holomorphic(self):
        for z in (0.25 + 0.1j, -0.3 + 0.4j):
            res = cauchy_riemann_residual(lambda w: DATA.cover.value(w).w, z)
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
        expected = -0.01 * bad.phi(z).imag * bad.cover.metric_factor(z)
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

    def test_singular_metric_is_a_degenerate_metric(self):
        with pytest.raises(DegenerateMetricError, match=r"x = \[1\.0, 0\.0, 0\.0\]"):
            curvature(lambda X: np.zeros((len(X), 4, 4)), [1.0, 0.0, 0.0])


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
    def nan_frames(self, monkeypatch):
        data = standard_data()
        frame = data.slice_frame

        def nan_omega(z, which="canonical"):
            return dataclasses.replace(frame(z, which), omega=np.full((3, 3), np.nan))

        monkeypatch.setattr(data, "slice_frame", nan_omega)
        return data

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

    @pytest.mark.parametrize("radius", [0.665, 0.66253])
    def test_zero_near_the_circle_is_not_counted(self, radius):
        """At 0.665 four zeros lie 0.0025 inside the circle, at 0.66253
        just outside: the trapezoid sums have not converged."""
        with pytest.raises(ZeroCountError):
            beta_zero_search(DATA, radius=radius)


@st.composite
def blaschke_specs(draw):
    """Degree 2 to 9: up to z^4 times zeros of multiplicity 1 or 2 with
    0.01 <= |a| <= 0.8, at least 0.05 apart.  Zeros stacked at one
    point would make a zero of psi' of any multiplicity, and past five
    its roots split beyond the cluster radius in double precision."""
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
        n = spec.degree()
        assert rep.winding == pytest.approx(n - 1, abs=1e-6)
        assert sum(k for _, k in rep.critical_points) == n - 1
        assert set(rep.zeros) <= {z for z, _ in rep.critical_points}
