import cmath
import itertools
import math
import re

import numpy as np
import pytest

import ghlab.ansatz
from ghlab.ansatz import (
    HolomorphicData,
    beta_cross_check,
    mu_variant,
    sphere_jacobian,
    standard_data,
    wedge,
)
from ghlab.errors import (
    DegenerateMetricError,
    GHLabError,
    InvalidDataError,
    MetricDomainError,
    PunctureError,
)
from ghlab.holo import HoloFn, MuSpec
from oracles import curl_source, metric_factors

FLAT = HolomorphicData.flat_reference()
DATA = standard_data()

SAMPLE_POINTS = [0.3 + 0.2j, -0.15 + 0.42j, 0.5 - 0.1j, -0.33 - 0.28j]


def fd_closure_residual(data, rho, z, h=1e-5):
    """Worst component of d(Omega_i) over all coordinate triples."""
    worst = 0.0
    for i in range(3):
        d_rho = (
            np.array(data.symplectic(rho + h, z)[i]) - data.symplectic(rho - h, z)[i]
        ) / (2 * h)
        d_u = (
            np.array(data.symplectic(rho, z + h)[i]) - data.symplectic(rho, z - h)[i]
        ) / (2 * h)
        d_v = (
            np.array(data.symplectic(rho, z + 1j * h)[i])
            - data.symplectic(rho, z - 1j * h)[i]
        ) / (2 * h)
        parts = [d_rho, d_u, d_v, np.zeros((4, 4))]
        for a, b, c in itertools.combinations(range(4), 3):
            worst = max(worst, abs(parts[a][b, c] - parts[b][a, c] + parts[c][a, b]))
    return worst


class TestFlatReference:
    def test_potential(self):
        assert FLAT._fields(2.0, 0.1 + 0.1j)[0] == pytest.approx(0.25)
        assert FLAT._fields(0.5, 0j)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("z", [0.3 + 0.2j, -0.5 + 0.1j, 0.7j])
    def test_xi_closed_form(self, z):
        # f = 1/2, phi' = 0 and a = conj(z)/(1 + |z|^2): the radial gauge's xi
        xi_u, xi_v = FLAT.xi_at(z)
        coeff = 1.0 / (1.0 + abs(z) ** 2)
        assert xi_u == pytest.approx(-z.imag * coeff, abs=1e-12)
        assert xi_v == pytest.approx(z.real * coeff, abs=1e-12)

    def test_xi_vanishes_at_origin(self):
        assert FLAT.xi_at(0j) == (0.0, 0.0)

    def test_beta_vanishes_on_canonical_slice(self):
        # psi is the constant 2i, so both d(log Im psi) and Re(psi) die
        for z in SAMPLE_POINTS:
            frame = FLAT.slice_frame(z)
            assert np.abs(frame.beta).max() < 1e-14
            assert np.abs(frame.g3 - frame.g_s).max() < 1e-13


class TestSphereJacobian:
    @pytest.mark.parametrize("data", [FLAT, DATA], ids=["flat", "blaschke"])
    def test_partials_match_fd(self, data):
        z = 0.3 + 0.2j
        h = 1e-6
        p, dpu, dpv = sphere_jacobian(*data.cover.values(
            np.array([z, z + h, z - h, z + 1j * h, z - 1j * h])))
        fdu = (p[1] - p[2]) / (2 * h)
        fdv = (p[3] - p[4]) / (2 * h)
        assert np.abs(dpu[0] - fdu).max() < 1e-8
        assert np.abs(dpv[0] - fdv).max() < 1e-8

    def test_chart_is_orientation_preserving(self):
        for w in (0.2 + 0.1j, 1.5 - 0.4j, 0.01j):
            p, dpa_u, dpa_v = sphere_jacobian(w, 1.0 + 0j)
            normal = np.cross(dpa_u, dpa_v)
            assert float(np.dot(normal, p)) > 0

    @pytest.mark.parametrize("rho,z", [(1.7, 0.3 + 0.2j), (0.6, -0.25 - 0.4j)])
    def test_momentum_jacobian_gram(self, rho, z):
        # conformality of the covering: the dx rows are orthogonal with
        # the squared lengths (1, rho^2 m, rho^2 m)
        dx = DATA._fields(rho, z)[2][:, :3]
        m = DATA.record(z).m
        base = np.diag([1.0, rho * rho * m, rho * rho * m])
        assert np.abs(dx.T @ dx - base).max() < 1e-12

    def test_momentum_length(self):
        frame = DATA.slice_frame(0.2 + 0.1j)
        assert np.linalg.norm(frame.x) == pytest.approx(frame.rho)

    @pytest.mark.parametrize("r", [0.98289659, 0.984, 0.988, 0.99, 0.991])
    def test_stretch_on_the_way_into_a_cusp(self, r):
        """Toward the cusp at i, |w| grows from 7.7e77 to 5.1e149 before
        the chart flips, where (1 + |w|^2)^2 overflows.  The partials of
        the sphere point each keep the conformal stretch 2|w'|/(1+|w|^2)."""
        z = r * 1j
        data = standard_data()
        data.fill([z])
        (w,), (dw_dz,) = data.cover.values(np.array([z]))
        assert 1e70 <= abs(w) <= 1e150
        stretch = 2.0 * abs(dw_dz) / (1.0 + abs(w) ** 2)
        # row 5: holds dx at rho = 1, whose columns are (p, dp/du, dp/dv, 0)
        dp = data.record(z).row[5:].reshape(3, 4)
        for column in (1, 2):
            assert np.linalg.norm(dp[:, column]) == pytest.approx(stretch, rel=1e-12)


class TestHomogeneity:
    @pytest.mark.parametrize("s", [0.5, 2.7])
    def test_metric_degree_one(self, s):
        z, rho = 0.2 + 0.35j, 1.3
        D = np.diag([s, 1.0, 1.0, 1.0])
        G1 = DATA.metric(rho, z)
        G2 = DATA.metric(s * rho, z)
        assert np.abs(D.T @ G2 @ D - s * G1).max() < 1e-12

    @pytest.mark.parametrize("s", [0.5, 2.7])
    def test_forms_degree_one(self, s):
        z, rho = 0.2 + 0.35j, 1.3
        D = np.diag([s, 1.0, 1.0, 1.0])
        for om1, om2 in zip(DATA.symplectic(rho, z), DATA.symplectic(s * rho, z)):
            assert np.abs(D.T @ om2 @ D - s * om1).max() < 1e-12

    def test_potential_degree_minus_one(self):
        z = 0.1 + 0.4j
        assert DATA._fields(2.6, z)[0] == pytest.approx(DATA._fields(1.3, z)[0] / 2)

    @pytest.mark.parametrize("lam", [0.5, 1.3, 2.7])
    def test_metric_is_a_diagonal_rescaling(self, lam):
        """g(lam rho, z) = D g(rho, z) D with D = diag(lam^w) and weights
        w = (-1/2, 1/2, 1/2, 1/2) over (rho, u, v, theta), to rounding:
        the exact rho-dependence of every metric component."""
        rng = np.random.default_rng(5)
        D = lam ** np.array([-0.5, 0.5, 0.5, 0.5])
        radii, turns = np.sqrt(rng.uniform(size=200)), rng.uniform(size=200)
        zs = 0.62 * radii * np.exp(2j * math.pi * turns)
        rhos = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=200))
        data = standard_data()
        data.fill(zs)
        for rho, z in zip(rhos, zs):
            g, g_lam = data.metric(rho, z), data.metric(lam * rho, z)
            assert np.abs(g_lam - D[:, None] * g * D).max() <= 1e-15 * np.abs(g_lam).max()

    @pytest.mark.parametrize("lam", [0.5, 1.3, 2.7])
    def test_fields_rescale_by_their_weights(self, lam):
        """Omega_i(lam rho, z) = D Omega_i(rho, z) D with D = diag(lam^w),
        V(lam rho, z) = V(rho, z) / lam and Theta_a(lam rho, z) =
        lam^(w_a - 1/2) Theta_a(rho, z), w = HolomorphicData.WEIGHTS, to
        rounding: the exact rho-dependence from which closure_residual
        and curl_residual take their rho column."""
        rng = np.random.default_rng(5)
        w = HolomorphicData.WEIGHTS
        D = lam ** w
        radii, turns = np.sqrt(rng.uniform(size=200)), rng.uniform(size=200)
        zs = 0.62 * radii * np.exp(2j * math.pi * turns)
        rhos = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=200))
        data = standard_data()
        om, om_lam = data.symplectic(rhos, zs), data.symplectic(lam * rhos, zs)
        (V, theta, _), (V_lam, theta_lam, _) = data._fields(rhos, zs), data._fields(lam * rhos, zs)
        for i in range(len(zs)):
            assert (np.abs(om_lam[i] - D[:, None] * om[i] * D).max()
                    <= 1e-15 * np.abs(om_lam[i]).max()), zs[i]
            assert abs(V_lam[i] - V[i] / lam) <= 1e-15 * V_lam[i], zs[i]
            assert (np.abs(theta_lam[i] - lam ** (w - 0.5) * theta[i]).max()
                    <= 1e-15 * np.abs(theta_lam[i]).max()), zs[i]


class TestScalarBroadcast:
    """metric and symplectic broadcast a scalar rho or a scalar z against
    an array of the other: the stack holds the value at each pair, bit
    for bit."""

    zs = np.array(SAMPLE_POINTS)
    rhos = np.array([0.7, 1.1, 1.9, 3.0])

    @pytest.mark.parametrize("name, tail", [("metric", (4, 4)), ("symplectic", (3, 4, 4))])
    def test_scalar_rho_against_an_array_of_z(self, name, tail):
        f = getattr(DATA, name)
        stack = f(1.3, self.zs)
        assert stack.shape == self.zs.shape + tail
        for z, got in zip(self.zs, stack):
            assert np.array_equal(got, f(1.3, z))

    @pytest.mark.parametrize("name, tail", [("metric", (4, 4)), ("symplectic", (3, 4, 4))])
    def test_scalar_z_against_an_array_of_rho(self, name, tail):
        f, z = getattr(DATA, name), SAMPLE_POINTS[1]
        stack = f(self.rhos.reshape(2, 2), z)
        assert stack.shape == (2, 2) + tail
        for rho, got in zip(self.rhos, stack.reshape((4,) + tail)):
            assert np.array_equal(got, f(rho, z))


class TestForms:
    @pytest.mark.parametrize("data", [FLAT, DATA], ids=["flat", "blaschke"])
    def test_symplectic_forms_closed(self, data):
        assert fd_closure_residual(data, 1.1, 0.3 + 0.2j) < 1e-6

    def test_corrupted_potential_breaks_closure(self):
        bad = standard_data(v_multiplier=1.01)
        assert fd_closure_residual(bad, 1.1, 0.3 + 0.2j) > 1e-3

    def test_coframe_differentiates_to_forms(self):
        # omega_i is the scaling-field contraction of Omega_i, and its
        # exterior derivative on the slice must reproduce Omega_i there
        z, h = 0.3 + 0.2j, 1e-5
        du = (DATA.slice_frame(z + h).omega - DATA.slice_frame(z - h).omega) / (2 * h)
        dv = (
            DATA.slice_frame(z + 1j * h).omega - DATA.slice_frame(z - 1j * h).omega
        ) / (2 * h)
        frame = DATA.slice_frame(z)
        rho_s, grad = frame.rho, frame.drho[:2]
        pull = np.zeros((4, 3))
        pull[0, 0], pull[0, 1] = grad
        pull[1, 0] = pull[2, 1] = pull[3, 2] = 1.0
        for i, om in enumerate(DATA.symplectic(rho_s, z)):
            fd = np.array([du[i, 1] - dv[i, 0], du[i, 2], dv[i, 2]])
            pb = pull.T @ om @ pull
            assert np.abs(fd - np.array([pb[0, 1], pb[0, 2], pb[1, 2]])).max() < 1e-6

    def test_metric_positive_definite(self):
        G = DATA.metric(0.9, 0.4 - 0.2j)
        vals = np.linalg.eigvalsh(G)
        assert vals.min() > 0

    def test_negative_potential_rejected(self):
        bad = standard_data(v_multiplier=-1.0)
        with pytest.raises(DegenerateMetricError):
            bad.metric(1.0, 0.2 + 0.1j)

    @pytest.mark.parametrize("z", [0.8468 + 0.0599j, 0.8, 0.85, 0.9])
    def test_metric_with_tiny_conformal_factor(self, z):
        # m is 1e-18 to 1e-44 here, so the coordinate Gram matrix has
        # condition number beyond 1e16; still V > 0 and dx has rank 3
        assert 0.0 < DATA.record(z).m < 1e-17
        G = DATA.metric(1.0, z)
        assert np.isfinite(G).all()
        assert np.array_equal(G, G.T)

    def test_underflowed_conformal_factor_is_a_domain_error(self):
        assert DATA.record(0.99).m == 0.0
        with pytest.raises(MetricDomainError, match=r"\|z\| = 0\.99"):
            DATA.metric(1.0, 0.99)
        assert issubclass(MetricDomainError, DegenerateMetricError)

    def test_wedge_antisymmetry(self):
        a = np.array([1.0, 2.0, 0.0, -1.0])
        b = np.array([0.5, 0.0, 3.0, 1.0])
        W = wedge(a, b)
        assert np.abs(W + W.T).max() == 0.0
        assert np.abs(wedge(a, b) + wedge(b, a)).max() == 0.0
        # (3, 4) stacks wedge row by row, and the symplectic triple is
        # one stacked wedge expression
        A = np.array([a, b, a - 2.0 * b])
        B = np.array([b, -a, 0.5 * a + b])
        stack = wedge(A, B)
        assert stack.shape == (3, 4, 4)
        for r in range(3):
            assert np.array_equal(stack[r], wedge(A[r], B[r]))
            assert np.array_equal(stack[r], np.outer(A[r], B[r]) - np.outer(B[r], A[r]))
        forms = DATA.symplectic(1.1, 0.3 + 0.2j)
        assert isinstance(forms, np.ndarray) and forms.shape == (3, 4, 4)
        assert np.abs(forms + np.swapaxes(forms, 1, 2)).max() == 0.0


class TestCanonicalSlice:
    @pytest.mark.parametrize("z", SAMPLE_POINTS)
    def test_unit_scaling_field(self, z):
        frame = DATA.slice_frame(z)
        assert frame.x_norm_sq == pytest.approx(1.0, abs=1e-12)
        assert frame.t_slice == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("z", SAMPLE_POINTS)
    def test_psi_reconstruction(self, z):
        frame = DATA.slice_frame(z)
        recon = -frame.beta[2] + 1j * frame.rho
        assert abs(recon - DATA.psi(z)) < 1e-12

    @pytest.mark.parametrize("z", SAMPLE_POINTS)
    def test_metric_splits_off_beta(self, z):
        frame = DATA.slice_frame(z)
        dev = frame.g3 - frame.g_s - np.outer(frame.beta, frame.beta)
        assert np.abs(dev).max() < 1e-12

    @pytest.mark.parametrize("z", SAMPLE_POINTS)
    def test_beta_gamma_recovery(self, z):
        out = beta_cross_check(DATA, z)
        assert np.abs(out["beta_solved"] - out["beta_direct"]).max() < 1e-12
        assert np.abs(out["gamma_solved"] - out["gamma_direct"]).max() < 1e-12

    def test_quotient_metric_is_circle_reduction(self):
        z = 0.31 - 0.22j
        g3 = DATA.slice_frame(z).g3
        A, c, d = g3[:2, :2], g3[:2, 2], g3[2, 2]
        m = DATA.cover.metric_factors_in_disc(z)
        assert np.abs(A - np.outer(c, c) / d - DATA.g_sigma(z, m)).max() < 1e-12

    def test_quotient_metric_positive(self):
        for z in SAMPLE_POINTS:
            m = DATA.cover.metric_factors_in_disc(z)
            assert np.linalg.eigvalsh(DATA.g_sigma(z, m)).min() > 0


class TestPhi:
    def test_negative_reciprocal_of_psi(self):
        """phi = -1/psi by value, in the upper half-plane, bit for bit the
        phi of the records; -1/phi gives psi back."""
        zs = np.array([0.9 * r * cmath.exp(2.4j * k) for k, r in
                       enumerate(np.linspace(0.02, 1.0, 50))])
        phi, psi = DATA.phi(zs), DATA.psi(zs)
        assert phi.shape == zs.shape
        assert np.abs(phi * psi + 1).max() < 1e-12
        assert (phi.imag > 0).all()  # psi in the sector forces phi upstairs
        assert np.abs(-1.0 / phi - psi).max() < 1e-12
        assert phi.tobytes() == DATA.record(zs).phi.tobytes()
        assert DATA.phi(complex(zs[7])) == phi[7]


class TestZeroSlice:
    data = standard_data(rho0_kind="constant", rho0_scale=0.7)

    @pytest.mark.parametrize("z", [0.3 + 0.2j, -0.2 + 0.4j])
    def test_structure_constant_is_exp_t(self, z):
        frame = self.data.slice_frame(z, "zero")
        t_slice = self.data.slice_frame(z).t_slice
        assert frame.lam0 == pytest.approx(math.exp(t_slice), rel=1e-12)
        assert abs(t_slice) > 1e-3  # canonical slice genuinely elsewhere

    def test_scaled_rho0_shifts_t_uniformly(self):
        data = standard_data(rho0_kind="scaled", rho0_scale=2.0)
        ts = {round(data.slice_frame(z).t_slice, 12) for z in SAMPLE_POINTS}
        assert ts == {round(-math.log(2.0), 12)}

    def test_zero_slice_structure_equation(self):
        z, h = 0.3 + 0.2j, 1e-5
        frame = self.data.slice_frame(z, "zero")
        du = (
            self.data.slice_frame(z + h, "zero").omega
            - self.data.slice_frame(z - h, "zero").omega
        ) / (2 * h)
        dv = (
            self.data.slice_frame(z + 1j * h, "zero").omega
            - self.data.slice_frame(z - 1j * h, "zero").omega
        ) / (2 * h)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            fd = np.array([du[i, 1] - dv[i, 0], du[i, 2], dv[i, 2]])
            pred = wedge3 = wedge(frame.beta, frame.omega[i]) + frame.lam0 * wedge(
                frame.omega[j], frame.omega[k]
            )
            got = np.array([wedge3[0, 1], wedge3[0, 2], wedge3[1, 2]])
            assert np.abs(fd - got).max() < 1e-6


class TestValidation:
    def test_lower_halfplane_psi_rejected(self):
        with pytest.raises(InvalidDataError):
            HolomorphicData.flat_reference().__class__(
                cover=FLAT.cover, psi=HoloFn.constant(1 - 2j)
            )

    def test_rejection_names_the_one_failing_ring_point(self):
        # psi = i but near one ring point, where it dips to -i
        ring = ghlab.ansatz._VALIDATION_RING
        target = complex(ring[7])

        def jet(z, order=2):
            w = 1j - 2j * np.exp(-abs(z - target) ** 2 / 1e-4)
            return (w, 0.0 * w, 0.0 * w)[:order + 1]

        psi = HoloFn(jet=jet)
        assert np.flatnonzero(~(psi(ring).imag > 0)).tolist() == [7]
        with pytest.raises(InvalidDataError, match=re.escape(f"psi({target}) = ")):
            HolomorphicData(cover=FLAT.cover, psi=psi)

    def test_unknown_rho0_kind_rejected(self):
        with pytest.raises(InvalidDataError):
            standard_data(rho0_kind="fancy")

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(ValueError):
            DATA._fields(0.0, 0.1j)

    def test_xi_memoized(self):
        data = standard_data()
        first = data.xi_at(0.22 + 0.13j)
        rows = len(data._store)
        assert data.xi_at(0.22 + 0.13j) == first
        assert len(data._store) == rows


class TestXiDomain:
    """xi_at raises the cover's PunctureError at a deep cusp and off the
    open disc."""

    def test_deep_cusp_is_a_puncture(self):
        with pytest.raises(PunctureError):
            standard_data().xi_at(0.999j)

    @pytest.mark.parametrize("z", [1.0, -1.0 + 0j, 1.2, 0.8 + 0.8j, 1j])
    def test_outside_the_open_disc_is_a_puncture(self, z):
        for data in (standard_data(), FLAT):
            with pytest.raises(PunctureError):
                data.xi_at(z)


# Eight directions that avoid the cusps 1, i, -1 and -i.
DIRECTIONS = [cmath.exp(1j * (0.5 + 2 * math.pi * j / 8)) for j in range(8)]


def _mixed_radii_points():
    """Random points in |z| < 0.62 and DIRECTIONS at radii up to 0.99999,
    shuffled, with one point twice."""
    rng = np.random.default_rng(8)
    inner = 0.62 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * math.pi * rng.uniform(size=40))
    outer = [r * d for r in (0.9, 0.99, 0.999, 0.9999, 0.99999) for d in DIRECTIONS]
    zs = [complex(z) for z in [*inner, *outer]]
    rng.shuffle(zs)
    return zs + zs[:1]


class TestBatchedXi:
    """fill against one point at a time."""

    @pytest.mark.parametrize("make", [
        standard_data,
        lambda: mu_variant(standard_data(), MuSpec(kind="perturb", eps_re=0.05, eps_im=0.02)),
        HolomorphicData.flat_reference,
    ], ids=["standard", "perturb_mu", "flat"])
    def test_bit_for_bit_per_point(self, make):
        zs = _mixed_radii_points()
        batch, single = make(), make()
        batch.xi_at(zs[3])  # a point that already has xi is left alone
        kept = batch.xi_at(zs[3])
        batch.fill(zs)
        assert batch._rows(zs[3]) == 0
        assert len(batch._store) == len(set(zs))
        assert batch.xi_at(zs[3]) == kept
        for z in zs:
            xi = batch.xi_at(z)
            assert all(map(math.isfinite, xi)), z
            assert xi == single.xi_at(z), z

    def test_outside_the_disc_stops_the_batch_before_psi(self):
        def no_jet(z, order=2):
            raise AssertionError("psi was evaluated")

        data = standard_data()
        data.psi = HoloFn(jet=no_jet)
        with pytest.raises(PunctureError, match=r"^\|z\| = 1\.2 is not inside the disc"):
            data.fill([0.1, 0.3j, 1.2, 0.5, 1.5j])
        assert len(data._store) == 0

    def test_flat_data_stops_outside_the_disc_before_psi(self):
        def no_jet(z, order=2):
            raise AssertionError("psi was evaluated")

        data = HolomorphicData.flat_reference()
        data.psi = HoloFn(jet=no_jet)
        with pytest.raises(PunctureError, match=r"^\|z\| = 1\.2 is not inside the disc"):
            data.fill([0.1, 0.3j, 1.2, 0.5, 1.5j])
        with pytest.raises(PunctureError, match=r"^\|z\| = 1\.0 is not inside the disc"):
            data.record(-1.0)
        assert len(data._store) == 0


# Circles (centre, radius) that reach |z| = 0.9: that circle itself, which
# passes within 0.1 of the cusps 1, i, -1 and -i, and three off the centre.
STOKES_CIRCLES = [(0j, 0.9), (0.25 + 0.15j, 0.9 - abs(0.25 + 0.15j)),
                  (0.45 * cmath.exp(2.0j), 0.45), (0.6 * cmath.exp(-0.9j), 0.3)]


class TestGreenXi:
    """xi by Green's identity: by Stokes' theorem its circulation around
    a circle is the integral of the curl source over the disc inside
    (adaptive in the radius, each circle by the trapezoid rule); and it
    is finite from the centre to the edge."""

    @pytest.mark.parametrize("centre, radius", STOKES_CIRCLES)
    def test_circulation_is_the_enclosed_source(self, centre, radius):
        from scipy.integrate import quad

        data = standard_data()
        n = 1024  # the trapezoid rule, geometrically convergent on a circle
        turn = np.exp(2j * math.pi * np.arange(n) / n)
        zs, dz = centre + radius * turn, 2j * math.pi * radius * turn / n
        xi = data.record(zs).row[:, 2:4]
        circulation = float(xi[:, 0] @ dz.real + xi[:, 1] @ dz.imag)

        def ring(r):  # r times the source's integral over the circle of radius r
            return r * 2.0 * math.pi * float(curl_source(data, centre + r * turn).mean())

        enclosed, err = quad(ring, 0.0, radius, epsabs=0.0, epsrel=1e-13, limit=200)
        assert err <= 1e-12 * enclosed
        assert circulation == pytest.approx(enclosed, rel=1e-10, abs=0)

    def test_finite_from_the_centre_to_the_edge(self):
        data = standard_data()
        centre = data.xi_at(0j)
        assert all(map(math.isfinite, centre))
        for r in (1e-300, 1e-17, 0.99999):
            zs = [r * d for d in DIRECTIONS]
            data.fill(zs)
            for z in zs:
                xi = data.xi_at(z)
                assert all(map(math.isfinite, xi)), z
                if r < 1e-16:  # xi is smooth at 0
                    assert xi == pytest.approx(centre, rel=1e-14, abs=1e-14), z


class TestMetricDomain:
    def test_safe_radius_map(self):
        """Along eight directions and the real axis metric either returns
        G or raises MetricDomainError, exactly where m underflows to 0."""
        radii = np.concatenate([np.linspace(0.0, 0.98, 50), np.linspace(0.981, 0.999, 19)])
        data = standard_data()
        underflowed = []
        for d in DIRECTIONS + [1.0]:
            for r in radii:
                z = complex(r * d)
                m = metric_factors(data.cover, z)
                try:
                    data.metric(1.0, z)
                except MetricDomainError:
                    assert m == 0.0, z
                    underflowed.append(z)
                except GHLabError as exc:
                    pytest.fail(f"metric at z = {z} raised {exc!r}")
                else:
                    assert m > 0.0, z
        # only the real axis reaches m = 0, at about 0.99
        assert underflowed and all(z.imag == 0.0 and 0.98 < z.real for z in underflowed)
