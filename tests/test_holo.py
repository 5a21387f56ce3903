"""Tests for the Blaschke / psi complex kernel."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghlab.holo
from ghlab.ansatz import standard_data
from ghlab.errors import BranchDomainError, InvalidMuError, InvalidZeroError, PoleError
from ghlab.holo import (
    BlaschkeSpec,
    HoloFn,
    MuSpec,
    apply_mu,
    blaschke_derivs,
    in_q2,
    psi_fn,
    sqrt_right_halfplane,
    validate_mu,
    vertex_targeted_spec,
)
from oracles import blaschke_jet, blaschke_values, psi_jet

# Shared data: four-vertex symmetric spec used across the suite.
FOUR_VERTEX = vertex_targeted_spec([1, 1j, -1, -1j])


def _interior_points(n, radius=0.95, seed_angle=0.37):
    """Deterministic spiral of interior sample points."""
    pts = []
    for k in range(1, n + 1):
        r = radius * k / (n + 1)
        pts.append(r * cmath.exp(1j * (seed_angle + 2.399963 * k)))
    return pts


disc_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False).filter(
    lambda z: abs(z) < 0.95
)
zero_points = st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9).filter(
    lambda a: 0.05 <= abs(a) <= 0.9
)


def blaschke_factor(a, z):
    """One normalized factor, read off a one-zero product."""
    return blaschke_derivs(BlaschkeSpec(zeros=((a, 1),)), z)[0]


class TestBlaschkeFactor:
    def test_vanishes_at_its_zero(self):
        assert blaschke_factor(0.5, 0.5) == 0

    def test_value_at_origin_is_modulus(self):
        assert abs(blaschke_factor(0.5 + 0j, 0) - 0.5) < 1e-15

    def test_direct_arithmetic_point(self):
        # (conj(a)/|a|)(a-z)/(1-conj(a)z) at a=0.5, z=-0.5: 1.0/1.25 * 1 = 0.8
        assert abs(blaschke_factor(0.5, -0.5) - 0.8) < 1e-15

    def test_rejects_zero_at_origin_and_outside(self):
        with pytest.raises(InvalidZeroError):
            blaschke_factor(0.0, 0.1)
        with pytest.raises(InvalidZeroError):
            blaschke_factor(1.2, 0.1)

    @given(a=zero_points, z=disc_points)
    @settings(max_examples=200, deadline=None)
    def test_contracts_the_open_disc(self, a, z):
        assert abs(blaschke_factor(a, z)) < 1.0

    @given(a=zero_points, t=st.floats(0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_unimodular_on_the_circle(self, a, t):
        z = cmath.exp(1j * t)
        assert abs(abs(blaschke_factor(a, z)) - 1.0) < 1e-12


class TestBlaschkeEval:
    def test_empty_product_is_one(self):
        value = blaschke_derivs(BlaschkeSpec(), 0.3 + 0.4j)[0]
        assert value == 1

    def test_zero_of_the_product(self):
        spec = BlaschkeSpec(m=1, zeros=((0.5 + 0j, 1),))
        value = blaschke_derivs(spec, 0.5)[0]
        assert value == 0

    def test_radial_targeting_drives_product_toward_one(self):
        # Two zeros stacked under a unit target; B creeps toward 1 along
        # the radius, but only well inside the last zero's gap scale.
        z1 = cmath.exp(0.4j)
        spec = BlaschkeSpec(zeros=((0.9 * z1, 1), (0.99 * z1, 1)))
        v3 = blaschke_derivs(spec, 0.999 * z1)[0]
        v4 = blaschke_derivs(spec, 0.9999 * z1)[0]
        assert abs(1 - v3) == pytest.approx(0.196495, abs=1e-5)
        assert abs(1 - v4) == pytest.approx(0.021566, abs=1e-5)
        assert abs(1 - v4) < 0.05

    def test_multiplicity_matches_repeated_zeros(self):
        a = 0.4 - 0.3j
        doubled = BlaschkeSpec(zeros=((a, 2),))
        repeated = BlaschkeSpec(zeros=((a, 1), (a, 1)))
        for z in _interior_points(20):
            va = blaschke_derivs(doubled, z)[0]
            vb = blaschke_derivs(repeated, z)[0]
            assert va == vb

    def test_truncation_consistency_against_tail_bound(self):
        # Adding zeros changes the product by at most 2/(1-|z|) times the
        # sum of (1-|a|) over the added zeros.
        base = [(0.5 * cmath.exp(1j * k), 1) for k in range(5)]
        extra = [(1 - 2.0 ** (-j - 1), 1) for j in range(5, 10)]
        small = BlaschkeSpec(zeros=tuple(base))
        big = BlaschkeSpec(zeros=tuple(base + [(complex(a), m) for a, m in extra]))
        residual = sum(1 - abs(a) for a, _ in extra)
        for z in _interior_points(25, radius=0.9):
            vs = blaschke_derivs(small, z)[0]
            vb = blaschke_derivs(big, z)[0]
            assert abs(vs - vb) <= 2.0 * residual / (1 - abs(z)) + 1e-12

    @given(z=disc_points)
    @settings(max_examples=200, deadline=None)
    def test_four_vertex_product_bounded_by_one(self, z):
        value = blaschke_derivs(FOUR_VERTEX, z)[0]
        assert abs(value) < 1.0


class TestSqrtRightHalfplane:
    def test_one_maps_to_one(self):
        assert sqrt_right_halfplane(1.0) == 1.0

    def test_branch_boundary_rejected(self):
        with pytest.raises(BranchDomainError):
            sqrt_right_halfplane(2j)
        with pytest.raises(BranchDomainError):
            sqrt_right_halfplane(-1.0 + 0.5j)

    def test_polar_form_point(self):
        r = sqrt_right_halfplane(0.5 + 0.5j)
        assert abs(r) == pytest.approx(math.sqrt(abs(0.5 + 0.5j)), rel=1e-12)
        assert cmath.phase(r) == pytest.approx(math.pi / 8, abs=1e-12)

    @given(
        re=st.floats(1e-6, 100.0),
        im=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_square_round_trip_and_sector(self, re, im):
        w = complex(re, im)
        r = sqrt_right_halfplane(w)
        assert abs(r * r - w) <= 1e-12 * abs(w)
        assert abs(cmath.phase(r)) < math.pi / 4 + 1e-15


class TestPsi:
    def test_single_zero_gives_i_at_that_zero(self):
        spec = BlaschkeSpec(zeros=((0.5, 1),))
        assert psi_fn(spec)(0.5) == 1j

    def test_sector_membership_on_sweep(self):
        psi = psi_fn(FOUR_VERTEX)
        for z in _interior_points(500, radius=0.999):
            w = psi(z)
            assert in_q2(w)
            assert abs(w.real) < abs(w.imag)
            assert abs(w) < math.sqrt(2)

    def test_small_near_targeted_vertex(self):
        psi = psi_fn(FOUR_VERTEX)
        psis = [abs(psi(s)) for s in (0.9, 0.99, 0.999)]
        assert psis[0] > psis[1] > psis[2]
        # |1-B| < 1/16 makes |psi| < 0.25
        assert psis[2] < 0.25

    def test_derivative_rules_match_finite_differences(self):
        psi = psi_fn(FOUR_VERTEX)
        h = 1e-5
        for z in _interior_points(100, radius=0.9):
            coarse = (psi(z + h) - psi(z - h)) / (2 * h)
            fine = (psi(z + h / 2) - psi(z - h / 2)) / h
            rich = (4 * fine - coarse) / 3
            assert abs(psi.jet(z)[1] - rich) <= 1e-6 * max(1.0, abs(rich))

    def test_second_derivative_matches_differenced_first(self):
        psi = psi_fn(FOUR_VERTEX)
        h = 1e-5
        for z in _interior_points(40, radius=0.85):
            coarse = (psi.jet(z + h)[1] - psi.jet(z - h)[1]) / (2 * h)
            fine = (psi.jet(z + h / 2)[1] - psi.jet(z - h / 2)[1]) / h
            rich = (4 * fine - coarse) / 3
            assert abs(psi.jet(z)[2] - rich) <= 1e-6 * max(1.0, abs(rich))


class TestMu:
    def test_identity_scale_is_pointwise_identity(self):
        psi = psi_fn(FOUR_VERTEX)
        composed = apply_mu(MuSpec(kind="scale", scale=1.0), psi)
        for z in _interior_points(30):
            assert composed(z) == psi(z)

    def test_scale_two_doubles_values(self):
        psi = psi_fn(FOUR_VERTEX)
        composed = apply_mu(MuSpec(kind="scale", scale=2.0), psi)
        for z in _interior_points(30):
            assert abs(composed(z) - 2 * psi(z)) < 1e-15

    def test_perturb_direct_substitution(self):
        mu = MuSpec(kind="perturb", eps_re=0.05)
        assert mu.jet(1j)[0] == pytest.approx(-0.05 + 1j)

    def test_chain_rule_derivative(self):
        psi = psi_fn(FOUR_VERTEX)
        composed = apply_mu(MuSpec(kind="perturb", eps_re=0.05), psi)
        h = 1e-5
        for z in _interior_points(25, radius=0.8):
            coarse = (composed(z + h) - composed(z - h)) / (2 * h)
            fine = (composed(z + h / 2) - composed(z - h / 2)) / h
            rich = (4 * fine - coarse) / 3
            assert abs(composed.jet(z)[1] - rich) <= 1e-6 * max(1.0, abs(rich))

    def test_rejects_sector_breaking_perturbation(self):
        # w + 3 w^2 turns psi values near i*0.9 far past arg 3pi/4
        psi = psi_fn(FOUR_VERTEX)
        with pytest.raises(InvalidMuError):
            apply_mu(MuSpec(kind="perturb", eps_re=3.0), psi)

    def test_rejection_names_the_one_failing_sample(self):
        # psi = i but near one sample, where it rises to 20 i: there
        # w + 0.1 w^2 = -40 + 20 i, past arg 3pi/4, while i - 0.1 is inside
        target = complex(ghlab.holo._MU_SAMPLES[37])

        def jet(z, order=2):
            w = 1j + 19j * np.exp(-abs(z - target) ** 2 / 1e-4)
            return (w, 0.0 * w, 0.0 * w)[:order + 1]

        mu = MuSpec(kind="perturb", eps_re=0.1)
        psi = HoloFn(jet=jet)
        inside = in_q2(mu.jet(psi(ghlab.holo._MU_SAMPLES))[0])
        assert np.flatnonzero(~inside).tolist() == [37]
        with pytest.raises(InvalidMuError, match=re.escape(f"mu(psi({target})) = ")):
            validate_mu(mu, psi)

    def test_in_q2_on_an_array_is_per_point(self):
        ws = np.array([0j, -0j, 1j, 1 + 1j, -1 + 1j, 0.5 + 1j, -0.99 + 1j, 1 + 0.99j,
                       -1j, 1.0, -1.0, complex(math.nan, 1.0), 1e-300j, -1e-300 + 1e-300j])
        per_point = [bool(in_q2(complex(w))) for w in ws]
        assert in_q2(ws).tolist() == per_point
        # the sector of cmath.phase, with w = 0 outside
        assert per_point == [w != 0 and math.pi / 4 < cmath.phase(w) < 3 * math.pi / 4
                             for w in ws.tolist()]


def _perturbed_psi_jet(z):
    """mu o psi at one z for mu(w) = w + 0.05 w^2, by the chain rule."""
    w, dw, d2w = psi_jet(FOUR_VERTEX, z)
    return w + 0.05 * w * w, (1.0 + 0.1 * w) * dw, 0.1 * dw * dw + (1.0 + 0.1 * w) * d2w


class TestBatchedJet:
    """A jet over an ndarray of z equals the point-by-point product rule
    of the oracle, and one point is a batch of one."""

    points = np.array(_interior_points(200, radius=0.99))

    @pytest.mark.parametrize("name", ["standard", "perturb_mu", "flat"])
    def test_matches_scalar_jet(self, name):
        psi, reference = {
            "standard": (psi_fn(FOUR_VERTEX), lambda z: psi_jet(FOUR_VERTEX, z)),
            "perturb_mu": (apply_mu(MuSpec(kind="perturb", eps_re=0.05), psi_fn(FOUR_VERTEX)),
                           _perturbed_psi_jet),
            "flat": (HoloFn.constant(2j), lambda z: (2j, 0j, 0j)),
        }[name]
        batch = psi.jet(self.points)
        for k in range(3):
            scalar = np.array([reference(complex(z))[k] for z in self.points])
            assert batch[k].shape == self.points.shape
            # The four-fold symmetric product is a function of z^4, so
            # near 0 psi' ~ z^3 is a sum of O(1) factor terms that
            # nearly cancel; there the rounding of one division in numpy
            # and in Python differs by 1e-17 absolute, up to 6e-11
            # relative.  So the bound is relative to the largest value.
            scale = np.abs(scalar).max()
            np.testing.assert_allclose(batch[k], scalar, rtol=1e-14, atol=1e-14 * scale)

    def test_shape_is_kept(self):
        grid = self.points.reshape(10, 20)
        for spec in (FOUR_VERTEX, BlaschkeSpec(m=1)):
            jet = blaschke_derivs(spec, grid)
            assert [x.shape for x in jet] == [grid.shape] * 3
            assert jet[0][3, 7] == pytest.approx(blaschke_jet(spec, grid[3, 7])[0], rel=1e-14)

    @pytest.mark.parametrize("spec", [FOUR_VERTEX, BlaschkeSpec(m=3, zeros=((0.4 - 0.3j, 2),))],
                             ids=["four_vertex", "power_and_double_zero"])
    def test_blaschke_jet_matches_the_product_rule(self, spec):
        batch = blaschke_derivs(spec, self.points)
        for k in range(3):
            scalar = np.array([blaschke_jet(spec, z)[k] for z in self.points])
            scale = np.abs(scalar).max()
            np.testing.assert_allclose(batch[k], scalar, rtol=1e-14, atol=1e-14 * scale)

    @pytest.mark.parametrize("spec", [FOUR_VERTEX, BlaschkeSpec(m=2), BlaschkeSpec()],
                             ids=["four_vertex", "power", "empty"])
    def test_one_point_is_a_batch_of_one(self, spec):
        for z in self.points[::17]:
            one, batch = blaschke_derivs(spec, complex(z)), blaschke_derivs(spec, np.array([z]))
            assert all(np.shape(x) == () for x in one)
            assert all(_same_bits(x, y[0]) for x, y in zip(one, batch))

    @pytest.mark.parametrize("mu", [None, MuSpec(kind="scale", scale=2.0),
                                    MuSpec(kind="perturb", eps_re=0.05)],
                             ids=["psi", "scale2", "perturb05"])
    def test_one_point_of_psi_is_a_batch_of_one(self, mu):
        psi = standard_data().psi
        psi = psi if mu is None else apply_mu(mu, psi)
        rng = np.random.default_rng(11)
        zs = 0.9 * np.sqrt(rng.random(400)) * np.exp(2j * np.pi * rng.random(400))
        # a point where psi'' of one point and of a batch once differed
        zs[0] = 0.6274400262784292 - 0.680984383618818j
        batch, values = psi.jet(zs), psi(zs)
        for i, z in enumerate(zs.tolist()):
            one = psi.jet(z)
            assert all(np.shape(x) == () for x in one)
            assert all(_same_bits(x, y[i]) for x, y in zip(one, batch)), z
            assert _same_bits(psi(z), values[i]), z

    def test_pole_anywhere_in_the_batch_is_rejected(self):
        spec = BlaschkeSpec(zeros=((0.5, 1),))
        with pytest.raises(PoleError, match=r"z=\(2\+0j\)"):
            blaschke_derivs(spec, np.array([0.1, 2.0 + 0j, 0.3j]))

    def test_branch_domain_applies_to_the_batch(self):
        assert np.allclose(sqrt_right_halfplane(np.array([4.0 + 0j, 1j + 1.0])) ** 2,
                           [4.0, 1.0 + 1j])
        with pytest.raises(BranchDomainError, match="Re w = -0.5"):
            sqrt_right_halfplane(np.array([1.0 + 0j, -0.5 + 1j]))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _blaschke_fn(spec) -> HoloFn:
    """B as a HoloFn: its jet is blaschke_derivs."""
    return HoloFn(jet=lambda z, order=2: blaschke_derivs(spec, z, order))


class TestJetOrder:
    """A HoloFn's jet to order k is the leading k + 1 arrays of its full
    jet, bit for bit, and calling it is the jet's first array."""

    points = np.array(_interior_points(200, radius=0.99)).reshape(10, 20)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", ["four_vertex", "three_vertex", "scale2", "perturb05",
                                      "constant", "power_and_double_zero", "power", "empty",
                                      "deep_past_1_over_max_a"])
    def test_jet_to_order_is_the_leading_arrays(self, name, order):
        fn, z = {
            "four_vertex": lambda: (standard_data().psi, self.points),
            "three_vertex": lambda: (standard_data(vertices=(1, -1, 1j)).psi, self.points),
            "scale2": lambda: (apply_mu(MuSpec(kind="scale", scale=2.0), standard_data().psi),
                               self.points),
            "perturb05": lambda: (apply_mu(MuSpec(kind="perturb", eps_re=0.05),
                                           standard_data().psi), self.points),
            "constant": lambda: (HoloFn.constant(2j), self.points),
            "power_and_double_zero": lambda: (
                _blaschke_fn(BlaschkeSpec(m=3, zeros=((0.4 - 0.3j, 2),))), self.points),
            "power": lambda: (_blaschke_fn(BlaschkeSpec(m=2)), self.points),
            "empty": lambda: (_blaschke_fn(BlaschkeSpec()), self.points),
            # max|a| = 1 - 2^-12, so |z| = 1.01 is past 1/max|a|
            "deep_past_1_over_max_a": lambda: (
                _blaschke_fn(vertex_targeted_spec([1, 1j, -1, -1j], depths=(1, 12))),
                1.01 * self.points / abs(self.points)),
        }[name]()
        for zk in (z, z[:0], complex(z[2, 1])):
            part, full = fn.jet(zk, order), fn.jet(zk)
            assert len(part) == order + 1 and len(full) == 3
            assert all(_same_bits(x, y) for x, y in zip(part, full)), zk
            assert _same_bits(fn(zk), full[0]), zk


class TestValuePath:
    """psi's value of an array is one Blaschke batch at order 0, bit for
    bit the jet's first array."""

    points = TestJetOrder.points

    @given(zeros=st.lists(st.tuples(zero_points, st.integers(1, 3)), min_size=1, max_size=4),
           m=st.integers(0, 3),
           z=st.lists(st.complex_numbers(max_magnitude=1.3, allow_nan=False), min_size=1,
                      max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_value_is_the_jet_value_at_drawn_zeros(self, zeros, m, z):
        # |z| up to 1.3 goes past 1/|a| for |a| > 1/1.3: near a pole
        # every order raises the same PoleError
        spec, z = BlaschkeSpec(m=m, zeros=tuple(zeros)), np.array(z, dtype=complex)
        try:
            expected = blaschke_derivs(spec, z)[0]
        except PoleError as exc:
            with pytest.raises(PoleError, match=f"^{re.escape(str(exc))}$"):
                blaschke_derivs(spec, z, 0)
        else:
            assert _same_bits(blaschke_derivs(spec, z, 0)[0], expected)

    def test_array_value_takes_no_jet(self, monkeypatch):
        orders = []
        jet = ghlab.holo.blaschke_derivs

        def counted_jet(spec, z, order=2):
            orders.append(order)
            return jet(spec, z, order)

        data = standard_data()
        expected = data.psi.jet(self.points)[0]
        monkeypatch.setattr(ghlab.holo, "blaschke_derivs", counted_jet)
        assert _same_bits(data.psi(self.points), expected)
        # one Blaschke call, and it forms no derivative
        assert orders == [0]
        # phi = -1/psi from psi's value, one point as a batch of one
        assert _same_bits(data.phi(self.points), -1.0 / expected)
        assert _same_bits(data.phi(self.points[3, 7]), -1.0 / expected[3, 7])
        assert orders == [0, 0, 0]


class TestPoleGuard:
    """B comes at every order from one table of factors, after one check
    of the pole floor on its denominators: the value is the jet's first
    array wherever the floor holds, and every order raises the same
    PoleError where it does not."""

    def test_a_batch_past_the_bound_is_unchanged(self):
        # max|a| = 1 - 2^-12: the points at |z| = 1.01 are past 1/max|a|
        spec = vertex_targeted_spec([1, 1j, -1, -1j], depths=(1, 12))
        z = np.concatenate((_interior_points(200, radius=0.9999),
                            1.01 * np.exp(1j * np.linspace(0.1, 6.0, 20))))
        expected = blaschke_derivs(spec, z)[0]
        assert _same_bits(blaschke_derivs(spec, z, 0)[0], expected)

    def test_a_pole_raises_naming_the_first_factor_and_z(self):
        # the factor order goes first: a = 0.5 before a = -0.5, then z
        spec = BlaschkeSpec(zeros=((0.25, 1), (0.5, 1), (-0.5, 1)))
        z = np.array([0.1, -2.0 + 0j, 2.0 + 0j])
        text = re.escape("Blaschke factor pole at z=(2+0j) for zero a=(0.5+0j)")
        with pytest.raises(PoleError, match=f"^{text}$"):
            blaschke_derivs(spec, z, 0)
        with pytest.raises(PoleError, match=f"^{text}$"):
            psi_fn(spec)(z)
        # the jet names the same factor and z
        with pytest.raises(PoleError, match=f"^{text}$"):
            blaschke_derivs(spec, z)

    def test_outside_the_circle_inside_the_bound_matches_the_reference(self):
        # 1 < |z| < 1/max|a| = 4/3, with max|a| = 0.75 for FOUR_VERTEX
        spec = FOUR_VERTEX
        z = np.array(_interior_points(100, radius=1.3))[78:]
        assert np.all((np.abs(z) > 1.0) & (0.75 * np.abs(z) < 1.0))
        assert _same_bits(blaschke_derivs(spec, z, 0)[0], blaschke_values(spec, z))


class TestFirstOrder:
    """The Blaschke jet to first order is (B, B') of its full jet, bit
    for bit, without B'', and a pole raises one text at every order."""

    points = np.array(_interior_points(150, radius=0.99))

    @pytest.mark.parametrize("spec", [FOUR_VERTEX, BlaschkeSpec(m=3, zeros=((0.4 - 0.3j, 2),)),
                                      BlaschkeSpec(m=2), BlaschkeSpec()],
                             ids=["four_vertex", "power_and_double_zero", "power", "empty"])
    def test_blaschke_order_one_is_the_leading_pair(self, spec):
        for z in (self.points, self.points[:0], complex(self.points[41])):
            first, full = blaschke_derivs(spec, z, 1), blaschke_derivs(spec, z)
            assert len(first) == 2 and len(full) == 3
            assert all(_same_bits(x, y) for x, y in zip(first, full[:2]))

    def test_a_pole_raises_the_same_text_at_every_order(self):
        spec = BlaschkeSpec(zeros=((0.25, 1), (0.5, 1), (-0.5, 1)))
        z = np.array([0.1, -2.0 + 0j, 2.0 + 0j])
        text = re.escape("Blaschke factor pole at z=(2+0j) for zero a=(0.5+0j)")
        for order in (0, 1, 2):
            with pytest.raises(PoleError, match=f"^{text}$"):
                blaschke_derivs(spec, z, order)
            with pytest.raises(PoleError, match=f"^{text}$"):
                psi_fn(spec).jet(z, order)
