"""Tests for the Blaschke / psi complex kernel."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlab.errors import BranchDomainError, InvalidMuError, InvalidZeroError
from ghlab.holo import (
    BlaschkeSpec,
    MuSpec,
    apply_mu,
    blaschke_derivs,
    blaschke_eval,
    blaschke_factor,
    in_q2,
    psi_fn,
    psi_from_blaschke,
    sqrt_right_halfplane,
    vertex_targeted_spec,
)

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
        value, bound = blaschke_eval(BlaschkeSpec(), 0.3 + 0.4j)
        assert value == 1
        assert bound == 0.0

    def test_zero_of_the_product(self):
        spec = BlaschkeSpec(m=1, zeros=((0.5 + 0j, 1),))
        value, _ = blaschke_eval(spec, 0.5)
        assert value == 0

    def test_radial_targeting_drives_product_toward_one(self):
        # Two zeros stacked under a unit target; B creeps toward 1 along
        # the radius, but only well inside the last zero's gap scale.
        z1 = cmath.exp(0.4j)
        spec = BlaschkeSpec(zeros=((0.9 * z1, 1), (0.99 * z1, 1)))
        v3, _ = blaschke_eval(spec, 0.999 * z1)
        v4, _ = blaschke_eval(spec, 0.9999 * z1)
        assert abs(1 - v3) == pytest.approx(0.196495, abs=1e-5)
        assert abs(1 - v4) == pytest.approx(0.021566, abs=1e-5)
        assert abs(1 - v4) < 0.05

    def test_multiplicity_matches_repeated_zeros(self):
        a = 0.4 - 0.3j
        doubled = BlaschkeSpec(zeros=((a, 2),))
        repeated = BlaschkeSpec(zeros=((a, 1), (a, 1)))
        for z in _interior_points(20):
            va, _ = blaschke_eval(doubled, z)
            vb, _ = blaschke_eval(repeated, z)
            assert va == vb

    def test_tail_bound_scaling(self):
        spec = BlaschkeSpec(zeros=((0.5, 1),), tail_residual=0.01)
        _, b1 = blaschke_eval(spec, 0.0)
        _, b2 = blaschke_eval(spec, 0.5)
        assert b1 == pytest.approx(0.02)
        assert b2 == pytest.approx(0.04)

    def test_truncation_consistency_against_tail_bound(self):
        # Adding zeros changes the product by at most the declared model.
        base = [(0.5 * cmath.exp(1j * k), 1) for k in range(5)]
        extra = [(1 - 2.0 ** (-j - 1), 1) for j in range(5, 10)]
        small = BlaschkeSpec(zeros=tuple(base))
        big = BlaschkeSpec(zeros=tuple(base + [(complex(a), m) for a, m in extra]))
        residual = sum(1 - abs(a) for a, _ in extra)
        for z in _interior_points(25, radius=0.9):
            vs, _ = blaschke_eval(small, z)
            vb, _ = blaschke_eval(big, z)
            assert abs(vs - vb) <= 2.0 * residual / (1 - abs(z)) + 1e-12

    @given(z=disc_points)
    @settings(max_examples=200, deadline=None)
    def test_four_vertex_product_bounded_by_one(self, z):
        value, _ = blaschke_eval(FOUR_VERTEX, z)
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
        assert psi_from_blaschke(spec, 0.5) == 1j

    def test_sector_membership_on_sweep(self):
        for z in _interior_points(500, radius=0.999):
            w = psi_from_blaschke(FOUR_VERTEX, z)
            assert in_q2(w)
            assert abs(w.real) < abs(w.imag)
            assert abs(w) < math.sqrt(2)

    def test_small_near_targeted_vertex(self):
        psis = [abs(psi_from_blaschke(FOUR_VERTEX, s)) for s in (0.9, 0.99, 0.999)]
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
            assert abs(psi.deriv(z) - rich) <= 1e-6 * max(1.0, abs(rich))

    def test_second_derivative_matches_differenced_first(self):
        psi = psi_fn(FOUR_VERTEX)
        h = 1e-5
        for z in _interior_points(40, radius=0.85):
            coarse = (psi.deriv(z + h) - psi.deriv(z - h)) / (2 * h)
            fine = (psi.deriv(z + h / 2) - psi.deriv(z - h / 2)) / h
            rich = (4 * fine - coarse) / 3
            assert abs(psi.second(z) - rich) <= 1e-6 * max(1.0, abs(rich))

    def test_negate_reciprocal_involution(self):
        psi = psi_fn(FOUR_VERTEX)
        phi = psi.negate_reciprocal()
        for z in _interior_points(50):
            assert abs(phi(z) * psi(z) + 1) < 1e-12
            assert phi(z).imag > 0  # psi in the sector forces phi upstairs
        back = phi.negate_reciprocal()
        for z in _interior_points(10):
            assert abs(back(z) - psi(z)) < 1e-12


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
        mu = MuSpec(kind="perturb", eps=0.05).as_holo()
        assert mu(1j) == pytest.approx(-0.05 + 1j)

    def test_chain_rule_derivative(self):
        psi = psi_fn(FOUR_VERTEX)
        composed = apply_mu(MuSpec(kind="perturb", eps=0.05), psi)
        h = 1e-5
        for z in _interior_points(25, radius=0.8):
            coarse = (composed(z + h) - composed(z - h)) / (2 * h)
            fine = (composed(z + h / 2) - composed(z - h / 2)) / h
            rich = (4 * fine - coarse) / 3
            assert abs(composed.deriv(z) - rich) <= 1e-6 * max(1.0, abs(rich))

    def test_rejects_sector_breaking_perturbation(self):
        # w + 3 w^2 turns psi values near i*0.9 far past arg 3pi/4
        psi = psi_fn(FOUR_VERTEX)
        with pytest.raises(InvalidMuError):
            apply_mu(MuSpec(kind="perturb", eps=3.0), psi)
