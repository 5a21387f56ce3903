"""Tests for the disc tessellation and its exact cusp arithmetic."""

import cmath
import math
import random
import re

import numpy as np
import pytest

from ghlab.errors import ConvergenceError, SizeError
from ghlab.tessellation import (
    MAX_DEPTH,
    Cusp,
    base_triangle,
    cayley,
    halfplane_reflection_matrix,
    reduce_to_fundamental,
    reflect,
    tessellate,
)
from oracles import cayley_inv, contains, reflect_point


def _mat_mul(m1, m2):
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


class TestCayley:
    def test_origin_to_i(self):
        assert cayley(0) == 1j

    def test_boundary_values(self):
        assert abs(cayley(1)) < 1e-15
        assert abs(cayley(1j) - 1) < 1e-15

    def test_round_trip(self):
        for k in range(40):
            z = 0.9 * cmath.exp(1j * (0.1 + k)) * (0.3 + 0.07 * k % 0.65)
            if abs(z) >= 1:
                continue
            assert abs(cayley_inv(cayley(z)) - z) < 1e-12

    def test_upper_half_plane_image(self):
        for k in range(50):
            z = (k / 50.0) * 0.98 * cmath.exp(2.3j * k)
            tau = cayley(z)
            assert tau.imag > 0

    def test_bit_identical_to_complex_division(self):
        # near the circle the reduction magnifies a last-bit change of tau
        rng = np.random.default_rng(5)
        zs = (1.0 - np.logspace(-12, 0, 20_000)) * np.exp(2j * np.pi * rng.random(20_000))
        expect = np.array([1j * (1 - z) / (1 + z) for z in zs.tolist()])
        assert np.array_equal(cayley(zs), expect)
        assert cayley(complex(zs[7])) == expect[7]


class TestBaseTriangle:
    def test_vertices(self):
        v = base_triangle().vertices
        assert abs(v[0] - 1) < 1e-15
        assert abs(v[1] - 1j) < 1e-15
        assert abs(v[2] + 1) < 1e-15

    def test_contains_origin_in_closure(self):
        # The origin lies exactly on the diameter side joining -1 and 1,
        # so closed membership holds while open membership fails.
        bt = base_triangle()
        assert contains(bt, 0)
        assert not contains(bt, 0, tol=-1e-12)
        assert contains(bt, 0.05 + 0.2j)

    def test_sides_orthogonal_to_unit_circle(self):
        for side in base_triangle().sides:
            if side.kind == "diameter":
                continue  # diameters are orthogonal by symmetry
            # Orthogonality: |center|^2 = 1 + radius^2.
            assert abs(abs(side.center) ** 2 - 1 - side.radius**2) < 1e-12


class TestReflect:
    def test_involution(self):
        bt = base_triangle()
        for side in range(3):
            back = reflect(reflect(bt, side), side)
            assert back.cusps == bt.cusps
            for u, v in zip(back.vertices, bt.vertices):
                assert abs(u - v) < 1e-12

    def test_reflected_interior_disjoint_from_base(self):
        bt = base_triangle()
        probes = [0.1 + 0.3j, 0.4 + 0.4j, -0.2 + 0.35j]
        for side in range(3):
            child = reflect(bt, side)
            for z in probes:
                if contains(bt, z, tol=-1e-9):
                    assert not contains(child, z, tol=-1e-9)

    def test_vertices_stay_on_circle(self):
        tri = base_triangle()
        for side in (0, 2, 1, 0, 2):
            tri = reflect(tri, side)
            for v in tri.vertices:
                assert abs(abs(v) - 1) < 1e-12

    def test_float_reflection_matches_exact_cusp_action(self):
        bt = base_triangle()
        for side in range(3):
            child = reflect(bt, side)
            moved = (side + 2) % 3
            img = reflect_point(bt.sides[side], bt.vertices[moved])
            assert abs(img - child.vertices[moved]) < 1e-12


class TestTessellate:
    @pytest.mark.parametrize("depth,count", [(0, 1), (1, 4), (2, 10), (3, 22)])
    def test_triangle_counts(self, depth, count):
        tess = tessellate(depth)
        assert len(tess.triangles) == count
        assert len(tess.triangles) == 1 + 3 * (2**depth - 1)

    def test_depth_zero_has_three_vertices(self):
        assert len(tessellate(0).vertices) == 3

    def test_depth_guard(self):
        with pytest.raises(SizeError):
            tessellate(13)
        with pytest.raises(SizeError):
            tessellate(-1)

    def test_each_triangle_shares_banned_side_with_parent(self):
        tess = tessellate(3)
        by_word = {t.word: t for t in tess.triangles}
        for tri in tess.triangles:
            if not tri.word:
                continue
            parent = by_word[tri.word[:-1]]
            side = int(tri.word[-1])
            shared_child = {tri.cusps[side], tri.cusps[(side + 1) % 3]}
            shared_parent = {parent.cusps[side], parent.cusps[(side + 1) % 3]}
            assert shared_child == shared_parent

    @pytest.mark.parametrize("depth", range(MAX_DEPTH + 1))
    def test_vertices_are_the_base_cusps_then_each_childs_new_cusp(self, depth):
        tess = tessellate(depth)
        by_word = {t.word: t for t in tess.triangles}
        new = []
        for tri in tess.triangles[1:]:
            (cusp,) = set(tri.cusps) - set(by_word[tri.word[:-1]].cusps)
            new.append(cusp)
        cusps = [v.cusp for v in tess.vertices]
        assert cusps == list(base_triangle().cusps) + new
        assert len(set(cusps)) == len(cusps)
        assert [v.index for v in tess.vertices] == list(range(len(cusps)))

    @pytest.mark.parametrize("depth", range(MAX_DEPTH + 1))
    def test_kept_sides_are_every_side_once(self, depth):
        tess = tessellate(depth)

        def pair(tri, k):
            return frozenset((tri.cusps[k], tri.cusps[(k + 1) % 3]))

        kept = [pair(tri, k) for tri in tess.triangles for k in range(3)
                if k != tri.shared_side]
        assert len(kept) == 3 + 2 * (len(tess.triangles) - 1)
        assert len(set(kept)) == len(kept)
        assert set(kept) == {pair(tri, k) for tri in tess.triangles for k in range(3)}

    def test_interiors_pairwise_disjoint(self):
        tess = tessellate(3)
        rng = random.Random(7)
        for _ in range(1000):
            r = math.sqrt(rng.random()) * 0.995
            z = r * cmath.exp(2j * math.pi * rng.random())
            hits = sum(1 for t in tess.triangles if contains(t, z, tol=-1e-9))
            assert hits <= 1

    def test_boundary_gap_strictly_decreasing(self):
        gaps = [tessellate(d).max_boundary_gap() for d in range(2, 7)]
        for a, b in zip(gaps, gaps[1:]):
            assert a > b

    def test_vertex_cusps_unique_and_in_lowest_terms(self):
        tess = tessellate(4)
        cusps = [v.cusp for v in tess.vertices]
        assert len(cusps) == len(set(cusps))
        for c in cusps:
            assert c.q >= 0
            assert math.gcd(c.p, c.q) == 1

    def test_two_reflection_words_are_level_two_congruence(self):
        # Composing reflections across two distinct sides gives an
        # orientation-preserving element; its integer half-plane matrix
        # must be congruent to the identity mod 2.
        for tri in tessellate(1).triangles[1:]:
            first = int(tri.word[-1])
            for second in range(3):
                if second == first:
                    continue
                m1 = halfplane_reflection_matrix(
                    tri.cusps[first], tri.cusps[(first + 1) % 3]
                )
                m2 = halfplane_reflection_matrix(
                    tri.cusps[second], tri.cusps[(second + 1) % 3]
                )
                prod = _mat_mul(m1, m2)
                a, b, c, d = prod
                assert a * d - b * c == 1
                assert (a % 2, b % 2, c % 2, d % 2) == (1, 0, 0, 1)


class TestReduction:
    def test_reduced_point_lies_in_fundamental_domain(self):
        rng = random.Random(3)
        taus = [complex(4 * rng.random() - 2, 0.02 + 2 * rng.random()) for _ in range(200)]
        ts, g = reduce_to_fundamental(np.array(taus))
        assert g.shape == (4, 200) and g.dtype.kind == "i"
        for tau, t, (a, b, c, d) in zip(taus, ts.tolist(), g.T.tolist()):
            assert a * d - b * c == 1
            assert abs(t.real) <= 0.5 + 1e-9
            assert abs(t) >= 1 - 1e-9
            assert t.imag >= math.sqrt(3) / 2 - 1e-9
            # g really maps tau to the reduced point
            image = (a * tau + b) / (c * tau + d)
            assert abs(image - t) < 1e-9 * max(1.0, abs(t))

    @pytest.mark.parametrize("tau, named", [
        (0.1 - 0.5j, "(0.1-0.5j)"),
        (2.0 + 0j, "(2+0j)"),
        (np.array([1j, 0.3 + 2j, 2.0, -1j]), "(2+0j)"),
    ], ids=["lower", "real_axis", "first_of_an_array"])
    def test_off_the_upper_half_plane_is_a_convergence_error(self, tau, named):
        with pytest.raises(ConvergenceError, match=re.escape(f"tau = {named} is not in the upper")):
            reduce_to_fundamental(tau)
