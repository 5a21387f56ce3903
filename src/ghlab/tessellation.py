"""Ideal-triangle reflection group on the Poincare disc.

The disc is tessellated by successive reflection of one ideal triangle in
its sides.  We realize the combinatorics exactly: every triangle vertex
is a cusp, a rational number p/q (or infinity) on the boundary of the
half-plane model, and side reflections act on cusps by integer Moebius
matrices.  The half-plane reflection across the geodesic with endpoints
p1/q1 and p2/q2 is

    tau  ->  ( s*conj(tau) - 2 p1 p2 ) / ( 2 q1 q2 * conj(tau) - s ),
    s = p1 q2 + p2 q1,

an integer matrix of determinant -1 whenever the endpoints are Farey
neighbours, which they always are here (the base triangle has cusps
0, 1, infinity and the property is preserved by the group).  Floating
point only enters when a cusp is dropped into the disc through the
inverse Cayley map z = (i q - p)/(i q + p).

The orientation-preserving words of even length form the level-two
congruence group: their integer matrices are congruent to the identity
mod 2.  That group is also what the covering module reduces by, so the
Cayley map and the standard fundamental-domain reduction with the group
element tracked live here, over arrays, for the covering chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, SizeError

MAX_DEPTH = 12


# Closer than this to -1 a disc point is numerically at the cusp
# infinity, where cayley divides by zero; callers test it first.
AT_MINUS_ONE = 1e-15


def cayley(z):
    """Disc to half-plane: tau = i(1-z)/(1+z), at an array of z or at one
    z, by CPython's complex division step for step.  tau matches
    1j*(1-z)/(1+z) to the last bit: near a cusp the reduction turns a
    last-bit change of Re tau into a relative change of 1e-11 in lambda'."""
    z = np.asarray(z, dtype=complex)
    ar, ai = z.imag, 1.0 - z.real  # i (1 - z)
    br, bi = 1.0 + z.real, z.imag  # 1 + z
    first = abs(br) >= abs(bi)
    big, small = np.where(first, br, bi), np.where(first, bi, br)
    p, q = np.where(first, ar, ai), np.where(first, ai, ar)
    ratio = small / big
    denom = big + small * ratio
    tau = np.empty(z.shape, complex)
    tau.real = (p + q * ratio) / denom
    im = (q - p * ratio) / denom
    tau.imag = np.where(first, im, -im)
    return tau[()]


class Cusp(NamedTuple):
    """A boundary cusp p/q in lowest terms, q >= 0; (1, 0) is infinity."""

    p: int
    q: int

    @classmethod
    def make(cls, p: int, q: int) -> "Cusp":
        if q == 0:
            return cls(1, 0)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        return cls(p, q)

    def disc_point(self) -> complex:
        return (1j * self.q - self.p) / (1j * self.q + self.p)


@dataclass(frozen=True)
class SideGeodesic:
    """A disc geodesic: circle orthogonal to the unit circle, or diameter."""

    kind: str  # "circle" | "diameter"
    center: complex = 0j  # circle case
    radius: float = 0.0
    direction: complex = 1 + 0j  # diameter case, unit modulus
    endpoints: tuple = ()

    @classmethod
    def through(cls, va: complex, vb: complex) -> "SideGeodesic":
        """The geodesic joining two distinct boundary points."""
        cross = va.real * vb.imag - va.imag * vb.real
        if abs(cross) < 1e-12:
            # Antipodal endpoints: a diameter.
            return cls(kind="diameter", direction=va / abs(va), endpoints=(va, vb))
        # Solve Re(conj(va) c) = 1, Re(conj(vb) c) = 1 for the center.
        det = cross
        x = (vb.imag - va.imag) / det
        y = (va.real - vb.real) / det
        center = complex(x, y)
        radius = math.sqrt(abs(center) ** 2 - 1.0)
        return cls(kind="circle", center=center, radius=radius, endpoints=(va, vb))


def halfplane_reflection_matrix(c1: Cusp, c2: Cusp):
    """Integer matrix (a, b, c, d) of the half-plane reflection, acting on
    conj(tau).  Determinant is -(p1 q2 - p2 q1)^2 = -1 for Farey neighbours."""
    s = c1.p * c2.q + c2.p * c1.q
    return (s, -2 * c1.p * c2.p, 2 * c1.q * c2.q, -s)


def _apply_integer_map(mat, cusp: Cusp) -> Cusp:
    a, b, c, d = mat
    return Cusp.make(a * cusp.p + b * cusp.q, c * cusp.p + d * cusp.q)


@dataclass(frozen=True)
class IdealTriangle:
    """An ideal triangle of the tessellation.

    Side k joins vertices k and (k+1) mod 3.  The cusp triple is exact;
    vertices and side geodesics are derived floats.
    """

    cusps: tuple
    word: str = ""
    depth: int = 0

    @property
    def vertices(self) -> tuple:
        return tuple(c.disc_point() for c in self.cusps)

    @property
    def sides(self) -> tuple:
        v = self.vertices
        return tuple(SideGeodesic.through(v[k], v[(k + 1) % 3]) for k in range(3))

    @property
    def shared_side(self):
        """The side a child shares with its parent, which reflect keeps:
        the last letter of its word; None at the root."""
        return int(self.word[-1]) if self.word else None


def base_triangle() -> IdealTriangle:
    """The depth-0 triangle: disc vertices 1, i, -1 (cusps 0, 1, infinity)."""
    return IdealTriangle(cusps=(Cusp.make(0, 1), Cusp.make(1, 1), Cusp(1, 0)))


def reflect(tri: IdealTriangle, side: int) -> IdealTriangle:
    """Reflect a triangle across one of its sides (exact cusp action)."""
    if side not in (0, 1, 2):
        raise ValueError(f"side index {side} out of range")
    keep_a = tri.cusps[side]
    keep_b = tri.cusps[(side + 1) % 3]
    moved = tri.cusps[(side + 2) % 3]
    mat = halfplane_reflection_matrix(keep_a, keep_b)
    new_cusps = [None, None, None]
    new_cusps[side] = keep_a
    new_cusps[(side + 1) % 3] = keep_b
    new_cusps[(side + 2) % 3] = _apply_integer_map(mat, moved)
    return IdealTriangle(
        cusps=tuple(new_cusps),
        word=tri.word + str(side),
        depth=tri.depth + 1,
    )


class VertexRecord(NamedTuple):
    index: int
    cusp: Cusp
    z: complex


@dataclass(frozen=True)
class Tessellation:
    depth: int
    triangles: tuple
    vertices: tuple

    def max_boundary_gap(self) -> float:
        angles = sorted(math.atan2(v.z.imag, v.z.real) for v in self.vertices)
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + 2 * math.pi - angles[-1])
        return max(gaps)


def tessellate(depth: int) -> Tessellation:
    """Enumerate all triangles of reflection depth <= depth.

    Words never repeat their last letter (an immediate repeat undoes the
    reflection), giving 1 + 3 (2^depth - 1) triangles.  The vertices are
    the base cusps, then the one cusp each child adds: the one opposite
    the side it shares with its parent.
    """
    if depth < 0:
        raise SizeError("depth must be nonnegative")
    if depth > MAX_DEPTH:
        raise SizeError(f"depth {depth} exceeds guard {MAX_DEPTH}")
    base = base_triangle()
    triangles, cusps, frontier = [base], list(base.cusps), [base]
    for _ in range(depth):
        frontier = [reflect(tri, side) for tri in frontier for side in range(3)
                    if side != tri.shared_side]
        triangles += frontier
        cusps += [tri.cusps[(tri.shared_side + 2) % 3] for tri in frontier]
    vertices = tuple(VertexRecord(i, c, c.disc_point()) for i, c in enumerate(cusps))
    return Tessellation(depth=depth, triangles=tuple(triangles), vertices=vertices)


def reduce_to_fundamental(tau, max_iter: int = 500):
    """Reduce tau, an array or one point, into the standard fundamental
    domain |Re| <= 1/2, |tau| >= 1.

    Returns (tau_reduced, g) with g an integer array of shape (4,) + tau's
    whose rows (a, b, c, d) give g in SL(2, Z) with tau_reduced = g(tau).
    The reduced imaginary part is >= sqrt(3)/2, which is what the theta
    series downstream rely on.
    """
    t = tau = np.asarray(tau, dtype=complex)
    off = ~(tau.imag > 0.0)
    if off.any():
        raise ConvergenceError(f"tau = {tau[off][0]} is not in the upper half-plane")
    g = np.zeros((4,) + t.shape, np.int64)
    g[0] = g[3] = 1
    active = np.ones(t.shape, bool)
    for _ in range(max_iter):
        n = np.where(active, np.floor(t.real + 0.5), 0.0)
        t = t - n
        g[:2] -= n.astype(np.int64) * g[2:]
        active &= abs(t) < 1.0 - 1e-15
        if not active.any():
            return t[()], g
        t = np.where(active, -1.0 / t, t)
        g = np.where(active, np.concatenate((-g[2:], g[:2])), g)
    raise ConvergenceError(f"fundamental-domain reduction did not settle for {tau[active][0]}")
