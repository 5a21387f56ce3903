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
mod 2.  That group is also what the covering module reduces by, so cusp
classification (which boundary vertex a near-boundary point is
approaching) is done here by the standard fundamental-domain reduction
with the group element tracked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import ConvergenceError, SizeError

MAX_DEPTH = 12
DEFAULT_MIN_HEIGHT = 4.0


class _PointAtInfinity:
    __slots__ = ()

    def __repr__(self):
        return "INF"


INF = _PointAtInfinity()


def cayley(z):
    """Disc to half-plane: tau = i(1-z)/(1+z).  z = -1 maps to INF."""
    z = complex(z)
    if abs(z + 1.0) < 1e-15:
        return INF
    return 1j * (1.0 - z) / (1.0 + z)


def cayley_inv(tau):
    """Half-plane to disc: z = (i - tau)/(i + tau).  INF maps to -1."""
    if tau is INF:
        return complex(-1.0)
    tau = complex(tau)
    return (1j - tau) / (1j + tau)


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

    def as_fraction(self) -> Optional[Fraction]:
        if self.q == 0:
            return None
        return Fraction(self.p, self.q)


@dataclass(frozen=True)
class MoebiusMap:
    """A Moebius or anti-Moebius map, matrix up to scale.

    Acts as z -> (a w + b)/(c w + d) where w = conj(z) when
    ``reflecting`` is set.  Composition conjugates the right factor's
    matrix when the left factor reflects, so the matrix calculus stays
    closed for mixed products.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    reflecting: bool = False

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __call__(self, z):
        if z is INF:
            w = INF
        else:
            w = complex(z).conjugate() if self.reflecting else complex(z)
        if w is INF:
            if abs(self.c) < 1e-300:
                return INF
            return self.a / self.c
        den = self.c * w + self.d
        if abs(den) < 1e-300:
            return INF
        return (self.a * w + self.b) / den

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        if self.reflecting:
            oa, ob, oc, od = (
                other.a.conjugate(),
                other.b.conjugate(),
                other.c.conjugate(),
                other.d.conjugate(),
            )
        else:
            oa, ob, oc, od = other.a, other.b, other.c, other.d
        return MoebiusMap(
            self.a * oa + self.b * oc,
            self.a * ob + self.b * od,
            self.c * oa + self.d * oc,
            self.c * ob + self.d * od,
            reflecting=self.reflecting != other.reflecting,
        )

    def inverse(self) -> "MoebiusMap":
        if not self.reflecting:
            return MoebiusMap(self.d, -self.b, -self.c, self.a, reflecting=False)
        # T(z) = M conj(z) inverts to T^-1(w) = conj(M^-1) conj(w).
        return MoebiusMap(
            self.d.conjugate(),
            (-self.b).conjugate(),
            (-self.c).conjugate(),
            self.a.conjugate(),
            reflecting=True,
        )


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

    def side_sign(self, z: complex) -> float:
        """Signed side function: 0 on the geodesic, sign labels the sides."""
        if self.kind == "diameter":
            return (z * self.direction.conjugate()).imag
        return abs(z - self.center) - self.radius

    def reflect_point(self, z: complex) -> complex:
        if self.kind == "diameter":
            return self.direction**2 * z.conjugate()
        c = self.center
        return c + (self.radius**2) / (z.conjugate() - c.conjugate())

    def as_moebius(self) -> MoebiusMap:
        if self.kind == "diameter":
            return MoebiusMap(self.direction**2, 0j, 0j, 1 + 0j, reflecting=True)
        c = self.center
        return MoebiusMap(c, -1.0 + 0j, 1.0 + 0j, -c.conjugate(), reflecting=True)


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

    def contains(self, z: complex, tol: float = 1e-9) -> bool:
        """Closed-triangle membership: boundary within tol counts."""
        z = complex(z)
        v = self.vertices
        for k, side in enumerate(self.sides):
            ref = side.side_sign(v[(k + 2) % 3])
            s = side.side_sign(z)
            if s * math.copysign(1.0, ref) < -tol:
                return False
        return True


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

    def __post_init__(self):
        object.__setattr__(
            self, "_cusp_index", {v.cusp: v.index for v in self.vertices}
        )

    def vertex_index(self, cusp: Cusp):
        return self._cusp_index.get(cusp)

    def max_boundary_gap(self) -> float:
        angles = sorted(math.atan2(v.z.imag, v.z.real) for v in self.vertices)
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(angles[0] + 2 * math.pi - angles[-1])
        return max(gaps)


def tessellate(depth: int) -> Tessellation:
    """Enumerate all triangles of reflection depth <= depth.

    Words never repeat their last letter (an immediate repeat undoes the
    reflection), giving 1 + 3 (2^depth - 1) triangles.
    """
    if depth < 0:
        raise SizeError("depth must be nonnegative")
    if depth > MAX_DEPTH:
        raise SizeError(f"depth {depth} exceeds guard {MAX_DEPTH}")
    base = base_triangle()
    triangles = [base]
    frontier = [(base, None)]
    for _ in range(depth):
        nxt = []
        for tri, banned in frontier:
            for side in range(3):
                if side == banned:
                    continue
                child = reflect(tri, side)
                triangles.append(child)
                nxt.append((child, side))
        frontier = nxt
    seen = {}
    records = []
    for tri in triangles:
        for cusp in tri.cusps:
            if cusp not in seen:
                seen[cusp] = len(records)
                records.append(VertexRecord(len(records), cusp, cusp.disc_point()))
    return Tessellation(depth=depth, triangles=tuple(triangles), vertices=tuple(records))


def reduce_to_fundamental(tau: complex, max_iter: int = 500):
    """Reduce tau into the standard fundamental domain |Re| <= 1/2, |tau| >= 1.

    Returns (tau_reduced, g) with g = (a, b, c, d) in SL(2, Z) such that
    tau_reduced = g(tau).  The reduced imaginary part is >= sqrt(3)/2,
    which is what the theta series downstream rely on.
    """
    t = complex(tau)
    if not t.imag > 0.0:
        raise ConvergenceError(f"tau = {tau} is not in the upper half-plane")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(max_iter):
        n = math.floor(t.real + 0.5)
        if n != 0:
            t = t - n
            a, b = a - n * c, b - n * d
        if abs(t) < 1.0 - 1e-15:
            t = -1.0 / t
            a, b, c, d = -c, -d, a, b
        else:
            return t, (a, b, c, d)
    raise ConvergenceError(f"fundamental-domain reduction did not settle for {tau}")


def nearest_cusp(tau: complex):
    """The cusp of maximal invariant height for tau, with that height.

    The height of tau at p/q is Im(tau)/|q tau - p|^2 (Im(tau) at
    infinity); it is the sup over the orbit and is attained at
    g^{-1}(infinity) once g reduces tau to the fundamental domain.
    """
    t, (a, b, c, d) = reduce_to_fundamental(tau)
    if c == 0:
        cusp = Cusp(1, 0)
    else:
        cusp = Cusp.make(d, -c)
    return cusp, t.imag


def cusp_classify(
    z: complex,
    tess: Tessellation,
    min_height: float = DEFAULT_MIN_HEIGHT,
) -> Optional[int]:
    """Which enumerated boundary vertex is z approaching, if any.

    Returns the vertex index, or None when z sits below the height
    threshold in every cusp or its cusp was not enumerated.
    """
    tau = cayley(z)
    if tau is INF:
        return tess.vertex_index(Cusp(1, 0))
    cusp, height = nearest_cusp(tau)
    if height < min_height:
        return None
    return tess.vertex_index(cusp)
