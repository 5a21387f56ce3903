"""Reference computations that the tests compare the package against.

Nothing in ghlab calls these: each is an independent route to a value
the package computes another way (a double integral, a root-bracketed
crossing count, a general finite-difference stencil, point-by-point
geodesic geometry, the Blaschke jet one point at a time, its value with
no pole guard, the curl source Im(phi) m that d xi must reproduce, in
the place of xi by Green's identity, the verify points from scalar
draws), or a path the lab itself never runs (a circle).
They live beside the tests that use them, as plain functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ghlab.covering import (
    DEFAULT_BALL_RADIUS,
    _lambda_batch,
    _metric_factors,
    _stereo_lift,
    punctures,
    sphere_distance,
)
from ghlab.errors import GHLabError, PathError, PunctureError
from ghlab.pathlab import ParamPath, _disc
from ghlab.verify import FDConfig, _exterior, _partials

# ---- the modular lambda function ----------------------------------------


def lambda_values(tau):
    """(lambda, lambda') at tau, an array or one point, from the batch
    every chart takes; PunctureError where tau is numerically at a cusp."""
    tau = np.asarray(tau, dtype=complex)
    lam, prime, flipped = _lambda_batch(tau.ravel())
    if flipped.any():
        raise PunctureError(f"tau = {tau.ravel()[flipped][0]} is numerically at a cusp")
    return lam.reshape(tau.shape)[()], prime.reshape(tau.shape)[()]


def base_triangle_image_area() -> float:
    """Spherical area of the covering image of the base triangle.

    Computed in the half-plane as the integral of |lambda'|^2 times the
    spherical chart factor over the ideal triangle with cusps 0, 1,
    infinity, to absolute and relative tolerance 1e-3.  The exact answer
    is 2 pi (two triangles tile the sphere).
    """
    from scipy.integrate import dblquad

    def integrand(y, x):
        try:
            value, prime = lambda_values(complex(x, y))
        except PunctureError:
            return 0.0
        s = abs(value) ** 2
        return abs(prime) ** 2 * 4.0 / (1.0 + s) ** 2

    def y_floor(x):
        return math.sqrt(max(0.0, 0.25 - (x - 0.5) ** 2))

    area, _ = dblquad(integrand, 0.0, 1.0, y_floor, math.inf,
                      epsabs=1e-3, epsrel=1e-3)
    return area


# ---- the conformal factor and the curl source ---------------------------


def metric_factors(cover, zs) -> np.ndarray:
    """The conformal factor m of a chart over an array of z, or at one
    z, from its values: PunctureError where values raises."""
    return _metric_factors(*cover.values(zs))


def curl_source(data, zs) -> np.ndarray:
    """The du^dv density Im(phi) m that d xi must reproduce, over an
    array of z; the cover goes first, so that leaving the disc raises
    the cover's PunctureError."""
    m = metric_factors(data.cover, zs)
    return (-1.0 / data.psi(zs)).imag * m


# ---- the Blaschke jet at one point ---------------------------------------


def blaschke_jet(spec, z) -> tuple:
    """(B, B', B'') at one z by product-rule accumulation over the
    factors, in Python complex arithmetic, a factor at a time.

    Factor c (a - z)/den with c = conj(a)/|a| and den = 1 - conj(a) z
    has derivative c (|a|^2 - 1)/den^2 and second derivative that times
    2 conj(a)/den."""
    z, m = complex(z), spec.m
    p = z**m
    d1 = m * z ** (m - 1) if m else 0j
    d2 = m * (m - 1) * z ** (m - 2) if m > 1 else 0j
    for a, mult in spec.zeros:
        a = complex(a)
        ac = a.conjugate()
        c, k = ac / abs(a), abs(a) ** 2 - 1.0
        for _ in range(mult):
            den = 1.0 - ac * z
            f = c * (a - z) / den
            core = k / (den * den)
            f1 = c * core
            f2 = c * core * 2.0 * ac / den
            d2 = d2 * f + 2.0 * d1 * f1 + p * f2
            d1 = d1 * f + p * f1
            p = p * f
    return p, d1, d2


def blaschke_values(spec, z) -> np.ndarray:
    """B over an array of z, a factor at a time with no pole check:
    z^m times c (a - z)/(1 - conj(a) z) for each zero, once per
    multiplicity, with c = conj(a)/|a|, in numpy arithmetic."""
    p = np.asarray(z, dtype=complex) ** spec.m
    for a, mult in spec.zeros:
        a = complex(a)
        ac = a.conjugate()
        c = ac / abs(a)
        for _ in range(mult):
            p = p * (c * (a - z) / (1.0 - ac * z))
    return p


def psi_jet(spec, z) -> tuple:
    """psi = i sqrt(1 - B) and its first two derivatives at one z, from
    blaschke_jet and the principal square root of cmath."""
    b, db, ddb = blaschke_jet(spec, z)
    s = cmath.sqrt(1.0 - b)
    return 1j * s, -1j * db / (2.0 * s), -1j * (ddb / (2.0 * s) + db * db / (4.0 * s**3))


# ---- geodesics and triangles of the tessellation ------------------------


def cayley_inv(tau):
    """Half-plane to disc: z = (i - tau)/(i + tau)."""
    return (1j - tau) / (1j + tau)


def side_sign(side, z: complex) -> float:
    """Signed side function of a SideGeodesic: 0 on the geodesic, sign
    labels the sides."""
    if side.kind == "diameter":
        return (z * side.direction.conjugate()).imag
    return abs(z - side.center) - side.radius


def reflect_point(side, z: complex) -> complex:
    """The reflection of z in a SideGeodesic."""
    if side.kind == "diameter":
        return side.direction**2 * z.conjugate()
    c = side.center
    return c + (side.radius**2) / (z.conjugate() - c.conjugate())


def contains(tri, z: complex, tol: float = 1e-9) -> bool:
    """Closed membership of z in an IdealTriangle: boundary within tol
    counts."""
    z = complex(z)
    v = tri.vertices
    for k, side in enumerate(tri.sides):
        ref = side_sign(side, v[(k + 2) % 3])
        s = side_sign(side, z)
        if s * math.copysign(1.0, ref) < -tol:
            return False
    return True


# ---- exterior derivatives ------------------------------------------------


def fd_exterior_derivative(field, x, config: FDConfig = FDConfig()):
    """Exterior derivative of a k-form field (k = 0, 1, 2) by differencing.

    ``field`` maps one coordinate vector to a scalar, a component
    vector, or an antisymmetric component matrix.  The result carries
    one more index and is antisymmetric."""
    P = _partials(lambda X: [field(y) for y in X], x, config)
    return _exterior(P, P.ndim - 1)


def fd_exterior_derivative_exact_rho(field, x, degree, config: FDConfig = FDConfig()):
    """fd_exterior_derivative of a field homogeneous in rho = x[0], with
    its column of partials along rho taken exactly rather than
    differenced: d_rho F = degree F / rho at x, degree the power of rho
    of each component of F."""
    P = _partials(lambda X: [field(y) for y in X], x, config)
    P[0] = degree * np.asarray(field(np.asarray(x, dtype=float))) / x[0]
    return _exterior(P, P.ndim - 1)


# ---- the verify points ---------------------------------------------------


def interior_points_by_scalar_draws(n: int, seed: int, radius: float = 0.62) -> list:
    """cli.interior_points with its jitter drawn one scalar at a time,
    the angle's and then the radius's for each point in turn."""
    rng = np.random.default_rng(seed)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    pts = []
    for k in range(n):
        rad = radius * math.sqrt((k + 0.5) / n)
        ang = golden * k + 0.02 * float(rng.standard_normal())
        rad = min(rad + 0.005 * float(rng.standard_normal()), radius + 0.02)
        pts.append(rad * cmath.exp(1j * ang))
    return pts


# ---- paths ----------------------------------------------------------------


def segment(z0: complex, z1: complex) -> ParamPath:
    """The disc segment from z0 to z1."""
    z0, z1 = complex(z0), complex(z1)
    return ParamPath([z0.real, z0.imag], [z1.real, z1.imag])


@dataclass(frozen=True, eq=False)
class CirclePath:
    """The disc path center + radius e^(i (phase + 2 pi turns s)), with
    the interface of ParamPath that the path quadrature reads."""

    center: complex
    radius: float
    turns: float = 1.0
    phase: float = 0.0
    dim = 2
    proper = False

    def _angle(self, s):
        return self.phase + 2.0 * math.pi * self.turns * np.asarray(s, dtype=float)

    def at(self, s) -> np.ndarray:
        ang = self._angle(s)
        center = complex(self.center)
        return np.stack((center.real + self.radius * np.cos(ang),
                         center.imag + self.radius * np.sin(ang)), axis=-1)

    def vel(self, s) -> np.ndarray:
        ang = self._angle(s)
        return 2.0 * math.pi * self.turns * self.radius * np.stack(
            (-np.sin(ang), np.cos(ang)), axis=-1)

    def point(self, s):
        return _disc(self.at(s))


# ---- even-side crossing counts ------------------------------------------


@dataclass(frozen=True)
class CrossingReport:
    """Transversal crossings of the even-side great circle, labelled by
    which truncated side arc was hit; count is the number of consecutive
    distinct-label pairs, each of which forces at least c1 of spherical
    length."""

    count: int
    labels: tuple
    params: tuple


def _arc_label(p: np.ndarray) -> int:
    if p[0] < 0.0:
        return 2
    return 0 if p[2] < 0.0 else 1


def even_side_crossings(path, data) -> CrossingReport:
    """Crossings located between 2048 evenly spaced samples of the path,
    lifted in one batch; a sign change through samples on the circle
    counts once.  Crossings inside a puncture ball of the default radius
    are left out."""
    if path.dim != 2:
        raise ValueError("crossing count wants a disc path")
    from scipy.optimize import brentq

    def lift(s):
        try:
            return _stereo_lift(data.cover.values(path.point(s))[0])[0]
        except GHLabError as exc:
            raise PathError(f"covering evaluation failed for s in "
                            f"[{np.min(s)}, {np.max(s)}]: {exc}") from exc

    svals = np.linspace(0.0, 1.0, 2048)
    heights = lift(svals)[:, 1]
    off = np.flatnonzero(heights)
    labels = []
    params = []
    for a, b in zip(off[:-1], off[1:]):
        if (heights[a] > 0.0) == (heights[b] > 0.0):
            continue
        s_star = brentq(lambda s: lift(s)[1], svals[a], svals[b], xtol=1e-12)
        p = lift(s_star)
        if min(sphere_distance(p, q) for q in punctures()) < DEFAULT_BALL_RADIUS:
            continue
        labels.append(_arc_label(p))
        params.append(s_star)
    count = sum(1 for a, b in zip(labels[:-1], labels[1:]) if a != b)
    return CrossingReport(count=count, labels=tuple(labels), params=tuple(params))
