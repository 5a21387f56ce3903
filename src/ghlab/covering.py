"""The conformal covering of the thrice-punctured sphere by the disc.

The covering map is realized concretely as w = lambda(cayley(z)): the
Cayley transform carries the disc to the upper half-plane, and the
modular lambda function (level-two modular, lambda = theta2^4/theta3^4)
quotients the half-plane by the level-two congruence group onto the
plane minus {0, 1}.  Stereographic projection then lands everything on
the unit sphere with punctures at the images of w = 0, 1, infinity.

Evaluation strategy: reduce tau into the standard fundamental domain
while tracking the group element g.  There Im tau >= sqrt(3)/2, so the
nome q = exp(i pi tau) has |q| < 0.066, and theta2 = 2 q^(1/4) S2 with
S2 = 1 + q^2 + q^6 + q^12 + q^20 and theta3 = 1 + 2 (q + q^4 + q^9 +
q^16) are exact to double precision.  Evaluate lambda there from the
nome alone, as x = 16 q (S2/theta3)^4 (one complex exp a point, and no
q^(1/4)), then undo g through the six-element anharmonic table

    g^-1 mod 2 :  I -> x         T -> x/(x-1)    S -> 1-x
                  TS -> (x-1)/x  ST -> 1/(1-x)   TST -> 1/x

and push the derivative through the same chain, using the closed form
lambda' = i pi lambda (1-lambda) theta3^4 at the reduced point rather
than differencing the series.  The fourth powers are two squarings.

Every evaluation takes an array of points in one batch: the Cayley map
and the reduction of the tessellation module, then the series and one
read of the anharmonic table (its coefficients and determinant) over
the whole array.  Very close to a cusp the reduced lambda underflows
to exactly 0; the cusp classes of infinity and 0 then give w = 0 or 1
exactly with zero derivative (harmless, the conformal factor
vanishes), while the class of 1 would need 1/0.  The batch marks those
points and gives the flipped chart 1/w there, and each caller applies
its own rule: chart() passes the flipped chart on (puncture_distance
reads it), values() raises PunctureError, and metric_factors_in_disc()
reads the conformal factor there as 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PunctureError
from .tessellation import AT_MINUS_ONE, Cusp, cayley, reduce_to_fundamental

DEFAULT_BALL_RADIUS = 0.1


# Anharmonic table: the parity of g^{-1} = (d, -b, -c, a) selects the
# fractional-linear map x -> (A x + B)/(C x + D) that recovers lambda at
# the original point from lambda x at the reduced point.  Its derivative
# is (AD - BC)/(C x + D)^2, and where D = 0 (a pole at x = 0) the
# flipped chart 1/w is (C x + D)/(A x + B).
_ANHARMONIC = {
    (1, 0, 0, 1): (1, 0, 0, 1),     # I    x
    (1, 1, 0, 1): (1, 0, 1, -1),    # T    x/(x-1)
    (0, 1, 1, 0): (-1, 1, 0, 1),    # S    1-x
    (1, 1, 1, 0): (1, -1, 1, 0),    # TS   (x-1)/x
    (0, 1, 1, 1): (0, 1, -1, 1),    # ST   1/(1-x)
    (1, 0, 1, 1): (0, 1, 1, 0),     # TST  1/x
}
# The same table as one (5, 16) array, a column per parity code 8d + 4b
# + 2c + a: the rows are A, B, C, D and the determinant AD - BC.
_MOEBIUS = np.zeros((5, 16))
for _key, (_a, _b, _c, _d) in _ANHARMONIC.items():
    _MOEBIUS[:, _key[0] * 8 + _key[1] * 4 + _key[2] * 2 + _key[3]] = (
        _a, _b, _c, _d, _a * _d - _b * _c)
_PARITY_WEIGHTS = np.array([1, 4, 2, 8])
# Below this the reduced lambda is too small to invert: 1e-150 keeps
# the squared denominators of the derivative away from underflow.
_LAMBDA_FLOOR = 1e-150


def _nome_series(t):
    """(q, S2, theta3) over an array of t by the fixed series, with q =
    exp(i pi t) the nome and theta2 = 2 q^(1/4) S2.  At reduced points
    |q| <= exp(-pi sqrt(3)/2) < 0.066, so the first term left out of
    either series is below 1e-29 of its sum."""
    # S2 = 1 + q^2 + q^6 + q^12 + q^20, theta3 = 1 + 2 (q + q^4 + q^9 + q^16)
    q = np.exp(1j * math.pi * t)
    q2 = q * q
    q4 = q2 * q2
    q8 = q4 * q4
    q16 = q8 * q8
    q6 = q4 * q2
    return q, 1.0 + q2 + q6 + q6 * q6 + q16 * q4, 1.0 + 2.0 * (q + q4 + q8 * q + q16)


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| over an array, rounded as CPython's abs(complex) rounds it
    (numpy's abs can round |z| = 1 down)."""
    return np.hypot(z.real, z.imag)


def _check_in_disc(zs: np.ndarray) -> None:
    """The disc rule of every chart: PunctureError for the first z of a
    flat array that is not inside the open disc."""
    r = _modulus(zs)
    outside = ~(r < 1.0)
    if outside.any():
        raise PunctureError(f"|z| = {r[outside][0]} is not inside the disc")


def _lambda_batch(tau: np.ndarray):
    """(lambda, lambda', flipped) over a flat array of tau in the upper
    half-plane, in one batch: the reduction, the fixed series in the
    nome at the reduced points, then the anharmonic map (A, B, C, D) of
    g^-1 with its determinant and the chain rule through d(g tau)/d tau
    = 1/(c tau + d)^2.

    Deep in a cusp of class 1 (the maps with D = 0) the reduced lambda
    is too small to invert.  flipped marks those points, and there the
    first two arrays hold the flipped chart 1/lambda = (C x + D)/(A x +
    B) and its derivative.  The other maps need no such guard: on the
    fundamental domain 1 - lambda = theta4^4/theta3^4 has modulus at
    least 1/2.
    """
    off = ~(tau.imag > 0)
    if off.any():
        raise PunctureError(f"tau = {tau[off][0]} lies on the boundary (cusp)")
    t_red, g = reduce_to_fundamental(tau)
    q, s2, t3 = _nome_series(t_red)
    # theta2^4 = 16 q S2^4, so lambda = 16 q (S2/theta3)^4; no in-place
    # squares, which numpy rounds by batch size
    r = s2 / t3
    r2, t3_2 = r * r, t3 * t3
    x = 16.0 * q * (r2 * r2)
    prime = 1j * math.pi * x * (1.0 - x) * (t3_2 * t3_2)
    A, B, C, D, det = _MOEBIUS.take(_PARITY_WEIGHTS @ (g & 1), axis=1)
    flipped = (D == 0) & (abs(x) < _LAMBDA_FLOOR)
    if flipped.any():
        # the flipped chart swaps the rows, which turns the sign of AD - BC
        A, B, C, D = np.where(flipped, (C, D, A, B), (A, B, C, D))
        det = np.where(flipped, -det, det)
    den, cz = C * x + D, g[2] * tau + g[3]
    return (A * x + B) / den, det / (den * den) * prime / (cz * cz), flipped


def sphere_distance(p: np.ndarray, q: np.ndarray):
    """Great-circle distance between unit vectors, components on the
    last axis, robust near 0 and pi."""
    cross = np.linalg.norm(np.cross(p, q), axis=-1)
    return np.arctan2(cross, np.sum(p * q, axis=-1))[()]


def punctures():
    """Sphere positions of the punctures: lifts of w = 0, 1, infinity."""
    return (
        np.array([0.0, 0.0, -1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 0.0, 1.0]),
    )


def puncture_class(cusp: Cusp) -> int:
    """Which puncture (1, 2, 3) a cusp maps to, by parity of (p, q)."""
    pattern = (cusp.p % 2, cusp.q % 2)
    return {(1, 0): 1, (0, 1): 2, (1, 1): 3}[pattern]


def _stereo_lift(w: np.ndarray):
    """(p, s, den) over an array of chart values w: the sphere points p
    of the orientation-preserving stereographic lift, components on a
    new last axis, with s = |w|^2 and den = 1 + s."""
    s = w.real * w.real + w.imag * w.imag
    den = 1.0 + s
    return np.stack((2.0 * w.real / den, -2.0 * w.imag / den, (s - 1.0) / den), axis=-1), s, den


def _metric_factors(w: np.ndarray, dw_dz: np.ndarray) -> np.ndarray:
    """The conformal factor m with Phi* g_sphere = m (du^2 + dv^2) over
    arrays of w and dw/dz."""
    aw = abs(w)
    ad = abs(dw_dz)
    # near w = infinity the numerator and denominator both overflow
    # when squared separately, so form the ratio first
    with np.errstate(over="ignore"):
        den = 1.0 + aw * aw
    q = ad / den
    big = ~np.isfinite(den)
    if big.any():
        q[big] = ad[big] / aw[big] / aw[big]
    return 4.0 * q * q


class _Chart:
    """What a covering chart gives over an array of z, from its
    ``chart(zs)`` = (w, dw/dz, flipped), which raises PunctureError for
    the first z outside the open disc (_check_in_disc)."""

    def values(self, zs):
        """(w, dw/dz) over an array of z, as one batch: the checks of
        chart(), and PunctureError for the first point numerically at a
        cusp."""
        w, dw_dz, flipped = self.chart(zs)
        if flipped.any():
            raise PunctureError(f"z = {np.asarray(zs)[flipped][0]} is numerically at a cusp")
        return w, dw_dz

    def metric_factors_in_disc(self, zs) -> np.ndarray:
        """The conformal factor m over an array of z, as one batch, read
        as 0 where z is inside the disc but numerically at a cusp: there
        m decays like exp(-c/eps) and is far below double precision.
        Points outside the disc still raise."""
        w, dw_dz, flipped = self.chart(zs)
        return np.where(flipped, 0.0, _metric_factors(w, dw_dz))


class ModularCover(_Chart):
    """Phi = lambda o cayley with chain-rule derivative."""

    def value(self, z: complex):
        """(w, dw/dz) at one z: values() on a batch of one."""
        w, dw_dz = self.values(np.array([z], dtype=complex))
        return complex(w[0]), complex(dw_dz[0])

    def chart(self, zs):
        """(w, dw/dz, flipped) over an array of z, as one batch.  A point
        outside the disc or at the cusp -1 raises PunctureError, for the
        first such point.  flipped marks the points so deep in a cusp of
        class 1 that w overflowed; there the flipped chart 1/w and its
        derivative are given in its place."""
        zs = np.asarray(zs, dtype=complex)
        shape, zs = zs.shape, zs.ravel()
        _check_in_disc(zs)
        zp = 1.0 + zs
        at_cusp = abs(zp) < AT_MINUS_ONE
        if at_cusp.any():
            raise PunctureError(f"z = {zs[at_cusp][0]} is numerically at the cusp -1")
        w, lam_p, flipped = _lambda_batch(cayley(zs))
        dw_dz = lam_p * (-2j / (zp * zp))
        return w.reshape(shape), dw_dz.reshape(shape), flipped.reshape(shape)

    def metric_factors_in_disc(self, zs) -> np.ndarray:
        # the cusp -1 reads 0 as well
        zs = np.asarray(zs, dtype=complex)
        at_cusp = (abs(1.0 + zs) < AT_MINUS_ONE) & (_modulus(zs) < 1.0)
        return np.where(at_cusp, 0.0, super().metric_factors_in_disc(np.where(at_cusp, 0.0, zs)))


class IdentityChart(_Chart):
    """The trivial covering w = z (flat-reference data)."""

    def chart(self, zs):
        zs = np.asarray(zs, dtype=complex)
        _check_in_disc(zs.ravel())
        return zs, np.ones_like(zs), np.zeros(zs.shape, bool)


def puncture_distance(cover, z, j: int):
    """Spherical distance from Phi(z) to puncture j (1, 2 or 3), at an
    array of z or at one z."""
    if j not in (1, 2, 3):
        raise ValueError(f"puncture index {j} out of range")
    # x is w, or the flipped chart 1/w where w overflowed
    x, _, flipped = cover.chart(z)
    if j == 2:
        # w = 1 lies 2 atan|(w - 1)/(w + 1)| away, the same for x = 1/w
        return 2.0 * np.arctan2(abs(x - 1.0), abs(x + 1.0))
    # puncture 1 (w = 0) lies 2 atan|w| away and puncture 3 (w = inf)
    # 2 atan|1/w|
    dist = 2.0 * np.arctan(abs(x))
    return np.where(flipped == (j == 3), dist, math.pi - dist)[()]


def check_ball_radius(r: float) -> None:
    """The ball-radius rule: 0 < r < pi/4 keeps the puncture balls
    disjoint and inside the regime the separation constants assume."""
    if not 0.0 < r < math.pi / 4:
        raise ValueError(f"ball radius {r} outside (0, pi/4)")


def hororegion_test(cover, z, j: int, r: float = DEFAULT_BALL_RADIUS,
                    doubled: bool = False):
    """Is Phi(z) inside the (doubled) ball around puncture j, at an array
    of z or at one z.  r must satisfy check_ball_radius."""
    check_ball_radius(r)
    return puncture_distance(cover, z, j) < (2.0 * r if doubled else r)


def geodesic_point(c1: Cusp, c2: Cusp, y):
    """The point at parameter y > 0 (or an array of them) on the
    half-plane geodesic joining two cusps: y -> infinity runs to c1 and
    y -> 0 to c2."""
    p1, q1, p2, q2 = c1.p, c1.q, c2.p, c2.q
    if p1 * q2 - p2 * q1 < 0:
        p1, q1 = -p1, -q1
    # columns of positive determinant keep i y in the upper half-plane
    return (p1 * 1j * y + p2) / (q1 * 1j * y + q2)

