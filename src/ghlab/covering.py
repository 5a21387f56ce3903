"""The conformal covering of the thrice-punctured sphere by the disc.

The covering map is realized concretely as w = lambda(cayley(z)): the
Cayley transform carries the disc to the upper half-plane, and the
modular lambda function (level-two modular, lambda = theta2^4/theta3^4)
quotients the half-plane by the level-two congruence group onto the
plane minus {0, 1}.  Stereographic projection then lands everything on
the unit sphere with punctures at the images of w = 0, 1, infinity.

Evaluation strategy: reduce tau into the standard fundamental domain
while tracking the group element g.  There Im tau >= sqrt(3)/2, so
|q| < 0.066 and theta2 and theta3 are sums of five and four terms,
exact to double precision.  Evaluate lambda there by that one fixed
series, then undo g through the six-element anharmonic table

    g^-1 mod 2 :  I -> x         T -> x/(x-1)    S -> 1-x
                  TS -> (x-1)/x  ST -> 1/(1-x)   TST -> 1/x

and push the derivative through the same chain, using the closed form
lambda' = i pi lambda (1-lambda) theta3^4 at the reduced point rather
than differencing the series.

Very close to a cusp the reduced lambda underflows to exactly 0; the
cusp classes of infinity and 0 then give w = 0 or 1 exactly with zero
derivative (harmless, the conformal factor vanishes), while the class
of 1 would need 1/0: there value() raises PunctureError and
value_extended() gives the flipped chart 1/w.

values() takes (w, dw/dz) over an array of z in one batch: a masked
reduction, then the same series and anharmonic table (written once for
a point and an array), with the checks of value(); metric_factors()
reads the conformal factor off them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, PunctureError
from .tessellation import (
    INF,
    Cusp,
    Tessellation,
    cayley,
    cusp_classify,
    reduce_to_fundamental,
)

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
# The same table as arrays indexed by the parity code 8d + 4b + 2c + a.
_MOEBIUS = np.zeros((16, 4))
for _key, _coeffs in _ANHARMONIC.items():
    _MOEBIUS[_key[0] * 8 + _key[1] * 4 + _key[2] * 2 + _key[3]] = _coeffs
_PARITY_WEIGHTS = np.array([1, 4, 2, 8])
# Below this the reduced lambda is too small to invert: 1e-150 keeps
# the squared denominators of the derivative away from underflow.
_LAMBDA_FLOOR = 1e-150


def _theta_series(t, exp):
    """(theta2, theta3) at t by the fixed series, with exp = cmath.exp
    for one point or np.exp for an array.  At reduced points |q| <=
    exp(-pi sqrt(3)/2) < 0.066, so the first term left out of either
    series is below 1e-29 of its sum."""
    # theta2 = 2 q^(1/4) (1 + q^2 + q^6 + q^12 + q^20),
    # theta3 = 1 + 2 (q + q^4 + q^9 + q^16), with q = exp(i pi tau)
    q = exp(1j * math.pi * t)
    q2 = q * q
    q4 = q2 * q2
    q8 = q4 * q4
    q16 = q8 * q8
    q6 = q4 * q2
    t2 = 2.0 * exp(0.25j * math.pi * t) * (1.0 + q2 + q6 + q6 * q6 + q16 * q4)
    t3 = 1.0 + 2.0 * (q + q4 + q8 * q + q16)
    return t2, t3


def _lambda_reduced(t, exp):
    """(lambda, lambda') at reduced points t of the fundamental domain,
    from the fixed theta series."""
    t2, t3 = _theta_series(t, exp)
    lam = (t2 / t3) ** 4
    return lam, 1j * math.pi * lam * (1.0 - lam) * t3**4


def _undo_reduction(lam, prime, moebius, tau, c, d):
    """(lambda, lambda') at tau from their values at the reduced point
    (a tau + b)/(c tau + d): the anharmonic map (A, B, C, D), and the
    chain rule through d(g tau)/d tau = 1/(c tau + d)^2."""
    A, B, C, D = moebius
    den = C * lam + D
    cz = c * tau + d
    return (A * lam + B) / den, (A * D - B * C) / (den * den) * prime / (cz * cz)


def _lambda_core(tau: complex, flip: bool = False):
    """(lambda(tau), lambda'(tau)): the one place a single tau is
    reduced.

    Deep in a cusp of class 1 (the maps with D = 0) the reduced lambda
    is too small to invert.  There PunctureError is raised, or with
    ``flip`` set the flipped chart is returned as (None, 1/lambda).  The
    other maps need no such guard: on the fundamental domain 1 - lambda
    = theta4^4/theta3^4 has modulus at least 1/2.
    """
    tau = complex(tau)
    if not tau.imag > 0:
        raise PunctureError(f"tau = {tau} lies on the boundary (cusp)")
    t_red, (a, b, c, d) = reduce_to_fundamental(tau)
    lam, prime = _lambda_reduced(t_red, cmath.exp)
    A, B, C, D = moebius = _ANHARMONIC[(d % 2, b % 2, c % 2, a % 2)]
    if D == 0 and abs(lam) < _LAMBDA_FLOOR:
        if flip:
            return None, (C * lam + D) / (A * lam + B)
        raise PunctureError(f"tau = {tau} is numerically at a cusp")
    return _undo_reduction(lam, prime, moebius, tau, c, d)


def _reduce_batch(tau: np.ndarray, max_iter: int = 500):
    """reduce_to_fundamental over a flat array: the same translate and
    flip steps, masked to the points that have not settled.  The group
    elements come back as the rows (a, b, c, d) of one array."""
    t = tau
    g = np.zeros((4, t.size), np.int64)
    g[0] = g[3] = 1
    active = np.ones(t.shape, bool)
    for _ in range(max_iter):
        n = np.where(active, np.floor(t.real + 0.5), 0.0)
        t = t - n
        g[:2] -= n.astype(np.int64) * g[2:]
        active &= abs(t) < 1.0 - 1e-15
        if not active.any():
            return t, g
        t = np.where(active, -1.0 / t, t)
        g = np.where(active, np.concatenate((-g[2:], g[:2])), g)
    bad = tau[active][0]
    raise ConvergenceError(f"fundamental-domain reduction did not settle for {bad}")


def _cayley_batch(z: np.ndarray) -> np.ndarray:
    """tessellation.cayley over a flat array, by CPython's complex
    division step for step, so that tau matches the scalar chart to the
    last bit: near a cusp the reduction turns a last-bit change of
    Re tau into a relative change of about 1e-11 in lambda'."""
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
    return tau


def _lambda_batch(tau: np.ndarray):
    """(lambda, lambda') over a flat array of tau in the upper
    half-plane: _lambda_core with the reduction masked over the array."""
    off = ~(tau.imag > 0)
    if off.any():
        raise PunctureError(f"tau = {tau[off][0]} lies on the boundary (cusp)")
    t_red, g = _reduce_batch(tau)
    lam, prime = _lambda_reduced(t_red, np.exp)
    moebius = _MOEBIUS[_PARITY_WEIGHTS @ (g & 1)].T
    stuck = (moebius[3] == 0) & (abs(lam) < _LAMBDA_FLOOR)
    if stuck.any():
        raise PunctureError(f"tau = {tau[stuck][0]} is numerically at a cusp")
    return _undo_reduction(lam, prime, moebius, tau, g[2], g[3])


def lambda_map(tau: complex) -> complex:
    """The modular lambda function, valid on the whole upper half-plane."""
    return _lambda_core(tau)[0]


def lambda_prime(tau: complex) -> complex:
    """d lambda / d tau via the closed form at the reduced point."""
    return _lambda_core(tau)[1]


def stereo_lift(w: complex) -> np.ndarray:
    """Stereographic chart point to unit sphere.

    The sign of the middle coordinate is chosen so the chart is
    orientation-preserving onto the outward-oriented sphere; without it
    the wedge-product bookkeeping downstream picks up a global sign and
    the assembled 2-forms stop being closed.
    """
    w = complex(w)
    s = w.real * w.real + w.imag * w.imag
    den = 1.0 + s
    return np.array([2.0 * w.real / den, -2.0 * w.imag / den, (s - 1.0) / den])


def stereo_lift_inverse_chart(w_inv: complex) -> np.ndarray:
    """Lift from the flipped chart w_inv = 1/w (covers a puncture at w = inf)."""
    w_inv = complex(w_inv)
    s = w_inv.real * w_inv.real + w_inv.imag * w_inv.imag
    den = 1.0 + s
    return np.array([2.0 * w_inv.real / den, 2.0 * w_inv.imag / den, (1.0 - s) / den])


def sphere_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Great-circle distance between unit vectors, robust near 0 and pi."""
    cross = np.linalg.norm(np.cross(p, q))
    dot = float(np.dot(p, q))
    return math.atan2(cross, dot)


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


@dataclass(frozen=True)
class PhiValue:
    """One evaluation of the covering map: chart value, sphere point,
    chart derivative.  ``w`` is None when the point sits so deep in a
    cusp of class 1 that the chart overflowed, and ``w_inv`` = 1/w is
    given in its place."""

    w: Optional[complex]
    w_inv: Optional[complex]
    p: np.ndarray
    dw_dz: Optional[complex]

    def metric_factor(self) -> float:
        """Conformal factor m with Phi* g_sphere = m (du^2 + dv^2)."""
        aw = abs(self.w)
        ad = abs(self.dw_dz)
        # near w = infinity the numerator and denominator both overflow
        # when squared separately, so form the ratio first
        den = 1.0 + aw * aw
        q = ad / aw / aw if not math.isfinite(den) else ad / den
        return 4.0 * q * q


def _metric_factors(w: np.ndarray, dw_dz: np.ndarray) -> np.ndarray:
    """PhiValue.metric_factor over arrays of w and dw/dz."""
    aw = abs(w)
    ad = abs(dw_dz)
    with np.errstate(over="ignore"):
        den = 1.0 + aw * aw
    q = ad / den
    big = ~np.isfinite(den)
    if big.any():
        q[big] = ad[big] / aw[big] / aw[big]
    return 4.0 * q * q


class ModularCover:
    """Phi = lambda o cayley with chain-rule derivative."""

    def value(self, z: complex) -> PhiValue:
        return self._value(z, flip=False)

    def value_extended(self, z: complex) -> PhiValue:
        """Like value(), but survives chart overflow near w = infinity."""
        return self._value(z, flip=True)

    def _value(self, z: complex, flip: bool) -> PhiValue:
        z = complex(z)
        if abs(z) >= 1.0:
            raise PunctureError(f"|z| = {abs(z)} is not inside the disc")
        tau = cayley(z)
        if tau is INF:
            raise PunctureError(f"z = {z} is numerically at the cusp -1")
        w, lam_p = _lambda_core(tau, flip)
        if w is None:
            return PhiValue(w=None, w_inv=lam_p, p=stereo_lift_inverse_chart(lam_p),
                            dw_dz=None)
        dtau_dz = -2j / (1.0 + z) ** 2
        dw_dz = lam_p * dtau_dz
        return PhiValue(w=w, w_inv=None, p=stereo_lift(w), dw_dz=dw_dz)

    def metric_factor(self, z: complex) -> float:
        """Conformal factor m with Phi* g_sphere = m (du^2 + dv^2)."""
        return self.value(z).metric_factor()

    def values(self, zs: np.ndarray):
        """(w, dw/dz) over an array of z, as one batch: the same disc
        and cusp checks as value(), raised for the first point that
        fails."""
        zs = np.asarray(zs, dtype=complex)
        shape, zs = zs.shape, zs.ravel()
        outside = abs(zs) >= 1.0
        if outside.any():
            raise PunctureError(f"|z| = {abs(zs[outside][0])} is not inside the disc")
        zp = 1.0 + zs
        at_cusp = abs(zp) < 1e-15
        if at_cusp.any():
            raise PunctureError(f"z = {zs[at_cusp][0]} is numerically at the cusp -1")
        w, lam_p = _lambda_batch(_cayley_batch(zs))
        return w.reshape(shape), (lam_p * (-2j / (zp * zp))).reshape(shape)

    def metric_factors(self, zs: np.ndarray) -> np.ndarray:
        """metric_factor over an array of z, as one batch."""
        return _metric_factors(*self.values(zs))


class IdentityChart:
    """The trivial covering w = z (flat-reference data)."""

    def value(self, z: complex) -> PhiValue:
        z = complex(z)
        return PhiValue(w=z, w_inv=None, p=stereo_lift(z), dw_dz=1.0 + 0j)

    def value_extended(self, z: complex) -> PhiValue:
        return self.value(z)

    def metric_factor(self, z: complex) -> float:
        return self.value(z).metric_factor()

    def values(self, zs: np.ndarray):
        zs = np.asarray(zs, dtype=complex)
        return zs, np.ones_like(zs)

    def metric_factors(self, zs: np.ndarray) -> np.ndarray:
        return _metric_factors(*self.values(zs))


def puncture_distance(cover, z: complex, j: int) -> float:
    """Spherical distance from Phi(z) to puncture j (1, 2 or 3)."""
    if j not in (1, 2, 3):
        raise ValueError(f"puncture index {j} out of range")
    val = cover.value_extended(z)
    if j == 2:
        return sphere_distance(val.p, punctures()[1])
    # puncture 1 (w = 0) lies 2 atan|w| away and puncture 3 (w = inf)
    # 2 atan|1/w|; where w overflowed, the flipped chart gives 1/w
    chart, near = (val.w, 1) if val.w is not None else (val.w_inv, 3)
    dist = 2.0 * math.atan(abs(chart))
    return dist if j == near else math.pi - dist


def check_ball_radius(r: float) -> None:
    """The ball-radius rule: 0 < r < pi/4 keeps the puncture balls
    disjoint and inside the regime the separation constants assume."""
    if not 0.0 < r < math.pi / 4:
        raise ValueError(f"ball radius {r} outside (0, pi/4)")


def hororegion_test(
    cover,
    z: complex,
    j: int,
    r: float = DEFAULT_BALL_RADIUS,
    doubled: bool = False,
    tess: Optional[Tessellation] = None,
):
    """Is Phi(z) inside the (doubled) ball around puncture j, and which
    boundary-vertex component is z in.

    r must satisfy check_ball_radius.  Component naming needs an
    enumerated tessellation, and a cusp height of at least 1; with
    tess=None only membership is returned.
    """
    check_ball_radius(r)
    dist = puncture_distance(cover, z, j)
    member = dist < (2.0 * r if doubled else r)
    if not member or tess is None:
        return member, None
    idx = cusp_classify(z, tess, min_height=1.0)
    if idx is None:
        return member, None
    if puncture_class(tess.vertices[idx].cusp) != j:
        return member, None
    return member, idx


def geodesic_point(c1: Cusp, c2: Cusp, y: float) -> complex:
    """The point at parameter y > 0 on the half-plane geodesic joining
    two cusps: y -> infinity runs to c1 and y -> 0 to c2."""
    p1, q1, p2, q2 = c1.p, c1.q, c2.p, c2.q
    if p1 * q2 - p2 * q1 < 0:
        p1, q1 = -p1, -q1
    # columns of positive determinant keep i y in the upper half-plane
    return (p1 * 1j * y + p2) / (q1 * 1j * y + q2)


def base_triangle_image_area() -> float:
    """Spherical area of the covering image of the base triangle.

    Computed in the half-plane as the integral of |lambda'|^2 times the
    spherical chart factor over the ideal triangle with cusps 0, 1,
    infinity, to absolute and relative tolerance 1e-3.  The exact answer
    is 2 pi (two triangles tile the sphere).
    """
    from scipy.integrate import dblquad

    def integrand(y, x):
        tau = complex(x, y)
        try:
            value, prime = _lambda_core(tau)
        except PunctureError:
            return 0.0
        s = abs(value) ** 2
        return abs(prime) ** 2 * 4.0 / (1.0 + s) ** 2

    def y_floor(x):
        return math.sqrt(max(0.0, 0.25 - (x - 0.5) ** 2))

    area, _ = dblquad(integrand, 0.0, 1.0, y_floor, math.inf,
                      epsabs=1e-3, epsrel=1e-3)
    return area
