"""The conformal covering of the thrice-punctured sphere by the disc.

The covering map is realized concretely as w = lambda(cayley(z)): the
Cayley transform carries the disc to the upper half-plane, and the
modular lambda function (level-two modular, lambda = theta2^4/theta3^4)
quotients the half-plane by the level-two congruence group onto the
plane minus {0, 1}.  Stereographic projection then lands everything on
the unit sphere with punctures at the images of w = 0, 1, infinity.

Evaluation strategy: reduce tau into the standard fundamental domain
(where Im tau >= sqrt(3)/2 and the theta series converge in a handful
of terms) while tracking the group element g, evaluate lambda there,
then undo g through the six-element anharmonic table

    g^-1 mod 2 :  I -> x         T -> x/(x-1)    S -> 1-x
                  TS -> (x-1)/x  ST -> 1/(1-x)   TST -> 1/x

and push the derivative through the same chain, using the closed form
lambda' = i pi lambda (1-lambda) theta3^4 at the reduced point rather
than differencing the series.

Very close to a cusp the reduced lambda underflows to exactly 0; the
cusp classes of infinity and 0 then give w = 0 or 1 exactly with zero
derivative (harmless, the conformal factor vanishes), while the class
of 1 would need 1/0 and raises PunctureError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class ThetaConfig:
    threshold: float = 1e-16
    max_terms: int = 64

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")


_DEFAULT_THETA = ThetaConfig()


def _check_tau(tau: complex):
    if not tau.imag > 0.05:
        raise ConvergenceError(
            f"Im tau = {tau.imag} below series guard 0.05; reduce first"
        )


def theta2(tau: complex, config: ThetaConfig = _DEFAULT_THETA) -> complex:
    """theta2(tau) = 2 sum_{n>=0} exp(i pi tau (n+1/2)^2)."""
    tau = complex(tau)
    _check_tau(tau)
    total = 0j
    for n in range(config.max_terms):
        term = cmath.exp(1j * math.pi * tau * (n + 0.5) ** 2)
        total += term
        if abs(term) < config.threshold:
            return 2.0 * total
    raise ConvergenceError(f"theta2 series did not converge at tau = {tau}")


def theta3(tau: complex, config: ThetaConfig = _DEFAULT_THETA) -> complex:
    """theta3(tau) = 1 + 2 sum_{n>=1} exp(i pi tau n^2)."""
    tau = complex(tau)
    _check_tau(tau)
    total = 0j
    for n in range(1, config.max_terms):
        term = cmath.exp(1j * math.pi * tau * n * n)
        total += term
        if abs(term) < config.threshold:
            return 1.0 + 2.0 * total
    raise ConvergenceError(f"theta3 series did not converge at tau = {tau}")


def theta4(tau: complex, config: ThetaConfig = _DEFAULT_THETA) -> complex:
    """theta4(tau) = 1 + 2 sum_{n>=1} (-1)^n exp(i pi tau n^2)."""
    tau = complex(tau)
    _check_tau(tau)
    total = 0j
    sign = -1.0
    for n in range(1, config.max_terms):
        term = sign * cmath.exp(1j * math.pi * tau * n * n)
        total += term
        if abs(term) < config.threshold:
            return 1.0 + 2.0 * total
        sign = -sign
    raise ConvergenceError(f"theta4 series did not converge at tau = {tau}")


# Anharmonic table: parity of g^{-1} = (d, -b, -c, a) selects how lambda
# at the original point is recovered from lambda at the reduced point,
# together with the derivative of that fractional-linear map.
def _anharmonic(pattern):
    if pattern == (1, 0, 0, 1):
        return (lambda x: x), (lambda x: 1.0)
    if pattern == (1, 1, 0, 1):
        return (lambda x: x / (x - 1.0)), (lambda x: -1.0 / (x - 1.0) ** 2)
    if pattern == (0, 1, 1, 0):
        return (lambda x: 1.0 - x), (lambda x: -1.0)
    if pattern == (1, 1, 1, 0):
        return (lambda x: (x - 1.0) / x), (lambda x: 1.0 / (x * x))
    if pattern == (0, 1, 1, 1):
        return (lambda x: 1.0 / (1.0 - x)), (lambda x: 1.0 / (1.0 - x) ** 2)
    if pattern == (1, 0, 1, 1):
        return (lambda x: 1.0 / x), (lambda x: -1.0 / (x * x))
    raise ValueError(f"matrix parity {pattern} is not invertible mod 2")


def _lambda_core(tau: complex, config: ThetaConfig, want_prime: bool):
    tau = complex(tau)
    if not tau.imag > 0:
        raise PunctureError(f"tau = {tau} lies on the boundary (cusp)")
    t_red, (a, b, c, d) = reduce_to_fundamental(tau)
    t2 = theta2(t_red, config)
    t3 = theta3(t_red, config)
    lam_red = (t2 / t3) ** 4
    pattern = (d % 2, b % 2, c % 2, a % 2)
    fmap, fprime = _anharmonic(pattern)
    needs_inverse = pattern in ((1, 1, 1, 0), (1, 0, 1, 1))
    needs_one_minus = pattern in ((1, 1, 0, 1), (0, 1, 1, 1))
    # 1e-150 keeps the squared denominators in the derivative factors
    # away from underflow
    if needs_inverse and abs(lam_red) < 1e-150:
        raise PunctureError(f"tau = {tau} is numerically at a cusp")
    if needs_one_minus and abs(lam_red - 1.0) < 1e-150:
        raise PunctureError(f"tau = {tau} is numerically at a cusp")
    value = fmap(lam_red)
    if not want_prime:
        return value, None
    lam_prime_red = 1j * math.pi * lam_red * (1.0 - lam_red) * t3**4
    cz = c * tau + d
    prime = fprime(lam_red) * lam_prime_red / (cz * cz)
    return value, prime


def lambda_map(tau: complex, config: ThetaConfig = _DEFAULT_THETA) -> complex:
    """The modular lambda function, valid on the whole upper half-plane."""
    value, _ = _lambda_core(tau, config, want_prime=False)
    return value


def lambda_prime(tau: complex, config: ThetaConfig = _DEFAULT_THETA) -> complex:
    """d lambda / d tau via the closed form at the reduced point."""
    _, prime = _lambda_core(tau, config, want_prime=True)
    return prime


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
    cusp of class 1 that the chart overflowed; ``w_inv`` = 1/w is always
    available."""

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


class ModularCover:
    """Phi = lambda o cayley with chain-rule derivative."""

    def __init__(self, theta_config: ThetaConfig = _DEFAULT_THETA):
        self.theta_config = theta_config

    def value(self, z: complex) -> PhiValue:
        z = complex(z)
        if abs(z) >= 1.0:
            raise PunctureError(f"|z| = {abs(z)} is not inside the disc")
        tau = cayley(z)
        w, lam_p = _lambda_core(tau, self.theta_config, want_prime=True)
        dtau_dz = -2j / (1.0 + z) ** 2
        dw_dz = lam_p * dtau_dz
        return PhiValue(w=w, w_inv=None, p=stereo_lift(w), dw_dz=dw_dz)

    def value_extended(self, z: complex) -> PhiValue:
        """Like value(), but survives chart overflow near w = infinity."""
        try:
            return self.value(z)
        except PunctureError:
            pass
        z = complex(z)
        tau = cayley(z)
        if tau is INF:
            raise PunctureError("z = -1 is itself a cusp")
        t_red, (a, b, c, d) = reduce_to_fundamental(tau)
        t2 = theta2(t_red, self.theta_config)
        t3 = theta3(t_red, self.theta_config)
        lam_red = (t2 / t3) ** 4
        pattern = (d % 2, b % 2, c % 2, a % 2)
        if pattern == (1, 0, 1, 1):  # w = 1/x, so 1/w = x
            w_inv = lam_red
        elif pattern == (1, 1, 1, 0):  # w = (x-1)/x, so 1/w = x/(x-1)
            w_inv = lam_red / (lam_red - 1.0)
        else:
            raise PunctureError(f"covering map undefined at z = {z}")
        return PhiValue(
            w=None, w_inv=w_inv, p=stereo_lift_inverse_chart(w_inv), dw_dz=None
        )

    def metric_factor(self, z: complex) -> float:
        """Conformal factor m with Phi* g_sphere = m (du^2 + dv^2)."""
        return self.value(z).metric_factor()


class IdentityChart:
    """The trivial covering w = z (flat-reference data)."""

    def value(self, z: complex) -> PhiValue:
        z = complex(z)
        return PhiValue(w=z, w_inv=None, p=stereo_lift(z), dw_dz=1.0 + 0j)

    def value_extended(self, z: complex) -> PhiValue:
        return self.value(z)

    def metric_factor(self, z: complex) -> float:
        return self.value(z).metric_factor()


def puncture_distance(cover, z: complex, j: int) -> float:
    """Spherical distance from Phi(z) to puncture j (1, 2 or 3)."""
    if j not in (1, 2, 3):
        raise ValueError(f"puncture index {j} out of range")
    val = cover.value_extended(z)
    if val.w is not None:
        w = val.w
        if j == 1:
            return 2.0 * math.atan(abs(w))
        if j == 3:
            return math.pi - 2.0 * math.atan(abs(w))
        return sphere_distance(val.p, punctures()[1])
    # Flipped chart: w_inv = 1/w is tiny, the point hugs puncture 3.
    if j == 3:
        return 2.0 * math.atan(abs(val.w_inv))
    if j == 1:
        return math.pi - 2.0 * math.atan(abs(val.w_inv))
    return sphere_distance(val.p, punctures()[1])


def hororegion_test(
    cover,
    z: complex,
    j: int,
    r: float = DEFAULT_BALL_RADIUS,
    doubled: bool = False,
    tess: Optional[Tessellation] = None,
    classify_min_height: float = 1.0,
):
    """Is Phi(z) inside the (doubled) ball around puncture j, and which
    boundary-vertex component is z in.

    The radius precondition r < pi/4 keeps the ball geometry inside the
    regime the separation constants assume.  Component naming needs an
    enumerated tessellation; with tess=None only membership is returned.
    """
    if not 0.0 < r < math.pi / 4:
        raise ValueError(f"ball radius {r} outside (0, pi/4)")
    dist = puncture_distance(cover, z, j)
    member = dist < (2.0 * r if doubled else r)
    if not member or tess is None:
        return member, None
    idx = cusp_classify(z, tess, min_height=classify_min_height)
    if idx is None:
        return member, None
    if puncture_class(tess.vertices[idx].cusp) != j:
        return member, None
    return member, idx


def halfplane_side_points(c1: Cusp, c2: Cusp, n: int = 512,
                          y_lo: float = 1e-4, y_hi: float = 1e4):
    """Sample the half-plane geodesic joining two cusps.

    Returns tau values at log-spaced parameters; endpoints themselves
    (the cusps) are never included.
    """
    ys = np.exp(np.linspace(math.log(y_lo), math.log(y_hi), n))
    p1, q1, p2, q2 = c1.p, c1.q, c2.p, c2.q
    if p1 * q2 - p2 * q1 < 0:
        p1, q1 = -p1, -q1
    # columns are the two cusps, so y -> infinity runs to c1 and
    # y -> 0 runs to c2, staying in the upper half-plane throughout
    return [(p1 * 1j * y + p2) / (q1 * 1j * y + q2) for y in ys]


def base_triangle_image_area(rel_tol: float = 1e-3) -> float:
    """Spherical area of the covering image of the base triangle.

    Computed in the half-plane as the integral of |lambda'|^2 times the
    spherical chart factor over the ideal triangle with cusps 0, 1,
    infinity.  The exact answer is 2 pi (two triangles tile the sphere).
    """
    from scipy.integrate import dblquad

    def integrand(y, x):
        tau = complex(x, y)
        try:
            value, prime = _lambda_core(tau, _DEFAULT_THETA, want_prime=True)
        except PunctureError:
            return 0.0
        s = abs(value) ** 2
        return abs(prime) ** 2 * 4.0 / (1.0 + s) ** 2

    def y_floor(x):
        return math.sqrt(max(0.0, 0.25 - (x - 0.5) ** 2))

    area, _ = dblquad(integrand, 0.0, 1.0, y_floor, math.inf,
                      epsabs=rel_tol, epsrel=rel_tol)
    return area
