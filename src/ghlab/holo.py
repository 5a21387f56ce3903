"""Holomorphic building blocks on the unit disc.

The geometric constructions downstream consume a holomorphic function
psi on the open disc with values in the sector pi/4 < arg < 3pi/4, and
its companion phi = -1/psi with values in the upper half-plane.  Here we
build such functions from Blaschke products

    B(z) = z^m * prod_k [ (conj(a_k)/|a_k|) * (a_k - z)/(1 - conj(a_k) z) ]

via psi = i * sqrt(1 - B), where the square root is the branch mapping
the right half-plane into the sector |arg| < pi/4.  Since B maps the
disc into itself, 1 - B stays in the right half-plane and psi lands in
the required sector automatically.

Everything carries analytic first and second derivatives; a HoloFn is
the jet (f, f', f'') at a point, so consumers never have to difference
anything that is known in closed form, and one Blaschke product per
point serves all three.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BranchDomainError, InvalidMuError, InvalidZeroError, PoleError

_DENOM_FLOOR = 1e-300
_Q2_LO = math.pi / 4
_Q2_HI = 3 * math.pi / 4


@dataclass(frozen=True)
class HoloFn:
    """A holomorphic function given by its second-order jet.

    ``jet(z)`` returns (f, f', f'') with exact complex derivatives, so
    one evaluation of the underlying product serves the value and both
    derivatives.  z is an ndarray, with three arrays of its shape back,
    or one point, taken as a 0-d array.  Calling a HoloFn gives
    ``value(z)`` where given (no derivatives, bit for bit jet(z)[0]).
    """

    jet: Callable
    value: Callable | None = None

    def __call__(self, z):
        if self.value is not None:
            return self.value(z)
        return self.jet(z)[0]

    @classmethod
    def constant(cls, c: complex) -> "HoloFn":
        def jet(z):
            zero = np.zeros(np.shape(z), complex)[()]
            return zero + c, zero, zero

        return cls(jet=jet)


@dataclass(frozen=True)
class BlaschkeSpec:
    """A finite Blaschke product.

    ``zeros`` is a tuple of (a, multiplicity) pairs with 0 < |a| < 1.
    """

    m: int = 0
    zeros: tuple[tuple[complex, int], ...] = ()

    def __post_init__(self):
        if self.m < 0:
            raise InvalidZeroError("leading power m must be nonnegative")
        for a, mult in self.zeros:
            a = complex(a)
            if mult < 1:
                raise InvalidZeroError(f"multiplicity {mult} for zero {a}")
            if not 0.0 < abs(a) < 1.0:
                raise InvalidZeroError(f"zero {a} not in the punctured open disc")

    @cached_property
    def factor_columns(self) -> tuple:
        """(a, conj(a), conj(a)/|a|, |a|^2 - 1) for each zero, once per
        multiplicity: the constants of each factor's jet, as four columns
        (one row per factor) that broadcast against a flat array of z."""
        terms = []
        for a, mult in self.zeros:
            a = complex(a)
            ac = a.conjugate()
            terms += [(a, ac, ac / abs(a), abs(a) ** 2 - 1.0)] * mult
        cols = np.array(terms, dtype=complex).reshape(-1, 4)
        return tuple(cols[:, j:j + 1] for j in range(4))


def vertex_targeted_spec(vertices, depths=(1, 2)) -> BlaschkeSpec:
    """Place zeros a = (1 - 2^-j) * v for each unit-modulus target v.

    Radial accumulation of zeros drives B toward 1 along the radius to
    each target, which is what the downstream completeness experiments
    need.  An even number of zeros per vertex keeps the radial limit at
    +1 rather than -1 (each factor (s - t)/(1 - s t) tends to -1 as
    t -> 1 along the ray), so the default ``depths`` has length 2.
    """
    zeros = []
    for v in vertices:
        v = complex(v)
        if abs(abs(v) - 1.0) > 1e-12:
            raise InvalidZeroError(f"target vertex {v} must have modulus 1")
        for j in depths:
            zeros.append(((1.0 - 2.0 ** (-j)) * v, 1))
    return BlaschkeSpec(m=0, zeros=tuple(zeros))


def _power_with_derivs(m: int, z):
    if m == 0:
        return 1.0 + 0j, 0j, 0j
    if m == 1:
        return z, 1.0 + 0j, 0j
    return z**m, m * z ** (m - 1), m * (m - 1) * z ** (m - 2)


def blaschke_derivs(spec: BlaschkeSpec, z):
    """(B, B', B'') at z, an ndarray or one point, in its shape: the jet
    of _blaschke_batch, under the name perfbench traces."""
    return _blaschke_batch(spec, z)


def _blaschke_batch(spec: BlaschkeSpec, z, derivs: bool = True):
    """(B, B', B'') at z, an ndarray or one point (a 0-d array), in its
    shape, or B alone with derivs False: bit for bit the jet's first
    array.  One table holds factor c (a - z)/den, with c = conj(a)/|a|
    and den = 1 - conj(a) z, at every z (one row per factor), after the
    pole floor on den, which names the first factor and z that breach
    it.  A factor's derivative is c (|a|^2 - 1)/den^2 and its second
    derivative that times 2 conj(a)/den; the product rule accumulates
    the rows."""
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    a, ac, c, k = spec.factor_columns
    den = 1.0 - ac * z
    near = abs(den) < _DENOM_FLOOR
    if near.any():
        row, col = np.argwhere(near)[0]
        raise PoleError(f"Blaschke factor pole at z={z[col]} for zero a={a[row, 0]}")
    f = c * (a - z) / den
    p, d1, d2 = _power_with_derivs(spec.m, z)
    if not derivs:
        for fk in f:
            p = p * fk
        return np.broadcast_to(p, z.shape).reshape(shape)[()]
    core = k / (den * den)
    f1 = c * core
    f2 = c * core * 2.0 * ac / den
    for fk, f1k, f2k in zip(f, f1, f2):
        d2 = d2 * fk + 2.0 * d1 * f1k + p * f2k
        d1 = d1 * fk + p * f1k
        p = p * fk
    # the leading power alone may leave constants in the jet
    return tuple(np.broadcast_to(x, z.shape).reshape(shape)[()] for x in (p, d1, d2))


def sqrt_right_halfplane(w):
    """Square root branch on Re w > 0 with values in |arg| < pi/4, at
    an ndarray of w or at one w.  The principal square root already
    does this; the point of the wrapper is the hard domain check, over
    all of w.  Inputs on the imaginary axis are rejected, not perturbed.
    """
    w = np.asarray(w, dtype=complex)
    bad = ~(w.real > 0.0)
    if bad.any():
        raise BranchDomainError(f"Re w = {w.real[bad][0]} is not positive")
    return np.sqrt(w)[()]


def _flat_batch(flat):
    """``flat``, which maps a flat array of z to an array or a tuple of
    arrays of its length, at z of any shape or one point: one batch,
    put back in the shape of z once at the end (scalars for one point),
    so that one point is bit for bit a batch of one."""

    def at(z):
        z = np.asarray(z, dtype=complex)
        out = flat(z.ravel())
        if isinstance(out, tuple):
            return tuple(x.reshape(z.shape)[()] for x in out)
        return out.reshape(z.shape)[()]

    return at


def psi_fn(spec: BlaschkeSpec) -> HoloFn:
    """The full psi = i*sqrt(1-B) as a HoloFn, one product per jet.

    With s = sqrt(1-B):  psi' = -i B' / (2 s)  and
    psi'' = -i [ B''/(2 s) + B'^2/(4 s^3) ].
    """

    def jet(z):
        b, db, ddb = blaschke_derivs(spec, z)
        s = sqrt_right_halfplane(1.0 - b)
        return (
            1j * s,
            -1j * db / (2.0 * s),
            -1j * (ddb / (2.0 * s) + db * db / (4.0 * s**3)),
        )

    return HoloFn(jet=_flat_batch(jet), value=_flat_batch(lambda z: 1j * sqrt_right_halfplane(
        1.0 - _blaschke_batch(spec, z, derivs=False))))


def in_q2(w):
    """True where w, one point or an array, lies strictly inside the
    sector pi/4 < arg w < 3pi/4 (w = 0 has arg 0)."""
    arg = np.angle(w)
    return (_Q2_LO < arg) & (arg < _Q2_HI)


@dataclass(frozen=True)
class MuSpec:
    """Post-composition map for the deformation family psi_mu = mu o psi.

    kind "scale": mu(w) = scale * w, scale > 0.
    kind "perturb": mu(w) = w + eps * w^2 for small |eps|, with
    eps = eps_re + i eps_im.
    Both kinds fix 0; a validation sample of mu(psi) values must stay
    inside the sector pi/4 < arg < 3pi/4.  This is the ``data.mu``
    section of a config, so each map has one spec: after validation a
    perturbation keeps no scale and a scale no eps, and the perturbation
    by eps 0 is the identity, scale 1.
    """

    kind: str = "scale"
    scale: float = 1.0
    eps_re: float = 0.0
    eps_im: float = 0.0

    def __post_init__(self):
        if self.kind not in ("scale", "perturb"):
            raise InvalidMuError(f"unknown mu kind {self.kind!r}")
        if self.kind == "scale" and not self.scale > 0:
            raise InvalidMuError("scale must be positive")
        if self.kind == "perturb":
            object.__setattr__(self, "scale", 1.0)
            if self.eps_re == self.eps_im == 0.0:
                object.__setattr__(self, "kind", "scale")
        if self.kind == "scale":
            object.__setattr__(self, "eps_re", 0.0)
            object.__setattr__(self, "eps_im", 0.0)

    def is_identity(self) -> bool:
        return self.kind == "scale" and self.scale == 1.0

    def as_holo(self) -> HoloFn:
        if self.kind == "scale":
            c = self.scale
            return HoloFn(jet=lambda w: (c * w, complex(c), 0j))
        e = complex(self.eps_re, self.eps_im)
        return HoloFn(jet=lambda w: (w + e * w * w, 1.0 + 2.0 * e * w, 2.0 * e))


# The points where validate_mu checks mu o psi: rings of 48 points at
# radii 0.55 and 0.85, the outer one turned by half a step, and 0.
_MU_SAMPLES = np.array([
    r * cmath.exp(1j * (2.0 * math.pi * k / 48 + turn))
    for k in range(48) for r, turn in ((0.55, 0.0), (0.85, math.pi / 48))
] + [0j])


def validate_mu(mu: MuSpec, psi: HoloFn) -> None:
    """Check the sector condition on mu(psi(z)) over _MU_SAMPLES, in
    one batch; InvalidMuError names the first sample that fails."""
    w = mu.as_holo()(psi(_MU_SAMPLES))
    bad = ~in_q2(w)
    if bad.any():
        i = bad.argmax()
        raise InvalidMuError(f"mu(psi({complex(_MU_SAMPLES[i])})) = {complex(w[i])} "
                             "left the sector pi/4 < arg < 3pi/4")


def apply_mu(mu: MuSpec, psi: HoloFn) -> HoloFn:
    """Validated composition mu o psi with chain-rule derivatives, each
    on one flat batch."""
    validate_mu(mu, psi)
    outer = mu.as_holo().jet

    def jet(z):
        w, dw, d2w = psi.jet(z)
        m, dm, d2m = outer(w)
        return m, dm * dw, d2m * dw * dw + dm * d2w

    return HoloFn(jet=_flat_batch(jet), value=_flat_batch(lambda z: outer(psi(z))[0]))
