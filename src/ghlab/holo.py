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

from .errors import BranchDomainError, InvalidMuError, InvalidZeroError, PoleError

_DENOM_FLOOR = 1e-300
_Q2_LO = math.pi / 4
_Q2_HI = 3 * math.pi / 4


@dataclass(frozen=True)
class HoloFn:
    """A holomorphic function given by its second-order jet.

    ``jet(z)`` returns (f, f', f'') with exact complex derivatives, so
    one evaluation of the underlying product serves the value and both
    derivatives; the three views below each take one jet.
    """

    jet: Callable[[complex], tuple]

    def __call__(self, z: complex) -> complex:
        return self.jet(z)[0]

    def deriv(self, z: complex) -> complex:
        return self.jet(z)[1]

    def second(self, z: complex) -> complex:
        return self.jet(z)[2]

    @classmethod
    def constant(cls, c: complex) -> "HoloFn":
        return cls(jet=lambda z, c=c: (c, 0j, 0j))

    def negate_reciprocal(self) -> "HoloFn":
        """Return -1/f with derivatives by the quotient rule.

        This is how phi is produced from psi (and vice versa: the map is
        an involution).
        """
        jet = self.jet

        def nr(z: complex):
            w, d, d2 = jet(z)
            return -1.0 / w, d / (w * w), d2 / (w * w) - 2.0 * d * d / (w * w * w)

        return HoloFn(jet=nr)


@dataclass(frozen=True)
class BlaschkeSpec:
    """A finite Blaschke product, optionally a declared truncation.

    ``zeros`` is a tuple of (a, multiplicity) pairs with 0 < |a| < 1.
    ``tail_residual`` is the sum of (1 - |a|) over zeros omitted from a
    truncated infinite product; it feeds the evaluation tail bound
    2/(1-|z|) * tail_residual and is 0 for genuinely finite products.
    """

    m: int = 0
    zeros: tuple[tuple[complex, int], ...] = ()
    tail_residual: float = 0.0

    def __post_init__(self):
        if self.m < 0:
            raise InvalidZeroError("leading power m must be nonnegative")
        if self.tail_residual < 0:
            raise InvalidZeroError("tail residual must be nonnegative")
        for a, mult in self.zeros:
            a = complex(a)
            if mult < 1:
                raise InvalidZeroError(f"multiplicity {mult} for zero {a}")
            if not 0.0 < abs(a) < 1.0:
                raise InvalidZeroError(f"zero {a} not in the punctured open disc")

    @cached_property
    def factor_terms(self) -> tuple:
        """(a, conj(a), conj(a)/|a|, |a|^2 - 1) for each zero, once per
        multiplicity: the constants of each factor's jet."""
        terms = []
        for a, mult in self.zeros:
            a = complex(a)
            ac = a.conjugate()
            terms += [(a, ac, ac / abs(a), abs(a) ** 2 - 1.0)] * mult
        return tuple(terms)

    def degree(self) -> int:
        return self.m + sum(mult for _, mult in self.zeros)


def vertex_targeted_spec(vertices, depths=(1, 2), tail_residual=0.0) -> BlaschkeSpec:
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
    return BlaschkeSpec(m=0, zeros=tuple(zeros), tail_residual=tail_residual)


def blaschke_factor(a: complex, z: complex) -> complex:
    """One normalized Blaschke factor (conj(a)/|a|) (a-z)/(1 - conj(a) z)."""
    a = complex(a)
    if not 0.0 < abs(a) < 1.0:
        raise InvalidZeroError(f"zero {a} not in the punctured open disc")
    den = 1.0 - a.conjugate() * z
    if abs(den) < _DENOM_FLOOR:
        raise PoleError(f"Blaschke factor pole at z={z} for zero a={a}")
    return (a.conjugate() / abs(a)) * (a - z) / den


def _power_with_derivs(m: int, z: complex):
    if m == 0:
        return 1.0 + 0j, 0j, 0j
    if m == 1:
        return z, 1.0 + 0j, 0j
    return z**m, m * z ** (m - 1), m * (m - 1) * z ** (m - 2)


def blaschke_derivs(spec: BlaschkeSpec, z: complex):
    """(B, B', B'') by product-rule accumulation over the factors.

    Factor c (a - z)/den with c = conj(a)/|a| and den = 1 - conj(a) z
    has derivative c (|a|^2 - 1)/den^2 and second derivative that times
    2 conj(a)/den.
    """
    p, d1, d2 = _power_with_derivs(spec.m, z)
    for a, ac, c, k in spec.factor_terms:
        den = 1.0 - ac * z
        if abs(den) < _DENOM_FLOOR:
            raise PoleError(f"Blaschke factor pole at z={z} for zero a={a}")
        f = c * (a - z) / den
        core = k / (den * den)
        f1 = c * core
        f2 = c * core * 2.0 * ac / den
        d2 = d2 * f + 2.0 * d1 * f1 + p * f2
        d1 = d1 * f + p * f1
        p = p * f
    return p, d1, d2


def blaschke_eval(spec: BlaschkeSpec, z: complex):
    """Evaluate the product; return (value, tail_bound).

    The tail bound is the documented error model for declared
    truncations: |B_full - B_truncated| <= 2/(1-|z|) * sum of (1-|a|)
    over the omitted zeros.  It is 0 for finite products and meaningless
    on |z| = 1 (returned as inf there).
    """
    value, _, _ = blaschke_derivs(spec, z)
    if spec.tail_residual == 0.0:
        return value, 0.0
    gap = 1.0 - abs(z)
    bound = math.inf if gap <= 0.0 else 2.0 * spec.tail_residual / gap
    return value, bound


def sqrt_right_halfplane(w: complex) -> complex:
    """Square root branch on Re w > 0 with values in |arg| < pi/4.

    The principal square root already does this; the point of the
    wrapper is the hard domain check.  Inputs on the imaginary axis are
    rejected, not perturbed.
    """
    w = complex(w)
    if not w.real > 0.0:
        raise BranchDomainError(f"Re w = {w.real} is not positive")
    return cmath.sqrt(w)


def psi_from_blaschke(spec: BlaschkeSpec, z: complex) -> complex:
    """psi(z) = i * sqrt(1 - B(z)), valued in the sector pi/4..3pi/4."""
    b, _ = blaschke_eval(spec, z)
    return 1j * sqrt_right_halfplane(1.0 - b)


def psi_fn(spec: BlaschkeSpec) -> HoloFn:
    """The full psi = i*sqrt(1-B) as a HoloFn, one product per jet.

    With s = sqrt(1-B):  psi' = -i B' / (2 s)  and
    psi'' = -i [ B''/(2 s) + B'^2/(4 s^3) ].
    """

    def jet(z: complex):
        b, db, ddb = blaschke_derivs(spec, z)
        s = sqrt_right_halfplane(1.0 - b)
        return (
            1j * s,
            -1j * db / (2.0 * s),
            -1j * (ddb / (2.0 * s) + db * db / (4.0 * s**3)),
        )

    return HoloFn(jet=jet)


def in_q2(w: complex) -> bool:
    """True when w lies strictly inside the sector pi/4 < arg w < 3pi/4."""
    if w == 0:
        return False
    return _Q2_LO < cmath.phase(w) < _Q2_HI


@dataclass(frozen=True)
class MuSpec:
    """Post-composition map for the deformation family psi_mu = mu o psi.

    kind "scale": mu(w) = scale * w, scale > 0.
    kind "perturb": mu(w) = w + eps * w^2 for small |eps|.
    Both kinds fix 0; a validation sample of mu(psi) values must stay
    inside the sector pi/4 < arg < 3pi/4.
    """

    kind: str = "scale"
    scale: float = 1.0
    eps: complex = 0.0

    def __post_init__(self):
        if self.kind not in ("scale", "perturb"):
            raise InvalidMuError(f"unknown mu kind {self.kind!r}")
        if self.kind == "scale" and not self.scale > 0:
            raise InvalidMuError("scale must be positive")

    def as_holo(self) -> HoloFn:
        if self.kind == "scale":
            c = self.scale
            return HoloFn(jet=lambda w: (c * w, complex(c), 0j))
        e = complex(self.eps)
        return HoloFn(jet=lambda w: (w + e * w * w, 1.0 + 2.0 * e * w, 2.0 * e))


def validate_mu(mu: MuSpec, psi: HoloFn, samples) -> None:
    """Check the sector condition on mu(psi(z)) over samples."""
    m = mu.as_holo()
    for z in samples:
        w = m(psi(complex(z)))
        if not in_q2(w):
            raise InvalidMuError(
                f"mu(psi({z})) = {w} left the sector pi/4 < arg < 3pi/4"
            )


def default_mu_samples(n: int = 48):
    """Deterministic interior sample ring used for mu validation."""
    pts = []
    for k in range(n):
        ang = 2.0 * math.pi * k / n
        pts.append(0.55 * cmath.exp(1j * ang))
        pts.append(0.85 * cmath.exp(1j * (ang + math.pi / n)))
    pts.append(0j)
    return pts


def apply_mu(mu: MuSpec, psi: HoloFn, samples=None) -> HoloFn:
    """Validated composition mu o psi with chain-rule derivatives."""
    if samples is None:
        samples = default_mu_samples()
    validate_mu(mu, psi, samples)
    inner = psi.jet
    outer = mu.as_holo().jet

    def jet(z: complex):
        w, dw, d2w = inner(z)
        m, dm, d2m = outer(w)
        return m, dm * dw, d2m * dw * dw + dm * d2w

    return HoloFn(jet=jet)
