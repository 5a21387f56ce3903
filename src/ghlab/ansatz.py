"""Gibbons-Hawking structures built from holomorphic data on the disc.

Everything downstream of the covering map lives here.  The data is a
pair (cover, psi): psi maps the disc holomorphically into the upper
half-plane, phi = -1/psi, and on the half-space {rho > 0} x disc x
circle with coordinates (rho, u, v, theta) we assemble

    V     = Im(phi) / rho                    (harmonic potential)
    eta   = (Re(phi)/rho) drho + xi          (connection, d eta = -*dV)
    Theta = dtheta + eta
    x     = rho p(u, v)                      (momentum map to R^3)
    Omega_i = Theta ^ dx_i + V dx_j ^ dx_k   (i, j, k cyclic)
    g     = V^-1 Theta^2 + V sum dx_i^2

The scaling field X = rho d/drho is a homothety of degree one; the
canonical slice {rho = Im psi} is exactly its unit-length level set.
Contracting X into the Omega_i and restricting to a slice produces the
coframe omega_i with d(omega_i) = Omega_i globally, which is where all
the slice structure equations come from.

The xi part of the connection is produced by the radial homotopy
inverse of the exterior derivative, so d xi = Im(phi) m du ^ dv holds
by construction rather than by a separate integration.  The homotopy
integral is a graded composite Gauss-Legendre rule whose panels shrink
toward the circle; its integrand reads the value of psi only.  The
per-z fields, xi among them, are made for every new point of a pass in
one eager batch, HolomorphicData.fill, and kept in a PointRecord each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .covering import IdentityChart, ModularCover, _metric_factors
from .errors import (
    DegenerateMetricError,
    InvalidDataError,
    MetricDomainError,
    PathError,
    PunctureError,
)
from .holo import HoloFn, psi_fn, vertex_targeted_spec


def wedge(a, b):
    """Antisymmetric matrices of the wedges of 1-forms: float arrays of
    covectors on the last axis, leading axes broadcast against each other."""
    ab = a[..., :, None] * b[..., None, :]
    return ab - ab.swapaxes(-1, -2)


_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])  # j and k beside i


def gh_forms(V, theta, dx) -> np.ndarray:
    """Omega_i = Theta ^ dx_i + V dx_j ^ dx_k, (i, j, k) cyclic, as one
    (..., 3, 4, 4) array over the batch axes of the fields of
    HolomorphicData._fields."""
    V = np.asarray(V)[..., None, None, None]
    return (wedge(theta[..., None, :], dx)
            + V * wedge(dx.take(_NEXT, axis=-2), dx.take(_AFTER, axis=-2)))


def _least(a: np.ndarray):
    """The least entry of a, or its first NaN: positive only if all are."""
    return a.flat[a.argmin()]


def sphere_jacobian(w, dw_dz):
    """Sphere point under the stereographic lift of w(z), with its
    partials in the disc coordinates (u, v), over arrays of w and dw/dz:
    three arrays with the components on a new last axis.  Matches the
    orientation-preserving lift used by the covering charts."""
    w, dw_dz = np.asarray(w, dtype=complex), np.asarray(dw_dz, dtype=complex)
    a, b = w.real, w.imag
    s = a * a + b * b
    den = 1.0 + s
    p = np.array([2.0 * a / den, -2.0 * b / den, (s - 1.0) / den])
    d2 = den * den
    dpa = np.array([(2.0 + 2.0 * s - 4.0 * a * a) / d2, 4.0 * a * b / d2, 4.0 * a / d2])
    dpb = np.array([-4.0 * a * b / d2, -(2.0 + 2.0 * s - 4.0 * b * b) / d2, 4.0 * b / d2])
    du = dpa * dw_dz.real + dpb * dw_dz.imag
    dv = -dpa * dw_dz.imag + dpb * dw_dz.real
    return tuple(np.moveaxis(x, 0, -1) for x in (p, du, dv))


# k -> (nodes, weights): the graded rule of xi with k + 1 panels,
# read-only.  k is at most 53, where 1 - |z| reaches double precision.
_GRADED_RULES: dict = {}
_XI_CHUNK_NODES = 512  # nodes per curl_source batch of fill, whole points


def _graded_rule(k: int):
    """Nodes s on (0, 1) and a (2, n) weight array for the panels [0, 1/2],
    [1/2, 3/4], ..., [1 - 2^-k, 1]: row 0 is the 16-node Gauss-Legendre
    rule on every panel, row 1 the 32-node rule (each weight row is zero
    on the other rule's nodes).  Built once per k."""
    rule = _GRADED_RULES.get(k)
    if rule is None:
        edges = np.append(1.0 - 0.5 ** np.arange(k + 1), 1.0)
        lo, half = edges[:-1], 0.5 * np.diff(edges)
        nodes, weights = [], []
        for row, order in enumerate((16, 32)):
            x, w = leggauss(order)
            nodes.append((lo[:, None] + half[:, None] * (x + 1.0)).ravel())
            wt = np.zeros((2, half.size * order))
            wt[row] = (half[:, None] * w).ravel()
            weights.append(wt)
        rule = (np.concatenate(nodes), np.hstack(weights))
        for arr in rule:
            arr.flags.writeable = False
        _GRADED_RULES[k] = rule
    return rule


def _validation_ring():
    pts = [0j]
    for r in (0.55, 0.85):
        for k in range(12):
            ang = 2.0 * math.pi * k / 12 + 0.17
            pts.append(r * complex(math.cos(ang), math.sin(ang)))
    return pts


@dataclass(frozen=True)
class SliceFrame:
    """One slice point: coframe, scaling-field data, induced metric.

    ``omega`` rows are the three coframe 1-forms over (du, dv, dtheta);
    ``xflat`` is the pullback of the metric dual of the scaling field,
    and ``theta`` and ``drho`` the pullbacks of Theta and drho.  The
    arrays are read-only: a frame is kept and shared.
    """

    rho: float
    t_slice: float
    V: float
    x: np.ndarray
    omega: np.ndarray
    xflat: np.ndarray
    x_norm_sq: float
    g3: np.ndarray
    theta: np.ndarray
    drho: np.ndarray

    @property
    def lam0(self) -> float:
        return 1.0 / self.x_norm_sq

    @property
    def beta(self) -> np.ndarray:
        return self.xflat / self.x_norm_sq

    @property
    def g_s(self) -> np.ndarray:
        return self.omega.T @ self.omega


@dataclass
class PointRecord:
    """The fields of the ansatz at one disc point z, before rho enters.

    The homothety X = rho d/drho makes every field a power of rho times
    a function of z alone, and no field depends on theta.  So psi, psi',
    phi = -1/psi, the conformal factor m, the sphere point p and xi are
    made once per z by HolomorphicData.fill, and the forms are scaled
    from them: V = Im phi / rho, x = rho p, eta = (Re phi / rho) drho +
    xi.  ``row`` holds V, Theta and the rows of dx at rho = 1, read-only.
    ``frames`` holds the slice frames.
    """

    z: complex
    psi: complex
    dpsi: complex
    phi: complex
    m: float
    p: np.ndarray
    xi: tuple
    row: np.ndarray
    frames: dict = field(default_factory=dict)


def validate_rho0(kind: str, scale: float) -> None:
    """The rho0 rule of HolomorphicData: a known kind, a positive scale."""
    if kind not in ("canonical", "constant", "scaled"):
        raise InvalidDataError(f"unknown rho0 kind {kind!r}")
    if not scale > 0:
        raise InvalidDataError("rho0_scale must be positive")


@dataclass
class HolomorphicData:
    """A covering chart plus a half-plane-valued holomorphic function.

    rho0 fixes which graph over the disc is called t = 0:
      canonical  rho0 = Im psi  (the unit slice, t_slice vanishes)
      constant   rho0 = rho0_scale
      scaled     rho0 = rho0_scale * Im psi

    v_multiplier rescales the potential only; anything other than 1
    breaks the curl equation on purpose (used to exercise detectors).

    The forms and metrics at a stack of (rho, z) are built from one
    assembly of V, Theta and dx out of the records at z (``_fields``),
    and each slice frame is built once per (z, slice) and kept in the
    record at z.  ``fill`` makes the records; they live as long as the
    data, and ``replace`` starts a new object with none, so a changed
    psi never meets old ones.
    """

    cover: object
    psi: HoloFn
    rho0_kind: str = "canonical"
    rho0_scale: float = 1.0
    v_multiplier: float = 1.0
    _records: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the z of the records whose conformal factor m underflowed to 0
    _underflowed: set = field(default_factory=set, init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_rho0(self.rho0_kind, self.rho0_scale)
        for z in _validation_ring():
            if not self.psi(z).imag > 0:
                raise InvalidDataError(
                    f"psi({z}) = {self.psi(z)} left the upper half-plane"
                )

    @classmethod
    def flat_reference(cls) -> "HolomorphicData":
        """psi = 2i over the identity chart: V = 1/(2 rho), flat metric."""
        return cls(cover=IdentityChart(), psi=HoloFn.constant(2j))

    @cached_property
    def phi(self) -> HoloFn:
        return self.psi.negate_reciprocal()

    def record(self, z: complex) -> PointRecord:
        """The record at z: fill on z alone, kept for reuse."""
        z = complex(z)
        key = (z.real, z.imag)
        if key not in self._records:
            self.fill([z])
        return self._records[key]

    # ---- scalar fields -------------------------------------------------

    def metric_factor_in_disc(self, z: complex) -> float:
        """The conformal factor m at z, read as 0 where z is inside the
        disc but the chart raises PunctureError: numerically at a cusp,
        m decays like exp(-c/eps) and is far below double precision.
        Points outside the disc still raise."""
        try:
            return self.cover.metric_factor(z)
        except PunctureError:
            if abs(z) >= 1.0:
                raise
            return 0.0

    def curl_source(self, zs: np.ndarray) -> np.ndarray:
        """The du^dv density that d xi must reproduce, at an array of z.

        The cover goes first, so that a batch leaving the disc raises
        the cover's PunctureError.  Only psi's value is read."""
        m = self.cover.metric_factors(zs)
        return (-1.0 / self.psi(zs)).imag * m

    # ---- the records -------------------------------------------------

    def fill(self, zs) -> None:
        """Make the record of every z in zs that has none, in one batch.

        Every such z must lie in the open disc, checked before anything
        is evaluated; no record is kept unless the whole batch succeeds.
        One psi jet and one cover batch of (w, dw/dz) serve all points.
        xi(z) = (-Im z, Re z) times the integral of s curl_source(s z)
        over s in [0, 1] by the graded rule of k = ceil(log2(1/(1 -
        |z|))) >= 1, whose last panel is about as wide as the distance to
        the circle: the 32-node sum is the value, its gap to the 16-node
        sum the error.  Points of one k share curl_source batches of up
        to _XI_CHUNK_NODES nodes."""
        new = {}
        for z in map(complex, zs):
            key = (z.real, z.imag)
            if key not in self._records and key not in new:
                if not abs(z) < 1.0:
                    raise PunctureError(f"|z| = {abs(z)} is not inside the disc")
                new[key] = z
        if not new:
            return
        points = list(new.values())
        z = np.array(points)
        psi, dpsi, _ = self.psi.jet(z)
        w, dw_dz = self.cover.values(z)
        phi, m = -1.0 / psi, _metric_factors(w, dw_dz)
        p, dp_du, dp_dv = sphere_jacobian(w, dw_dz)
        xi = self._xi(points)
        rows = np.zeros((len(points), 17))
        rows[:, 0], rows[:, 1], rows[:, 4] = self.v_multiplier * phi.imag, phi.real, 1.0
        rows[:, 2:4] = xi
        rows[:, 5:].reshape(-1, 3, 4)[..., :3] = np.stack((p, dp_du, dp_dv), axis=-1)
        rows.flags.writeable = False
        for i, (key, zi) in enumerate(new.items()):
            self._records[key] = PointRecord(
                zi, complex(psi[i]), complex(dpsi[i]), complex(phi[i]), float(m[i]), p[i], xi[i],
                rows[i])
        self._underflowed.update(zi for zi, mi in zip(points, m) if not mi > 0)

    def _xi(self, zs: list) -> list:
        """(xi_u, xi_v) at each disc point of zs, by the rule of fill."""
        by_k = {}
        for i, z in enumerate(zs):
            by_k.setdefault(max(1, math.ceil(-math.log2(1.0 - abs(z)))), []).append(i)
        xi = [None] * len(zs)
        for k, idx in by_k.items():
            s, weights = _graded_rule(k)
            step = max(1, _XI_CHUNK_NODES // s.size)
            for chunk in (idx[i:i + step] for i in range(0, len(idx), step)):
                rows = self.curl_source(np.array([zs[i] for i in chunk])[:, None] * s)
                for i, row in zip(chunk, rows):
                    coarse, val = (float(x) for x in weights @ (s * row))
                    err = abs(coarse - val)
                    if not math.isfinite(val) or err > 1e-9 * max(1.0, abs(val)):
                        raise PathError(
                            f"homotopy integral unreliable at z = {zs[i]}: err {err}")
                    xi[i] = (-zs[i].imag * val, zs[i].real * val)
        return xi

    def xi_at(self, z: complex):
        """(xi_u, xi_v) at z, from the record at z."""
        return self.record(z).xi

    # ---- the Gibbons-Hawking fields ------------------------------------
    # rho and z broadcast to the batch axes that lead every field; a
    # scalar (rho, z) is a batch of one.

    def _fields(self, rho, z):
        """(V, Theta, dx) at (rho, z) from the records at z, which fill
        makes first where missing, in one batch: Theta over (drho, du,
        dv, dtheta) on the last axis and the three dx_i as rows over
        them on the last two."""
        rho = np.asarray(rho, dtype=float)
        if not _least(rho) > 0:
            raise ValueError(f"rho = {float(rho[~(rho > 0)][0])} must be positive")
        z = np.asarray(z, dtype=complex)
        if z.shape != rho.shape:
            z = np.broadcast_to(z, np.broadcast(rho, z).shape)
        zs = z.ravel().tolist()
        try:
            rows = [self._records[(w.real, w.imag)].row for w in zs]
        except KeyError:
            self.fill(zs)
            rows = [self._records[(w.real, w.imag)].row for w in zs]
        F = np.array(rows).reshape(z.shape + (17,))
        dx = F[..., 5:].reshape(z.shape + (3, 4))
        # the homothety: V and Theta_rho go as 1/rho, the du and dv columns of dx as rho
        inverse, linear, rho = F[..., :2], dx[..., 1:3], rho[..., None]
        inverse /= rho
        linear *= rho[..., None]
        return F[..., 0], F[..., 1:5], dx

    def _metric_from(self, z, V, theta, dx) -> np.ndarray:
        """g = V^-1 Theta^2 + V sum dx_i^2 from the fields at z, checked
        positive definite; each check names the first z that fails it.

        In the Gibbons-Hawking coframe (V^-1/2 Theta, V^1/2 dx_i) g is
        the identity, so it is positive definite exactly when V > 0 and
        dx has rank 3.  The singular values of dx are 1, rho sqrt(m) and
        rho sqrt(m), so the rank condition is m > 0; the two conditions
        are checked directly, since the coordinate Gram matrix can be
        too ill-conditioned for a factorisation to see them.
        """
        V = np.asarray(V)
        if not _least(V) > 0:
            i = int((~(V > 0)).argmax())
            z = np.broadcast_to(np.asarray(z, dtype=complex), V.shape).flat[i]
            raise DegenerateMetricError(
                f"metric not positive definite at z = {complex(z)}: V = {float(V.flat[i])}")
        if self._underflowed:
            bad = [w for w in np.ravel(z).tolist() if w in self._underflowed]
            if bad:
                raise MetricDomainError(
                    f"conformal factor underflowed to 0 at |z| = {abs(bad[0])}")
        V = V[..., None, None]
        return theta[..., :, None] * theta[..., None, :] / V + V * (dx.swapaxes(-1, -2) @ dx)

    def base_metric(self, rho: float, z: complex) -> np.ndarray:
        """Euclidean metric pulled to (rho, u, v): diag(1, r^2 m, r^2 m)."""
        m = self.record(z).m
        return np.diag([1.0, rho * rho * m, rho * rho * m])

    def symplectic(self, rho, z) -> np.ndarray:
        """Omega_i = Theta ^ dx_i + V dx_j ^ dx_k, (i, j, k) cyclic, as
        one (..., 3, 4, 4) array over (drho, du, dv, dtheta)."""
        return gh_forms(*self._fields(rho, z))

    def metric(self, rho, z) -> np.ndarray:
        """g over (drho, du, dv, dtheta), checked positive definite: one
        (..., 4, 4) array."""
        return self._metric_from(z, *self._fields(rho, z))

    # ---- slices --------------------------------------------------------

    def slice_frame(self, z: complex, which: str = "canonical") -> SliceFrame:
        """The frame of the slice ``which`` at z, built on first use and
        kept in the record at z.  With rho0_kind "canonical" the zero
        slice is the canonical one and shares its frame."""
        if which not in ("canonical", "zero"):
            raise ValueError(f"unknown slice {which!r}")
        z = complex(z)
        if which == "zero" and self.rho0_kind == "canonical":
            which = "canonical"
        rec = self.record(z)
        frame = rec.frames.get(which)
        if frame is not None:
            return frame
        # each slice is a graph (rho over the disc, its (du, dv) gradient);
        # the zero slice is the graph of rho0
        psi, dpsi, k = rec.psi, rec.dpsi, self.rho0_scale
        canonical = psi.imag, (dpsi.imag, dpsi.real)
        if self.rho0_kind == "canonical":
            zero = canonical
        elif self.rho0_kind == "constant":
            zero = k, (0.0, 0.0)
        else:
            zero = k * psi.imag, (k * dpsi.imag, k * dpsi.real)
        rho_s, grad = canonical if which == "canonical" else zero
        # row a is the pull-back of the a-th of (drho, du, dv, dtheta) to
        # the slice, over its (du, dv, dtheta)
        pull = np.zeros((4, 3))
        pull[0, 0], pull[0, 1] = grad
        pull[1, 0] = pull[2, 1] = pull[3, 2] = 1.0
        V, theta, dx = self._fields(rho_s, z)
        G4 = self._metric_from(z, V, theta, dx)
        X = np.array([rho_s, 0.0, 0.0, 0.0])
        xflat4 = G4 @ X
        frame = rec.frames[which] = SliceFrame(
            rho=rho_s,
            t_slice=math.log(rho_s) - math.log(zero[0]),
            V=float(V),
            x=rho_s * rec.p,
            omega=X @ gh_forms(V, theta, dx) @ pull,
            xflat=pull.T @ xflat4,
            x_norm_sq=float(X @ xflat4),
            g3=pull.T @ G4 @ pull,
            theta=pull.T @ theta,
            drho=pull[0],
        )
        for arr in (frame.x, frame.omega, frame.xflat, frame.g3, frame.theta, frame.drho):
            arr.flags.writeable = False
        return frame

    def g_sigma(self, z: complex) -> np.ndarray:
        """Quotient metric on the disc: the canonical-slice metric with
        the circle direction reduced away.  Needs no xi, and keeps no
        record: path quadratures call it at nodes no stencil revisits."""
        z = complex(z)
        psi, dpsi, _ = self.psi.jet(z)
        grad = np.array([dpsi.imag, dpsi.real])
        # where m reads 0 the radial part still makes sense
        m = self.metric_factor_in_disc(z)
        return (np.outer(grad, grad) + psi.imag**2 * m * np.eye(2)) / abs(psi) ** 2


def beta_cross_check(data: HolomorphicData, z: complex):
    """Recover (beta, gamma) from the connection and radius forms alone.

    On the canonical slice the pair (beta, gamma = sum x_i omega_i)
    satisfies, component by component over (du, dv, dtheta),

        [[-Re psi, -1   ],   [beta_a ]     [ |phi|^-2 Theta_a ]
         [ rho^2,  -Re psi]] [gamma_a]  =  [ rho (drho)_a     ]

    with determinant |psi|^2.  Returns both the solved pair and the
    directly assembled one so callers can compare the two routes.
    """
    z = complex(z)
    frame = data.slice_frame(z, "canonical")
    rec = data.record(z)
    psi, phi = rec.psi, rec.phi
    rho = frame.rho

    A = np.array([[-psi.real, -1.0], [rho * rho, -psi.real]])
    beta = np.zeros(3)
    gamma = np.zeros(3)
    for a in range(3):
        rhs = np.array([frame.theta[a] / abs(phi) ** 2, rho * frame.drho[a]])
        beta[a], gamma[a] = np.linalg.solve(A, rhs)
    gamma_direct = frame.x @ frame.omega
    return {
        "beta_solved": beta,
        "gamma_solved": gamma,
        "beta_direct": frame.beta,
        "gamma_direct": gamma_direct,
    }


def standard_data(vertices=(1, 1j, -1, -1j), depths=(1, 2), **kwargs) -> HolomorphicData:
    """Modular cover with the vertex-targeted Blaschke psi."""
    return HolomorphicData(
        cover=ModularCover(), psi=psi_fn(vertex_targeted_spec(vertices, depths)), **kwargs
    )
