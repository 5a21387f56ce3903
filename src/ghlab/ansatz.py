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
by construction rather than by a separate integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from .covering import IdentityChart, ModularCover
from .errors import (
    DegenerateMetricError,
    InvalidDataError,
    PathError,
    PunctureError,
)
from .holo import HoloFn, psi_fn, vertex_targeted_spec

AXES = ("rho", "u", "v", "theta")


def wedge(a, b):
    """Antisymmetric matrix of the wedge of two 1-forms (covector arrays)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.outer(a, b) - np.outer(b, a)


def sphere_jacobian(w: complex, dw_dz: complex):
    """Sphere point under the stereographic lift of w(z), with its
    partials in the disc coordinates (u, v).  Matches the
    orientation-preserving lift used by the covering charts."""
    a, b = w.real, w.imag
    s = a * a + b * b
    den = 1.0 + s
    p = np.array([2.0 * a / den, -2.0 * b / den, (s - 1.0) / den])
    d2 = den * den
    dpa = np.array([(2.0 + 2.0 * s - 4.0 * a * a) / d2, 4.0 * a * b / d2, 4.0 * a / d2])
    dpb = np.array([-4.0 * a * b / d2, -(2.0 + 2.0 * s - 4.0 * b * b) / d2, 4.0 * b / d2])
    du = dpa * dw_dz.real + dpb * dw_dz.imag
    dv = -dpa * dw_dz.imag + dpb * dw_dz.real
    return p, du, dv


def _validation_ring(n: int = 12):
    pts = [0j]
    for r in (0.55, 0.85):
        for k in range(n):
            ang = 2.0 * math.pi * k / n + 0.17
            pts.append(r * complex(math.cos(ang), math.sin(ang)))
    return pts


@dataclass(frozen=True)
class SliceFrame:
    """One slice point: coframe, scaling-field data, induced metric.

    ``omega`` rows are the three coframe 1-forms over (du, dv, dtheta);
    ``xflat`` is the pullback of the metric dual of the scaling field.
    """

    z: complex
    rho: float
    t_slice: float
    V: float
    x: np.ndarray
    omega: np.ndarray
    xflat: np.ndarray
    x_norm_sq: float
    g3: np.ndarray

    @property
    def lam0(self) -> float:
        return 1.0 / self.x_norm_sq

    @property
    def beta(self) -> np.ndarray:
        return self.xflat / self.x_norm_sq

    @property
    def g_s(self) -> np.ndarray:
        return self.omega.T @ self.omega


class PointRecord:
    """The fields of the ansatz at one disc point z, before rho enters.

    The homothety X = rho d/drho makes every field a power of rho times
    a function of z alone, and no field depends on theta.  So the psi
    jet, phi = -1/psi, the covering data and xi are computed once per z,
    and the forms are assembled from them: V = Im phi / rho, x = rho p,
    eta = (Re phi / rho) drho + xi.

    The psi jet is taken on construction.  The covering data is taken
    on first use, so a caller that needs only psi never evaluates the
    cover.  No form reads phi's derivatives, so only its value is kept.
    ``xi`` is filled in by HolomorphicData.xi_at.
    """

    def __init__(self, z: complex, psi_jet, cover):
        self.z = z
        self.psi, self.dpsi, self.d2psi = psi_jet
        self.phi = -1.0 / self.psi
        self.xi = None
        self._cover = cover

    @cached_property
    def chart(self):
        """The covering value at z: w, dw/dz and the sphere point p."""
        return self._cover.value(self.z)

    @cached_property
    def m(self) -> float:
        return self.chart.metric_factor()

    @cached_property
    def sphere(self):
        """(p, dp/du, dp/dv) on the unit sphere."""
        return sphere_jacobian(self.chart.w, self.chart.dw_dz)


@dataclass
class HolomorphicData:
    """A covering chart plus a half-plane-valued holomorphic function.

    rho0 fixes which graph over the disc is called t = 0:
      canonical  rho0 = Im psi  (the unit slice, t_slice vanishes)
      constant   rho0 = rho0_scale
      scaled     rho0 = rho0_scale * Im psi

    v_multiplier rescales the potential only; anything other than 1
    breaks the curl equation on purpose (used to exercise detectors).

    The per-point records live as long as the data; ``replace`` starts
    a new object with no records, so a changed psi never meets old ones.
    """

    cover: object
    psi: HoloFn
    rho0_kind: str = "canonical"
    rho0_scale: float = 1.0
    v_multiplier: float = 1.0
    _records: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rho0_kind not in ("canonical", "constant", "scaled"):
            raise InvalidDataError(f"unknown rho0 kind {self.rho0_kind!r}")
        if not self.rho0_scale > 0:
            raise InvalidDataError("rho0 scale must be positive")
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

    def record(self, z: complex, keep: bool = True) -> PointRecord:
        """The record at z, kept for reuse unless ``keep`` is False.

        Path quadratures pass keep=False, so that their nodes, which no
        stencil revisits, are never stored.
        """
        z = complex(z)
        key = (z.real, z.imag)
        rec = self._records.get(key)
        if rec is None:
            rec = PointRecord(z, self.psi.jet(z), self.cover)
            if keep:
                self._records[key] = rec
        return rec

    # ---- scalar fields -------------------------------------------------

    def rho0_at(self, z: complex) -> float:
        if self.rho0_kind == "constant":
            return self.rho0_scale
        im_psi = self.record(z).psi.imag
        return im_psi if self.rho0_kind == "canonical" else self.rho0_scale * im_psi

    def slice_rho(self, z: complex) -> float:
        return self.record(z).psi.imag

    def t_slice_at(self, z: complex) -> float:
        return math.log(self.slice_rho(z)) - math.log(self.rho0_at(z))

    def potential(self, rho: float, z: complex) -> float:
        if not rho > 0:
            raise ValueError(f"rho = {rho} must be positive")
        return self.v_multiplier * self.record(z).phi.imag / rho

    def curl_source(self, z: complex) -> float:
        """The du^dv density that d xi must reproduce."""
        return self.phi(z).imag * self.cover.metric_factor(z)

    # ---- the connection ------------------------------------------------

    def xi_at(self, z: complex):
        """(xi_u, xi_v) at z, from the radial homotopy based at 0.

        The result is kept in the record at z; the quadrature nodes
        evaluate curl_source directly and are not recorded.
        """
        z = complex(z)
        rec = self.record(z)
        if rec.xi is None:
            val, err = quad(
                lambda s: s * self.curl_source(s * z) if s > 0 else 0.0,
                0.0,
                1.0,
                epsabs=1e-13,
                epsrel=1e-11,
                limit=200,
            )
            if not math.isfinite(val) or err > 1e-9 * max(1.0, abs(val)):
                raise PathError(f"homotopy integral unreliable at z = {z}: err {err}")
            rec.xi = (-z.imag * val, z.real * val)
        return rec.xi

    def eta_at(self, rho: float, z: complex) -> np.ndarray:
        rec = self.record(z)
        xi_u, xi_v = rec.xi or self.xi_at(z)
        return np.array([rec.phi.real / rho, xi_u, xi_v])

    def theta_at(self, rho: float, z: complex) -> np.ndarray:
        """Theta = dtheta + eta over (drho, du, dv, dtheta)."""
        eta = self.eta_at(rho, z)
        return np.array([eta[0], eta[1], eta[2], 1.0])

    # ---- momentum geometry ---------------------------------------------

    def momentum(self, rho: float, z: complex) -> np.ndarray:
        return rho * self.record(z).chart.p

    def dx_rows(self, rho: float, z: complex) -> np.ndarray:
        """The three 1-forms dx_i as rows over (drho, du, dv, dtheta)."""
        p, dpu, dpv = self.record(z).sphere
        rows = np.zeros((3, 4))
        rows[:, 0] = p
        rows[:, 1] = rho * dpu
        rows[:, 2] = rho * dpv
        return rows

    def base_metric(self, rho: float, z: complex) -> np.ndarray:
        """Euclidean metric pulled to (rho, u, v): diag(1, r^2 m, r^2 m)."""
        m = self.record(z).m
        return np.diag([1.0, rho * rho * m, rho * rho * m])

    def symplectic(self, rho: float, z: complex):
        theta = self.theta_at(rho, z)
        dx = self.dx_rows(rho, z)
        V = self.potential(rho, z)
        forms = []
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            forms.append(wedge(theta, dx[i]) + V * wedge(dx[j], dx[k]))
        return forms

    def metric(self, rho: float, z: complex) -> np.ndarray:
        theta = self.theta_at(rho, z)
        dx = self.dx_rows(rho, z)
        V = self.potential(rho, z)
        G = np.outer(theta, theta) / V
        for i in range(3):
            G = G + V * np.outer(dx[i], dx[i])
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise DegenerateMetricError(f"metric not positive definite at z = {z}")
        return G

    # ---- slices --------------------------------------------------------

    def _slice_graph(self, z: complex, which: str):
        rec = self.record(z)
        dpsi = rec.dpsi
        if which == "canonical":
            return rec.psi.imag, (dpsi.imag, dpsi.real)
        if which == "zero":
            if self.rho0_kind == "constant":
                return self.rho0_scale, (0.0, 0.0)
            scale = 1.0 if self.rho0_kind == "canonical" else self.rho0_scale
            return self.rho0_at(z), (scale * dpsi.imag, scale * dpsi.real)
        raise ValueError(f"unknown slice {which!r}")

    def slice_frame(self, z: complex, which: str = "canonical") -> SliceFrame:
        z = complex(z)
        rho_s, grad = self._slice_graph(z, which)
        pull = np.zeros((4, 3))
        pull[0, 0], pull[0, 1] = grad
        pull[1, 0] = pull[2, 1] = pull[3, 2] = 1.0
        G4 = self.metric(rho_s, z)
        X = np.array([rho_s, 0.0, 0.0, 0.0])
        xflat4 = G4 @ X
        omega = np.array([pull.T @ (X @ om) for om in self.symplectic(rho_s, z)])
        return SliceFrame(
            z=z,
            rho=rho_s,
            t_slice=math.log(rho_s) - math.log(self.rho0_at(z)),
            V=self.potential(rho_s, z),
            x=self.momentum(rho_s, z),
            omega=omega,
            xflat=pull.T @ xflat4,
            x_norm_sq=float(X @ xflat4),
            g3=pull.T @ G4 @ pull,
        )

    def g_sigma(self, z: complex) -> np.ndarray:
        """Quotient metric on the disc: the canonical-slice metric with
        the circle direction reduced away.  Needs no xi, and keeps no
        record: path quadratures call it at nodes no stencil revisits."""
        rec = self.record(z, keep=False)
        grad = np.array([rec.dpsi.imag, rec.dpsi.real])
        try:
            m = rec.m
        except PunctureError:
            if abs(z) >= 1.0:
                raise
            # numerically inside a cusp the conformal factor has decayed
            # below double precision; the radial part still makes sense
            m = 0.0
        psi = rec.psi
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
    psi, dpsi, phi = rec.psi, rec.dpsi, rec.phi
    rho = frame.rho

    theta4 = data.theta_at(rho, z)
    pull = np.zeros((4, 3))
    pull[0, 0], pull[0, 1] = dpsi.imag, dpsi.real
    pull[1, 0] = pull[2, 1] = pull[3, 2] = 1.0
    theta_s = pull.T @ theta4
    drho_s = np.array([dpsi.imag, dpsi.real, 0.0])

    A = np.array([[-psi.real, -1.0], [rho * rho, -psi.real]])
    beta = np.zeros(3)
    gamma = np.zeros(3)
    for a in range(3):
        rhs = np.array([theta_s[a] / abs(phi) ** 2, rho * drho_s[a]])
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
