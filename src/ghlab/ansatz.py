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

The xi part of the connection needs only d xi = Im(phi) m du ^ dv,
with m the cover's conformal factor.  m is the Laplacian of K = log(1 +
|w|^2), the pulled-back Kahler potential of the round sphere, and f =
Im phi is harmonic, so Green's identity d(f *dK - K *df) = (f Delta K -
K Delta f) du ^ dv gives xi = f *dK - K *df in closed form, point by
point, from w, w', psi and psi'.  It differs from the radial homotopy
inverse of d by an exact form dF, that is by the gauge change theta ->
theta + F, an isometry of the total space.  The per-z fields, xi among
them, are made for every new point of a pass in one eager batch,
HolomorphicData.fill, and kept as one row of the data's columnar store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .covering import IdentityChart, ModularCover, _metric_factors, _modulus, _stereo_lift
from .errors import DegenerateMetricError, InvalidDataError, MetricDomainError
from .holo import HoloFn, MuSpec, apply_mu, psi_fn, vertex_targeted_spec


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
    p, s, den = _stereo_lift(w)
    with np.errstate(over="ignore"):
        d2 = den * den
    # den^2 overflows for |w| beyond about 1e77, den does not: there the
    # partials are divided by den twice
    big = ~np.isfinite(d2)
    first, d2 = np.where(big, den, 1.0), np.where(big, den, d2)
    dpa = np.array([2.0 + 2.0 * s - 4.0 * a * a, 4.0 * a * b, 4.0 * a]) / first / d2
    dpb = np.array([-4.0 * a * b, -(2.0 + 2.0 * s - 4.0 * b * b), 4.0 * b]) / first / d2
    du = dpa * dw_dz.real + dpb * dw_dz.imag
    dv = -dpa * dw_dz.imag + dpb * dw_dz.real
    return p, np.moveaxis(du, 0, -1), np.moveaxis(dv, 0, -1)


# The points where HolomorphicData checks that psi lands in the upper
# half-plane: 0 and rings of 12 points at radii 0.55 and 0.85.
_VALIDATION_RING = np.array([0j] + [
    r * complex(math.cos(ang), math.sin(ang))
    for r in (0.55, 0.85) for ang in (2.0 * math.pi * k / 12 + 0.17 for k in range(12))
])


class _View:
    """A read-only view of a store table at some rows: each field of its dtype
    reads as a copy from its column, in the shape of the rows (a scalar for one)."""

    __slots__ = ("_table", "_rows")

    def __init__(self, table: np.ndarray, rows: np.ndarray):
        self._table, self._rows = table, rows

    def __getattr__(self, name):
        # only fields: a private name (a copy or pickle probe) is never one
        if name.startswith("_") or name not in self._table.dtype.names:
            raise AttributeError(f"{type(self).__name__!r} has no field {name!r}")
        a = self._table[name][self._rows]
        return a.item() if a.ndim == 0 else a


class SliceFrame(_View):
    """A stack of slice points, the fields of _FRAME: coframe, scaling-field
    data, induced metric, in the shape of the points (floats for one point).

    ``omega`` rows are the three coframe 1-forms over (du, dv, dtheta);
    ``xflat`` is the pullback of the metric dual of the scaling field,
    and ``theta`` and ``drho`` the pullbacks of Theta and drho.
    """

    __slots__ = ()

    @property
    def lam0(self) -> float:
        return 1.0 / self.x_norm_sq

    @property
    def beta(self) -> np.ndarray:
        return self.xflat / np.asarray(self.x_norm_sq)[..., None]

    @property
    def g_s(self) -> np.ndarray:
        omega = self.omega
        return omega.swapaxes(-1, -2) @ omega


class PointRecord(_View):
    """The fields of the ansatz, those of _RECORD, at a stack of disc points
    z, before rho enters, in the shape of the points (Python scalars for one).

    The homothety X = rho d/drho makes every field a power of rho times
    a function of z alone, and no field depends on theta.  So psi, psi',
    phi = -1/psi, the conformal factor m, the sphere point p and xi are
    made once per z by HolomorphicData.fill, and the forms are scaled
    from them: V = Im phi / rho, x = rho p, eta = (Re phi / rho) drho +
    xi.  ``row`` holds V, Theta and the rows of dx at rho = 1.
    """

    __slots__ = ()


_FRAME = np.dtype([("rho", float), ("t_slice", float), ("V", float), ("x", float, 3),
                   ("omega", float, (3, 3)), ("xflat", float, 3), ("x_norm_sq", float),
                   ("g3", float, (3, 3)), ("theta", float, 3), ("drho", float, 3),
                   ("built", bool)])
_RECORD = np.dtype([("z", complex), ("psi", complex), ("dpsi", complex), ("phi", complex),
                    ("m", float), ("p", float, 3), ("row", float, 17)])
# One row of the store of HolomorphicData per disc point: the record that
# fill appends, and the frame on each slice that _build_frames writes.
_STORE = np.dtype([("record", _RECORD), ("canonical", _FRAME), ("zero", _FRAME)])


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

    The per-z fields are kept in one store of columns, one row per z
    that fill has met, which holds its record and its frame on each
    slice once built.  ``_keys`` holds those z sorted and ``_key_rows``
    the row of each, so that a stack of z finds its rows by one binary
    search (``_rows``).  The forms and metrics at a stack of (rho, z)
    come from one assembly of V, Theta and dx gathered at z
    (``_fields``); each slice frame is built once per (z, slice).
    The store lives as long as the data, and ``replace`` starts a new
    object with none, so a changed psi never meets old rows.
    """

    cover: object
    psi: HoloFn
    rho0_kind: str = "canonical"
    rho0_scale: float = 1.0
    v_multiplier: float = 1.0
    _keys: np.ndarray = field(default_factory=lambda: np.zeros(0, complex), init=False,
                              repr=False, compare=False)
    _key_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, np.intp), init=False,
                                  repr=False, compare=False)
    _store: np.ndarray = field(default_factory=lambda: np.zeros(0, _STORE), init=False,
                               repr=False, compare=False)

    def __post_init__(self):
        validate_rho0(self.rho0_kind, self.rho0_scale)
        w = self.psi(_VALIDATION_RING)
        bad = ~(w.imag > 0)
        if bad.any():
            i = bad.argmax()
            raise InvalidDataError(f"psi({complex(_VALIDATION_RING[i])}) = {complex(w[i])} "
                                   "left the upper half-plane")

    @classmethod
    def flat_reference(cls) -> "HolomorphicData":
        """psi = 2i over the identity chart: V = 1/(2 rho), flat metric."""
        return cls(cover=IdentityChart(), psi=HoloFn.constant(2j))

    def phi(self, zs):
        """phi = -1/psi at zs, an array or one point, by value."""
        return -1.0 / self.psi(zs)

    def record(self, zs) -> PointRecord:
        """The records at the z of zs, in its shape, filled where missing."""
        rows = self._rows(zs)  # may fill: read the store after it
        return PointRecord(self._store["record"], rows)

    # ---- the records -------------------------------------------------

    def _find(self, z: np.ndarray):
        """The place of each z of the flat array z in _keys, and whether
        it is there: -0.0 equals 0.0, and a NaN is never found."""
        at = np.searchsorted(self._keys, z)
        if not self._keys.size:
            return at, np.zeros(z.shape, dtype=bool)
        return at, self._keys.take(at, mode="clip") == z

    def _rows(self, zs) -> np.ndarray:
        """The store rows of the z of zs, in its shape, filled where missing."""
        z = np.asarray(zs, dtype=complex)
        at, found = self._find(z.ravel())
        if not found.all():
            self.fill(z.ravel()[~found])
            at, _ = self._find(z.ravel())
        return self._key_rows[at].reshape(z.shape)

    def fill(self, zs) -> None:
        """Append the record of every z in zs that has none, in one batch,
        in the order the z first occur in zs.

        The cover goes first, so that a z outside the open disc raises
        the cover's PunctureError before psi is evaluated; no row is kept
        unless the whole batch succeeds.  One cover batch of (w, dw/dz)
        and one first-order psi jet (psi, psi') serve all points, and each
        field is elementwise, so one point is bit for bit a batch of one.
        xi = f *dK - K *df with f = Im phi and K = log(1 + |w|^2), by
        Green's identity (module docstring): with a = dK/dz = w' (conj(w)
        / (1 + |w|^2)) and phi' = psi'/psi^2, xi_u = 2 f Im a + K Re phi'
        and xi_v = 2 f Re a - K Im phi'.  a is formed in that order, so
        that no product overflows while |w|^2 stays finite, which the
        cover's flipped chart guarantees."""
        z = np.ravel(np.asarray(zs, dtype=complex))
        if len(z) > 1:  # the first of each run of equal z, kept in batch order
            order = np.argsort(z, kind="stable")
            ordered, first = z[order], np.zeros(len(z), dtype=bool)
            first[order[np.concatenate(([True], ordered[1:] != ordered[:-1]))]] = True
            z = z[first]
        z = z[~self._find(z)[1]]
        if not z.size:
            return
        w, dw_dz = self.cover.values(z)
        psi, dpsi = self.psi.jet(z, 1)
        phi, m = -1.0 / psi, _metric_factors(w, dw_dz)
        p, dp_du, dp_dv = sphere_jacobian(w, dw_dz)
        s = w.real * w.real + w.imag * w.imag  # xi by Green's identity
        a, K, f, dphi = dw_dz * (w.conj() / (1.0 + s)), np.log1p(s), phi.imag, dpsi / (psi * psi)
        store = np.zeros(len(z), _STORE)  # no frame built yet
        rec = store["record"]  # views: the writes below fill store
        rec["z"], rec["psi"], rec["dpsi"], rec["phi"], rec["m"], rec["p"] = z, psi, dpsi, phi, m, p
        row = rec["row"]
        row[:, 0], row[:, 1], row[:, 4] = self.v_multiplier * phi.imag, phi.real, 1
        row[:, 2], row[:, 3] = 2.0 * f * a.imag + K * dphi.real, 2.0 * f * a.real - K * dphi.imag
        row[:, 5:].reshape(-1, 3, 4)[..., :3] = np.stack((p, dp_du, dp_dv), axis=-1)
        keys = np.concatenate((self._keys, z))
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._key_rows = np.concatenate(
            (self._key_rows, np.arange(len(self._store), len(keys), dtype=np.intp)))[order]
        raw = (np.void, _STORE.itemsize)  # numpy copies structured rows field by field
        self._store = np.concatenate((self._store.view(raw), store.view(raw))).view(_STORE)

    def xi_at(self, z: complex):
        """(xi_u, xi_v) at z, from the record at z."""
        return tuple(self.record(z).row[2:4].tolist())

    # ---- the Gibbons-Hawking fields ------------------------------------
    # rho and z broadcast to the batch axes that lead every field; a
    # scalar (rho, z) is a batch of one.  The homothety X = rho d/drho
    # fixes how each field goes with rho, by the weights w = WEIGHTS of
    # (rho, u, v, theta): V as rho^-1, Theta_a as rho^(w_a - 1/2), the
    # entry a of each dx_i as rho^(w_a + 1/2), and so g_ab and each
    # Omega_i ab as rho^(w_a + w_b).
    WEIGHTS = np.array([-0.5, 0.5, 0.5, 0.5])

    def _fields(self, rho, z):
        """(V, Theta, dx) at (rho, z) from the rows of z, which fill
        makes first where missing, in one batch: Theta over (drho, du,
        dv, dtheta) on the last axis and the three dx_i as rows over
        them on the last two."""
        rho = np.asarray(rho, dtype=float)
        if not _least(rho) > 0:
            raise ValueError(f"rho = {float(rho[~(rho > 0)][0])} must be positive")
        z = np.asarray(z, dtype=complex)
        if z.shape != rho.shape:
            z = np.broadcast_to(z, np.broadcast(rho, z).shape)
        rows = self._rows(z)  # may fill: read the store after it
        F = self._store["record"]["row"][rows]  # a copy: rows is an index array
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
        m = self._store["record"]["m"]
        if not _least(m) > 0:  # some conformal factor underflowed to 0: is one at z?
            bad = ~(m[self._rows(z)] > 0)
            if bad.any():
                w = complex(np.ravel(z)[bad.argmax()])
                raise MetricDomainError(f"conformal factor underflowed to 0 at |z| = {abs(w)}")
        V = V[..., None, None]
        # a V near the top of the double range overflows G, which
        # quaternion_check then reports as a CoframeDomainError
        with np.errstate(over="ignore", invalid="ignore"):
            return theta[..., :, None] * theta[..., None, :] / V + V * (dx.swapaxes(-1, -2) @ dx)

    def symplectic(self, rho, z) -> np.ndarray:
        """Omega_i = Theta ^ dx_i + V dx_j ^ dx_k, (i, j, k) cyclic, as
        one (..., 3, 4, 4) array over (drho, du, dv, dtheta)."""
        return gh_forms(*self._fields(rho, z))

    def metric(self, rho, z) -> np.ndarray:
        """g over (drho, du, dv, dtheta), checked positive definite: one
        (..., 4, 4) array."""
        return self._metric_from(z, *self._fields(rho, z))

    # ---- slices --------------------------------------------------------

    def slice_frames(self, zs, which: str = "canonical") -> SliceFrame:
        """The frames of the slice ``which`` at the z of zs, in its shape.

        After one fill, every frame not yet built is built in one stacked
        assembly and kept in the store, at the row of its z.  With
        rho0_kind "canonical" the zero slice is the canonical one and
        shares its frames."""
        if which not in ("canonical", "zero"):
            raise ValueError(f"unknown slice {which!r}")
        if which == "zero" and self.rho0_kind == "canonical":
            which = "canonical"
        rows = self._rows(zs)
        wanted = np.bincount(rows.ravel(), minlength=len(self._store)) > 0  # each row once
        new = np.flatnonzero(wanted & ~self._store[which]["built"])
        if new.size:
            self._build_frames(new, which)
        return SliceFrame(self._store[which], rows)

    def slice_frame(self, z: complex, which: str = "canonical") -> SliceFrame:
        """The frame of the slice ``which`` at z: slice_frames on z alone."""
        return self.slice_frames(z, which)

    def _build_frames(self, rows: np.ndarray, which: str) -> None:
        """Build the frames of the slice ``which`` at the store rows, as
        one stack, and write them to those rows: one field assembly, one
        metric, one set of forms, and each per-frame product as one
        matmul over the stack."""
        n = len(rows)
        z, psi, dpsi, p = (self._store["record"][k][rows] for k in ("z", "psi", "dpsi", "p"))
        # each slice is a graph (rho over the disc, its (du, dv) gradient);
        # the zero slice is the graph of rho0
        k = self.rho0_scale
        canonical = psi.imag, np.stack((dpsi.imag, dpsi.real), axis=-1)
        if self.rho0_kind == "canonical":
            zero = canonical
        elif self.rho0_kind == "constant":
            zero = np.full(n, k), np.zeros((n, 2))
        else:
            zero = k * psi.imag, k * canonical[1]
        rho, grad = canonical if which == "canonical" else zero
        # row a of pull is the pull-back of the a-th of (drho, du, dv,
        # dtheta) to the slice, over its (du, dv, dtheta)
        pull = np.zeros((n, 4, 3))
        pull[:, 0, :2] = grad
        pull[:, 1, 0] = pull[:, 2, 1] = pull[:, 3, 2] = 1.0
        pull_t = pull.swapaxes(1, 2)
        V, theta, dx = self._fields(rho, z)
        G4 = self._metric_from(z, V, theta, dx)
        # contractions with the scaling field X = rho d/drho
        xflat4 = rho[:, None, None] * G4[..., :1]
        f = np.zeros(n, _FRAME)
        f["rho"], f["V"], f["x"] = rho, V, rho[:, None] * p
        f["t_slice"] = np.log(rho) - np.log(zero[0])
        # iota_X Omega_i reads row drho of each Omega_i alone: that row of
        # gh_forms, Theta_0 dx_i - Theta dx_i0 + V (dx_j0 dx_k - dx_j dx_k0),
        # with its products in its order
        dx0, dxj, dxk = dx[..., :1], dx.take(_NEXT, axis=1), dx.take(_AFTER, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):  # as in _metric_from
            drho_rows = (theta[:, None, :1] * dx - theta[:, None, :] * dx0
                         + V[:, None, None] * (dxj[..., :1] * dxk - dxj * dxk[..., :1]))
            f["omega"] = rho[:, None, None] * drho_rows @ pull
            f["xflat"], f["x_norm_sq"] = (pull_t @ xflat4)[..., 0], rho * xflat4[:, 0, 0]
            f["g3"], f["theta"] = pull_t @ G4 @ pull, (pull_t @ theta[..., None])[..., 0]
        f["drho"], f["built"] = pull[:, 0], True
        self._store[which][rows] = f

    def g_sigma(self, z, m) -> np.ndarray:
        """Quotient metric on the disc: the canonical-slice metric with
        the circle direction reduced away, over an array of z as one
        (..., 2, 2) array, m the cover's conformal factor at z
        (metric_factors_in_disc).  Needs no xi and no psi'', and keeps
        no record: path quadratures call it at nodes no stencil revisits."""
        z = np.asarray(z, dtype=complex)
        psi, dpsi = self.psi.jet(z, 1)
        grad = np.stack((dpsi.imag, dpsi.real), axis=-1)
        # where m reads 0 the radial part still makes sense
        G = grad[..., :, None] * grad[..., None, :] + (psi.imag**2 * m)[..., None, None] * np.eye(2)
        return G / (np.abs(psi) ** 2)[..., None, None]


def beta_cross_check(data: HolomorphicData, z):
    """Recover (beta, gamma) from the connection and radius forms alone.

    On the canonical slice the pair (beta, gamma = sum x_i omega_i)
    satisfies, component by component over (du, dv, dtheta),

        [[-Re psi, -1   ],   [beta_a ]     [ |phi|^-2 Theta_a ]
         [ rho^2,  -Re psi]] [gamma_a]  =  [ rho (drho)_a     ]

    with determinant |psi|^2.  Returns both the solved pair and the
    directly assembled one so callers can compare the two routes: each
    an array of the shape of z with the three components last.
    """
    z = np.asarray(z, dtype=complex)
    f, rec = data.slice_frames(z.ravel(), "canonical"), data.record(z.ravel())
    rho, phi = f.rho, rec.phi
    A = np.empty((len(rho), 1, 2, 2))
    A[:, 0, 0, 0] = A[:, 0, 1, 1] = -rec.psi.real
    A[:, 0, 0, 1], A[:, 0, 1, 0] = -1.0, rho * rho
    rhs = np.stack((f.theta / _modulus(phi)[:, None] ** 2, rho[:, None] * f.drho), -1)
    solved = np.linalg.solve(A, rhs[..., None])[..., 0]
    out = {
        "beta_solved": solved[..., 0],
        "gamma_solved": solved[..., 1],
        "beta_direct": f.beta,
        "gamma_direct": (f.x[:, None] @ f.omega)[:, 0],
    }
    return {name: arr.reshape(z.shape + (3,)) for name, arr in out.items()}


def standard_data(vertices=(1, 1j, -1, -1j), depths=(1, 2), **kwargs) -> HolomorphicData:
    """Modular cover with the vertex-targeted Blaschke psi."""
    return HolomorphicData(
        cover=ModularCover(), psi=psi_fn(vertex_targeted_spec(vertices, depths)), **kwargs
    )


def mu_variant(data: HolomorphicData, mu: MuSpec) -> HolomorphicData:
    """Same covering chart, psi post-composed with mu (validated)."""
    return replace(data, psi=apply_mu(mu, data.psi))
