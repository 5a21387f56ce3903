"""Finite-difference verification of the assembled structures.

Everything the construction promises analytically is checked here by
numerical differentiation against the assembled fields: closure of the
2-forms, the curl equation for the connection, the quaternion algebra
of the induced endomorphisms, flatness or Ricci-flatness of the metric,
the slice structure equations, and the zero locus of the contact form.

Differencing is plain central unless a Richardson level is requested;
the curvature routines deliberately never use Richardson so that
halving h shrinks their truncation error by the textbook factor of
four, which is itself one of the checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ansatz import HolomorphicData, wedge
from .errors import DegenerateFrameError, InvalidDataError, StencilError


@dataclass(frozen=True)
class FDConfig:
    h: float = 1e-4
    richardson: int = 1

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("step must be positive")
        if self.richardson not in (0, 1):
            raise ValueError("only zero or one Richardson levels supported")


_DEFAULT_FD = FDConfig()


def _partial(field, x, axis, config: FDConfig):
    def central(h):
        xp = np.array(x, dtype=float)
        xm = np.array(x, dtype=float)
        xp[axis] += h
        xm[axis] -= h
        return (np.asarray(field(xp), dtype=float) - np.asarray(field(xm), dtype=float)) / (
            2.0 * h
        )

    coarse = central(config.h)
    if config.richardson == 0:
        return coarse
    fine = central(config.h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def _partials(field, x, config: FDConfig, n: Optional[int] = None) -> np.ndarray:
    """Partials of field along each coordinate of x, stacked on a new
    leading axis and padded with zeros up to n coordinates: the field
    does not depend on the coordinates past x (theta, for the ansatz)."""
    x = np.asarray(x, dtype=float)
    parts = [_partial(field, x, a, config) for a in range(x.size)]
    if n is not None:
        parts += [np.zeros_like(parts[0])] * (n - x.size)
    return np.array(parts)


def _exterior(P: np.ndarray, k: int) -> np.ndarray:
    """d of a k-form from its stacked partials P[a] = d_a(form).

    Axes of the form before its last k index a family of forms, so one
    stencil pass serves several."""
    if k == 0:
        return P
    A = np.moveaxis(P, 0, -k - 1)  # A[..., a, b(, c)] = P[a, ..., b(, c)]
    if k == 1:
        return A - np.swapaxes(A, -1, -2)
    if k == 2:
        return A - np.swapaxes(A, -3, -2) + np.moveaxis(A, -3, -1)
    raise ValueError(f"unsupported form degree {k}")


def fd_exterior_derivative(field, x, config: FDConfig = _DEFAULT_FD):
    """Exterior derivative of a k-form field (k = 0, 1, 2) by differencing.

    ``field`` maps a coordinate vector to a scalar, a component vector,
    or an antisymmetric component matrix.  The result carries one more
    index and is antisymmetric."""
    P = _partials(field, x, config)
    return _exterior(P, P.ndim - 1)


def cauchy_riemann_residual(f: Callable[[complex], complex], z: complex,
                            h: float = 1e-6) -> float:
    """|dbar f| at z by central differences in each real direction."""
    du = (f(z + h) - f(z - h)) / (2.0 * h)
    dv = (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)
    return 0.5 * abs(du + 1j * dv)


# ---- Gibbons-Hawking equation checks -----------------------------------


def closure_residual(data: HolomorphicData, rho: float, z: complex,
                     config: FDConfig = _DEFAULT_FD) -> float:
    """Worst component of d(Omega_i) over (rho, u, v, theta).

    All three forms are differenced in one pass per stencil point; they
    do not depend on theta, so its column of partials is zero."""

    def forms(x):
        return np.array(data.symplectic(x[0], complex(x[1], x[2])))

    d = _exterior(_partials(forms, [rho, z.real, z.imag], config, n=4), 2)
    return float(np.abs(d).max())


def curl_residual(data: HolomorphicData, rho: float, z: complex,
                  config: FDConfig = _DEFAULT_FD) -> dict:
    """Components of d(eta) + *dV over (rho, u, v).

    The Hodge star of the flat base metric in these coordinates is
    *drho = rho^2 m du^dv, *du = -drho^dv, *dv = drho^du.
    """

    def eta_and_v(x):
        zx = complex(x[1], x[2])
        return np.append(data.eta_at(x[0], zx), data.potential(x[0], zx))

    P = _partials(eta_and_v, [rho, z.real, z.imag], config)
    d_eta = _exterior(P[:, :3], 1)
    grad_v = P[:, 3]
    m = data.record(z).m
    star_dv = np.zeros((3, 3))
    star_dv[1, 2] = grad_v[0] * rho * rho * m
    star_dv[0, 2] = -grad_v[1]
    star_dv[0, 1] = grad_v[2]
    star_dv = star_dv - star_dv.T
    resid = d_eta + star_dv
    return {
        "du^dv": float(resid[1, 2]),
        "drho^du": float(resid[0, 1]),
        "drho^dv": float(resid[0, 2]),
        "max": float(np.abs(resid).max()),
    }


def quaternion_check(data: HolomorphicData, rho: float, z: complex) -> dict:
    """The endomorphisms J_i = -G^-1 Omega_i must satisfy the unit
    quaternion algebra with J1 J2 = J3, and lower back to the forms."""
    G = data.metric(rho, z)
    forms = data.symplectic(rho, z)
    J = [-np.linalg.solve(G, om) for om in forms]
    eye = np.eye(4)
    unit = max(float(np.abs(J[i] @ J[i] + eye).max()) for i in range(3))
    product = 0.0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        product = max(product, float(np.abs(J[i] @ J[j] - J[k]).max()))
    anticommute = max(
        float(np.abs(J[i] @ J[j] + J[j] @ J[i]).max())
        for i in range(3)
        for j in range(3)
        if i != j
    )
    roundtrip = max(
        float(np.abs(J[i].T @ G - forms[i]).max()) for i in range(3)
    )
    return {
        "unit": unit,
        "product": product,
        "anticommute": anticommute,
        "roundtrip": roundtrip,
    }


# ---- curvature ---------------------------------------------------------


@dataclass(frozen=True)
class CurvatureReport:
    x: np.ndarray
    h: float
    riemann_max: float
    ricci_max: float
    scalar: float


def _christoffel(metric_fn, x, h):
    G0 = np.asarray(metric_fn(x))
    n = len(G0)
    dG = np.zeros((n, n, n))
    for a in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[a] += h
        xm[a] -= h
        dG[a] = (np.asarray(metric_fn(xp)) - np.asarray(metric_fn(xm))) / (2.0 * h)
    Ginv = np.linalg.inv(G0)
    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{bd} - d_d g_{bc})
    inner = np.einsum("bdc->dbc", dG) + np.einsum("cbd->dbc", dG) - dG
    return 0.5 * np.einsum("ad,dbc->abc", Ginv, inner), G0


def curvature(metric_fn, x, h: float = 1e-3) -> CurvatureReport:
    """Riemann and Ricci by plain nested central differences.

    No Richardson anywhere: the truncation error is honestly O(h^2) so
    halving the step must shrink a known-zero residual fourfold.
    When x has fewer coordinates than the metric has dimensions, the
    metric does not depend on the rest (theta, for metric_field): their
    partials are zero and are not differenced.
    """
    x = np.asarray(x, dtype=float)
    if x[0] <= 2.5 * h:
        raise StencilError(f"rho = {x[0]} too close to the cone point for h = {h}")
    Gamma0, G0 = _christoffel(metric_fn, x, h)
    n = len(G0)
    dGamma = np.zeros((n, n, n, n))
    for c in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[c] += h
        xm[c] -= h
        dGamma[c] = (_christoffel(metric_fn, xp, h)[0] - _christoffel(metric_fn, xm, h)[0]) / (
            2.0 * h
        )
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + quadratic terms
    riem = (
        np.einsum("cadb->abcd", dGamma)
        - np.einsum("dacb->abcd", dGamma)
        + np.einsum("ace,edb->abcd", Gamma0, Gamma0)
        - np.einsum("ade,ecb->abcd", Gamma0, Gamma0)
    )
    ricci = np.einsum("abad->bd", riem)
    scalar = float(np.einsum("bd,bd->", np.linalg.inv(G0), ricci))
    return CurvatureReport(
        x=x,
        h=h,
        riemann_max=float(np.abs(riem).max()),
        ricci_max=float(np.abs(ricci).max()),
        scalar=scalar,
    )


def curvature_with_noise(metric_fn, x, h: float = 1e-3):
    """The report at h together with a floor estimated from h/2."""
    coarse = curvature(metric_fn, x, h)
    fine = curvature(metric_fn, x, h / 2.0)
    noise = {
        "riemann": abs(coarse.riemann_max - fine.riemann_max),
        "ricci": abs(coarse.ricci_max - fine.ricci_max),
    }
    return coarse, fine, noise


def metric_field(data: HolomorphicData):
    """The 4-metric as a function of the coordinate vector (rho,u,v,theta).

    The metric does not depend on theta, so the vector may leave it out."""

    def fn(x):
        return data.metric(float(x[0]), complex(x[1], x[2]))

    return fn


# ---- slice structure equations -----------------------------------------


@dataclass(frozen=True)
class StructureFit:
    beta0: np.ndarray
    lam0: float
    residual: float
    beta0_predicted: np.ndarray
    lam0_predicted: float


def _uv_partials(frame_field, z: complex, config: FDConfig):
    """Partials along u and v of a slice-frame quantity, one slice frame
    per stencil point; partials along theta vanish."""
    x0 = np.array([z.real, z.imag])

    def field(x):
        return frame_field(complex(x[0], x[1]))

    return _partial(field, x0, 0, config), _partial(field, x0, 1, config)


def structure_coeffs(data: HolomorphicData, z: complex, which: str = "zero",
                     config: FDConfig = _DEFAULT_FD) -> StructureFit:
    """Fit d(alpha_i) = beta0 ^ alpha_i + lam0 alpha_j ^ alpha_k.

    The nine independent 2-form components over (u, v, theta) are fit
    by least squares in the four unknowns (beta0, lam0), and the result
    is compared against the scaling-field prediction carried by the
    slice frame itself.
    """
    z = complex(z)
    frame = data.slice_frame(z, which)
    alpha = frame.omega
    d_u, d_v = _uv_partials(lambda w: data.slice_frame(w, which).omega, z, config)

    pairs = [(0, 1), (0, 2), (1, 2)]
    rows = []
    rhs = []
    for i in range(3):
        # the alpha components are theta-free, so d alpha has only
        # d_u and d_v terms
        d_alpha = {(0, 1): d_u[i][1] - d_v[i][0], (0, 2): float(d_u[i][2]),
                   (1, 2): float(d_v[i][2])}
        j, k = (i + 1) % 3, (i + 2) % 3
        jk = wedge(alpha[j], alpha[k])
        for (a, b) in pairs:
            row = np.zeros(4)
            row[a] += alpha[i][b]
            row[b] -= alpha[i][a]
            row[3] = jk[a, b]
            rows.append(row)
            rhs.append(d_alpha[(a, b)])
    M = np.array(rows)
    y = np.array(rhs)
    if np.linalg.matrix_rank(M) < 4:
        raise DegenerateFrameError(f"coframe too degenerate to fit at z = {z}")
    coeffs, _, _, _ = np.linalg.lstsq(M, y, rcond=None)
    residual = float(np.abs(M @ coeffs - y).max())
    return StructureFit(
        beta0=coeffs[:3],
        lam0=float(coeffs[3]),
        residual=residual,
        beta0_predicted=frame.beta,
        lam0_predicted=frame.lam0,
    )


def contact_ratio(data: HolomorphicData, z: complex,
                  config: FDConfig = _DEFAULT_FD) -> dict:
    """beta ^ dbeta against the coframe volume, two ways.

    Direct route: difference the contact form and wedge.  Algebraic
    route: expand beta = sum b_i omega_i and return -sum b_i^2.  The
    structure equations force the two to agree, with a negative sign
    wherever beta does not vanish.
    """
    z = complex(z)
    frame = data.slice_frame(z, "canonical")
    d_u, d_v = _uv_partials(lambda w: data.slice_frame(w, "canonical").beta, z, config)
    beta = frame.beta
    # dbeta over (u, v, theta) has no theta partials
    top = beta[0] * d_v[2] - beta[1] * d_u[2] + beta[2] * (d_u[1] - d_v[0])
    vol = float(np.linalg.det(frame.omega))
    if abs(vol) < 1e-300:
        raise DegenerateFrameError(f"coframe volume vanishes at z = {z}")
    b = np.linalg.solve(frame.omega.T, beta)
    return {
        "ratio": top / vol,
        "algebraic": -float(np.sum(b * b)),
    }


# ---- the zero locus of the contact form --------------------------------


@dataclass(frozen=True)
class BetaZeroReport:
    zeros: tuple
    beta_norms: tuple
    min_separation: float


def beta_zero_search(data: HolomorphicData, grid: int = 40, radius: float = 0.9,
                     max_iter: int = 40) -> BetaZeroReport:
    """All zeros of the contact form inside |z| < radius.

    On the canonical slice beta vanishes exactly where psi' = 0 and
    Re psi = 0 simultaneously, so the search is Gauss-Newton on the
    three real conditions (Re psi', Im psi', Re psi) with the second
    derivative of psi supplying the Jacobian.
    """
    psi = data.psi
    probes = [0.3, 0.5j, -0.4 + 0.2j, 0.6 - 0.3j, -0.2 - 0.55j]
    if all(abs(psi.deriv(z)) < 1e-13 for z in probes):
        raise InvalidDataError("psi is constant; its contact form vanishes identically")

    def system(z):
        """The residual and its Jacobian from one jet of psi."""
        w, d1, d2 = psi.jet(z)
        F = np.array([d1.real, d1.imag, w.real])
        J = np.array(
            [
                [d2.real, -d2.imag],
                [d2.imag, d2.real],
                [d1.real, -d1.imag],
            ]
        )
        return F, J

    # Zeros of psi' can be degenerate (symmetric data stacks several
    # critical points at the origin), where Gauss-Newton converges only
    # linearly and never takes a provably tiny step.  So candidates are
    # judged purely on the final residual and clustered, keeping the
    # best representative of each cluster.
    candidates = []
    seeds = np.linspace(-radius, radius, grid)
    for sx in seeds:
        for sy in seeds:
            z = complex(sx, sy)
            if abs(z) >= radius:
                continue
            F = None  # the residual at z, once taken
            for _ in range(max_iter):
                F, J = system(z)
                if not np.all(np.isfinite(F)) or np.linalg.norm(F) < 1e-14:
                    break
                step, *_ = np.linalg.lstsq(J, -F, rcond=None)
                if not np.all(np.isfinite(step)):
                    break
                z = z + complex(step[0], step[1])
                F = None
                if abs(z) >= 0.999:
                    break
            if abs(z) >= radius:
                continue
            if F is None:
                F, _ = system(z)
            r = float(np.linalg.norm(F))
            if r < 1e-12:
                candidates.append((r, z))
    candidates.sort(key=lambda t: t[0])
    found = []
    for _, z in candidates:
        if all(abs(z - seen) > 1e-3 for seen in found):
            found.append(z)
    found.sort(key=lambda w: (round(abs(w), 9), math.atan2(w.imag, w.real)))
    norms = tuple(
        float(np.linalg.norm(data.slice_frame(z, "canonical").beta)) for z in found
    )
    if len(found) > 1:
        sep = min(
            abs(a - b) for a, b in itertools.combinations(found, 2)
        )
    else:
        sep = math.inf
    return BetaZeroReport(zeros=tuple(found), beta_norms=norms, min_separation=sep)
