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
from typing import Callable, Optional

import numpy as np

from .ansatz import _AFTER, _NEXT, HolomorphicData, gh_forms, wedge
from .covering import _modulus
from .errors import (
    CoframeDomainError,
    DegenerateFrameError,
    DegenerateMetricError,
    InvalidDataError,
    MetricDomainError,
    StencilError,
    ZeroCountError,
)


@dataclass(frozen=True)
class FDConfig:
    """The steps of verify (h, halved for Richardson) and of curvature-scan."""

    h: float = 1e-4
    richardson: int = 1
    curvature_h: float = 1e-3

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("step must be positive")
        if self.richardson not in (0, 1):
            raise ValueError("only zero or one Richardson levels supported")
        if not self.curvature_h > 0:
            raise ValueError("curvature step must be positive")


_DEFAULT_FD = FDConfig()


def _steps(config: FDConfig) -> np.ndarray:
    """The central-difference steps of config: h, and h/2 for Richardson."""
    return np.array((config.h,) if config.richardson == 0 else (config.h, config.h / 2.0))


def _stencil(x, steps) -> np.ndarray:
    """x + h e_a and x - h e_a around every centre of x (..., d), for each
    step h of steps: an (..., steps, d, 2, d) array."""
    x, h = np.asarray(x, dtype=float), np.asarray(steps)[:, None]
    d = x.shape[-1]
    pts = np.empty(x.shape[:-1] + (len(h), d, 2, d))
    pts[...] = x[..., None, None, None, :]
    block = pts.reshape(pts.shape[:-3] + (-1,))  # moved coordinates lie 2d + 1 apart
    plus, minus = block[..., ::2 * d + 1], block[..., d::2 * d + 1]
    plus += h
    minus -= h
    return pts


def _differences(F: np.ndarray, steps, n: Optional[int] = None) -> np.ndarray:
    """The partials at N centres from the values F (N, steps, d, 2, ...)
    of a field on their stencils, in _stencil order, as _partials."""
    S, d = F.shape[1:3]
    D = (F[:, :, :, 0] - F[:, :, :, 1]) / (2.0 * steps).reshape((S,) + (1,) * (F.ndim - 3))
    P = D[:, 0] if S == 1 else (4.0 * D[:, 1] - D[:, 0]) / 3.0
    if n is not None:
        P = np.concatenate((P, np.zeros((len(P), n - d) + P.shape[2:])), axis=1)
    return P


def _partials(field, x, config: FDConfig, n: Optional[int] = None, value: bool = False):
    """Partials of a stacked field along each coordinate at x.

    ``field`` maps an (M, d) array of points to an (M, ...) array of
    values.  It is called once: on every shifted point of every centre
    of x at each step of config, after the centres with ``value``.  x is
    one centre (d,) or a stack (N, d); the partials are stacked on a new
    axis after the centre axes and padded with zeros up to n: the field
    does not depend on the coordinates past x (theta, for the ansatz);
    n = -1 pads up to the length of the field's last axis (a metric's).
    With ``value`` the result is (field at x, partials)."""
    x = np.asarray(x, dtype=float)
    centres, steps = x.reshape(-1, x.shape[-1]), _steps(config)
    (N, d), S = centres.shape, len(steps)
    pts, head = _stencil(centres, steps).reshape(-1, d), N if value else 0
    F = np.asarray(field(np.concatenate((centres, pts)) if value else pts), dtype=float)
    F0, F = F[:head], F[head:].reshape((N, S, d, 2) + F.shape[1:])
    P = _differences(F, steps, F.shape[-1] if n == -1 else n)
    P = P.reshape(x.shape[:-1] + P.shape[1:])
    return (F0.reshape(x.shape[:-1] + F0.shape[1:]), P) if value else P


def stencil_points(zs, config: FDConfig, depth: int = 1) -> np.ndarray:
    """Every z at which `depth` nested _partials along (u, v) around the
    centres zs evaluate their field, centres included, from the same
    shift builder: the stencils of verify (depth 1) and of curvature
    (depth 2).  One flat complex array, centre by centre, that keeps
    the points repeated within and between stencils.  StencilError where
    a step rounds back onto its centre in the u or v it moves, at any
    level, which would difference nothing, or where a point leaves the
    open disc."""
    z = np.asarray(zs, dtype=complex).reshape(-1, 1)
    pts, steps = np.stack((z.real, z.imag), axis=-1), _steps(config)  # (centre, point, (u, v))
    for _ in range(depth):
        x, h = pts[..., None, :], steps[:, None]  # (centre, point, step, (u, v))
        lost = (x + h == x) | (x - h == x)
        if lost.any():  # name u before v, then h before h/2, then the first point
            k, j = np.argwhere(lost.any(axis=(0, 1)).T)[0]
            raise StencilError(f"the step {float(steps[j])} rounds back onto its centre "
                               f"at {'uv'[k]} = {float(pts[..., k][lost[..., j, k]][0])}")
        shifted = _stencil(pts, steps).reshape(len(z), -1, 2)
        pts = np.concatenate((pts, shifted), axis=1)
    pts = pts.view(complex).ravel()
    reach = float(_modulus(pts).max(initial=0.0))
    if not reach < 1.0:
        raise StencilError(f"the stencil of h = {config.h} leaves the disc (|z| = {reach})")
    return pts


def _exterior(P: np.ndarray, k: int, axis: int = 0) -> np.ndarray:
    """d of a k-form from its stacked partials, d_a(form) at index a of
    ``axis`` (after the centre axes of a stack of centres).

    Axes of the form before its last k index a family of forms, so one
    stencil pass serves several."""
    if k == 0:
        return P
    A = np.moveaxis(P, axis, -k - 1)  # A[..., a, b(, c)] = P[a, ..., b(, c)]
    if k == 1:
        return A - np.swapaxes(A, -1, -2)
    if k == 2:
        return A - np.swapaxes(A, -3, -2) + np.moveaxis(A, -3, -1)
    raise ValueError(f"unsupported form degree {k}")


def cauchy_riemann_residual(f: Callable, z, h: float = 1e-6):
    """|dbar f| at each z, an array or one point, by central differences
    in each real direction, in one call of f on an array of z."""
    z, _, shape = _centres(z)

    def parts(X):
        w = np.asarray(f(X[:, 0] + 1j * X[:, 1]))
        return np.stack((w.real, w.imag), axis=-1)

    P = _partials(parts, np.stack((z.real, z.imag), axis=-1), FDConfig(h, richardson=0))
    du, dv = P.swapaxes(0, 1)
    return _shaped(0.5 * np.hypot(du[:, 0] - dv[:, 1], du[:, 1] + dv[:, 0]), shape)


# ---- Gibbons-Hawking equation checks -----------------------------------
# Each check takes arrays of rho and z, broadcast together, and runs once
# over the whole stack of centres; its results take their shape, and a
# scalar call returns floats.  An error names the first failing centre.


def _centres(z, rho=0.0):
    """The centres (z, rho) broadcast together and flattened, and their shape."""
    z, rho = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(rho, dtype=float))
    return z.ravel(), rho.ravel(), z.shape


def _shaped(a: np.ndarray, shape):
    """a over a flat stack of centres in the shape of the centres: a
    float for a scalar centre."""
    a = a.reshape(shape + a.shape[1:])
    return float(a) if a.ndim == 0 else a


def _worst(a: np.ndarray, shape):
    """The largest |entry| of a at each centre, in their shape."""
    return _shaped(np.abs(a).reshape(len(a), -1).max(axis=1), shape)


# The degree k of each field that closure_residual and curl_residual
# difference, which goes as rho^k (HolomorphicData.WEIGHTS): w_a + w_b
# for the entry ab of each Omega_i, w_a - 1/2 for Theta_a and -1 for V.
_W = HolomorphicData.WEIGHTS
_FORM_DEGREE, _CURL_DEGREE = _W[:, None] + _W, np.append(_W[:3] - 0.5, -1.0)


def _homogeneous_partials(field, rho, z, degree, config: FDConfig):
    """The partials along (rho, u, v) of a field homogeneous in rho at
    the centres (rho, z), an (N, 3, ...) stack: along (u, v) by one
    field call on the centres and their (u, v) stencils, rho held at
    each centre's, and along rho exactly, d_rho F = degree F / rho at
    the centres.  ``field`` maps arrays (rho, z) to an (M, ...) array
    of values, of the shape of degree past M."""
    # the centres, then the stencil of each in turn: 2 points per step and direction
    heights = np.concatenate((rho, np.repeat(rho, 4 * len(_steps(config)))))
    F, P = _partials(lambda X: field(heights, X[:, 0] + 1j * X[:, 1]),
                     np.stack((z.real, z.imag), axis=-1), config, value=True)
    column = degree * F / rho.reshape((-1,) + (1,) * (F.ndim - 1))
    return np.concatenate((column[:, None], P), axis=1)


def closure_residual(data: HolomorphicData, rho, z, config: FDConfig = _DEFAULT_FD):
    """Worst component of d(Omega_i) over (rho, u, v, theta).

    All three forms at every centre and on its (u, v) stencil are
    differenced in one symplectic call; their rho column is exact
    (_homogeneous_partials), and they do not depend on theta, so its
    column of partials is zero."""
    z, rho, shape = _centres(z, rho)
    P = _homogeneous_partials(data.symplectic, rho, z, _FORM_DEGREE, config)
    P = np.concatenate((P, np.zeros_like(P[:, :1])), axis=1)  # the theta column
    return _worst(_exterior(P, 2, axis=1), shape)


def curl_residual(data: HolomorphicData, rho, z, config: FDConfig = _DEFAULT_FD) -> dict:
    """Components of d(eta) + *dV over (rho, u, v), eta and V differenced
    as the forms of closure_residual.

    The Hodge star of the flat base metric in these coordinates is
    *drho = rho^2 m du^dv, *du = -drho^dv, *dv = drho^du.
    """
    z, rho, shape = _centres(z, rho)

    def eta_and_v(rho, z):
        V, theta, _ = data._fields(rho, z)
        return np.column_stack((theta[:, :3], V))

    P = _homogeneous_partials(eta_and_v, rho, z, _CURL_DEGREE, config)
    d_eta = _exterior(P[:, :, :3], 1, axis=1)
    grad_v = P[:, :, 3]
    m = data.record(z).m
    star_dv = np.zeros((len(z), 3, 3))
    star_dv[:, 1, 2] = grad_v[:, 0] * rho * rho * m
    star_dv[:, 0, 2] = -grad_v[:, 1]
    star_dv[:, 0, 1] = grad_v[:, 2]
    resid = d_eta + (star_dv - star_dv.swapaxes(1, 2))
    return {
        "du^dv": _shaped(resid[:, 1, 2], shape),
        "drho^du": _shaped(resid[:, 0, 1], shape),
        "drho^dv": _shaped(resid[:, 0, 2], shape),
        "max": _worst(resid, shape),
    }


# The largest entry of E^-T G E^-1 - I at which the coordinate arrays
# still hold the coframe E, a tenth of the quaternion tolerance.
_FRAME_FLOOR = 1e-9
_EYE4 = np.eye(4)


def _coframe_inverse(V, theta, dx) -> np.ndarray:
    """E^-1 for the Gibbons-Hawking coframe E = (V^-1/2 Theta, V^1/2 dx_i),
    in which g is the identity, over a stack of fields.

    The (rho, u, v) block A of dx has orthogonal columns of squared
    lengths 1, rho^2 m and rho^2 m, so A^-1 is A^T with its rows
    divided by those; the dtheta column of E is (V^-1/2, 0, 0, 0).
    """
    A = dx[..., :3]
    a_inv = A.swapaxes(-1, -2) / np.einsum("nij,nij->nj", A, A)[..., None]
    sv = np.sqrt(V)[:, None]
    inv = np.zeros((len(V), 4, 4))
    inv[:, :3, 1:] = a_inv / sv[..., None]
    inv[:, 3, 0] = sv[:, 0]
    inv[:, 3, 1:] = -(theta[:, None, :3] @ a_inv)[:, 0] / sv
    return inv


def quaternion_check(data: HolomorphicData, rho, z) -> dict:
    """The endomorphisms J_i = -G^-1 Omega_i must satisfy the unit
    quaternion algebra with J1 J2 = J3, and lower back to the forms.

    J_i is taken in the Gibbons-Hawking coframe E, where g is the
    identity, as -E^-T Omega_i E^-1: no solve on G, whose condition
    grows like 1/m.  The round trip lowers with the frame metric
    E^-T G E^-1 itself.  Where that metric is off the identity by more
    than _FRAME_FLOOR, the coordinate arrays have lost the dx block to
    rounding, and CoframeDomainError reports |z| instead of a residual.
    """
    z, rho, shape = _centres(z, rho)
    fields = data._fields(rho, z)
    G = data._metric_from(z, *fields)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = _coframe_inverse(*fields)
        inv_t = inv.swapaxes(1, 2)
        G_frame = inv_t @ G @ inv
        forms = inv_t[:, None] @ gh_forms(*fields) @ inv[:, None]
    floor = np.abs(G_frame - _EYE4).reshape(len(z), -1).max(axis=1)
    lost = ~(floor <= _FRAME_FLOOR)
    if lost.any():
        i = int(lost.argmax())
        where = f"coframe lost to rounding at |z| = {abs(complex(z[i]))}: "
        if np.isfinite(floor[i]):
            raise CoframeDomainError(where + f"frame metric off by {floor[i]:.3g}")
        # name the first of the products that is not finite, and V, which
        # scales E^-1 by V^-1/2 and G by up to 1/V
        name, value = next((name, a[i]) for name, a in (
            ("metric G", G), ("coframe inverse E^-1", inv), ("frame metric E^-T G E^-1", G_frame))
            if not np.isfinite(a[i]).all())
        raise CoframeDomainError(where + f"{name} is not finite ({value[~np.isfinite(value)][0]}) "
                                 f"at V = {float(fields[0][i]):.3g}")
    J = -forms
    J_next = J.take(_NEXT, axis=1)  # J_j beside J_i, (i, j, k) cyclic
    product = J @ J_next
    return {
        "unit": _worst(J @ J + _EYE4, shape),
        "product": _worst(product - J.take(_AFTER, axis=1), shape),
        "anticommute": _worst(product + J_next @ J, shape),
        "roundtrip": _worst(J.swapaxes(-1, -2) @ G_frame[:, None] - forms, shape),
    }


# ---- curvature ---------------------------------------------------------


# Centres per metric_fn call of curvature.  A centre holds about 32 KiB
# while its stencil is in use, so a full stack stays near the peak of
# the fill that precedes a scan (470 KiB at --grid 12, by tracemalloc).
_CURVATURE_CHUNK = 16


@dataclass(frozen=True)
class CurvatureReport:
    """In the shape of the centres of x; floats for one centre."""

    riemann_max: float
    ricci_max: float
    scalar: float


def _curvature_stack(metric_fn, centres: np.ndarray, h: float):
    """The largest |Riemann| and |Ricci| and the scalar at each of N centres."""
    (N, d), steps = centres.shape, np.array((h,))
    pts = np.concatenate((centres, _stencil(centres, steps).reshape(-1, d)))

    def finite(X):  # a metric past the double range is not differenced
        G = metric_fn(X)
        if not np.isfinite(G).all():
            first = np.argwhere(~np.isfinite(G))[0, 0]
            raise MetricDomainError(f"metric not finite at x = {X[first].tolist()}")
        return G
    G, dG = _partials(finite, pts, FDConfig(h, richardson=0), n=-1, value=True)
    dim = G.shape[-1]
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        first = int((np.linalg.matrix_rank(G) < dim).argmax())
        raise DegenerateMetricError(f"metric singular at x = {pts[first].tolist()}") from None
    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{bd} - d_d g_{bc})
    inner = np.einsum("nbdc->ndbc", dG) + np.einsum("ncbd->ndbc", dG) - dG
    Gamma = 0.5 * np.einsum("nad,ndbc->nabc", Ginv, inner)
    # the rows after the centres' are their stencils, in _stencil order
    dGamma = _differences(Gamma[N:].reshape(N, 1, d, 2, dim, dim, dim), steps, dim)
    G0 = Gamma[:N]
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + quadratic terms
    riem = (
        np.einsum("ncadb->nabcd", dGamma)
        - np.einsum("ndacb->nabcd", dGamma)
        + np.einsum("nace,nedb->nabcd", G0, G0)
        - np.einsum("nade,necb->nabcd", G0, G0)
    )
    ricci = np.einsum("nabad->nbd", riem)
    scalar = np.einsum("nbd,nbd->n", Ginv[:N], ricci)
    return _worst(riem, (N,)), _worst(ricci, (N,)), scalar


def _check_rho_step(rho: np.ndarray, h: float) -> None:
    """StencilError unless every rho passes the cone rule rho > 2.5 h and moves by h."""
    low = ~(rho > 2.5 * h)
    if low.any():
        raise StencilError(f"rho = {rho[low.argmax()]} too close to the cone point for h = {h}")
    lost = (rho + h == rho) | (rho - h == rho)
    if lost.any():
        raise StencilError(f"the step {h} rounds back onto its centre at rho = {rho[lost][0]}")


def curvature(metric_fn, x, h: float = 1e-3) -> CurvatureReport:
    """Riemann and Ricci by plain nested central differences at a centre
    x (d,) or a stack of them (N, d), an error naming the first failing one.

    ``metric_fn`` maps an (M, d) array of points to the (M, n, n) stack
    of metrics there, and is called once per _CURVATURE_CHUNK centres,
    on (1 + 2d)^2 points each: the centre and its 2d neighbours, each
    with its own stencil.  The Christoffel symbols of those neighbours
    come from one inverse and one contraction over the stack; their
    partials at each centre read them by row.  No Richardson anywhere:
    the truncation error is honestly O(h^2) so halving the step must
    shrink a known-zero residual fourfold.  When x has fewer coordinates
    than the metric has dimensions, the metric does not depend on the
    rest (theta, for metric_field): their partials are zero and are not
    differenced.  StencilError where a rho is within 2.5 h of the cone
    point, or where h rounds back onto it.
    """
    x = np.asarray(x, dtype=float)
    centres = x.reshape(-1, x.shape[-1])
    _check_rho_step(centres[:, 0], h)
    parts = [_curvature_stack(metric_fn, centres[k:k + _CURVATURE_CHUNK], h)
             for k in range(0, len(centres), _CURVATURE_CHUNK)]
    riemann, ricci, scalar = (_shaped(np.concatenate(p), x.shape[:-1]) for p in zip(*parts))
    return CurvatureReport(riemann_max=riemann, ricci_max=ricci, scalar=scalar)


def curvature_with_noise(metric_fn, x, h: float = 1e-3):
    """The reports at h and h/2 and the floors taken from them, at x as
    curvature; both steps are checked before either pass runs."""
    rho = np.asarray(x, dtype=float)[..., 0].ravel()
    for step in (h, h / 2.0):
        _check_rho_step(rho, step)
    coarse = curvature(metric_fn, x, h)
    fine = curvature(metric_fn, x, h / 2.0)
    noise = {
        "riemann": abs(coarse.riemann_max - fine.riemann_max),
        "ricci": abs(coarse.ricci_max - fine.ricci_max),
    }
    return coarse, fine, noise


def metric_field(data: HolomorphicData):
    """The 4-metric as a stacked field: an (N, d) array of coordinate
    vectors (rho, u, v, theta) to the (N, 4, 4) stack of metrics, in one
    metric call.  The metric does not depend on theta, so the vectors
    may leave it out."""

    def fn(X):
        return data.metric(X[:, 0], X[:, 1] + 1j * X[:, 2])

    return fn


# ---- slice structure equations -----------------------------------------


@dataclass(frozen=True)
class StructureFit:
    """The fit at each centre, in the shape of the centres (the three
    components of beta0 last); floats for one centre."""

    beta0: np.ndarray
    lam0: float
    residual: float
    beta0_predicted: np.ndarray
    lam0_predicted: float


def _uv_partials(data: HolomorphicData, z: np.ndarray, which: str, name: str,
                 config: FDConfig):
    """The slice-frame array ``name`` at every centre of z and its
    partials along (u, v, theta), an (N, 3, ...) stack: both read off
    the slice frames of the centres and their stencils, taken in one
    batch.  The partials along theta vanish."""
    return _partials(lambda X: getattr(data.slice_frames(X[:, 0] + 1j * X[:, 1], which), name),
                     np.stack((z.real, z.imag), axis=-1), config, n=3, value=True)


_UPPER = np.triu_indices(3, 1)


def structure_coeffs(data: HolomorphicData, z, which: str = "zero",
                     config: FDConfig = _DEFAULT_FD) -> StructureFit:
    """Fit d(alpha_i) = beta0 ^ alpha_i + lam0 alpha_j ^ alpha_k.

    The nine independent 2-form components over (u, v, theta) are fit
    by least squares in the four unknowns (beta0, lam0), and the result
    is compared against the scaling-field prediction carried by the
    slice frame itself.  One SVD of the stacked 9 x 4 systems fits every
    centre of z; each field of the fit takes the shape of z.
    """
    z, _, shape = _centres(z)
    alpha, P = _uv_partials(data, z, which, "omega", config)
    # one row per component a < b of each d alpha_i: its coefficients
    # in beta0 ^ alpha_i (one per component of beta0) and alpha_j ^ alpha_k
    a, b = _UPPER
    n = len(z)
    beta_part = wedge(np.eye(3)[:, None], alpha[:, None])[..., a, b].reshape(n, 3, -1)
    lam_part = wedge(alpha[:, [1, 2, 0]], alpha[:, [2, 0, 1]])[..., a, b].reshape(n, -1, 1)
    M = np.concatenate((beta_part.swapaxes(1, 2), lam_part), axis=2)
    y = _exterior(P, 1, axis=1)[..., a, b].reshape(n, -1)
    bad = ~np.isfinite(M).all(axis=(1, 2))  # a NaN frame would fail the SVD of the stack
    if bad.any():
        w = complex(z[int(bad.argmax())])
        raise DegenerateFrameError(f"coframe fit failed at z = {w}: the fit system is not finite")
    try:
        U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFrameError(
            f"coframe fit failed on the stack from z = {complex(z[0])}: {exc}") from exc
    # the rank rule of numpy's matrix_rank, which is lstsq's cut-off
    rank = (sv > sv.max(axis=1, keepdims=True) * max(M.shape[1:]) * np.finfo(float).eps).sum(1)
    if (rank < 4).any():
        w = complex(z[int((rank < 4).argmax())])
        raise DegenerateFrameError(f"coframe too degenerate to fit at z = {w}")
    coeffs = (Vt.swapaxes(1, 2) @ ((U.swapaxes(1, 2) @ y[..., None]) / sv[..., None]))[..., 0]
    residual = np.abs((M @ coeffs[..., None])[..., 0] - y).max(axis=1)
    frames = data.slice_frames(z, which)
    return StructureFit(
        beta0=_shaped(coeffs[:, :3], shape),
        lam0=_shaped(coeffs[:, 3], shape),
        residual=_shaped(residual, shape),
        beta0_predicted=_shaped(frames.beta, shape),
        lam0_predicted=_shaped(frames.lam0, shape),
    )


def contact_ratio(data: HolomorphicData, z, config: FDConfig = _DEFAULT_FD) -> dict:
    """beta ^ dbeta against the coframe volume, two ways.

    Direct route: difference the contact form and wedge.  Algebraic
    route: expand beta = sum b_i omega_i and return -sum b_i^2.  The
    structure equations force the two to agree, with a negative sign
    wherever beta does not vanish.
    """
    z, _, shape = _centres(z)
    beta, P = _uv_partials(data, z, "canonical", "beta", config)
    d_u, d_v = P[:, 0], P[:, 1]
    omega = data.slice_frames(z).omega
    # dbeta over (u, v, theta) has no theta partials
    top = (beta[:, 0] * d_v[:, 2] - beta[:, 1] * d_u[:, 2]
           + beta[:, 2] * (d_u[:, 1] - d_v[:, 0]))
    # a NaN frame reads as a vanishing volume, not as a warning; a
    # volume that vanishes would fail the solve of the whole stack
    with np.errstate(invalid="ignore"):
        vol = np.linalg.det(omega)
    flat = ~(np.abs(vol) >= 1e-300)
    if flat.any():
        i = int(flat.argmax())
        raise DegenerateFrameError(
            f"coframe volume {vol[i]:.3g} vanishes at z = {complex(z[i])}")
    try:
        b = np.linalg.solve(omega.swapaxes(1, 2), beta[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateFrameError(
            f"coframe solve failed on the stack from z = {complex(z[0])}: {exc}") from exc
    return {
        "ratio": _shaped(top / vol, shape),
        "algebraic": _shaped(-np.sum(b * b, axis=1), shape),
    }


# ---- the zero locus of the contact form --------------------------------

# Nodes of the circle rule; every other node makes the half rule.  psi
# branches where B = 1 on the unit circle, so the error of the half
# rule on |z| = 0.9 is about 0.9^256 = 2e-12 (0.9^128 = 1.4e-6 with 256
# nodes, above _WINDING_TOL).
_CIRCLE_NODES = 512
# The winding number must lie this close to an integer and to its
# half-rule value.
_WINDING_TOL = 1e-6
# Roots closer than this are one zero, whatever their reach.
_CLUSTER_RADIUS = 1e-3
# Relative to max |psi'| on the circle: the least |psi'| on the circle
# that is trusted, and the largest |psi'| at a located zero.
_DPSI_FLOOR = 1e-8
_ZERO_FLOOR = 1e-10
_RE_PSI_TOL = 1e-12


@dataclass(frozen=True)
class BetaZeroReport:
    """The zeros of beta inside the circle and the certificate of their count.

    ``critical_points`` are the zeros of psi' inside |z| < ``radius`` as
    (z, multiplicity) pairs, and ``zeros`` those where Re psi vanishes
    too, with |beta| at each in ``beta_norms``.  ``winding`` is the
    number of zeros of psi' by the trapezoid rule at ``nodes`` nodes,
    ``winding_gap`` its distance to the rule on every other node, and
    ``min_dpsi`` the least |psi'| on the circle.
    """

    zeros: tuple
    beta_norms: tuple
    min_separation: float
    critical_points: tuple
    winding: float
    nodes: int
    winding_gap: float
    radius: float
    min_dpsi: float


def _power_sum_roots(p: np.ndarray) -> np.ndarray:
    """Roots of the monic polynomial whose roots have the power sums
    p[0], ..., p[n-1] (first to n-th), by Newton's identities."""
    e = [1.0 + 0j]
    for k in range(1, len(p) + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    return np.roots([(-1) ** k * c for k, c in enumerate(e)])


def _clusters(roots, reach) -> list:
    """(centroid, size) of each group of roots linked by steps shorter
    than _CLUSTER_RADIUS or than the sum of their reaches: the roots of
    a multiple zero spread around it, wider than the gap between
    neighbours, and each lies within its reach of it."""
    groups = []
    for r, s in zip(roots, reach):
        merged, rest = [(r, s)], []
        for g in groups:
            if any(abs(r - x) < max(_CLUSTER_RADIUS, s + t) for x, t in g):
                merged += g
            else:
                rest.append(g)
        groups = rest + [merged]
    return [(sum(x for x, _ in g) / len(g), len(g)) for g in groups]


def beta_zero_search(data: HolomorphicData, radius: float = 0.9) -> BetaZeroReport:
    """All zeros of the contact form inside |z| < radius, with a
    certified count; 0 < radius < 1, else ValueError.

    On the canonical slice beta vanishes exactly where psi' = 0 and
    Re psi = 0.  The zeros of psi' inside the circle are counted and
    located by the argument principle (Delves and Lyness): from one jet
    of psi at N nodes z_j on the circle, the trapezoid sums

        s_k = (1/N) sum_j z_j^(k+1) psi''(z_j) / psi'(z_j)

    are the power sums of the zeros, and s_0 is their number n.  s_0
    must lie within _WINDING_TOL of an integer and of the sum over every
    other node, and |psi'| must stay clear of 0 on the circle; else
    ZeroCountError.  Newton's identities turn s_1, ..., s_n into a
    polynomial whose roots are the zeros.  Rounding spreads the roots of
    an m-fold zero a around it, out to where psi' ~ (z - a)^m reaches
    its noise, so each root lies within its reach n |psi'/psi''| of a.
    Roots linked by steps shorter than _CLUSTER_RADIUS or than the sum
    of their reaches make one zero of their multiplicity, at their
    centroid.  One batched jet is taken at the roots inside the circle
    and at the centroids of the roots linked by _CLUSTER_RADIUS alone;
    a second, of psi and psi' alone, at the new centroids, only where
    the reaches link more.
    A zero is kept where |psi'| is at most _ZERO_FLOOR times the largest
    on the circle, and the kept multiplicities must add up to n, else
    ZeroCountError.  The zeros of beta are those where Re psi vanishes
    as well.

    The count is certified; the multiplicities are not.  Where the roots
    of a zero of high multiplicity spread as far as another zero, the
    reaches link both into one zero at their centroid, which |psi'|
    still confirms: B = z^2 ((a - z)/(1 - conj(a) z))^12 with |a| = 0.1
    comes back as one zero of multiplicity 13.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius = {radius} outside (0, 1)")
    psi = data.psi
    n_nodes = _CIRCLE_NODES
    nodes = radius * np.exp(2j * math.pi * np.arange(n_nodes) / n_nodes)
    _, d1, d2 = psi.jet(nodes)
    size = np.abs(d1)
    scale, min_dpsi = float(size.max()), float(size.min())
    if scale < 1e-13:
        raise InvalidDataError("psi is constant; its contact form vanishes identically")
    if not min_dpsi >= _DPSI_FLOOR * scale:
        raise ZeroCountError(
            f"|psi'| falls to {min_dpsi:.3g} on |z| = {radius}: a zero is on or near the circle")
    q = nodes * d2 / d1
    winding = complex(q.mean())
    gap = abs(winding - complex(q[::2].mean()))
    n = round(winding.real)
    if not (abs(winding - n) <= _WINDING_TOL and gap <= _WINDING_TOL):
        raise ZeroCountError(
            f"winding number {winding:.9g} on |z| = {radius}, {gap:.3g} from the half "
            f"rule, is not a count")
    power_sums = (nodes ** np.arange(1, n + 1)[:, None] * q).mean(axis=1)

    roots = _power_sum_roots(power_sums)
    roots = roots[np.abs(roots) < radius]
    clusters = _clusters(roots.tolist(), itertools.repeat(0.0))
    # the roots for their reach, the centroids to confirm
    w, dpsi, d2 = psi.jet(np.concatenate((roots, [z for z, _ in clusters])))
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(dpsi == 0, 0.0, n * np.abs(dpsi / d2))[:len(roots)]
    w, dpsi = w[len(roots):], dpsi[len(roots):]
    linked = _clusters(roots.tolist(), reach.tolist())
    if len(linked) < len(clusters):
        # the roots of a multiple zero spread wider than _CLUSTER_RADIUS
        clusters = linked
        w, dpsi = psi.jet(np.array([z for z, _ in clusters], dtype=complex), 1)
    located = [(z, mult, v) for (z, mult), v, d in zip(clusters, w.tolist(), np.abs(dpsi))
               if d <= _ZERO_FLOOR * scale]  # (z, multiplicity, psi there)
    found = sum(mult for _, mult, _ in located)
    if found != n:
        raise ZeroCountError(
            f"located {found} zeros of psi' inside |z| = {radius}, the winding number is {n}")
    located.sort(key=lambda t: (round(abs(t[0]), 9), math.atan2(t[0].imag, t[0].real)))

    zeros = [z for z, _, w in located if abs(w.real) < _RE_PSI_TOL]
    norms = tuple(np.linalg.norm(data.slice_frames(zeros).beta, axis=-1).tolist())
    if len(zeros) > 1:
        sep = min(abs(a - b) for a, b in itertools.combinations(zeros, 2))
    else:
        sep = math.inf
    return BetaZeroReport(
        zeros=tuple(zeros),
        beta_norms=norms,
        min_separation=sep,
        critical_points=tuple((z, mult) for z, mult, _ in located),
        winding=winding.real,
        nodes=n_nodes,
        winding_gap=gap,
        radius=radius,
        min_dpsi=min_dpsi,
    )
