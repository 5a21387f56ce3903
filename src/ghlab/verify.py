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

from .ansatz import HolomorphicData, gh_forms, wedge
from .errors import (
    CoframeDomainError,
    DegenerateFrameError,
    DegenerateMetricError,
    InvalidDataError,
    StencilError,
    ZeroCountError,
)


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


def _shifted(x, axis, h):
    """x moved by +h and by -h along axis, as two new float vectors."""
    xp, xm = np.array(x, dtype=float), np.array(x, dtype=float)
    xp[axis] += h
    xm[axis] -= h
    return xp, xm


def _partial(field, x, axis, config: FDConfig):
    def central(h):
        fp, fm = (np.asarray(field(y), dtype=float) for y in _shifted(x, axis, h))
        return (fp - fm) / (2.0 * h)

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


def stencil_points(z: complex, config: FDConfig, depth: int = 1) -> list:
    """Every z at which `depth` nested _partials along (u, v) around z
    evaluate their field, z included, from the same float steps: the
    stencils of verify (depth 1) and of curvature (depth 2)."""
    steps = (config.h,) if config.richardson == 0 else (config.h, config.h / 2.0)
    pts = {(z.real, z.imag)}
    for _ in range(depth):
        pts |= {(float(y[0]), float(y[1])) for x in pts for axis in (0, 1)
                for h in steps for y in _shifted(x, axis, h)}
    return [complex(u, v) for u, v in pts]


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
        return data.symplectic(x[0], complex(x[1], x[2]))

    d = _exterior(_partials(forms, [rho, z.real, z.imag], config, n=4), 2)
    return float(np.abs(d).max())


def curl_residual(data: HolomorphicData, rho: float, z: complex,
                  config: FDConfig = _DEFAULT_FD) -> dict:
    """Components of d(eta) + *dV over (rho, u, v).

    The Hodge star of the flat base metric in these coordinates is
    *drho = rho^2 m du^dv, *du = -drho^dv, *dv = drho^du.
    """

    def eta_and_v(x):
        V, theta, _ = data._fields(x[0], complex(x[1], x[2]))
        return np.append(theta[:3], V)

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


# The largest entry of E^-T G E^-1 - I at which the coordinate arrays
# still hold the coframe E, a tenth of the quaternion tolerance.
_FRAME_FLOOR = 1e-9


def _coframe_inverse(V: float, theta, dx) -> np.ndarray:
    """E^-1 for the Gibbons-Hawking coframe E = (V^-1/2 Theta, V^1/2 dx_i),
    in which g is the identity.

    The (rho, u, v) block A of dx has orthogonal columns of squared
    lengths 1, rho^2 m and rho^2 m, so A^-1 is A^T with its rows
    divided by those; the dtheta column of E is (V^-1/2, 0, 0, 0).
    """
    A = dx[:, :3]
    a_inv = A.T / np.einsum("ij,ij->j", A, A)[:, None]
    sv = math.sqrt(V)
    inv = np.zeros((4, 4))
    inv[:3, 1:] = a_inv / sv
    inv[3, 0] = sv
    inv[3, 1:] = -(theta[:3] @ a_inv) / sv
    return inv


def quaternion_check(data: HolomorphicData, rho: float, z: complex) -> dict:
    """The endomorphisms J_i = -G^-1 Omega_i must satisfy the unit
    quaternion algebra with J1 J2 = J3, and lower back to the forms.

    J_i is taken in the Gibbons-Hawking coframe E, where g is the
    identity, as -E^-T Omega_i E^-1: no solve on G, whose condition
    grows like 1/m.  The round trip lowers with the frame metric
    E^-T G E^-1 itself.  Where that metric is off the identity by more
    than _FRAME_FLOOR, the coordinate arrays have lost the dx block to
    rounding, and CoframeDomainError reports |z| instead of a residual.
    """
    fields = data._fields(rho, z)
    G = data._metric_from(z, *fields)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = _coframe_inverse(*fields)
        G_frame = inv.T @ G @ inv
        forms = inv.T @ gh_forms(*fields) @ inv
    floor = float(np.abs(G_frame - np.eye(4)).max())
    if not floor <= _FRAME_FLOOR:
        raise CoframeDomainError(
            f"coframe lost to rounding at |z| = {abs(z)}: frame metric off by {floor:.3g}")
    J = -forms
    J_next = J[[1, 2, 0]]  # J_j beside J_i, (i, j, k) cyclic
    return {
        "unit": float(np.abs(J @ J + np.eye(4)).max()),
        "product": float(np.abs(J @ J_next - J[[2, 0, 1]]).max()),
        "anticommute": float(np.abs(J @ J_next + J_next @ J).max()),
        "roundtrip": float(np.abs(np.swapaxes(J, 1, 2) @ G_frame - forms).max()),
    }


# ---- curvature ---------------------------------------------------------


@dataclass(frozen=True)
class CurvatureReport:
    x: np.ndarray
    h: float
    riemann_max: float
    ricci_max: float
    scalar: float


def _christoffel(metric_fn, x, config: FDConfig):
    G0 = np.asarray(metric_fn(x))
    dG = _partials(metric_fn, x, config, n=len(G0))
    try:
        Ginv = np.linalg.inv(G0)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"metric singular at x = {x.tolist()}") from exc
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
    config = FDConfig(h, richardson=0)
    Gamma0, G0 = _christoffel(metric_fn, x, config)
    dGamma = _partials(lambda y: _christoffel(metric_fn, y, config)[0], x, config,
                       n=len(G0))
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
    """Partials along (u, v, theta) of a slice-frame quantity, one slice
    frame per stencil point; the partials along theta vanish."""
    return _partials(lambda x: frame_field(complex(x[0], x[1])), [z.real, z.imag],
                     config, n=3)


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
    P = _uv_partials(lambda w: data.slice_frame(w, which).omega, z, config)
    # one row per component a < b of each d alpha_i: its coefficients
    # in beta0 ^ alpha_i (one per component of beta0) and alpha_j ^ alpha_k
    a, b = np.triu_indices(3, 1)
    beta_part = wedge(np.eye(3)[:, None], alpha)[:, :, a, b].reshape(3, -1)
    lam_part = wedge(alpha[[1, 2, 0]], alpha[[2, 0, 1]])[:, a, b].ravel()
    M = np.column_stack((beta_part.T, lam_part))
    y = _exterior(P, 1)[:, a, b].ravel()
    try:
        if np.linalg.matrix_rank(M) < 4:
            raise DegenerateFrameError(f"coframe too degenerate to fit at z = {z}")
        coeffs, _, _, _ = np.linalg.lstsq(M, y, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFrameError(f"coframe fit failed at z = {z}: {exc}") from exc
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
    d_u, d_v, _ = _uv_partials(lambda w: data.slice_frame(w, "canonical").beta, z, config)
    beta = frame.beta
    # dbeta over (u, v, theta) has no theta partials
    top = beta[0] * d_v[2] - beta[1] * d_u[2] + beta[2] * (d_u[1] - d_v[0])
    try:
        vol, b = float(np.linalg.det(frame.omega)), np.linalg.solve(frame.omega.T, beta)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFrameError(f"coframe solve failed at z = {z}: {exc}") from exc
    if not abs(vol) >= 1e-300:
        raise DegenerateFrameError(f"coframe volume {vol:.3g} vanishes at z = {z}")
    return {
        "ratio": top / vol,
        "algebraic": -float(np.sum(b * b)),
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
# Roots closer than this are one zero, and no polishing step moves
# further.
_CLUSTER_RADIUS = 1e-3
# Relative to max |psi'| on the circle: the least |psi'| on the circle
# that is trusted, and the largest |psi'| at a polished zero.
_DPSI_FLOOR = 1e-8
_ZERO_FLOOR = 1e-10
_POLISH_STEPS = 3
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


def _clusters(roots) -> list:
    """(centroid, size) of each group of roots linked by steps shorter
    than _CLUSTER_RADIUS: the roots of a multiple zero spread on a
    small circle, wider than the gap between neighbours."""
    groups = []
    for r in roots:
        merged, rest = [r], []
        for g in groups:
            if min(abs(r - x) for x in g) < _CLUSTER_RADIUS:
                merged += g
            else:
                rest.append(g)
        groups = rest + [merged]
    return [(complex(sum(g) / len(g)), len(g)) for g in groups]


def _polish(psi, z: complex, mult: int, radius: float):
    """Newton steps z <- z - mult psi'/psi'' for a zero of psi' of that
    multiplicity, each kept only if it shrinks |psi'| and moves less than
    _CLUSTER_RADIUS inside the circle: near a multiple zero the rounding
    of psi' can throw a step anywhere.  Returns z, psi and psi' there."""
    w, d1, d2 = psi.jet(z)
    for _ in range(_POLISH_STEPS):
        if d1 == 0 or d2 == 0:
            break
        step = z - mult * d1 / d2
        if not (abs(step - z) < _CLUSTER_RADIUS and abs(step) < radius):
            break
        w_s, d1_s, d2_s = psi.jet(step)
        if not abs(d1_s) < abs(d1):
            break
        z, w, d1, d2 = step, w_s, d1_s, d2_s
    return z, w, d1


def beta_zero_search(data: HolomorphicData, radius: float = 0.9) -> BetaZeroReport:
    """All zeros of the contact form inside |z| < radius, with a
    certified count.

    On the canonical slice beta vanishes exactly where psi' = 0 and
    Re psi = 0.  The zeros of psi' inside the circle are counted and
    located by the argument principle (Delves and Lyness): from one jet
    of psi at N nodes z_j on the circle, the trapezoid sums

        s_k = (1/N) sum_j z_j^(k+1) psi''(z_j) / psi'(z_j)

    are the power sums of the zeros, and s_0 is their number n.  s_0
    must lie within _WINDING_TOL of an integer and of the sum over every
    other node, and |psi'| must stay clear of 0 on the circle; else
    ZeroCountError.  Newton's identities turn s_1, ..., s_n into a
    polynomial whose roots are the zeros.  Roots linked by steps under
    _CLUSTER_RADIUS make one zero of their multiplicity, at their
    centroid, which a few Newton steps polish; zeros that polish to
    within _CLUSTER_RADIUS of each other merge.  The multiplicities of
    the zeros confirmed by |psi'| must add up to n, else ZeroCountError.
    The zeros of beta are those where Re psi vanishes as well.

    A zero of psi' of multiplicity six or more splits, in double
    precision, into roots too far apart to merge: it comes back as
    several simple zeros within about 1e-2 of it.
    """
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

    located = []  # (z, multiplicity, psi there)
    pending = _clusters(_power_sum_roots(power_sums))
    while pending:
        centre, mult = pending.pop()
        if abs(centre) >= radius:
            continue
        z, w, dpsi = _polish(psi, centre, mult, radius)
        if abs(dpsi) > _ZERO_FLOOR * scale:
            continue
        near = [t for t in located if abs(t[0] - z) < _CLUSTER_RADIUS]
        if near:
            # the roots of one multiple zero spread wider than the
            # cluster radius and polished towards it: merge them
            located = [t for t in located if t not in near]
            total = mult + sum(t[1] for t in near)
            pending.append(((mult * z + sum(t[1] * t[0] for t in near)) / total, total))
        else:
            located.append((z, mult, w))
    found = sum(mult for _, mult, _ in located)
    if found != n:
        raise ZeroCountError(
            f"located {found} zeros of psi' inside |z| = {radius}, the winding number is {n}")
    located.sort(key=lambda t: (round(abs(t[0]), 9), math.atan2(t[0].imag, t[0].real)))

    zeros = [z for z, _, w in located if abs(w.real) < _RE_PSI_TOL]
    data.fill(zeros)
    norms = tuple(
        float(np.linalg.norm(data.slice_frame(z, "canonical").beta)) for z in zeros
    )
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
