"""Path-length experiments on the covering disc and its slices.

Curves are measured in five metrics, selected by tag: plain Euclidean
("euclid"), the spherical pullback through the covering map ("sphere"),
the quotient metric on the disc ("disc"), and the two slice metrics
("g3", "gs").  On top of plain lengths the module runs truncation-ladder
sweeps toward boundary targets, extracts the separation constants of the
truncated-triangle hexagon, bounds lengths below by the total variation
of log Im psi, and measures horizontal (kernel-of-beta) lengths where
the two slice metrics must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .ansatz import HolomorphicData
from .covering import (
    DEFAULT_BALL_RADIUS,
    halfplane_side_points,
    hororegion_test,
    lambda_map,
    punctures,
    sphere_distance,
    stereo_lift,
)
from .errors import GHLabError, PathError, PunctureError, RegionError
from .holo import MuSpec, apply_mu
from .tessellation import Cusp

METRIC_TAGS = ("euclid", "sphere", "disc", "g3", "gs")

_FD_STEP = 1e-4


@dataclass(frozen=True)
class ParamPath:
    """Piecewise-smooth parametrized path sampled on [0, 1].

    ``fn`` maps a parameter to coordinates: (u, v) for disc paths or
    (u, v, theta) for slice paths.  ``breaks`` lists interior parameters
    where smoothness may fail (concatenation seams); velocity stencils
    never straddle them.  ``proper`` marks paths running to the disc
    boundary as s -> 1, which must then only be sampled on [0, 1).
    """

    fn: object
    dim: int = 2
    proper: bool = False
    breaks: tuple = ()

    def at(self, s: float) -> np.ndarray:
        out = np.asarray(self.fn(float(s)), dtype=float)
        if out.shape != (self.dim,):
            raise ValueError(f"sampler returned shape {out.shape}, expected ({self.dim},)")
        return out

    def point(self, s: float) -> complex:
        out = self.at(s)
        return complex(out[0], out[1])

    # ---- constructors --------------------------------------------------

    @classmethod
    def from_complex(cls, zfn, proper: bool = False) -> "ParamPath":
        def fn(s: float, zf=zfn) -> np.ndarray:
            z = complex(zf(s))
            return np.array([z.real, z.imag])

        return cls(fn=fn, dim=2, proper=proper)

    @classmethod
    def segment(cls, z0: complex, z1: complex) -> "ParamPath":
        z0, z1 = complex(z0), complex(z1)
        return cls.from_complex(lambda s: z0 + s * (z1 - z0))

    @classmethod
    def circle(cls, center: complex, radius: float, turns: float = 1.0,
               phase: float = 0.0) -> "ParamPath":
        center = complex(center)

        def zfn(s: float) -> complex:
            ang = phase + 2.0 * math.pi * turns * s
            return center + radius * complex(math.cos(ang), math.sin(ang))

        return cls.from_complex(zfn)

    @classmethod
    def radial(cls, target: complex) -> "ParamPath":
        """Straight run from the origin to the boundary point target/|target|."""
        t = complex(target)
        if abs(t) == 0:
            raise ValueError("radial target must be nonzero")
        t /= abs(t)
        return cls.from_complex(lambda s: s * t, proper=True)

    @classmethod
    def radial_window(cls, target: complex, s_lo: float, s_hi: float) -> "ParamPath":
        """The radius-[s_lo, s_hi] portion of the radial path, on [0, 1]."""
        t = complex(target)
        t /= abs(t)
        if not 0.0 <= s_lo < s_hi < 1.0:
            raise ValueError(f"window [{s_lo}, {s_hi}] outside [0, 1)")
        return cls.from_complex(lambda s: (s_lo + (s_hi - s_lo) * s) * t)

    @classmethod
    def slice_path(cls, fn) -> "ParamPath":
        return cls(fn=fn, dim=3)

    @classmethod
    def slice_segment(cls, p0, p1) -> "ParamPath":
        a = np.asarray(p0, dtype=float)
        b = np.asarray(p1, dtype=float)
        if a.shape != (3,) or b.shape != (3,):
            raise ValueError("slice endpoints need (u, v, theta) coordinates")
        return cls(fn=lambda s: a + s * (b - a), dim=3)

    @classmethod
    def theta_circle(cls, z0: complex, turns: float = 1.0) -> "ParamPath":
        """Circle-fiber loop over a fixed disc point."""
        z0 = complex(z0)

        def fn(s: float) -> np.ndarray:
            return np.array([z0.real, z0.imag, 2.0 * math.pi * turns * s])

        return cls(fn=fn, dim=3)

    @classmethod
    def constant(cls, point) -> "ParamPath":
        vec = np.atleast_1d(np.asarray(point, dtype=float))
        if np.iscomplexobj(point) or isinstance(point, complex):
            z = complex(point)
            vec = np.array([z.real, z.imag])
        return cls(fn=lambda s: vec.copy(), dim=len(vec))

    def concat(self, other: "ParamPath") -> "ParamPath":
        if self.dim != other.dim:
            raise ValueError("cannot concatenate paths of different dimension")

        def fn(s: float, a=self.fn, b=other.fn) -> np.ndarray:
            if s < 0.5:
                return np.asarray(a(2.0 * s), dtype=float)
            return np.asarray(b(2.0 * s - 1.0), dtype=float)

        breaks = tuple(x / 2.0 for x in self.breaks) + (0.5,) + tuple(
            0.5 + x / 2.0 for x in other.breaks
        )
        return ParamPath(fn=fn, dim=self.dim, proper=other.proper, breaks=breaks)


def _velocity(path: ParamPath, s: float, lo: float, hi: float) -> np.ndarray:
    """Second-order velocity whose stencil stays inside [lo, hi]."""
    h = min(_FD_STEP, 0.25 * (hi - lo))
    if not h > 0.0:
        raise ValueError(f"piece [{lo}, {hi}] has no interior")
    if s - lo < h:
        f0, f1, f2 = path.at(s), path.at(s + h), path.at(s + 2.0 * h)
        return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
    if hi - s < h:
        f0, f1, f2 = path.at(s), path.at(s - h), path.at(s - 2.0 * h)
        return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)
    return (path.at(s + h) - path.at(s - h)) / (2.0 * h)


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 28):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or np.max(np.abs(err)) < 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _simpson_recurse(f, a, m, fa, flm, fm, left, half, depth - 1) + (
        _simpson_recurse(f, m, b, fm, frm, fb, right, half, depth - 1)
    )


# Irrationally spaced panel seeds (fractional parts of multiples of the
# golden ratio).  Dyadic-only probing can alias against integrands whose
# zeros sit at rational parameters, e.g. speeds with a rotational
# symmetry; these nodes never line up with such patterns.
_PANEL_SEEDS = (0.0, 0.090170, 0.236068, 0.472136, 0.618034, 0.708204, 0.854102, 1.0)


def _integrate(path: ParamPath, integrand, lo: float, hi: float, tol: float):
    """Integrate integrand(s, velocity) piecewise between smoothness breaks."""
    cuts = [lo] + [b for b in sorted(path.breaks) if lo < b < hi] + [hi]
    total = None
    for a, b in zip(cuts[:-1], cuts[1:]):
        def f(s: float, a=a, b=b):
            return np.atleast_1d(integrand(s, _velocity(path, s, a, b)))

        piece_tol = tol * max((b - a) / (hi - lo), 1e-3)
        for sa, sb in zip(_PANEL_SEEDS[:-1], _PANEL_SEEDS[1:]):
            na, nb = a + (b - a) * sa, a + (b - a) * sb
            part = _adaptive_simpson(f, na, nb, piece_tol * (sb - sa))
            total = part if total is None else total + part
    return total


def _speed_fn(tag: str, data: HolomorphicData | None, dim: int):
    if tag not in METRIC_TAGS:
        raise ValueError(f"unknown metric tag {tag!r}")
    if tag == "euclid":
        return lambda s, p, v: float(np.linalg.norm(v))
    if data is None:
        raise ValueError(f"metric tag {tag!r} needs holomorphic data")
    if tag in ("sphere", "disc") and dim != 2:
        raise ValueError(f"metric tag {tag!r} measures disc paths (dim 2)")
    if tag in ("g3", "gs") and dim != 3:
        raise ValueError(f"metric tag {tag!r} measures slice paths (dim 3)")

    if tag == "sphere":
        def speed(s, p, v):
            zc = complex(p[0], p[1])
            try:
                m = data.cover.metric_factor(zc)
            except PunctureError:
                if abs(zc) >= 1.0:
                    raise
                # numerically at a cusp: the conformal factor decays like
                # exp(-c/eps) there and is far below double precision
                m = 0.0
            return math.sqrt(max(m, 0.0)) * math.hypot(v[0], v[1])
        return speed

    if tag == "disc":
        def speed(s, p, v):
            G = data.g_sigma(complex(p[0], p[1]))
            return math.sqrt(max(float(v @ G @ v), 0.0))
        return speed

    def speed(s, p, v):
        frame = data.slice_frame(complex(p[0], p[1]))
        M = frame.g3 if tag == "g3" else frame.g_s
        return math.sqrt(max(float(v @ M @ v), 0.0))

    return speed


def path_length(path: ParamPath, tag: str, data: HolomorphicData | None = None,
                upto: float = 1.0, tol: float = 1e-6) -> float:
    """Length of path restricted to [0, upto] in the tagged metric.

    Adaptive Simpson quadrature of the pointwise speed, absolute
    tolerance tol; velocities by finite differences over parameter step
    1e-4.  Metric evaluation failures along the path surface as
    PathError.
    """
    if not 0.0 < upto <= 1.0:
        raise ValueError(f"upto = {upto} outside (0, 1]")
    if path.proper and upto >= 1.0:
        raise ValueError("proper paths must be truncated below 1")
    speed = _speed_fn(tag, data, path.dim)

    def integrand(s: float, v: np.ndarray) -> float:
        p = path.at(s)
        try:
            return speed(s, p, v)
        except PathError:
            raise
        except GHLabError as exc:
            raise PathError(f"metric evaluation failed at s = {s}: {exc}") from exc

    return float(_integrate(path, integrand, 0.0, upto, tol)[0])


# ---- truncation-ladder sweeps ------------------------------------------

DEFAULT_LADDER = (0.9, 0.99, 0.999, 0.9999, 0.99999)


@dataclass(frozen=True)
class LengthProfile:
    """Accumulated length L(r) along a truncation ladder, one metric tag."""

    tag: str
    entries: tuple

    def __post_init__(self):
        last = 0.0
        for r, length in self.entries:
            if length < last - 1e-9:
                raise ValueError(f"length decreased at r = {r}")
            last = length

    def increments(self) -> list:
        vals = [length for _, length in self.entries]
        return [b - a for a, b in zip(vals[:-1], vals[1:])]


@dataclass(frozen=True)
class SweepReport:
    profile: LengthProfile
    verdict: str
    floor: float
    target: complex


def divergence_sweep(data: HolomorphicData, target: complex, tag: str,
                     ladder=DEFAULT_LADDER, floor: float = 0.05,
                     tol: float = 1e-6) -> SweepReport:
    """Radial-path length ladder toward a boundary target, classified.

    The verdict is "divergent-evidence" when every ladder increment
    exceeds the floor, "bounded-evidence" otherwise.  A desk-scale
    surrogate: nothing here proves infinite length, it only reports
    whether growth keeps clearing a fixed positive bar.
    """
    if not all(0.0 < a < b < 1.0 for a, b in zip(ladder[:-1], ladder[1:])):
        raise ValueError("ladder must be strictly increasing inside (0, 1)")
    path = ParamPath.radial(target)
    speed = _speed_fn(tag, data, 2)

    def integrand(s: float, v: np.ndarray) -> float:
        p = path.at(s)
        try:
            return speed(s, p, v)
        except PathError:
            raise
        except GHLabError as exc:
            raise PathError(f"metric evaluation failed at s = {s}: {exc}") from exc

    entries = []
    total = 0.0
    lo = 0.0
    for r in ladder:
        total += float(_integrate(path, integrand, lo, r, tol)[0])
        entries.append((r, total))
        lo = r
    profile = LengthProfile(tag=tag, entries=tuple(entries))
    grows = all(d > floor for d in profile.increments())
    verdict = "divergent-evidence" if grows else "bounded-evidence"
    return SweepReport(profile=profile, verdict=verdict, floor=floor,
                       target=path.point(0.5) / abs(path.point(0.5)))


def log_variation_check(path: ParamPath, data: HolomorphicData,
                        upto: float = 1.0, tol: float = 1e-6,
                        region: int | None = None,
                        ball_radius: float = DEFAULT_BALL_RADIUS,
                        region_samples: int = 64):
    """Disc-metric length against the total-variation lower bound.

    Returns (lhs, rhs) with lhs the g_D length of the path and rhs
    (1/sqrt 2) times the total variation of log Im psi along it; the
    sector position of psi makes lhs >= rhs up to quadrature slack.
    With region set to a puncture class, every sample of the path must
    lie in the doubled ball region of that class, else RegionError.
    """
    if path.dim != 2:
        raise ValueError("log variation check wants a disc path")
    if region is not None:
        for s in np.linspace(0.0, upto, region_samples):
            member, _ = hororegion_test(data.cover, path.point(s), region,
                                        r=ball_radius, doubled=True)
            if not member:
                raise RegionError(
                    f"path left the doubled class-{region} region at s = {s}"
                )
    lhs = path_length(path, "disc", data, upto=upto, tol=tol)

    def variation(s: float, v: np.ndarray) -> float:
        z = path.point(s)
        try:
            psi, dpsi, _ = data.psi.jet(z)
        except PathError:
            raise
        except GHLabError as exc:
            raise PathError(f"psi evaluation failed at s = {s}: {exc}") from exc
        zdot = complex(v[0], v[1])
        return abs((dpsi * zdot).imag) / psi.imag

    rhs = float(_integrate(path, variation, 0.0, upto, tol)[0]) / math.sqrt(2.0)
    return lhs, rhs


# ---- horizontal (kernel-of-beta) lengths -------------------------------


@dataclass(frozen=True)
class HorizontalReport:
    g3_length: float
    gs_length: float
    max_beta: float
    rerouted: bool


def horizontal_length(path: ParamPath, data: HolomorphicData,
                      upto: float = 1.0, tol: float = 1e-6) -> HorizontalReport:
    """Lengths of a slice path after projecting velocities into ker beta.

    The projection is g3-orthogonal; where beta degenerates (its metric
    square below 1e-18, i.e. at a contact-form zero) the velocity is
    kept as is and the report is flagged rerouted.  Both slice metrics
    are integrated over the same quadrature points, so their agreement
    on horizontal velocities is preserved exactly.
    """
    if path.dim != 3:
        raise ValueError("horizontal length wants a slice path (u, v, theta)")
    state = {"max_beta": 0.0, "rerouted": False}

    def integrand(s: float, v: np.ndarray) -> np.ndarray:
        p = path.at(s)
        try:
            frame = data.slice_frame(complex(p[0], p[1]))
        except PathError:
            raise
        except GHLabError as exc:
            raise PathError(f"slice frame failed at s = {s}: {exc}") from exc
        G3 = frame.g3
        b = frame.beta
        Gb = np.linalg.solve(G3, b)
        q = float(b @ Gb)
        if q < 1e-18:
            vp = v
            state["rerouted"] = True
        else:
            vp = v - (float(b @ v) / q) * Gb
        state["max_beta"] = max(state["max_beta"], abs(float(b @ vp)))
        return np.array([
            math.sqrt(max(float(vp @ G3 @ vp), 0.0)),
            math.sqrt(max(float(vp @ frame.g_s @ vp), 0.0)),
        ])

    out = _integrate(path, integrand, 0.0, upto, tol)
    return HorizontalReport(g3_length=float(out[0]), gs_length=float(out[1]),
                            max_beta=state["max_beta"], rerouted=state["rerouted"])


# ---- hexagon separation constants --------------------------------------


@dataclass(frozen=True)
class RegionConstants:
    """Positive separation constants of the truncated-triangle hexagon.

    c1: least spherical distance between distinct truncated triangle
    sides; c2: distance between the puncture balls; c3: ball radius.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


_BASE_SIDES = (
    (Cusp(1, 0), Cusp(0, 1)),
    (Cusp(0, 1), Cusp(1, 1)),
    (Cusp(1, 1), Cusp(1, 0)),
)


def _side_point(c1: Cusp, c2: Cusp, y: float) -> np.ndarray | None:
    tau = halfplane_side_points(c1, c2, 1, y, y)[0]
    try:
        w = lambda_map(tau)
    except GHLabError:
        return None
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        return None
    if abs(w) > 1e100:
        return np.array([0.0, 0.0, 1.0])
    return stereo_lift(w)


def _puncture_gap(c1: Cusp, c2: Cusp, y: float, r: float) -> float:
    """Distance from the side point at parameter y to the nearest
    puncture, minus r; negative means inside a ball (or unevaluable)."""
    p = _side_point(c1, c2, y)
    if p is None:
        return -r
    return min(sphere_distance(p, q) for q in punctures()) - r


def _truncated_side(c1: Cusp, c2: Cusp, r: float, n: int) -> np.ndarray:
    ys = np.exp(np.linspace(math.log(1e-3), math.log(1e3), n))
    gaps = np.array([_puncture_gap(c1, c2, y, r) for y in ys])
    inside = np.nonzero(gaps > 0.0)[0]
    if len(inside) == 0:
        raise ValueError("truncation removed the whole side; radius too large")
    lo_i, hi_i = inside[0], inside[-1]

    def gap(logy: float) -> float:
        return _puncture_gap(c1, c2, math.exp(logy), r)

    log_lo = math.log(ys[lo_i])
    if lo_i > 0:
        log_lo = brentq(gap, math.log(ys[lo_i - 1]), math.log(ys[lo_i]), xtol=1e-13)
    log_hi = math.log(ys[hi_i])
    if hi_i < n - 1:
        log_hi = brentq(gap, math.log(ys[hi_i]), math.log(ys[hi_i + 1]), xtol=1e-13)

    grid = np.exp(np.linspace(log_lo, log_hi, n))
    pts = [_side_point(c1, c2, y) for y in grid]
    return np.array([p for p in pts if p is not None])


def _pairwise_min(a: np.ndarray, b: np.ndarray) -> float:
    dots = np.clip(a @ b.T, -1.0, 1.0)
    return float(np.arccos(dots).min())


def hexagon_constants(r: float = DEFAULT_BALL_RADIUS, n_side: int = 512) -> RegionConstants:
    """Separation constants of the base triangle with puncture balls removed.

    c3 is the ball radius itself and c2 the least pairwise puncture
    distance minus two radii, both exact.  c1 discretizes the three
    truncated side images on the sphere (n_side points each, ball
    boundaries located by root finding) and minimizes pairwise distance
    between distinct sides.
    """
    if not 0.0 < r < math.pi / 4:
        raise ValueError(f"ball radius {r} outside (0, pi/4)")
    P = punctures()
    pair_min = min(
        sphere_distance(P[i], P[j]) for i in range(3) for j in range(i + 1, 3)
    )
    sides = [_truncated_side(c1, c2, r, n_side) for c1, c2 in _BASE_SIDES]
    c1 = min(
        _pairwise_min(sides[i], sides[j])
        for i in range(3)
        for j in range(i + 1, 3)
    )
    return RegionConstants(c1=c1, c2=pair_min - 2.0 * r, c3=r)


# ---- even-side crossing counts -----------------------------------------


@dataclass(frozen=True)
class CrossingReport:
    """Transversal crossings of the even-side great circle, labelled by
    which truncated side arc was hit; count is the number of consecutive
    distinct-label pairs, each of which forces at least c1 of spherical
    length."""

    count: int
    labels: tuple
    params: tuple


def _arc_label(p: np.ndarray) -> int:
    if p[0] < 0.0:
        return 2
    return 0 if p[2] < 0.0 else 1


def even_side_crossings(path: ParamPath, data: HolomorphicData,
                        r: float = DEFAULT_BALL_RADIUS, upto: float = 1.0,
                        samples: int = 2048) -> CrossingReport:
    if path.dim != 2:
        raise ValueError("crossing count wants a disc path")

    def lift(s: float) -> np.ndarray:
        try:
            return data.cover.value(path.point(s)).p
        except GHLabError as exc:
            raise PathError(f"covering evaluation failed at s = {s}: {exc}") from exc

    svals = np.linspace(0.0, upto, samples)
    heights = np.array([lift(s)[1] for s in svals])
    labels = []
    params = []
    for k in range(samples - 1):
        ya, yb = heights[k], heights[k + 1]
        if ya == 0.0 or ya * yb >= 0.0:
            continue
        s_star = brentq(lambda s: lift(s)[1], svals[k], svals[k + 1], xtol=1e-12)
        p = lift(s_star)
        if min(sphere_distance(p, q) for q in punctures()) < r:
            continue
        labels.append(_arc_label(p))
        params.append(s_star)
    count = sum(1 for a, b in zip(labels[:-1], labels[1:]) if a != b)
    return CrossingReport(count=count, labels=tuple(labels), params=tuple(params))


# ---- radial-graph fingerprints -----------------------------------------


def fingerprint_samples(n: int = 100) -> list:
    """Deterministic interior sample spiral shared by fingerprint runs."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    pts = []
    for k in range(n):
        rad = 0.85 * math.sqrt((k + 0.5) / n)
        ang = golden * k
        pts.append(rad * complex(math.cos(ang), math.sin(ang)))
    return pts


def radial_graph_fingerprint(data: HolomorphicData, samples) -> np.ndarray:
    """Im psi over the sample set: the height function whose graph over
    the disc is the geometry's radial graph."""
    return np.array([data.psi(complex(z)).imag for z in samples])


def fingerprint_distance(f1: np.ndarray, f2: np.ndarray) -> float:
    a = np.asarray(f1, dtype=float)
    b = np.asarray(f2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("fingerprints need a common sample set")
    return float(np.max(np.abs(a - b))) if len(a) else 0.0


def mu_variant(data: HolomorphicData, mu: MuSpec, samples=None) -> HolomorphicData:
    """Same covering chart, psi post-composed with mu (validated)."""
    return replace(data, psi=apply_mu(mu, data.psi, samples))
