"""Path-length experiments on the covering disc and its slices.

Curves are measured in five metrics, selected by tag: plain Euclidean
("euclid"), the spherical pullback through the covering map ("sphere"),
the quotient metric on the disc ("disc"), and the two slice metrics
("g3", "gs").  On top of plain lengths the module runs truncation-ladder
sweeps toward boundary targets, extracts the separation constants of the
truncated-triangle hexagon, bounds lengths below by the total variation
of log Im psi, and measures horizontal (kernel-of-beta) lengths where
the two slice metrics must agree.  Every length is the integral of a
pointwise speed on adaptive 8-node Gauss-Legendre panels, halved until
a panel and its two halves agree to within its share of the tolerance.
Paths, speeds and integrands take arrays, and one driver halves the
panels of many intervals in rounds: a sweep's rungs and targets share one
speed call per round, and its metric tags are columns of that speed.  A
sweep runs its radii at s = 1 - 10^-t, each rung a unit interval of t.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .ansatz import HolomorphicData
from .covering import (
    DEFAULT_BALL_RADIUS,
    _lambda_batch,
    _stereo_lift,
    check_ball_radius,
    geodesic_point,
    hororegion_test,
    punctures,
    sphere_distance,
)
from .errors import GHLabError, PathError, RegionError
from .tessellation import Cusp

METRIC_TAGS = ("euclid", "sphere", "disc", "g3", "gs")


def _unit_target(target: complex) -> complex:
    """target/|target|, the boundary point a radial path runs to."""
    t = complex(target)
    if abs(t) == 0:
        raise ValueError("radial target must be nonzero")
    return t / abs(t)


@dataclass(frozen=True, eq=False)
class ParamPath:
    """The straight path start + s (end - start), s in [0, 1].

    Coordinates are (u, v) for disc paths or (u, v, theta) for slice
    paths.  ``proper`` marks paths running to the disc boundary as
    s -> 1, which must then only be sampled on [0, 1).  Paths compare by
    identity: the quadrature driver numbers them so.
    """

    start: np.ndarray
    end: np.ndarray
    proper: bool = False

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        object.__setattr__(self, "end", np.asarray(self.end, dtype=float))

    @property
    def dim(self) -> int:
        return len(self.start)

    def at(self, s) -> np.ndarray:
        """The coordinates at s, one parameter or an array of them, on a
        new last axis."""
        return self.start + np.multiply.outer(np.asarray(s, dtype=float), self.end - self.start)

    def vel(self, s) -> np.ndarray:
        """The constant velocity end - start at each s."""
        d = self.end - self.start
        return np.full(np.shape(s) + d.shape, d)

    def point(self, s):
        """The disc point u + i v at s, one parameter or an array."""
        return _disc(self.at(s))

    # ---- constructors --------------------------------------------------

    @classmethod
    def radial(cls, target: complex) -> "ParamPath":
        """Straight run from the origin to the boundary point target/|target|."""
        t = _unit_target(target)
        return cls([0.0, 0.0], [t.real, t.imag], proper=True)

    @classmethod
    def radial_window(cls, target: complex, s_lo: float, s_hi: float) -> "ParamPath":
        """The radius-[s_lo, s_hi] portion of the radial path, on [0, 1]."""
        t = _unit_target(target)
        if not 0.0 <= s_lo < s_hi < 1.0:
            raise ValueError(f"window [{s_lo}, {s_hi}] outside [0, 1)")
        return cls([s_lo * t.real, s_lo * t.imag], [s_hi * t.real, s_hi * t.imag])

    @classmethod
    def slice_segment(cls, p0, p1) -> "ParamPath":
        if np.shape(p0) != (3,) or np.shape(p1) != (3,):
            raise ValueError("slice endpoints need (u, v, theta) coordinates")
        return cls(p0, p1)

    @classmethod
    def theta_circle(cls, z0: complex, turns: float = 1.0) -> "ParamPath":
        """Circle-fiber loop over a fixed disc point."""
        z0 = complex(z0)
        return cls([z0.real, z0.imag, 0.0], [z0.real, z0.imag, 2.0 * math.pi * turns])


@dataclass(frozen=True, eq=False)
class _LogRadial:
    """The path ParamPath.radial ``radial`` at s = 1 - 10^-t: t in
    [k, k + 1] runs over s in [1 - 10^-k, 1 - 10^-(k+1)], and failures
    name s."""

    radial: ParamPath
    dim = 2

    @staticmethod
    def s(t):
        return 1.0 - 10.0 ** -np.asarray(t, dtype=float)

    def at(self, t) -> np.ndarray:
        return self.radial.at(self.s(t))

    def vel(self, t) -> np.ndarray:
        rate = math.log(10.0) * 10.0 ** -np.asarray(t, dtype=float)
        return self.radial.vel(t) * rate[..., None]


def _disc(x: np.ndarray):
    """The disc points u + i v of coordinates x, (u, v, ...) on the last axis."""
    return x[..., 0] + 1j * x[..., 1]


# Nodes and weights of the Gauss-Legendre rule on each panel: numpy's
# leggauss(8), as literals of the same doubles.  A panel at the depth cap
# whose gap is still above its share raises (a jump inside the interval).  A
# round refines at most _ROUND_PANELS panels, so that a tolerance no panel
# can meet costs time but not memory.
_GL_NODES = np.array((-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                      -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                      0.7966664774136267, 0.9602898564975362))
_GL_WEIGHTS = np.array((0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                        0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                        0.22238103445337443, 0.10122853629037706))
_MAX_DEPTH = 28
_ROUND_PANELS = 1024
# A panel's noise floor is _NOISE of its absolute sums (about 1e6 ulps;
# a sweep's sphere speed at 1 - r = 1e-5 scatters by up to 2.6e-11 of
# them).  A gap under it, no smaller per unit of s than its parent's, is
# rounding in the speed, which halving cannot bring under a share of tol.
_NOISE = 2.0 ** -32


def _integrate_all(jobs, integrand, tol: float, what: str) -> np.ndarray:
    """Integrate integrand(s, points, velocities), N values or an (N, k)
    array of k columns at N nodes, over each job (path, lo, hi) to
    absolute tolerance tol > 0: one row of k sums per job, and no rows for
    no jobs.

    Each [lo, hi] starts as one panel.  A panel is accepted as the sum
    over its two halves when that sum is within the panel's share of tol
    of the panel's own Gauss-Legendre sum in every column; otherwise both
    halves are split again, each carrying its sums.  The halving runs in
    rounds over the open panels of every job: one integrand call per
    round, on both halves of each panel, with each path sampled once over
    all of its panels.  A job sums its accepted halves left to right, so
    its sums do not depend on the other jobs.  Evaluation failures, and a
    panel sum that is not finite, surface as PathError in the round they
    happen, naming what failed, the path and job, and an s interval
    holding the failing node: the integrand is run again on each job's
    own nodes to find it.  So does a gap above its share that stalls at
    the panel's noise floor (see _NOISE), rather than halving on to
    _MAX_DEPTH, and so does a gap still above its share at _MAX_DEPTH.
    A path with a map ``s`` of its parameter (_LogRadial) has failures
    named in s."""
    if not tol > 0:
        raise ValueError(f"tol = {tol} must be positive")
    if not jobs:
        return np.zeros((0, 0))
    slot = {}
    on_path = np.array([slot.setdefault(path, len(slot)) for path, _, _ in jobs])
    paths = list(slot)
    lo, hi = np.array([job[1:] for job in jobs], dtype=float).T

    def failure(j, a, b, why):
        a, b = getattr(paths[on_path[j]], "s", np.asarray)(np.array([a, b])).tolist()
        return PathError(f"{what} failed on path {on_path[j]} (job {j}) for s in [{a}, {b}]: {why}")

    def gauss(job, p, q):
        """The Gauss-Legendre sums of the panels [p, q] of the jobs job."""
        half = 0.5 * (q - p)
        s = (p[:, None] + half[:, None] * (_GL_NODES + 1.0)).ravel()
        node_job = np.repeat(job, _GL_NODES.size)
        node_path = on_path[node_job]
        x = np.empty(s.shape + (paths[0].dim,))
        v = np.empty_like(x)
        for k in set(on_path[job].tolist()):  # each path sampled once, on its nodes
            at = node_path == k
            s_k = s[at]
            x[at], v[at] = paths[k].at(s_k), paths[k].vel(s_k)
        try:
            vals = np.asarray(integrand(s, x, v), dtype=float)
        except PathError:
            raise
        except GHLabError as exc:
            # name the first job whose own nodes fail again
            for j in np.unique(job):
                at = node_job == j
                try:
                    integrand(s[at], x[at], v[at])
                except GHLabError as again:
                    raise failure(j, s[at].min(), s[at].max(), again) from again
            raise PathError(f"{what} failed: {exc}") from exc
        sums = half[:, None] * (_GL_WEIGHTS @ vals.reshape(p.size, _GL_NODES.size, -1))
        # a NaN gap never converges: without this it halves to _MAX_DEPTH
        bad = ~np.isfinite(sums).all(axis=-1)
        if bad.any():
            i = int(bad.argmax())
            raise failure(job[i], p[i], q[i], "the panel sum is not finite")
        return sums

    def chunks(panels):
        """The panels (job, p, q, sum, depth, parent's gap), in rounds of
        at most _ROUND_PANELS."""
        return [tuple(a[k:k + _ROUND_PANELS] for a in panels)
                for k in range(0, panels[0].size, _ROUND_PANELS)]

    job = np.arange(len(jobs))
    whole = gauss(job, lo, hi)
    rounds = chunks((job, lo, hi, whole, np.zeros(job.size, dtype=int), np.full_like(whole, np.inf)))
    accepted = []
    while rounds:
        job, p, q, whole, depth, before = rounds.pop()
        m = 0.5 * (p + q)
        # both halves of each panel, in order: the next round's panels
        halves = np.repeat(job, 2), np.stack((p, m), 1).ravel(), np.stack((m, q), 1).ravel()
        sums = gauss(*halves)
        left, right = sums[0::2], sums[1::2]
        gaps = np.abs(left + right - whole)
        share = tol * (q - p) / (hi - lo)[job]
        floor = _NOISE * (np.abs(left) + np.abs(right))
        noisy = (gaps > share[:, None]) & (gaps <= floor) & (2.0 * gaps >= before)
        if noisy.any():
            i, k = np.argwhere(noisy)[0]
            raise failure(job[i], p[i], q[i], f"the gap {gaps[i, k]} of column {k} is above its "
                          f"share {share[i]} of tol but under the noise floor {floor[i, k]}")
        done = gaps.max(axis=-1) <= share
        capped = ~done & (depth >= _MAX_DEPTH)
        if capped.any():
            i = int(capped.argmax())
            raise failure(job[i], p[i], q[i], f"the gap {gaps[i].max()} is above its share "
                          f"{share[i]} of tol at the depth cap {_MAX_DEPTH}")
        accepted.append((job[done], p[done], left[done], right[done]))
        again = np.repeat(~done, 2)
        split = (*(a[again] for a in halves), sums[again], np.repeat(depth + 1, 2)[again],
                 np.repeat(gaps, 2, axis=0)[again])
        rounds += chunks(split)

    # each job adds its accepted halves from 0.0 in s order, the order of
    # the depth-first stack, so that no other job moves its rounding; in
    # Python floats, whose sums round as numpy's float64 sums do
    job, p, left, right = (np.concatenate(a) for a in zip(*accepted))
    order = np.lexsort((p, job))
    totals = [[0.0] * left.shape[-1] for _ in jobs]
    for j, lhalf, rhalf in zip(job[order].tolist(), left[order].tolist(), right[order].tolist()):
        totals[j] = [t + a + b for t, a, b in zip(totals[j], lhalf, rhalf)]
    return np.array(totals)


def _quadratic(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """sqrt(v M v) over a batch of velocities and metrics, negative
    rounding read as 0."""
    return np.sqrt(np.maximum(np.einsum("ni,nij,nj->n", v, M, v), 0.0))


def _speed_fn(tags, data: HolomorphicData | None, dim: int):
    """speed(s, points, velocities) over arrays: an (N, len(tags)) array,
    one column of speeds per metric tag.  One call evaluates the cover
    once for all of its nodes if a sphere or disc tag needs it, and psi's
    first-order jet only for the disc tag."""
    for tag in tags:
        if tag not in METRIC_TAGS:
            raise ValueError(f"unknown metric tag {tag!r}")
        if tag != "euclid" and data is None:
            raise ValueError(f"metric tag {tag!r} needs holomorphic data")
        if tag in ("sphere", "disc") and dim != 2:
            raise ValueError(f"metric tag {tag!r} measures disc paths (dim 2)")
        if tag in ("g3", "gs") and dim != 3:
            raise ValueError(f"metric tag {tag!r} measures slice paths (dim 3)")
    covered = not {"sphere", "disc"}.isdisjoint(tags)

    def metric(tag, z, v, m):
        """The speeds in one tag's metric, m the conformal factor at z
        for the sphere and disc tags."""
        if tag == "euclid":
            return np.linalg.norm(v, axis=-1)
        if tag == "sphere":
            return np.sqrt(np.maximum(m, 0.0)) * np.hypot(v[:, 0], v[:, 1])
        if tag == "disc":
            return _quadratic(v, data.g_sigma(z, m))
        frame = data.slice_frames(z)
        return _quadratic(v, frame.g3 if tag == "g3" else frame.g_s)

    def speed(s, x, v):
        z = _disc(x)
        m = data.cover.metric_factors_in_disc(z) if covered else None
        return np.stack([metric(tag, z, v, m) for tag in tags], axis=-1)

    return speed


def path_length(path: ParamPath, tag: str, data: HolomorphicData | None = None,
                upto: float = 1.0, tol: float = 1e-6) -> float:
    """Length of path restricted to [0, upto] in the tagged metric.

    Adaptive Gauss-Legendre quadrature of the pointwise speed, absolute
    tolerance tol, with the path's exact velocity.  Metric evaluation
    failures along the path surface as PathError, and so does a tol
    under the rounding of the speed (see _NOISE).
    """
    if not 0.0 < upto <= 1.0:
        raise ValueError(f"upto = {upto} outside (0, 1]")
    if path.proper and upto >= 1.0:
        raise ValueError("proper paths must be truncated below 1")
    speed = _speed_fn([tag], data, path.dim)
    return float(_integrate_all([(path, 0.0, upto)], speed, tol, "metric evaluation")[0, 0])


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


def divergence_sweep(data: HolomorphicData, targets, tags,
                     floor: float = 0.05, tol: float = 1e-6) -> dict:
    """Radial-path length ladders toward each of the boundary targets,
    classified: {tag: [SweepReport per target]} for the metric tags of
    tags, {} for no tags.

    The lengths are taken at the radii of DEFAULT_LADDER, every rung of
    every target in one adaptive quadrature whose speed has one column
    per tag, so that a round evaluates the cover once for all tags, at
    radius s = 1 - 10^-t: rung k is t in [k, k + 1].  A panel is halved
    until every column meets tol, absolute per rung.  A tol under the
    speed's rounding raises PathError naming the job and radii (a default
    sweep at 1e-11 or 1e-12 does, toward exp(0.7i); 1e-10 returns).  The
    verdict is
    "divergent-evidence" when every ladder increment exceeds the floor,
    "bounded-evidence" otherwise.  A desk-scale surrogate: nothing here
    proves infinite length, it only reports whether growth keeps
    clearing a fixed positive bar.  A string for tags or a number for
    targets is a TypeError: each must be a sequence.
    """
    if isinstance(tags, str):
        raise TypeError(f"tags = {tags!r}: a sequence of metric tags, not one string")
    if isinstance(targets, numbers.Number):
        raise TypeError(f"targets = {targets!r}: a sequence of boundary points, not one")
    targets, tags = list(targets), list(tags)
    # rung k of DEFAULT_LADDER, radii [1 - 10^-k, 1 - 10^-(k+1)], is t in [k, k + 1]
    rungs = range(len(DEFAULT_LADDER))
    paths = [_LogRadial(ParamPath.radial(target)) for target in targets]
    # no tags, no columns: nothing to integrate
    jobs = [(path, k, k + 1.0) for path in paths for k in rungs] if tags else []
    pieces = _integrate_all(jobs, _speed_fn(tags, data, 2), tol, "metric evaluation")
    ladders = pieces.reshape(len(targets), len(rungs), len(tags))
    sweeps = {}
    for k, tag in enumerate(tags):
        reports = []
        for target, lengths in zip(targets, ladders[..., k].tolist()):
            profile = LengthProfile(tag=tag,
                                    entries=tuple(zip(DEFAULT_LADDER, accumulate(lengths))))
            grows = all(d > floor for d in profile.increments())
            verdict = "divergent-evidence" if grows else "bounded-evidence"
            reports.append(SweepReport(profile=profile, verdict=verdict, floor=floor,
                                       target=_unit_target(target)))
        sweeps[tag] = reports
    return sweeps


def log_variation_check(path: ParamPath, data: HolomorphicData,
                        region: int | None = None):
    """Disc-metric length against the total-variation lower bound.

    Returns (lhs, rhs) with lhs the g_D length of the path and rhs
    (1/sqrt 2) times the total variation of log Im psi along it, both
    to absolute tolerance 1e-6; the sector position of psi makes
    lhs >= rhs up to quadrature slack.  With region set to a puncture
    class, each of 64 evenly spaced samples of the path must lie in the
    doubled ball region of that class, else RegionError.
    """
    if path.dim != 2:
        raise ValueError("log variation check wants a disc path")
    if region is not None:
        svals = np.linspace(0.0, 1.0, 64)
        member = hororegion_test(data.cover, path.point(svals), region, doubled=True)
        if not member.all():
            raise RegionError(
                f"path left the doubled class-{region} region at s = {svals[~member][0]}")
    lhs = path_length(path, "disc", data)

    def variation(s, x, v):
        psi, dpsi = data.psi.jet(_disc(x), 1)
        return abs((dpsi * _disc(v)).imag) / psi.imag

    (rhs,) = _integrate_all([(path, 0.0, 1.0)], variation, 1e-6, "psi evaluation")[0]
    return lhs, float(rhs) / math.sqrt(2.0)


# ---- horizontal (kernel-of-beta) lengths -------------------------------


@dataclass(frozen=True)
class HorizontalReport:
    g3_length: float
    gs_length: float
    max_beta: float
    rerouted: bool


def horizontal_length(path: ParamPath, data: HolomorphicData) -> HorizontalReport:
    """Lengths of a slice path after projecting velocities into ker beta,
    to absolute tolerance 1e-6.

    The projection is g3-orthogonal; where beta degenerates (its metric
    square below 1e-18, i.e. at a contact-form zero) the velocity is
    kept as is and the report is flagged rerouted.  Both slice metrics
    are integrated over the same quadrature points, so their agreement
    on horizontal velocities is preserved exactly.
    """
    if path.dim != 3:
        raise ValueError("horizontal length wants a slice path (u, v, theta)")
    state = {"max_beta": 0.0, "rerouted": False}

    def lengths(s, x, v):
        frame = data.slice_frames(_disc(x))
        G3, Gs, b = frame.g3, frame.g_s, frame.beta
        Gb = np.linalg.solve(G3, b[..., None])[..., 0]
        q = np.einsum("ni,ni->n", b, Gb)
        flat = q < 1e-18
        state["rerouted"] |= bool(flat.any())
        along = np.where(flat, 0.0, np.einsum("ni,ni->n", b, v) / np.where(flat, 1.0, q))
        vp = v - along[:, None] * Gb
        beta = np.abs(np.einsum("ni,ni->n", b, vp)).max()
        state["max_beta"] = max(state["max_beta"], float(beta))
        return np.stack((_quadratic(vp, G3), _quadratic(vp, Gs)), axis=-1)

    (out,) = _integrate_all([(path, 0.0, 1.0)], lengths, 1e-6, "slice frame")
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
# Log-spaced parameters y in [1e-3, 1e3] per side: the samples that
# bracket the truncation points and then trace the truncated side.
_SIDE_SAMPLES = 512


def _side_points(c1: Cusp, c2: Cusp, ys) -> np.ndarray:
    """The sphere points of the side from c1 to c2 at an array of
    parameters y, from one lambda batch; where w is numerically
    infinite the point is the puncture there."""
    w, _, flipped = _lambda_batch(np.atleast_1d(geodesic_point(c1, c2, ys)))
    p = _stereo_lift(w)[0]
    p[flipped] = punctures()[2]
    return p


def _puncture_gaps(c1: Cusp, c2: Cusp, ys, r: float) -> np.ndarray:
    """Distance from the side points at parameters ys to the nearest
    puncture, minus r; negative means inside a ball."""
    p = _side_points(c1, c2, ys)
    return np.min([sphere_distance(p, q) for q in punctures()], axis=0) - r


def _truncated_side(c1: Cusp, c2: Cusp, r: float) -> np.ndarray:
    from scipy.optimize import brentq

    n = _SIDE_SAMPLES
    ys = np.exp(np.linspace(math.log(1e-3), math.log(1e3), n))
    gaps = _puncture_gaps(c1, c2, ys, r)
    inside = np.nonzero(gaps > 0.0)[0]
    if len(inside) == 0:
        raise ValueError("truncation removed the whole side; radius too large")
    lo_i, hi_i = inside[0], inside[-1]

    def gap(logy: float) -> float:
        return float(_puncture_gaps(c1, c2, math.exp(logy), r)[0])

    log_lo = math.log(ys[lo_i])
    if lo_i > 0:
        log_lo = brentq(gap, math.log(ys[lo_i - 1]), math.log(ys[lo_i]), xtol=1e-13)
    log_hi = math.log(ys[hi_i])
    if hi_i < n - 1:
        log_hi = brentq(gap, math.log(ys[hi_i]), math.log(ys[hi_i + 1]), xtol=1e-13)
    return _side_points(c1, c2, np.exp(np.linspace(log_lo, log_hi, n)))


def _pairwise_min(a: np.ndarray, b: np.ndarray) -> float:
    dots = np.clip(a @ b.T, -1.0, 1.0)
    return float(np.arccos(dots).min())


def hexagon_constants(r: float = DEFAULT_BALL_RADIUS) -> RegionConstants:
    """Separation constants of the base triangle with puncture balls removed.

    c3 is the ball radius itself and c2 the least pairwise puncture
    distance minus two radii, both exact.  c1 discretizes the three
    truncated side images on the sphere (512 points each, ball
    boundaries located by root finding) and minimizes pairwise distance
    between distinct sides.
    """
    check_ball_radius(r)
    pair_min = min(sphere_distance(p, q) for p, q in combinations(punctures(), 2))
    sides = [_truncated_side(c1, c2, r) for c1, c2 in _BASE_SIDES]
    c1 = min(_pairwise_min(a, b) for a, b in combinations(sides, 2))
    return RegionConstants(c1=c1, c2=pair_min - 2.0 * r, c3=r)


# ---- radial-graph fingerprints -----------------------------------------


def fingerprint_samples() -> list:
    """Deterministic interior sample spiral of 100 points shared by
    fingerprint runs."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    pts = []
    for k in range(100):
        rad = 0.85 * math.sqrt((k + 0.5) / 100)
        ang = golden * k
        pts.append(rad * complex(math.cos(ang), math.sin(ang)))
    return pts


def radial_graph_fingerprint(data: HolomorphicData, samples) -> np.ndarray:
    """Im psi over the sample set: the height function whose graph over
    the disc is the geometry's radial graph."""
    return data.psi(np.asarray(samples, dtype=complex)).imag


def fingerprint_distance(f1: np.ndarray, f2: np.ndarray) -> float:
    a = np.asarray(f1, dtype=float)
    b = np.asarray(f2, dtype=float)
    if a.shape != b.shape:
        raise ValueError("fingerprints need a common sample set")
    return float(np.max(np.abs(a - b))) if len(a) else 0.0
