import cmath
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghlab.covering
import ghlab.pathlab
from ghlab.ansatz import HolomorphicData, mu_variant, standard_data
from ghlab.errors import (
    ConvergenceError,
    InvalidMuError,
    PathError,
    PunctureError,
    RegionError,
)
from ghlab.holo import MuSpec
from ghlab.pathlab import (
    _GL_NODES,
    _GL_WEIGHTS,
    _MAX_DEPTH,
    DEFAULT_LADDER,
    LengthProfile,
    ParamPath,
    RegionConstants,
    _disc,
    _integrate_all,
    _speed_fn,
    divergence_sweep,
    fingerprint_distance,
    fingerprint_samples,
    hexagon_constants,
    horizontal_length,
    log_variation_check,
    path_length,
    radial_graph_fingerprint,
)
from oracles import CirclePath, even_side_crossings, segment

FLAT = HolomorphicData.flat_reference()
DATA = standard_data()

GENERIC = cmath.exp(0.7j)

# radius window along the real axis where Im psi falls from 0.2 to 0.02
WINDOW = (0.9966694795505394, 0.9999673040820541)


class TestParamPath:
    def test_segment_endpoints(self):
        seg = segment(0.1 + 0.2j, -0.3j)
        assert seg.point(0.0) == pytest.approx(0.1 + 0.2j)
        assert seg.point(1.0) == pytest.approx(-0.3j)

    def test_radial_normalizes(self):
        path = ParamPath.radial(3.0 * GENERIC)
        assert abs(path.point(0.5)) == pytest.approx(0.5, abs=1e-12)
        assert path.proper

    def test_radial_rejects_zero(self):
        with pytest.raises(ValueError):
            ParamPath.radial(0.0)

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            ParamPath.radial_window(1.0, 0.5, 0.4)

    def test_window_rejects_zero_target(self):
        with pytest.raises(ValueError, match="nonzero"):
            ParamPath.radial_window(0, 0.1, 0.5)

    @pytest.mark.parametrize("path", [
        segment(0.1 + 0.2j, -0.4 + 0.6j),
        CirclePath(0.1 - 0.2j, 0.3, turns=1.5, phase=0.4),
        ParamPath.radial(-0.3 + 0.8j),
        ParamPath.radial_window(0.6 - 0.2j, 0.3, 0.95),
        ParamPath.slice_segment([0.1, -0.2, 0.3], [-0.25, 0.3, 2.0]),
        ParamPath.theta_circle(0.2 + 0.1j, turns=2.0),
    ], ids=["segment", "circle", "radial", "radial_window", "slice_segment",
            "theta_circle"])
    def test_exact_velocity_matches_the_sampler(self, path):
        h = 1e-5
        for s in np.linspace(h, 1.0 - h, 11):
            fd = (path.at(s + h) - path.at(s - h)) / (2.0 * h)
            assert np.abs(path.vel(s) - fd).max() < 1e-8, s


class TestLength:
    def test_straight_segment(self):
        seg = segment(0.1 + 0.2j, 0.4 + 0.6j)
        assert path_length(seg, "euclid") == pytest.approx(0.5, abs=1e-9)

    def test_circle_circumference(self):
        cir = CirclePath(0.1, 0.3)
        assert path_length(cir, "euclid") == pytest.approx(
            2.0 * math.pi * 0.3, abs=1e-6
        )

    def test_tag_validation(self):
        seg = segment(0, 0.5)
        with pytest.raises(ValueError):
            path_length(seg, "taxicab")
        with pytest.raises(ValueError):
            path_length(seg, "sphere")  # no data
        with pytest.raises(ValueError):
            path_length(seg, "g3", DATA)  # disc path under a slice tag

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan], ids=["zero", "negative", "nan"])
    def test_tolerance_must_be_positive(self, tol):
        # a tolerance no panel can meet would halve toward 2^28 panels
        seg = segment(0.1, 0.5 + 0.2j)
        with pytest.raises(ValueError, match="must be positive"):
            path_length(seg, "disc", DATA, tol=tol)
        with pytest.raises(ValueError, match="must be positive"):
            divergence_sweep(DATA, [GENERIC], ["sphere"], tol=tol)

    def test_proper_path_needs_truncation(self):
        with pytest.raises(ValueError):
            path_length(ParamPath.radial(1j), "sphere", DATA, upto=1.0)

    def test_boundary_failure_becomes_path_error(self):
        seg = segment(0.9, 1.2)
        with pytest.raises(PathError):
            path_length(seg, "sphere", DATA)

    def test_reduction_failure_becomes_path_error(self, monkeypatch):
        def unsettled(tau, max_iter=500):
            raise ConvergenceError("fundamental-domain reduction did not settle")

        monkeypatch.setattr(ghlab.covering, "reduce_to_fundamental", unsettled)
        with pytest.raises(PathError, match="did not settle"):
            path_length(segment(0.1, 0.5), "sphere", DATA)

    def test_profile_monotone_validation(self):
        with pytest.raises(ValueError):
            LengthProfile(tag="euclid", entries=((0.9, 1.0), (0.99, 0.5)))


class TestHexagon:
    def test_constants_at_default_radius(self):
        hc = hexagon_constants(0.1)
        assert hc.c3 == 0.1
        assert hc.c2 == pytest.approx(math.pi / 2 - 0.2, abs=1e-15)
        # distinct truncated sides meet the ball boundaries 2r apart
        assert hc.c1 == pytest.approx(0.2, abs=1e-9)
        assert hc.c1 > 0

    def test_radius_precondition(self):
        with pytest.raises(ValueError):
            hexagon_constants(1.0)
        with pytest.raises(ValueError):
            hexagon_constants(0.0)

    def test_constants_positive_enforced(self):
        with pytest.raises(ValueError):
            RegionConstants(c1=0.1, c2=-0.2, c3=0.1)


def _sweep(target, tag, **kwargs):
    """The report of a one-target, one-tag sweep."""
    return divergence_sweep(DATA, [target], [tag], **kwargs)[tag][0]


class TestSweeps:
    def test_generic_target_sphere_diverges(self):
        rep = _sweep(GENERIC, "sphere")
        assert rep.verdict == "divergent-evidence"
        lengths = [length for _, length in rep.profile.entries]
        assert lengths == sorted(lengths)
        assert all(d > 0.05 for d in rep.profile.increments())
        # strict growth through the whole ladder
        assert lengths[0] > 4.0 and lengths[-1] > 13.0

    def test_vertex_target_sphere_saturates(self):
        rep = _sweep(1.0, "sphere")
        assert rep.verdict == "bounded-evidence"
        lengths = [length for _, length in rep.profile.entries]
        assert lengths[0] == pytest.approx(0.6435, abs=1e-3)
        assert lengths[-1] - lengths[0] < 1e-6

    def test_vertex_target_disc_diverges(self):
        rep = _sweep(1.0, "disc")
        assert rep.verdict == "divergent-evidence"
        # increments settle at half log 10 per decade: Im psi falls like
        # the square root of the boundary distance
        assert rep.profile.increments()[-1] == pytest.approx(
            0.5 * math.log(10.0), rel=1e-3
        )

    def test_floor_controls_verdict(self):
        rep = _sweep(GENERIC, "sphere", floor=5.0)
        assert rep.verdict == "bounded-evidence"

    @staticmethod
    def _matches_own_sweeps(data, targets, tags):
        """Both tags as columns of one speed: each tag's reports are its
        one-tag sweep's verdicts, every length within the sweep's tol."""
        shared = divergence_sweep(data, targets, tags)
        assert list(shared) == list(tags)
        for tag, reports in shared.items():
            alone = divergence_sweep(data, targets, [tag])[tag]
            assert len(reports) == len(alone) == len(targets)
            for rep, own in zip(reports, alone):
                assert (rep.verdict, rep.target, rep.floor) == (own.verdict, own.target, own.floor)
                for (r, length), (r_own, length_own) in zip(rep.profile.entries,
                                                             own.profile.entries):
                    assert r == r_own and abs(length - length_own) <= 1e-6, (tag, r)

    @pytest.mark.parametrize("data,targets", [
        (DATA, [1.0, 1j, -1.0, -1j, GENERIC]),
        (FLAT, [1.0, 1j, GENERIC]),
    ], ids=["standard", "flat"])
    def test_shared_sweep_is_each_tags_own(self, data, targets):
        self._matches_own_sweeps(data, targets, ("sphere", "disc"))

    def test_shared_sweep_of_one_target(self):
        self._matches_own_sweeps(DATA, [1.0], ["disc", "sphere"])

    def test_empty_sweep(self):
        assert divergence_sweep(DATA, [], ["sphere"]) == {"sphere": []}
        assert divergence_sweep(DATA, [], ("sphere", "disc")) == {"sphere": [], "disc": []}
        assert divergence_sweep(DATA, [1.0], []) == {}
        assert divergence_sweep(DATA, [], []) == {}

    def test_one_tag_string_rejected(self):
        # not read as the one-letter tags "s", "p", ...
        with pytest.raises(TypeError, match="tags = 'sphere': a sequence"):
            divergence_sweep(DATA, [1.0], "sphere")

    @pytest.mark.parametrize("target", [1.0, 1j, np.float64(-1.0)])
    def test_one_target_rejected(self, target):
        with pytest.raises(TypeError, match=re.escape(f"targets = {target!r}: a sequence")):
            divergence_sweep(DATA, target, ["sphere"])


def _quad_lengths(target, tag, ladder):
    """Cumulative lengths of the radial path at each rung by adaptive
    quadrature of the exact radial speed; (lengths, error estimates)."""
    from scipy.integrate import quad

    t = complex(target) / abs(target)
    v = np.array([t.real, t.imag])
    if tag == "sphere":
        def speed(r):
            return math.sqrt(max(float(DATA.cover.metric_factors_in_disc(r * t)), 0.0))
    else:
        def speed(r):
            m = DATA.cover.metric_factors_in_disc(r * t)
            return math.sqrt(max(float(v @ DATA.g_sigma(r * t, m) @ v), 0.0))

    total, lo, lengths, errs = 0.0, 0.0, [], []
    for r in ladder:
        val, err = quad(speed, lo, r, epsabs=1e-12, epsrel=1e-12, limit=1000)
        total += val
        lengths.append(total)
        errs.append(err)
        lo = r
    return lengths, errs


def test_panel_rule_is_leggauss_bit_for_bit():
    # the literal table stands in for numpy's leggauss(8), which the
    # package no longer imports
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(8)
    assert np.array_equal(_GL_NODES, nodes)
    assert np.array_equal(_GL_WEIGHTS, weights)


class TestSweepQuadrature:
    """Sweep lengths against adaptive quadrature with exact velocities."""

    @pytest.mark.parametrize("tag", ["sphere", "disc"])
    @pytest.mark.parametrize("target", [1.0, 1j, -1.0, GENERIC])
    def test_every_rung_within_tol(self, target, tag):
        rep = _sweep(target, tag, tol=1e-6)
        ladder = [r for r, _ in rep.profile.entries]
        ref, errs = _quad_lengths(target, tag, ladder)
        assert max(errs) < 1e-10
        for (r, length), want in zip(rep.profile.entries, ref):
            assert abs(length - want) <= 1e-6, (target, tag, r)

    def test_generic_sphere_at_tight_tol(self):
        rep = _sweep(GENERIC, "sphere", tol=1e-9)
        ref, errs = _quad_lengths(GENERIC, "sphere", DEFAULT_LADDER)
        assert max(errs) < 1e-10
        for (r, length), want in zip(rep.profile.entries, ref):
            assert abs(length - want) <= 1e-9, r

    @pytest.mark.parametrize("data,targets", [
        (DATA, [1.0, 1j, -1.0, -1j, GENERIC]),
        (FLAT, [1.0, 1j, GENERIC]),
    ], ids=["standard", "flat"])
    def test_every_rung_is_a_straight_length(self, data, targets):
        """A sweep integrates each rung in t = -log10(1 - r); its length
        is the difference of the straight radial lengths up to the rung's
        two radii, each taken in s to the same tol."""
        tol = 1e-6
        sweeps = divergence_sweep(data, targets, ("sphere", "disc"), tol=tol)
        for tag, reports in sweeps.items():
            for target, rep in zip(targets, reports):
                path = ParamPath.radial(target)
                straight = [path_length(path, tag, data, upto=r, tol=tol)
                            for r in DEFAULT_LADDER]
                rungs = np.diff([0.0] + [length for _, length in rep.profile.entries])
                assert np.all(np.abs(rungs - np.diff([0.0] + straight)) <= 2 * tol), (tag, target)


def _depth_first(path, integrand, lo, hi, tol):
    """The depth-first quadrature that the round-based driver replaced,
    kept as its oracle: the same panels, accept rule, depth cap and order
    of summation, with one integrand call per panel pair.  A panel over
    its share at the depth cap raises, as in the driver."""

    def gauss(*edges):
        p, q = np.array(edges[:-1]), np.array(edges[1:])
        half = 0.5 * (q - p)
        s = (p[:, None] + half[:, None] * (_GL_NODES + 1.0)).ravel()
        vals = np.asarray(integrand(s, path.at(s), path.vel(s)), dtype=float)
        return half[:, None] * (_GL_WEIGHTS @ vals.reshape(p.size, _GL_NODES.size, -1))

    total = 0.0
    stack = [(lo, hi, gauss(lo, hi)[0], 0)]
    while stack:
        p, q, whole, depth = stack.pop()
        m = 0.5 * (p + q)
        left, right = gauss(p, m, q)
        gap = np.max(np.abs(left + right - whole))
        if gap <= tol * (q - p) / (hi - lo):
            total = total + left + right
        elif depth >= _MAX_DEPTH:
            raise PathError(f"the depth cap on [{p}, {q}]")
        else:
            stack += [(m, q, right, depth + 1), (p, m, left, depth + 1)]
    return total


_RADIAL = ParamPath.radial(GENERIC)
_DISC_JOBS = [
    (segment(0.1 + 0.2j, -0.4 + 0.6j), 0.0, 1.0),
    (CirclePath(0.1 - 0.2j, 0.3, turns=1.5, phase=0.4), 0.25, 0.9),
    (_RADIAL, 0.0, 0.9),
    (ParamPath.radial_window(1.0, *WINDOW), 0.1, 0.95),
    (_RADIAL, 0.9, 0.999),
]
# a mixed job list per metric tag: paths shared between jobs, and unequal
# intervals
FRONTIER_JOBS = {
    "euclid": _DISC_JOBS[:2] + [(CirclePath(0.0, 0.5, turns=0.5), 0.3, 0.55)],
    "sphere": _DISC_JOBS,
    "disc": _DISC_JOBS,
    "g3": [
        (ParamPath.slice_segment((0.1, 0.05, 0.0), (0.45, 0.3, 1.2)), 0.0, 1.0),
        (ParamPath.slice_segment((-0.3, 0.2, 0.5), (0.2, -0.1, -0.7)), 0.2, 0.7),
        (ParamPath.theta_circle(-0.3587 + 0.6011j), 0.0, 0.5),
    ],
}


class TestFrontier:
    """The round-based driver against the depth-first oracle, bit for bit."""

    @pytest.mark.parametrize("tol", [1e-5, 1e-9])
    @pytest.mark.parametrize("tag", sorted(FRONTIER_JOBS))
    def test_sums_match_the_depth_first_oracle(self, tag, tol):
        jobs = FRONTIER_JOBS[tag]
        speed = _speed_fn([tag], DATA, jobs[0][0].dim)
        got = _integrate_all(jobs, speed, tol, "metric evaluation")
        for k, (path, lo, hi) in enumerate(jobs):
            assert np.array_equal(got[k], _depth_first(path, speed, lo, hi, tol)), k

    @pytest.mark.parametrize("tol", [1e-5, 1e-9])
    def test_mixed_tags_match_the_depth_first_oracle(self, tol):
        """A speed of two tag columns: each job's row is the depth-first
        sum of both columns, on panels halved until both meet tol."""
        speed = _speed_fn(["sphere", "disc"], DATA, 2)
        got = _integrate_all(_DISC_JOBS, speed, tol, "metric evaluation")
        assert got.shape == (len(_DISC_JOBS), 2)
        for k, (path, lo, hi) in enumerate(_DISC_JOBS):
            assert np.array_equal(got[k], _depth_first(path, speed, lo, hi, tol)), k

    def test_no_jobs_no_sums(self):
        def never(s, x, v):
            raise AssertionError("no job, no integrand call")

        assert _integrate_all([], never, 1e-6, "integrand").size == 0

    def test_round_cap_changes_calls_not_sums(self, monkeypatch):
        speed = _speed_fn(["disc"], DATA, 2)
        sizes = []

        def counted(s, x, v):
            sizes.append(len(s))
            return speed(s, x, v)

        whole = _integrate_all(_DISC_JOBS, counted, 1e-9, "metric evaluation")
        calls = len(sizes)
        sizes.clear()
        monkeypatch.setattr(ghlab.pathlab, "_ROUND_PANELS", 2)
        capped = _integrate_all(_DISC_JOBS, counted, 1e-9, "metric evaluation")
        assert np.array_equal(capped, whole)
        assert len(sizes) > calls
        # the first call takes every job's first panel; then at most two
        # panels, both halves each, per call
        assert max(sizes[1:]) <= 2 * 2 * _GL_NODES.size

    def test_depth_cap_ends_a_jump(self):
        """A jump inside the interval never settles: the round at the
        depth cap raises, naming the job and the panel that holds it."""
        seg = segment(0.0, 1.0)
        calls = []

        def step(s, x, v):
            calls.append(len(s))
            return (x[:, 0] > 1.0 / 3.0).astype(float)

        with pytest.raises(PathError) as info:
            _integrate_all([(seg, 0.0, 1.0)], step, 1e-12, "step")
        # the first panel, then one round per depth 0 .. _MAX_DEPTH
        assert len(calls) == _MAX_DEPTH + 2
        found = re.fullmatch(r"step failed on path 0 \(job 0\) for s in \[(.+), (.+)\]: the gap "
                             r"(.+) is above its share (.+) of tol at the depth cap 28",
                             str(info.value))
        assert found, info.value
        a, b, gap, share = map(float, found.groups())
        assert a < 1.0 / 3.0 < b and b - a == 2.0 ** -_MAX_DEPTH
        assert gap > share == 1e-12 * 2.0 ** -_MAX_DEPTH
        with pytest.raises(PathError, match=re.escape(f"the depth cap on [{a}, {b}]")):
            _depth_first(seg, step, 0.0, 1.0, 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_a_non_finite_integrand_stops_in_its_first_round(self, bad):
        """A NaN gap never converges: the round that meets a non-finite
        panel sum raises, at the full depth cap, and names its job."""
        assert _MAX_DEPTH == 28
        jobs = [(segment(0.0, 0.5), 0.0, 1.0),
                (segment(0.1j, 0.6j), 0.25, 0.75),
                (segment(0.2, 0.7 + 0.1j), 0.0, 1.0)]
        calls = []

        def poisoned(s, x, v):
            calls.append(len(s))
            # the second segment alone is all NaN (or inf)
            on_second = np.abs(_disc(v) - 0.5j) < 1e-12
            return np.where(on_second, bad, np.linalg.norm(v, axis=-1))

        with pytest.raises(PathError, match=re.escape(
                "integrand failed on path 1 (job 1) for s in [0.25, 0.75]: "
                "the panel sum is not finite")):
            _integrate_all(jobs, poisoned, 1e-9, "integrand")
        assert calls == [3 * _GL_NODES.size]

    def test_noise_under_the_floor_raises(self):
        """A speed that scatters by 1e-13 cannot meet tol 1e-15: once a
        panel's gap is under its noise floor and no smaller per unit of s
        than its parent's, the driver raises instead of halving on."""
        calls = []

        def noisy(s, x, v):
            calls.append(len(s))
            return 1.0 + 1e-13 * np.sin(1e12 * s)

        with pytest.raises(PathError, match=re.escape(
                "integrand failed on path 0 (job 0) for s in [0.5, 1.0]: the gap ")
                + r"\S+ of column 0 is above its share 5e-16 of tol but under the noise floor"):
            _integrate_all([(segment(0.0, 1.0), 0.0, 1.0)], noisy, 1e-15, "integrand")
        # the first panel, its halves, and theirs
        assert calls == [8, 16, 32]

    def test_a_sweep_below_its_noise_floor_ends(self):
        """At tol 1e-12 the sphere speed toward GENERIC in its last rung,
        1 - r in [1e-5, 1e-4], is rounding: the sweep raises within a
        second, naming that rung's radii."""
        start = time.perf_counter()
        with pytest.raises(PathError, match="under the noise floor") as info:
            divergence_sweep(DATA, [1.0, 1j, -1.0, -1j, GENERIC], ("sphere", "disc"), tol=1e-12)
        assert time.perf_counter() - start < 1.0
        found = re.search(r"on path (\d+) \(job (\d+)\) for s in \[(\S+), (\S+)\]",
                          str(info.value))
        assert (int(found[1]), int(found[2])) == (4, 24)
        assert DEFAULT_LADDER[3] <= float(found[3]) < float(found[4]) <= DEFAULT_LADDER[4]

    def test_failure_names_its_path_and_interval(self, monkeypatch):
        """A round holds every target's rungs; the PathError of a sweep
        whose disc column fails names the one path that fails and an s
        interval of it holding a failing node.  The sphere column alone
        does not fail."""
        factory = ghlab.pathlab._speed_fn

        def failing_factory(tags, *args):
            speed = factory(tags, *args)

            def failing(s, x, v):
                # the GENERIC radius fails beyond 0.95, in the disc column
                z = _disc(x)
                bad = (np.abs(z / np.abs(z) - GENERIC) < 1e-12) & (np.abs(z) > 0.95)
                if "disc" in tags and bad.any():
                    raise PunctureError(f"z = {_disc(x)[bad][0]} is numerically at a cusp")
                return speed(s, x, v)

            return failing

        monkeypatch.setattr(ghlab.pathlab, "_speed_fn", failing_factory)
        targets = [1.0, GENERIC, 1j]
        assert len(divergence_sweep(DATA, targets, ["sphere"])["sphere"]) == 3
        for tags in (["disc"], ["sphere", "disc"], ["disc", "sphere"]):
            with pytest.raises(PathError) as info:
                divergence_sweep(DATA, targets, tags)
            found = re.search(r"on path (\d+) \(job (\d+)\) for s in \[(\S+), (\S+)\]",
                              str(info.value))
            assert found, str(info.value)
            path, job = int(found[1]), int(found[2])
            a, b = float(found[3]), float(found[4])
            assert path == 1
            # jobs run target by target, 5 rungs each: the GENERIC jobs
            # are 5..9, one per rung; job 6 is [0.9, 0.99]
            assert 5 <= job < 10, tags
            lo, hi = ((0.0,) + DEFAULT_LADDER)[job - 5], DEFAULT_LADDER[job - 5]
            assert lo <= a < b <= hi and b > 0.95


class TestLogVariation:
    def test_tenfold_drop_window(self):
        win = ParamPath.radial_window(1.0, *WINDOW)
        lhs, rhs = log_variation_check(win, DATA)
        assert rhs == pytest.approx(math.log(10.0) / math.sqrt(2.0), rel=1e-6)
        assert lhs >= rhs - 1e-3
        # on the real axis psi is purely imaginary, so the disc length
        # equals the full total variation
        assert lhs == pytest.approx(math.log(10.0), rel=1e-5)

    def test_constant_im_psi(self):
        lhs, rhs = log_variation_check(CirclePath(0.0, 0.4), FLAT)
        assert abs(rhs) < 1e-12
        assert lhs > 0

    def test_oscillation_counts_fully(self):
        # Im psi oscillates twice around a half turn at this radius; the
        # net change is zero but the variation is not
        arc = CirclePath(0.0, 0.5, turns=0.5)
        lhs, rhs = log_variation_check(arc, DATA)
        assert rhs == pytest.approx(0.06698914, abs=1e-6)
        assert lhs >= rhs - 1e-3

    def test_region_gate_accepts_deep_window(self):
        win = ParamPath.radial_window(1.0, *WINDOW)
        lhs, rhs = log_variation_check(win, DATA, region=2)
        assert lhs >= rhs - 1e-3

    def test_region_gate_rejects_wanderer(self):
        with pytest.raises(RegionError):
            log_variation_check(
                ParamPath.radial_window(GENERIC, 0.5, 0.99), DATA, region=2
            )


class TestHorizontal:
    def test_circle_fiber_projection(self):
        # Re psi is largest near this point, so the fiber loop pairs
        # strongly with the contact form before projection
        z0 = -0.3587 + 0.6011j
        tc = ParamPath.theta_circle(z0)
        raw_g3 = path_length(tc, "g3", DATA)
        raw_gs = path_length(tc, "gs", DATA)
        assert raw_g3 - raw_gs > 1e-3
        rep = horizontal_length(tc, DATA)
        assert abs(rep.g3_length - rep.gs_length) < 1e-8
        assert rep.max_beta < 1e-10
        assert not rep.rerouted
        assert rep.g3_length > 1.0

    def test_slice_segment_projection(self):
        seg = ParamPath.slice_segment((0.1, 0.05, 0.0), (0.45, 0.3, 1.2))
        rep = horizontal_length(seg, DATA)
        assert abs(rep.g3_length - rep.gs_length) < 1e-8
        assert rep.max_beta < 1e-10

    def test_constant_path_measures_zero(self):
        p = (0.2, 0.1, 0.5)
        rep = horizontal_length(ParamPath.slice_segment(p, p), DATA)
        assert rep.g3_length < 1e-9
        assert rep.gs_length < 1e-9
        assert rep.max_beta < 1e-9

    def test_rerouted_at_contact_zero(self):
        z_star = 0.6625322041345
        p = (z_star, 0.0, 0.3)
        rep = horizontal_length(ParamPath.slice_segment(p, p), DATA)
        assert rep.rerouted

    def test_needs_slice_path(self):
        with pytest.raises(ValueError):
            horizontal_length(segment(0, 0.5), DATA)


class TestCrossings:
    def test_three_crossings_bound(self):
        seg = segment(0.0, 0.95 * GENERIC)
        rep = even_side_crossings(seg, DATA)
        assert rep.count == 3
        hc = hexagon_constants(0.1)
        length = path_length(seg, "sphere", DATA)
        assert length >= rep.count * hc.c1 - 1e-6

    def test_five_crossings_bound(self):
        arc = CirclePath(0.0, 0.9, turns=0.2, phase=0.3)
        rep = even_side_crossings(arc, DATA)
        assert rep.count == 5
        hc = hexagon_constants(0.1)
        length = path_length(arc, "sphere", DATA)
        assert length >= rep.count * hc.c1 - 1e-6

    @pytest.mark.parametrize("z0", [-0.1023j, -0.10231j], ids=["on-a-sample", "between"])
    def test_crossing_on_a_sample_counts_once(self, z0):
        # from -0.1023j the real axis falls exactly on sample 1023 of 2048
        rep = even_side_crossings(segment(z0, 0.1024j), DATA)
        assert rep.labels == (0,)
        assert rep.params == pytest.approx((-z0.imag / (0.1024 - z0.imag),), abs=1e-9)

    def test_labels_are_arcs(self):
        rep = even_side_crossings(segment(0.0, 0.95 * GENERIC), DATA)
        assert all(label in (0, 1, 2) for label in rep.labels)
        assert len(rep.params) == len(rep.labels)


class TestConformalBound:
    @settings(max_examples=12, deadline=None)
    @given(
        st.complex_numbers(max_magnitude=0.72, allow_infinity=False, allow_nan=False),
        st.complex_numbers(max_magnitude=0.72, allow_infinity=False, allow_nan=False),
    )
    def test_disc_dominates_scaled_sphere(self, z0, z1):
        if abs(z1 - z0) < 1e-3:
            z1 = z0 + 0.1
        seg = segment(z0, z1)
        disc = path_length(seg, "disc", DATA)
        sphere = path_length(seg, "sphere", DATA)
        assert disc >= (1.0 / math.sqrt(2.0) - 1e-6) * sphere

    def test_deep_radial_case(self):
        path = ParamPath.radial(GENERIC)
        disc = path_length(path, "disc", DATA, upto=0.99)
        sphere = path_length(path, "sphere", DATA, upto=0.99)
        assert disc >= (1.0 / math.sqrt(2.0) - 1e-6) * sphere


class TestFingerprints:
    def test_identity_distance_zero(self):
        f1 = radial_graph_fingerprint(DATA, fingerprint_samples())
        assert fingerprint_distance(f1, f1) == 0.0

    def test_doubling_reads_sup_im_psi(self):
        samples = fingerprint_samples()
        f1 = radial_graph_fingerprint(DATA, samples)
        f2 = radial_graph_fingerprint(
            mu_variant(DATA, MuSpec(kind="scale", scale=2.0)), samples
        )
        assert fingerprint_distance(f1, f2) == pytest.approx(
            np.max(np.abs(f1)), abs=1e-14
        )

    def test_small_perturbation_distinguishable(self):
        samples = fingerprint_samples()
        f1 = radial_graph_fingerprint(DATA, samples)
        fp = radial_graph_fingerprint(
            mu_variant(DATA, MuSpec(kind="perturb", eps_re=0.05)), samples
        )
        assert fingerprint_distance(f1, fp) > 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fingerprint_distance(np.zeros(3), np.zeros(4))

    def test_mu_validation_runs(self):
        with pytest.raises(InvalidMuError):
            mu_variant(DATA, MuSpec(kind="perturb", eps_re=3.0))
