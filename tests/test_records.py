"""The per-point records: evaluation counts and correctness.

Every field of the ansatz is a power of rho times a function of z, and
none depends on theta, so the psi jet, the covering value and xi are
taken once per disc point, by one eager HolomorphicData.fill for every
new point of a batch, and shared by every form assembled there.  These
tests count Blaschke jets (calls of ``blaschke_derivs``) and covering
evaluations (calls of ``ModularCover.value`` and ``.values``), a batch
counting once, so a regression in the sharing shows as a count rather
than as timing noise.  They also pin the batched records against the
scalar point functions.
"""

import cmath
import math

import numpy as np
import pytest

import ghlab.ansatz
import ghlab.holo
import ghlab.pathlab
from ghlab.ansatz import HolomorphicData, sphere_jacobian, standard_data
from ghlab.cli import main
from ghlab.covering import ModularCover
from ghlab.holo import MuSpec
from ghlab.pathlab import mu_variant
from ghlab.verify import (
    FDConfig,
    _partials,
    beta_zero_search,
    closure_residual,
    contact_ratio,
    curvature,
    fd_exterior_derivative,
    metric_field,
    structure_coeffs,
)

Z = 0.3 + 0.2j
RHO = 1.1


@pytest.fixture
def counts(monkeypatch):
    """Jets and covering evaluations taken outside the xi quadrature.

    The quadrature evaluates its integrand (curl_source) at nodes no
    stencil revisits; those evaluations belong to xi, not to the point."""
    tally = {"jets": 0, "covers": 0, "in_xi": 0}
    jet, value, values = ghlab.holo.blaschke_derivs, ModularCover.value, ModularCover.values
    source = HolomorphicData.curl_source

    def counted_jet(spec, z):
        if not tally["in_xi"]:
            tally["jets"] += 1
        return jet(spec, z)

    def counted_value(self, z):
        if not tally["in_xi"]:
            tally["covers"] += 1
        return value(self, z)

    def counted_values(self, zs):
        if not tally["in_xi"]:
            tally["covers"] += 1
        return values(self, zs)

    def quiet_source(self, zs):
        tally["in_xi"] += 1
        try:
            return source(self, zs)
        finally:
            tally["in_xi"] -= 1

    monkeypatch.setattr(ghlab.holo, "blaschke_derivs", counted_jet)
    monkeypatch.setattr(ModularCover, "value", counted_value)
    monkeypatch.setattr(ModularCover, "values", counted_values)
    monkeypatch.setattr(HolomorphicData, "curl_source", quiet_source)
    return tally


def _taken(tally, call):
    before = (tally["jets"], tally["covers"])
    call()
    return tally["jets"] - before[0], tally["covers"] - before[1]


# (operation, bound on jets and on covering values for one call).  With
# Richardson steps h and h/2 along u and v a stencil has 9 distinct z.
OPERATIONS = [
    ("slice_frame", lambda d: d.slice_frame(Z), 1),
    ("structure_coeffs", lambda d: structure_coeffs(d, Z, "zero"), 20),
    ("closure_residual", lambda d: closure_residual(d, RHO, Z), 1),
    ("contact_ratio", lambda d: contact_ratio(d, Z), 10),
]


class TestEvaluationCounts:
    @pytest.mark.parametrize("name,call,bound", OPERATIONS, ids=[o[0] for o in OPERATIONS])
    def test_one_evaluation_per_stencil_point(self, counts, name, call, bound):
        data = standard_data()
        jets, covers = _taken(counts, lambda: call(data))
        assert 1 <= jets <= bound
        assert covers <= bound
        # a second call at the same z finds every record, xi included
        assert _taken(counts, lambda: call(data)) == (0, 0)

    def test_cold_closure_takes_one_batch(self, counts):
        # the nine z of the stencil come from one psi jet and one cover batch
        data = standard_data()
        assert _taken(counts, lambda: closure_residual(data, RHO, Z)) == (1, 1)

    @pytest.mark.parametrize("x,points", [([RHO, Z.real, Z.imag], 49),
                                          ([RHO, Z.real, Z.imag, 0.0], 81)],
                             ids=["rho-u-v", "with-theta"])
    def test_curvature_takes_one_metric_stack(self, monkeypatch, x, points):
        taken = {"calls": 0, "points": 0}
        metric = HolomorphicData.metric

        def counted(self, rho, z):
            taken["calls"] += 1
            taken["points"] += np.size(z)
            return metric(self, rho, z)

        monkeypatch.setattr(HolomorphicData, "metric", counted)
        curvature(metric_field(standard_data()), x, h=1e-3)
        assert taken["calls"] <= 4
        assert taken["points"] == points

    def test_rho_steps_need_no_evaluation(self, counts):
        data = standard_data()
        assert _taken(counts, lambda: data.metric(RHO, Z)) == (1, 1)
        h = 1e-4
        for rho in (RHO + h, RHO - h, RHO + h / 2, 0.5 * RHO):
            assert _taken(counts, lambda: data.metric(rho, Z)) == (0, 0)

    def test_g_sigma_keeps_no_record(self, counts):
        data = standard_data()
        assert _taken(counts, lambda: data.g_sigma(Z)) == (1, 1)
        assert _taken(counts, lambda: data.g_sigma(Z)) == (1, 1)

    def test_zero_search_takes_one_circle_batch(self, counts, monkeypatch):
        kinds = []  # per Blaschke jet outside xi: was z an array
        counted = ghlab.holo.blaschke_derivs

        def typed_jet(spec, z):
            if not counts["in_xi"]:
                kinds.append(isinstance(z, np.ndarray))
            return counted(spec, z)

        monkeypatch.setattr(ghlab.holo, "blaschke_derivs", typed_jet)
        for vertices, count in (((1, 1j, -1, -1j), 5), ((1, -1, 1j), 1)):
            data = standard_data(vertices=vertices)
            report = None

            def search():
                nonlocal report
                report = beta_zero_search(data)

            kinds.clear()
            jets, covers = _taken(counts, search)
            assert jets == len(kinds)
            # one batch on the circle; per zero of psi' a jet at the
            # centroid and at most three Newton steps; then one record
            # batch for the zeros of beta
            assert kinds.count(True) == 2
            assert kinds.count(False) <= 4 * len(report.critical_points) + len(report.zeros)
            assert len(report.zeros) == count
            assert covers <= len(report.zeros)

    def test_default_sweep_speed_evaluations(self, monkeypatch, tmp_path):
        """Speed evaluations of one default sweep: 8 Gauss-Legendre nodes
        on each panel, and each halved panel's sum carried down."""
        calls = [0]
        factory = ghlab.pathlab._speed_fn

        def counted_factory(*args):
            speed = factory(*args)

            def counted(*point):
                calls[0] += 1
                return speed(*point)

            return counted

        monkeypatch.setattr(ghlab.pathlab, "_speed_fn", counted_factory)
        taken = []
        for run in range(2):
            calls[0] = 0
            assert main(["sweep", "--out", str(tmp_path / str(run))]) == 0
            taken.append(calls[0])
        assert taken[0] == taken[1] <= 3920


class TestSharedFrames:
    """Each slice frame is built once per (z, slice) and then shared."""

    @pytest.fixture
    def built(self, monkeypatch):
        tally = [0]
        cls = ghlab.ansatz.SliceFrame

        def counted(*args, **kwargs):
            tally[0] += 1
            return cls(*args, **kwargs)

        monkeypatch.setattr(ghlab.ansatz, "SliceFrame", counted)
        return tally

    def test_verify_builds_one_frame_per_stencil_point(self, built, tmp_path):
        # 10 centres, each with 8 stencil points at h and h/2 along u and v
        assert main(["verify", "--grid", "10", "--seed", "0", "--out", str(tmp_path)]) == 0
        assert built[0] == 90

    def test_zero_slice_is_the_canonical_slice(self, built):
        # with rho0_kind "canonical" both stencils take the same nine frames
        data = standard_data()
        structure_coeffs(data, Z, "zero")
        contact_ratio(data, Z)
        assert built[0] == 9
        assert data.slice_frame(Z, "zero") is data.slice_frame(Z)

    def test_kept_frames_are_read_only(self):
        frame = standard_data().slice_frame(Z)
        for name in ("x", "omega", "xflat", "g3", "theta", "drho"):
            with pytest.raises(ValueError):
                getattr(frame, name)[0] = 1.0


class TestXiCounts:
    def test_one_batch_per_cold_xi(self, monkeypatch):
        data = standard_data()
        calls = {"xi": [], "record": []}
        phase = ["record"]
        jet, values, value = (ghlab.holo.blaschke_derivs, ModularCover.values,
                              ModularCover.value)
        products, source = ghlab.holo._blaschke_batch, HolomorphicData.curl_source

        def counted_jet(spec, z):
            calls[phase[0]].append("jet batch" if isinstance(z, np.ndarray) else "jet")
            return jet(spec, z)

        def counted_products(spec, z, derivs=True):
            if not derivs:
                calls[phase[0]].append("B batch")
            return products(spec, z, derivs)

        def counted_values(self, zs):
            calls[phase[0]].append("cover batch")
            return values(self, zs)

        def counted_value(self, z):
            calls[phase[0]].append("cover")
            return value(self, z)

        def counted_source(self, zs):
            phase[0] = "xi"
            try:
                return source(self, zs)
            finally:
                phase[0] = "record"

        monkeypatch.setattr(ghlab.holo, "blaschke_derivs", counted_jet)
        monkeypatch.setattr(ghlab.holo, "_blaschke_batch", counted_products)
        monkeypatch.setattr(ModularCover, "values", counted_values)
        monkeypatch.setattr(ModularCover, "value", counted_value)
        monkeypatch.setattr(HolomorphicData, "curl_source", counted_source)
        z = 0.22 + 0.13j
        first = data.xi_at(z)
        # the integrand reads psi's value: one batch of B, and no jet;
        # the rest of the record takes one jet batch and one cover batch
        expected = {"xi": ["B batch", "cover batch"], "record": ["cover batch", "jet batch"]}
        assert {k: sorted(v) for k, v in calls.items()} == expected
        assert data.xi_at(z) is first
        assert {k: sorted(v) for k, v in calls.items()} == expected


def _xi_chunks(data, zs) -> int:
    """The curl_source batches fill needs for the points of zs that
    have no record: per graded rule, whole points of at most
    _XI_CHUNK_NODES nodes each, one point if its rule is larger.  k is
    read off z, and no record is made."""
    per_k = {}
    for z in map(complex, zs):
        if (z.real, z.imag) not in data._records:
            k = max(1, math.ceil(-math.log2(1.0 - abs(z))))
            per_k.setdefault(k, set()).add(z)
    chunks = 0
    for k, points in per_k.items():
        size = ghlab.ansatz._graded_rule(k)[0].size
        chunks += math.ceil(len(points) / max(1, ghlab.ansatz._XI_CHUNK_NODES // size))
    return chunks


class TestXiPrefetch:
    """verify and curvature-scan make every record of the pass in one
    fill before it: after that call no record is made, no cover is
    evaluated and no quadrature runs, and inside it each curl_source
    batch holds several whole points."""

    @pytest.mark.parametrize("argv", [["verify", "--grid", "10"],
                                      ["curvature-scan", "--grid", "2"]],
                             ids=["verify", "curvature-scan"])
    def test_one_prefetch_in_batches(self, argv, monkeypatch, tmp_path):
        phases = ("before", "during", "after")
        state = {"phase": "before", "points": 0, "chunks": 0,
                 "sources": dict.fromkeys(phases, 0), "made": dict.fromkeys(phases, 0),
                 "covers": dict.fromkeys(phases, 0)}
        fill, source = HolomorphicData.fill, HolomorphicData.curl_source
        values, value = ModularCover.values, ModularCover.value
        record = ghlab.ansatz.PointRecord

        def counted_fill(self, zs):
            if state["phase"] == "before":
                zs = list(zs)
                state["points"] = len(set(map(complex, zs)))
                state["chunks"] = _xi_chunks(self, zs)
                state["phase"] = "during"
                fill(self, zs)
                state["phase"] = "after"
            else:
                fill(self, zs)

        def counted(kind, fn):
            def call(*args):
                state[kind][state["phase"]] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(HolomorphicData, "fill", counted_fill)
        monkeypatch.setattr(HolomorphicData, "curl_source", counted("sources", source))
        monkeypatch.setattr(ModularCover, "values", counted("covers", values))
        monkeypatch.setattr(ModularCover, "value", counted("covers", value))
        monkeypatch.setattr(ghlab.ansatz, "PointRecord", counted("made", record))
        assert main(argv + ["--seed", "0", "--out", str(tmp_path)]) == 0
        assert state["sources"]["before"] == state["sources"]["after"] == 0
        assert state["made"]["after"] == state["covers"]["after"] == 0
        assert state["made"]["during"] == state["points"]
        assert 1 <= state["sources"]["during"] <= state["chunks"] < state["points"]


# Eight directions that avoid the cusps 1, i, -1 and -i.
DIRECTIONS = [cmath.exp(1j * (0.5 + 2 * math.pi * j / 8)) for j in range(8)]


class TestBatchAgainstPoint:
    """A record's fields come from one batch.  They agree with the
    scalar point functions to rounding, not bit for bit: numpy and
    CPython divide complex numbers differently."""

    @pytest.fixture(scope="class")
    def sample(self):
        rng = np.random.default_rng(12)
        radii, turns = np.sqrt(rng.uniform(size=200)), rng.uniform(size=200)
        inner = 0.62 * radii * np.exp(2j * math.pi * turns)
        outer = [r * d for r in (0.9, 0.92, 0.94, 0.96, 0.98) for d in DIRECTIONS]
        zs = [complex(z) for z in [*inner, *outer]]
        data = standard_data()
        data.fill(zs)
        return data, zs

    def test_psi_jet(self, sample):
        data, zs = sample
        recs = [data.record(z) for z in zs]
        jets = [data.psi.jet(z) for z in zs]
        for name, got, want in (("psi", [r.psi for r in recs], [j[0] for j in jets]),
                                ("dpsi", [r.dpsi for r in recs], [j[1] for j in jets])):
            got, want = np.array(got), np.array(want)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name

    def test_conformal_factor(self, sample):
        data, zs = sample
        for z in zs:
            m = data.cover.metric_factor(z)
            assert abs(data.record(z).m - m) <= 1e-13 * m, z
        assert data.record(0.99).m == data.cover.metric_factor(0.99) == 0.0

    def test_sphere_point(self, sample):
        data, zs = sample
        for z in zs:
            assert np.abs(data.record(z).p - data.cover.value(z).p).max() <= 1e-13, z

    def test_sphere_jacobian_on_an_array_is_per_point(self, sample):
        data, zs = sample
        w, dw_dz = data.cover.values(np.array(zs))
        batch = sphere_jacobian(w, dw_dz)
        for i in range(len(zs)):
            for got, want in zip(batch, sphere_jacobian(w[i], dw_dz[i])):
                assert np.array_equal(got[i], want), zs[i]


class TestRecords:
    def test_theta_column_is_exactly_zero(self):
        """The fields on the old 4-D stencil over (rho, u, v, theta):
        differencing along theta gives exactly 0, so the stencils can
        drop that axis."""
        data = standard_data()
        x = np.array([RHO, Z.real, Z.imag, 0.0])
        fields = {
            "omega": lambda X: data.symplectic(X[:, 0], X[:, 1] + 1j * X[:, 2]),
            "theta": lambda X: data._fields(X[:, 0], X[:, 1] + 1j * X[:, 2])[1],
            "metric": lambda X: data.metric(X[:, 0], X[:, 1] + 1j * X[:, 2]),
        }
        for config in (FDConfig(richardson=0), FDConfig(richardson=1)):
            for name, field in fields.items():
                column = _partials(field, x, config)[3]
                assert np.all(column == 0.0), name

    def test_closure_matches_the_four_dimensional_stencil(self):
        data = standard_data()
        worst = 0.0
        for i in range(3):
            def two_form(x, i=i):
                return data.symplectic(x[0], complex(x[1], x[2]))[i]

            d = fd_exterior_derivative(two_form, [RHO, Z.real, Z.imag, 0.0])
            worst = max(worst, float(np.abs(d).max()))
        assert closure_residual(data, RHO, Z) == worst

    def test_curvature_without_theta_matches_the_full_stencil(self):
        fn = metric_field(standard_data())
        full = curvature(fn, [RHO, Z.real, Z.imag, 0.0], h=1e-3)
        reduced = curvature(fn, [RHO, Z.real, Z.imag], h=1e-3)
        assert (reduced.riemann_max, reduced.ricci_max, reduced.scalar) == (
            full.riemann_max, full.ricci_max, full.scalar)

    def test_mu_variant_never_reuses_old_records(self):
        data = standard_data()
        data.metric(RHO, Z)
        old = data.record(Z)
        variant = mu_variant(data, MuSpec(kind="scale", scale=2.0))
        rec = variant.record(Z)
        assert rec is not old
        assert rec.psi == 2.0 * old.psi
        # phi halves with psi doubled, and so do V and xi
        V, V_variant = data._fields(RHO, Z)[0], variant._fields(RHO, Z)[0]
        assert V_variant == pytest.approx(V / 2, rel=1e-14)
        np.testing.assert_allclose(variant.xi_at(Z), np.array(data.xi_at(Z)) / 2, rtol=1e-9)

    def test_g_sigma_computes_no_xi(self, monkeypatch):
        data = standard_data()
        expected = data.g_sigma(Z)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("g_sigma ran the xi quadrature")

        monkeypatch.setattr(HolomorphicData, "curl_source", no_quadrature)
        fresh = standard_data()
        assert np.array_equal(fresh.g_sigma(Z), expected)
        assert np.array_equal(fresh.g_sigma(-0.4 + 0.1j), data.g_sigma(-0.4 + 0.1j))
