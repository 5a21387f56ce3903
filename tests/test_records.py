"""The per-point records: evaluation counts and correctness.

Every field of the ansatz is a power of rho times a function of z, and
none depends on theta, so the psi jet, the covering value and xi are
taken once per disc point and shared by every form assembled there.
These tests count Blaschke jets (calls of ``blaschke_derivs``) and
covering values (calls of ``ModularCover.value``), so a regression in
the sharing shows as a count rather than as timing noise.
"""

import math

import numpy as np
import pytest

import ghlab.ansatz
import ghlab.holo
import ghlab.pathlab
from ghlab.ansatz import HolomorphicData, standard_data
from ghlab.cli import main
from ghlab.covering import ModularCover
from ghlab.holo import MuSpec
from ghlab.pathlab import mu_variant
from ghlab.verify import (
    FDConfig,
    _partial,
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
    """Jets and covering values taken outside the xi quadrature.

    The quadrature evaluates its integrand at nodes no stencil
    revisits; those evaluations belong to xi, not to the point."""
    tally = {"jets": 0, "covers": 0, "in_xi": 0}
    jet, value = ghlab.holo.blaschke_derivs, ModularCover.value
    xi_at = HolomorphicData.xi_at

    def counted_jet(spec, z):
        if not tally["in_xi"]:
            tally["jets"] += 1
        return jet(spec, z)

    def counted_value(self, z):
        if not tally["in_xi"]:
            tally["covers"] += 1
        return value(self, z)

    def quiet_xi(self, z):
        tally["in_xi"] += 1
        try:
            return xi_at(self, z)
        finally:
            tally["in_xi"] -= 1

    monkeypatch.setattr(ghlab.holo, "blaschke_derivs", counted_jet)
    monkeypatch.setattr(ModularCover, "value", counted_value)
    monkeypatch.setattr(HolomorphicData, "xi_at", quiet_xi)
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
    ("closure_residual", lambda d: closure_residual(d, RHO, Z), 10),
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
            # centroid and at most three Newton steps; then one slice
            # frame per zero of beta
            assert kinds.count(True) == 1
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
        calls = {"jet": [], "values": 0, "batch": 0, "value": 0}
        jet, batch, value = (ghlab.holo.blaschke_derivs, ModularCover.metric_factors,
                             ModularCover.value)
        products = ghlab.holo._blaschke_batch

        def counted_jet(spec, z):
            calls["jet"].append(type(z))
            return jet(spec, z)

        def counted_products(spec, z, derivs=True):
            calls["values"] += not derivs
            return products(spec, z, derivs)

        def counted_batch(self, zs):
            calls["batch"] += 1
            return batch(self, zs)

        def counted_value(self, z):
            calls["value"] += 1
            return value(self, z)

        monkeypatch.setattr(ghlab.holo, "blaschke_derivs", counted_jet)
        monkeypatch.setattr(ghlab.holo, "_blaschke_batch", counted_products)
        monkeypatch.setattr(ModularCover, "metric_factors", counted_batch)
        monkeypatch.setattr(ModularCover, "value", counted_value)
        z = 0.22 + 0.13j
        first = data.xi_at(z)
        # the integrand reads psi's value: one batch of B, and no jet
        assert calls == {"jet": [], "values": 1, "batch": 1, "value": 0}
        assert data.xi_at(z) is first
        assert calls == {"jet": [], "values": 1, "batch": 1, "value": 0}


def _xi_chunks(data, zs) -> int:
    """The curl_source batches fill_xi needs for the points of zs that
    have no xi: per graded rule, whole points of at most
    _XI_CHUNK_NODES nodes each, one point if its rule is larger."""
    per_k = {}
    for z in zs:
        rec = data.record(z)
        if rec.xi is None:
            k = max(1, math.ceil(-math.log2(1.0 - abs(rec.z))))
            per_k.setdefault(k, set()).add(id(rec))
    chunks = 0
    for k, recs in per_k.items():
        size = ghlab.ansatz._graded_rule(k)[0].size
        chunks += math.ceil(len(recs) / max(1, ghlab.ansatz._XI_CHUNK_NODES // size))
    return chunks


class TestXiPrefetch:
    """verify and curvature-scan take every xi of the pass in one
    fill_xi before it: no quadrature runs outside that call, and inside
    it each curl_source batch holds several whole points."""

    @pytest.mark.parametrize("argv", [["verify", "--grid", "10"],
                                      ["curvature-scan", "--grid", "2"]],
                             ids=["verify", "curvature-scan"])
    def test_one_prefetch_in_batches(self, argv, monkeypatch, tmp_path):
        state = {"phase": "before", "before": 0, "during": 0, "after": 0,
                 "points": 0, "chunks": 0}
        fill, source = HolomorphicData.fill_xi, HolomorphicData.curl_source

        def counted_fill(self, zs):
            if state["phase"] == "before":
                zs = list(zs)
                state["points"] = len({(complex(z).real, complex(z).imag) for z in zs})
                state["chunks"] = _xi_chunks(self, zs)
                state["phase"] = "during"
                fill(self, zs)
                state["phase"] = "after"
            else:
                fill(self, zs)

        def counted_source(self, zs):
            state[state["phase"]] += 1
            return source(self, zs)

        monkeypatch.setattr(HolomorphicData, "fill_xi", counted_fill)
        monkeypatch.setattr(HolomorphicData, "curl_source", counted_source)
        assert main(argv + ["--seed", "0", "--out", str(tmp_path)]) == 0
        assert state["before"] == state["after"] == 0
        assert 1 <= state["during"] <= state["chunks"] < state["points"]


class TestRecords:
    def test_theta_column_is_exactly_zero(self):
        """The fields on the old 4-D stencil over (rho, u, v, theta):
        differencing along theta gives exactly 0, so the stencils can
        drop that axis."""
        data = standard_data()
        x = np.array([RHO, Z.real, Z.imag, 0.0])
        fields = {
            "omega": lambda x: np.array(data.symplectic(x[0], complex(x[1], x[2]))),
            "theta": lambda x: data._fields(x[0], complex(x[1], x[2]))[1],
            "metric": lambda x: data.metric(x[0], complex(x[1], x[2])),
        }
        for config in (FDConfig(richardson=0), FDConfig(richardson=1)):
            for name, field in fields.items():
                column = _partial(field, x, 3, config)
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
        assert rec.xi is None
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
