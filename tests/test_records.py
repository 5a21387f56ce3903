"""The per-point records: evaluation counts and correctness.

Every field of the ansatz is a power of rho times a function of z, and
none depends on theta, so the psi jet, the covering value and xi are
taken once per disc point, by one eager HolomorphicData.fill for every
new point of a batch, and shared by every form assembled there.  These
tests count Blaschke jets (calls of ``blaschke_derivs``) and covering
evaluations (calls of ``ModularCover.chart``, which every cover
evaluation goes through), a batch counting once, so a regression in the
sharing shows as a count rather than as timing noise.  They also pin
the batched records against the point functions.
"""

import cmath
import copy
import json
import math
import re

import numpy as np
import pytest

import ghlab.holo
import ghlab.pathlab
from ghlab.ansatz import (
    _FRAME,
    _RECORD,
    HolomorphicData,
    SliceFrame,
    gh_forms,
    mu_variant,
    sphere_jacobian,
    standard_data,
)
from ghlab.cli import interior_points, main
from ghlab.covering import IdentityChart, ModularCover
from ghlab.errors import PunctureError
from ghlab.holo import HoloFn, MuSpec
from ghlab.verify import (
    FDConfig,
    _partials,
    beta_zero_search,
    closure_residual,
    contact_ratio,
    curvature,
    metric_field,
    stencil_points,
    structure_coeffs,
)
from oracles import fd_exterior_derivative_exact_rho, metric_factors

Z = 0.3 + 0.2j
RHO = 1.1


@pytest.fixture
def counts(monkeypatch):
    """Jets and covering evaluations, a batch counting once."""
    tally = {"jets": 0, "covers": 0}
    jet, chart = ghlab.holo.blaschke_derivs, ModularCover.chart

    def counted_jet(spec, z):
        tally["jets"] += 1
        return jet(spec, z)

    def counted_chart(self, zs):
        tally["covers"] += 1
        return chart(self, zs)

    monkeypatch.setattr(ghlab.holo, "blaschke_derivs", counted_jet)
    monkeypatch.setattr(ModularCover, "chart", counted_chart)
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
        assert taken["calls"] == 1
        assert taken["points"] == points

    def test_curvature_scan_takes_one_metric_stack_per_row_and_step(self, monkeypatch,
                                                                    tmp_path):
        # three rho rows, each at the steps h and h/2
        taken = {"calls": 0}
        metric = HolomorphicData.metric

        def counted(self, rho, z):
            taken["calls"] += 1
            return metric(self, rho, z)

        monkeypatch.setattr(HolomorphicData, "metric", counted)
        assert main(["curvature-scan", "--grid", "2", "--seed", "0", "--out", str(tmp_path)]) == 0
        assert taken["calls"] == 6

    def test_rho_steps_need_no_evaluation(self, counts):
        data = standard_data()
        assert _taken(counts, lambda: data.metric(RHO, Z)) == (1, 1)
        h = 1e-4
        for rho in (RHO + h, RHO - h, RHO + h / 2, 0.5 * RHO):
            assert _taken(counts, lambda: data.metric(rho, Z)) == (0, 0)

    def test_g_sigma_keeps_no_record(self, counts):
        # one psi jet per call, and the conformal factor from the caller
        data = standard_data()
        m = data.cover.metric_factors_in_disc(Z)
        assert _taken(counts, lambda: data.g_sigma(Z, m)) == (1, 0)
        assert _taken(counts, lambda: data.g_sigma(Z, m)) == (1, 0)

    def test_zero_search_takes_one_circle_batch(self, counts, monkeypatch):
        kinds = []  # per Blaschke jet: was z an array
        counted = ghlab.holo.blaschke_derivs

        def typed_jet(spec, z):
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
            # one batch on the circle, one at the roots of psi' and the
            # centroids of their clusters, one record batch for the zeros
            # of beta, and no jet at one point
            assert kinds == [True] * 3
            assert len(report.zeros) == count
            assert covers <= len(report.zeros)

    def test_default_sweep_speed_evaluations(self, monkeypatch, tmp_path):
        """Speed evaluations of one default sweep: 8 Gauss-Legendre nodes
        on each panel, and each halved panel's sum carried down.  The
        speed takes arrays, one column per metric tag, and the sweep
        refines every rung of every target, each a unit interval of
        t = -log10(1 - r), in rounds: one call for all first panels and
        one per round of halvings, 11 calls in all, the disc column's
        rounds.  Each call takes one cover batch and one psi jet batch,
        both over all of its nodes."""
        taken = dict.fromkeys(("calls", "nodes", "charts", "chart_nodes", "jets"), 0)
        factory, chart = ghlab.pathlab._speed_fn, ModularCover.chart
        jet = ghlab.holo.blaschke_derivs

        def counted_factory(*args):
            speed = factory(*args)

            def counted(s, x, v):
                taken["calls"] += 1
                taken["nodes"] += len(s)
                return speed(s, x, v)

            return counted

        def counted_chart(self, zs):
            taken["charts"] += 1
            taken["chart_nodes"] += np.size(zs)
            return chart(self, zs)

        def counted_jet(spec, z):
            taken["jets"] += 1
            return jet(spec, z)

        monkeypatch.setattr(ghlab.pathlab, "_speed_fn", counted_factory)
        monkeypatch.setattr(ModularCover, "chart", counted_chart)
        monkeypatch.setattr(ghlab.holo, "blaschke_derivs", counted_jet)
        runs = []
        for run in range(2):
            taken.update(dict.fromkeys(taken, 0))
            assert main(["sweep", "--out", str(tmp_path / str(run))]) == 0
            runs.append(dict(taken))
        assert runs[0] == runs[1]
        assert runs[0] == {"calls": 11, "nodes": 1656, "charts": 11, "chart_nodes": 1656,
                           "jets": 11}

    def test_horizontal_length_fills_each_batch_once(self, monkeypatch):
        # one first panel of 8 nodes and one refinement of 16: two fills,
        # and no slice frame fills its point alone
        sizes = []
        fill = HolomorphicData.fill

        def counted(self, zs):
            zs = list(zs)
            sizes.append(len(zs))
            return fill(self, zs)

        monkeypatch.setattr(HolomorphicData, "fill", counted)
        seg = ghlab.pathlab.ParamPath.slice_segment((0.1, 0.05, 0.0), (0.45, 0.3, 1.2))
        ghlab.pathlab.horizontal_length(seg, standard_data())
        assert sizes == [8, 16]


def _bits(item) -> dict:
    """The bytes of each field of a record or slice frame, the derived
    fields of a frame included: the fields are those of the dtype of the
    store table that the record or frame views."""
    names = [*item._table.dtype.names]
    if isinstance(item, SliceFrame):
        names += ["lam0", "beta", "g_s"]
    return {name: np.asarray(getattr(item, name)).tobytes() for name in names}


class TestSharedFrames:
    """Each slice frame is built once per (z, slice) and then shared."""

    @pytest.fixture
    def built(self, monkeypatch):
        # the frames _build_frames writes to the store, one per row
        tally = [0]
        build = HolomorphicData._build_frames

        def counted(self, rows, which):
            tally[0] += len(rows)
            return build(self, rows, which)

        monkeypatch.setattr(HolomorphicData, "_build_frames", counted)
        return tally

    def test_verify_builds_one_frame_per_stencil_point(self, built, tmp_path):
        # 10 centres, each with 8 stencil points at h and h/2 along u and v
        assert main(["verify", "--grid", "10", "--seed", "0", "--out", str(tmp_path)]) == 0
        assert built[0] == 90

    @pytest.mark.parametrize("kind,code", [("canonical", 0), ("constant", 0)])
    def test_verify_counts_do_not_grow_with_the_grid(self, built, monkeypatch, tmp_path,
                                                     kind, code):
        """verify builds each frame once, in one assembly per slice kind,
        and makes as many field assemblies at 20 centres as at 5: each
        check runs once over the stack of centres.  (A constant rho0
        builds the zero slice as well as the canonical one.)"""
        taken = {"fields": 0, "builds": []}
        fields, build = HolomorphicData._fields, HolomorphicData._build_frames

        def counted_fields(self, rho, z):
            taken["fields"] += 1
            return fields(self, rho, z)

        def counted_build(self, rows, which):
            taken["builds"].append(which)
            return build(self, rows, which)

        monkeypatch.setattr(HolomorphicData, "_fields", counted_fields)
        monkeypatch.setattr(HolomorphicData, "_build_frames", counted_build)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": {"rho0_kind": kind, "rho0_scale": 0.7}}))
        kinds = ["canonical"] if kind == "canonical" else ["canonical", "zero"]
        field_calls = []
        for n in (5, 20):
            built[0] = 0
            taken.update(fields=0, builds=[])
            argv = ["verify", "--config", str(config), "--grid", str(n), "--seed", "0"]
            assert main(argv + ["--out", str(tmp_path / str(n))]) == code
            stencils = set(stencil_points(interior_points(n, 0), FDConfig()).tolist())
            assert built[0] == len(kinds) * len(stencils)
            assert sorted(taken["builds"]) == kinds
            field_calls.append(taken["fields"])
        assert field_calls[0] == field_calls[1]

    def test_zero_slice_is_the_canonical_slice(self, built):
        # with rho0_kind "canonical" both stencils take the same nine frames
        data = standard_data()
        structure_coeffs(data, Z, "zero")
        contact_ratio(data, Z)
        assert built[0] == 9
        assert _bits(data.slice_frame(Z, "zero")) == _bits(data.slice_frame(Z))
        assert built[0] == 9

    def test_kept_frames_are_read_only(self):
        # a caller gets copies: writing to them leaves the kept frame alone
        data = standard_data()
        names = ("x", "omega", "xflat", "g3", "theta", "drho")
        for zs in (Z, [Z, -Z]):
            frame = data.slice_frames(zs)
            kept = {name: getattr(frame, name).copy() for name in names}
            for name in names:
                getattr(frame, name)[0] = 1.0
            again = data.slice_frames(zs)
            for name in names:
                assert np.array_equal(getattr(again, name), kept[name]), (zs, name)


def _data(make: str, kind: str) -> HolomorphicData:
    """Blaschke or flat data with the rho0 kind ``kind``."""
    if make == "blaschke":
        return standard_data(rho0_kind=kind, rho0_scale=0.7)
    return HolomorphicData(cover=IdentityChart(), psi=HoloFn.constant(2j),
                           rho0_kind=kind, rho0_scale=0.7)


class TestGather:
    """record(zs) and slice_frames(zs, which) gather one stack in the
    shape of zs from the store; each entry is what the one-point call
    gives, bit for bit, Python scalars where a field has one value."""

    @pytest.mark.parametrize("kind", ["canonical", "constant", "scaled"])
    @pytest.mark.parametrize("make", ["blaschke", "flat"])
    def test_stack_equals_one_point_calls(self, make, kind):
        # repeated z, in a (2, 3) stack, against one-point calls on data
        # that builds every point alone
        zs = np.array([[Z, -0.2 + 0.1j, Z], [0.1 - 0.3j, 0.4j, -0.2 + 0.1j]])
        stack, single = _data(make, kind), _data(make, kind)
        got = [stack.record(zs), stack.slice_frames(zs, "canonical"),
               stack.slice_frames(zs, "zero")]
        assert len(stack._store) == 4
        for idx in np.ndindex(zs.shape):
            z = complex(zs[idx])
            want = [single.record(z), single.slice_frame(z, "canonical"),
                    single.slice_frame(z, "zero")]
            for stacked, one, table in zip(got, want, (_RECORD, _FRAME, _FRAME)):
                checked = _bits(one)
                # every field of the table, the built flag of a frame included
                assert set(table.names) <= set(checked)
                for name, bits in checked.items():
                    value, alone = getattr(stacked, name), getattr(one, name)
                    assert value.shape == zs.shape + np.shape(alone), name
                    assert value[idx].tobytes() == bits, (name, z)
                    if np.ndim(alone) == 0:
                        assert type(alone) in (float, complex, bool), name

    @pytest.mark.parametrize("kind", ["canonical", "constant", "scaled"])
    @pytest.mark.parametrize("make", ["blaschke", "flat"])
    def test_coframe_is_the_drho_row_of_the_forms(self, make, kind):
        """A frame's coframe is rho times row drho of each Omega_i, pulled
        back to its slice: the frames form that row alone, bit for bit
        the row of the whole forms."""
        data, zs = _data(make, kind), np.array(interior_points(40, 3))
        for which in ("canonical", "zero"):
            frame = data.slice_frames(zs, which)
            rho = frame.rho
            pull = np.zeros((len(zs), 4, 3))
            pull[:, 0], pull[:, 1, 0], pull[:, 2, 1], pull[:, 3, 2] = frame.drho, 1, 1, 1
            whole = gh_forms(*data._fields(rho, zs))
            assert frame.omega.tobytes() == (rho[:, None, None] * whole[:, :, 0] @ pull).tobytes()

    @pytest.mark.parametrize("read", ["record", "slice_frames"])
    def test_views_are_read_only(self, read):
        data = standard_data()
        for zs in (Z, [Z, -Z]):
            view = getattr(data, read)(zs)
            name = "psi" if read == "record" else "omega"
            with pytest.raises(AttributeError):
                setattr(view, name, 0.0)
            with pytest.raises(AttributeError):
                view.extra = 0.0
            assert np.array_equal(getattr(view, name), getattr(getattr(data, read)(zs), name))

    def test_unknown_names_raise(self):
        data = standard_data()
        for view in (data.record(Z), data.slice_frame(Z)):
            for name in ("nope", "_table_copy", "__setstate__", "lam"):
                with pytest.raises(AttributeError):
                    getattr(view, name)
        # the record sees no frame column, the frame no record field
        with pytest.raises(AttributeError):
            data.record(Z).canonical
        with pytest.raises(AttributeError):
            data.slice_frame(Z).psi
        # copying probes private names and must not recurse
        copied = copy.copy(data.slice_frame(Z))
        assert copied.omega.tobytes() == data.slice_frame(Z).omega.tobytes()

    def test_view_outlives_a_later_fill(self):
        # fill replaces the store array: an older view keeps reading its rows
        data = standard_data()
        zs = [Z, -0.2 + 0.1j]
        rec, frame = data.record(zs), data.slice_frames(zs)

        def reads():
            return [a.tobytes() for a in (rec.z, rec.psi, rec.row, frame.omega, frame.g_s)]

        before = reads()
        data.slice_frames(0.1j * np.arange(1, 8))
        assert len(data._store) == 9
        assert reads() == before
        rec, frame = data.record(zs), data.slice_frames(zs)
        assert reads() == before

    @pytest.mark.parametrize("make", ["blaschke", "flat"])
    def test_empty_input(self, make):
        # beta_zero_search passes [] when it finds no zero
        data = _data(make, "constant")
        rec = data.record([])
        assert (rec.z.shape, rec.m.shape, rec.p.shape) == ((0,), (0,), (0, 3))
        assert rec.row.shape == (0, 17)
        for which in ("canonical", "zero"):
            frame = data.slice_frames([], which)
            assert frame.rho.shape == frame.lam0.shape == (0,)
            assert frame.omega.shape == frame.g_s.shape == (0, 3, 3)
            assert frame.beta.shape == (0, 3)
        assert len(data._store) == 0


class TestStoreIndex:
    """The store finds a stack's rows by one binary search of its sorted
    z: as a dict of z would, it gives -0.0 and 0.0 one row, a z met
    again the row it got first, and a NaN or off-disc z no row."""

    def test_signed_zeros_share_a_row(self):
        data = HolomorphicData.flat_reference()
        zeros = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        assert data._rows(zeros).tolist() == [0, 0, 0, 0]
        assert data._rows([complex(-0.0, 0.3), 0.3j, 0.1]).tolist() == [1, 1, 2]
        assert len(data._store) == 3

    def test_duplicates_within_a_batch_get_one_row(self):
        data = standard_data()
        a, b = 0.1 + 0.2j, -0.3j
        data.fill([a, b, a, a, b, b])
        assert len(data._store) == 2
        assert data._rows([b, a, b]).tolist() == [1, 0, 1]

    def test_rows_come_in_first_occurrence_order(self):
        data = standard_data()
        zs = [0.4, -0.2 + 0.1j, 0.4, 0.1j, -0.2 + 0.1j, -0.5, 0.1j]
        data.fill(zs)
        assert data._store["record"]["z"].tolist() == [0.4, -0.2 + 0.1j, 0.1j, -0.5]
        assert data._rows(zs).tolist() == [0, 1, 0, 2, 1, 3, 2]

    def test_a_later_fill_is_found_beside_the_earlier(self):
        data = standard_data()
        first, later = [0.3, -0.1j, 0.2 + 0.2j], [0.25, 0.3, -0.6 + 0.1j, -0.1j, 0.0]
        data.fill(first)
        data.fill(later)
        assert data._store["record"]["z"].tolist() == first + [0.25, -0.6 + 0.1j, 0.0]
        rows = data._rows(np.array([later, first + first[:2]]))
        assert rows.tolist() == [[3, 0, 4, 1, 5], [0, 1, 2, 0, 1]]
        assert len(data._store) == 6
        # every row holds its own z
        z = data._store["record"]["z"]
        assert z[rows].tolist() == [later, first + first[:2]]

    @pytest.mark.parametrize("batch, bad", [
        ([0.1, complex(math.nan, 0.0), 1.2], "nan"),
        ([0.1, 1.2, complex(math.nan, 0.0)], "1.2"),
        ([0.1, 0.3j, 1.5j, 0.1, complex(0.2, math.nan)], "1.5"),
        ([complex(math.nan, math.nan), complex(math.nan, math.nan)], "nan"),
    ], ids=["nan-first", "off-disc-first", "off-disc-after-a-known-z", "two-nans"])
    def test_nan_and_off_disc_raise_naming_the_first(self, batch, bad):
        data = standard_data()
        data.fill([0.1])
        for call in (data.fill, data._rows):
            with pytest.raises(PunctureError, match=rf"^\|z\| = {re.escape(bad)} is not "
                                                     r"inside the disc$"):
                call(batch)
            assert len(data._store) == 1
        # the failed batches left no key behind
        assert data._rows([0.3j, 0.1]).tolist() == [1, 0]


class TestXiCounts:
    def test_one_batch_per_cold_xi(self, monkeypatch):
        """xi comes from the fields of the record: a cold point takes one
        cover batch, then one psi jet batch, and no value of psi, which
        an integrand of xi would read."""
        data = standard_data()
        calls = []
        jet, chart = ghlab.holo.blaschke_derivs, ModularCover.chart
        products = ghlab.holo._blaschke_batch

        def counted_jet(spec, z):
            calls.append("jet batch" if isinstance(z, np.ndarray) else "jet")
            return jet(spec, z)

        def counted_products(spec, z, derivs=True):
            if not derivs:
                calls.append("B batch")
            return products(spec, z, derivs)

        def counted_chart(self, zs):
            calls.append("cover batch")
            return chart(self, zs)

        monkeypatch.setattr(ghlab.holo, "blaschke_derivs", counted_jet)
        monkeypatch.setattr(ghlab.holo, "_blaschke_batch", counted_products)
        monkeypatch.setattr(ModularCover, "chart", counted_chart)
        z = 0.22 + 0.13j
        first = data.xi_at(z)
        assert calls == ["cover batch", "jet batch"]
        assert data.xi_at(z) == first
        assert calls == ["cover batch", "jet batch"]
        data.fill([z, 0.5j, -0.3, 0.5j])
        assert calls == ["cover batch", "jet batch"] * 2


class TestXiPrefetch:
    """verify and curvature-scan make every record of the pass in one
    fill before it, of one cover batch and one psi jet batch: after that
    call no record is made and no cover is evaluated."""

    @pytest.mark.parametrize("argv", [["verify", "--grid", "10"],
                                      ["curvature-scan", "--grid", "2"]],
                             ids=["verify", "curvature-scan"])
    def test_one_prefetch_in_batches(self, argv, monkeypatch, tmp_path):
        phases = ("before", "during", "after")
        state = {"phase": "before", "points": 0, "made": dict.fromkeys(phases, 0),
                 "covers": dict.fromkeys(phases, 0), "jets": dict.fromkeys(phases, 0)}
        fill = HolomorphicData.fill

        def counted_fill(self, zs):
            # rows appended to the store, per phase
            rows = len(self._store)
            if state["phase"] == "before":
                zs = list(zs)
                state["points"] = len(set(map(complex, zs)))
                state["phase"] = "during"
                fill(self, zs)
                state["made"]["during"] += len(self._store) - rows
                state["phase"] = "after"
            else:
                fill(self, zs)
                state["made"][state["phase"]] += len(self._store) - rows

        def counted(kind, fn):
            def call(*args):
                state[kind][state["phase"]] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(HolomorphicData, "fill", counted_fill)
        monkeypatch.setattr(ModularCover, "chart", counted("covers", ModularCover.chart))
        monkeypatch.setattr(ghlab.holo, "blaschke_derivs",
                            counted("jets", ghlab.holo.blaschke_derivs))
        assert main(argv + ["--seed", "0", "--out", str(tmp_path)]) == 0
        assert state["made"]["after"] == state["covers"]["after"] == 0
        assert state["made"]["during"] == state["points"]
        assert state["covers"]["during"] == state["jets"]["during"] == 1


class TestXiNodes:
    def test_verify_prefetch_node_count(self, monkeypatch, tmp_path):
        """verify --grid 10 evaluates the cover at each distinct point of
        its prefetch once, and nowhere else: no node of a quadrature.  A
        count that no machine moves."""
        seen = {"points": None, "nodes": 0}
        fill, chart = HolomorphicData.fill, ModularCover.chart

        def first_fill(self, zs):
            if seen["points"] is None:
                seen["points"] = set(map(complex, zs))
            fill(self, zs)

        def counted(self, zs):
            seen["nodes"] += np.size(zs)
            return chart(self, zs)

        monkeypatch.setattr(HolomorphicData, "fill", first_fill)
        monkeypatch.setattr(ModularCover, "chart", counted)
        assert main(["verify", "--grid", "10", "--seed", "0", "--out", str(tmp_path)]) == 0
        assert len(seen["points"]) == seen["nodes"] == 90


class TestRhoColumnPoints:
    def test_verify_hands_fields_no_rho_shifted_point(self, monkeypatch, tmp_path):
        """closure and curl take their rho column from the homothety: a
        verify --grid 10 pass hands _fields only the slice height Im psi
        of a point of the pass, never one moved along rho by a step.  Its
        280 points are the 90 frames, the 10 centres of the quaternion
        check and 10 centres with their 80 (u, v) stencil points for each
        of closure and curl, at the centres' heights (340 with the
        (rho, u, v) stencils, which moved rho)."""
        seen = []
        fields = HolomorphicData._fields

        def recorded(self, rho, z):
            seen.append((self, *np.broadcast_arrays(np.asarray(rho, dtype=float),
                                                    np.asarray(z, dtype=complex))))
            return fields(self, rho, z)

        monkeypatch.setattr(HolomorphicData, "_fields", recorded)
        assert main(["verify", "--grid", "10", "--seed", "0", "--out", str(tmp_path)]) == 0
        data = seen[0][0]
        assert all(d is data for d, _, _ in seen)
        rho = np.concatenate([r.ravel() for _, r, _ in seen])
        z = np.concatenate([w.ravel() for _, _, w in seen])
        assert len(rho) == 280
        heights = set(data.record(np.unique(z)).psi.imag.tolist())
        assert set(rho.tolist()) <= heights


# Eight directions that avoid the cusps 1, i, -1 and -i.
DIRECTIONS = [cmath.exp(1j * (0.5 + 2 * math.pi * j / 8)) for j in range(8)]


class TestBatchAgainstPoint:
    """A record's fields come from one batch, and they equal the point
    functions exactly: psi's jet and the cover's value at one point are
    each a batch of one."""

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
        for z in zs:
            rec, jet = data.record(z), data.psi.jet(z)
            assert rec.psi == jet[0] and rec.dpsi == jet[1], z

    def test_conformal_factor(self, sample):
        data, zs = sample
        for z in zs:
            assert data.record(z).m == metric_factors(data.cover, z), z
        assert data.record(0.99).m == metric_factors(data.cover, 0.99) == 0.0

    def test_sphere_point(self, sample):
        data, zs = sample
        for z in zs:
            p = sphere_jacobian(*data.cover.value(z))[0]
            assert np.array_equal(data.record(z).p, p), z

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
        """closure_residual differences along (u, v) alone, at the
        centre's rho, and takes its rho column from the homothety: the
        general stencil over (rho, u, v, theta), one point per call,
        with the same exact rho column, gives its residual bit for bit."""
        data = standard_data()
        degree = HolomorphicData.WEIGHTS[:, None] + HolomorphicData.WEIGHTS
        worst = 0.0
        for i in range(3):
            def two_form(x, i=i):
                return data.symplectic(x[0], complex(x[1], x[2]))[i]

            d = fd_exterior_derivative_exact_rho(two_form, [RHO, Z.real, Z.imag, 0.0], degree)
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
        def quotient(d, z):
            return d.g_sigma(z, d.cover.metric_factors_in_disc(z))

        data = standard_data()
        expected = quotient(data, Z)

        def no_record(*args, **kwargs):
            raise AssertionError("g_sigma made a record, xi among its fields")

        monkeypatch.setattr(HolomorphicData, "fill", no_record)
        fresh = standard_data()
        assert np.array_equal(quotient(fresh, Z), expected)
        assert np.array_equal(quotient(fresh, -0.4 + 0.1j), quotient(data, -0.4 + 0.1j))
