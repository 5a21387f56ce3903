"""The per-point records: evaluation counts and correctness.

Every field of the ansatz is a power of rho times a function of z, and
none depends on theta, so the psi jet, the covering value and xi are
taken once per disc point and shared by every form assembled there.
These tests count Blaschke jets (calls of ``blaschke_derivs``) and
covering values (calls of ``ModularCover.value``), so a regression in
the sharing shows as a count rather than as timing noise.
"""

import numpy as np
import pytest

import ghlab.holo
from ghlab.ansatz import HolomorphicData, standard_data
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

    def test_zero_search_takes_one_jet_per_iterate(self, counts, monkeypatch):
        steps = []
        lstsq = np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            steps.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        data = standard_data(vertices=(1, -1, 1j))
        grid = 8
        report = None

        def search():
            nonlocal report
            report = beta_zero_search(data, grid=grid)

        jets, covers = _taken(counts, search)
        # one jet per Gauss-Newton step, plus per seed at most the jet
        # that stops the iteration and one for the final residual; then
        # 5 probes for constant data and one slice frame per zero
        assert jets <= len(steps) + 2 * grid * grid + 5 + len(report.zeros)
        assert len(report.zeros) == 1
        assert covers <= len(report.zeros)


class TestRecords:
    def test_theta_column_is_exactly_zero(self):
        """The fields on the old 4-D stencil over (rho, u, v, theta):
        differencing along theta gives exactly 0, so the stencils can
        drop that axis."""
        data = standard_data()
        x = np.array([RHO, Z.real, Z.imag, 0.0])
        fields = {
            "omega": lambda x: np.array(data.symplectic(x[0], complex(x[1], x[2]))),
            "eta": lambda x: data.eta_at(x[0], complex(x[1], x[2])),
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
        assert variant.potential(RHO, Z) == pytest.approx(data.potential(RHO, Z) / 2, rel=1e-14)
        np.testing.assert_allclose(variant.xi_at(Z), np.array(data.xi_at(Z)) / 2, rtol=1e-9)

    def test_g_sigma_computes_no_xi(self, monkeypatch):
        data = standard_data()
        expected = data.g_sigma(Z)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("g_sigma ran the xi quadrature")

        monkeypatch.setattr("ghlab.ansatz.quad", no_quadrature)
        fresh = standard_data()
        assert np.array_equal(fresh.g_sigma(Z), expected)
        assert np.array_equal(fresh.g_sigma(-0.4 + 0.1j), data.g_sigma(-0.4 + 0.1j))
