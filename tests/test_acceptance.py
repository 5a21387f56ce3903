"""Release acceptance suite.

Each test exercises one release criterion end to end at its stated
tolerance and prints a single pass/fail line (run with ``pytest -s``
to see the lines as they happen).  The criteria are deliberately
aggregated: a test collects every required quantity first and then
reports once, so the printed line always appears.
"""

import json
import math
import time

import numpy as np

from ghlab.ansatz import HolomorphicData, beta_cross_check, mu_variant, standard_data
from ghlab.cli import interior_points, main
from ghlab.covering import puncture_distance
from ghlab.pathlab import (
    ParamPath,
    divergence_sweep,
    fingerprint_distance,
    fingerprint_samples,
    hexagon_constants,
    horizontal_length,
    log_variation_check,
    path_length,
    radial_graph_fingerprint,
)
from ghlab.holo import MuSpec
from ghlab.verify import (
    beta_zero_search,
    cauchy_riemann_residual,
    closure_residual,
    contact_ratio,
    curl_residual,
    curvature_with_noise,
    metric_field,
    quaternion_check,
    structure_coeffs,
)

FLAT = HolomorphicData.flat_reference()
DATA = standard_data()
DATA3 = standard_data(vertices=(1.0 + 0j, -1.0 + 0j, 1j))


def _report(n: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {n} [{label}]: {verdict}{extra}", flush=True)
    assert ok, f"criterion {n} [{label}] failed: {detail}"


def test_flat_reference_grid_is_flat():
    t0 = time.monotonic()
    fn = metric_field(FLAT)
    max_riem = 0.0
    max_noise = 0.0
    for rho in np.linspace(0.8, 1.4, 5):
        for u in np.linspace(-0.5, 0.5, 5):
            for v in np.linspace(-0.3, 0.3, 3):
                coarse, _, noise = curvature_with_noise(
                    fn, [rho, u, v, 0.0], h=1e-3
                )
                max_riem = max(max_riem, coarse.riemann_max)
                max_noise = max(max_noise, noise["riemann"], noise["ricci"])
    elapsed = time.monotonic() - t0
    ok = max_riem < 1e-3 and max_noise < 1e-4 and elapsed < 120.0
    _report(1, "flat reference end-to-end", ok,
            f"max |Riemann| {max_riem:.2e} on 5x5x3x1 grid, "
            f"noise {max_noise:.2e}, {elapsed:.1f}s")


def test_identity_suite_on_three_vertex_blaschke():
    t0 = time.monotonic()
    points = interior_points(50, 0)
    quat = clo = curl = cr = 0.0
    for z in points:
        frame = DATA3.slice_frame(z)
        quat = max(quat, max(quaternion_check(DATA3, frame.rho, z).values()))
        clo = max(clo, closure_residual(DATA3, frame.rho, z))
        curl = max(curl, curl_residual(DATA3, frame.rho, z)["max"])
        cr = max(cr, cauchy_riemann_residual(DATA3.phi, z))
    elapsed = time.monotonic() - t0
    ok = (quat < 1e-8 and clo < 1e-4 and curl < 1e-4 and cr < 1e-8
          and len(points) >= 50 and elapsed < 300.0)
    _report(2, "hyperkahler identities, 6 zeros / 3 vertices", ok,
            f"quaternion {quat:.2e}, closure {clo:.2e}, curl {curl:.2e}, "
            f"CR {cr:.2e} at {len(points)} points, {elapsed:.1f}s")


def test_ricci_flat_yet_curved_with_quadratic_convergence():
    coarse, _, noise = curvature_with_noise(
        metric_field(DATA), [1.1, 0.3, 0.2, 0.0], h=1e-3
    )
    floor = max(noise.values())
    separated = (coarse.ricci_max < 10.0 * floor
                 and coarse.riemann_max > 100.0 * floor)

    fn = metric_field(FLAT)
    c1, f1, _ = curvature_with_noise(fn, [0.5, 0.2, -0.4, 1.0], h=2e-2)
    ratio = c1.riemann_max / f1.riemann_max
    c2, f2, _ = curvature_with_noise(fn, [1.3, 0.2, 0.1, 0.0], h=2e-2)
    ratio_generic = c2.riemann_max / f2.riemann_max

    ok = separated and ratio >= 4.0 and 3.9 < ratio_generic < 4.1
    _report(3, "Ricci-flat but non-flat, second-order FD", ok,
            f"Ric {coarse.ricci_max:.2e} vs Riem {coarse.riemann_max:.2e} "
            f"over floor {floor:.2e}; h->h/2 ratios {ratio:.4f}, "
            f"{ratio_generic:.4f}")


def test_canonical_slice_identities():
    points = interior_points(100, 0)
    potential = radius = twist = 0.0
    for z in points:
        frame = DATA.slice_frame(z)
        psi = DATA.psi(z)
        phi = DATA.phi(z)
        potential = max(potential, abs(frame.V - abs(phi) ** 2))
        radius = max(radius, abs(frame.rho - psi.imag))
        twist = max(twist, abs(frame.t_slice))
    lam_gap = 0.0
    for z in points[:10]:
        fit = structure_coeffs(DATA, z, "zero")
        lam_gap = max(lam_gap, abs(fit.lam0 - math.exp(DATA.slice_frame(z).t_slice)))
    ok = (potential < 1e-8 and radius < 1e-8 and twist < 1e-8
          and lam_gap < 1e-4)
    _report(4, "canonical slice identities", ok,
            f"V=|phi|^2 {potential:.2e}, rho=Im psi {radius:.2e}, "
            f"t {twist:.2e} at {len(points)} points; Lambda0 {lam_gap:.2e}")


def test_contact_structure_suite():
    points = interior_points(100, 0)
    cross = psi_rec = gap = 0.0
    signs_ok = True
    for z in points:
        frame = DATA.slice_frame(z)
        psi = DATA.psi(z)
        bc = beta_cross_check(DATA, z)
        cross = max(
            cross,
            np.abs(bc["beta_solved"] - bc["beta_direct"]).max(),
            np.abs(bc["gamma_solved"] - bc["gamma_direct"]).max(),
        )
        psi_rec = max(psi_rec, abs(complex(-frame.beta[2], frame.rho) - psi))
        ct = contact_ratio(DATA, z)
        gap = max(gap, abs(ct["ratio"] - ct["algebraic"]))
        signs_ok = signs_ok and ct["ratio"] < 0.0
    structure = max(structure_coeffs(DATA, z, "zero").residual
                    for z in points[:25])
    zeros = beta_zero_search(DATA)
    locus_ok = (len(zeros.zeros) == 5
                and np.isfinite(zeros.min_separation)
                and zeros.min_separation > 1e-3)
    ok = (structure < 1e-4 and cross < 1e-6 and psi_rec < 1e-6
          and signs_ok and gap < 1e-4 and locus_ok)
    _report(5, "contact suite", ok,
            f"structure {structure:.2e}, beta system {cross:.2e}, "
            f"psi rebuild {psi_rec:.2e}, ratio gap {gap:.2e} all negative; "
            f"{len(zeros.zeros)} zeros separated {zeros.min_separation:.2f}")


def test_completeness_evidence_and_region_constants():
    generic = divergence_sweep(DATA, [complex(math.cos(0.7), math.sin(0.7))],
                               ["sphere"])["sphere"][0]
    vertex = divergence_sweep(DATA, [1.0 + 0j], ["sphere", "disc"])
    vertex_sphere, vertex_disc = vertex["sphere"][0], vertex["disc"][0]
    verdicts_ok = (generic.verdict == "divergent-evidence"
                   and vertex_sphere.verdict == "bounded-evidence"
                   and vertex_disc.verdict == "divergent-evidence")

    checked = 0
    inequality_ok = True
    for i, d in enumerate((1.0 + 0j, 1j, -1.0 + 0j, -1j)):
        j = min((1, 2, 3),
                key=lambda k: puncture_distance(DATA.cover, 0.9995 * d, k))
        for k in range(3):
            lo = 0.999 + 5e-5 * (3 * i + k) / 12.0
            path = ParamPath.radial_window(d, lo, lo + 8e-5)
            lhs, rhs = log_variation_check(path, DATA, region=j)
            inequality_ok = inequality_ok and lhs >= rhs - 1e-3
            checked += 1

    hc = hexagon_constants(0.1)
    constants_ok = (hc.c1 > 0 and hc.c2 > 0 and hc.c3 > 0
                    and abs(hc.c2 - (math.pi / 2 - 0.2)) < 1e-12)
    ok = verdicts_ok and checked >= 10 and inequality_ok and constants_ok
    _report(6, "completeness mechanism", ok,
            f"verdicts {generic.verdict}/{vertex_sphere.verdict}/"
            f"{vertex_disc.verdict}; log-variation holds on {checked} "
            f"hororegion paths; c=({hc.c1:.3f}, {hc.c2:.4f}, {hc.c3:.2f})")


def test_horizontal_paths_realize_short_metric():
    rng = np.random.default_rng(7)
    worst = 0.0
    rerouted = 0
    for k in range(20):
        r0 = 0.15 + 0.35 * rng.random()
        a0 = 2.0 * math.pi * rng.random()
        z0 = r0 * complex(math.cos(a0), math.sin(a0))
        if k % 2 == 0:
            p0 = [z0.real, z0.imag, 2.0 * math.pi * rng.random()]
            dr = 0.25 * (rng.random(3) - 0.5)
            p1 = [p0[0] + dr[0], p0[1] + dr[1], p0[2] + 2.0 * dr[2]]
            path = ParamPath.slice_segment(p0, p1)
        else:
            path = ParamPath.theta_circle(z0, turns=0.3 + 0.5 * rng.random())
        rep = horizontal_length(path, DATA)
        worst = max(worst, abs(rep.g3_length - rep.gs_length))
        rerouted += rep.rerouted

    control = ParamPath.theta_circle(-0.3587 + 0.6011j, turns=1.0)
    excess = (path_length(control, "g3", DATA)
              - path_length(control, "gs", DATA))
    ok = worst < 1e-8 and rerouted == 0 and excess > 1e-3
    _report(7, "Carnot-Caratheodory phenomenon", ok,
            f"20 projected paths agree to {worst:.1e}; "
            f"control excess {excess:.2e}")


def test_mu_family_fingerprints_separate():
    samples = fingerprint_samples()
    prints = [
        radial_graph_fingerprint(DATA, samples),
        radial_graph_fingerprint(
            mu_variant(DATA, MuSpec(kind="scale", scale=2.0)), samples),
        radial_graph_fingerprint(
            mu_variant(DATA, MuSpec(kind="perturb", eps_re=0.05)), samples),
    ]
    dists = [fingerprint_distance(prints[i], prints[j])
             for i in range(3) for j in range(i + 1, 3)]
    ok = len(samples) == 100 and all(d > 1e-4 for d in dists)
    _report(8, "mu family separation", ok,
            "pairwise distances " + ", ".join(f"{d:.4f}" for d in dists))


def test_driver_reproducibility_and_corruption_detection(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "data": {"kind": "flat"},
        "grid": {"samples": 6, "resolution": 3},
        "out_dir": str(tmp_path / "out"),
    }))
    codes = [main([cmd, "--config", str(cfg)])
             for cmd in ("tessellate", "build", "verify", "sweep")]
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    codes += [main([cmd, "--config", str(cfg)])
              for cmd in ("tessellate", "build", "verify", "sweep")]
    second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    identical = first == second and all(c == 0 for c in codes)

    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps({
        "data": {"v_multiplier": 1.01},
        "grid": {"samples": 6},
        "out_dir": str(tmp_path / "out2"),
    }))
    capsys.readouterr()
    rc = main(["verify", "--config", str(bad)])
    err = capsys.readouterr().err
    named = rc == 1 and "failed_check=curl" in err
    with capsys.disabled():
        _report(9, "infrastructure", identical and named,
                f"{len(first)} files byte-identical across reruns; corrupted "
                f"potential exits {rc} naming the curl residual")
