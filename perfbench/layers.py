"""What the traced run wraps, and the per-layer metrics it reports.

Each metric below names, in its comment group, the end-to-end metric it
should move and on which workload.  ``calls`` and ``points`` both count
z values passed in, so a batched call counts every point it evaluates.
"""

from __future__ import annotations

from tracer import Layer

_VERIFY_CHECKS = (
    "closure_residual", "curl_residual", "quaternion_check",
    "structure_coeffs", "contact_ratio", "cauchy_riemann_residual",
)

LAYERS = (
    Layer("holo.blaschke", "ghlab.holo:blaschke_derivs", zarg="z", distinct=True),
    Layer("covering.value", "ghlab.covering:ModularCover.value", zarg="z", distinct=True),
    Layer("tessellation.reduce", "ghlab.tessellation:reduce_to_fundamental", zarg="tau"),
    Layer("ansatz.xi", "ghlab.ansatz:HolomorphicData.xi_at", zarg="z", distinct=True),
    Layer("ansatz.metric", "ghlab.ansatz:HolomorphicData.metric", zarg="z"),
    Layer("ansatz.symplectic", "ghlab.ansatz:HolomorphicData.symplectic", zarg="z"),
    Layer("ansatz.slice_frame", "ghlab.ansatz:HolomorphicData.slice_frame", zarg="z",
          distinct=True),
    Layer("ansatz.g_sigma", "ghlab.ansatz:HolomorphicData.g_sigma", zarg="z"),
    *(Layer(f"verify.{c}", f"ghlab.verify:{c}", zarg="z") for c in _VERIFY_CHECKS),
    Layer("verify.curvature", "ghlab.verify:curvature"),
    Layer("verify.beta_zero_search", "ghlab.verify:beta_zero_search",
          units=lambda report: len(report.zeros)),
    Layer("pathlab.divergence_sweep", "ghlab.pathlab:divergence_sweep"),
    # the speed closure a sweep integrates: one call per path point
    Layer("pathlab.speed", "ghlab.pathlab:_speed_fn", factory=True),
    Layer("cli.build_data", "ghlab.cli:build_data"),
    Layer("cli.write_csv", "ghlab.cli:write_csv"),
    Layer("cli.update_manifest", "ghlab.cli:update_manifest"),
)

MODULES = ("holo", "tessellation", "covering", "ansatz", "verify", "pathlab", "cli")

# unit and better-direction of each statistic a metric can report
KINDS = {
    "points": ("count", "lower"),
    "calls": ("count", "lower"),
    "quadratures": ("count", "lower"),
    "raised": ("count", "lower"),
    "distinct_ratio": ("ratio", "higher"),
    "self_s": ("s", "lower"),
    "busy_s": ("s", "lower"),
    "us_per_point": ("us", "lower"),
    "blaschke_per_call": ("points/call", "lower"),
    "blaschke_per_zero": ("points/zero", "lower"),
}

# Count kinds are deterministic per pass and are compared with the
# recorded baseline in the traced run.
COUNT_KINDS = ("points", "calls", "quadratures", "raised", "distinct_ratio")

# (metric name, layer, kind)
_TABLE = [
    # wall_s on beta-zeros and verify-grid100
    *(("holo.blaschke." + k, "holo.blaschke", k)
      for k in ("points", "distinct_ratio", "self_s", "us_per_point")),
    # wall_s on verify-grid100, curvature-grid12 and sweep-boundary
    *(("covering.value." + k, "covering.value", k)
      for k in ("points", "distinct_ratio", "self_s", "us_per_point", "raised")),
    # wall_s on sweep-boundary, where reductions are deepest
    ("tessellation.reduce.calls", "tessellation.reduce", "calls"),
    ("tessellation.reduce.self_s", "tessellation.reduce", "self_s"),
    # wall_s on verify-grid100 and curvature-grid12
    ("ansatz.xi.calls", "ansatz.xi", "calls"),
    ("ansatz.xi.quadratures", "ansatz.xi", "quadratures"),
    ("ansatz.xi.self_s", "ansatz.xi", "self_s"),
    # wall_s on curvature-grid12
    ("ansatz.metric.calls", "ansatz.metric", "calls"),
    ("ansatz.metric.self_s", "ansatz.metric", "self_s"),
    # wall_s on verify-grid100
    ("ansatz.symplectic.calls", "ansatz.symplectic", "calls"),
    ("ansatz.symplectic.self_s", "ansatz.symplectic", "self_s"),
    ("ansatz.slice_frame.calls", "ansatz.slice_frame", "calls"),
    ("ansatz.slice_frame.distinct_ratio", "ansatz.slice_frame", "distinct_ratio"),
    ("ansatz.slice_frame.busy_s", "ansatz.slice_frame", "busy_s"),
    # wall_s on sweep-boundary
    ("ansatz.g_sigma.calls", "ansatz.g_sigma", "calls"),
    ("ansatz.g_sigma.self_s", "ansatz.g_sigma", "self_s"),
    # wall_s on verify-grid100
    *((f"verify.{c}.{k}", f"verify.{c}", k)
      for c in _VERIFY_CHECKS for k in ("busy_s", "blaschke_per_call")),
    # wall_s on curvature-grid12
    ("verify.curvature.busy_s", "verify.curvature", "busy_s"),
    ("verify.curvature.self_s", "verify.curvature", "self_s"),
    # wall_s on beta-zeros
    ("verify.beta_zero_search.busy_s", "verify.beta_zero_search", "busy_s"),
    ("verify.beta_zero_search.self_s", "verify.beta_zero_search", "self_s"),
    ("verify.beta_zero_search.blaschke_per_zero", "verify.beta_zero_search",
     "blaschke_per_zero"),
    # wall_s on sweep-boundary
    ("pathlab.divergence_sweep.busy_s", "pathlab.divergence_sweep", "busy_s"),
    ("pathlab.divergence_sweep.self_s", "pathlab.divergence_sweep", "self_s"),
    ("pathlab.speed_points", "pathlab.speed", "points"),
    # the three CLI workloads; under 1 % today, predicted not to move
    ("cli.build_data.busy_s", "cli.build_data", "busy_s"),
    ("cli.write_csv.busy_s", "cli.write_csv", "busy_s"),
    ("cli.update_manifest.busy_s", "cli.update_manifest", "busy_s"),
]


def per_layer_spec() -> list:
    """[(name, unit, better)] for every per-layer metric, in report order."""
    spec = [(name, *KINDS[kind]) for name, _, kind in _TABLE]
    # setup_s on every workload
    spec += [(f"{m}.import_s", "s", "lower") for m in MODULES]
    # the traced wall_s minus the untraced wall_s
    spec.append(("trace.overhead_s", "s", "lower"))
    return spec


def count_metrics() -> list:
    return [name for name, _, kind in _TABLE if kind in COUNT_KINDS]


def _value(st, kind: str, passes: int):
    ratio = (lambda a, b: a / b if b else 0.0)
    return {
        "points": st.points / passes,
        "calls": st.points / passes,
        "quadratures": st.distinct / passes,
        "raised": sum(st.raised.values()) / passes,
        "distinct_ratio": ratio(st.distinct, st.points),
        "self_s": st.self_s / passes,
        "busy_s": st.busy_s / passes,
        "us_per_point": ratio(st.self_s * 1e6, st.points),
        "blaschke_per_call": ratio(st.holo_points, st.points),
        "blaschke_per_zero": ratio(st.holo_points, st.units),
    }[kind]


def layer_values(tracer) -> tuple:
    """({metric: value or None}, {metric: reason}) for the traced passes.

    A metric whose function could not be wrapped (removed or renamed)
    is None, with the reason.  A ratio over a layer that was not called
    on this workload is 0.
    """
    values, reasons = {}, {}
    for name, layer, kind in _TABLE:
        st = tracer.stats.get(layer)
        if st is None:
            values[name] = None
            reasons[name] = tracer.missing[layer]
        else:
            values[name] = _value(st, kind, tracer.passes)
    return values, reasons
