"""The benchmark's workloads: one pass, its set-up and its output check.

Each workload runs through a public entry point, ``ghlab.cli.main`` or
``ghlab.verify.beta_zero_search``.  Nothing here imports ghlab at module
level, so that a set-up probe can time the import itself.

A pass returns whatever its check needs; ``check`` returns a list of
problems, empty when the output is right.  A pass with a problem, a
nonzero exit or an exception counts as failed.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The nine checks ``ghlab verify`` prints one ``check=`` line for.
VERIFY_CHECKS = (
    "cauchy_riemann", "quaternion", "closure", "curl", "slice_identity",
    "structure", "beta_cross", "psi_reconstruction", "contact",
)

# Radius of the four off-centre contact zeros of the 4-vertex data.
# Rotating the vertex set rotates the zeros and leaves this unchanged.
BETA_RING_RADIUS = 0.6625322041
BASE_VERTICES = (1, 1j, -1, -1j)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable  # seed -> HolomorphicData, the start-up every invocation pays
    run: Callable  # (seed, out_dir) -> result of one pass
    check: Callable  # (result, out_dir) -> list of problems
    uses_seed: bool = True


# ---- CLI workloads -------------------------------------------------------


def _cli_setup(seed):
    import ghlab.cli as cli

    cfg = cli.ExperimentConfig()
    return cli.build_data(cfg.data)


def _cli_pass(argv):
    def run(seed, out_dir):
        import ghlab.cli as cli

        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv(seed) + ["--out", str(out_dir)])
        return rc, err.getvalue()

    return run


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_verify(result, out_dir):
    rc, err = result
    problems = [] if rc == 0 else [f"exit code {rc}"]
    status = dict(re.findall(r"^check=(\S+) .*status=(\w+)", err, re.M))
    for name in VERIFY_CHECKS:
        if status.get(name) != "pass":
            problems.append(f"check {name}: {status.get(name, 'missing')}")
    if "failed_check=contact_sign" in err:
        problems.append("contact_sign failed")
    return problems


def _check_curvature(result, out_dir):
    rc, _ = result
    problems = [] if rc == 0 else [f"exit code {rc}"]
    rows = _read_csv(out_dir / "curvature.csv")
    if len(rows) != 36:
        return problems + [f"{len(rows)} rows, expected 36"]
    max_ricci = max(float(r["ricci_max"]) for r in rows)
    max_noise = max(float(r["noise_ricci"]) for r in rows)
    min_riemann = min(float(r["riemann_max"]) for r in rows)
    # pure O(h^2) truncation puts max_ricci at 4/3 of its h-vs-h/2 gap
    if not max_ricci <= 1.5 * max_noise:
        problems.append(f"max_ricci {max_ricci:.3g} > 1.5 x noise {max_noise:.3g}")
    if not min_riemann > 1e-3:
        problems.append(f"min_riemann {min_riemann:.3g} <= 1e-3 (not visibly curved)")
    return problems


def _sweep_expected():
    out = {}
    for v in BASE_VERTICES:
        v = complex(v)
        out[(round(v.real, 9), round(v.imag, 9), "sphere")] = "bounded-evidence"
        out[(round(v.real, 9), round(v.imag, 9), "disc")] = "divergent-evidence"
    generic = cmath.exp(0.7j)
    for tag in ("sphere", "disc"):
        out[(round(generic.real, 9), round(generic.imag, 9), tag)] = "divergent-evidence"
    return out


def _check_sweep(result, out_dir):
    rc, _ = result
    problems = [] if rc == 0 else [f"exit code {rc}"]
    got = {}
    for r in _read_csv(out_dir / "sweeps.csv"):
        key = (round(float(r["target_re"]), 9), round(float(r["target_im"]), 9), r["tag"])
        got.setdefault(key, set()).add(r["verdict"])
    expected = _sweep_expected()
    if set(got) != set(expected):
        problems.append(f"swept {sorted(got)}, expected {sorted(expected)}")
    for key, verdict in expected.items():
        if key in got and got[key] != {verdict}:
            problems.append(f"verdict {key}: {sorted(got[key])}, expected {verdict}")
    return problems


# ---- beta zeros ----------------------------------------------------------


def beta_angle(seed: int) -> float:
    """Rotation of the vertex set: golden-ratio steps, 0 at seed 0."""
    return 2.0 * math.pi * ((seed * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0)


def _beta_setup(seed):
    import ghlab.cli  # noqa: F401  (the start-up a user of the package pays)
    from ghlab.ansatz import standard_data

    turn = cmath.exp(1j * beta_angle(seed))
    return standard_data(vertices=tuple(turn * v for v in BASE_VERTICES))


def _beta_pass(seed, out_dir):
    from ghlab import verify

    return verify.beta_zero_search(_beta_setup(seed))


def _check_beta(report, out_dir):
    zeros = list(report.zeros)
    if len(zeros) != 5:
        return [f"{len(zeros)} zeros, expected 5"]
    problems = []
    centre = [z for z in zeros if abs(z) < 1e-3]
    ring = [z for z in zeros if abs(abs(z) - BETA_RING_RADIUS) <= 1e-6]
    if len(centre) != 1 or len(ring) != 4:
        problems.append(f"zero radii {[abs(z) for z in zeros]}")
    else:
        angles = sorted(cmath.phase(z) for z in ring)
        gaps = [(b - a) % (2.0 * math.pi) for a, b in zip(angles, angles[1:] + angles[:1])]
        if max(abs(g - math.pi / 2.0) for g in gaps) > 1e-6:
            problems.append(f"ring zeros not a quarter turn apart: gaps {gaps}")
    if not max(report.beta_norms) < 1e-10:
        problems.append(f"beta norm {max(report.beta_norms):.3g} at a zero")
    return problems


# ---- the table -----------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-grid100",
            why="FD identity suite at the stress grid: slice_frame and symplectic "
                "stencils plus cold xi quadrature dominate; shows per-point reuse "
                "and batching",
            setup=_cli_setup,
            run=_cli_pass(lambda seed: ["verify", "--grid", "100", "--seed", str(seed)]),
            check=_check_verify,
        ),
        Workload(
            name="curvature-grid12",
            why="nested 4-D metric stencils only, no slice_frame: shows rho as an "
                "explicit scaling, and not the slice-frame sharing",
            setup=_cli_setup,
            run=_cli_pass(lambda seed: ["curvature-scan", "--grid", "12", "--seed", str(seed)]),
            check=_check_curvature,
        ),
        Workload(
            # The seed is ignored: the targets must stay cusps for the
            # verdicts to mean anything.
            name="sweep-boundary",
            why="adaptive Simpson along radii into the cusps, deep SL(2,Z) "
                "reductions and PunctureErrors, no FD or xi: guards the "
                "boundary use of the covering",
            setup=_cli_setup,
            run=_cli_pass(lambda seed: ["sweep"]),
            check=_check_sweep,
            uses_seed=False,
        ),
        Workload(
            # The seed rotates the vertex set, which rotates the zeros and
            # keeps their count and radii exactly.
            name="beta-zeros",
            why="the acceptance zero search: Blaschke jets at Gauss-Newton "
                "iterates, almost no covering calls; shows jet and zero-search "
                "work, not covering work",
            setup=_beta_setup,
            run=_beta_pass,
            check=_check_beta,
        ),
    )
}
