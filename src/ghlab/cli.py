"""Experiment driver: config parsing, command dispatch, artifact emission.

One JSON config drives seven commands (tessellate, hororegions, build,
verify, curvature-scan, sweep, fingerprint).  Every command writes CSV
and SVG artifacts plus a manifest with per-file checksums; nothing is
timestamped or randomized outside the configured seed, so a rerun with
the same config produces byte-identical output.  Exit codes: 0 success,
1 a numerical check failed, 2 the configuration was unusable.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from itertools import combinations
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .ansatz import HolomorphicData, beta_cross_check, mu_variant, standard_data, validate_rho0
from .covering import _modulus, puncture_class
from .errors import ConfigError, GHLabError, StencilError
from .holo import MuSpec
from .pathlab import (
    divergence_sweep,
    fingerprint_distance,
    fingerprint_samples,
    radial_graph_fingerprint,
)
from .tessellation import MAX_DEPTH, tessellate
from .verify import (
    FDConfig,
    cauchy_riemann_residual,
    closure_residual,
    contact_ratio,
    curl_residual,
    curvature_with_noise,
    metric_field,
    quaternion_check,
    stencil_points,
    structure_coeffs,
)

# ---- configuration -----------------------------------------------------


@dataclass(frozen=True)
class DataConfig:
    kind: str = "blaschke"
    vertices: tuple[tuple[float, float], ...] = (
        (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))
    depths: tuple[int, ...] = (1, 2)
    rho0_kind: str = "canonical"
    rho0_scale: float = 1.0
    v_multiplier: float = 1.0
    mu: MuSpec = field(default_factory=MuSpec)

    def __post_init__(self):
        if self.kind not in ("blaschke", "flat"):
            raise ConfigError(f"data kind {self.kind!r} not in (blaschke, flat)")
        validate_rho0(self.rho0_kind, self.rho0_scale)
        if not self.v_multiplier > 0:
            raise ConfigError("v_multiplier must be positive")
        if not all(d > 0 for d in self.depths):
            raise ConfigError("depths must be positive")


MAX_GRID = 10_000  # the largest grid.samples and grid.resolution


@dataclass(frozen=True)
class GridConfig:
    samples: int = 24
    resolution: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1 or self.resolution < 1:
            raise ConfigError("grid sizes must be positive")
        for key, n in (("samples", self.samples), ("resolution", self.resolution)):
            if n > MAX_GRID:
                raise ConfigError(f"grid.{key} = {n} exceeds the bound {MAX_GRID}")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class Tolerances:
    closure: float = 1e-4
    curl: float = 1e-4
    quaternion: float = 1e-8
    cauchy_riemann: float = 1e-8
    slice_identity: float = 1e-8
    structure: float = 1e-4
    beta_cross: float = 1e-6
    psi_reconstruction: float = 1e-6
    contact: float = 1e-4
    fingerprint_separation: float = 1e-4

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ConfigError(f"tolerance {f.name} must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    fd: FDConfig = field(default_factory=FDConfig)
    tolerances: Tolerances = field(default_factory=Tolerances)
    out_dir: str = "out"
    depth: int = 2
    sweep_floor: float = 0.05

    def __post_init__(self):
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"depth must lie in 0..{MAX_DEPTH}")
        if not self.sweep_floor > 0:
            raise ConfigError("sweep_floor must be positive")


def _parse(tp, raw, where: str):
    """Check a decoded JSON value against the annotation ``tp``.

    Dataclasses take JSON objects with no unknown keys, tuples take
    arrays, ``float`` takes any finite number and ``int``/``str`` take
    exactly their type; ``bool`` is never a number.  Each failure names
    its path, e.g. ``config.grid.samples``, and so does a section's rule.
    """
    if is_dataclass(tp):
        if not isinstance(raw, dict):
            raise ConfigError(f"{where} must be a JSON object")
        hints = get_type_hints(tp)
        unknown = set(raw) - {f.name for f in fields(tp)}
        if unknown:
            raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
        kwargs = {k: _parse(hints[k], v, f"{where}.{k}") for k, v in raw.items()}
        try:
            return tp(**kwargs)
        except (ValueError, GHLabError) as exc:
            raise ConfigError(f"{where}: {exc}")
    if get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise ConfigError(f"{where} must be a JSON array")
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(raw)
        elif len(raw) != len(args):
            raise ConfigError(f"{where} must have {len(args)} entries")
        return tuple(_parse(a, r, f"{where}[{i}]")
                     for i, (a, r) in enumerate(zip(args, raw)))
    accepted = (int, float) if tp is float else tp
    if isinstance(raw, bool) or not isinstance(raw, accepted):
        raise ConfigError(f"{where} must be of type {tp.__name__}")
    if tp is float:
        try:
            raw = float(raw)
        except OverflowError:
            raw = math.inf
        if not math.isfinite(raw):
            raise ConfigError(f"{where} must be finite")
    return raw


def parse_config(raw) -> ExperimentConfig:
    """The config a decoded JSON document describes; absent keys take
    their defaults."""
    return _parse(ExperimentConfig, raw, "config")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid UTF-8 JSON: {exc}")
    return parse_config(raw)


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def build_data(dc: DataConfig) -> HolomorphicData:
    """Construct the holomorphic data a config describes; bad data is a
    config error, not a runtime one."""
    try:
        common = dict(
            rho0_kind=dc.rho0_kind,
            rho0_scale=dc.rho0_scale,
            v_multiplier=dc.v_multiplier,
        )
        if dc.kind == "flat":
            data = replace(HolomorphicData.flat_reference(), **common)
        else:
            data = standard_data(
                vertices=tuple(complex(a, b) for a, b in dc.vertices),
                depths=dc.depths,
                **common,
            )
        if not dc.mu.is_identity():
            data = mu_variant(data, dc.mu)
        return data
    except GHLabError as exc:
        raise ConfigError(f"data construction failed: {exc}")


# ---- deterministic artifact helpers ------------------------------------


def _g(x) -> str:
    return "%.17g" % float(x)


def write_csv(path: Path, header: list, rows) -> None:
    """A header line, then one line per row: strings as they are and any
    other cell as _g writes it, in one format per row."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(["%s" if isinstance(c, str) else "%.17g" for c in row]) % tuple(row))
    path.write_text("\n".join(lines) + "\n")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def interior_points(n: int, seed: int, radius: float = 0.62) -> list:
    """Golden-angle spiral with a small seeded jitter; deterministic."""
    # one draw: the jitter of point k is entries 2k (angle) and 2k + 1 (radius)
    jitter = np.random.default_rng(seed).standard_normal(2 * n).tolist()
    golden = math.pi * (3.0 - math.sqrt(5.0))
    pts = []
    for k in range(n):
        rad = radius * math.sqrt((k + 0.5) / n)
        ang = golden * k + 0.02 * jitter[2 * k]
        rad = min(rad + 0.005 * jitter[2 * k + 1], radius + 0.02)
        pts.append(rad * cmath.exp(1j * ang))
    return pts


_PALETTE = ("#1b6ca8", "#b3541e", "#3d8361", "#7a4069", "#545b62", "#8d7b4b")


def _svg_open() -> list:
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.08 -1.08 2.16 2.16">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#222222" stroke-width="0.006"/>',
    ]


def _svg_polyline(points, color: str, width: float = 0.004) -> str:
    coords = " ".join("%.17g,%.17g" % (z.real, -z.imag) for z in points)  # as _g formats them
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{_g(width)}"/>'
    )


def _svg_circle(center: complex, r: float, color: str, width: float = 0.004) -> str:
    return (
        f'<circle cx="{_g(center.real)}" cy="{_g(-center.imag)}" r="{_g(r)}" '
        f'fill="none" stroke="{color}" stroke-width="{_g(width)}"/>'
    )


def _svg_side(side, color: str, width: float) -> str:
    """A diameter as a polyline, a circular side as its minor SVG arc,
    swept positively (y is flipped) where it turns clockwise."""
    va, vb = side.endpoints
    if side.kind == "diameter":
        return _svg_polyline([va, vb], color, width)
    c = side.center
    r, sweep = _g(abs(va - c)), int(cmath.phase((vb - c) / (va - c)) < 0)
    return (
        f'<path d="M {_g(va.real)},{_g(-va.imag)} A {r},{r} 0 0 {sweep} '
        f'{_g(vb.real)},{_g(-vb.imag)}" fill="none" stroke="{color}" '
        f'stroke-width="{_g(width)}"/>'
    )


def _tessellation_elements(tess) -> list:
    """One element per side: a child skips the side its parent drew."""
    return [_svg_side(side, "#888888", 0.003)
            for tri in tess.triangles for k, side in enumerate(tri.sides)
            if k != tri.shared_side]


def write_svg(path: Path, elements: list) -> None:
    path.write_text("\n".join(_svg_open() + elements + ["</svg>"]) + "\n")


def _csv_header(path: Path) -> list:
    with path.open(encoding="utf-8") as f:
        return f.readline().rstrip("\n").split(",")


def update_manifest(out: Path, cfg: ExperimentConfig, command: str,
                    status: str, files: list, summary: dict) -> None:
    """Record a command's status, its files' sha256, the header of each
    CSV it wrote and its summary in out/manifest.json."""
    man_path = out / "manifest.json"
    h = config_hash(cfg)
    manifest = None
    if man_path.exists():
        try:
            manifest = json.loads(man_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            pass
    if not (isinstance(manifest, dict) and manifest.get("config_hash") == h
            and isinstance(manifest.get("commands"), dict)):
        manifest = {"config_hash": h, "package_version": __version__, "commands": {}}
    manifest["commands"][command] = {
        "status": status,
        "files": {p.name: sha256_file(p) for p in files},
        "csv_columns": {p.name: _csv_header(p) for p in files if p.suffix == ".csv"},
        "summary": summary,
    }
    man_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


# ---- commands ----------------------------------------------------------


def cmd_tessellate(cfg: ExperimentConfig, out: Path):
    tess = tessellate(cfg.depth)
    rows = []
    for idx, tri in enumerate(tess.triangles):
        row = [idx, tri.depth, tri.word or "-"]
        for c in tri.cusps:
            row.extend([c.p, c.q])
        for v in tri.vertices:
            row.extend([v.real, v.imag])
        rows.append(row)
    header = ["index", "depth", "word", "p0", "q0", "p1", "q1", "p2", "q2",
              "v0x", "v0y", "v1x", "v1y", "v2x", "v2y"]
    csv_path = out / "triangles.csv"
    write_csv(csv_path, header, rows)
    svg_path = out / "tessellation.svg"
    write_svg(svg_path, _tessellation_elements(tess))
    summary = {
        "triangles": len(tess.triangles),
        "vertices": len(tess.vertices),
        "max_boundary_gap": tess.max_boundary_gap(),
    }
    return True, [csv_path, svg_path], summary


def cmd_hororegions(cfg: ExperimentConfig, out: Path):
    tess = tessellate(cfg.depth)
    rows = []
    counts = {1: 0, 2: 0, 3: 0}
    elements = []
    for rec in tess.vertices:
        j = puncture_class(rec.cusp)
        counts[j] += 1
        rows.append([rec.index, rec.cusp.p, rec.cusp.q, j, rec.z.real, rec.z.imag])
        marker = 0.08 / (rec.cusp.p**2 + rec.cusp.q**2)
        elements.append(_svg_circle(rec.z, marker, _PALETTE[j - 1]))
    header = ["index", "p", "q", "class", "x", "y"]
    csv_path = out / "hororegions.csv"
    write_csv(csv_path, header, rows)
    svg_path = out / "hororegions.svg"
    write_svg(svg_path, elements)
    summary = {
        "vertices": len(tess.vertices),
        "class_1": counts[1],
        "class_2": counts[2],
        "class_3": counts[3],
    }
    return True, [csv_path, svg_path], summary


def cmd_build(cfg: ExperimentConfig, out: Path):
    data = build_data(cfg.data)
    z = np.array(interior_points(cfg.grid.samples, cfg.grid.seed))
    frame, rec = data.slice_frames(z), data.record(z)
    rows = np.column_stack((z.real, z.imag, rec.psi.imag, rec.psi.real, frame.V, rec.m,
                            frame.lam0, frame.beta[:, 2], frame.x)).tolist()
    header = ["u", "v", "im_psi", "re_psi", "potential", "metric_factor",
              "lam0", "beta_theta", "x1", "x2", "x3"]
    csv_path = out / "fields.csv"
    write_csv(csv_path, header, rows)
    summary = {
        "points": len(rows),
        "min_im_psi": min(r[2] for r in rows),
        "max_potential": max(r[4] for r in rows),
    }
    return True, [csv_path], summary


_VERIFY_CHECKS = (
    "cauchy_riemann",
    "quaternion",
    "closure",
    "curl",
    "slice_identity",
    "structure",
    "beta_cross",
    "psi_reconstruction",
    "contact",
)


def _check_rho_reach(key: str, h: float, z: np.ndarray, rho: np.ndarray) -> None:
    """The domain rule of verify: each centre's slice height rho = Im psi
    must exceed the step h; ConfigError naming the key, the first centre
    z where rho - h is not positive, its rho and the step."""
    below = ~(rho - h > 0)
    if below.any():
        i = int(below.argmax())
        raise ConfigError(f"{key}: the slice height rho = Im psi must exceed the step {h}, "
                          f"but the centre z = {complex(z[i])} has rho = {float(rho[i])}")


def cmd_verify(cfg: ExperimentConfig, out: Path):
    data = build_data(cfg.data)
    tol = cfg.tolerances
    points = interior_points(cfg.grid.samples, cfg.grid.seed)
    try:
        # one fill and one frame assembly for every stencil point of the pass
        data.slice_frames(stencil_points(points, cfg.fd))
    except StencilError as exc:
        raise ConfigError(f"fd.h: {exc}") from exc
    # every check runs once, over the stack of centres
    z = np.array(points)
    frame, rec = data.slice_frames(z), data.record(z)
    rho, t_slice, psi, phi = frame.rho, frame.t_slice, rec.psi, rec.phi
    _check_rho_reach("fd.h", cfg.fd.h, z, rho)
    values = {
        "cauchy_riemann": cauchy_riemann_residual(data.phi, z),
        "quaternion": np.max(list(quaternion_check(data, rho, z).values()), axis=0),
        "closure": closure_residual(data, rho, z, config=cfg.fd),
        "curl": curl_residual(data, rho, z, config=cfg.fd)["max"],
        # the canonical slice is the unit level set of X, for every rho0 kind
        "slice_identity": np.max([abs(frame.V - _modulus(phi) ** 2),
                                  abs(rho - psi.imag), abs(frame.x_norm_sq - 1.0)], axis=0),
    }
    fit = structure_coeffs(data, z, "zero", config=cfg.fd)
    cross = beta_cross_check(data, z)
    contact = contact_ratio(data, z, config=cfg.fd)
    ratio, algebraic = contact["ratio"], contact["algebraic"]
    values.update({
        "structure": np.maximum(fit.residual, abs(fit.lam0 - np.exp(t_slice))),
        "beta_cross": np.maximum(
            abs(cross["beta_solved"] - cross["beta_direct"]).max(axis=1),
            abs(cross["gamma_solved"] - cross["gamma_direct"]).max(axis=1)),
        # |psi - psi_rec| as CPython's abs rounds it
        "psi_reconstruction": np.hypot(-frame.beta[:, 2] - psi.real, rho - psi.imag),
        "contact": abs(ratio - algebraic),
    })
    # the ratio must come out negative wherever it is genuinely nonzero
    contact_signs_ok = not np.any((algebraic < -tol.contact) & (ratio >= 0.0))
    # np.max keeps a NaN, where max() would drop it
    maxima = {name: float(np.max(values[name], initial=0.0)) for name in _VERIFY_CHECKS}
    rows = np.column_stack((z.real, z.imag, *(values[n] for n in _VERIFY_CHECKS), ratio)).tolist()

    header = ["u", "v"] + list(_VERIFY_CHECKS) + ["contact_value"]
    csv_path = out / "verify.csv"
    write_csv(csv_path, header, rows)

    failed = [name for name in _VERIFY_CHECKS
              if not maxima[name] <= getattr(tol, name)]
    if not contact_signs_ok:
        failed.append("contact_sign")
    for name in _VERIFY_CHECKS:
        status = "fail" if name in failed else "pass"
        print(f"check={name} max={maxima[name]:.6g} "
              f"tol={getattr(tol, name):.6g} status={status}", file=sys.stderr)
    for name in failed:
        print(f"failed_check={name}", file=sys.stderr)

    summary = {"points": len(points), "failed": sorted(failed),
               "maxima": {k: maxima[k] for k in sorted(maxima)}}
    return not failed, [csv_path], summary


def cmd_curvature_scan(cfg: ExperimentConfig, out: Path):
    data = build_data(cfg.data)
    fn = metric_field(data)
    rows = []
    zpts = interior_points(cfg.grid.resolution, cfg.grid.seed, radius=0.45)
    h = cfg.fd.curvature_h
    try:
        data.fill(np.concatenate([stencil_points(zpts, FDConfig(step, richardson=0), depth=2)
                                  for step in (h, h / 2.0)]))
        scans = [(rho, curvature_with_noise(fn, np.array([[rho, z.real, z.imag] for z in zpts]),
                                            h=h)) for rho in (0.9, 1.1, 1.3)]
    except StencilError as exc:
        # the scan's points and rho values are fixed, so the step is at fault
        raise ConfigError(f"fd.curvature_h: {exc}") from exc
    for rho, (coarse, _, noise) in scans:
        columns = np.column_stack((coarse.riemann_max, coarse.ricci_max, coarse.scalar,
                                   noise["riemann"], noise["ricci"]))
        rows += [[rho, z.real, z.imag, *c] for z, c in zip(zpts, columns.tolist())]
    header = ["rho", "u", "v", "riemann_max", "ricci_max", "scalar",
              "noise_riemann", "noise_ricci"]
    csv_path = out / "curvature.csv"
    write_csv(csv_path, header, rows)
    summary = {
        "points": len(rows),
        "max_riemann": max(r[3] for r in rows),
        "min_riemann": min(r[3] for r in rows),
        "max_ricci": max(r[4] for r in rows),
        "max_noise_ricci": max(r[7] for r in rows),
    }
    return True, [csv_path], summary


def cmd_sweep(cfg: ExperimentConfig, out: Path):
    data = build_data(cfg.data)
    if cfg.data.kind == "blaschke":
        targets = [complex(a, b) for a, b in cfg.data.vertices]
    else:
        targets = [1.0 + 0j, 1j]
    targets.append(cmath.exp(0.7j))
    rows = []
    verdicts = {}
    elements = _tessellation_elements(tessellate(cfg.depth))
    sweeps = divergence_sweep(data, targets, ("sphere", "disc"), floor=cfg.sweep_floor)
    for k, target in enumerate(targets):
        for tag, reports in sweeps.items():
            rep = reports[k]
            verdicts[f"{_g(target.real)}+{_g(target.imag)}j/{tag}"] = rep.verdict
            for r, length in rep.profile.entries:
                rows.append([target.real, target.imag, tag, r, length,
                             rep.verdict, cfg.sweep_floor])
        unit = target / abs(target)
        elements.append(_svg_polyline([0j, 0.99999 * unit],
                                      _PALETTE[k % len(_PALETTE)], 0.006))
    header = ["target_re", "target_im", "tag", "r", "length", "verdict", "floor"]
    csv_path = out / "sweeps.csv"
    write_csv(csv_path, header, rows)
    svg_path = out / "sweep_paths.svg"
    write_svg(svg_path, elements)
    summary = {"targets": len(targets), "verdicts": verdicts}
    return True, [csv_path, svg_path], summary


def cmd_fingerprint(cfg: ExperimentConfig, out: Path):
    base = build_data(replace(cfg.data, mu=MuSpec()))
    variants = [
        ("scale1", MuSpec()),
        ("scale2", MuSpec(kind="scale", scale=2.0)),
        ("perturb05", MuSpec(kind="perturb", eps_re=0.05)),
    ]
    # a config mu equal to a built-in one would be compared with itself
    if cfg.data.mu not in dict(variants).values():
        variants.append(("config", cfg.data.mu))
    samples = fingerprint_samples()
    prints = {name: radial_graph_fingerprint(mu_variant(base, spec), samples)
              for name, spec in variants}

    rows = []
    for i, z in enumerate(samples):
        rows.append([i, z.real, z.imag] + [prints[name][i] for name, _ in variants])
    header = ["index", "u", "v"] + [name for name, _ in variants]
    csv_path = out / "fingerprints.csv"
    write_csv(csv_path, header, rows)

    names = [name for name, _ in variants]
    dist_rows = [[a, b, fingerprint_distance(prints[a], prints[b])]
                 for a, b in combinations(names, 2)]
    min_dist = min(row[2] for row in dist_rows)
    dist_path = out / "fingerprint_distances.csv"
    write_csv(dist_path, ["a", "b", "distance"], dist_rows)

    ok = min_dist > cfg.tolerances.fingerprint_separation
    if not ok:
        print("failed_check=fingerprint_separation", file=sys.stderr)
    print(f"check=fingerprint_separation min={min_dist:.6g} "
          f"tol={cfg.tolerances.fingerprint_separation:.6g} "
          f"status={'pass' if ok else 'fail'}", file=sys.stderr)
    summary = {"variants": names, "min_distance": min_dist}
    return ok, [csv_path, dist_path], summary


_DISPATCH = {
    "tessellate": cmd_tessellate,
    "hororegions": cmd_hororegions,
    "build": cmd_build,
    "verify": cmd_verify,
    "curvature-scan": cmd_curvature_scan,
    "sweep": cmd_sweep,
    "fingerprint": cmd_fingerprint,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ghlab",
        description="Gibbons-Hawking laboratory experiment driver",
    )
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", help="JSON experiment config path")
    parser.add_argument("--out", help="output directory override")
    parser.add_argument("--depth", type=int, help="tessellation depth override")
    parser.add_argument("--grid", type=int, help="grid resolution override")
    parser.add_argument("--seed", type=int, help="grid seed override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        if args.depth is not None:
            cfg = replace(cfg, depth=args.depth)
        if args.grid is not None:
            cfg = replace(cfg, grid=replace(cfg.grid, samples=args.grid,
                                            resolution=args.grid))
        if args.seed is not None:
            cfg = replace(cfg, grid=replace(cfg.grid, seed=args.seed))
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out_dir {cfg.out_dir!r} is not a usable directory: {exc}")
    except ConfigError as exc:
        print(f"error=config detail={exc}", file=sys.stderr)
        return 2

    try:
        ok, files, summary = _DISPATCH[args.command](cfg, out)
        status = "ok" if ok else "failed"
        update_manifest(out, cfg, args.command, status, files, summary)
    except OSError as exc:
        print(f"error=config detail=out_dir {cfg.out_dir!r} holds an unusable "
              f"artifact path: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error=config detail={exc}", file=sys.stderr)
        return 2
    except GHLabError as exc:
        print(f"error=runtime kind={type(exc).__name__} detail={exc}",
              file=sys.stderr)
        return 1

    print(f"command={args.command} status={status} out={out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
