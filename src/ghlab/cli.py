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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import HolomorphicData, standard_data
from .covering import puncture_class
from .errors import ConfigError, GHLabError
from .holo import HoloFn, MuSpec
from .pathlab import (
    ParamPath,
    divergence_sweep,
    fingerprint_distance,
    fingerprint_samples,
    mu_variant,
    radial_graph_fingerprint,
)
from .tessellation import tessellate
from .verify import (
    FDConfig,
    cauchy_riemann_residual,
    closure_residual,
    contact_ratio,
    curl_residual,
    curvature_with_noise,
    metric_field,
    quaternion_check,
    structure_coeffs,
)
from .ansatz import beta_cross_check

COMMANDS = (
    "tessellate",
    "hororegions",
    "build",
    "verify",
    "curvature-scan",
    "sweep",
    "fingerprint",
)


# ---- configuration -----------------------------------------------------


def _check_keys(mapping: dict, allowed, where: str) -> None:
    extra = set(mapping) - set(allowed)
    if extra:
        raise ConfigError(f"unknown {where} keys: {sorted(extra)}")


@dataclass(frozen=True)
class MuConfig:
    kind: str = "scale"
    scale: float = 1.0
    eps_re: float = 0.0
    eps_im: float = 0.0

    def __post_init__(self):
        if self.kind not in ("scale", "perturb"):
            raise ConfigError(f"mu kind {self.kind!r} not in (scale, perturb)")
        if self.kind == "scale" and not self.scale > 0:
            raise ConfigError("mu scale must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "MuConfig":
        _check_keys(d, ("kind", "scale", "eps_re", "eps_im"), "mu")
        return cls(
            kind=d.get("kind", "scale"),
            scale=float(d.get("scale", 1.0)),
            eps_re=float(d.get("eps_re", 0.0)),
            eps_im=float(d.get("eps_im", 0.0)),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "scale": self.scale,
            "eps_re": self.eps_re,
            "eps_im": self.eps_im,
        }

    def is_identity(self) -> bool:
        return self.kind == "scale" and self.scale == 1.0

    def as_spec(self) -> MuSpec:
        if self.kind == "scale":
            return MuSpec(kind="scale", scale=self.scale)
        return MuSpec(kind="perturb", eps=complex(self.eps_re, self.eps_im))


_DEFAULT_VERTICES = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@dataclass(frozen=True)
class DataConfig:
    kind: str = "blaschke"
    vertices: tuple = _DEFAULT_VERTICES
    depths: tuple = (1, 2)
    ball_radius: float = 0.1
    rho0_kind: str = "canonical"
    rho0_scale: float = 1.0
    v_multiplier: float = 1.0
    mu: MuConfig = field(default_factory=MuConfig)

    def __post_init__(self):
        if self.kind not in ("blaschke", "flat"):
            raise ConfigError(f"data kind {self.kind!r} not in (blaschke, flat)")
        if not 0.0 < self.ball_radius < math.pi / 4:
            raise ConfigError("ball_radius must lie in (0, pi/4)")
        if self.rho0_kind not in ("canonical", "constant", "scaled"):
            raise ConfigError(f"unknown rho0 kind {self.rho0_kind!r}")
        if not self.rho0_scale > 0:
            raise ConfigError("rho0_scale must be positive")
        if not self.v_multiplier > 0:
            raise ConfigError("v_multiplier must be positive")
        for pair in self.vertices:
            if len(pair) != 2:
                raise ConfigError("vertices must be [re, im] pairs")
        if not all(isinstance(d, int) and d > 0 for d in self.depths):
            raise ConfigError("depths must be positive integers")

    @classmethod
    def from_dict(cls, d: dict) -> "DataConfig":
        _check_keys(
            d,
            ("kind", "vertices", "depths", "ball_radius", "rho0_kind",
             "rho0_scale", "v_multiplier", "mu"),
            "data",
        )
        return cls(
            kind=d.get("kind", "blaschke"),
            vertices=tuple(
                tuple(float(x) for x in pair)
                for pair in d.get("vertices", _DEFAULT_VERTICES)
            ),
            depths=tuple(int(x) for x in d.get("depths", (1, 2))),
            ball_radius=float(d.get("ball_radius", 0.1)),
            rho0_kind=d.get("rho0_kind", "canonical"),
            rho0_scale=float(d.get("rho0_scale", 1.0)),
            v_multiplier=float(d.get("v_multiplier", 1.0)),
            mu=MuConfig.from_dict(d.get("mu", {})),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": [list(p) for p in self.vertices],
            "depths": list(self.depths),
            "ball_radius": self.ball_radius,
            "rho0_kind": self.rho0_kind,
            "rho0_scale": self.rho0_scale,
            "v_multiplier": self.v_multiplier,
            "mu": self.mu.to_dict(),
        }


@dataclass(frozen=True)
class GridConfig:
    samples: int = 24
    resolution: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1 or self.resolution < 1:
            raise ConfigError("grid sizes must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

    @classmethod
    def from_dict(cls, d: dict) -> "GridConfig":
        _check_keys(d, ("samples", "resolution", "seed"), "grid")
        return cls(
            samples=int(d.get("samples", 24)),
            resolution=int(d.get("resolution", 5)),
            seed=int(d.get("seed", 0)),
        )

    def to_dict(self) -> dict:
        return {"samples": self.samples, "resolution": self.resolution, "seed": self.seed}


@dataclass(frozen=True)
class FDSettings:
    h: float = 1e-4
    richardson: int = 1
    curvature_h: float = 1e-3

    def __post_init__(self):
        if not self.h > 0 or not self.curvature_h > 0:
            raise ConfigError("finite-difference steps must be positive")
        if self.richardson not in (0, 1):
            raise ConfigError("richardson must be 0 or 1")

    @classmethod
    def from_dict(cls, d: dict) -> "FDSettings":
        _check_keys(d, ("h", "richardson", "curvature_h"), "fd")
        return cls(
            h=float(d.get("h", 1e-4)),
            richardson=int(d.get("richardson", 1)),
            curvature_h=float(d.get("curvature_h", 1e-3)),
        )

    def to_dict(self) -> dict:
        return {"h": self.h, "richardson": self.richardson, "curvature_h": self.curvature_h}


_TOLERANCE_FIELDS = (
    "closure",
    "curl",
    "quaternion",
    "cauchy_riemann",
    "slice_identity",
    "structure",
    "beta_cross",
    "psi_reconstruction",
    "contact",
    "fingerprint_separation",
)


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
        for name in _TOLERANCE_FIELDS:
            if not getattr(self, name) > 0:
                raise ConfigError(f"tolerance {name} must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "Tolerances":
        _check_keys(d, _TOLERANCE_FIELDS, "tolerances")
        return cls(**{k: float(v) for k, v in d.items()})

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _TOLERANCE_FIELDS}


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    fd: FDSettings = field(default_factory=FDSettings)
    tolerances: Tolerances = field(default_factory=Tolerances)
    out_dir: str = "out"
    depth: int = 2
    sweep_floor: float = 0.05

    def __post_init__(self):
        if self.depth < 0:
            raise ConfigError("depth must be nonnegative")
        if not self.sweep_floor > 0:
            raise ConfigError("sweep_floor must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys(
            d,
            ("data", "grid", "fd", "tolerances", "out_dir", "depth", "sweep_floor"),
            "config",
        )
        return cls(
            data=DataConfig.from_dict(d.get("data", {})),
            grid=GridConfig.from_dict(d.get("grid", {})),
            fd=FDSettings.from_dict(d.get("fd", {})),
            tolerances=Tolerances.from_dict(d.get("tolerances", {})),
            out_dir=d.get("out_dir", "out"),
            depth=int(d.get("depth", 2)),
            sweep_floor=float(d.get("sweep_floor", 0.05)),
        )

    def to_dict(self) -> dict:
        return {
            "data": self.data.to_dict(),
            "grid": self.grid.to_dict(),
            "fd": self.fd.to_dict(),
            "tolerances": self.tolerances.to_dict(),
            "out_dir": self.out_dir,
            "depth": self.depth,
            "sweep_floor": self.sweep_floor,
        }


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return ExperimentConfig.from_dict(raw)


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
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
            flat = HolomorphicData.flat_reference()
            data = HolomorphicData(
                cover=flat.cover, psi=HoloFn.constant(2j), **common
            )
        else:
            data = standard_data(
                vertices=tuple(complex(a, b) for a, b in dc.vertices),
                depths=dc.depths,
                **common,
            )
        if not dc.mu.is_identity():
            data = mu_variant(data, dc.mu.as_spec())
        return data
    except ConfigError:
        raise
    except GHLabError as exc:
        raise ConfigError(f"data construction failed: {exc}")


# ---- deterministic artifact helpers ------------------------------------


def _g(x) -> str:
    return "%.17g" % float(x)


def write_csv(path: Path, header: list, rows) -> list:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _g(c) for c in row))
    path.write_text("\n".join(lines) + "\n")
    return header


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def interior_points(n: int, seed: int, radius: float = 0.62) -> list:
    """Golden-angle spiral with a small seeded jitter; deterministic."""
    rng = np.random.default_rng(seed)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    pts = []
    for k in range(n):
        rad = radius * math.sqrt((k + 0.5) / n)
        ang = golden * k + 0.02 * float(rng.standard_normal())
        rad = min(rad + 0.005 * float(rng.standard_normal()), radius + 0.02)
        pts.append(rad * cmath.exp(1j * ang))
    return pts


_PALETTE = ("#1b6ca8", "#b3541e", "#3d8361", "#7a4069", "#545b62", "#8d7b4b")


def _svg_open() -> list:
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.08 -1.08 2.16 2.16">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#222222" stroke-width="0.006"/>',
    ]


def _svg_polyline(points, color: str, width: float = 0.004) -> str:
    coords = " ".join(f"{_g(z.real)},{_g(-z.imag)}" for z in points)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{_g(width)}"/>'
    )


def _svg_circle(center: complex, r: float, color: str, width: float = 0.004) -> str:
    return (
        f'<circle cx="{_g(center.real)}" cy="{_g(-center.imag)}" r="{_g(r)}" '
        f'fill="none" stroke="{color}" stroke-width="{_g(width)}"/>'
    )


def _side_polyline(side, segments: int = 32) -> list:
    va, vb = side.endpoints
    if side.kind == "diameter":
        return [va, vb]
    c = side.center
    ta = cmath.phase(va - c)
    delta = cmath.phase((vb - c) / (va - c))
    return [c + abs(va - c) * cmath.exp(1j * (ta + delta * k / segments))
            for k in range(segments + 1)]


def _tessellation_elements(tess) -> list:
    seen = set()
    out = []
    for tri in tess.triangles:
        for side in tri.sides:
            va, vb = side.endpoints
            key = tuple(sorted((round(va.real, 12), round(va.imag, 12),
                                round(vb.real, 12), round(vb.imag, 12))))
            if key in seen:
                continue
            seen.add(key)
            out.append(_svg_polyline(_side_polyline(side), "#888888", 0.003))
    return out


def write_svg(path: Path, elements: list) -> None:
    path.write_text("\n".join(_svg_open() + elements + ["</svg>"]) + "\n")


def update_manifest(out: Path, cfg: ExperimentConfig, command: str,
                    status: str, files: list, summary: dict,
                    columns: dict) -> None:
    man_path = out / "manifest.json"
    h = config_hash(cfg)
    manifest = {}
    if man_path.exists():
        try:
            manifest = json.loads(man_path.read_text())
        except json.JSONDecodeError:
            manifest = {}
    if manifest.get("config_hash") != h:
        manifest = {"config_hash": h, "package_version": __version__, "commands": {}}
    manifest.setdefault("commands", {})
    manifest["commands"][command] = {
        "status": status,
        "files": {p.name: sha256_file(p) for p in files},
        "csv_columns": columns,
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
    cols = write_csv(csv_path, header, rows)
    svg_path = out / "tessellation.svg"
    write_svg(svg_path, _tessellation_elements(tess))
    summary = {
        "triangles": len(tess.triangles),
        "vertices": len(tess.vertices),
        "max_boundary_gap": tess.max_boundary_gap(),
    }
    return True, [csv_path, svg_path], summary, {"triangles.csv": cols}


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
    cols = write_csv(csv_path, header, rows)
    svg_path = out / "hororegions.svg"
    write_svg(svg_path, elements)
    summary = {
        "vertices": len(tess.vertices),
        "class_1": counts[1],
        "class_2": counts[2],
        "class_3": counts[3],
        "ball_radius": cfg.data.ball_radius,
    }
    return True, [csv_path, svg_path], summary, {"hororegions.csv": cols}


def cmd_build(cfg: ExperimentConfig, out: Path):
    data = build_data(cfg.data)
    rows = []
    for z in interior_points(cfg.grid.samples, cfg.grid.seed):
        frame = data.slice_frame(z)
        rec = data.record(z)
        psi = rec.psi
        rows.append([
            z.real, z.imag, psi.imag, psi.real,
            frame.V, rec.m, frame.lam0,
            frame.beta[2], frame.x[0], frame.x[1], frame.x[2],
        ])
    header = ["u", "v", "im_psi", "re_psi", "potential", "metric_factor",
              "lam0", "beta_theta", "x1", "x2", "x3"]
    csv_path = out / "fields.csv"
    cols = write_csv(csv_path, header, rows)
    summary = {
        "points": len(rows),
        "min_im_psi": min(r[2] for r in rows),
        "max_potential": max(r[4] for r in rows),
    }
    return True, [csv_path], summary, {"fields.csv": cols}


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


def cmd_verify(cfg: ExperimentConfig, out: Path):
    data = build_data(cfg.data)
    tol = cfg.tolerances
    fdc = FDConfig(h=cfg.fd.h, richardson=cfg.fd.richardson)
    points = interior_points(cfg.grid.samples, cfg.grid.seed)
    rows = []
    maxima = {name: 0.0 for name in _VERIFY_CHECKS}
    contact_signs_ok = True
    for z in points:
        frame = data.slice_frame(z)
        rho = frame.rho
        rec = data.record(z)
        psi, phi = rec.psi, rec.phi

        cr = cauchy_riemann_residual(data.phi, z)
        quat = max(quaternion_check(data, rho, z).values())
        clo = closure_residual(data, rho, z, config=fdc)
        curl = curl_residual(data, rho, z, config=fdc)["max"]
        slice_id = max(
            abs(frame.V - abs(phi) ** 2),
            abs(frame.rho - psi.imag),
            abs(frame.t_slice),
        )
        fit = structure_coeffs(data, z, "zero", config=fdc)
        structure = max(
            fit.residual,
            abs(fit.lam0 - math.exp(data.t_slice_at(z))),
        )
        cross = beta_cross_check(data, z)
        beta_gap = max(
            np.abs(cross["beta_solved"] - cross["beta_direct"]).max(),
            np.abs(cross["gamma_solved"] - cross["gamma_direct"]).max(),
        )
        psi_rec = abs(complex(-frame.beta[2], frame.rho) - psi)
        contact = contact_ratio(data, z, config=fdc)
        contact_gap = abs(contact["ratio"] - contact["algebraic"])
        # the ratio must come out negative wherever it is genuinely nonzero
        if contact["algebraic"] < -tol.contact and contact["ratio"] >= 0.0:
            contact_signs_ok = False

        values = {
            "cauchy_riemann": cr,
            "quaternion": quat,
            "closure": clo,
            "curl": curl,
            "slice_identity": slice_id,
            "structure": structure,
            "beta_cross": beta_gap,
            "psi_reconstruction": psi_rec,
            "contact": contact_gap,
        }
        for name, value in values.items():
            maxima[name] = max(maxima[name], value)
        rows.append([z.real, z.imag] + [values[n] for n in _VERIFY_CHECKS]
                    + [contact["ratio"]])

    header = ["u", "v"] + list(_VERIFY_CHECKS) + ["contact_value"]
    csv_path = out / "verify.csv"
    cols = write_csv(csv_path, header, rows)

    failed = [name for name in _VERIFY_CHECKS
              if maxima[name] > getattr(tol, name)]
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
    return not failed, [csv_path], summary, {"verify.csv": cols}


def cmd_curvature_scan(cfg: ExperimentConfig, out: Path):
    data = build_data(cfg.data)
    fn = metric_field(data)
    rows = []
    zpts = interior_points(cfg.grid.resolution, cfg.grid.seed, radius=0.45)
    for rho in (0.9, 1.1, 1.3):
        for z in zpts:
            coarse, _, noise = curvature_with_noise(
                fn, [rho, z.real, z.imag], h=cfg.fd.curvature_h
            )
            rows.append([
                rho, z.real, z.imag, coarse.riemann_max, coarse.ricci_max,
                coarse.scalar, noise["riemann"], noise["ricci"],
            ])
    header = ["rho", "u", "v", "riemann_max", "ricci_max", "scalar",
              "noise_riemann", "noise_ricci"]
    csv_path = out / "curvature.csv"
    cols = write_csv(csv_path, header, rows)
    summary = {
        "points": len(rows),
        "max_riemann": max(r[3] for r in rows),
        "min_riemann": min(r[3] for r in rows),
        "max_ricci": max(r[4] for r in rows),
        "max_noise_ricci": max(r[7] for r in rows),
    }
    return True, [csv_path], summary, {"curvature.csv": cols}


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
    for k, target in enumerate(targets):
        for tag in ("sphere", "disc"):
            rep = divergence_sweep(data, target, tag, floor=cfg.sweep_floor)
            verdicts[f"{_g(target.real)}+{_g(target.imag)}j/{tag}"] = rep.verdict
            for r, length in rep.profile.entries:
                rows.append([target.real, target.imag, tag, r, length,
                             rep.verdict, cfg.sweep_floor])
        unit = target / abs(target)
        elements.append(_svg_polyline([0j, 0.99999 * unit],
                                      _PALETTE[k % len(_PALETTE)], 0.006))
    header = ["target_re", "target_im", "tag", "r", "length", "verdict", "floor"]
    csv_path = out / "sweeps.csv"
    cols = write_csv(csv_path, header, rows)
    svg_path = out / "sweep_paths.svg"
    write_svg(svg_path, elements)
    summary = {"targets": len(targets), "verdicts": verdicts}
    return True, [csv_path, svg_path], summary, {"sweeps.csv": cols}


def cmd_fingerprint(cfg: ExperimentConfig, out: Path):
    base = build_data(replace(cfg.data, mu=MuConfig()))
    variants = [
        ("scale1", None),
        ("scale2", MuSpec(kind="scale", scale=2.0)),
        ("perturb05", MuSpec(kind="perturb", eps=0.05)),
    ]
    if not cfg.data.mu.is_identity():
        variants.append(("config", cfg.data.mu.as_spec()))
    samples = fingerprint_samples(100)
    prints = {}
    for name, spec in variants:
        data = base if spec is None else mu_variant(base, spec)
        prints[name] = radial_graph_fingerprint(data, samples)

    rows = []
    for i, z in enumerate(samples):
        rows.append([i, z.real, z.imag] + [prints[name][i] for name, _ in variants])
    header = ["index", "u", "v"] + [name for name, _ in variants]
    csv_path = out / "fingerprints.csv"
    cols = write_csv(csv_path, header, rows)

    dist_rows = []
    min_dist = math.inf
    names = [name for name, _ in variants]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            d = fingerprint_distance(prints[names[i]], prints[names[j]])
            min_dist = min(min_dist, d)
            dist_rows.append([names[i], names[j], d])
    dist_path = out / "fingerprint_distances.csv"
    dist_cols = write_csv(dist_path, ["a", "b", "distance"], dist_rows)

    ok = min_dist > cfg.tolerances.fingerprint_separation
    if not ok:
        print("failed_check=fingerprint_separation", file=sys.stderr)
    print(f"check=fingerprint_separation min={min_dist:.6g} "
          f"tol={cfg.tolerances.fingerprint_separation:.6g} "
          f"status={'pass' if ok else 'fail'}", file=sys.stderr)
    summary = {"variants": names, "min_distance": min_dist}
    return ok, [csv_path, dist_path], summary, {
        "fingerprints.csv": cols, "fingerprint_distances.csv": dist_cols,
    }


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
    parser.add_argument("command", choices=COMMANDS)
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
    except ConfigError as exc:
        print(f"error=config detail={exc}", file=sys.stderr)
        return 2

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        ok, files, summary, columns = _DISPATCH[args.command](cfg, out)
    except ConfigError as exc:
        print(f"error=config detail={exc}", file=sys.stderr)
        return 2
    except GHLabError as exc:
        print(f"error=runtime kind={type(exc).__name__} detail={exc}",
              file=sys.stderr)
        return 1

    status = "ok" if ok else "failed"
    update_manifest(out, cfg, args.command, status, files, summary, columns)
    print(f"command={args.command} status={status} out={out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
