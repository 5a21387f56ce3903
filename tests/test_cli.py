"""End-to-end tests for the experiment driver."""

import cmath
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghlab
from ghlab.cli import (
    MAX_GRID,
    DataConfig,
    ExperimentConfig,
    GridConfig,
    Tolerances,
    build_data,
    config_hash,
    interior_points,
    load_config,
    main,
    parse_config,
    sha256_file,
    write_csv,
)
from ghlab.errors import ConfigError, InvalidMuError, StencilError
from ghlab.holo import MuSpec
from ghlab.tessellation import tessellate
from ghlab.verify import FDConfig, stencil_points
from oracles import interior_points_by_scalar_draws


def write_config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


ROUNDTRIP_CONFIG = {
    "data": {
        "kind": "blaschke",
        "vertices": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
        "depths": [2],
        "mu": {"kind": "perturb", "eps_re": 0.05},
    },
    "grid": {"samples": 12, "seed": 3},
    "fd": {"h": 5e-5},
    "tolerances": {"curl": 2e-4},
    "depth": 3,
}


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports the same
    ghlab as this suite, installed or not."""
    src = str(Path(ghlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _fresh_ghlab(*args) -> subprocess.CompletedProcess:
    """``ghlab args`` in a fresh interpreter that turns every
    RuntimeWarning into an error."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ghlab.cli", *args],
        capture_output=True, text=True, env=_child_env(), timeout=120)


def reload(cfg: ExperimentConfig) -> ExperimentConfig:
    return parse_config(json.loads(json.dumps(asdict(cfg))))


def key_paths(tp=ExperimentConfig, prefix=()):
    """The root and every key path a config may set."""
    paths = [prefix]
    for name, hint in get_type_hints(tp).items():
        if is_dataclass(hint):
            paths += key_paths(hint, prefix + (name,))
        else:
            paths.append(prefix + (name,))
    return paths


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = parse_config(ROUNDTRIP_CONFIG)
        assert reload(cfg) == cfg

    def test_defaults_roundtrip(self):
        cfg = ExperimentConfig()
        assert reload(cfg) == cfg
        assert parse_config({}) == cfg

    def test_hash_is_pinned(self):
        # a config's hash moves only when its keys or values do
        assert config_hash(ExperimentConfig()) == (
            "de8ced82624afbaa28305e6cea9a29143e6679955207663c79e5602d6d362b67")
        assert config_hash(parse_config(ROUNDTRIP_CONFIG)) == (
            "8d6f23bd4f60dd2f50e3f96401dc2c1066da24f773b193427dcacecdb7e3ac72")

    def test_readme_example_config_loads(self):
        """The example config under "Command line" in README.md names
        only keys and values the loader accepts."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        block = re.search(r"^```json\n(.*?)^```$", section, re.S | re.M).group(1)
        cfg = parse_config(json.loads(block))
        assert reload(cfg) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"grids": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"data": {"verts": []}})

    @pytest.mark.parametrize("raw, message", [
        ({"grid": {"samples": "abc"}}, "config.grid.samples must be of type int"),
        ({"grid": {"samples": 2.7}}, "config.grid.samples must be of type int"),
        ({"grid": {"seed": True}}, "config.grid.seed must be of type int"),
        ({"fd": {"h": True}}, "config.fd.h must be of type float"),
        ({"fd": {"h": math.inf}}, "config.fd.h must be finite"),
        ({"sweep_floor": math.nan}, "config.sweep_floor must be finite"),
        ({"sweep_floor": 10**400}, "config.sweep_floor must be finite"),
        ({"data": {"depths": ["2"]}}, r"config.data.depths\[0\] must be of type int"),
        ({"data": {"vertices": [[1.0, 0.0, 0.0]]}},
         r"config.data.vertices\[0\] must have 2 entries"),
        ({"data": {"vertices": [1.0, 0.0]}},
         r"config.data.vertices\[0\] must be a JSON array"),
        ({"data": []}, "config.data must be a JSON object"),
        ({"out_dir": 5}, "config.out_dir must be of type str"),
        ({"depth": None}, "config.depth must be of type int"),
        ({"depth": 13}, "config: depth must lie in 0..12"),
        ({"data": {"mu": {"kind": "rotate"}}}, "config.data.mu: unknown mu kind"),
        ({"fd": {"richardson": 2}}, "config.fd: only zero or one Richardson"),
        ([], "config must be a JSON object"),
        ({"data": {"rho0_kind": "fancy"}}, "config.data: unknown rho0 kind 'fancy'"),
    ])
    def test_loader_names_the_bad_path(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(raw)

    def test_numbers_widen_to_float(self):
        cfg = parse_config({"fd": {"h": 1}, "data": {"vertices": [[1, 0]]}})
        assert type(cfg.fd.h) is float
        assert cfg.data.vertices == ((1.0, 0.0),)
        assert all(type(x) is float for x in cfg.data.vertices[0])

    @given(path=st.sampled_from(key_paths()), value=json_values)
    @settings(max_examples=400, deadline=None)
    def test_any_json_value_loads_or_is_config_error(self, path, value):
        for key in reversed(path):
            value = {key: value}
        try:
            cfg = parse_config(value)
        except ConfigError:
            return
        assert reload(cfg) == cfg

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            Tolerances(curl=0.0)

    def test_bad_mu_kind_rejected(self):
        """MuSpec raises its own InvalidMuError; the loader reports it
        as a ConfigError at config.data.mu."""
        with pytest.raises(InvalidMuError, match="unknown mu kind 'rotate'"):
            MuSpec(kind="rotate")
        with pytest.raises(ConfigError, match=r"^config\.data\.mu: unknown mu kind 'rotate'$"):
            parse_config({"data": {"mu": {"kind": "rotate"}}})

    def test_mu_keeps_only_what_its_map_reads(self):
        assert type(ExperimentConfig().data.mu) is MuSpec
        assert MuSpec(kind="perturb") == MuSpec() and MuSpec(kind="perturb").is_identity()
        assert MuSpec(kind="perturb", eps_re=-0.0, eps_im=0.0, scale=2.0) == MuSpec()
        assert MuSpec(scale=2.0, eps_re=0.3, eps_im=-0.1) == MuSpec(scale=2.0)
        assert MuSpec(kind="perturb", scale=3.0, eps_im=0.05) == MuSpec(
            kind="perturb", eps_im=0.05)

    @pytest.mark.parametrize("raw, message", [
        ({"data": {"mu": {"kind": "rotate"}}}, "config.data.mu: unknown mu kind 'rotate'"),
        ({"data": {"mu": {"scale": -2.0}}}, "config.data.mu: scale must be positive"),
        ({"data": {"v_multiplier": 0.0}}, "config.data: v_multiplier must be positive"),
        ({"data": {"rho0_kind": "fancy"}}, "config.data: unknown rho0 kind 'fancy'"),
        ({"data": {"rho0_scale": 0.0}}, "config.data: rho0_scale must be positive"),
        ({"fd": {"h": -1e-4}}, "config.fd: step must be positive"),
        ({"fd": {"richardson": 2}}, "config.fd: only zero or one Richardson levels supported"),
        ({"fd": {"curvature_h": 0.0}}, "config.fd: curvature step must be positive"),
    ])
    def test_each_section_rule_is_a_config_error(self, raw, message):
        """The rule of each section, written once in the layer that owns
        it, reaches the loader as a ConfigError naming the section."""
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert str(info.value) == message

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))

    def test_hash_changes_with_content(self):
        a = ExperimentConfig()
        b = parse_config({"depth": 3})
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(ExperimentConfig())


class TestBuildData:
    def test_flat_kind(self):
        data = build_data(DataConfig(kind="flat"))
        assert data.psi(0.3 + 0.1j) == 2j

    def test_blaschke_kind_three_vertices(self):
        dc = DataConfig(vertices=((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)),
                        depths=(1,))
        data = build_data(dc)
        assert data.psi(0.0).imag > 0

    def test_mu_scale_applied(self):
        plain = build_data(DataConfig())
        scaled = build_data(DataConfig(mu=MuSpec(kind="scale", scale=2.0)))
        z = 0.2 + 0.1j
        assert scaled.psi(z) == pytest.approx(2.0 * plain.psi(z))

    def test_invalid_vertices_become_config_error(self):
        with pytest.raises(ConfigError):
            build_data(DataConfig(vertices=((0.5, 0.0), (0.0, 1.0), (-1.0, 0.0))))


class TestCommands:
    def test_tessellate_depth_two(self, tmp_path):
        out = tmp_path / "o"
        assert main(["tessellate", "--out", str(out)]) == 0
        lines = (out / "triangles.csv").read_text().splitlines()
        assert len(lines) == 11  # header + 10 triangles at depth 2
        assert lines[0].startswith("index,depth,word")
        svg = (out / "tessellation.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("depth, sides", [(0, 3), (2, 21)])
    def test_tessellation_svg_draws_every_side_once(self, tmp_path, depth, sides):
        # 3 + 2 (T - 1) sides for T triangles, a polyline per diameter
        # and an arc per circular side; the diameter at depth 0 too
        out = tmp_path / "o"
        assert main(["tessellate", "--out", str(out), "--depth", str(depth)]) == 0
        svg = (out / "tessellation.svg").read_text()
        assert svg.count("<polyline") + svg.count("<path") == sides
        assert '<polyline points="-1,-0 1,-0"' in svg  # the base diameter

    @pytest.mark.parametrize("depth", range(5))
    def test_each_circular_side_is_its_exact_arc(self, tmp_path, depth):
        """Each arc element runs between its side's cusps on the circle
        of the side, and its flags pick the arc through the middle of
        the side, which SVG's endpoint parametrisation (y flipped)
        recovers: the arc ends a and b at radius r, the large-arc flag 0
        and sweep flag s have their centre at (a + b)/2 + k (y', -x'),
        + for s = 1, with (x', y') = (a - b)/2, and sweep through its
        angle in the positive sense for s = 1, else the negative."""
        out = tmp_path / "o"
        assert main(["tessellate", "--out", str(out), "--depth", str(depth)]) == 0
        root = ElementTree.parse(out / "tessellation.svg").getroot()
        drawn = [el for el in root if el.tag.endswith(("polyline", "path"))]
        sides = [side for tri in tessellate(depth).triangles
                 for k, side in enumerate(tri.sides) if k != tri.shared_side]
        assert len(drawn) == len(sides) == 3 + 2 * (len(tessellate(depth).triangles) - 1)
        arcs = 0
        for el, side in zip(drawn, sides):
            va, vb = side.endpoints
            assert el.tag.endswith("polyline" if side.kind == "diameter" else "path")
            if side.kind == "diameter":
                continue
            arcs += 1
            m = re.fullmatch(r"M (\S+),(\S+) A (\S+),(\S+) 0 0 ([01]) (\S+),(\S+)",
                             el.get("d"))
            x0, y0, rx, ry, sweep, x1, y1 = m.groups()
            a, b = complex(float(x0), float(y0)), complex(float(x1), float(y1))
            assert (a, b) == (va.conjugate(), vb.conjugate())  # the cusps, y flipped
            c = side.center
            assert float(rx) == float(ry) == abs(va - c)
            r = float(rx)
            # the middle point of the side, where the 33-point polyline
            # that drew it before had its 17th point
            ta, delta = cmath.phase(va - c), cmath.phase((vb - c) / (va - c))
            middle = (c + r * cmath.exp(1j * (ta + delta / 2))).conjugate()
            half = (a - b) / 2
            k = math.sqrt(max(r * r - abs(half) ** 2, 0.0)) / abs(half)
            centre = (a + b) / 2 + (1 if sweep == "1" else -1) * k * complex(half.imag, -half.real)
            t0, t1 = cmath.phase(a - centre), cmath.phase(b - centre)
            turn = (t1 - t0) % (2 * math.pi)
            if sweep == "0":
                turn -= 2 * math.pi
            assert abs(centre + r * cmath.exp(1j * (t0 + turn / 2)) - middle) < 1e-12
        assert arcs == len(sides) - 1  # the base side is the one diameter

    def test_both_svgs_parse(self, tmp_path):
        assert main(["tessellate", "--out", str(tmp_path / "t")]) == 0
        assert main(["sweep", "--out", str(tmp_path / "s")]) == 0
        for path in (tmp_path / "t" / "tessellation.svg", tmp_path / "s" / "sweep_paths.svg"):
            assert ElementTree.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg"

    def test_depth_override(self, tmp_path):
        out = tmp_path / "o"
        assert main(["tessellate", "--out", str(out), "--depth", "1"]) == 0
        lines = (out / "triangles.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_hororegions_classes(self, tmp_path):
        out = tmp_path / "o"
        assert main(["hororegions", "--out", str(out)]) == 0
        rows = (out / "hororegions.csv").read_text().splitlines()[1:]
        classes = [int(r.split(",")[3]) for r in rows]
        assert set(classes) <= {1, 2, 3}
        man = json.loads((out / "manifest.json").read_text())
        s = man["commands"]["hororegions"]["summary"]
        assert s["class_1"] + s["class_2"] + s["class_3"] == s["vertices"]

    def test_build_emits_fields(self, tmp_path):
        out = tmp_path / "o"
        assert main(["build", "--out", str(out), "--grid", "6"]) == 0
        rows = (out / "fields.csv").read_text().splitlines()
        assert len(rows) == 7
        im_psi = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(v > 0 for v in im_psi)

    def test_verify_flat_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "data": {"kind": "flat"},
            "grid": {"samples": 6},
            "out_dir": str(tmp_path / "o"),
        })
        assert main(["verify", "--config", str(cfg)]) == 0
        err = capsys.readouterr().err
        assert "failed_check" not in err
        assert "check=closure" in err

    def test_verify_blaschke_passes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "grid": {"samples": 6},
            "out_dir": str(tmp_path / "o"),
        })
        assert main(["verify", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("data, code", [
        ({"rho0_kind": "scaled", "rho0_scale": 1.7}, 0),
        ({"rho0_kind": "constant", "rho0_scale": 1.7}, 0),
        ({"v_multiplier": 1.000001}, 1),
    ])
    def test_slice_identity_holds_on_every_rho0_kind(self, tmp_path, capsys, data, code):
        """The canonical slice is the unit level set of X, whichever rho0
        picks the other slice, and a V off |phi|^2 by 1e-6 still fails."""
        cfg = write_config(tmp_path / "c.json", {"data": data, "grid": {"samples": 6}})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        line = next(x for x in err.splitlines() if x.startswith("check=slice_identity "))
        assert line.endswith("status=pass" if code == 0 else "status=fail"), err
        assert ("failed_check=" in err) == (code == 1)

    def test_verify_corrupted_names_curl(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "data": {"v_multiplier": 1.01},
            "grid": {"samples": 6},
            "out_dir": str(tmp_path / "o"),
        })
        assert main(["verify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "failed_check=curl" in err
        assert "failed_check=closure" in err
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["commands"]["verify"]["status"] == "failed"

    def test_verify_names_what_went_non_finite(self, tmp_path, capsys):
        # V = 1e-300 Im(phi): G and E^-1 stay finite, their product does not
        cfg = write_config(tmp_path / "c.json", {
            "data": {"v_multiplier": 1e-300},
            "grid": {"samples": 6},
            "out_dir": str(tmp_path / "o"),
        })
        assert main(["verify", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error=runtime kind=CoframeDomainError detail=coframe lost to "
                         r"rounding at \|z\| = [0-9.]+: frame metric E\^-T G E\^-1 is not "
                         r"finite \(nan\) at V = [0-9.]+e-300$", err, re.M), err

    def test_verify_nan_residual_fails_its_check(self, tmp_path, capsys, monkeypatch):
        # a NaN contact ratio at the third centre must not pass as a small value
        contact_ratio = ghlab.cli.contact_ratio

        def nan_at_third(*args, **kwargs):
            out = contact_ratio(*args, **kwargs)
            ratio = out["ratio"].copy()
            ratio[2] = math.nan
            return {**out, "ratio": ratio}

        monkeypatch.setattr(ghlab.cli, "contact_ratio", nan_at_third)
        assert main(["verify", "--grid", "5", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "check=contact max=nan" in err
        assert "status=fail" in err.split("check=contact ")[1].splitlines()[0]
        assert "failed_check=contact" in err.splitlines()

    def test_sweep_flat(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "data": {"kind": "flat"},
            "out_dir": str(tmp_path / "o"),
        })
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = (tmp_path / "o" / "sweeps.csv").read_text().splitlines()[1:]
        # 3 targets x 2 tags x 5 ladder rungs
        assert len(rows) == 30
        verdicts = {r.split(",")[5] for r in rows}
        assert verdicts <= {"divergent-evidence", "bounded-evidence"}

    def test_sweep_blaschke_vertex_verdicts(self, tmp_path):
        out = tmp_path / "o"
        assert main(["sweep", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        verdicts = man["commands"]["sweep"]["summary"]["verdicts"]
        assert verdicts["1+0j/sphere"] == "bounded-evidence"
        assert verdicts["1+0j/disc"] == "divergent-evidence"

    def test_fingerprint_separation(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fingerprint", "--out", str(out)]) == 0
        rows = (out / "fingerprint_distances.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(float(r.split(",")[2]) > 1e-4 for r in rows)

    @pytest.mark.parametrize("mu,variants", [
        ({"kind": "scale", "scale": 2.0}, 3),
        ({"kind": "perturb", "eps_re": 0.05}, 3),
        ({"kind": "scale", "scale": 1.5}, 4),
        ({"kind": "perturb"}, 3),
        ({"kind": "scale", "scale": 2.0, "eps_re": 0.3}, 3),
        ({"kind": "perturb", "scale": 3.0, "eps_re": 0.05}, 3),
        ({"kind": "perturb", "eps_im": 0.05}, 4),
    ])
    def test_fingerprint_config_mu(self, tmp_path, mu, variants):
        # a config mu equal to a built-in variant is not compared with itself
        cfg = write_config(tmp_path / "c.json", {"data": {"mu": mu}})
        out = tmp_path / "o"
        assert main(["fingerprint", "--config", str(cfg), "--out", str(out)]) == 0
        header = (out / "fingerprints.csv").read_text().splitlines()[0].split(",")
        assert header[3:] == ["scale1", "scale2", "perturb05", "config"][:variants]
        rows = (out / "fingerprint_distances.csv").read_text().splitlines()[1:]
        assert len(rows) == variants * (variants - 1) // 2

    def test_curvature_scan_flat_is_flat(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "data": {"kind": "flat"},
            "grid": {"resolution": 3},
            "out_dir": str(tmp_path / "o"),
        })
        assert main(["curvature-scan", "--config", str(cfg)]) == 0
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["commands"]["curvature-scan"]["summary"]["max_riemann"] < 1e-3


def test_write_csv_cells(tmp_path):
    # strings as they are, every other cell as "%.17g" % float(cell)
    cells = ["a%s", 0.1, np.float32(0.1), np.int64(7), True, 2**60 + 1, -0.0, math.nan, 1e308]
    want = "a%s,0.10000000000000001,0.10000000149011612,7,1,1.152921504606847e+18,-0,nan,1e+308"
    assert want == ",".join(c if isinstance(c, str) else "%.17g" % float(c) for c in cells)
    write_csv(tmp_path / "t.csv", ["h1", "h2"], [cells, tuple(cells[::-1])])
    assert (tmp_path / "t.csv").read_text() == "\n".join(
        ["h1,h2", want, ",".join(want.split(",")[::-1]), ""])


class TestVerifyPoints:
    @pytest.mark.parametrize("seed", [0, 7, 16, 123])
    @pytest.mark.parametrize("n", [1, 2, 12, 100, 400, 1000])
    def test_one_draw_gives_the_scalar_draws(self, n, seed):
        """interior_points draws its 2n jitters at once: the same points,
        bit for bit, as two scalar draws per point in turn."""
        got = np.array(interior_points(n, seed))
        assert got.tobytes() == np.array(interior_points_by_scalar_draws(n, seed)).tobytes()
        assert (np.array(interior_points(n, seed, radius=0.45)).tobytes()
                == np.array(interior_points_by_scalar_draws(n, seed, radius=0.45)).tobytes())


    @pytest.mark.parametrize("depth, h", [(1, 0.4), (1, 0.385), (2, 0.2), (1, 0.38), (2, 0.15)])
    def test_stencil_reach_is_the_largest_modulus(self, depth, h):
        """The reach of the stencils, which verify and curvature-scan
        report at exit 2, is the largest |z| over the points of
        stencil_points, as CPython's abs rounds it; StencilError with it
        where it is not inside the disc.  The points of depth 2 are
        those of depth 1 around each point of depth 1."""
        points = interior_points(24, 0) + [0.6, -0.6j, 0.3 - 0.3j]
        reach_of = points
        for _ in range(depth):
            reach_of = reach_of + [w + e for w in reach_of for e in (h, 1j * h, -h, -1j * h)]
        reach = max(abs(w) for w in reach_of)
        config = FDConfig(h, richardson=0)
        if reach < 1.0:
            assert set(stencil_points(points, config, depth).tolist()) == set(reach_of)
        else:
            with pytest.raises(StencilError) as info:
                stencil_points(points, config, depth)
            assert str(info.value) == f"the stencil of h = {h} leaves the disc (|z| = {reach})"
        assert (reach < 1.0) == (h in (0.38, 0.15))


class TestManifest:
    def test_checksums_match_files(self, tmp_path):
        out = tmp_path / "o"
        assert main(["tessellate", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        for name, digest in man["commands"]["tessellate"]["files"].items():
            assert sha256_file(out / name) == digest

    def test_csv_columns_documented(self, tmp_path):
        out = tmp_path / "o"
        assert main(["build", "--out", str(out), "--grid", "4"]) == 0
        man = json.loads((out / "manifest.json").read_text())
        cols = man["commands"]["build"]["csv_columns"]["fields.csv"]
        header = (out / "fields.csv").read_text().splitlines()[0]
        assert header == ",".join(cols)

    def test_commands_accumulate_under_one_hash(self, tmp_path):
        out = tmp_path / "o"
        main(["tessellate", "--out", str(out)])
        main(["hororegions", "--out", str(out)])
        man = json.loads((out / "manifest.json").read_text())
        assert set(man["commands"]) == {"tessellate", "hororegions"}

    @pytest.mark.parametrize("stale", [
        "[]",
        '{"config_hash": "%s", "commands": []}',
        '{"config_hash": "%s"}',
        "\xff",
    ])
    def test_manifest_not_an_object_starts_afresh(self, tmp_path, stale):
        out = tmp_path / "o"
        out.mkdir()
        h = config_hash(replace(ExperimentConfig(), out_dir=str(out)))
        (out / "manifest.json").write_bytes((stale.replace("%s", h)).encode("latin-1"))
        assert main(["tessellate", "--out", str(out)]) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config_hash"] == h
        assert set(man["commands"]) == {"tessellate"}

    def test_manifest_resets_on_config_change(self, tmp_path):
        out = tmp_path / "o"
        main(["tessellate", "--out", str(out)])
        main(["tessellate", "--out", str(out), "--depth", "1"])
        man = json.loads((out / "manifest.json").read_text())
        assert set(man["commands"]) == {"tessellate"}
        lines = (out / "triangles.csv").read_text().splitlines()
        assert len(lines) == 5


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "grid": {"samples": 6, "resolution": 3},
            "out_dir": str(tmp_path / "o"),
        })
        commands = ["tessellate", "build", "verify", "sweep", "fingerprint"]
        for cmd in commands:
            assert main([cmd, "--config", str(cfg)]) == 0
        first = {p.name: p.read_bytes()
                 for p in sorted((tmp_path / "o").iterdir())}
        for cmd in commands:
            assert main([cmd, "--config", str(cfg)]) == 0
        second = {p.name: p.read_bytes()
                  for p in sorted((tmp_path / "o").iterdir())}
        assert first == second

    def test_seed_changes_sample_points(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["build", "--out", str(out_a), "--grid", "5", "--seed", "0"])
        main(["build", "--out", str(out_b), "--grid", "5", "--seed", "1"])
        assert (out_a / "fields.csv").read_bytes() != (out_b / "fields.csv").read_bytes()


# the detail a row of test_unusable_config_exits_two must print
_EXIT_TWO_DETAILS = {
    # a removed key is an unknown one
    '{"data": {"ball_radius": 0.8}}': "detail=unknown config.data keys: ['ball_radius']\n",
}


class TestEntryPoints:
    def test_bad_config_exits_two(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["build", "--config", str(p)]) == 2

    def test_semantic_config_error_exits_two(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "data": {"vertices": [[0.5, 0.0], [0.0, 1.0], [-1.0, 0.0]]},
            "out_dir": str(tmp_path / "o"),
        })
        assert main(["build", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command, text", [
        ("tessellate", '{"data": []}'),
        ("tessellate", '{"grid": {"samples": "abc"}}'),
        ("tessellate", '{"tolerances": {"curl": "x"}}'),
        ("tessellate", '{"depth": null}'),
        ("tessellate", '{"fd": {"h": Infinity}}'),
        ("verify", '{"fd": {"h": Infinity}}'),
        ("verify", '{"fd": {"h": NaN}}'),
        ("tessellate", '{"out_dir": 5}'),
        ("tessellate", '{"grid": {"samples": true}}'),
        ("tessellate", '{"grid": {"samples": 2.7}}'),
        ("tessellate", '{"data": {"depths": ["2"]}}'),
        ("tessellate", '{"depth": 13}'),
        ("tessellate", '[]'),
        ("hororegions", '{"data": {"rho0_kind": "fancy"}}'),
        ("tessellate", '{"data": {"rho0_scale": -1.0}}'),
        ("tessellate", '{"data": {"ball_radius": 0.8}}'),
        ("tessellate", b"\xff\xfe"),
    ])
    def test_unusable_config_exits_two(self, tmp_path, capsys, command, text):
        p = tmp_path / "c.json"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error=config ") and err.count("\n") == 1
        assert _EXIT_TWO_DETAILS.get(text, "") in err
        assert not out.exists()

    def test_curvature_step_past_the_scan_exits_two(self, tmp_path, capsys):
        # the scan starts at rho = 0.9, and curvature wants rho > 2.5 h;
        # its points reach |z| = 0.45, and the nested stencil two steps
        # further, out of the disc from about h = 0.295 on
        for h in (0.3, 0.35, 0.4):
            p = write_config(tmp_path / f"c{h}.json", {"fd": {"curvature_h": h}})
            out = tmp_path / f"o{h}"
            assert main(["curvature-scan", "--config", str(p), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error=config ") and err.count("\n") == 1
            assert "curvature_h" in err
            assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("target", ["file", "file/o"])
    def test_unusable_out_dir_exits_two(self, tmp_path, capsys, target):
        (tmp_path / "file").write_text("x")
        out = tmp_path / target
        assert main(["tessellate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error=config ") and err.count("\n") == 1
        assert "out_dir" in err
        assert (tmp_path / "file").read_text() == "x"

    @pytest.mark.parametrize("name", ["manifest.json", "triangles.csv"])
    def test_artifact_path_that_is_a_directory_exits_two(self, tmp_path, capsys, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        assert main(["tessellate", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error=config ") and err.count("\n") == 1
        assert "out_dir" in err and name in err

    def test_fd_step_past_the_disc_exits_two(self, tmp_path, capsys):
        # the verify points reach |z| = 0.62 and a little jitter, and
        # every stencil one step further: out of the disc from about
        # h = 0.384 on, with the default grid
        for h in (0.385, 0.4):
            p = write_config(tmp_path / f"c{h}.json", {"fd": {"h": h}})
            out = tmp_path / f"o{h}"
            assert main(["verify", "--config", str(p), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error=config ") and err.count("\n") == 1
            assert "fd.h" in err
            assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command, fd, key, coordinate", [
        # every centre of either command, in u and v
        ("verify", {"h": 1e-20}, "fd.h", "u"),
        ("curvature-scan", {"curvature_h": 1e-20}, "fd.curvature_h", "u"),
        # h moves every |u|, |v| < 1, but h/2 of the Richardson pair
        # rounds back wherever |u| >= 1/2
        ("verify", {"h": 1e-16}, "fd.h", "u"),
        # the scan's points keep |u|, |v| < 1/2, where both steps move
        # them, but they round back onto rho = 1.1
        ("curvature-scan", {"curvature_h": 8e-17}, "fd.curvature_h", "rho"),
    ])
    def test_collapsed_step_exits_two(self, tmp_path, capsys, command, fd, key, coordinate):
        """A step that rounds back onto its centre differences nothing:
        all-zero partials that would pass as a false success."""
        p = write_config(tmp_path / "c.json", {"fd": fd})
        out = tmp_path / "o"
        assert main([command, "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error=config ") and err.count("\n") == 1
        assert f"{key}: the step " in err and f"onto its centre at {coordinate} = " in err
        assert not (out / "manifest.json").exists()

    def test_unused_half_step_is_not_checked(self, tmp_path, capsys):
        # without Richardson verify takes h = 1e-16 alone, which moves
        # every centre: an honest, failing run rather than a config error
        p = write_config(tmp_path / "c.json", {"fd": {"h": 1e-16, "richardson": 0}})
        assert main(["verify", "--config", str(p), "--out", str(tmp_path / "o")]) in (0, 1)
        assert "error=config" not in capsys.readouterr().err

    @pytest.mark.parametrize("richardson", [0, 1])
    def test_rho_step_below_the_slice_exits_two(self, tmp_path, capsys, richardson):
        """Deep data puts a centre's slice height rho = Im psi below h
        (6.1e-5 against 1e-4 at depth 30), which the domain rule of
        verify forbids."""
        p = write_config(tmp_path / "c.json", {"data": {"depths": [30]},
                                               "fd": {"richardson": richardson}})
        out = tmp_path / "o"
        assert main(["verify", "--config", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error=config ") and err.count("\n") == 1
        assert re.search(r"fd\.h: the slice height rho = Im psi must exceed the step 0\.0001, "
                         r"but the centre z = \(.+j\) has rho = 6\.1\d*e-05$", err.strip()), err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("args, key", [
        (["verify", "--grid", "100000000000000000000"], "grid.samples"),
        (["curvature-scan", "--grid", str(MAX_GRID + 1)], "grid.samples"),
        (["build", "--config", "{config}"], "grid.resolution"),
    ])
    def test_grid_past_the_bound_exits_two(self, tmp_path, capsys, args, key):
        p = write_config(tmp_path / "c.json", {"grid": {"resolution": MAX_GRID + 1}})
        out = tmp_path / "o"
        args = [a.format(config=p) for a in args]
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error=config ") and err.count("\n") == 1
        assert key in err and f"exceeds the bound {MAX_GRID}" in err
        assert not out.exists()

    def test_grid_at_the_bound_is_accepted(self):
        assert GridConfig(samples=MAX_GRID, resolution=MAX_GRID).samples == MAX_GRID
        with pytest.raises(ConfigError, match="grid.resolution"):
            GridConfig(resolution=MAX_GRID + 1)

    def test_depth_flag_beyond_guard_exits_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["tessellate", "--depth", "13", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error=config ")
        assert not out.exists()

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["polish"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("depth", [26, 28, 30])
    def test_deep_data_ends_in_check_lines_or_one_error_line(self, tmp_path, depth):
        """verify on Blaschke zeros stacked deep toward the vertices, in
        a fresh interpreter that makes every RuntimeWarning an error:
        the run ends in its check lines, or in one error= line, and
        never in a traceback."""
        p = write_config(tmp_path / "c.json", {"data": {"depths": [depth]}})
        proc = _fresh_ghlab("verify", "--config", str(p), "--out", str(tmp_path / "o"))
        lines = proc.stderr.splitlines()
        assert "Traceback" not in proc.stderr
        if proc.returncode in (0, 1) and lines[-1].startswith("command=verify status="):
            assert sum(line.startswith("check=") for line in lines) == 9
        else:
            assert proc.returncode in (1, 2) and len(lines) == 1, proc.stderr
            assert lines[0].startswith("error="), proc.stderr

    def test_potential_past_the_double_range_is_a_coframe_error(self, tmp_path):
        """A V of 1e308 overflows the metric; verify reports that as the
        coframe's domain limit, with no RuntimeWarning on the way."""
        p = write_config(tmp_path / "c.json", {"data": {"v_multiplier": 1e308}})
        proc = _fresh_ghlab("verify", "--config", str(p), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1 and "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error=runtime kind=CoframeDomainError detail=coframe "
                                      "lost to rounding at |z| = ")
        assert proc.stderr.count("\n") == 1 and "metric G is not finite (inf)" in proc.stderr

    def test_curvature_past_the_double_range_is_a_metric_domain_error(self, tmp_path, capsys):
        """The same V makes curvature-scan stop at its first non-finite
        metric, before it is differenced: one error line and exit 1, in
        process and in a fresh interpreter, with no RuntimeWarning."""
        p = write_config(tmp_path / "c.json", {"data": {"v_multiplier": 1e308}})
        argv = ["curvature-scan", "--config", str(p), "--out", str(tmp_path / "o")]
        code = main(argv)
        err = capsys.readouterr().err
        proc = _fresh_ghlab(*argv)
        for code, err in ((code, err), (proc.returncode, proc.stderr)):
            assert code == 1 and "RuntimeWarning" not in err, err
            assert err.startswith("error=runtime kind=MetricDomainError detail=metric not "
                                  "finite at x = [0.9, "), err
            assert err.count("\n") == 1
        assert not (tmp_path / "o" / "curvature.csv").exists()

    @staticmethod
    def _import_cli_without(module):
        """Exit status and stderr of a fresh interpreter that imports
        ghlab.cli and asserts that module is not loaded."""
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, ghlab.cli; assert {module!r} not in sys.modules, '{module} loaded'"],
            capture_output=True, text=True, env=_child_env(),
        )
        return proc.returncode, proc.stderr

    def test_import_loads_no_scipy(self):
        # scipy is imported only where a root finder or dblquad runs
        code, err = self._import_cli_without("scipy")
        assert code == 0, err

    def test_import_loads_no_numpy_polynomial(self):
        # the Gauss-Legendre tables are literals, not leggauss calls
        code, err = self._import_cli_without("numpy.polynomial")
        assert code == 0, err

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "ghlab.cli", "tessellate",
             "--out", str(out), "--depth", "1"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0
        assert "command=tessellate status=ok" in proc.stderr
        assert (out / "triangles.csv").exists()
