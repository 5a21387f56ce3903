"""End-to-end tests for the experiment driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghlab
from ghlab.cli import (
    DataConfig,
    ExperimentConfig,
    MuConfig,
    Tolerances,
    build_data,
    config_hash,
    load_config,
    main,
    sha256_file,
)
from ghlab.errors import ConfigError


def write_config(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = ExperimentConfig.from_dict({
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
        })
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_defaults_roundtrip(self):
        cfg = ExperimentConfig()
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"grids": {}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"data": {"verts": []}})

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            Tolerances(curl=0.0)

    def test_bad_mu_kind_rejected(self):
        with pytest.raises(ConfigError):
            MuConfig(kind="rotate")

    def test_bad_ball_radius_rejected(self):
        with pytest.raises(ConfigError):
            DataConfig(ball_radius=1.0)

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
        b = ExperimentConfig.from_dict({"depth": 3})
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
        scaled = build_data(DataConfig(mu=MuConfig(kind="scale", scale=2.0)))
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

    def test_curvature_scan_flat_is_flat(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "data": {"kind": "flat"},
            "grid": {"resolution": 3},
            "out_dir": str(tmp_path / "o"),
        })
        assert main(["curvature-scan", "--config", str(cfg)]) == 0
        man = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert man["commands"]["curvature-scan"]["summary"]["max_riemann"] < 1e-3


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

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["polish"])
        assert exc.value.code == 2

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "o"
        # the child imports the same ghlab as this suite, installed or not
        src = str(Path(ghlab.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ghlab.cli", "tessellate",
             "--out", str(out), "--depth", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "command=tessellate status=ok" in proc.stderr
        assert (out / "triangles.csv").exists()
