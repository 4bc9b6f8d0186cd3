import json
from pathlib import Path

import numpy as np
import pytest

from priorwave import AngularGrid, ArrayConfig, baseline_omni
from priorwave.cli import main as cli_main
from priorwave.scenario import (
    ConfigError,
    dump_config,
    emit_beampattern,
    emit_waveform,
    load_config,
    read_waveform,
    run_scenario,
    validate_output_dir,
)

SMALL_CFG = """\
array: {m_t: 4, m_r: 4, l_samples: 8}
distribution:
  kind: mixture-uniform
  intervals_deg: [[-10.0, 10.0]]
  weights: [1.0]
methods: [pcrb, omni]
kappa_list: [1.2]
snr_list_db: [0.0, 10.0]
n_trials: 10
grid_size: 181
seed: 5
admm: {max_iters: 300}
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def test_config_round_trip_is_identity(small_cfg, tmp_path):
    sc1 = load_config(small_cfg)
    second = tmp_path / "second.cfg"
    second.write_text(dump_config(sc1))
    sc2 = load_config(second)
    assert sc1.to_dict() == sc2.to_dict()
    assert sc1.config_hash() == sc2.config_hash()


def test_bundled_configs_parse():
    cfg_dir = Path(__file__).resolve().parents[1] / "src" / "priorwave" / "configs"
    names = sorted(p.name for p in cfg_dir.glob("*.cfg"))
    assert len(names) == 11
    for p in cfg_dir.glob("*.cfg"):
        sc = load_config(p)
        assert sc.array.m_t == 8 and sc.array.l_samples == 25
        assert sc.grid_size == 361


def test_scenario3_config_encodes_k4_mixture():
    cfg_dir = Path(__file__).resolve().parents[1] / "src" / "priorwave" / "configs"
    sc = load_config(cfg_dir / "scenario-3.cfg")
    means = np.array(sc.distribution.means)
    assert np.allclose(means, [-np.pi / 3, -np.pi / 6, np.pi / 9, 5 * np.pi / 18])
    assert sc.distribution.weights == (0.15, 0.25, 0.4, 0.2)


def test_bundled_case_1_2_produces_design_comparison(tmp_path):
    # Desk-scale pass over the bundled case file: same prior and methods,
    # trimmed iteration/trial counts. Full-scale numbers run offline.
    cfg_dir = Path(__file__).resolve().parents[1] / "src" / "priorwave" / "configs"
    raw = load_config(cfg_dir / "case-1-2.cfg").to_dict()
    assert {"pcrb", "psbp-fair", "psbp-int"} <= set(raw["methods"])
    raw.update(n_trials=0, snr_list_db=[], kappa_list=[1.2])
    raw["admm"] = {"max_iters": 600}
    import yaml

    desk = tmp_path / "case-1-2-desk.cfg"
    desk.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert run_scenario(desk, out=out) == 0
    tables = [out / f"{m}-k1.2" / "beampattern.csv"
              for m in ("pcrb", "psbp-fair", "psbp-int")]
    assert all(t.exists() for t in tables)
    assert len({t.read_bytes() for t in tables}) == 3  # three distinct designs


def test_run_scenario_outputs_and_validation(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert run_scenario(small_cfg, out=out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == []
    listed = set(manifest["files"])
    assert "pcrb-k1.2/waveform.csv" in listed
    assert "pcrb-k1.2/trace.csv" in listed
    assert "omni/mse.csv" in listed
    for rel in listed:
        assert (out / rel).exists()
    assert validate_output_dir(out) == []
    # beampattern row count and endpoints
    lines = (out / "omni" / "beampattern.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 181
    first = float(lines[1].split(",")[0])
    last = float(lines[-1].split(",")[0])
    assert first == -90.0 and last == 90.0


def test_reruns_are_byte_identical(small_cfg, tmp_path):
    outs = [tmp_path / f"o{i}" for i in range(3)]
    for o in outs:
        assert run_scenario(small_cfg, out=o) == 0
    files = json.loads((outs[0] / "manifest.json").read_text())["files"]
    assert files
    for rel in files:
        ref = (outs[0] / rel).read_bytes()
        assert (outs[1] / rel).read_bytes() == ref
        assert (outs[2] / rel).read_bytes() == ref


def test_config_errors_are_line_precise(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("array: {m_t: 4\n  m_r: 3}")
    assert run_scenario(bad) == 1
    outerr = capsys.readouterr().out
    assert "bad.cfg:2" in outerr

    bad2 = tmp_path / "bad2.cfg"
    bad2.write_text(SMALL_CFG.replace("kind: mixture-uniform", "kind: nope"))
    assert run_scenario(bad2) == 1
    assert "distribution.kind" in capsys.readouterr().out


def test_prior_failing_quadrature_is_a_config_error(tmp_path, capsys):
    # Validates, but a fifth of the mass lies past +90 degrees.
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(SMALL_CFG.replace(
        "distribution:\n  kind: mixture-uniform\n  intervals_deg: [[-10.0, 10.0]]\n"
        "  weights: [1.0]\n",
        "distribution: {kind: mixture-gaussian, means_deg: [85], sigma_deg: 5, "
        "weights: [1.0]}\n",
    ))
    load_config(cfg)
    out = tmp_path / "out"
    assert run_scenario(cfg, out=out) == 1
    assert capsys.readouterr().out.startswith("config error: distribution: ")
    assert not out.exists()


def test_unknown_method_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace("[pcrb, omni]", "[pcrb, magic]"))
    with pytest.raises(ConfigError, match="unknown method"):
        load_config(bad)


def test_partial_failure_isolated(tmp_path):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(
        "array: {m_t: 6, m_r: 4, l_samples: 4}\n"
        "distribution:\n"
        "  kind: mixture-uniform\n"
        "  intervals_deg: [[-10.0, 10.0]]\n"
        "  weights: [1.0]\n"
        "methods: [omni, pcrb]\n"
        "kappa_list: [1.5]\n"
        "grid_size: 91\n"
        "seed: 1\n"
        "admm: {max_iters: 100}\n"
    )
    out = tmp_path / "out"
    assert run_scenario(cfg, out=out) == 2  # omni needs L >= M_t
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["cell"] for f in manifest["failures"]] == ["omni"]
    assert any(rel.startswith("pcrb-k1.5/") for rel in manifest["files"])


def test_waveform_round_trip_and_beampattern_dump(tmp_path):
    cfg = ArrayConfig(4, 4, 8, power=1.5)
    x = baseline_omni(cfg)
    wf = tmp_path / "w.csv"
    emit_waveform(x, wf)
    assert np.array_equal(read_waveform(wf), x)
    bp = tmp_path / "bp.csv"
    emit_beampattern(x, AngularGrid.uniform(91), bp)
    lines = bp.read_text().strip().splitlines()
    assert lines[0] == "angle_deg,power,power_db"
    powers = [float(l.split(",")[1]) for l in lines[1:]]
    assert max(powers) - min(powers) <= 1e-9


def test_cli_subcommands(small_cfg, tmp_path, capsys):
    out = tmp_path / "cliout"
    assert cli_main(["run", "--config", str(small_cfg), "--out", str(out)]) == 0
    assert cli_main(["validate", str(out)]) == 0
    bp = tmp_path / "bp.csv"
    assert cli_main(["beampattern", "--waveform", str(out / "omni" / "waveform.csv"),
                     "--out", str(bp), "--grid-size", "61"]) == 0
    assert len(bp.read_text().strip().splitlines()) == 62
    # corrupt a table: validation must fail
    target = out / "omni" / "beampattern.csv"
    target.write_text("angle_deg,power\n0,1\n")
    assert cli_main(["validate", str(out)]) == 1


def test_beampattern_rejects_bad_waveform_tables(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    header_only = tmp_path / "header.csv"
    header_only.write_text("m,l,re,im\n")
    for bad in (tmp_path / "missing.csv", empty, header_only):
        assert cli_main(["beampattern", "--waveform", str(bad),
                         "--out", str(tmp_path / "bp.csv")]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and str(bad) in lines[0]
    assert not (tmp_path / "bp.csv").exists()


def test_validate_reports_missing_manifest(tmp_path):
    problems = validate_output_dir(tmp_path)
    assert problems and "manifest.json" in problems[0]


def test_seed_override_changes_outputs(small_cfg, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_scenario(small_cfg, out=out1, seed=5) == 0  # same as config seed
    assert run_scenario(small_cfg, out=out2, seed=6) == 0
    ref = (out1 / "pcrb-k1.2" / "waveform.csv").read_bytes()
    assert (out2 / "pcrb-k1.2" / "waveform.csv").read_bytes() != ref
