import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import priorwave.scenario as scenario_mod
from priorwave import AngularGrid, ArrayConfig, baseline_omni
from priorwave.cli import main as cli_main
from priorwave.scenario import (
    METHODS,
    ConfigError,
    _cell_seed,
    emit_beampattern,
    emit_waveform,
    _kappa_monotonicity_report,
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

CI_SMOKE = Path(__file__).resolve().parent / "data" / "ci-smoke.cfg"


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def test_config_round_trip_is_identity(small_cfg, tmp_path):
    sc1 = load_config(small_cfg)
    second = tmp_path / "second.cfg"
    second.write_text(yaml.safe_dump(sc1.to_dict(), sort_keys=False))
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


SMALL_PRIOR = ("distribution:\n  kind: mixture-uniform\n  intervals_deg: [[-10.0, 10.0]]\n"
               "  weights: [1.0]\n")
POINT_MASS = "distribution: {kind: point-mass, angle_deg: 3.0}\n"
SMALL_GAUSS = ("distribution:\n  kind: mixture-gaussian\n  means_deg: [0.0]\n"
               "  sigma_deg: 2.0\n  weights: [1.0]\n")
# Density only between the 0 and 1 degree points of the 181-point grid.
OFF_GRID = ("distribution:\n  kind: mixture-uniform\n  intervals_deg: [[0.1, 0.3]]\n"
            "  weights: [1.0]\n")


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

    # Unknown keys at every level, and values that would only fail (or be
    # silently ignored) inside a cell, are config errors naming the key.
    cases = [
        ("seed: 5\n", "seed: 5\nn_trail: 5\n", "config.n_trail: unknown key"),
        ("l_samples: 8}", "l_samples: 8, papr: 3.0}", "array.papr: unknown key"),
        ("  weights: [1.0]\n", "  weights: [1.0]\n  sigma_deg: 2.0\n",
         "distribution.sigma_deg: unknown key"),
        # The psbp designs' density floor is a constant, not a key.
        ("seed: 5\n", "seed: 5\npdf_floor: 1.0e-6\n", "config.pdf_floor: unknown key"),
        ("kappa_list: [1.2]", "kappa_list: []", "kappa_list: "),
        ("seed: 5\n", "seed: 5\ncrb_angle_deg: 100\n", "crb_angle_deg: "),
        ("{max_iters: 300}", "{max_iters: true}", "admm.max_iters: expected int, got bool"),
        ("{max_iters: 300}", "{max_iters: 0}", "admm: max_iters must be at least 1"),
        # A known angle is the crb method's crb_angle_deg, not a distribution.
        (SMALL_PRIOR, POINT_MASS, "distribution.kind: unknown kind 'point-mass'"),
        # Values that print alike would write two cells into one directory.
        ("kappa_list: [1.2]", "kappa_list: [1.2, 1.2000001]", "kappa_list: 1.2 and 1.2000001"),
        ("kappa_list: [1.2]", "kappa_list: [1.5, 1.2, 1.5]", "kappa_list: 1.5 and 1.5"),
        # A repeated SNR would give two sweeps one snr_db key in both mse tables.
        ("snr_list_db: [0.0, 10.0]", "snr_list_db: [10.0, 0.0, 10.0]",
         "snr_list_db: 10.0 is listed twice"),
        # A repeated method would run its cells twice into the same directories.
        ("methods: [pcrb, omni]", "methods: [pcrb, omni, pcrb]",
         "methods: 'pcrb' is listed twice"),
        # Integers are not truncated, and true/false is not read as 1/0.
        ("n_trials: 10", "n_trials: 2.7", "config.n_trials: expected int, got float"),
        ("n_trials: 10", "n_trials: true", "config.n_trials: expected int, got bool"),
        ("grid_size: 181", "grid_size: true", "config.grid_size: expected int, got bool"),
        ("seed: 5\n", "seed: 5.5\n", "config.seed: expected int, got float"),
        ("seed: 5\n", "seed: false\n", "config.seed: expected int, got bool"),
        ("kappa_list: [1.2]", "kappa_list: [true]", "kappa_list: expected a number, got bool"),
        ("snr_list_db: [0.0, 10.0]", "snr_list_db: [0.0, true]",
         "snr_list_db: expected a number, got bool"),
        ("seed: 5\n", "seed: 5\ncrb_angle_deg: true\n", "crb_angle_deg: expected a number"),
        ("l_samples: 8}", "l_samples: 8, power: true}", "array.power: expected a number"),
        ("l_samples: 8}", "l_samples: 8, spacing: false}", "array.spacing: expected a number"),
        # NaN and infinity are caught before any cell runs.
        ("kappa_list: [1.2]", "kappa_list: [.nan]", "kappa_list: expected a finite number"),
        ("kappa_list: [1.2]", "kappa_list: [.inf]", "kappa_list: expected a finite number"),
        ("snr_list_db: [0.0, 10.0]", "snr_list_db: [0.0, .nan]",
         "snr_list_db: expected a finite number"),
        ("snr_list_db: [0.0, 10.0]", "snr_list_db: [.inf]",
         "snr_list_db: expected a finite number"),
        ("l_samples: 8}", "l_samples: 8, power: .inf}", "array.power: expected a finite number"),
        ("l_samples: 8}", "l_samples: 8, noise_power: .inf}",
         "array.noise_power: expected a finite number"),
        ("l_samples: 8}", "l_samples: 8, spacing: .inf}", "array.spacing: expected a finite number"),
        ("  weights: [1.0]\n", "  weights: [.nan]\n",
         "distribution.weights: expected a finite number, got nan"),
        (SMALL_PRIOR, SMALL_GAUSS.replace("[0.0]", "[.nan]"),
         "distribution.means_deg: expected a finite number, got nan"),
        # Distribution entries take the same number check as every other key.
        ("[[-10.0, 10.0]]", "[[-10.0, true]]",
         "distribution.intervals_deg: expected a number, got bool"),
        ("[[-10.0, 10.0]]", "[[a, 10.0]]",
         "distribution.intervals_deg: could not convert string to float: 'a'"),
        # Each interval is a pair, named by its key.
        ("[[-10.0, 10.0]]", "[[-10.0, 10.0, 3.0]]",
         "distribution.intervals_deg: expected [low, high] pairs, got [-10.0, 10.0, 3.0]"),
        ("[[-10.0, 10.0]]", "[5.0]", "distribution.intervals_deg: expected [low, high] pairs, got 5.0"),
        ("  weights: [1.0]\n", "  weights: [true]\n",
         "distribution.weights: expected a number, got bool"),
        (SMALL_PRIOR, SMALL_GAUSS.replace("[0.0]", "[true]"),
         "distribution.means_deg: expected a number, got bool"),
        (SMALL_PRIOR, SMALL_GAUSS.replace("2.0", ".inf"),
         "distribution.sigma_deg: expected a finite number"),
    ]
    for old, new, message in cases:
        bad3 = tmp_path / "bad3.cfg"
        bad3.write_text(SMALL_CFG.replace(old, new))
        out = tmp_path / "out"
        assert run_scenario(bad3, out=out) == 1, new
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {message}"), lines
        assert not out.exists()


def test_paper_literal_leaves_the_design_tables_alone(tmp_path):
    # The flag only turns the Monte-Carlo refine off: every other table,
    # psbp-int's design included, is the same with and without it.
    cfg = tmp_path / "literal.cfg"
    cfg.write_text(SMALL_CFG.replace("methods: [pcrb, omni]", "methods: [pcrb, psbp-int, omni]"))
    tables = []
    for literal in (False, True):
        out = tmp_path / f"out{int(literal)}"
        assert run_scenario(cfg, out=out, paper_literal=literal) == 0
        tables.append({str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*.csv")})
    assert tables[0].keys() == tables[1].keys()
    design = [rel for rel in tables[0] if not Path(rel).name.startswith("mse")]
    assert "psbp-int-k1.2/metrics.csv" in design and "omni/mse.csv" in tables[0]
    assert [rel for rel in design if tables[0][rel] != tables[1][rel]] == []


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, where):
    path = tmp_path / "missing.cfg"
    if where == "directory":
        path.mkdir()
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {path}: "), lines
    assert err == ""
    assert not (tmp_path / "out").exists()


def test_omni_with_fewer_samples_than_antennas_is_a_config_error(tmp_path, capsys):
    # The orthogonal-row omni waveform needs l_samples >= m_t: the config is
    # refused before any cell runs, not left to fail inside the omni cell.
    path = tmp_path / "short.cfg"
    path.write_text(SMALL_CFG.replace("l_samples: 8", "l_samples: 3"))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
    text, err = capsys.readouterr()
    lines = text.splitlines()
    assert lines == ["config error: methods: omni needs array.l_samples >= array.m_t "
                     "for its orthogonal rows, got 3 < 4"], lines
    assert err == "" and not out.exists()
    # Without omni the same array runs.
    path.write_text(SMALL_CFG.replace("l_samples: 8", "l_samples: 3")
                    .replace("methods: [pcrb, omni]", "methods: [pcrb]"))
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0


@pytest.mark.parametrize("method", ["pcrb", "crb"])
def test_bound_designs_need_two_receive_elements(tmp_path, capsys, method):
    # One receive element has no angle derivative, so xi0 = 0 and the
    # bound surrogate is zero for every waveform: the config is refused
    # before any cell runs, not left to fail inside the cells.
    path = tmp_path / "one.cfg"
    one = SMALL_CFG.replace("m_r: 4", "m_r: 1")
    path.write_text(one.replace("methods: [pcrb, omni]", f"methods: [{method}, omni]"))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
    text, err = capsys.readouterr()
    assert text.splitlines() == [f"config error: methods: {method} needs array.m_r >= 2; with "
                                 "one receive element its bound surrogate is zero for every "
                                 "waveform"]
    assert err == "" and not out.exists()
    # The other designs and the Monte-Carlo sweep run on one receive element.
    path.write_text(one.replace("methods: [pcrb, omni]", "methods: [psbp-fair, psbp-int, omni]"))
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert validate_output_dir(out) == []


def test_validate_reports_a_file_listed_twice(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert run_scenario(small_cfg, out=out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    twice = "omni/mse_by_angle.csv"
    assert twice in manifest["files"]
    manifest["files"] = sorted(manifest["files"] + [twice])
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert validate_output_dir(out) == [f"{twice}: listed 2 times in manifest.json"]


@pytest.mark.parametrize("paper_literal", [False, True])
def test_per_angle_table_splits_each_mse_row(tmp_path, paper_literal):
    # The mse_by_angle.csv rows at an mse.csv row's snr_db come in one block,
    # in snr_list_db order; their trials sum to its trials, and their
    # trial-weighted mean is its mse.
    out = tmp_path / "out"
    assert run_scenario(CI_SMOKE, out=out, paper_literal=paper_literal) == 0
    assert validate_output_dir(out) == []
    tables = sorted(out.glob("*/mse.csv"))
    assert len(tables) == 9
    for path in tables:
        rows, by_angle = (list(csv.DictReader(p.read_text().splitlines()))
                          for p in (path, path.with_name("mse_by_angle.csv")))
        snrs = [row["snr_db"] for row in rows]
        keys = [a["snr_db"] for a in by_angle]
        assert keys == sorted(keys, key=snrs.index) and set(keys) == set(snrs)
        for row in rows:
            at = [(int(a["trials"]), float(a["mse_rad2"]))
                  for a in by_angle if a["snr_db"] == row["snr_db"]]
            assert sum(n for n, _ in at) == int(row["trials"])
            assert math.isclose(sum(n * v for n, v in at) / int(row["trials"]),
                                float(row["mse_rad2"]), rel_tol=1e-8)


def test_sub_db_snrs_run_and_validate(tmp_path):
    # SNRs half a dB apart share the cell's one per-angle table by snr_db.
    cfg = tmp_path / "half.cfg"
    cfg.write_text(SMALL_CFG.replace("snr_list_db: [0.0, 10.0]", "snr_list_db: [0.0, 0.5, 10.0]"))
    out = tmp_path / "out"
    assert run_scenario(cfg, out=out) == 0
    assert validate_output_dir(out) == []
    for cell in ("omni", "pcrb-k1.2"):
        rows = list(csv.DictReader((out / cell / "mse_by_angle.csv").read_text().splitlines()))
        assert list(dict.fromkeys(float(r["snr_db"]) for r in rows)) == [0.0, 0.5, 10.0]


def test_run_out_on_an_existing_file_is_an_output_error(small_cfg, tmp_path, capsys):
    out = tmp_path / "o.txt"
    out.write_text("keep\n")
    assert cli_main(["run", "--config", str(small_cfg), "--out", str(out)]) == 1
    text, err = capsys.readouterr()
    lines = text.splitlines()
    assert len(lines) == 1 and lines[0].startswith("output error: ") and str(out) in lines[0]
    assert err == "" and out.read_text() == "keep\n"


def test_run_that_cannot_write_its_manifest_is_an_output_error(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    assert cli_main(["run", "--config", str(small_cfg), "--out", str(out)]) == 1
    text, err = capsys.readouterr()
    lines = text.splitlines()
    assert len(lines) == 1 and lines[0].startswith("output error: ")
    assert str(out / "manifest.json") in lines[0] and err == ""


@pytest.mark.parametrize("key, value", [
    ("rho", "1.0"), ("rho_fair", "[1.0, 2.0]"), ("safety", "2.0"),
    ("dual_step", "0.5"), ("primal_tol", "1.0e-8"), ("mu_tol", "1.0e-12"),
])
def test_removed_admm_settings_are_unknown_keys(tmp_path, capsys, key, value):
    cfg = tmp_path / "admm.cfg"
    cfg.write_text(SMALL_CFG.replace("admm: {max_iters: 300}",
                                     f"admm: {{max_iters: 300, {key}: {value}}}"))
    assert run_scenario(cfg, out=tmp_path / "out") == 1
    assert capsys.readouterr().out.startswith(
        f"config error: admm.{key}: unknown key; choose from ('max_iters',)")


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


@pytest.mark.parametrize("methods, n_trials", [("[pcrb, psbp-fair]", 0), ("[pcrb, omni]", 10)])
def test_prior_missing_every_grid_point_is_a_config_error(tmp_path, capsys, methods, n_trials):
    # Validates and integrates to 1, but the fair design and the MAP scan
    # weight the grid points by a density that is zero at all of them.
    cfg = tmp_path / "offgrid.cfg"
    cfg.write_text(SMALL_CFG.replace(SMALL_PRIOR, OFF_GRID).replace("[pcrb, omni]", methods)
                   .replace("n_trials: 10", f"n_trials: {n_trials}"))
    load_config(cfg)
    out = tmp_path / "out"
    assert run_scenario(cfg, out=out) == 1
    assert capsys.readouterr().out.splitlines() == [
        "config error: distribution: prior density is zero at every grid point"]
    assert not out.exists()
    # The bound designs and psbp-int integrate the prior itself and never
    # weigh the grid, so they still run.
    cfg.write_text(cfg.read_text().replace(methods, "[pcrb, psbp-int, crb, omni]")
                   .replace(f"n_trials: {n_trials}", "n_trials: 0"))
    assert run_scenario(cfg, out=out) == 0


def test_psbp_int_design_tables_do_not_depend_on_the_grid_size(tmp_path):
    # psbp-int and pcrb design on the prior's moments: the grid only
    # samples the beampattern table, so every other design table is the
    # same at any grid size.
    cfg = tmp_path / "grid.cfg"
    tables = []
    for size in (181, 361):
        cfg.write_text(SMALL_CFG.replace("[pcrb, omni]", "[pcrb, psbp-int]")
                       .replace("n_trials: 10", "n_trials: 0")
                       .replace("grid_size: 181", f"grid_size: {size}"))
        out = tmp_path / f"out{size}"
        assert run_scenario(cfg, out=out) == 0
        tables.append({(cell, name): (out / cell / name).read_bytes()
                       for cell in ("pcrb-k1.2", "psbp-int-k1.2")
                       for name in ("waveform.csv", "trace.csv", "metrics.csv")})
    assert tables[0] == tables[1]


def test_unknown_method_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace("[pcrb, omni]", "[pcrb, magic]"))
    with pytest.raises(ConfigError, match="unknown method"):
        load_config(bad)


def test_partial_failure_isolated(tmp_path, monkeypatch, capsys):
    # A config with omni and l_samples < m_t is refused up front, so the omni
    # cell is made to fail inside the run: its waveform call gets one sample
    # too few, which baseline_omni itself rejects.
    monkeypatch.setattr(scenario_mod, "baseline_omni",
                        lambda cfg: baseline_omni(replace(cfg, l_samples=cfg.m_t - 1)))
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(
        "array: {m_t: 6, m_r: 4, l_samples: 6}\n"
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
    assert run_scenario(cfg, out=out) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["cell"] for f in manifest["failures"]] == ["omni"]
    assert any(rel.startswith("pcrb-k1.5/") for rel in manifest["files"])
    out_text, err_text = capsys.readouterr()
    assert out_text.splitlines() == [f"cell omni failed: {manifest['failures'][0]['error']}"]
    assert err_text.startswith("Traceback (most recent call last):")
    assert "baseline_omni" in err_text


def test_waveform_round_trip_and_beampattern_dump(tmp_path):
    cfg = ArrayConfig(4, 4, 8, power=1.5)
    x = baseline_omni(cfg)
    wf = tmp_path / "w.csv"
    emit_waveform(x, wf)
    assert np.array_equal(read_waveform(wf), x)
    bp = tmp_path / "bp.csv"
    emit_beampattern(x @ x.conj().T, AngularGrid(91), bp)
    lines = bp.read_text().strip().splitlines()
    assert lines[0] == "angle_deg,power,power_db"
    powers = [float(l.split(",")[1]) for l in lines[1:]]
    assert max(powers) - min(powers) <= 1e-9


def per_value_cell(v):
    """Reference cell text: integers and strings as ``str``, floats as ``%.8e``."""
    if isinstance(v, (str, int, np.integer)):
        return str(v)
    v = float(v)
    if not np.isfinite(v):
        return "-inf" if v < 0 else ("inf" if v > 0 else "nan")
    return f"{v:.8e}"


def test_table_writer_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(12)
    n = 2000
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    specials = [np.inf, -np.inf, np.nan, -np.nan, -0.0, 0.0, 5e-324, -1.7976931348623157e308]
    floats[:len(specials)] = specials
    ints = list(range(-3, n - 3))
    columns = (ints, np.arange(n, dtype=np.int64) * 7919, floats, rng.permutation(floats),
               np.array(["k%d" % i for i in range(n)]))
    path = tmp_path / "t.csv"
    scenario_mod._write_table(path, ("a", "b", "c", "d", "e"), columns)
    expected = ["a,b,c,d,e"] + [",".join(per_value_cell(v) for v in row)
                                for row in zip(*columns)]
    assert path.read_text() == "\n".join(expected) + "\n"


def test_cli_subcommands(small_cfg, tmp_path, capsys):
    out = tmp_path / "cliout"
    assert cli_main(["run", "--config", str(small_cfg), "--out", str(out)]) == 0
    assert cli_main(["validate", str(out)]) == 0
    bp = tmp_path / "bp.csv"
    assert cli_main(["beampattern", "--waveform", str(out / "omni" / "waveform.csv"),
                     "--out", str(bp), "--grid-size", "61"]) == 0
    assert len(bp.read_text().strip().splitlines()) == 62
    capsys.readouterr()
    for bad_args in (["--grid-size", "1"], ["--spacing", "0"], ["--spacing", "-0.5"],
                     ["--spacing", "nan"], ["--spacing", "inf"]):
        bp_bad = tmp_path / "bp_bad.csv"
        assert cli_main(["beampattern", "--waveform", str(out / "omni" / "waveform.csv"),
                         "--out", str(bp_bad)] + bad_args) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and bad_args[0] in lines[0]
        assert not bp_bad.exists()
    # corrupt a table: validation must fail
    target = out / "omni" / "beampattern.csv"
    target.write_text("angle_deg,power\n0,1\n")
    assert cli_main(["validate", str(out)]) == 1


def test_beampattern_rejects_bad_waveform_tables(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    header_only = tmp_path / "header.csv"
    header_only.write_text("m,l,re,im\n")
    tables = []
    for name, rows in (("gap", ["0,0", "0,1", "1,0"]),  # (1, 1) missing
                       ("repeat", ["0,0", "0,1", "1,0", "1,1", "1,1"]),
                       ("negative", ["0,0", "0,1", "1,0", "-1,1", "1,1"]),
                       # One entry claiming a rectangle of 1e15 rows.
                       ("huge", ["1000000000000000,0"])):
        tables.append(tmp_path / f"{name}.csv")
        tables[-1].write_text("m,l,re,im\n" + "".join(f"{r},1.0,0.0\n" for r in rows))
    # Non-finite entries, named by their line.
    for name, entry in (("nan", "0,1,nan,0.0"), ("inf", "0,1,1.0,-inf")):
        tables.append(tmp_path / f"{name}.csv")
        tables[-1].write_text(f"m,l,re,im\n0,0,1.0,0.0\n{entry}\n")
    for bad in (tmp_path / "missing.csv", empty, header_only, *tables):
        assert cli_main(["beampattern", "--waveform", str(bad),
                         "--out", str(tmp_path / "bp.csv")]) == 1
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        assert len(lines) == 1 and str(bad) in lines[0] and err == ""
        if bad.stem in ("nan", "inf"):
            assert "line 3" in lines[0]
    assert not (tmp_path / "bp.csv").exists()


def test_beampattern_into_a_missing_directory_is_an_output_error(tmp_path, capsys):
    waveform = tmp_path / "waveform.csv"
    emit_waveform(baseline_omni(ArrayConfig(4, 4, 8)), waveform)
    out = tmp_path / "nodir" / "bp.csv"
    assert cli_main(["beampattern", "--waveform", str(waveform), "--out", str(out)]) == 1
    text, err = capsys.readouterr()
    lines = text.splitlines()
    assert len(lines) == 1 and lines[0].startswith("output error: ") and str(out) in lines[0]
    assert err == "" and not out.parent.exists()


def test_manifest_stage_seconds_are_recorded_and_validated(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert run_scenario(small_cfg, out=out) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    stages = manifest["stage_seconds"]
    assert set(stages) == set(manifest["cell_seconds"])
    for cell, spans in stages.items():
        assert set(spans) == {"design", "emit", "mc"} and min(spans.values()) >= 0
        # One clock laps the stages, so the cell time is their sum up to
        # the rounding of three stages and the cell, 0.0005 s each.
        assert abs(manifest["cell_seconds"][cell] - sum(spans.values())) <= 0.002
    assert validate_output_dir(out) == []

    # json writes and reads infinity as ``Infinity``.
    cell_spoils = {"cell-str": "abc", "cell-negative": -1.0, "cell-null": None, "cell-bool": True,
                   "cell-infinite": math.inf,
                   # 0.003 off the sum that validate compares with, not off the
                   # recorded total, which may already sit 0.002 below that sum.
                   "cell-not-the-sum": sum(stages["omni"].values()) + 0.003}
    for spoil in ("drop", "negative", "missing-stage", "bool", "infinite", "stray-cell",
                  *cell_spoils):
        broken = json.loads(json.dumps(manifest))
        key = "stage_seconds"
        if spoil == "drop":
            del broken["stage_seconds"]
        elif spoil == "negative":
            broken["stage_seconds"]["omni"]["mc"] = -0.5
        elif spoil == "missing-stage":
            del broken["stage_seconds"]["pcrb-k1.2"]["emit"]
        elif spoil == "bool":
            broken["stage_seconds"]["omni"]["design"] = True
        elif spoil == "infinite":
            broken["stage_seconds"]["omni"]["design"] = math.inf
        elif spoil == "stray-cell":
            broken["stage_seconds"]["d"] = {"design": 5.0, "emit": 0.0, "mc": 0.0}
        else:
            key = "cell_seconds"
            broken["cell_seconds"]["omni"] = cell_spoils[spoil]
        path.write_text(json.dumps(broken))
        problems = validate_output_dir(out)
        assert problems and all(key in p for p in problems), spoil
    path.write_text(json.dumps(manifest))
    assert validate_output_dir(out) == []


def test_validate_reports_missing_manifest(tmp_path):
    problems = validate_output_dir(tmp_path)
    assert problems and "manifest.json" in problems[0]


@pytest.mark.parametrize("manifest, expected", [
    ([], ["expected a JSON object, got list"]),
    ({"files": [5], "cell_seconds": {}, "stage_seconds": {}},
     ["files must be a list of strings"]),
    ({"files": [], "cell_seconds": 5, "stage_seconds": {}},
     ["cell_seconds must be a JSON object"]),
    ({}, ["files is missing", "cell_seconds is missing", "stage_seconds is missing"]),
    ({"files": [], "cell_seconds": {}, "stage_seconds": 5, "workers": 1},
     ["stage_seconds must be a JSON object"]),
    ({"files": [], "cell_seconds": {}, "stage_seconds": {}, "workers": 1, "failures": 5},
     ["failures must be a list of objects with string cell and error"]),
    ({"files": [], "cell_seconds": {}, "stage_seconds": {}, "workers": 1,
      "failures": [{"cell": 3}]},
     ["failures must be a list of objects with string cell and error"]),
])
def test_validate_reports_malformed_manifests(tmp_path, capsys, manifest, expected):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    problems = validate_output_dir(tmp_path)
    assert len(problems) == len(expected)
    for problem, text in zip(problems, expected):
        assert text in problem
    assert cli_main(["validate", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == problems


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
def test_validate_reports_an_unreadable_manifest(tmp_path, capsys, kind):
    path = tmp_path / "manifest.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    problems = validate_output_dir(tmp_path)
    assert len(problems) == 1 and "manifest.json: unreadable (" in problems[0]
    assert cli_main(["validate", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == problems


@pytest.mark.parametrize("workers", [0, -2, 1.5, 2.0, "2", True, None, [2]])
def test_validate_requires_a_positive_integer_worker_count(small_cfg, tmp_path, workers):
    out = tmp_path / "out"
    assert run_scenario(small_cfg, out=out) == 0
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["workers"] >= 1
    path.write_text(json.dumps({**manifest, "workers": 3}))
    assert validate_output_dir(out) == []
    # A run directory written before the count existed still validates.
    path.write_text(json.dumps({k: v for k, v in manifest.items() if k != "workers"}))
    assert validate_output_dir(out) == []
    path.write_text(json.dumps({**manifest, "workers": workers}))
    assert validate_output_dir(out) == ["manifest.json: workers must be a positive integer"]


def test_validate_reports_unreadable_and_outside_tables(tmp_path, capsys):
    # A listed directory, an undecodable table, a path out of the run
    # directory (to a valid table) and a path with a NUL byte: one problem
    # each, and no table is read outside the run directory.
    run = tmp_path / "run"
    (run / "c" / "beampattern.csv").mkdir(parents=True)
    (run / "c" / "waveform.csv").write_bytes(b"m,l,re,im\n\xff\xfe\n")
    emit_waveform(baseline_omni(ArrayConfig(4, 4, 8)), tmp_path / "waveform.csv")
    files = ["c/beampattern.csv", "c/waveform.csv", "../waveform.csv", "c/\x00.csv"]
    (run / "manifest.json").write_text(json.dumps(
        {"files": files, "cell_seconds": {}, "stage_seconds": {}}))
    problems = validate_output_dir(run)
    assert len(problems) == 4
    for problem, rel, text in zip(problems, files, ["not a file", "unreadable",
                                                    "not a path inside", "not a path inside"]):
        assert problem.startswith(f"{rel}: ") and text in problem, problem
    assert cli_main(["validate", str(run)]) == 1
    assert capsys.readouterr().out.splitlines() == problems


def test_seed_override_changes_outputs(small_cfg, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_scenario(small_cfg, out=out1, seed=5) == 0  # same as config seed
    assert run_scenario(small_cfg, out=out2, seed=6) == 0
    # The seed draws the Monte-Carlo streams. This pcrb cell starts at its
    # certified optimum, which meets the cap, so its design is the same at
    # any seed.
    for table, same in (("mse.csv", False), ("waveform.csv", True)):
        ref = (out1 / "pcrb-k1.2" / table).read_bytes()
        assert ((out2 / "pcrb-k1.2" / table).read_bytes() == ref) == same, table


def test_solver_metrics_are_recorded_and_validated(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert run_scenario(small_cfg, out=out) == 0
    path = out / "pcrb-k1.2" / "metrics.csv"
    rows = path.read_text().strip().splitlines()
    metrics = dict(r.split(",") for r in rows[1:])
    assert metrics["converged"] in ("0", "1")
    # The pcrb design solves for no power multiplier: its mu rows read 0.
    assert float(metrics["mu_iterations_mean"]) == int(metrics["mu_iterations_max"]) == 0
    assert int(metrics["mu_tol_misses"]) >= 0
    assert metrics["warm_started"] == "0"  # a single kappa starts cold
    # omni designs nothing, so its metrics carry no solver keys
    omni = (out / "omni" / "metrics.csv").read_text()
    assert "converged" not in omni and validate_output_dir(out) == []

    # Outputs written before the fair loop's extrapolation was dropped
    # carry an ``extrapolations`` row before ``warm_started``: still valid.
    at = next(i for i, r in enumerate(rows) if r.startswith("warm_started"))
    older = rows[:at] + ["extrapolations,0"] + rows[at:]
    path.write_text("\n".join(older) + "\n")
    assert validate_output_dir(out) == []
    for table in (rows, older):
        for key in ("mu_iterations_max", "converged", "mu_tol_misses", "warm_started"):
            path.write_text("\n".join(r for r in table if not r.startswith(key)) + "\n")
            problems = validate_output_dir(out)
            assert len(problems) == 1 and key in problems[0]
    path.write_text("\n".join(rows).replace("converged,1", "converged,yes")
                    .replace("converged,0", "converged,no") + "\n")
    problems = validate_output_dir(out)
    assert len(problems) == 1 and "non-numeric" in problems[0]


KAPPA_CFG = SMALL_CFG.replace("[pcrb, omni]", "[pcrb, psbp-fair]").replace(
    "snr_list_db: [0.0, 10.0]\nn_trials: 10", "snr_list_db: [10.0]\nn_trials: 3")


def read_metrics(path):
    rows = path.read_text().strip().splitlines()[1:]
    return dict(r.split(",") for r in rows)


def test_kappa_cells_do_not_depend_on_config_order(tmp_path):
    # Cells run in ascending kappa and are seeded by rank, so the order of
    # kappa_list changes nothing, Monte-Carlo tables included.
    outs = []
    for order in ("[1.2, 1.5, 2.0]", "[2.0, 1.2, 1.5]"):
        cfg = tmp_path / f"k{len(outs)}.cfg"
        cfg.write_text(KAPPA_CFG.replace("kappa_list: [1.2]", f"kappa_list: {order}"))
        outs.append(tmp_path / f"out{len(outs)}")
        assert run_scenario(cfg, out=outs[-1]) == 0
    files = json.loads((outs[0] / "manifest.json").read_text())["files"]
    assert len({rel.split("/")[0] for rel in files}) == 6
    assert sum(rel.endswith("/mse.csv") for rel in files) == 6
    for rel in files:
        assert (outs[1] / rel).read_bytes() == (outs[0] / rel).read_bytes(), rel
    for method in ("pcrb", "psbp-fair"):
        warm = [read_metrics(outs[0] / f"{method}-k{k}" / "metrics.csv")["warm_started"]
                for k in ("1.2", "1.5", "2")]
        assert warm == ["0", "1", "1"]
    assert validate_output_dir(outs[0]) == []


@pytest.mark.parametrize("failing", [1.2, 1.5])
def test_kappa_after_a_failed_cell_starts_cold(tmp_path, monkeypatch, capsys, failing):
    real = scenario_mod.solve_pcrb

    def fail_at(mom, cfg, seed, **kw):
        if cfg.papr == failing:
            raise RuntimeError("injected failure")
        return real(mom, cfg, seed, **kw)

    monkeypatch.setattr(scenario_mod, "solve_pcrb", fail_at)
    cfg = tmp_path / "k.cfg"
    cfg.write_text(SMALL_CFG.replace("kappa_list: [1.2]", "kappa_list: [1.2, 1.5, 2.0]"))
    out = tmp_path / "out"
    assert run_scenario(cfg, out=out) == 2
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["cell"] for f in manifest["failures"]] == [f"pcrb-k{failing:g}"]
    ran = [k for k in (1.2, 1.5, 2.0) if k != failing]
    warm = [read_metrics(out / f"pcrb-k{k:g}" / "metrics.csv")["warm_started"] for k in ran]
    # The kappa right after the failed one starts cold; a kappa after a
    # successful one resumes.
    assert warm == (["0", "1"] if failing == 1.2 else ["0", "0"])
    # That cold design is the one its own cell seed gives.
    sc = load_config(cfg)
    rank = sc.kappa_list.index(failing) + 1
    after = sc.kappa_list[rank]
    cold = real(scenario_mod.compute_moments(sc.distribution, sc.array),
                replace(sc.array, papr=after), _cell_seed(sc.seed, "pcrb", rank, 0),
                max_iters=sc.max_iters)
    got = read_waveform(out / f"pcrb-k{after:g}" / "waveform.csv")
    assert np.array_equal(got, cold.waveform)


def test_cell_seeds_are_pinned():
    # A cell's design and Monte-Carlo streams come from its method's place
    # in METHODS, its kappa rank and the stream number, so neither the order
    # of METHODS nor the way a cell reaches its design may reseed a cell.
    assert METHODS == ("pcrb", "psbp-fair", "psbp-int", "crb", "omni")
    pinned = {  # (rank 0: streams 0, 1), (rank 1: streams 0, 1) at seed 20241
        "pcrb": ((3777704366608112933, 4935778572398541619),
                 (7325342714405763241, 1968984157857489617)),
        "psbp-fair": ((5742204170392329249, 5791639498241106085),
                      (7509448672578081853, 1779360490261809165)),
        "psbp-int": ((6813482534839413086, 1380135494398887920),
                     (1258954705775774415, 6126141075352728390)),
        "crb": ((2278473782645147895, 338791188696305806),
                (8674492641570885705, 6520469302495151777)),
        "omni": ((5698634160486091636, 3126572146504032410),
                 (4324899716770050002, 1314354904243056419)),
    }
    assert tuple(pinned) == METHODS
    for method, ranks in pinned.items():
        for rank, streams in enumerate(ranks):
            got = tuple(_cell_seed(20241, method, rank, stream) for stream in (0, 1))
            assert got == streams, (method, rank)


def test_kappa_monotonicity_report_compares_adjacent_thresholds():
    # Lower is better for the bound designs, higher for the beampattern ones.
    assert _kappa_monotonicity_report("pcrb", [(1.2, 2.0), (1.5, 1.9), (2.0, 1.9)]) == []
    lines = _kappa_monotonicity_report("pcrb", [(1.2, 2.0), (1.5, 2.0 * (1 + 3e-5)), (2.0, 2.0)])
    assert len(lines) == 1 and "pcrb-k1.5" in lines[0] and "pcrb-k1.2" in lines[0]
    assert "3.00e-05 relative worse" in lines[0]
    assert _kappa_monotonicity_report("crb", [(1.2, 1.0), (2.0, 1.0 + 5e-6)]) == []
    assert _kappa_monotonicity_report("crb", [(1.2, 1.0), (2.0, 1.0 + 2e-5)]) != []
    for method in ("psbp-fair", "psbp-int"):
        assert _kappa_monotonicity_report(method, [(1.2, 1.0), (1.5, 1.2)]) == []
        assert _kappa_monotonicity_report(method, [(1.2, 1.0), (1.5, 1.0 - 5e-6)]) == []
        lines = _kappa_monotonicity_report(method, [(1.2, 1.0), (1.5, 0.9), (2.0, 0.8)])
        assert [line.split()[2] for line in lines] == [f"{method}-k1.5", f"{method}-k2"]
    assert _kappa_monotonicity_report("pcrb", [(1.2, 1.0)]) == []


def test_run_reports_kappa_monotonicity_without_failing(tmp_path, monkeypatch, capsys):
    real = scenario_mod.solve_pcrb

    def worse_at_1_5(mom, cfg, seed, **kw):
        result = real(mom, cfg, seed, **kw)
        if cfg.papr == 1.5:
            result = replace(result, metric_value=2.0 * result.metric_value)
        return result

    monkeypatch.setattr(scenario_mod, "solve_pcrb", worse_at_1_5)
    cfg = tmp_path / "k.cfg"
    cfg.write_text(SMALL_CFG.replace("kappa_list: [1.2]", "kappa_list: [1.2, 1.5]"))
    assert run_scenario(cfg, out=tmp_path / "out") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("kappa monotonicity: pcrb-k1.5 metric_value")
