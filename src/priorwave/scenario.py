"""Scenario configs, the batch runner, and table/manifest writers.

A scenario file is YAML with angles in degrees; it fans out into
(method x kappa) cells, each of which designs one waveform, dumps its
beampattern and iteration trace, and optionally runs the Monte-Carlo MSE
sweep. Cells run one after another in config order and are seeded
deterministically, so reruns with one seed produce byte-identical tables.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .admm import AdmmConfig
from .estimation import AngularGrid, monte_carlo_mse
from .pcrb import pcrb_theta
from .priors import (
    MixtureGaussian,
    MixtureUniform,
    PointMass,
    TargetDistribution,
    compute_moments,
)
from .solvers import (
    SolveResult,
    baseline_crb,
    baseline_omni,
    solve_pcrb,
    solve_psbp_fair,
    solve_psbp_integrated,
)
from .ula import ArrayConfig, beampattern, waveform_feasibility

__all__ = ["Scenario", "ConfigError", "load_config", "run_scenario", "validate_output_dir"]

METHODS = ("pcrb", "psbp-fair", "psbp-int", "crb", "omni")

# Column layout of every emitted table, used by the schema validator.
TABLE_SCHEMAS = {
    "waveform.csv": ("m", "l", "re", "im"),
    "beampattern.csv": ("angle_deg", "power", "power_db"),
    "trace.csv": ("iter", "objective", "al", "residual"),
    "metrics.csv": ("metric", "value"),
    "mse.csv": ("snr_db", "mse_rad2", "stderr_rad2", "pcrb_rad2", "trials"),
    "mse_by_angle": ("angle_deg", "trials", "mse_rad2"),
}


class ConfigError(ValueError):
    """Invalid scenario configuration; message carries the key path."""


@dataclass(frozen=True)
class Scenario:
    """Validated scenario plus the canonical dict it serializes back to."""

    array: ArrayConfig
    distribution: TargetDistribution
    methods: tuple[str, ...]
    kappa_list: tuple[float, ...]
    snr_list_db: tuple[float, ...]
    n_trials: int
    grid_size: int
    seed: int
    output_dir: str
    crb_angle: float
    pdf_floor: float
    admm: AdmmConfig
    raw: dict

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))  # deep copy, canonical types

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _req(cfg: dict, key: str, kind, path: str):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing required key")
    val = cfg[key]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return val


def _build_distribution(spec: dict) -> TargetDistribution:
    kind = _req(spec, "kind", str, "distribution")
    try:
        if kind == "mixture-uniform":
            ivs = _req(spec, "intervals_deg", list, "distribution")
            weights = _req(spec, "weights", list, "distribution")
            rad = tuple((np.deg2rad(a), np.deg2rad(b)) for a, b in ivs)
            return MixtureUniform(intervals=rad, weights=tuple(float(w) for w in weights))
        if kind == "mixture-gaussian":
            means = _req(spec, "means_deg", list, "distribution")
            sigma = _req(spec, "sigma_deg", float, "distribution")
            weights = _req(spec, "weights", list, "distribution")
            return MixtureGaussian(
                means=tuple(np.deg2rad(float(m)) for m in means),
                sigma=float(np.deg2rad(sigma)),
                weights=tuple(float(w) for w in weights),
            )
        if kind == "point-mass":
            return PointMass(np.deg2rad(_req(spec, "angle_deg", float, "distribution")))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"distribution: {exc}") from exc
    raise ConfigError(f"distribution.kind: unknown kind {kind!r}")


_ADMM_KEYS = ("rho", "rho_fair", "safety", "dual_step", "max_iters", "primal_tol", "mu_tol")
_ADMM_FLOAT_KEYS = ("rho", "safety", "dual_step", "primal_tol", "mu_tol")


def _coerce_admm(admm_cfg: dict) -> dict:
    """Normalize scalar kinds; YAML 1.1 reads bare '1e-8' as a string."""
    out = dict(admm_cfg)
    try:
        for key in _ADMM_FLOAT_KEYS:
            if out.get(key) is not None:
                out[key] = float(out[key])
        if out.get("max_iters") is not None:
            out["max_iters"] = int(out["max_iters"])
        if out.get("rho_fair") is not None:
            out["rho_fair"] = tuple(float(v) for v in out["rho_fair"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"admm: {exc}") from exc
    return out


def _build(cfg: dict) -> Scenario:
    arr = _req(cfg, "array", dict, "config")
    try:
        array = ArrayConfig(
            m_t=_req(arr, "m_t", int, "array"),
            m_r=_req(arr, "m_r", int, "array"),
            l_samples=_req(arr, "l_samples", int, "array"),
            power=float(arr.get("power", 1.0)),
            noise_power=float(arr.get("noise_power", 1.0)),
            spacing=float(arr.get("spacing", 0.5)),
        )
    except ValueError as exc:
        raise ConfigError(f"array: {exc}") from exc

    dist = _build_distribution(_req(cfg, "distribution", dict, "config"))

    methods = tuple(_req(cfg, "methods", list, "config"))
    if not methods:
        raise ConfigError("methods: at least one method is required")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"methods: unknown method {m!r}; choose from {METHODS}")

    try:
        kappas = tuple(float(k) for k in cfg.get("kappa_list", [1.2]))
        snrs = tuple(float(s) for s in cfg.get("snr_list_db", []))
        n_trials = int(cfg.get("n_trials", 0))
        grid_size = int(cfg.get("grid_size", 361))
        seed = int(cfg.get("seed", 0))
        pdf_floor = float(cfg.get("pdf_floor", 1e-6))
        crb_angle_deg = float(cfg.get("crb_angle_deg", 0.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from exc
    if any(k < 1 for k in kappas):
        raise ConfigError("kappa_list: PAPR thresholds must be >= 1")
    if n_trials < 0:
        raise ConfigError("n_trials: must be nonnegative (0 skips estimation)")
    if grid_size < 2:
        raise ConfigError("grid_size: must be at least 2")
    if seed < 0:
        raise ConfigError("seed: must be nonnegative")

    admm_cfg = cfg.get("admm", {})
    if not isinstance(admm_cfg, dict):
        raise ConfigError("admm: expected a mapping")
    for key in admm_cfg:
        if key not in _ADMM_KEYS:
            raise ConfigError(f"admm.{key}: unknown key; choose from {_ADMM_KEYS}")
    admm_cfg = _coerce_admm(admm_cfg)
    try:
        admm = AdmmConfig(**admm_cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"admm: {exc}") from exc

    canonical = {
        "array": {
            "m_t": array.m_t, "m_r": array.m_r, "l_samples": array.l_samples,
            "power": array.power, "noise_power": array.noise_power,
            "spacing": array.spacing,
        },
        "distribution": dict(cfg["distribution"]),
        "methods": list(methods),
        "kappa_list": list(kappas),
        "snr_list_db": list(snrs),
        "n_trials": n_trials,
        "grid_size": grid_size,
        "seed": seed,
        "output_dir": str(cfg.get("output_dir", "results")),
        "crb_angle_deg": crb_angle_deg,
        "pdf_floor": pdf_floor,
        "admm": {k: (list(v) if isinstance(v, tuple) else v) for k, v in admm_cfg.items()},
    }
    return Scenario(
        array=array,
        distribution=dist,
        methods=methods,
        kappa_list=kappas,
        snr_list_db=snrs,
        n_trials=n_trials,
        grid_size=grid_size,
        seed=seed,
        output_dir=canonical["output_dir"],
        crb_angle=float(np.deg2rad(canonical["crb_angle_deg"])),
        pdf_floor=pdf_floor,
        admm=admm,
        raw=canonical,
    )


def load_config(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; errors carry file:line context."""
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else str(path)
        raise ConfigError(f"{where}: {getattr(exc, 'problem', exc)}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _build(data)


def dump_config(scenario: Scenario) -> str:
    """Serialize back to YAML; load(dump(load(f))) is the identity."""
    return yaml.safe_dump(scenario.to_dict(), sort_keys=False)


def _fmt(value: float) -> str:
    if not np.isfinite(value):
        return "-inf" if value < 0 else ("inf" if value > 0 else "nan")
    return f"{value:.8e}"


def _write_table(path: Path, header: tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            str(v) if isinstance(v, (str, int, np.integer)) else _fmt(float(v))
            for v in row
        ))
    path.write_text("\n".join(lines) + "\n")


def emit_waveform(x: np.ndarray, path: Path) -> None:
    """Entry dump with full precision so the matrix round-trips exactly."""
    lines = ["m,l,re,im"]
    for m in range(x.shape[0]):
        for l in range(x.shape[1]):
            lines.append(f"{m},{l},{float(x[m, l].real)!r},{float(x[m, l].imag)!r}")
    path.write_text("\n".join(lines) + "\n")


def read_waveform(path: str | Path) -> np.ndarray:
    """Inverse of ``emit_waveform``; a malformed table raises ``ValueError``."""
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0] != "m,l,re,im":
        raise ValueError(f"{path}: not a waveform table")
    if len(rows) == 1:
        raise ValueError(f"{path}: waveform table has no entries")
    try:
        entries = [(int(m), int(l), float(re) + 1j * float(im))
                   for m, l, re, im in (line.split(",") for line in rows[1:])]
    except ValueError as exc:
        raise ValueError(f"{path}: malformed waveform row ({exc})") from exc
    x = np.zeros((max(e[0] for e in entries) + 1, max(e[1] for e in entries) + 1),
                 dtype=complex)
    for m, l, v in entries:
        x[m, l] = v
    return x


def emit_beampattern(x: np.ndarray, grid: AngularGrid, path: str | Path,
                     spacing: float = 0.5) -> None:
    """Beampattern table over the grid: angle_deg, power, power_db."""
    power = beampattern(x, grid.points, spacing)
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(np.maximum(power, 0.0))
    rows = zip(np.rad2deg(grid.points), power, power_db)
    _write_table(Path(path), TABLE_SCHEMAS["beampattern.csv"], rows)


def _emit_trace(result: SolveResult, path: Path) -> None:
    tr = result.trace
    rows = zip(range(1, len(tr) + 1), tr.objective, tr.augmented_lagrangian, tr.residual)
    _write_table(path, TABLE_SCHEMAS["trace.csv"], rows)


def _cell_seed(seed: int, method: str, kappa_index: int, stream: int) -> int:
    ss = np.random.SeedSequence([seed, METHODS.index(method), kappa_index, stream])
    return int(ss.generate_state(1, np.uint64)[0] % (2**63))


def _run_cell(scenario: Scenario, method: str, kappa_index: int, out: Path,
              grid: AngularGrid, moments, paper_literal: bool) -> list[str]:
    kappa = 1.0 if method == "omni" else scenario.kappa_list[kappa_index]
    cfg = replace(scenario.array, papr=kappa)
    cell_seed = _cell_seed(scenario.seed, method, kappa_index, 0)
    dist = scenario.distribution

    result: SolveResult | None = None
    if method == "pcrb":
        result = solve_pcrb(moments, cfg, scenario.admm, cell_seed)
        x = result.waveform
    elif method == "psbp-fair":
        result = solve_psbp_fair(dist, cfg, grid, scenario.admm, cell_seed,
                                 pdf_floor=scenario.pdf_floor)
        x = result.waveform
    elif method == "psbp-int":
        result = solve_psbp_integrated(dist, cfg, grid, scenario.admm, cell_seed,
                                       pdf_floor=scenario.pdf_floor,
                                       bare_sum=paper_literal)
        x = result.waveform
    elif method == "crb":
        result = baseline_crb(scenario.crb_angle, cfg, scenario.admm, cell_seed)
        x = result.waveform
    else:
        x = baseline_omni(cfg, cell_seed)

    out.mkdir(parents=True, exist_ok=True)
    files = []

    emit_waveform(x, out / "waveform.csv")
    files.append("waveform.csv")
    emit_beampattern(x, grid, out / "beampattern.csv", cfg.spacing)
    files.append("beampattern.csv")
    if result is not None:
        _emit_trace(result, out / "trace.csv")
        files.append("trace.csv")

    feas = waveform_feasibility(x, cfg)
    bound_rad2 = pcrb_theta(x, moments, 1.0, cfg.noise_power)
    metrics = [
        ("pcrb_rad2", bound_rad2),
        ("pcrb_deg2", bound_rad2 * np.rad2deg(1.0) ** 2),
        ("power_error", feas.power_error),
        ("papr_margin", feas.papr_margin),
    ]
    if result is not None:
        metrics += [
            ("metric_value", result.metric_value),
            ("iterations", result.iterations),
            ("final_residual", float(result.trace.residual[-1])),
            ("al_increase_count", result.trace.monotone_violations()),
        ]
    _write_table(out / "metrics.csv", TABLE_SCHEMAS["metrics.csv"], metrics)
    files.append("metrics.csv")

    if scenario.n_trials > 0 and scenario.snr_list_db:
        mse_seed = _cell_seed(scenario.seed, method, kappa_index, 1)
        report = monte_carlo_mse(
            x, dist, cfg, grid, scenario.snr_list_db, scenario.n_trials, mse_seed,
            refine=not paper_literal,
        )
        _write_table(
            out / "mse.csv",
            TABLE_SCHEMAS["mse.csv"],
            [(r.snr_db, r.mse, r.std_error, r.pcrb, r.n_trials) for r in report.results],
        )
        files.append("mse.csv")
        for r in report.results:
            name = f"mse_by_angle_snr{r.snr_db:+.0f}dB.csv"
            _write_table(out / name, TABLE_SCHEMAS["mse_by_angle"],
                         [(np.rad2deg(a), n, v) for a, n, v in r.per_angle])
            files.append(name)
    return files


def run_scenario(
    config_path: str | Path,
    out: str | Path | None = None,
    seed: int | None = None,
    paper_literal: bool = False,
) -> int:
    """Execute every (method x kappa) cell of a scenario, in config order.

    Returns the process exit code: 0 on success, 1 on a configuration
    error, 2 when at least one cell failed (the rest still complete and
    the failures are listed in the manifest).
    """
    try:
        scenario = load_config(config_path)
        if seed is not None:
            raw = scenario.to_dict()
            raw["seed"] = int(seed)
            scenario = _build(raw)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 1
    try:
        # A prior can validate and still fail the quadrature, e.g. when
        # mass spills past +-90 degrees; report it before writing anything.
        moments = compute_moments(scenario.distribution, scenario.array)
    except ValueError as exc:
        print(f"config error: distribution: {exc}")
        return 1

    out_dir = Path(out) if out is not None else Path(scenario.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    grid = AngularGrid.uniform(scenario.grid_size)

    cells = []
    for method in scenario.methods:
        if method == "omni":
            cells.append((method, 0, "omni"))
        else:
            cells.extend((method, ki, f"{method}-k{k:g}")
                         for ki, k in enumerate(scenario.kappa_list))

    manifest_files: dict[str, list[str]] = {}
    failures: list[dict] = []
    timings: dict[str, float] = {}
    for method, ki, name in cells:
        t0 = time.perf_counter()
        try:
            manifest_files[name] = _run_cell(scenario, method, ki, out_dir / name, grid,
                                             moments, paper_literal)
        except Exception as exc:  # noqa: BLE001 - cell isolation by design
            failures.append({
                "cell": name,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            })
            continue
        timings[name] = time.perf_counter() - t0

    manifest = {
        "tool": "priorwave",
        "version": __version__,
        "config_hash": scenario.config_hash(),
        "seed": scenario.seed,
        "paper_literal": paper_literal,
        "started_at": started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "files": sorted(
            f"{cell}/{fname}" for cell, fs in manifest_files.items() for fname in fs
        ),
        "cell_seconds": {k: round(v, 3) for k, v in sorted(timings.items())},
        "failures": sorted(
            ({"cell": f["cell"], "error": f["error"]} for f in failures),
            key=lambda f: f["cell"],
        ),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for f in failures:
        print(f"cell {f['cell']} failed: {f['error']}")
    return 2 if failures else 0


def validate_output_dir(path: str | Path) -> list[str]:
    """Check an output directory against the declared table schemas.

    Returns a list of problems (empty when the directory is valid).
    """
    root = Path(path)
    problems = []
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        return [f"{root}: manifest.json is missing"]
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{manifest_path}: invalid JSON ({exc})"]

    for rel in manifest.get("files", []):
        fpath = root / rel
        if not fpath.exists():
            problems.append(f"{rel}: listed in manifest but missing")
            continue
        base = fpath.name
        schema = TABLE_SCHEMAS.get(base)
        if schema is None and base.startswith("mse_by_angle"):
            schema = TABLE_SCHEMAS["mse_by_angle"]
        if schema is None:
            problems.append(f"{rel}: no schema for this file name")
            continue
        lines = fpath.read_text().strip().splitlines()
        if not lines or tuple(lines[0].split(",")) != schema:
            problems.append(f"{rel}: header does not match {','.join(schema)}")
            continue
        width = len(schema)
        for i, line in enumerate(lines[1:], start=2):
            cols = line.split(",")
            if len(cols) != width:
                problems.append(f"{rel}:{i}: expected {width} columns, got {len(cols)}")
                break
            if base != "metrics.csv":  # metrics carries a string key column
                try:
                    [float(c) for c in cols]
                except ValueError:
                    problems.append(f"{rel}:{i}: non-numeric value")
                    break
    return problems
