"""Scenario configs, the batch runner, and table/manifest writers.

A scenario file is YAML with angles in degrees; it fans out into
(method x kappa) cells, each of which designs one waveform, dumps its
beampattern and iteration trace, and optionally runs the Monte-Carlo MSE
sweep. Each method's cells form one chain, run in ascending kappa: a
fair design after the first resumes from the previous kappa's final
solver state, and a cell whose design scores worse than the previous
kappa's returns that design instead. The chains do not depend on one
another, so they are the tasks of
a work queue (``fanout``), drained by this process and, where forking is
safe, by forked workers, one per further CPU; the run's output is
gathered in config order. Cells are seeded deterministically from their
method and kappa's rank, so reruns with one seed produce byte-identical
tables at any worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np
import yaml

from . import __version__, fanout
from .estimation import AngularGrid, monte_carlo_mse
from .pcrb import pcrb_theta
from .priors import (MixtureGaussian, MixtureUniform, TargetDistribution, _grid_density,
                     compute_moments)
from .solvers import (
    _MAX_ITERS,
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
    "mse_by_angle.csv": ("snr_db", "angle_deg", "trials", "mse_rad2"),
}

# Stages of a cell timed in the manifest's ``stage_seconds``: the waveform
# design, writing every table, and the Monte-Carlo sweep (0 when skipped).
STAGES = ("design", "emit", "mc")

# Keys every solver cell (one that writes trace.csv) records in metrics.csv.
SOLVER_METRICS = (
    "metric_value", "iterations", "final_residual", "al_increase_count",
    "converged", "mu_iterations_mean", "mu_iterations_max", "mu_tol_misses",
    "warm_started",
)

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
    max_iters: int
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
    # YAML reads true/false as bool, a subclass of int.
    if isinstance(val, bool) or not isinstance(val, (int, float) if kind is float else kind):
        raise ConfigError(f"{path}.{key}: expected {kind.__name__}, got {type(val).__name__}")
    return _number(val, f"{path}.{key}") if kind is float else val


def _int_key(cfg: dict, key: str, default: int, path: str = "config") -> int:
    """Optional integer; floats and bools are rejected, not truncated."""
    return _req(cfg, key, int, path) if key in cfg else default


def _number(val, path: str) -> float:
    """A finite float-valued entry. YAML reads ``1e-6`` as a string, which
    ``float`` converts; true/false, which it would read as 1 and 0, are
    rejected, and so are ``.nan`` and ``.inf``."""
    if isinstance(val, bool):
        raise ConfigError(f"{path}: expected a number, got bool")
    try:
        num = float(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not math.isfinite(num):
        raise ConfigError(f"{path}: expected a finite number, got {num}")
    return num


def _numbers(cfg: dict, key: str, default: list) -> tuple[float, ...]:
    vals = cfg.get(key, default)
    if not isinstance(vals, list):
        raise ConfigError(f"{key}: expected a list, got {type(vals).__name__}")
    return tuple(_number(v, key) for v in vals)


def _cell_name(method: str, kappa: float) -> str:
    return f"{method}-k{kappa:g}"


def _check_keys(cfg: dict, known: tuple[str, ...], path: str) -> None:
    for key in cfg:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key; choose from {known}")


_TOP_KEYS = ("array", "distribution", "methods", "kappa_list", "snr_list_db", "n_trials",
             "grid_size", "seed", "output_dir", "crb_angle_deg", "admm")
_ARRAY_KEYS = ("m_t", "m_r", "l_samples", "power", "noise_power", "spacing")
_DISTRIBUTION_KEYS = {
    "mixture-uniform": ("kind", "intervals_deg", "weights"),
    "mixture-gaussian": ("kind", "means_deg", "sigma_deg", "weights"),
}


def _build_distribution(spec: dict) -> TargetDistribution:
    kind = _req(spec, "kind", str, "distribution")
    if kind not in _DISTRIBUTION_KEYS:
        raise ConfigError(f"distribution.kind: unknown kind {kind!r}; "
                          f"choose from {tuple(_DISTRIBUTION_KEYS)}")
    _check_keys(spec, _DISTRIBUTION_KEYS[kind], "distribution")

    def numbers(key: str, vals) -> tuple[float, ...]:
        return tuple(_number(v, f"distribution.{key}") for v in vals)

    try:
        if kind == "mixture-uniform":
            ivs = _req(spec, "intervals_deg", list, "distribution")
            for iv in ivs:
                if not isinstance(iv, list) or len(iv) != 2:
                    raise ConfigError("distribution.intervals_deg: expected [low, high] pairs, "
                                      f"got {iv!r}")
            weights = _req(spec, "weights", list, "distribution")
            rad = tuple(tuple(np.deg2rad(numbers("intervals_deg", (a, b)))) for a, b in ivs)
            return MixtureUniform(intervals=rad, weights=numbers("weights", weights))
        means = _req(spec, "means_deg", list, "distribution")
        sigma = _req(spec, "sigma_deg", float, "distribution")
        weights = _req(spec, "weights", list, "distribution")
        return MixtureGaussian(
            means=tuple(np.deg2rad(numbers("means_deg", means))),
            sigma=float(np.deg2rad(sigma)),
            weights=numbers("weights", weights),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"distribution: {exc}") from exc


def _build(cfg: dict) -> Scenario:
    _check_keys(cfg, _TOP_KEYS, "config")
    arr = _req(cfg, "array", dict, "config")
    _check_keys(arr, _ARRAY_KEYS, "array")
    m_t, m_r, l_samples = (_req(arr, key, int, "array") for key in ("m_t", "m_r", "l_samples"))
    power, noise_power, spacing = (
        _number(arr.get(key, default), f"array.{key}")
        for key, default in (("power", 1.0), ("noise_power", 1.0), ("spacing", 0.5))
    )
    try:
        array = ArrayConfig(m_t=m_t, m_r=m_r, l_samples=l_samples, power=power,
                            noise_power=noise_power, spacing=spacing)
    except ValueError as exc:
        raise ConfigError(f"array: {exc}") from exc

    dist = _build_distribution(_req(cfg, "distribution", dict, "config"))

    methods = tuple(_req(cfg, "methods", list, "config"))
    if not methods:
        raise ConfigError("methods: at least one method is required")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ConfigError(f"methods: unknown method {m!r}; choose from {METHODS}")
        if m in methods[:i]:
            raise ConfigError(f"methods: {m!r} is listed twice")
    if "omni" in methods and l_samples < m_t:
        raise ConfigError(f"methods: omni needs array.l_samples >= array.m_t for its "
                          f"orthogonal rows, got {l_samples} < {m_t}")
    for m in ("pcrb", "crb"):
        if m in methods and m_r < 2:
            raise ConfigError(f"methods: {m} needs array.m_r >= 2; with one receive element "
                              "its bound surrogate is zero for every waveform")

    kappas = _numbers(cfg, "kappa_list", [1.2])
    snrs = _numbers(cfg, "snr_list_db", [])
    n_trials = _int_key(cfg, "n_trials", 0)
    grid_size = _int_key(cfg, "grid_size", 361)
    seed = _int_key(cfg, "seed", 0)
    crb_angle_deg = _number(cfg.get("crb_angle_deg", 0.0), "crb_angle_deg")
    if any(k < 1 for k in kappas):
        raise ConfigError("kappa_list: PAPR thresholds must be >= 1")
    # Values that print alike would write two cells into one directory.
    names = [_cell_name("<method>", k) for k in kappas]
    for i, n in enumerate(names):
        if n in names[:i]:
            raise ConfigError(f"kappa_list: {kappas[names.index(n)]!r} and {kappas[i]!r} "
                              f"would share the cell directory {n}")
    for i, s in enumerate(snrs):
        if s in snrs[:i]:
            raise ConfigError(f"snr_list_db: {s!r} is listed twice")
    if n_trials < 0:
        raise ConfigError("n_trials: must be nonnegative (0 skips estimation)")
    if grid_size < 2:
        raise ConfigError("grid_size: must be at least 2")
    if seed < 0:
        raise ConfigError("seed: must be nonnegative")
    if not -90.0 <= crb_angle_deg <= 90.0:
        raise ConfigError("crb_angle_deg: must lie in [-90, 90]")
    if not kappas and any(m != "omni" for m in methods):
        raise ConfigError("kappa_list: at least one PAPR threshold is required "
                          "unless omni is the only method")

    admm_cfg = cfg.get("admm", {})
    if not isinstance(admm_cfg, dict):
        raise ConfigError("admm: expected a mapping")
    _check_keys(admm_cfg, ("max_iters",), "admm")
    max_iters = _int_key(admm_cfg, "max_iters", _MAX_ITERS, "admm")
    if max_iters < 1:
        raise ConfigError("admm: max_iters must be at least 1")

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
        "admm": dict(admm_cfg),
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
        max_iters=max_iters,
        raw=canonical,
    )


def load_config(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; errors carry file:line context."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else str(path)
        raise ConfigError(f"{where}: {getattr(exc, 'problem', exc)}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _build(data)


# Cell format by numpy dtype kind: integers as such, floats with nine
# significant digits (``inf``, ``-inf`` and ``nan`` print as those words).
_CELL_FORMAT = {"i": "%d", "u": "%d", "f": "%.8e"}
# Rows formatted per write: one ``%`` per block keeps the Python objects
# of a long trace from all being alive at once.
_ROWS_PER_WRITE = 512


def _write_table(path: Path, header: tuple[str, ...], columns) -> None:
    """Write equal-length columns under ``header`` as CSV, one ``%`` format per block of rows.

    Each column takes its cell format from its dtype (``_CELL_FORMAT``);
    a column of strings is written as is.
    """
    cols = [np.asarray(c) for c in columns]
    row = ",".join(_CELL_FORMAT.get(c.dtype.kind, "%s") for c in cols) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(cols[0]), _ROWS_PER_WRITE):
            block = [c[start:start + _ROWS_PER_WRITE].tolist() for c in cols]
            fh.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def emit_waveform(x: np.ndarray, path: Path) -> None:
    """Entry dump with full precision (``repr``) so the matrix round-trips exactly."""
    m, l = np.indices(x.shape).reshape(2, -1)
    re, im = ([repr(v) for v in part.ravel().tolist()] for part in (x.real, x.imag))
    _write_table(path, TABLE_SCHEMAS["waveform.csv"], (m, l, re, im))


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
    m, l, v = (np.array(col) for col in zip(*entries))
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"{path}: non-finite entry in line {bad[0] + 2}: {rows[bad[0] + 1]}")
    if min(m.min(), l.min()) < 0:
        raise ValueError(f"{path}: negative waveform index")
    rows, cols = int(m.max()) + 1, int(l.max()) + 1
    # Count the entries before indexing anything: an index far past them
    # must not size an allocation.
    at = m * cols + l if len(v) == rows * cols else None
    if at is None or not np.all(np.bincount(at, minlength=len(v)) == 1):
        raise ValueError(f"{path}: waveform table must list every (m, l) of its "
                         f"{rows} x {cols} rectangle exactly once")
    x = np.empty((rows, cols), dtype=complex)
    x.flat[at] = v
    return x


def emit_beampattern(r: np.ndarray, grid: AngularGrid, path: str | Path,
                     spacing: float = 0.5) -> None:
    """Beampattern table of the covariance ``r`` over the grid: angle_deg, power, power_db."""
    power = beampattern(r, grid.points, spacing)
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(np.maximum(power, 0.0))
    _write_table(Path(path), TABLE_SCHEMAS["beampattern.csv"],
                 (np.rad2deg(grid.points), power, power_db))


def _cell_seed(seed: int, method: str, kappa_rank: int, stream: int) -> int:
    ss = np.random.SeedSequence([seed, METHODS.index(method), kappa_rank, stream])
    return int(ss.generate_state(1, np.uint64)[0] % (2**63))


# Every method but omni: the call that designs a cell from its scenario, array,
# grid, prior moments, the previous kappa's solver state (None: start cold;
# only the fair design resumes from it) and solver keywords (``seed``,
# ``max_iters``), which finds its solver in this module when it runs, and
# whether its ``metric_value`` is a bound (lower is better) or a level.
_DESIGNS = {
    "pcrb": (lambda sc, cfg, grid, mom, state, **kw: solve_pcrb(mom, cfg, **kw), True),
    "psbp-fair": (lambda sc, cfg, grid, mom, state, **kw: solve_psbp_fair(
        sc.distribution, cfg, grid, warm_start=state, **kw), False),
    "psbp-int": (lambda sc, cfg, grid, mom, state, **kw:
                 solve_psbp_integrated(mom, cfg, **kw), False),
    "crb": (lambda sc, cfg, grid, mom, state, **kw: baseline_crb(sc.crb_angle, cfg, **kw),
            True),
}


def _run_cell(scenario: Scenario, method: str, kappa: float, kappa_rank: int, out: Path,
              grid: AngularGrid, moments, refine: bool, previous: SolveResult | None
              ) -> tuple[list[str], dict[str, float], SolveResult | None]:
    """Run one cell; return its files, its seconds per stage (``STAGES``)
    and the solver result (None for omni).

    ``kappa_rank`` is the threshold's place in ascending order and seeds
    the cell, and ``refine`` is the Monte-Carlo estimator's. ``previous``
    is the result of the chain's previous kappa (None: the first kappa, or
    one after a failed cell). A fair design resumes from its state and
    then ignores its seed. A larger kappa only enlarges the feasible set,
    and the previous waveform is feasible here, so when the cell's own
    ``metric_value`` is worse than the previous one (``_DESIGNS``) the
    result carries the previous waveform and ``metric_value`` instead,
    with the cell's own trace, convergence and state. One clock laps the
    stages in run order: design, emit, then with a Monte-Carlo sweep mc
    and emit again.
    """
    laps = [time.perf_counter()]
    cfg = replace(scenario.array, papr=kappa)
    cell_seed = _cell_seed(scenario.seed, method, kappa_rank, 0)

    if method == "omni":
        result, x = None, baseline_omni(cfg)
    else:
        design, lower_is_better = _DESIGNS[method]
        state = None if previous is None else previous.state
        result = design(scenario, cfg, grid, moments, state, seed=cell_seed,
                        max_iters=scenario.max_iters)
        if previous is not None and (result.metric_value > previous.metric_value
                                     if lower_is_better
                                     else result.metric_value < previous.metric_value):
            result = replace(result, waveform=previous.waveform,
                             metric_value=previous.metric_value)
        x = result.waveform
    laps.append(time.perf_counter())
    r = x @ x.conj().T  # all but the waveform table and feasibility read X through R

    out.mkdir(parents=True, exist_ok=True)
    files = []

    emit_waveform(x, out / "waveform.csv")
    files.append("waveform.csv")
    emit_beampattern(r, grid, out / "beampattern.csv", cfg.spacing)
    files.append("beampattern.csv")

    feas = waveform_feasibility(x, cfg)
    bound_rad2 = pcrb_theta(r, moments, 1.0, cfg.noise_power)
    metrics = [
        ("pcrb_rad2", bound_rad2),
        ("pcrb_deg2", bound_rad2 * np.rad2deg(1.0) ** 2),
        ("power_error", feas.power_error),
        ("papr_margin", feas.papr_margin),
    ]
    if result is not None:
        tr = result.trace
        _write_table(out / "trace.csv", TABLE_SCHEMAS["trace.csv"], (
            np.arange(1, len(tr) + 1), tr.objective, tr.augmented_lagrangian, tr.residual))
        files.append("trace.csv")
        metrics += zip(SOLVER_METRICS, (
            result.metric_value, len(tr), float(tr.residual[-1]), tr.monotone_violations(),
            int(result.converged), float(tr.mu_iterations.mean()), int(tr.mu_iterations.max()),
            tr.mu_tol_misses, int(state is not None)))
    # Integer and float metrics share the value column: format each alone.
    _write_table(out / "metrics.csv", TABLE_SCHEMAS["metrics.csv"],
                 ([k for k, _ in metrics],
                  [_CELL_FORMAT[np.asarray(v).dtype.kind] % v for _, v in metrics]))
    files.append("metrics.csv")
    laps.append(time.perf_counter())

    if scenario.n_trials > 0 and scenario.snr_list_db:
        mse_seed = _cell_seed(scenario.seed, method, kappa_rank, 1)
        results = monte_carlo_mse(
            r, scenario.distribution, cfg, grid, scenario.snr_list_db, scenario.n_trials, mse_seed,
            refine=refine, moments=moments,
        )
        laps.append(time.perf_counter())
        _write_table(
            out / "mse.csv",
            TABLE_SCHEMAS["mse.csv"],
            tuple(zip(*[(res.snr_db, res.mse, res.std_error, res.pcrb, res.n_trials)
                        for res in results])),
        )
        # One row per angle bin of each SNR, in snr_list_db order.
        snr, angle, n, v = zip(*[(res.snr_db, *row) for res in results for row in res.per_angle])
        _write_table(out / "mse_by_angle.csv", TABLE_SCHEMAS["mse_by_angle.csv"],
                     (snr, np.rad2deg(angle), n, v))
        files += ["mse.csv", "mse_by_angle.csv"]
        laps.append(time.perf_counter())
    seconds = dict.fromkeys(STAGES, 0.0)
    for stage, t0, t1 in zip(("design", "emit", "mc", "emit"), laps, laps[1:]):
        seconds[stage] += t1 - t0
    return files, seconds, result


def _chain_cells(scenario: Scenario, method: str) -> list[tuple[float, str]]:
    """The ``(kappa, cell name)`` of each cell of a method's chain, in run order."""
    if method == "omni":
        return [(1.0, "omni")]
    return [(kappa, _cell_name(method, kappa)) for kappa in sorted(scenario.kappa_list)]


def _run_chain(scenario: Scenario, method: str, out_dir: Path, grid: AngularGrid, moments,
               refine: bool) -> tuple[dict, list, list]:
    """Run one method's cells in ascending kappa (``run_scenario``), each
    after the first handed the previous cell's result (``_run_cell``).

    Returns its successful cells (name -> files, seconds per stage), its
    failures ``(cell, error, traceback)`` and one line per solver cell that
    stopped at ``max_iters`` unconverged. A worker whose parent is gone
    exits before its next cell.
    """
    cells: dict[str, tuple[list[str], dict[str, float]]] = {}
    failures: list[tuple[str, str, str]] = []
    previous, capped = None, []
    for rank, (kappa, name) in enumerate(_chain_cells(scenario, method)):
        fanout.leave_if_orphaned()
        try:
            files, seconds, previous = _run_cell(
                scenario, method, kappa, rank, out_dir / name, grid, moments, refine, previous)
            cells[name] = files, seconds
        except Exception as exc:  # noqa: BLE001 - cell isolation by design
            failures.append((name, f"{type(exc).__name__}: {exc}", traceback.format_exc()))
            previous = None
        if previous is not None and not previous.converged:
            capped.append(f"not converged: {name} stopped at max_iters {scenario.max_iters}, "
                          f"final_residual {previous.trace.residual[-1]:.2e}")
    return cells, failures, capped


def run_scenario(
    config_path: str | Path,
    out: str | Path | None = None,
    seed: int | None = None,
    paper_literal: bool = False,
) -> int:
    """Execute every (method x kappa) cell of a scenario.

    Each method's cells run as one chain in ascending kappa
    (``_run_chain``). A fair design after the first kappa resumes from the
    previous kappa's final solver state, and a cell that scores worse
    than the previous kappa returns the previous design (``_run_cell``),
    so each chain's ``metric_value`` never worsens as kappa rises. The
    first kappa, and any kappa after a failed one, starts cold from its
    cell seed and is not compared. The chains are the tasks of
    ``fanout.run_tasks``, which picks how many processes run them, this
    one included; the manifest records that count as ``workers``. A
    worker that dies before reporting a chain fails every cell of it.
    Then, method by method in config order and in ascending kappa, each
    solver cell that stopped at ``max_iters`` without converging is printed.
    ``paper_literal`` turns the Monte-Carlo refine off, leaving a grid argmax.

    Returns the process exit code: 0 on success, 1 on a configuration
    error, 2 when at least one cell failed (the rest still complete and
    the failures are listed in the manifest).
    """
    try:
        scenario = load_config(config_path)
        if seed is not None:
            scenario = _build({**scenario.to_dict(), "seed": int(seed)})
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 1
    grid = AngularGrid(scenario.grid_size)
    try:
        # A prior can validate and still fail the quadrature, e.g. when mass spills past
        # +-90 degrees, or miss every grid point that the fair design and the MAP scan
        # weight by its density; report either before writing anything.
        moments = compute_moments(scenario.distribution, scenario.array)
        if "psbp-fair" in scenario.methods or scenario.n_trials > 0 and scenario.snr_list_db:
            _grid_density(scenario.distribution, grid.points)
    except ValueError as exc:
        print(f"config error: distribution: {exc}")
        return 1

    out_dir = Path(out) if out is not None else Path(scenario.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}")
        return 1
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    methods = scenario.methods
    chains, lost, workers = fanout.run_tasks(len(methods), lambda i: _run_chain(
        scenario, methods[i], out_dir, grid, moments, not paper_literal))
    for i, code in lost.items():
        chains[i] = {}, [(name, f"worker process exited with status {code}", "")
                         for _, name in _chain_cells(scenario, methods[i])], []
    # Successful cells: name -> (files, seconds per stage); failures: (cell, error, traceback).
    cells: dict[str, tuple[list[str], dict[str, float]]] = {}
    failures: list[tuple[str, str, str]] = []
    capped: list[str] = []
    for i in range(len(methods)):
        chain_cells, chain_failures, chain_capped = chains[i]
        cells.update(chain_cells)
        failures += chain_failures
        capped += chain_capped
    for line in capped:
        print(line)

    manifest = {
        "tool": "priorwave",
        "version": __version__,
        "config_hash": scenario.config_hash(),
        "seed": scenario.seed,
        "paper_literal": paper_literal,
        "started_at": started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workers": workers,
        "files": sorted(f"{cell}/{fname}" for cell, (fs, _) in cells.items() for fname in fs),
        # A cell's time is the sum of its stages, all lapped on one clock in the
        # process that ran it; cells of different workers overlap in time.
        "cell_seconds": {k: round(sum(s.values()), 3) for k, (_, s) in sorted(cells.items())},
        "stage_seconds": {k: {stage: round(v, 3) for stage, v in s.items()}
                          for k, (_, s) in sorted(cells.items())},
        # Cell names are unique, so this sorts by cell.
        "failures": [{"cell": cell, "error": error} for cell, error, _ in sorted(failures)],
    }
    try:
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    except OSError as exc:
        print(f"output error: {exc}")
        return 1
    for cell, error, trace in failures:
        print(f"cell {cell} failed: {error}")
        print(trace, end="", file=sys.stderr)
    return 2 if failures else 0


def validate_output_dir(path: str | Path) -> list[str]:
    """Check an output directory against the declared table schemas.

    Returns a list of problems (empty when the directory is valid).
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        return [f"{root}: manifest.json is missing"]
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{manifest_path}: invalid JSON ({exc})"]
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{manifest_path}: unreadable ({exc})"]
    if not isinstance(manifest, dict):
        return [f"{manifest_path}: expected a JSON object, got {type(manifest).__name__}"]
    problems = [f"manifest.json: {key} is missing"
                for key in ("files", "cell_seconds", "stage_seconds") if key not in manifest]
    files = manifest.get("files", [])
    if not isinstance(files, list) or not all(isinstance(rel, str) for rel in files):
        problems.append("manifest.json: files must be a list of strings")
    problems += [f"manifest.json: {key} must be a JSON object"
                 for key in ("cell_seconds", "stage_seconds")
                 if not isinstance(manifest.get(key, {}), dict)]
    failures = manifest.get("failures", [])  # absent from runs that predate it
    if not isinstance(failures, list) or not all(
            isinstance(f, dict) and isinstance(f.get("cell"), str)
            and isinstance(f.get("error"), str) for f in failures):
        problems.append("manifest.json: failures must be a list of objects "
                        "with string cell and error")
    workers = manifest.get("workers", 1)  # absent from runs that predate it
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        problems.append("manifest.json: workers must be a positive integer")
    if problems:
        return problems
    problems = [f"{rel}: listed {n} times in manifest.json"
                for rel, n in sorted(Counter(files).items()) if n > 1]

    def seconds(v) -> bool:
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and 0 <= v < math.inf)

    stages = manifest["stage_seconds"]
    totals = manifest["cell_seconds"]
    for cell, total in totals.items():
        total_ok = seconds(total)
        if not total_ok:
            problems.append(f"manifest.json: cell_seconds.{cell} must be non-negative seconds")
        spans = stages.get(cell)
        if not isinstance(spans, dict) or set(spans) != set(STAGES) or not all(
                seconds(v) for v in spans.values()):
            problems.append(f"manifest.json: stage_seconds.{cell} must give "
                            f"non-negative seconds for {','.join(STAGES)}")
        # The total and its three stages are each rounded to 3 decimals.
        elif total_ok and abs(total - sum(spans.values())) > 0.002:
            problems.append(f"manifest.json: cell_seconds.{cell} is {total}, not the sum "
                            f"{sum(spans.values()):.3f} of its stage_seconds")
    problems += [f"manifest.json: stage_seconds.{cell} has no cell_seconds entry"
                 for cell in stages if cell not in totals]

    listed = set(files)
    inside = root.resolve()
    for rel in files:
        fpath = root / rel
        try:
            outside = not fpath.resolve().is_relative_to(inside)
        except ValueError:  # an embedded NUL byte
            outside = True
        if outside:
            problems.append(f"{rel}: not a path inside the run directory")
            continue
        if not fpath.is_file():
            problems.append(f"{rel}: listed in manifest but "
                            + ("not a file" if fpath.exists() else "missing"))
            continue
        base = fpath.name
        schema = TABLE_SCHEMAS.get(base)
        if schema is None:
            problems.append(f"{rel}: no schema for this file name")
            continue
        try:
            lines = fpath.read_text().strip().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            problems.append(f"{rel}: unreadable ({exc})")
            continue
        if not lines or tuple(lines[0].split(",")) != schema:
            problems.append(f"{rel}: header does not match {','.join(schema)}")
            continue
        width = len(schema)
        for i, line in enumerate(lines[1:], start=2):
            cols = line.split(",")
            if len(cols) != width:
                problems.append(f"{rel}:{i}: expected {width} columns, got {len(cols)}")
                break
            # metrics.csv carries a string key column
            values = cols[1:] if base == "metrics.csv" else cols
            try:
                [float(c) for c in values]
            except ValueError:
                problems.append(f"{rel}:{i}: non-numeric value")
                break
        if base == "metrics.csv" and str(Path(rel).with_name("trace.csv")) in listed:
            keys = {line.split(",")[0] for line in lines[1:]}
            missing = [k for k in SOLVER_METRICS if k not in keys]
            if missing:
                problems.append(f"{rel}: solver metrics missing {','.join(missing)}")
    return problems
