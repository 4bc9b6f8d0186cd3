"""Workload definitions and the correctness gate for the priorwave benchmark.

Every workload is a bundled scenario config read through
``priorwave.scenario.load_config`` plus a few overrides, written back out
as YAML and run with ``python -m priorwave.cli run``. The outputs of each
run are then checked against the paper's invariants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from priorwave.scenario import load_config, validate_output_dir

FIVE_SNRS = [-10.0, 0.0, 10.0, 20.0, 30.0]

# psbp-fair kappa=1.2 level on case-1-2 at the bundled seed. Every design
# seed tried that converges reaches 1.2765-1.2766; the one bad local
# optimum seen reads 0.36. The gate sits 1% below the converged level.
C12_FAIR_FLOOR = 0.99 * 1.2765
MC_SLACK = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    overrides: dict
    paper_literal: bool = False
    # True: --seed becomes the scenario seed (design and Monte-Carlo streams).
    # False: the bundled seed is kept and --seed draws the crb benchmark angle.
    seed_is_scenario_seed: bool = True
    top_snr_window: bool = False
    fair_floor: float | None = None


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="design-c12",
            config="case-1-2.cfg",
            overrides={"n_trials": 0},
            # The fair solver needs 3,250-5,000 iterations depending on the
            # design seed, which would put the seed's share of the spread
            # above any bound; the design seed stays the bundled one.
            seed_is_scenario_seed=False,
            fair_floor=C12_FAIR_FLOOR,
        ),
        Workload(
            name="mc-c12",
            config="case-1-2.cfg",
            overrides={"methods": ["pcrb", "omni"], "kappa_list": [1.2],
                       "snr_list_db": FIVE_SNRS, "n_trials": 200},
            top_snr_window=True,
        ),
        Workload(
            name="s3-literal",
            config="scenario-3.cfg",
            # The fair solve stops at max_iters without converging on this
            # prior for every seed; a cap of 2,500 halves it, so more
            # repetitions fit in a run.
            overrides={"methods": ["pcrb", "psbp-fair", "psbp-int", "omni"],
                       "kappa_list": [1.2], "snr_list_db": FIVE_SNRS, "n_trials": 500,
                       "admm": {"max_iters": 2500}},
            paper_literal=True,
        ),
    )
}


def scenario_dict(wl: Workload, configs_dir: Path, seed: int) -> dict:
    """Canonical scenario of a workload for one benchmark seed."""
    raw = load_config(configs_dir / wl.config).to_dict()
    raw.update(wl.overrides)
    if wl.seed_is_scenario_seed:
        raw["seed"] = int(seed)
    else:
        lo, hi = raw["distribution"]["intervals_deg"][0]
        rng = np.random.default_rng(seed)
        raw["crb_angle_deg"] = round(float(rng.uniform(lo, hi)), 4)
    return raw


def write_config(raw: dict, path: Path) -> Path:
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path


def expected_cells(raw: dict) -> list[str]:
    cells = []
    for method in raw["methods"]:
        if method == "omni":
            cells.append("omni")
        else:
            cells.extend(f"{method}-k{k:g}" for k in raw["kappa_list"])
    return cells


def read_metrics(path: Path) -> dict[str, float]:
    rows = path.read_text().strip().splitlines()[1:]
    return {k: float(v) for k, v in (r.split(",") for r in rows)}


def read_mse(path: Path) -> list[dict[str, float]]:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def table_digests(out: Path) -> dict[str, str]:
    """sha256 of every output file except the manifest (it carries timestamps)."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


class Gate:
    """Counts cells and correctness checks attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def cells(self, attempted: int, failed: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failed)
        self.problems.extend(f"cell failed: {c}" for c in failed)


def check_run(wl: Workload, raw: dict, out: Path, exit_code: int, gate: Gate) -> dict:
    """Check one ``run`` output directory; returns facts the metrics need."""
    cells = expected_cells(raw)
    present = [c for c in cells if (out / c / "metrics.csv").exists()]
    gate.cells(len(cells), [c for c in cells if c not in present])
    gate.check(exit_code == 0, f"run exit code {exit_code}")
    problems = validate_output_dir(out)
    gate.check(not problems, f"validate: {problems[:3]}")

    power = raw["array"]["power"]
    slots = raw["array"]["m_t"] * raw["array"]["l_samples"]
    facts: dict = {"metrics": {}, "mse": {}}
    for cell in present:
        m = read_metrics(out / cell / "metrics.csv")
        facts["metrics"][cell] = m
        kappa = 1.0 if cell == "omni" else float(cell.rsplit("-k", 1)[1])
        elem_bound = kappa * power / slots
        gate.check(m["power_error"] <= 1e-8 * power, f"{cell}: power_error {m['power_error']}")
        gate.check(m["papr_margin"] >= -1e-9 * elem_bound,
                   f"{cell}: papr_margin {m['papr_margin']}")
        if cell.startswith(("pcrb-", "crb-")):
            gate.check(m["pcrb_rad2"] <= m["metric_value"],
                       f"{cell}: pcrb {m['pcrb_rad2']} above its upper bound {m['metric_value']}")
        if raw["n_trials"] > 0:
            rows = read_mse(out / cell / "mse.csv")
            facts["mse"][cell] = rows
            for r in rows:
                ratio = r["mse_rad2"] / r["pcrb_rad2"]
                gate.check(ratio >= 0.5, f"{cell}: mse/pcrb {ratio:.3f} < 0.5 at {r['snr_db']} dB")
            if wl.top_snr_window:
                # The point estimate spreads with the seed (pcrb cell: mean
                # 1.64, sd 0.16 over 50 seeds at 400 trials, one read 2.24),
                # so the upper edge is tested with MC_SLACK standard errors.
                top = max(rows, key=lambda r: r["snr_db"])
                low = (top["mse_rad2"] - MC_SLACK * top["stderr_rad2"]) / top["pcrb_rad2"]
                gate.check(low <= 2.0, f"{cell}: mse/pcrb {low:.3f} > 2 at {top['snr_db']} dB "
                                       f"even {MC_SLACK:g} standard errors down")
    if wl.fair_floor is not None:
        fair = facts["metrics"].get("psbp-fair-k1.2", {}).get("metric_value", -np.inf)
        gate.check(fair >= wl.fair_floor,
                   f"psbp-fair-k1.2 min ratio {fair} below {wl.fair_floor:.4f}")
    facts["digests"] = table_digests(out)
    return facts


def check_same_tables(first: dict, other: dict, gate: Gate, label: str) -> None:
    diff = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
    gate.check(not diff, f"{label}: tables differ from the first repetition: {diff[:3]}")
