"""Span tracing of one ``priorwave run`` process, applied from outside the package.

Run as a script, this module wraps the public functions at each layer
boundary under the name the calling module sees, runs the CLI, and writes
the spans to an ``.npz`` file when the run ends::

    python perfbench/tracing.py SPANS.npz run --config CFG --out DIR

Each span records its name, start, end and parent; the whole CLI call is
span 0, the parent of every span that starts with no open span on its
thread. ``layer_metrics`` turns one spans file into the per-layer numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from array import array

import numpy as np

# (module, attribute) pairs wrapped in place. Names that no longer exist
# are reported as missing and their metrics read 0.
WRAPPED = {
    "priorwave.scenario": (
        "compute_moments", "solve_pcrb", "solve_psbp_fair", "solve_psbp_integrated",
        "baseline_crb", "baseline_omni", "emit_waveform", "emit_beampattern",
        "pcrb_theta", "monte_carlo_mse",
    ),
    "priorwave.estimation": (
        "synthesize_received", "steering_matrix", "compute_moments", "pcrb_theta",
    ),
    "priorwave.solvers": (
        "papr_project", "dual_update", "pcrb_upper_bound", "compute_moments",
    ),
}
WRAPPED_METHODS = {"priorwave.estimation.MapEstimator": ("score", "score_at", "estimate")}

ROOT = "cli.main"


def _solve_info(result) -> dict:
    trace = getattr(result, "trace", None)
    mu = np.asarray(getattr(trace, "mu_iterations", ()), dtype=float)
    return {
        "iterations": int(getattr(result, "iterations", len(mu))),
        "converged": bool(getattr(result, "converged", False)),
        "metric_value": float(getattr(result, "metric_value", float("nan"))),
        "mu_evals": float(mu.sum()),
        "mu_iters": int(mu.size),
        "al_increases": int(trace.monotone_violations()) if trace is not None else 0,
    }


class Tracer:
    """In-memory span store; one record per completed call."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("h")
        self.t0 = array("d")
        self.t1 = array("d")
        self.info: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, label: str, fn, annotate=None):
        idx = len(self.names)
        self.names.append(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [0])
            sid = next(self._ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self._record(sid, parent, idx, t0, t1)
            if annotate is not None:
                self.info[sid] = annotate(result)
            return result

        return traced

    def _record(self, sid, parent, idx, t0, t1) -> None:
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(idx)
        self.t0.append(t0)
        self.t1.append(t1)

    def install(self) -> list[str]:
        """Wrap every listed name that exists; return the missing ones."""
        import importlib

        missing = []
        for modname, attrs in WRAPPED.items():
            mod = importlib.import_module(modname)
            short = modname.rsplit(".", 1)[1]
            for attr in attrs:
                fn = getattr(mod, attr, None)
                if fn is None:
                    missing.append(f"{modname}.{attr}")
                    continue
                annotate = _solve_info if attr.startswith(("solve_", "baseline_crb")) else None
                setattr(mod, attr, self.wrap(f"{short}.{attr}", fn, annotate))
        for path, attrs in WRAPPED_METHODS.items():
            modname, clsname = path.rsplit(".", 1)
            cls = getattr(importlib.import_module(modname), clsname, None)
            for attr in attrs:
                fn = getattr(cls, attr, None) if cls is not None else None
                if fn is None:
                    missing.append(f"{path}.{attr}")
                    continue
                setattr(cls, attr, self.wrap(f"{clsname}.{attr}", fn))
        return missing

    def save(self, path: str, root_t0: float, root_t1: float, code: int,
             missing: list[str]) -> None:
        self._record(0, -1, 0, root_t0, root_t1)
        meta = {"names": self.names, "info": self.info, "code": code, "missing": missing}
        np.savez(path, sid=np.asarray(self.sid), parent=np.asarray(self.parent),
                 name=np.asarray(self.name), t0=np.asarray(self.t0),
                 t1=np.asarray(self.t1), meta=np.array(json.dumps(meta)))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = tracer.install()
    from priorwave import cli

    t0 = time.perf_counter()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        tracer.save(spans_path, t0, time.perf_counter(), code, missing)
    return code


# ---------------------------------------------------------------- analysis


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total length covered by a set of intervals."""
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts)
    s, e = starts[order], np.maximum.accumulate(ends[order])
    # An interval starts a new block when it begins after every earlier end.
    new_block = np.concatenate(([True], s[1:] > e[:-1]))
    block = np.cumsum(new_block) - 1
    block_start = s[new_block]
    block_end = np.zeros(block_start.size)
    np.maximum.at(block_end, block, e)
    return float(np.sum(block_end - block_start))


class Spans:
    def __init__(self, path) -> None:
        with np.load(path) as z:
            self.sid, self.parent, self.name = z["sid"], z["parent"], z["name"]
            self.t0, self.t1 = z["t0"], z["t1"]
            meta = json.loads(str(z["meta"]))
        self.names = meta["names"]
        self.info = {int(k): v for k, v in meta["info"].items()}
        self.missing = meta["missing"]
        self.dur = self.t1 - self.t0
        order = np.argsort(self.sid)
        self._row = np.empty(int(self.sid.max()) + 1, dtype=np.int64)
        self._row[self.sid[order]] = order

    def mask(self, *labels: str) -> np.ndarray:
        idx = [i for i, n in enumerate(self.names) if n in labels]
        return np.isin(self.name, idx)

    def total(self, *labels: str) -> float:
        return float(self.dur[self.mask(*labels)].sum())

    def under(self, child: np.ndarray, ancestor_label: str, depth: int = 4) -> np.ndarray:
        """Which of the ``child`` spans have an ``ancestor_label`` span above them."""
        target = self.names.index(ancestor_label) if ancestor_label in self.names else -2
        node = self.parent[child]
        hit = np.zeros(node.size, dtype=bool)
        for _ in range(depth):
            live = node >= 0
            rows = self._row[np.where(live, node, 0)]
            hit |= live & (self.name[rows] == target)
            node = np.where(live, self.parent[rows], -1)
        return hit

    def solves(self, label: str) -> list[dict]:
        rows = np.flatnonzero(self.mask(label))
        return [dict(self.info.get(int(self.sid[r]), {}), seconds=float(self.dur[r]))
                for r in rows]


def layer_metrics(path) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced run, plus the wrapped names that were missing."""
    sp = Spans(path)
    m: dict[str, float] = {}
    m["priors.moments_ms"] = 1e3 * sp.total(
        "scenario.compute_moments", "estimation.compute_moments", "solvers.compute_moments")

    def solver(prefix: str, label: str, seconds_unit: bool) -> list[dict]:
        runs = sp.solves(label)
        secs = sum(r["seconds"] for r in runs)
        if seconds_unit:
            m[f"{prefix}.solve_s"] = secs
        else:
            m[f"{prefix}.solve_ms"] = 1e3 * secs
        return runs

    fair = solver("solvers.fair", "scenario.solve_psbp_fair", True)
    fair_iters = sum(r.get("iterations", 0) for r in fair)
    m["solvers.fair.iters"] = float(fair_iters)
    m["solvers.fair.ms_per_iter"] = 1e3 * m["solvers.fair.solve_s"] / fair_iters if fair_iters else 0.0
    m["solvers.fair.converged_ratio"] = (
        sum(r.get("converged", False) for r in fair) / len(fair) if fair else 0.0)
    m["solvers.fair.min_ratio"] = min((r.get("metric_value", 0.0) for r in fair), default=0.0)
    pcrb = solver("solvers.pcrb", "scenario.solve_pcrb", False)
    m["solvers.pcrb.iters"] = float(sum(r.get("iterations", 0) for r in pcrb))
    integ = solver("solvers.int", "scenario.solve_psbp_integrated", False)
    m["solvers.int.iters"] = float(sum(r.get("iterations", 0) for r in integ))
    crb = solver("solvers.crb", "scenario.baseline_crb", False)

    every = fair + pcrb + integ + crb
    mu_iters = sum(r.get("mu_iters", 0) for r in every)
    m["admm.mu_evals_per_iter"] = sum(r.get("mu_evals", 0.0) for r in every) / mu_iters if mu_iters else 0.0
    m["admm.al_increases"] = float(sum(r.get("al_increases", 0) for r in every))
    m["admm.papr_project_ms"] = 1e3 * sp.total("solvers.papr_project")

    est = np.flatnonzero(sp.mask("MapEstimator.estimate"))
    synth = np.flatnonzero(sp.mask("estimation.synthesize_received"))
    score = np.flatnonzero(sp.mask("MapEstimator.score"))
    n_trials = est.size
    m["estimation.trials"] = float(n_trials)
    if n_trials and synth.size == n_trials:
        trial = sp.dur[synth[np.argsort(sp.t0[synth])]] + sp.dur[est[np.argsort(sp.t0[est])]]
        m["estimation.trial_ms.p50"] = 1e3 * float(np.percentile(trial, 50))
        m["estimation.trial_ms.p99"] = 1e3 * float(np.percentile(trial, 99))
    else:
        m["estimation.trial_ms.p50"] = m["estimation.trial_ms.p99"] = 0.0
    m["estimation.scan_ms"] = 1e3 * float(sp.dur[score].mean()) if score.size else 0.0
    in_trial = score[sp.under(score, "MapEstimator.estimate", depth=1)]
    m["estimation.refine_ms"] = (
        1e3 * (float(sp.dur[est].sum()) - float(sp.dur[in_trial].sum())) / n_trials
        if n_trials else 0.0)
    score_at = int(sp.mask("MapEstimator.score_at").sum())
    m["estimation.score_at_per_trial"] = score_at / n_trials if n_trials else 0.0
    steer = np.flatnonzero(sp.mask("estimation.steering_matrix"))
    steer_in_trial = int(sp.under(steer, "MapEstimator.estimate").sum())
    m["ula.steering_calls_per_trial"] = steer_in_trial / n_trials if n_trials else 0.0
    m["ula.synth_us"] = 1e6 * float(sp.dur[synth].mean()) if synth.size else 0.0

    m["pcrb.eval_ms"] = 1e3 * sp.total(
        "scenario.pcrb_theta", "estimation.pcrb_theta", "solvers.pcrb_upper_bound")
    m["scenario.emit_ms"] = 1e3 * sp.total("scenario.emit_waveform", "scenario.emit_beampattern")
    top = np.flatnonzero(sp.parent == 0)
    root = sp._row[0]
    m["scenario.self_s"] = float(sp.dur[root]) - _union_length(sp.t0[top], sp.t1[top])
    return m, sp.missing


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
