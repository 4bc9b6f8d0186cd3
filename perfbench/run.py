"""Benchmark of ``priorwave run``, end to end and per layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload design-c12 --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 1

With ``--trace 0`` a run repeats the workload's ``run`` process until
``--seconds`` is spent, at least twice, and times cold starts up to a
validated config in between them. With ``--trace 1`` it runs
the workload once untraced and twice under the span tracer of
``tracing.py`` and reports the per-layer metrics. Every output is checked
(see ``workloads.check_run``); the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = SRC / "priorwave" / "configs"
WORK = ROOT / ".perfbench_work"

STARTS_PER_REP = 3  # cold starts before each repetition, after one untimed start
MIN_STARTS = 11  # topped up after the last repetition
MIN_REPS = 2  # byte-identity across repetitions needs two
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer metrics that are exact counts: they must repeat exactly
# between the two traced runs of one seed.
COUNT_METRICS = ("solvers.fair.iters", "solvers.pcrb.iters", "solvers.int.iters",
                 "admm.mu_evals_per_iter", "admm.al_increases",
                 "estimation.score_at_per_trial", "ula.steering_calls_per_trial",
                 "estimation.trials")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], log: Path) -> tuple[int, float, float]:
    """Run one process to completion: exit code, wall seconds, peak RSS in MB."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        reaped = False
        try:
            # wait4 rather than Popen.wait: it returns the child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            reaped = True
        finally:
            timer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "loadavg_start": loadavg(),
    }


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import Gate, check_run, check_same_tables, scenario_dict, write_config

    facts = machine_facts()
    work = WORK / f"{wl.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gate = Gate()
    try:
        raw = scenario_dict(wl, CONFIGS, seed)
        cfg = write_config(raw, work / "workload.cfg")
        setup_cmd = [sys.executable, "-c",
                     "import sys, priorwave.cli, priorwave.scenario as s; "
                     "s.load_config(sys.argv[1])", str(cfg)]

        def run_cmd(out: Path, traced_to: Path | None = None) -> list[str]:
            head = ([sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(traced_to)]
                    if traced_to else [sys.executable, "-m", "priorwave.cli"])
            args = head + ["run", "--config", str(cfg), "--out", str(out)]
            return args + (["--paper-literal"] if wl.paper_literal else [])

        def cold_starts(n: int) -> list[float]:
            walls = []
            for _ in range(n):
                code, wall, _ = run_child(setup_cmd, work / "setup.log")
                gate.check(code == 0, f"config load exit code {code}")
                walls.append(wall)
            return walls

        def one_rep(i: int, traced_to: Path | None = None) -> dict:
            out = work / f"rep{i}"
            code, wall, rss = run_child(run_cmd(out, traced_to), work / f"rep{i}.log")
            return {"wall": wall, "rss": rss, "out": out,
                    "facts": check_run(wl, raw, out, code, gate)}

        # One untimed cold start compiles the bytecode cache, which users pay once.
        cold_starts(1)

        result = {"workload": wl.name, "seed": seed, "trace": int(trace)}
        if trace:
            base = one_rep(0)
            traced = [one_rep(i, work / f"spans{i}.npz") for i in (1, 2)]
            for i, rep in enumerate(traced, start=1):
                check_same_tables(base["facts"]["digests"], rep["facts"]["digests"], gate,
                                  f"traced rep {i}")
            metrics, missing = per_layer(base, traced, work, gate)
            result["missing_wrappers"] = missing
        else:
            # Cold starts are spread over the run, a few before each
            # repetition, so that setup_s samples the same host conditions
            # as wall_s rather than one moment.
            t_start = time.perf_counter()
            starts: list[float] = []
            reps = []
            while True:
                starts += cold_starts(STARTS_PER_REP)
                reps.append(one_rep(len(reps)))
                if len(reps) > 1:
                    check_same_tables(reps[0]["facts"]["digests"], reps[-1]["facts"]["digests"],
                                      gate, f"rep {len(reps) - 1}")
                elapsed = time.perf_counter() - t_start
                typical = statistics.median(r["wall"] for r in reps)
                # Start another repetition while it would end, on average,
                # no more than half a repetition past the budget.
                if len(reps) >= MIN_REPS and elapsed + typical / 2 > seconds:
                    break
            starts += cold_starts(max(0, MIN_STARTS - len(starts)))
            metrics = end_to_end(raw, starts, reps)
            result["samples"] = {"setup_starts": len(starts), "run_reps": len(reps),
                                 "wall_s": [round(r["wall"], 4) for r in reps],
                                 "setup_s": [round(w, 4) for w in starts]}
            result["extra"] = extra_metrics(raw, reps, metrics["wall_s"]["value"])
        facts["loadavg_end"] = loadavg()
        result.update(machine=facts, problems=gate.problems[:20])
        result["outcome"] = {"correct": gate.failed == 0, "attempted": gate.attempted,
                              "failed": gate.failed, "metrics": metrics}
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def listed_metrics(kind: str, values: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, in its order and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec}


def end_to_end(raw: dict, starts: list[float], reps: list[dict]) -> dict:
    cell = f"pcrb-k{raw['kappa_list'][0]:g}"
    pcrb_deg2 = [r["facts"]["metrics"].get(cell, {}).get("pcrb_deg2", 0.0) for r in reps]
    return listed_metrics("end_to_end", {
        "wall_s": statistics.median(r["wall"] for r in reps),
        "setup_s": statistics.median(starts),
        "peak_rss_mb": statistics.median(r["rss"] for r in reps),
        "pcrb_bound_deg2": statistics.median(pcrb_deg2),
    })


def extra_metrics(raw: dict, reps: list[dict], wall: float) -> dict:
    """Printed beside the gated metrics; not part of the result object."""
    first = reps[0]["facts"]
    trials = sum(int(row["trials"]) for rows in first["mse"].values() for row in rows)
    fair = first["metrics"].get(f"psbp-fair-k{raw['kappa_list'][0]:g}", {})
    out = {"mc_trials_per_s": _metric(trials / wall, "1/s")}
    if "metric_value" in fair:
        out["fair_min_ratio"] = _metric(fair["metric_value"], "ratio")
    return out


def per_layer(base: dict, traced: list[dict], work: Path, gate) -> tuple[dict, list[str]]:
    from tracing import layer_metrics

    runs = []
    for i in range(1, len(traced) + 1):
        m, missing = layer_metrics(work / f"spans{i}.npz")
        runs.append(m)
    for name in COUNT_METRICS:
        gate.check(runs[0][name] == runs[1][name],
                   f"count {name} differs between traced runs: {runs[0][name]} {runs[1][name]}")
    # The counts the program also writes must agree with the traced results.
    tables = base["facts"]["metrics"]
    for prefix, method in (("solvers.fair", "psbp-fair"), ("solvers.pcrb", "pcrb"),
                           ("solvers.int", "psbp-int")):
        written = sum(m.get("iterations", 0) for c, m in tables.items()
                      if c.startswith(method + "-k"))
        gate.check(written == runs[0][f"{prefix}.iters"],
                   f"{prefix}.iters {runs[0][f'{prefix}.iters']} != metrics.csv {written}")
    written_al = sum(m.get("al_increase_count", 0) for m in tables.values())
    gate.check(written_al == runs[0]["admm.al_increases"],
               f"admm.al_increases {runs[0]['admm.al_increases']} != metrics.csv {written_al}")

    values = {name: value if name in COUNT_METRICS else statistics.median(r[name] for r in runs)
              for name, value in runs[0].items()}
    manifest = json.loads((base["out"] / "manifest.json").read_text())
    cells = list(manifest.get("cell_seconds", {}).values())
    if not cells:
        missing.append("manifest.json cell_seconds")
    values["scenario.cell_s.max"] = max(cells, default=0.0)
    values["scenario.cell_s.sum"] = sum(cells)
    values["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - base["wall"]
    return listed_metrics("per_layer", values), missing


def print_result(result: dict) -> None:
    wl = result["workload"]
    outcome = result["outcome"]
    for name, m in {**outcome["metrics"], **result.get("extra", {})}.items():
        print(f"{wl:<11} {name:<32} {m['value']:.6g} {m['unit']}")
    fail_rate = outcome["failed"] / outcome["attempted"]
    print(f"{wl:<11} {'fail_rate':<32} {fail_rate:.6g} ratio "
          f"({outcome['failed']} of {outcome['attempted']} cells and checks)")
    for p in result["problems"]:
        print(f"{wl:<11} FAILED: {p}")
    detail = {k: v for k, v in result.items() if k != "outcome"}
    print("detail " + json.dumps(detail, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM so that run_child kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "priorwave" / "cli.py").is_file():
        print(f"priorwave sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names]
    for result in results:
        print_result(result)
    outcomes = [r["outcome"] for r in results]
    if len(outcomes) == 1:
        print(json.dumps(outcomes[0]))
    else:
        print(json.dumps({r["workload"]: r["outcome"] for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
