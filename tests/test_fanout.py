import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import priorwave.scenario as scenario_mod
from priorwave import fanout
from priorwave.scenario import run_scenario, validate_output_dir

SRC = Path(__file__).resolve().parents[1] / "src"

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

# Forked workers and the thread count they rest on need os.fork and /proc.
pytestmark = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                reason="needs os.fork and /proc")

FIVE_METHODS_CFG = """\
array: {m_t: 4, m_r: 4, l_samples: 8}
distribution:
  kind: mixture-uniform
  intervals_deg: [[-20.0, 5.0], [10.0, 30.0]]
  weights: [0.6, 0.4]
methods: [pcrb, psbp-fair, psbp-int, crb, omni]
kappa_list: [1.2, 2.0]
snr_list_db: [0.0, 20.0]
n_trials: 40
grid_size: 121
seed: 9
admm: {max_iters: 400}
"""


def wait_readable(fd, timeout=10.0):
    """Wait until another process has written to the pipe ``fd``, for at most ``timeout`` s."""
    select.select([fd], [], [], timeout)


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_run_tasks_returns_every_result_at_any_width(width):
    results, lost = fanout.run_tasks(5, lambda i: (i, [i] * i), width)
    assert results == {i: (i, [i] * i) for i in range(5)} and lost == {}
    no_children_left()


def test_a_worker_that_dies_loses_only_its_own_tasks():
    parent = os.getpid()
    claimed_r, claimed_w = os.pipe()

    def task(i):
        if os.getpid() != parent:
            os.write(claimed_w, b"x")
            os._exit(7)
        wait_readable(claimed_r)  # until the worker has claimed the other task
        return i

    try:
        results, lost = fanout.run_tasks(2, task, 2)
    finally:
        os.close(claimed_r)
        os.close(claimed_w)
    assert len(lost) == 1 and set(lost.values()) == {7}
    assert set(results) | set(lost) == {0, 1} and not set(results) & set(lost)
    no_children_left()


def test_an_orphaned_worker_leaves_at_its_next_boundary():
    # A forked stand-in for a run claims one task and dies in it without
    # reaping its worker; the worker, polling at its task boundaries, must
    # notice and exit rather than run on for nobody.
    report_r, report_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        claimed_r, claimed_w = os.pipe()

        def task(i):
            if fanout._parent is None:
                wait_readable(claimed_r)  # until the worker has claimed the other task
                os._exit(0)  # the stand-in run dies
            os.write(report_w, str(os.getpid()).encode())
            os.write(claimed_w, b"x")
            for _ in range(1000):
                fanout.leave_if_orphaned()
                time.sleep(0.01)
            os._exit(5)  # never orphaned: the test fails below

        try:
            fanout.run_tasks(2, task, 2)
        finally:
            os._exit(0)
    os.close(report_w)
    os.waitpid(pid, 0)
    worker = int(os.read(report_r, 32))
    os.close(report_r)
    stat = Path(f"/proc/{worker}/stat")
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            if stat.read_text().rsplit(")", 1)[1].split()[0] in "ZX":
                break
        except OSError:
            break  # gone and reaped
        time.sleep(0.02)
    else:
        pytest.fail(f"orphaned worker {worker} still running")


def test_a_dead_worker_fails_every_cell_of_its_chain(tmp_path, monkeypatch, capsys):
    # The guard is forced on; a design that runs in a worker kills it
    # with status 3 before it can report, so every cell of the chain that
    # worker claimed fails, and the chain this process ran completes.
    parent = os.getpid()
    monkeypatch.setattr(fanout, "processes", lambda n: 2)
    claimed_r, claimed_w = os.pipe()

    def dies_in_a_worker(real):
        def design(*args, **kwargs):
            if os.getpid() != parent:
                os.write(claimed_w, b"x")
                os._exit(3)
            wait_readable(claimed_r)  # until the worker has claimed the other chain
            return real(*args, **kwargs)
        return design

    for name in ("solve_pcrb", "baseline_crb"):
        monkeypatch.setattr(scenario_mod, name, dies_in_a_worker(getattr(scenario_mod, name)))
    cfg = tmp_path / "k.cfg"
    cfg.write_text(FIVE_METHODS_CFG.replace("[pcrb, psbp-fair, psbp-int, crb, omni]",
                                            "[pcrb, crb]"))
    out = tmp_path / "out"
    try:
        assert run_scenario(cfg, out=out) == 2
    finally:
        os.close(claimed_r)
        os.close(claimed_w)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["workers"] == 2
    failed = {f["cell"] for f in manifest["failures"]}
    assert {f["error"] for f in manifest["failures"]} == {"worker process exited with status 3"}
    chains = {m: {f"{m}-k1.2", f"{m}-k2"} for m in ("pcrb", "crb")}
    assert failed in chains.values()
    done = (chains["pcrb"] | chains["crb"]) - failed
    assert {rel.split("/")[0] for rel in manifest["files"]} == done
    assert capsys.readouterr().out.splitlines() == [
        f"cell {c} failed: worker process exited with status 3" for c in sorted(failed)]
    no_children_left()


def cli_env():
    """The environment of a fresh process that loads priorwave before numpy,
    with the package's own BLAS thread default."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("threads, workers", [(0, min(5, CPUS)),
                                              (1, 1)])
def test_a_second_thread_keeps_the_run_in_one_process(tmp_path, threads, workers):
    # In a fresh process with no BLAS threads the run fans out; one more
    # live thread makes forking unsafe, and the run stays in one process.
    cfg = tmp_path / "k.cfg"
    cfg.write_text(FIVE_METHODS_CFG.replace("n_trials: 40", "n_trials: 0"))
    script = (
        "import sys, threading\n"
        "from priorwave.scenario import run_scenario\n"
        "stop = threading.Event()\n"
        "waiters = [threading.Thread(target=stop.wait) for _ in range(int(sys.argv[3]))]\n"
        "[w.start() for w in waiters]\n"
        "code = run_scenario(sys.argv[1], out=sys.argv[2])\n"
        "stop.set()\n"
        "sys.exit(code)\n"
    )
    subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "out"),
                    str(threads)], env=cli_env(), check=True, capture_output=True)
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["workers"] == workers


@pytest.mark.skipif(shutil.which("taskset") is None or shutil.which("diff") is None,
                    reason="needs taskset and diff")
def test_tables_do_not_depend_on_the_worker_count(tmp_path):
    # pytest loads numpy, with its BLAS threads, before priorwave, so an
    # in-process run stays in one process. A fresh CLI process loads
    # priorwave first, which asks for one BLAS thread, and fans out over the
    # CPUs.
    cfg = tmp_path / "five.cfg"
    cfg.write_text(FIVE_METHODS_CFG)
    env = cli_env()
    cli = [sys.executable, "-m", "priorwave.cli", "run", "--config", str(cfg), "--out"]
    outs = {"default": [], "one-cpu": ["taskset", "-c", "0"]}
    for name, head in outs.items():
        subprocess.run(head + cli + [str(tmp_path / name)], env=env, check=True,
                       capture_output=True)
        assert validate_output_dir(tmp_path / name) == []
    diff = subprocess.run(["diff", "-r", "-x", "manifest.json", str(tmp_path / "default"),
                           str(tmp_path / "one-cpu")], capture_output=True, text=True)
    assert diff.returncode == 0, diff.stdout
    workers = {name: json.loads((tmp_path / name / "manifest.json").read_text())["workers"]
               for name in outs}
    assert workers == {"default": min(5, CPUS), "one-cpu": 1}
