"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. The heavier Monte-Carlo studies behind the published figures are
not reproduced here; the bundled configs under ``priorwave/configs`` run
them offline.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from priorwave import (
    AngularGrid,
    ArrayConfig,
    MixtureGaussian,
    MixtureUniform,
    baseline_omni,
    beampattern,
    compute_moments,
    pcrb_theta,
    pcrb_upper_bound,
    solve_pcrb,
    solve_psbp_fair,
    solve_psbp_integrated,
    steering_matrix,
    steering_derivative_matrix,
    waveform_feasibility,
)
from priorwave.admm import _cap_elements
from priorwave.priors import _point_moments
from priorwave.scenario import run_scenario
from priorwave.solvers import _eta_update

from conftest import covariance, posterior_fim, random_feasible_waveform, x_update
from test_pcrb import expected_loglik_curvature

SEED = 2024


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d}: {status} ({elapsed:5.1f}s < {budget:g}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: runtime {elapsed:.1f}s over {budget}s"


@contextmanager
def _timed():
    box = {}
    t0 = time.monotonic()
    yield box
    box["elapsed"] = time.monotonic() - t0


def test_criterion_01_steering_identities():
    with _timed() as t:
        rng = np.random.default_rng(SEED)
        worst_inner = 0.0
        worst_mod = 0.0
        for _ in range(100):
            th = rng.uniform(-np.pi / 2, np.pi / 2)
            a = steering_matrix(th, 8)
            da = steering_derivative_matrix(th, 8)
            worst_inner = max(worst_inner, abs(np.vdot(da, a)))
            worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(a) - 1.0))))
    ok = worst_inner <= 1e-10 and worst_mod <= 1e-12
    _report(1, ok, f"|<da,a>|max={worst_inner:.2e} |mod-1|max={worst_mod:.2e}",
            t["elapsed"], 1.0)


def test_criterion_02_fisher_oracle():
    with _timed() as t:
        cfg = ArrayConfig(2, 2, 3, noise_power=1.3)
        theta0, amp = 0.35, 0.7 + 0.4j
        rng = np.random.default_rng(SEED)
        x = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        mom = _point_moments(theta0, cfg)
        got = 2.0 * abs(amp) ** 2 / cfg.noise_power * np.vdot(x, mom.xi1 @ x).real
        oracle = expected_loglik_curvature(x, theta0, amp, cfg.noise_power, cfg.m_r)
        rel = abs(got - oracle) / abs(oracle)
    _report(2, rel <= 1e-4, f"rel err {rel:.2e} (tol 1e-4)", t["elapsed"], 5.0)


def test_criterion_03_bound_ordering(mom12, cfg12):
    with _timed() as t:
        rng = np.random.default_rng(SEED)
        violations = 0
        for _ in range(100):
            x = random_feasible_waveform(rng, cfg12)
            amp = rng.normal() + 1j * rng.normal()
            r = covariance(x)
            if pcrb_theta(r, mom12, amp, 1.0) > pcrb_upper_bound(r, mom12, amp, 1.0):
                violations += 1
    _report(3, violations == 0, f"{violations} ordering violations of 100",
            t["elapsed"], 5.0)


def test_criterion_04_schur_equivalence(prior_moments, cfg12):
    with _timed() as t:
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for mom in prior_moments.values():
            for _ in range(50):
                x = random_feasible_waveform(rng, cfg12)
                amp = rng.normal() + 1j * rng.normal()
                pcrb = pcrb_theta(covariance(x), mom, amp, 1.1)
                inv11 = np.linalg.inv(posterior_fim(x, mom, amp, 1.1))[0, 0]
                worst = max(worst, abs(inv11 - pcrb) / pcrb)
    _report(4, worst <= 1e-10, f"worst rel err {worst:.2e} (tol 1e-10)",
            t["elapsed"], 5.0)


def test_criterion_05_gaussian_prior_fisher():
    with _timed() as t:
        cfg = ArrayConfig(4, 4, 8)
        worst = 0.0
        for sigma in (np.pi / 360, np.pi / 180, np.pi / 90, np.pi / 45):
            mom = compute_moments(MixtureGaussian((0.0,), sigma, (1.0,)), cfg)
            worst = max(worst, abs(mom.lam - 1 / sigma**2) * sigma**2)
    _report(5, worst <= 1e-8, f"worst rel err {worst:.2e} (tol 1e-8)",
            t["elapsed"], 5.0)


def test_criterion_06_admm_convergence(mom12, cfg12):
    with _timed() as t:
        result = solve_pcrb(mom12, cfg12, seed=SEED)
        increases = result.trace.monotone_violations(slack=1e-9)
        resid_ok = result.converged and result.trace.residual[-1] <= 1e-8
        feas = waveform_feasibility(result.waveform, cfg12)
        power_ok = feas.power_error <= 1e-8 * cfg12.power
        papr_ok = feas.papr_margin >= -1e-9 * cfg12.elem_bound
        ok = increases == 0 and resid_ok and power_ok and papr_ok
        detail = (f"AL increases={increases} resid={result.trace.residual[-1]:.1e} "
                  f"iters={len(result.trace)} power_err={feas.power_error:.1e} "
                  f"papr_margin={feas.papr_margin:.1e}")
    _report(6, ok, detail, t["elapsed"], 30.0)


def test_criterion_07_papr_trend(mom12):
    with _timed() as t:
        bound_vals = []
        int_vals = []
        for kappa in (1.2, 1.5, 2.0):
            cfg = ArrayConfig(8, 8, 25, power=1.0, papr=kappa)
            bound_vals.append(solve_pcrb(mom12, cfg, SEED).metric_value)
            int_vals.append(
                solve_psbp_integrated(mom12, cfg, SEED).metric_value
            )
        slack = 1e-12
        bound_mono = all(a >= b - slack * abs(a) for a, b in zip(bound_vals, bound_vals[1:]))
        int_mono = all(a <= b + slack * abs(b) for a, b in zip(int_vals, int_vals[1:]))
    _report(
        7, bound_mono and int_mono,
        f"bound={['%.6e' % v for v in bound_vals]} integrated={['%.4f' % v for v in int_vals]}",
        t["elapsed"], 120.0,
    )


def test_criterion_08_rayleigh_cap(mom12):
    with _timed() as t:
        cfg = ArrayConfig(8, 8, 25, power=1.0, papr=8 * 25)
        result = solve_pcrb(mom12, cfg, seed=SEED)
        sym = mom12.xi0 + mom12.xi0.conj().T
        cap = 0.5 * cfg.power * float(np.linalg.eigvalsh(sym).max())
        val = float(np.vdot(result.waveform, mom12.xi0 @ result.waveform).real)
        ratio = val / cap
    _report(8, ratio >= 0.99, f"objective at {100 * ratio:.3f}% of the cap",
            t["elapsed"], 30.0)


def test_criterion_09_subproblem_oracles():
    with _timed() as t:
        rng = np.random.default_rng(SEED)

        # Element projection against a brute-force disc search.
        bound = 0.04
        w = 0.5 * (rng.normal(size=10000) + 1j * rng.normal(size=10000))
        proj = _cap_elements(w.copy(), bound)
        proj_dist = np.abs(w - proj)
        r = np.sqrt(bound) * np.sqrt(rng.random(10000))
        phi = rng.uniform(0, 2 * np.pi, 10000)
        samples = r * np.exp(1j * phi)
        samples[:3000] = np.sqrt(bound) * np.exp(1j * phi[:3000])
        papr_ok = True
        for start in range(0, 10000, 500):
            chunk = w[start:start + 500, None] - samples[None, :]
            best = np.min(np.abs(chunk), axis=1)
            if not np.all(best >= proj_dist[start:start + 500] - 1e-12):
                papr_ok = False
                break

        # Level update against a dense grid search.
        eta_ok = True
        for _ in range(5):
            hn = rng.uniform(0.0, 2.0, 12)
            f = rng.uniform(0.5, 3.0, 12)
            rho3 = 2.0 / f.sum() * rng.uniform(2.0, 6.0)
            eta = _eta_update(hn, f, np.sqrt(f), 0.5 * rho3)
            etas = np.linspace(1e-9, max(3 * eta, 1.0), 100000)
            act = f[:, None] * etas[None, :] > (hn**2)[:, None]
            cost = (np.sqrt(f[:, None] * etas[None, :]) - hn[:, None]) ** 2
            obj = -etas + 0.5 * rho3 * np.sum(act * cost, axis=0)
            best = etas[np.argmin(obj)]
            step = etas[1] - etas[0]
            if abs(best - eta) > max(1e-4 * eta, 1.5 * step):
                eta_ok = False
                break

        # Power-constrained quadratic update stationarity.
        kkt_ok = True
        worst_kkt = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 8))
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            pmat = 0.5 * (h + h.conj().T)
            q = rng.normal(size=(n, 6)) + 1j * rng.normal(size=(n, 6))
            power = float(rng.uniform(0.5, 3.0))
            x, mu = x_update(q, pmat, power)
            resid = float(np.linalg.norm((pmat + 2 * mu * np.eye(n)) @ x - q))
            worst_kkt = max(worst_kkt, resid)
            if resid > 1e-8 or abs(np.sum(np.abs(x) ** 2) - power) > 1e-10 * power:
                kkt_ok = False
        ok = papr_ok and eta_ok and kkt_ok
    _report(9, ok, f"papr_oracle={papr_ok} eta_oracle={eta_ok} "
                   f"kkt={kkt_ok} (worst resid {worst_kkt:.1e})", t["elapsed"], 60.0)


def test_criterion_10_beampattern_focusing(grid361):
    with _timed() as t:
        levels = {}
        for name, half in (("1-1", np.pi / 36), ("1-2", np.pi / 18), ("1-3", np.pi / 9)):
            dist = MixtureUniform(((-half, half),), (1.0,))
            cfg = ArrayConfig(8, 8, 25, power=1.0, papr=1.2)
            mom = compute_moments(dist, cfg)
            support = grid361.points[np.abs(grid361.points) <= half + 1e-9]
            mins = {}
            mins["pcrb"] = float(beampattern(
                covariance(solve_pcrb(mom, cfg, SEED).waveform), support).min())
            mins["fair"] = float(beampattern(
                covariance(solve_psbp_fair(dist, cfg, grid361, SEED).waveform), support).min())
            mins["int"] = float(beampattern(
                covariance(solve_psbp_integrated(mom, cfg, SEED).waveform),
                support).min())
            levels[name] = mins
        above_omni = all(
            v > 1.0 for case in ("1-1", "1-2") for v in levels[case].values()
        )
        fair_wins_13 = levels["1-3"]["fair"] > max(levels["1-3"]["pcrb"],
                                                   levels["1-3"]["int"])
        detail = "; ".join(
            f"{c}: " + " ".join(f"{k}={v:.3f}" for k, v in sorted(m.items()))
            for c, m in levels.items()
        )
    _report(10, above_omni and fair_wins_13, detail, t["elapsed"], 180.0)


def test_criterion_11_estimation_vs_bound(grid361):
    from priorwave import monte_carlo_mse

    with _timed() as t:
        dist = MixtureUniform(((-np.pi / 36, np.pi / 36),), (1.0,))
        cfg = ArrayConfig(8, 8, 25, power=1.0, papr=1.2)
        waveform = solve_psbp_fair(dist, cfg, grid361, SEED).waveform
        report = monte_carlo_mse(covariance(waveform), dist, cfg, grid361, [0.0, 10.0, 20.0],
                                 n_trials=500, seed=SEED)
        ratios = {r.snr_db: r.mse / r.pcrb for r in report}
        window_ok = 0.5 <= ratios[20.0] <= 2.0
        floor_ok = all(v >= 0.5 for v in ratios.values())
        detail = " ".join(f"snr{int(s)}:{v:.2f}x" for s, v in sorted(ratios.items()))
    _report(11, window_ok and floor_ok, f"mse/pcrb {detail}", t["elapsed"], 300.0)


def test_criterion_12_run_determinism(tmp_path):
    with _timed() as t:
        cfg = tmp_path / "desk.cfg"
        cfg.write_text(
            "array: {m_t: 8, m_r: 8, l_samples: 25}\n"
            "distribution:\n"
            "  kind: mixture-uniform\n"
            "  intervals_deg: [[-10.0, 10.0]]\n"
            "  weights: [1.0]\n"
            "methods: [pcrb, psbp-int, omni]\n"
            "kappa_list: [1.2]\n"
            "snr_list_db: [10.0]\n"
            "n_trials: 20\n"
            "grid_size: 181\n"
            "seed: 7\n"
            "admm: {max_iters: 400}\n"
        )
        outs = [tmp_path / f"run{i}" for i in range(3)]
        codes = [run_scenario(cfg, out=o) for o in outs]
        files = json.loads((outs[0] / "manifest.json").read_text())["files"]
        identical = bool(files)
        for rel in files:
            ref = (outs[0] / rel).read_bytes()
            if (outs[1] / rel).read_bytes() != ref or (outs[2] / rel).read_bytes() != ref:
                identical = False
                break
        ok = codes == [0, 0, 0] and identical
    _report(12, ok, f"exit codes {codes}, {len(files)} tables byte-identical",
            t["elapsed"], 120.0)
