import numpy as np
import pytest

from priorwave import (
    AdmmConfig,
    AngularGrid,
    ArrayConfig,
    DistributionMoments,
    MixtureUniform,
    PointMass,
    baseline_crb,
    baseline_omni,
    beampattern,
    compute_moments,
    pcrb_theta,
    solve_pcrb,
    solve_psbp_fair,
    solve_psbp_integrated,
    steering_matrix,
)
from priorwave.solvers import _eta_update, _inflate_columns


def assert_feasible(result, cfg):
    assert result.feasibility.power_error <= 1e-8 * cfg.power
    assert result.feasibility.papr_margin >= -1e-9 * cfg.elem_bound


def test_solve_pcrb_feasible_and_deterministic(mom12, cfg12):
    admm = AdmmConfig(max_iters=2000)
    r1 = solve_pcrb(mom12, cfg12, admm, seed=9)
    r2 = solve_pcrb(mom12, cfg12, admm, seed=9)
    assert_feasible(r1, cfg12)
    assert r1.waveform.tobytes() == r2.waveform.tobytes()
    assert r1.metric_value == r2.metric_value
    assert np.array_equal(r1.trace.residual, r2.trace.residual)
    r3 = solve_pcrb(mom12, cfg12, admm, seed=10)
    assert r3.waveform.tobytes() != r1.waveform.tobytes()


def test_solve_pcrb_al_descent_and_convergence(mom12, cfg12):
    r = solve_pcrb(mom12, cfg12, AdmmConfig(), seed=1)
    assert r.converged
    assert r.trace.monotone_violations(1e-9) == 0
    assert r.trace.residual[-1] <= 1e-8


def test_objective_never_beats_power_only_cap(mom12, cfg12):
    sym = mom12.xi0 + mom12.xi0.conj().T
    cap = 0.5 * cfg12.power * np.linalg.eigvalsh(sym).max()
    for kappa in (1.2, 2.0, 8.0):
        cfg = ArrayConfig(8, 8, 25, power=1.0, papr=kappa)
        r = solve_pcrb(mom12, cfg, AdmmConfig(max_iters=1500), seed=4)
        val = np.vdot(r.waveform, mom12.xi0 @ r.waveform).real
        assert val <= cap * (1 + 1e-9)


def test_rayleigh_cap_reached_when_papr_slack(mom12):
    cfg = ArrayConfig(8, 8, 25, power=1.0, papr=200.0)
    r = solve_pcrb(mom12, cfg, AdmmConfig(), seed=1)
    sym = mom12.xi0 + mom12.xi0.conj().T
    cap = 0.5 * cfg.power * np.linalg.eigvalsh(sym).max()
    val = np.vdot(r.waveform, mom12.xi0 @ r.waveform).real
    assert val >= 0.99 * cap


def test_shared_kernel_equivalence(dist12, cfg12, grid361):
    # Feed the bound solver the integrated solver's curvature matrix: the
    # two drivers must produce byte-identical waveforms from one seed.
    f = dist12.pdf(grid361.points)
    mask = f >= 1e-6 * f.max()
    pts, w = grid361.points[mask], f[mask] * grid361.cell
    a = steering_matrix(pts, cfg12.m_t)
    xi = np.einsum("ip,p,kp->ik", a, w, a.conj())
    mom = DistributionMoments(xi0=xi, xi1=xi, xi2=xi, xi3=xi, lam=0.0, grid_size=361)
    admm = AdmmConfig(max_iters=800)
    r_int = solve_psbp_integrated(dist12, cfg12, grid361, admm, seed=21)
    r_pcrb = solve_pcrb(mom, cfg12, admm, seed=21)
    assert r_int.waveform.tobytes() == r_pcrb.waveform.tobytes()
    assert np.array_equal(r_int.trace.objective, r_pcrb.trace.objective)


def test_integrated_point_mass_focuses_on_target(grid361):
    cfg = ArrayConfig(8, 8, 25, power=1.0, papr=1.5)
    th0 = grid361.points[215]
    r = solve_psbp_integrated(PointMass(th0), cfg, grid361, AdmmConfig(max_iters=1500),
                              seed=3)
    bp = beampattern(r.waveform, grid361.points)
    peak = grid361.points[np.argmax(bp)]
    assert abs(peak - th0) <= grid361.cell + 1e-12
    assert_feasible(r, cfg)


def test_integrated_metric_matches_independent_sum(dist12, cfg12, grid361):
    r = solve_psbp_integrated(dist12, cfg12, grid361, AdmmConfig(max_iters=800), seed=5)
    f = dist12.pdf(grid361.points)
    mask = f >= 1e-6 * f.max()
    pts, w = grid361.points[mask], f[mask] * grid361.cell
    total = float(w @ beampattern(r.waveform, pts))
    assert abs(total - r.metric_value) <= 1e-9 * abs(total)


def test_integrated_bare_sum_mode(dist12, cfg12, grid361):
    r = solve_psbp_integrated(dist12, cfg12, grid361, AdmmConfig(max_iters=400),
                              seed=5, bare_sum=True)
    f = dist12.pdf(grid361.points)
    mask = f >= 1e-6 * f.max()
    total = float(f[mask] @ beampattern(r.waveform, grid361.points[mask]))
    assert abs(total - r.metric_value) <= 1e-9 * abs(total)


def test_inflate_columns_branches():
    h = np.array([[3.0 + 0j, 0.1 + 0.1j], [0.0, 0.2]])
    f = np.array([1.0, 2.0])
    out = _inflate_columns(h, f, eta=1.0)
    # First column already above the level: untouched.
    assert np.array_equal(out[:, 0], h[:, 0])
    # Second column inflated radially to squared norm f * eta.
    assert abs(np.linalg.norm(out[:, 1]) ** 2 - 2.0) < 1e-12
    assert abs(np.angle(out[0, 1]) - np.angle(h[0, 1])) < 1e-12


def test_eta_update_matches_grid_search():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 15
        hn = rng.uniform(0.0, 2.0, n)
        f = rng.uniform(0.5, 3.0, n)
        rho3 = 2.0 / f.sum() * rng.uniform(2.0, 6.0)
        eta = _eta_update(hn, f, rho3)

        def objective(etas):
            act = f[:, None] * etas[None, :] > (hn**2)[:, None]
            cost = (np.sqrt(f[:, None] * etas[None, :]) - hn[:, None]) ** 2
            return -etas + 0.5 * rho3 * np.sum(act * cost, axis=0)

        etas = np.linspace(1e-9, max(3 * eta, 1.0), 100000)
        best = etas[np.argmin(objective(etas))]
        step = etas[1] - etas[0]
        assert abs(best - eta) <= max(1e-4 * eta, 1.5 * step)


def test_eta_update_requires_large_enough_rho():
    hn = np.ones(4)
    f = np.ones(4)
    with pytest.raises(RuntimeError, match="rho3"):
        _eta_update(hn, f, rho3=0.1)  # (rho3/2) * sum(f) < 1


def test_fair_metric_is_min_scaled_beampattern(dist12, cfg12, grid361):
    r = solve_psbp_fair(dist12, cfg12, grid361, AdmmConfig(max_iters=1200), seed=2)
    f = dist12.pdf(grid361.points)
    mask = f >= 1e-6 * f.max()
    ratios = beampattern(r.waveform, grid361.points[mask]) / f[mask]
    assert abs(float(ratios.min()) - r.metric_value) <= 1e-6 * abs(r.metric_value)
    assert_feasible(r, cfg12)


def test_iteration_cap_reports_non_convergence(dist12, mom12, cfg12, grid361):
    admm = AdmmConfig(max_iters=5)
    for r in (solve_pcrb(mom12, cfg12, admm, seed=3),
              solve_psbp_fair(dist12, cfg12, grid361, admm, seed=3)):
        assert r.converged is False
        assert r.iterations == len(r.trace) == 5
        assert_feasible(r, cfg12)


def test_fair_rejects_point_mass(grid361, cfg12):
    with pytest.raises(ValueError, match="density"):
        solve_psbp_fair(PointMass(0.1), cfg12, grid361, AdmmConfig(), seed=0)


def test_omni_baseline_properties():
    cfg = ArrayConfig(8, 8, 25, power=2.0)
    x = baseline_omni(cfg)
    bp = beampattern(x, np.linspace(-np.pi / 2, np.pi / 2, 181))
    assert bp.max() / bp.min() <= 1 + 1e-9
    mags = np.abs(x) ** 2
    papr = mags.max() / mags.mean()
    assert abs(papr - 1.0) <= 1e-12
    assert abs(np.sum(mags) - cfg.power) <= 1e-12
    with pytest.raises(ValueError):
        baseline_omni(ArrayConfig(8, 8, 4))


def test_crb_baseline_focuses_and_beats_omni(grid361):
    cfg = ArrayConfig(8, 8, 25, power=1.0, papr=1.5)
    th0 = grid361.points[240]
    r = baseline_crb(th0, cfg, AdmmConfig(max_iters=1500), seed=6)
    bp = beampattern(r.waveform, grid361.points)
    assert abs(grid361.points[np.argmax(bp)] - th0) <= grid361.cell + 1e-12
    mom0 = compute_moments(PointMass(th0), cfg)
    crb_designed = pcrb_theta(r.waveform, mom0, 1.0, cfg.noise_power)
    crb_omni = pcrb_theta(baseline_omni(cfg), mom0, 1.0, cfg.noise_power)
    assert crb_designed <= crb_omni
    r2 = baseline_crb(th0, cfg, AdmmConfig(max_iters=1500), seed=6)
    assert r2.waveform.tobytes() == r.waveform.tobytes()
