from dataclasses import astuple, replace
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from priorwave import (
    AngularGrid,
    ArrayConfig,
    DistributionMoments,
    MixtureGaussian,
    MixtureUniform,
    baseline_crb,
    baseline_omni,
    beampattern,
    compute_moments,
    pcrb_theta,
    solve_pcrb,
    solve_psbp_fair,
    solve_psbp_integrated,
    steering_matrix,
    waveform_feasibility,
)
from priorwave.scenario import _cell_seed, load_config
from priorwave import solvers
from priorwave.admm import _CAP_SLACK, _project_feasible, _XUpdate
from priorwave.priors import _point_moments
from priorwave.relaxation import fair_relaxation, synthesize
from priorwave.solvers import (_SYNTH_STARTS, AdmmState, _eta_update, _fair_admm,
                               _inflate_columns, _initial_waveform, _level_penalty)
from conftest import covariance, random_feasible_waveform

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "priorwave" / "configs"


def random_start(cfg, seed):
    """The seed's random constant-modulus waveform with zero duals: a fair
    start far from the optimum, whose solve runs a long straight-line tail."""
    x0 = _initial_waveform(cfg, np.random.default_rng(seed))
    return AdmmState(x0, np.zeros_like(x0))


def fair_angles(dist, grid):
    """The fair design's constraint angles and their densities: the grid
    points whose density is at least 1e-6 of its peak."""
    f = dist.pdf(grid.points)
    mask = f >= 1e-6 * f.max()
    return grid.points[mask], f[mask]


def fair_relaxation_of(dist, cfg, grid):
    """The covariance relaxation over the fair design's constraint angles,
    ``(R, t, gap, w, d)``."""
    pts, f = fair_angles(dist, grid)
    return fair_relaxation(steering_matrix(pts, cfg.m_t), f, cfg.power,
                           cfg.papr * cfg.power / cfg.m_t)


def assert_feasible(result, cfg):
    feas = waveform_feasibility(result.waveform, cfg)
    assert feas.power_error <= 1e-8 * cfg.power
    assert feas.papr_margin >= -1e-9 * cfg.elem_bound


def test_solve_pcrb_feasible_and_deterministic(mom12, cfg12):
    r1 = solve_pcrb(mom12, cfg12, seed=9, max_iters=2000)
    r2 = solve_pcrb(mom12, cfg12, seed=9, max_iters=2000)
    assert_feasible(r1, cfg12)
    assert r1.waveform.tobytes() == r2.waveform.tobytes()
    assert r1.metric_value == r2.metric_value
    assert np.array_equal(r1.trace.residual, r2.trace.residual)


def test_solve_pcrb_al_descent_and_convergence(mom12, cfg12):
    r = solve_pcrb(mom12, cfg12, seed=1)
    assert r.converged
    assert r.trace.monotone_violations(1e-9) == 0
    assert r.trace.residual[-1] <= 1e-8


def test_objective_never_beats_power_only_cap(mom12, cfg12):
    sym = mom12.xi0 + mom12.xi0.conj().T
    cap = 0.5 * cfg12.power * np.linalg.eigvalsh(sym).max()
    for kappa in (1.2, 2.0, 8.0):
        cfg = ArrayConfig(8, 8, 25, power=1.0, papr=kappa)
        r = solve_pcrb(mom12, cfg, seed=4, max_iters=1500)
        val = np.vdot(r.waveform, mom12.xi0 @ r.waveform).real
        assert val <= cap * (1 + 1e-9)


def test_rayleigh_cap_reached_when_papr_slack(mom12):
    cfg = ArrayConfig(8, 8, 25, power=1.0, papr=200.0)
    r = solve_pcrb(mom12, cfg, seed=1)
    sym = mom12.xi0 + mom12.xi0.conj().T
    cap = 0.5 * cfg.power * np.linalg.eigvalsh(sym).max()
    val = np.vdot(r.waveform, mom12.xi0 @ r.waveform).real
    assert val >= 0.99 * cap


def certified_designs(mom, cfg, theta0=0.05):
    """Each quadratic design as ``(objective Xi, solve(seed, **kw))``."""
    return {
        "pcrb": (mom.xi0, lambda seed, **kw: solve_pcrb(mom, cfg, seed, **kw)),
        "int": (mom.xi3 / cfg.m_r,
                lambda seed, **kw: solve_psbp_integrated(mom, cfg, seed, **kw)),
        "crb": (_point_moments(theta0, cfg).xi0,
                lambda seed, **kw: baseline_crb(theta0, cfg, seed, **kw)),
    }


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_quadratic_design_starts_at_its_certified_optimum(mom12, seed):
    # At kappa 1.5 the top eigenvector v of Xi + Xi^H meets the case 1-2
    # element cap for all three quadratic designs (crb's at any kappa: its
    # Xi is rank one with a constant-modulus eigenvector). X = v 1^T
    # sqrt(P / L) then attains the power-sphere bound P lambda_max(Xi_h),
    # which no waveform beats; the loop confirms it in two iterations from
    # any seed, and whatever warm start it was handed.
    cfg = ArrayConfig(8, 8, 25, power=1.0, papr=1.5)
    rng = np.random.default_rng(seed)
    x = random_feasible_waveform(rng, cfg)
    starts = [None, AdmmState(x, 0.01 * rng.normal(size=x.shape) + 0j),
              AdmmState(x, np.zeros_like(x), mu=3.0)]
    for name, (xi, solve) in certified_designs(mom12, cfg).items():
        bound = cfg.power * np.linalg.eigvalsh(0.5 * (xi + xi.conj().T)).max()
        for start in starts:
            r = solve(seed, warm_start=start)
            value = np.vdot(r.waveform, xi @ r.waveform).real
            assert abs(value - bound) <= 1e-12 * bound, (name, start is None)
            assert r.converged and len(r.trace) == 2, name
            assert_feasible(r, cfg)


def test_crb_design_is_certified_at_every_kappa(mom12):
    for kappa in (1.0, 1.2, 2.0):
        cfg = ArrayConfig(8, 8, 25, power=1.0, papr=kappa)
        xi, solve = certified_designs(mom12, cfg, theta0=-0.4)["crb"]
        r = solve(3)
        bound = cfg.power * np.linalg.eigvalsh(0.5 * (xi + xi.conj().T)).max()
        assert abs(np.vdot(r.waveform, xi @ r.waveform).real - bound) <= 1e-12 * bound
        assert len(r.trace) == 2, kappa
        assert_feasible(r, cfg)


def test_cap_binding_design_keeps_its_seed_drawn_start():
    # case-1-3 pcrb at kappa 1.2: the top eigenvector breaks the element
    # cap, and the ascent from it ends 0.9% below those from the cell
    # seed's beams, so the design is a seed draw's end, after 120 steps. A
    # warm start puts its beam before the seed's draws, which still run,
    # so the warm solve ends no worse.
    sc = load_config(CONFIG_DIR / "case-1-3.cfg")
    cfg = replace(sc.array, papr=1.2)
    mom = compute_moments(sc.distribution, cfg)
    seed = _cell_seed(sc.seed, "pcrb", 0, 0)
    r = solve_pcrb(mom, cfg, seed, max_iters=sc.max_iters)
    assert len(r.trace) == 120 and r.converged
    assert f"{r.metric_value:.8e}" == "2.19307750e-04"
    again = solve_pcrb(mom, cfg, seed, max_iters=sc.max_iters,
                       warm_start=random_start(cfg, seed))
    assert again.metric_value <= r.metric_value * (1 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m_t=st.integers(1, 8), rank=st.integers(1, 8),
       l_samples=st.integers(1, 6), kappa=st.floats(1.0, 4.0),
       log_power=st.floats(-1.0, 1.0), indefinite=st.booleans(), warm=st.booleans())
def test_beam_design_is_feasible_monotone_and_bounded(seed, m_t, rank, l_samples, kappa,
                                                      log_power, indefinite, warm):
    # A random positive semidefinite Xi of rank up to m_t plus a
    # skew-Hermitian part, which no waveform sees; ``indefinite`` shifts it
    # down by half its mean eigenvalue. The design is finite and feasible,
    # its ascent never falls, it never beats the power-sphere bound
    # P lambda_max(Xi_h), and it attains that bound where the top
    # eigenvector meets the cap.
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(m_t, 1, l_samples, power=10.0**log_power, papr=kappa)
    b = rng.normal(size=(m_t, rank)) + 1j * rng.normal(size=(m_t, rank))
    k = rng.normal(size=(m_t, m_t)) + 1j * rng.normal(size=(m_t, m_t))
    xi_h = b @ b.conj().T
    if indefinite:
        xi_h -= 0.5 * np.trace(xi_h).real / m_t * np.eye(m_t)
    xi = xi_h + (k - k.conj().T)
    lam, vecs = np.linalg.eigh(0.5 * (xi + xi.conj().T))
    scale = cfg.power * np.abs(lam).max()
    start = AdmmState(random_feasible_waveform(rng, cfg), None) if warm else None
    r = solvers._beam_design(xi, cfg, seed, lambda cov: float(np.vdot(cov, xi).real),
                             solvers._MAX_ITERS, start)
    x = r.waveform
    assert np.all(np.isfinite(x))
    assert abs(np.vdot(x, x).real - cfg.power) <= 1e-12 * cfg.power
    assert np.max(x.real**2 + x.imag**2) <= cfg.elem_bound * _CAP_SLACK
    assert r.trace.monotone_violations() == 0
    value = float(np.vdot(x, xi @ x).real)
    assert abs(value - r.metric_value) <= 1e-12 * scale
    assert value <= cfg.power * lam[-1] + 1e-12 * scale
    if np.all(np.abs(vecs[:, -1]) ** 2 * cfg.power <= kappa * cfg.power / m_t * _CAP_SLACK):
        assert abs(value - cfg.power * lam[-1]) <= 1e-12 * scale


def test_beam_design_through_a_zero_entry():
    # Xi = a a^H with a = (1, 0, -1): every target Xi x is zero in the
    # middle. The outer entries reach the cap kappa P / M_t = 0.4 in
    # opposite phase, the middle one holds the remaining 0.2 of the power,
    # and the value is the optimum |a^H x|^2 = (2 sqrt(0.4))^2 = 1.6.
    cfg = ArrayConfig(3, 1, 4, power=1.0, papr=1.2)
    a = np.array([1.0, 0.0, -1.0])
    xi = np.outer(a, a).astype(complex)
    mom = DistributionMoments(xi0=xi, xi1=xi, xi2=xi, xi3=xi, lam=0.0)
    r = solve_psbp_integrated(mom, cfg, 0)
    beam = r.waveform.sum(1) / np.sqrt(cfg.l_samples)
    assert abs(r.metric_value - 1.6) <= 1e-12
    assert np.allclose(np.abs(beam) ** 2, [0.4, 0.2, 0.4], rtol=0, atol=1e-12)
    assert abs(beam[0] / beam[2] + 1) <= 1e-12
    assert_feasible(r, cfg)


def test_bundled_case_1_4_integrated_design_reaches_its_dual_bound():
    # case-1-4 psbp-int at kappa 1.2 and its bundled cell seed: the dual
    # bound of the covariance relaxation is 1.9733561, and a design that
    # stops 7.3e-4 relative below it, at 1.9719198, is not good enough.
    sc = load_config(CONFIG_DIR / "case-1-4.cfg")
    cfg = replace(sc.array, papr=1.2)
    r = solve_psbp_integrated(compute_moments(sc.distribution, cfg), cfg,
                              _cell_seed(sc.seed, "psbp-int", 0, 0), max_iters=sc.max_iters)
    assert r.converged and r.metric_value >= 1.97335
    assert_feasible(r, cfg)


def test_shared_kernel_equivalence(mom12, cfg12):
    # Feed the bound solver the integrated solver's curvature matrix: the
    # two drivers must produce byte-identical waveforms from one seed.
    xi = mom12.xi3 / cfg12.m_r
    mom = DistributionMoments(xi0=xi, xi1=xi, xi2=xi, xi3=xi, lam=0.0)
    r_int = solve_psbp_integrated(mom12, cfg12, seed=21, max_iters=800)
    r_pcrb = solve_pcrb(mom, cfg12, seed=21, max_iters=800)
    assert r_int.waveform.tobytes() == r_pcrb.waveform.tobytes()
    assert np.array_equal(r_int.trace.objective, r_pcrb.trace.objective)


@pytest.mark.parametrize("dist", [
    MixtureUniform(((-np.pi / 18, np.pi / 18),), (1.0,)),
    MixtureUniform(((-0.6, -0.2), (0.1, 0.45)), (0.3, 0.7)),
    MixtureGaussian((-np.pi / 3, -np.pi / 6, np.pi / 9, 5 * np.pi / 18), np.pi / 90,
                    (0.15, 0.25, 0.4, 0.2)),
], ids=["case-1-2", "two-intervals", "scenario-3"])
def test_integrated_metric_matches_quad_integral(dist, cfg12):
    # The metric is the exact beampattern integral int f |X^H a|^2, here
    # by adaptive quadrature over the whole angle domain with the density's
    # edges and modes as breakpoints.
    mom = compute_moments(dist, cfg12)
    r = solve_psbp_integrated(mom, cfg12, seed=5, max_iters=300)
    breaks = (sorted(chain.from_iterable(dist.intervals)) if isinstance(dist, MixtureUniform)
              else sorted(dist.means))
    cov = covariance(r.waveform)
    total, _ = quad(lambda t: dist.pdf(t) * float(beampattern(cov, np.array([t]))[0]),
                    -np.pi / 2, np.pi / 2, points=breaks, limit=500, epsabs=0.0, epsrel=1e-10)
    assert abs(total - r.metric_value) <= 1e-6 * total


def test_inflate_columns_branches():
    h = np.array([[3.0 + 0j, 0.1 + 0.1j], [0.0, 0.2]])
    f = np.array([1.0, 2.0])
    out = _inflate_columns(h, np.linalg.norm(h, axis=0), f, eta=1.0)
    # First column already above the level: untouched.
    assert np.array_equal(out[:, 0], h[:, 0])
    # Second column inflated radially to squared norm f * eta.
    assert abs(np.linalg.norm(out[:, 1]) ** 2 - 2.0) < 1e-12
    assert abs(np.angle(out[0, 1]) - np.angle(h[0, 1])) < 1e-12
    # Every column above the level: h comes back as is.
    assert _inflate_columns(h, np.linalg.norm(h, axis=0), f, eta=1e-3) is h


def test_eta_update_matches_grid_search():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 15
        hn = rng.uniform(0.0, 2.0, n)
        f = rng.uniform(0.5, 3.0, n)
        rho3 = 2.0 / f.sum() * rng.uniform(2.0, 6.0)
        eta = _eta_update(hn, f, np.sqrt(f), 0.5 * rho3)

        def objective(etas):
            act = f[:, None] * etas[None, :] > (hn**2)[:, None]
            cost = (np.sqrt(f[:, None] * etas[None, :]) - hn[:, None]) ** 2
            return -etas + 0.5 * rho3 * np.sum(act * cost, axis=0)

        etas = np.linspace(1e-9, max(3 * eta, 1.0), 100000)
        best = etas[np.argmin(objective(etas))]
        step = etas[1] - etas[0]
        assert abs(best - eta) <= max(1e-4 * eta, 1.5 * step)


def eta_objective(etas, hn, f, rho3):
    cost = np.maximum(np.sqrt(f[:, None] * etas[None, :]) - hn[:, None], 0.0) ** 2
    return -etas + 0.5 * rho3 * cost.sum(axis=0)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), n_zero=st.integers(0, 3),
       n_tied=st.integers(0, 3), margin=st.sampled_from([1e-3, 0.3, 2.0, 10.0]))
def test_eta_update_matches_brute_force(seed, n, n_zero, n_tied, margin):
    # Zero norms put breakpoints at 0, tied breakpoints share one segment
    # end, and a rho3 just above its bound (margin 1e-3) makes every angle
    # active at the level.
    rng = np.random.default_rng(seed)
    hn = rng.uniform(0.0, 2.0, n)
    f = rng.uniform(0.1, 3.0, n)
    hn[:n_zero] = 0.0
    for j in range(n_zero, min(n_zero + n_tied, n - 1)):
        hn[j] = hn[-1] * np.sqrt(f[j] / f[-1])
    rho3 = 2.0 / f.sum() * (1.0 + margin)
    eta = _eta_update(hn, f, np.sqrt(f), 0.5 * rho3)

    # Two-stage grid over [0, hi]: hi bounds the minimizer from above (the
    # all-active root, or the last breakpoint).
    half = 0.5 * rho3
    hi = max((half * float(np.sqrt(f) @ hn) / (half * f.sum() - 1.0)) ** 2,
             float((hn**2 / f).max()), 1e-12)
    etas = np.linspace(0.0, hi, 20001)
    j = int(np.argmin(eta_objective(etas, hn, f, rho3)))
    fine = np.linspace(etas[max(j - 1, 0)], etas[min(j + 1, etas.size - 1)], 20001)
    best = fine[np.argmin(eta_objective(fine, hn, f, rho3))]
    j_best, j_eta = eta_objective(np.array([best, eta]), hn, f, rho3)
    assert j_eta <= j_best + 1e-11 * (1.0 + abs(j_best))
    assert abs(eta - best) <= 1e-5 * hi


def test_eta_update_requires_large_enough_rho():
    # The level update is bounded below only when (rho3/2) * sum(f) > 1;
    # the fair design's penalty makes that 20 * _SAFETY for any densities.
    f = np.array([0.3, 1.0, 2.5, 7.0])
    assert abs(0.5 * _level_penalty(f) * f.sum() - 20 * solvers._SAFETY) <= 1e-12
    assert 20 * solvers._SAFETY > 1.0


def test_fair_metric_is_min_scaled_beampattern(dist12, cfg12, grid361):
    r = solve_psbp_fair(dist12, cfg12, grid361, seed=2, max_iters=1200)
    f = dist12.pdf(grid361.points)
    mask = f >= 1e-6 * f.max()
    a = steering_matrix(grid361.points[mask], cfg12.m_t)
    ratios = np.sum(np.abs(r.waveform.conj().T @ a) ** 2, axis=0) / f[mask]
    assert abs(float(ratios.min()) - r.metric_value) <= 1e-6 * abs(r.metric_value)
    assert_feasible(r, cfg12)


@pytest.fixture(scope="module")
def fair12(dist12, cfg12, grid361):
    """Case 1-2 fair design at kappa 1.2 from the seed-1 random start, run
    to convergence in about 4,100 iterations."""
    return solve_psbp_fair(dist12, cfg12, grid361, seed=1, warm_start=random_start(cfg12, 1))


def test_fair_multiplier_root_takes_few_evaluations(fair12):
    # Case 1-2 at kappa 1.2: Newton warm-started at the previous multiplier
    # needs about 2.3 power-sum evaluations per x-update; from the lower
    # bound it needed about 9, and bracket plus bisection about 40.
    r = fair12
    assert r.converged
    assert float(r.trace.mu_iterations.mean()) <= 4.0
    # Within 1% of the level every converging seed reaches (1.2765-1.2766).
    assert r.metric_value >= 0.99 * 1.2765


def test_cold_fair_solve_starts_from_its_covariance_relaxation(dist12, cfg12, grid361):
    # Case 1-2 at kappa 1.2: from the relaxation optimum, synthesized from
    # the seed's draws, with the duals its dual point predicts, the solve
    # converges in 4 iterations (about 770 with zero duals; from the draw
    # itself it stops at the 5,000 cap), within 1e-4 of the relaxation's
    # bound and never above it.
    _, bound, gap, _, _ = fair_relaxation_of(dist12, cfg12, grid361)
    r = solve_psbp_fair(dist12, cfg12, grid361, seed=2)
    assert r.converged and len(r.trace) <= 50
    assert bound * (1 - 1e-4) <= r.metric_value <= bound + gap
    assert_feasible(r, cfg12)


@pytest.mark.parametrize("kappa", [1.2, 1.0])
def test_seeded_fair_start_converges_at_every_design_seed(kappa):
    # Case 1-4 at kappa 1.2 from the seeded start converges in 5-608
    # iterations at design seeds 1-8; with zero duals seed 8 stops at the
    # 5,000 cap and the rest take 2,540-4,776. At kappa 1 the diagonal is
    # pinned, its weights are not the element cap's multipliers, and only
    # the beampattern dual is seeded: 1,437-4,371 iterations.
    sc = load_config(CONFIG_DIR / "case-1-4.cfg")
    cfg = replace(sc.array, papr=kappa)
    grid = AngularGrid(sc.grid_size)
    for seed in range(1, 9):
        r = solve_psbp_fair(sc.distribution, cfg, grid, seed)
        assert r.converged, seed
        assert_feasible(r, cfg)


def test_fair_solve_never_ends_below_its_start(dist12, cfg12, grid361):
    # Case 1-2 at kappa 1.2 from seed 2: the seeded start already scores
    # above the point where the loop stops, 4 iterations later. The solve
    # returns the start's projection with the start, duals included, as
    # its state, and the trace and convergence flag of the loop that ran.
    cold = solve_psbp_fair(dist12, cfg12, grid361, seed=2)
    start = cold.state
    assert np.any(start.d) and start.mu is None and np.any(start.b)
    assert cold.waveform.tobytes() == _project_feasible(
        start.x, cfg12.power, cfg12.elem_bound).tobytes()
    pts, f = fair_angles(dist12, grid361)
    loop = _fair_admm(steering_matrix(pts, cfg12.m_t), f, cfg12,
                      lambda r: float(np.min(beampattern(r, pts) / f)), start)
    assert loop.converged and cold.converged
    assert loop.metric_value < cold.metric_value
    assert cold.metric_value == float(np.min(beampattern(covariance(cold.waveform), pts) / f))
    for a, b in zip(astuple(cold.trace), astuple(loop.trace)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert_feasible(cold, cfg12)


def test_capped_fair_solve_returns_its_last_x_update(dist12, cfg12, grid361):
    # Resumed mid-tail at caps 1-40. Whatever the cap, the result is the
    # exact projection of the last x-update, and the first iterations of a
    # longer run are those of a shorter one.
    mid = solve_psbp_fair(dist12, cfg12, grid361, seed=1, max_iters=600,
                          warm_start=random_start(cfg12, 1)).state
    runs = [solve_psbp_fair(dist12, cfg12, grid361, seed=1, max_iters=m,
                            warm_start=mid) for m in range(1, 41)]
    f = dist12.pdf(grid361.points)
    mask = f >= 1e-6 * f.max()
    a, f = steering_matrix(grid361.points[mask], cfg12.m_t), f[mask]
    for m, r in enumerate(runs, start=1):
        assert len(r.trace) == m
        assert_feasible(r, cfg12)
        assert abs(np.vdot(r.waveform, r.waveform).real - cfg12.power) <= 1e-12 * cfg12.power
        assert r.waveform.tobytes() == _project_feasible(
            r.state.x, cfg12.power, cfg12.elem_bound).tobytes()
        # The last traced objective is the min ratio of the returned iterate.
        w = r.state.x.conj().T @ a
        last = float(((w.real**2 + w.imag**2).sum(0) / f).min())
        assert abs(last - r.trace.objective[-1]) <= 1e-12 * last
        assert np.array_equal(r.trace.objective, runs[-1].trace.objective[:m])


def test_multiplier_root_misses_are_counted(monkeypatch, dist12, cfg12, grid361):
    # Stress spectrum: 1e-20 of psi on the bottom eigenvector (above the
    # hard-case cut) and a budget the other terms cannot reach at the pole,
    # so the root sits ~3e-11 above the pole, where one ulp of mu moves the
    # power sum by ~1e-5 relative and no float meets the 1e-12 tolerance.
    update = _XUpdate(np.diag([1.0, 2.0, 3.0, 5.0]).astype(complex), 8.0)
    q = np.outer([1e-10, 1.0, 1.0, 1.0], [1.0, 1j, -1.0]).astype(complex)
    assert update(q)[3] is False
    # Spectra away from the pole meet the tolerance.
    q[0] = 1.0
    assert update(q)[3] is True
    # The fair loop counts every x-update that reports a miss.
    call = _XUpdate.__call__
    monkeypatch.setattr(_XUpdate, "__call__",
                        lambda self, q, start=None: (*call(self, q, start)[:3], False))
    r = solve_psbp_fair(dist12, cfg12, grid361, seed=1, max_iters=7)
    assert r.trace.mu_tol_misses == len(r.trace) == 7


def test_iteration_cap_reports_non_convergence(dist12, mom12, cfg12, grid361):
    # The pcrb ascent from the top eigenvector converges in 5 steps here.
    for cap, r in ((3, solve_pcrb(mom12, cfg12, seed=3, max_iters=3)),
                   (5, solve_psbp_fair(dist12, cfg12, grid361, seed=3, max_iters=5))):
        assert r.converged is False
        assert len(r.trace) == cap
        assert_feasible(r, cfg12)


def test_returned_design_does_not_depend_on_the_seed(mom12, cfg12):
    # The projected last iterate is returned, so a converged design reads
    # the same from any start.
    values = [solve_pcrb(mom12, cfg12, seed=s).metric_value for s in (1, 2, 3)]
    assert max(values) - min(values) <= 1e-6 * min(values)


def test_bundled_case_2_3_fair_design_reaches_its_level():
    # case-2-3 psbp-fair at kappa 1.2 and its bundled cell seed converges
    # to 1.060, near the weak-duality bound 1.0686.
    sc = load_config(CONFIG_DIR / "case-2-3.cfg")
    cfg = replace(sc.array, papr=sc.kappa_list[0])
    r = solve_psbp_fair(sc.distribution, cfg, AngularGrid(sc.grid_size),
                        _cell_seed(sc.seed, "psbp-fair", 0, 0), max_iters=sc.max_iters)
    assert r.converged
    assert r.metric_value >= 1.05
    assert_feasible(r, cfg)


def test_warm_restart_from_a_converged_state_stops_at_once(
        dist12, mom12, cfg12, grid361, fair12):
    # Resuming at the same kappa continues a loop that has already met its
    # stop rule: the second iteration (the first that may stop) stops it.
    solves = {
        "pcrb": lambda **kw: solve_pcrb(mom12, cfg12, seed=1, **kw),
        "fair": lambda **kw: solve_psbp_fair(dist12, cfg12, grid361, seed=1, **kw),
        "int": lambda **kw: solve_psbp_integrated(mom12, cfg12, seed=1, **kw),
        "crb": lambda **kw: baseline_crb(0.05, cfg12, seed=1, **kw),
    }
    for name, solve in solves.items():
        first = fair12 if name == "fair" else solve()
        assert first.converged, name
        again = solve(warm_start=first.state)
        assert again.converged and len(again.trace) <= 2, name
        gap = abs(again.metric_value - first.metric_value)
        assert gap <= 1e-6 * abs(first.metric_value), name
        assert_feasible(again, cfg12)


def test_cold_start_is_the_warm_start_from_the_seeded_waveform(dist12, mom12, cfg12, grid361):
    # One start path: the cold solve from ``seed`` is, bit for bit, the warm
    # solve from the seed's start (whose own seed is then unused). The
    # quadratic designs start from the seed's constant-modulus draw with
    # zero duals. The fair design starts from the seed's draws synthesized
    # to the optimum of its covariance relaxation, fitted from the first
    # ``_SYNTH_STARTS`` draws, with the duals that the relaxation's dual
    # point ``(w, d)`` predicts at the loop's fixed point:
    # ``b_p = (2 / rho3) (w_p / f_p) x^H a_p`` and ``D = -(2 / rho) diag(d) x``,
    # ``rho = 2 rho3``.
    rng = np.random.default_rng(4)
    draws = [np.sqrt(cfg12.power / (cfg12.m_t * cfg12.l_samples)) * np.exp(1j * rng.uniform(
        0.0, 2.0 * np.pi, size=(cfg12.m_t, cfg12.l_samples))) for _ in range(_SYNTH_STARTS)]
    x0 = draws[0]
    r, _, _, w, d = fair_relaxation_of(dist12, cfg12, grid361)
    x_fair = synthesize(r, draws, cfg12.power, cfg12.elem_bound)
    pts, f = fair_angles(dist12, grid361)
    a = steering_matrix(pts, cfg12.m_t)
    rho3 = _level_penalty(f)
    seeded = AdmmState(x_fair, (-1.0 / rho3) * d[:, None] * x_fair, None,
                       (x_fair.conj().T @ a) * (w / (0.5 * rho3 * f)))
    solves = {
        "pcrb": lambda seed, **kw: solve_pcrb(mom12, cfg12, seed, **kw),
        "fair": lambda seed, **kw: solve_psbp_fair(dist12, cfg12, grid361, seed, **kw),
        "int": lambda seed, **kw: solve_psbp_integrated(mom12, cfg12, seed, **kw),
        "crb": lambda seed, **kw: baseline_crb(0.05, cfg12, seed, **kw),
    }
    for name, solve in solves.items():
        start = seeded if name == "fair" else AdmmState(x0, np.zeros_like(x0))
        cold = solve(4, max_iters=600)
        warm = solve(7, max_iters=600, warm_start=start)
        assert cold.waveform.tobytes() == warm.waveform.tobytes(), name
        assert cold.metric_value == warm.metric_value, name
        assert cold.converged == warm.converged, name
        for a, b in chain(zip(astuple(cold.trace), astuple(warm.trace)),
                          zip(astuple(cold.state), astuple(warm.state))):
            assert type(a) is type(b), name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


def test_warm_start_at_a_larger_kappa_is_feasible_and_no_worse(dist12, cfg12, grid361, fair12):
    # The kappa 1.2 design is feasible at 1.5, so resuming from it keeps
    # the level and the seed no longer matters.
    cfg = replace(cfg12, papr=1.5)
    runs = [solve_psbp_fair(dist12, cfg, grid361, seed=s, warm_start=fair12.state)
            for s in (1, 2)]
    assert runs[0].waveform.tobytes() == runs[1].waveform.tobytes()
    assert runs[0].converged
    assert runs[0].metric_value >= fair12.metric_value * (1 - 1e-5)
    assert_feasible(runs[0], cfg)


def test_warm_start_must_fit_the_waveform(mom12, cfg12, dist12, grid361):
    r = solve_pcrb(mom12, cfg12, seed=1, max_iters=5)
    with pytest.raises(ValueError, match="warm start"):
        solve_pcrb(mom12, replace(cfg12, l_samples=20), seed=1,
                   warm_start=r.state)
    # The fair design's duals must fit too, even where numpy would
    # broadcast them; a quadratic design reads only the waveform.
    x = r.state.x
    for d in (np.ones((8, 1)), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="warm start dual d"):
            solve_psbp_fair(dist12, cfg12, grid361, seed=1, max_iters=5,
                            warm_start=AdmmState(x, d))
    with pytest.raises(ValueError, match="warm start dual b"):
        solve_psbp_fair(dist12, cfg12, grid361, seed=1, max_iters=5,
                        warm_start=AdmmState(x, np.zeros_like(x), b=np.zeros((1, 1))))


def test_design_with_a_zero_objective_is_refused():
    # One receive element: xi0 = 0, so the bound designs have no objective
    # and no penalty scale; they are refused instead of returning NaN.
    cfg = ArrayConfig(4, 1, 8, papr=1.2)
    mom = _point_moments(0.3, cfg)
    assert not np.any(mom.xi0)
    for design in (lambda: solve_pcrb(mom, cfg, 0), lambda: baseline_crb(0.3, cfg, 0)):
        with pytest.raises(ValueError, match="zero for every waveform"):
            design()


def test_omni_baseline_properties():
    cfg = ArrayConfig(8, 8, 25, power=2.0)
    x = baseline_omni(cfg)
    bp = beampattern(covariance(x), np.linspace(-np.pi / 2, np.pi / 2, 181))
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
    r = baseline_crb(th0, cfg, seed=6, max_iters=1500)
    bp = beampattern(covariance(r.waveform), grid361.points)
    assert abs(grid361.points[np.argmax(bp)] - th0) <= grid361.cell + 1e-12
    mom0 = _point_moments(th0, cfg)
    crb_designed = pcrb_theta(covariance(r.waveform), mom0, 1.0, cfg.noise_power)
    crb_omni = pcrb_theta(covariance(baseline_omni(cfg)), mom0, 1.0, cfg.noise_power)
    assert crb_designed <= crb_omni
    r2 = baseline_crb(th0, cfg, seed=6, max_iters=1500)
    assert r2.waveform.tobytes() == r.waveform.tobytes()
