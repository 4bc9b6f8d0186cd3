import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    covariance,
    lag_kernel,
    per_block_mse,
    random_feasible_waveform,
    received_block,
    synthesize_received,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from priorwave import (
    AngularGrid,
    ArrayConfig,
    MapEstimator,
    MixtureGaussian,
    MixtureUniform,
    baseline_crb,
    baseline_omni,
    lag_coefficients,
    monte_carlo_mse,
    pcrb_theta,
    solve_psbp_fair,
    steering_matrix,
)
from priorwave.priors import _point_moments
from priorwave.scenario import load_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "priorwave" / "configs"

SCENARIO3_PRIOR = MixtureGaussian(tuple(np.deg2rad([-60.0, -30.0, 20.0, 50.0])),
                                  np.deg2rad(1.0), (0.15, 0.25, 0.4, 0.2))


def clean_echo(x, theta, m_r, amplitude=1.0):
    a_t = steering_matrix(theta, x.shape[0])
    a_r = steering_matrix(theta, m_r)
    return amplitude * np.outer(a_r, a_t.conj() @ x)


def test_angular_grid_validation():
    g = AngularGrid(181)
    assert len(g) == 181 and len(g.points) == 181
    assert g.points[0] == -np.pi / 2 and g.points[-1] == np.pi / 2
    assert np.allclose(np.diff(g.points), g.cell, rtol=1e-12, atol=0)
    assert abs(g.cell - np.pi / 180) <= 1e-15
    assert AngularGrid(181) == g
    for size in (1, 0, -3):
        with pytest.raises(ValueError):
            AngularGrid(size)


def test_noiseless_echo_recovers_grid_angle(grid361):
    cfg = ArrayConfig(8, 8, 25)
    x = baseline_omni(cfg)
    prior = MixtureUniform(((-np.pi / 4, np.pi / 4),), (1.0,))
    th = grid361.points[200]
    coef = lag_coefficients(x, clean_echo(x, th, cfg.m_r)[None], cfg.m_r)
    est = MapEstimator(covariance(x), prior, grid361, cfg.m_r, cfg.noise_power, refine=False)
    assert est.estimate(coef)[0] == th
    est_r = MapEstimator(covariance(x), prior, grid361, cfg.m_r, cfg.noise_power, refine=True)
    assert abs(est_r.estimate(coef)[0] - th) <= 1e-6


def test_flat_prior_equals_concentrated_ml(grid361):
    cfg = ArrayConfig(8, 8, 25)
    x = baseline_omni(cfg)
    prior = MixtureUniform(((-0.6, 0.6),), (1.0,))
    rng = np.random.default_rng(0)
    coef = lag_coefficients(x, synthesize_received(x, 0.21, 1.2, cfg.m_r, 1.0, rng)[None],
                            cfg.m_r)
    est = MapEstimator(covariance(x), prior, grid361, cfg.m_r, 1.0, refine=False)
    # The scan covers the support points, where the prior is positive.
    score = est._scan(coef)[0]
    # Inside the interval the prior is constant: the MAP argmax must match
    # the bare concentrated likelihood argmax restricted to the interval.
    ll = score - est._log_prior_sup
    ml_idx = est._support[np.argmax(ll)]
    assert est.estimate(coef)[0] == grid361.points[ml_idx]


def test_map_estimator_one_shot_estimate(grid361):
    cfg = ArrayConfig(4, 4, 8)
    x = baseline_omni(cfg)
    prior = MixtureUniform(((-0.5, 0.5),), (1.0,))
    coef = lag_coefficients(x, clean_echo(x, grid361.points[190], cfg.m_r)[None], cfg.m_r)
    est = MapEstimator(covariance(x), prior, grid361, cfg.m_r, cfg.noise_power, refine=False)
    got = est.estimate(coef)
    assert got[0] == grid361.points[190]


def test_zero_prior_everywhere_rejected(grid361):
    cfg = ArrayConfig(4, 4, 8)
    x = baseline_omni(cfg)
    # 0.1 to 0.3 degrees lies between the 0 and 0.5 degree grid points.
    between = MixtureUniform(((np.deg2rad(0.1), np.deg2rad(0.3)),), (1.0,))
    with pytest.raises(ValueError):
        MapEstimator(covariance(x), between, grid361, cfg.m_r, 1.0)


def test_low_noise_mse_below_quantization_bound():
    cfg = ArrayConfig(8, 8, 25, noise_power=1.0)
    grid = AngularGrid(721)
    dist = MixtureUniform(((-0.3, 0.3),), (1.0,))
    x = baseline_omni(cfg)
    rep = monte_carlo_mse(covariance(x), dist, cfg, grid, [60.0], 100, seed=4)
    assert rep[0].mse <= grid.cell**2 / 4


def test_mse_decreases_with_snr_and_reproducible(dist12, cfg12, grid361):
    r = covariance(baseline_omni(cfg12))
    rep = monte_carlo_mse(r, dist12, cfg12, grid361, [0.0, 10.0, 20.0], 150, seed=8)
    mse = [r.mse for r in rep]
    se = [r.std_error for r in rep]
    for i in range(2):
        assert mse[i + 1] <= mse[i] + 2 * (se[i] + se[i + 1])
    rep2 = monte_carlo_mse(r, dist12, cfg12, grid361, [0.0, 10.0, 20.0], 150, seed=8)
    assert rep == rep2


def test_prior_dominates_at_very_low_snr(dist12, cfg12, grid361):
    x = baseline_omni(cfg12)
    lo, hi = dist12.intervals[0]
    n = 300
    inside = 0
    est = MapEstimator(covariance(x), dist12, grid361, cfg12.m_r, cfg12.noise_power)
    amp = np.sqrt(10 ** (-40 / 10))
    for t in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([99, 0, t]))
        th = dist12.sample(rng)
        ph = rng.uniform(0, 2 * np.pi)
        y = synthesize_received(x, th, amp * np.exp(1j * ph), cfg12.m_r, 1.0, rng)
        e = est.estimate(lag_coefficients(x, y[None], cfg12.m_r))[0]
        inside += (lo - grid361.cell <= e <= hi + grid361.cell)
    assert inside / n >= 0.99


def test_estimator_cannot_beat_crb_on_average(grid361):
    # A fixed true angle against a flat-prior estimator, with the per-trial
    # draws of ``monte_carlo_mse`` at 20 dB.
    cfg = ArrayConfig(8, 8, 25)
    truth = 0.1
    flat = MixtureUniform(((-np.pi / 2, np.pi / 2),), (1.0,))
    x = baseline_omni(cfg)
    est = MapEstimator(covariance(x), flat, grid361, cfg.m_r, cfg.noise_power)
    amp = np.sqrt(cfg.noise_power * 10 ** (20 / 10) / cfg.power)
    frames = []
    for t in range(500):
        rng = np.random.default_rng(np.random.SeedSequence([7, 0, t]))
        ph = rng.uniform(0, 2 * np.pi)
        frames.append(synthesize_received(x, truth, amp * np.exp(1j * ph),
                                          cfg.m_r, cfg.noise_power, rng))
    sq_err = (est.estimate(lag_coefficients(x, np.stack(frames), cfg.m_r)) - truth) ** 2
    bound = pcrb_theta(covariance(x), _point_moments(truth, cfg), amp, cfg.noise_power)
    assert sq_err.mean() >= bound - 3 * sq_err.std(ddof=1) / np.sqrt(len(sq_err))


def test_per_angle_breakdown_partitions_trials(dist12, cfg12, grid361):
    rep = monte_carlo_mse(covariance(baseline_omni(cfg12)), dist12, cfg12, grid361, [10.0],
                          120, seed=12)
    r = rep[0]
    assert sum(n for _, n, _ in r.per_angle) == r.n_trials
    lo, hi = dist12.intervals[0]
    for angle, _, _ in r.per_angle:
        assert lo - grid361.cell <= angle <= hi + grid361.cell


def test_estimator_focused_waveform_rarely_misses(dist12, cfg12, grid361):
    x = solve_psbp_fair(dist12, cfg12, grid361, seed=1, max_iters=1000).waveform
    est = MapEstimator(covariance(x), dist12, grid361, cfg12.m_r, cfg12.noise_power)
    amp = np.sqrt(10 ** (30 / 10))
    misses = 0
    n = 200
    for t in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([5, 0, t]))
        th = dist12.sample(rng)
        ph = rng.uniform(0, 2 * np.pi)
        y = synthesize_received(x, th, amp * np.exp(1j * ph), cfg12.m_r, 1.0, rng)
        if abs(est.estimate(lag_coefficients(x, y[None], cfg12.m_r))[0] - th) > 3 * grid361.cell:
            misses += 1
    assert misses / n < 0.01


class ScalarMap:
    """Reference: the one-frame-at-a-time MAP estimator with a scalar golden section."""

    def __init__(self, x, dist, grid, m_r, noise_power, refine):
        self.x, self.dist, self.grid, self.m_r = x, dist, grid, m_r
        self.noise, self.refine = noise_power, refine
        f = dist.pdf(grid.points)
        # The exact log density, as the estimator takes it: -inf off the support.
        self.log_prior = np.full(len(f), -np.inf)
        self.log_prior[f > 0] = np.log(f[f > 0])
        self.a_r = steering_matrix(grid.points, m_r)
        self.w = x.conj().T @ steering_matrix(grid.points, x.shape[0])
        den = noise_power * m_r * np.sum(np.abs(self.w) ** 2, axis=0)
        self.den = np.where(den > 1e-300, den, np.inf)

    def score(self, y):
        s = np.einsum("rp,rl,lp->p", self.a_r.conj(), y, self.w)
        return np.abs(s) ** 2 / self.den + self.log_prior

    def score_at(self, y, theta):
        f = float(self.dist.pdf(theta))
        if f <= 0:
            return -np.inf
        w = self.x.conj().T @ steering_matrix(theta, self.x.shape[0])
        s = steering_matrix(theta, self.m_r).conj() @ y @ w
        den = self.noise * self.m_r * float(np.sum(np.abs(w) ** 2))
        if den <= 1e-300:
            return -np.inf
        return float(np.abs(s) ** 2 / den) + float(np.log(f))

    def estimate(self, y):
        score = self.score(y)
        i = int(np.argmax(score))
        theta = float(self.grid.points[i])
        if not self.refine:
            return theta
        g = (np.sqrt(5.0) - 1.0) / 2.0
        a = max(theta - self.grid.cell, float(self.grid.points[0]))
        b = min(theta + self.grid.cell, float(self.grid.points[-1]))
        c, d = b - g * (b - a), a + g * (b - a)
        fc, fd = self.score_at(y, c), self.score_at(y, d)
        for _ in range(40):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - g * (b - a)
                fc = self.score_at(y, c)
            else:
                a, c, fc = c, d, fd
                d = a + g * (b - a)
                fd = self.score_at(y, d)
        refined = 0.5 * (a + b)
        return refined if self.score_at(y, refined) >= score[i] else theta


def random_frames(rng, x, dist, snr_db, n, m_r=8):
    amp = np.sqrt(10.0 ** (snr_db / 10.0))
    return np.array([
        synthesize_received(x, float(dist.sample(rng)),
                            amp * np.exp(2j * np.pi * rng.random()), m_r, 1.0, rng)
        for _ in range(n)
    ])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), snr_db=st.floats(-10.0, 40.0),
       gaussian=st.booleans())
def test_batched_estimator_matches_scalar_reference(seed, snr_db, gaussian, cfg12, dist12,
                                                    grid361):
    prior = SCENARIO3_PRIOR if gaussian else dist12
    rng = np.random.default_rng(seed)
    x = random_feasible_waveform(rng, cfg12)
    ys = random_frames(rng, x, prior, snr_db, 5)
    for refine in (False, True):
        est = MapEstimator(covariance(x), prior, grid361, cfg12.m_r, cfg12.noise_power,
                           refine=refine)
        ref = ScalarMap(x, prior, grid361, cfg12.m_r, cfg12.noise_power, refine)
        got = est.estimate(lag_coefficients(x, ys, cfg12.m_r))
        want = np.array([ref.estimate(y) for y in ys])
        if refine:
            # The score is flat to rounding within ~1e-8 rad of its peak, so
            # two evaluation orders may stop at different points there.
            assert np.max(np.abs(got - want)) <= 1e-7
        else:
            assert np.array_equal(got, want)


def test_estimates_do_not_depend_on_block_split(dist12, cfg12, grid361):
    rng = np.random.default_rng(3)
    x = random_feasible_waveform(rng, cfg12)
    ys = random_frames(rng, x, dist12, 10.0, 130)
    coef = lag_coefficients(x, ys, cfg12.m_r)
    parts = [lag_coefficients(x, ys[a:b], cfg12.m_r) for a, b in ((0, 64), (64, 128), (128, 130))]
    # A frame's coefficients do not depend on the stack it comes in either.
    assert np.array_equal(coef, np.concatenate(parts))
    for refine in (False, True):
        est = MapEstimator(covariance(x), dist12, grid361, cfg12.m_r, cfg12.noise_power,
                           refine=refine)
        whole = est.estimate(coef)
        assert np.array_equal(whole, np.concatenate([est.estimate(c) for c in parts]))


def frames_at(rng, x, thetas, snr_db, m_r=8):
    amp = np.sqrt(10.0 ** (snr_db / 10.0))
    return np.array([synthesize_received(x, float(t), amp * np.exp(2j * np.pi * rng.random()),
                                         m_r, 1.0, rng) for t in thetas])


@pytest.mark.parametrize("case", ["support-edge", "domain-edge", "gaussian"])
def test_refine_matches_scalar_reference_at_edges(case, cfg12, dist12, grid361):
    # support-edge: case-1-2 frames whose grid argmax is +-9.5 deg, next to
    # the interval edges at +-10 deg (the grid points at +-10 deg lie one
    # ulp outside), where the maximum often lies on the edge itself.
    # domain-edge: frames whose grid argmax is +90 deg, so the bracket is
    # cut at the end of the domain. There the score depends on the angle
    # through sin(theta), whose slope vanishes: both searches stop within
    # the score's rounding-flat neighbourhood, up to ~4e-6 rad apart in the
    # angle but within 1e-7 in sin(theta), and the refined score is never
    # below the reference's beyond rounding.
    # gaussian: the scenario-3 prior.
    prior = {"support-edge": dist12, "domain-edge": MixtureUniform(((0.0, np.pi / 2),), (1.0,)),
             "gaussian": SCENARIO3_PRIOR}[case]
    picked, at_edge = [], 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        x = random_feasible_waveform(rng, cfg12) if seed % 2 else baseline_omni(cfg12)
        if case == "support-edge":
            thetas = rng.choice([-1.0, 1.0], 64) * rng.uniform(np.deg2rad(9.3), np.pi / 18, 64)
        elif case == "domain-edge":
            thetas = rng.uniform(np.deg2rad(89.6), np.pi / 2, 64)
        else:
            thetas = prior.sample(rng, size=64)
        ys = frames_at(rng, x, thetas, rng.uniform(0.0, 40.0))
        est = MapEstimator(covariance(x), prior, grid361, cfg12.m_r, cfg12.noise_power)
        ref = ScalarMap(x, prior, grid361, cfg12.m_r, cfg12.noise_power, True)
        coef = lag_coefficients(x, ys, cfg12.m_r)
        theta0 = grid361.points[est._support[np.argmax(est._scan(coef), axis=1)]]
        if case == "support-edge":
            keep = np.isclose(np.abs(theta0), np.deg2rad(9.5), rtol=0.0, atol=1e-12)
        elif case == "domain-edge":
            keep = theta0 == np.pi / 2
        else:
            keep = np.ones(len(ys), dtype=bool)
        got = est.estimate(coef[keep])
        want = np.array([ref.estimate(y) for y in ys[keep]])
        if case == "domain-edge":
            assert np.max(np.abs(np.sin(got) - np.sin(want)), initial=0.0) <= 1e-7
            s_got = np.array([ref.score_at(y, t) for y, t in zip(ys[keep], got)])
            s_want = np.array([ref.score_at(y, t) for y, t in zip(ys[keep], want)])
            assert np.all(s_got >= s_want - 1e-13 * np.abs(s_want))
        else:
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-7
        picked.append(int(keep.sum()))
        if case == "support-edge":
            at_edge += int(np.sum(np.abs(got) >= dist12.intervals[0][1] - 1e-12))
    assert sum(picked) >= 100
    if case == "support-edge":
        assert at_edge >= 20  # maxima on the interval edge are among them


def test_refine_probe_count(dist12, cfg12, grid361, monkeypatch):
    # One probe of the grid argmax and the bracket ends, then Newton steps
    # until every frame of the block has stopped: a case-1-2 block takes at
    # most 6 probes.
    rng = np.random.default_rng(4)
    calls = []
    probe = MapEstimator._probe
    monkeypatch.setattr(MapEstimator, "_probe",
                        lambda self, coef, th: calls.append(len(coef)) or probe(self, coef, th))
    for x in (baseline_omni(cfg12), random_feasible_waveform(rng, cfg12)):
        est = MapEstimator(covariance(x), dist12, grid361, cfg12.m_r, cfg12.noise_power)
        for snr_db in (-10.0, 10.0, 30.0):
            for n in (64, 1):
                coef = lag_coefficients(x, random_frames(rng, x, dist12, snr_db, n), cfg12.m_r)
                calls.clear()
                est.estimate(coef)
                assert set(calls) == {n} and 1 <= len(calls) <= 6, calls


def test_monte_carlo_blocks_and_shared_moments(dist12, cfg12, grid361, mom12):
    r = covariance(baseline_omni(cfg12))
    one = monte_carlo_mse(r, dist12, cfg12, grid361, [10.0], 1, seed=2)
    assert one[0].std_error == 0.0 and one[0].n_trials == 1
    # 65 trials: one full block and a block of one.
    rep = monte_carlo_mse(r, dist12, cfg12, grid361, [0.0, 20.0], 65, seed=2)
    assert rep == monte_carlo_mse(r, dist12, cfg12, grid361, [0.0, 20.0], 65, seed=2)
    assert rep == monte_carlo_mse(r, dist12, cfg12, grid361, [0.0, 20.0], 65, seed=2,
                                  moments=mom12)


@pytest.mark.parametrize("gaussian", [False, True])
def test_monte_carlo_matches_per_block_reference(gaussian, dist12, cfg12, grid361, mom12):
    # 65 trials: one full block and a partial block of one. The sweep must
    # reproduce the reference's draws and coefficients exactly, so the
    # summaries are equal.
    prior = SCENARIO3_PRIOR if gaussian else dist12
    r = covariance(random_feasible_waveform(np.random.default_rng(11), cfg12))
    rep = monte_carlo_mse(r, prior, cfg12, grid361, [0.0, 20.0], 65, seed=3,
                          moments=mom12)
    ref = per_block_mse(r, prior, cfg12, grid361, [0.0, 20.0], 65, seed=3)
    for r, (mse, std_error, per_angle) in zip(rep, ref):
        assert r.mse == mse and r.std_error == std_error and r.per_angle == per_angle


LAW_ARRAYS = [(8, 8, 25, 0.5), (3, 6, 9, 0.37), (5, 2, 7, 0.5), (4, 7, 3, 1.3)]


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("m_t, m_r, l_samples, spacing", LAW_ARRAYS)
def test_coefficient_law_matches_frame_path(m_t, m_r, l_samples, spacing):
    # The Monte-Carlo's coefficient law from R = X X^H alone against the
    # frame path: mu against the coefficients of noiseless unit-amplitude
    # frames, and the noise factor's covariance against sigma^2 K^T conj(K),
    # the covariance of vec(Z) @ K for white Z of variance sigma^2.
    rng = np.random.default_rng(m_t * m_r + l_samples)
    x = rng.normal(size=(m_t, l_samples)) + 1j * rng.normal(size=(m_t, l_samples))
    est = MapEstimator(covariance(x), SCENARIO3_PRIOR, AngularGrid(181), m_r, 0.7, spacing)
    theta = np.concatenate([rng.uniform(-np.pi / 2, np.pi / 2, 40), [-np.pi / 2, 0.0, np.pi / 2]])
    frames = received_block(x, theta, np.ones(len(theta), dtype=complex),
                            np.zeros((len(theta), m_r, l_samples, 2)), spacing,
                            np.empty((len(theta), m_r, l_samples), dtype=complex))
    assert relative_error(est._mean_coef(theta), lag_coefficients(x, frames, m_r)) <= 1e-12
    kernel, factor = lag_kernel(x, m_r), est._noise_factor
    # The factor colours a fill with unit-variance real and imaginary parts.
    assert relative_error(2.0 * factor.T @ factor.conj(),
                          0.7 * kernel.T @ kernel.conj()) <= 1e-12


@pytest.mark.parametrize("m_t, m_r, l_samples, spacing", LAW_ARRAYS[1:])
def test_sampled_coefficient_covariances_agree(m_t, m_r, l_samples, spacing):
    # Coefficients of white-noise frames against the coloured fills, 20,000
    # draws each: every entry of the two sample covariances E[w^T conj(w)]
    # agrees within 5 standard errors of the difference, and so does the
    # pseudo-covariance E[w^T w] of a circular law, which is 0. The mirrored
    # covariance, conj of the true one, would put the noise at -u; the test
    # can tell it apart on these arrays.
    rng = np.random.default_rng(100 + m_t + m_r)
    x = rng.normal(size=(m_t, l_samples)) + 1j * rng.normal(size=(m_t, l_samples))
    noise_power, n = 0.7, 20000
    est = MapEstimator(covariance(x), SCENARIO3_PRIOR, AngularGrid(181), m_r, noise_power,
                       spacing)
    kernel = lag_kernel(x, m_r)
    z = rng.normal(scale=np.sqrt(noise_power / 2.0), size=(n, m_r * l_samples, 2))
    frame_w = (z[..., 0] + 1j * z[..., 1]) @ kernel
    fill = rng.standard_normal((n, len(est._noise_factor), 2))
    coef_w = (fill[..., 0] + 1j * fill[..., 1]) @ est._noise_factor
    cov = noise_power * kernel.T @ kernel.conj()
    diag = np.real(np.diag(cov))
    # Lags that only the denominator uses have no variance: the eigh factor
    # leaves rounding there, far under the floor.
    tol = 5.0 * np.sqrt(2.0 * np.outer(diag, diag) / n) + 1e-9 * diag.max()
    frame_cov, coef_cov = (w.T @ w.conj() / n for w in (frame_w, coef_w))
    frame_pseudo, coef_pseudo = (w.T @ w / n for w in (frame_w, coef_w))
    for a, b in ((frame_cov, coef_cov), (frame_pseudo, coef_pseudo)):
        assert np.all(np.abs(a.real - b.real) <= tol)
        assert np.all(np.abs(a.imag - b.imag) <= tol)
    assert np.any(np.abs(frame_cov.imag - coef_cov.conj().imag) > tol)


@pytest.mark.parametrize("waveform", ["equal-rows", "one-sample"])
def test_semidefinite_coefficient_noise(waveform, cfg12, dist12, grid361):
    # A rank-one R (equal rows, or L = 1) leaves the 15 x 15 coefficient
    # covariance of rank 8, where a Cholesky factor does not exist: the
    # clipped eigh factor still reproduces it, and the sweep runs.
    rng = np.random.default_rng(21)
    if waveform == "equal-rows":
        cfg = cfg12
        row = np.exp(2j * np.pi * rng.random(cfg.l_samples))
        x = np.tile(row, (cfg.m_t, 1)) / np.sqrt(cfg.m_t * cfg.l_samples)
    else:
        cfg = ArrayConfig(cfg12.m_t, cfg12.m_r, 1)
        x = np.exp(2j * np.pi * rng.random((cfg.m_t, 1))) / np.sqrt(cfg.m_t)
    est = MapEstimator(covariance(x), dist12, grid361, cfg.m_r, cfg.noise_power)
    kernel = lag_kernel(x, cfg.m_r)
    cov = cfg.noise_power * kernel.T @ kernel.conj()
    assert cov.shape == (15, 15) and np.linalg.matrix_rank(cov) == 8
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov)
    factor = est._noise_factor
    assert relative_error(2.0 * factor.T @ factor.conj(), cov) <= 1e-12
    rep = monte_carlo_mse(covariance(x), dist12, cfg, grid361, [0.0, 20.0], 65, seed=4)
    assert all(np.isfinite(r.mse) and r.n_trials == 65 for r in rep)


def test_refine_probe_at_a_transmit_null_is_silent():
    # A design steered to 90 degrees leaves nulls inside this two-interval
    # prior; a refine probe that lands on one has no finite slope, and
    # that must not print a RuntimeWarning.
    cfg = ArrayConfig(4, 4, 8, papr=1.2)
    x = baseline_crb(np.pi / 2, cfg, seed=1).waveform
    dist = MixtureUniform((tuple(np.deg2rad([-20.0, 5.0])), tuple(np.deg2rad([10.0, 30.0]))),
                          (0.6, 0.4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = monte_carlo_mse(covariance(x), dist, cfg, AngularGrid(121), [0.0, 20.0], 20, 1)
    assert all(np.isfinite(r.mse) for r in rep)


@pytest.mark.parametrize("m_t, m_r, spacing", [(8, 8, 0.5), (3, 6, 0.37), (5, 2, 0.5)])
def test_score_at_matches_steering_formula(m_t, m_r, spacing):
    # The lag form of the off-grid score against the steering vectors
    # themselves, on square and non-square arrays (odd m_r - m_t puts the
    # transmit and receive lags half a step apart).
    cfg = ArrayConfig(m_t, m_r, 9)
    rng = np.random.default_rng(m_t + m_r)
    x = random_feasible_waveform(rng, cfg)
    prior = MixtureGaussian((0.3, -0.5), 0.2, (0.6, 0.4))
    est = MapEstimator(covariance(x), prior, AngularGrid(181), m_r, 0.7, spacing)
    ys = rng.normal(size=(6, m_r, 9)) + 1j * rng.normal(size=(6, m_r, 9))
    theta = rng.uniform(-np.pi / 2, np.pi / 2, 6)
    want = []
    for y, th in zip(ys, theta):
        w = x.conj().T @ steering_matrix(th, m_t, spacing)
        s = steering_matrix(th, m_r, spacing).conj() @ y @ w
        want.append(abs(s) ** 2 / (0.7 * m_r * np.vdot(w, w).real) + np.log(prior.pdf(th)))
    got = est._probe(lag_coefficients(x, ys, m_r), theta[:, None])[0][:, 0]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m_t=st.integers(1, 8), m_r=st.integers(1, 8),
       spacing=st.floats(0.1, 2.0), snr_db=st.floats(-10.0, 30.0), gaussian=st.booleans())
def test_lag_scan_matches_steering_formula(seed, m_t, m_r, spacing, snr_db, gaussian):
    # The grid scan on lag coefficients against the explicit score
    # |a_r^H Y X^H a_t|^2 / (sigma^2 m_r ||X^H a_t||^2) + log f at every
    # grid angle, from spacings with grating lobes down to a tenth of a
    # wavelength. L = 9 > m_t keeps X^H a_t away from zero.
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(m_t, m_r, 9, noise_power=0.7, spacing=spacing)
    x = random_feasible_waveform(rng, cfg)
    prior = SCENARIO3_PRIOR if gaussian else MixtureUniform(((-0.7, 0.4),), (1.0,))
    grid = AngularGrid(181)
    amp = np.sqrt(cfg.noise_power * 10.0 ** (snr_db / 10.0) / cfg.power)
    ys = np.array([synthesize_received(x, float(t), amp * np.exp(2j * np.pi * rng.random()),
                                       m_r, cfg.noise_power, rng, spacing)
                   for t in prior.sample(rng, 4)])
    est = MapEstimator(covariance(x), prior, grid, m_r, cfg.noise_power, spacing, refine=False)
    got = est._scan(lag_coefficients(x, ys, m_r))

    w = x.conj().T @ steering_matrix(grid.points, m_t, spacing)
    s = np.einsum("rp,nrl,lp->np", steering_matrix(grid.points, m_r, spacing).conj(), ys, w)
    ll = np.abs(s) ** 2 / (cfg.noise_power * m_r * np.sum(np.abs(w) ** 2, axis=0))
    f = prior.pdf(grid.points)
    inside = f > 0
    log_f = np.log(f[inside])
    want = ll[:, inside] + log_f
    # The scan covers exactly the points of positive prior density.
    assert np.array_equal(est._support, np.flatnonzero(inside))
    # Relative to the size of the two terms: their sum may cross zero.
    assert np.all(np.abs(got - want) <= 1e-9 * (ll[:, inside] + np.abs(log_f)))
    top2 = np.sort(want, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-9 * np.abs(top2[:, 1])
    assert np.array_equal(np.argmax(got, axis=1)[clear], np.argmax(want, axis=1)[clear])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), snr_db=st.floats(-10.0, 40.0), gaussian=st.booleans())
def test_probe_derivatives_match_finite_differences(seed, snr_db, gaussian, cfg12, grid361):
    # The probe's slope and curvature in theta against central differences
    # of its own value, on random feasible waveforms, at angles drawn from
    # the prior, at +-pi/2 and at the bracket ends cut at a support edge.
    # An interval prior scores -inf off its support, so at its edges the
    # differences are one-sided, into the support.
    rng = np.random.default_rng(seed)
    x = random_feasible_waveform(rng, cfg12)
    if gaussian:
        prior = MixtureGaussian(tuple(rng.uniform(-1.0, 1.0, 2)), rng.uniform(0.1, 0.5),
                                (0.3, 0.7))
    else:
        # Two intervals reaching +-pi/2, with a gap wide enough to cut brackets.
        c = rng.uniform(-1.0, 0.8)
        prior = MixtureUniform(((-np.pi / 2, c), (c + rng.uniform(0.05, 0.5), np.pi / 2)),
                               (0.5, 0.5))
    est = MapEstimator(covariance(x), prior, grid361, cfg12.m_r, cfg12.noise_power)
    ends = np.concatenate([est._bracket_lo, est._bracket_hi])
    cut = ends[np.min(np.abs(ends[:, None] - grid361.points), axis=1) > 1e-9]
    assert gaussian or len(cut) == 2
    angles = np.concatenate([prior.sample(rng, 4), [-np.pi / 2, np.pi / 2], cut])
    coef = lag_coefficients(x, random_frames(rng, x, prior, snr_db, 3), cfg12.m_r)
    h = 3e-5

    def value(th):
        return est._probe(coef, np.tile(th, (len(coef), 1)))[0]

    val, slope, curv = est._probe(coef, np.tile(angles, (len(coef), 1)))
    side = np.where(np.isfinite(value(angles + h)[0]), 1.0, -1.0)
    both = np.isfinite(value(angles + h)[0]) & np.isfinite(value(angles - h)[0])
    s1, s2, s3 = (value(angles + k * side * h) for k in (1, 2, 3))
    s_1 = np.where(both, value(angles - side * h), 0.0)
    fd1 = np.where(both, (s1 - s_1) / (2 * h), side * (-3 * val + 4 * s1 - s2) / (2 * h))
    fd2 = np.where(both, (s1 - 2 * val + s_1) / h**2, (2 * val - 5 * s1 + 4 * s2 - s3) / h**2)
    # The likelihood term changes on a scale of about 0.02 rad.
    scale = np.abs(val - np.log(prior.pdf(angles))) + 1.0
    assert np.all(np.abs(slope - fd1) <= 1e-4 * (np.abs(fd1) + scale / 0.02))
    assert np.all(np.abs(curv - fd2) <= 1e-3 * (np.abs(fd2) + scale / 0.02**2))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(31, 721),
       gaps=st.lists(st.sampled_from(["touch", "narrow", "wide"]), max_size=2),
       flush=st.sampled_from([None, "low", "high"]), snap=st.booleans(),
       gaussian=st.booleans())
def test_refine_brackets_stay_in_the_support(seed, size, gaps, flush, snap, gaussian):
    # A refine bracket is its point's cell either side, cut to the support
    # interval that holds the point and to +-pi/2: it never spans a gap,
    # not even one narrower than a cell, and a cut end is the interval's
    # end bit for bit. A Gaussian mixture's support is the whole domain,
    # so its brackets are the cells cut at +-pi/2 only.
    rng = np.random.default_rng(seed)
    grid, cfg = AngularGrid(size), ArrayConfig(4, 4, 8)
    pts, cell = grid.points, grid.cell
    if gaussian:
        prior = MixtureGaussian(tuple(rng.uniform(-1.5, 1.5, 2)), rng.uniform(0.01, 0.5),
                                (0.4, 0.6))
        support = np.array([[-np.pi / 2, np.pi / 2]])
    else:
        # One to three intervals over two cells wide, so each holds a grid
        # point, joined by touching, narrower-than-a-cell or wider gaps.
        widths = rng.uniform(2.1 * cell, 0.8, len(gaps) + 1)
        steps = [0.0] + [{"touch": 0.0, "narrow": rng.uniform(0.0, cell),
                          "wide": rng.uniform(cell, 0.3)}[g] for g in gaps]
        lo = -np.pi / 2 + (0.0 if flush == "low" else
                           rng.uniform(0.0, np.pi - widths.sum() - sum(steps)))
        ivs = []
        for width, step in zip(widths, steps):
            ivs.append((lo + step, lo + step + width))
            lo = ivs[-1][1]
        if flush == "high":
            ivs[-1] = (ivs[-1][0], np.pi / 2)
        if snap:
            # The outer ends on grid angles computed in degrees, as a config
            # gives them: each may lie an ulp either side of its grid point.
            deg = 180.0 / (size - 1)
            ivs[0] = (np.deg2rad(np.round((np.rad2deg(ivs[0][0]) + 90.0) / deg) * deg - 90.0),
                      ivs[0][1])
            ivs[-1] = (ivs[-1][0],
                       np.deg2rad(np.round((np.rad2deg(ivs[-1][1]) + 90.0) / deg) * deg - 90.0))
        order = rng.permutation(len(ivs))
        prior = MixtureUniform(tuple(ivs[i] for i in order),
                               tuple(rng.dirichlet(np.ones(len(ivs)))))
        support = np.array(prior.support())
        # Sorted and disjoint, with the touching intervals merged.
        assert len(support) == len(ivs) - gaps.count("touch")
        assert np.all(support[:-1, 1] < support[1:, 0])
    x = random_feasible_waveform(rng, cfg)
    est = MapEstimator(covariance(x), prior, grid, cfg.m_r, cfg.noise_power)
    p, lo, hi = pts[est._support], est._bracket_lo, est._bracket_hi
    if gaussian:
        assert np.array_equal(lo, np.maximum(p - cell, -np.pi / 2))
        assert np.array_equal(hi, np.minimum(p + cell, np.pi / 2))
    else:
        holds = (support[:, 0] <= p[:, None]) & (p[:, None] <= support[:, 1])
        assert np.all(holds.sum(axis=1) == 1)
        a, b = np.clip(support[holds.argmax(axis=1)].T, -np.pi / 2, np.pi / 2)
        assert np.all((a <= lo) & (lo <= p) & (p <= hi) & (hi <= b))
        assert np.all((lo == p - cell) | (lo == a)) and np.all((hi == p + cell) | (hi == b))
        # Where the neighbouring grid point lies past the interval, the
        # bracket ends on the interval's end.
        below = pts[np.maximum(est._support - 1, 0)] < a
        above = pts[np.minimum(est._support + 1, size - 1)] > b
        assert np.array_equal(lo[below], a[below]) and np.array_equal(hi[above], b[above])
    # Whatever the coefficients, the refined angles stay in the support.
    n_lags = len(est._lag_phase)
    coef = ((rng.standard_normal((32, n_lags)) + 1j * rng.standard_normal((32, n_lags)))
            * 10.0 ** rng.uniform(-2.0, 2.0, (32, 1)))
    got = est.estimate(coef)
    assert np.all(((support[:, 0] <= got[:, None]) & (got[:, None] <= support[:, 1])).any(1))


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("case-*.cfg")))
def test_bundled_brackets_end_on_the_interval_ends(name, grid361):
    # A bundled interval end, given in degrees, lies an ulp either side of
    # its grid point, and a cell step from the support point next to it may
    # round inside the interval: the bracket still ends on the interval's
    # end, bit for bit.
    sc = load_config(CONFIG_DIR / f"{name}.cfg")
    est = MapEstimator(np.eye(sc.array.m_t), sc.distribution, grid361, sc.array.m_r, 1.0)
    edges = set(np.ravel(sc.distribution.support()).tolist())
    assert edges <= set(np.concatenate([est._bracket_lo, est._bracket_hi]).tolist())


def test_score_shapes_and_frame_validation(dist12, cfg12, grid361):
    x = baseline_omni(cfg12)
    est = MapEstimator(covariance(x), dist12, grid361, cfg12.m_r, cfg12.noise_power)
    ys = random_frames(np.random.default_rng(0), x, dist12, 10.0, 3)
    coef = lag_coefficients(x, ys, cfg12.m_r)
    scores = est._scan(coef)
    # The scan covers exactly the grid points where the prior is positive.
    assert np.array_equal(est._support, np.flatnonzero(dist12.pdf(grid361.points) > 0))
    assert scores.shape == (3, len(est._support))
    # BLAS may take another kernel for a single row: equal up to rounding.
    assert np.allclose(scores[1], est._scan(coef[1:2])[0], rtol=1e-12, atol=0.0)
    at = est._probe(coef, np.array([[0.0], [0.1], [1.0]]))[0][:, 0]
    assert at.shape == (3,) and np.isneginf(at[2])  # 1 rad is outside the prior
    assert at[1] == est._probe(coef[1:2], np.array([[0.1]]))[0][0, 0]
    # Only stacks are taken: a wrong frame shape and a bare frame are
    # rejected, and so is a coefficient stack of the wrong width.
    with pytest.raises(ValueError):
        lag_coefficients(x, np.zeros((1, cfg12.m_r + 1, cfg12.l_samples)), cfg12.m_r)
    with pytest.raises(ValueError, match="N, m_r, L"):
        lag_coefficients(x, ys[0], cfg12.m_r)
    with pytest.raises(ValueError, match="lag coefficients"):
        est.estimate(coef[:, :-1])
    with pytest.raises(ValueError, match="lag coefficients"):
        est.estimate(coef[0])
    # The estimator takes a square Hermitian covariance, not a waveform.
    for bad in (x, covariance(x) + 1e-3j * np.eye(cfg12.m_t)):
        with pytest.raises(ValueError, match="covariance"):
            MapEstimator(bad, dist12, grid361, cfg12.m_r, cfg12.noise_power)
