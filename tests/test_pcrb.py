import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorwave import (
    ArrayConfig,
    DistributionMoments,
    MixtureGaussian,
    MixtureUniform,
    beampattern,
    compute_moments,
    pcrb_theta,
    pcrb_upper_bound,
    steering_matrix,
    steering_derivative_matrix,
)
from priorwave.priors import _point_moments
from conftest import covariance, posterior_fim, random_feasible_waveform


def expected_loglik_curvature(x, theta0, amp, noise_power, m_r, h=1e-4):
    """Finite-difference Fisher oracle for a fixed angle.

    Second derivative of the expected log-likelihood in the model angle,
    evaluated at the truth, using only steering products (independent of
    the moment matrices).
    """
    def expected_ll(th):
        a_t = steering_matrix(th, x.shape[0])
        a_r = steering_matrix(th, m_r)
        a0_t = steering_matrix(theta0, x.shape[0])
        a0_r = steering_matrix(theta0, m_r)
        ax = np.outer(a_r, a_t.conj() @ x)
        a0x = np.outer(a0_r, a0_t.conj() @ x)
        cross = np.vdot(ax, a0x)  # Tr{X^H A(th)^H A(th0) X}
        return (abs(amp) ** 2 / noise_power) * (
            -np.sum(np.abs(ax) ** 2) + 2 * np.real(cross)
        )

    stencil = (
        -expected_ll(theta0 + 2 * h)
        + 16 * expected_ll(theta0 + h)
        - 30 * expected_ll(theta0)
        + 16 * expected_ll(theta0 - h)
        - expected_ll(theta0 - 2 * h)
    ) / (12 * h**2)
    return -stencil


def test_zero_waveform_blocks_are_zero():
    cfg = ArrayConfig(4, 4, 8)
    mom = compute_moments(MixtureGaussian((0.0,), np.pi / 90, (1.0,)), cfg)
    fim = posterior_fim(np.zeros((4, 8)), mom, 1.0, 1.0)
    assert np.array_equal(fim, np.diag([mom.lam, 0.0, 0.0]))
    assert pcrb_theta(np.zeros((4, 4)), mom, 1.0, 1.0) == 1.0 / mom.lam


def test_blocks_scale_quadratically(mom12, cfg12):
    rng = np.random.default_rng(0)
    x = random_feasible_waveform(rng, cfg12)
    prior = np.diag([mom12.lam, 0.0, 0.0])
    s1 = posterior_fim(x, mom12, 0.7 + 0.2j, 1.3) - prior
    s2 = posterior_fim(np.sqrt(2) * x, mom12, 0.7 + 0.2j, 1.3) - prior
    assert np.allclose(s2, 2 * s1, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("c", [1.0, 1e-10, 1e-16, 1e-30])
def test_bound_depends_on_the_snr_not_the_waveform_power(c):
    # X -> sqrt(c) X with amp -> amp / sqrt(c) keeps every received sample,
    # so the bound must not move at any power; the zero waveform is the
    # prior-only bound.
    cfg = ArrayConfig(8, 8, 25)
    mom = compute_moments(MixtureUniform(((0.1, 0.4),), (1.0,)), cfg)
    x = random_feasible_waveform(np.random.default_rng(12), cfg)
    amp = np.sqrt(1e3)  # 30 dB at unit power and noise
    ref = pcrb_theta(covariance(x), mom, amp, 1.0)
    got = pcrb_theta(covariance(np.sqrt(c) * x), mom, amp / np.sqrt(c), 1.0)
    assert abs(got - ref) <= 1e-9 * ref
    assert pcrb_theta(covariance(0.0 * x), mom, amp / np.sqrt(c), 1.0) == 1.0 / mom.lam


@pytest.mark.parametrize("noise_power", [0.0, -1.0])
def test_bounds_reject_a_nonpositive_noise_power(mom12, noise_power):
    x = np.ones((8, 25), dtype=complex)
    for bound in (pcrb_theta, pcrb_upper_bound):
        with pytest.raises(ValueError, match="noise_power must be positive"):
            bound(covariance(x), mom12, 1.0, noise_power)


def test_point_mass_fim_matches_finite_difference_oracle():
    cfg = ArrayConfig(2, 2, 3, noise_power=1.3)
    theta0 = 0.35
    amp = 0.7 + 0.4j
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    mom = _point_moments(theta0, cfg)
    f_tt = 2.0 * abs(amp) ** 2 / cfg.noise_power * np.vdot(x, mom.xi1 @ x).real
    oracle = expected_loglik_curvature(x, theta0, amp, cfg.noise_power, cfg.m_r)
    assert abs(f_tt - oracle) / oracle < 1e-4


def test_point_mass_fim_closed_form():
    cfg = ArrayConfig(3, 5, 4)
    theta0 = -0.2
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    mom = _point_moments(theta0, cfg)
    a = steering_matrix(theta0, 3)
    da = steering_derivative_matrix(theta0, 3)
    dar = steering_derivative_matrix(theta0, 5)
    xi1 = np.vdot(dar, dar).real * np.outer(a, a.conj()) + 5 * np.outer(da, da.conj())
    direct = np.vdot(x, xi1 @ x).real
    got = np.vdot(x, mom.xi1 @ x).real
    assert abs(got - direct) / direct < 1e-12


def test_pure_prior_bound_is_sigma_squared():
    sigma = np.pi / 90
    cfg = ArrayConfig(4, 4, 8)
    mom = compute_moments(MixtureGaussian((0.0,), sigma, (1.0,)), cfg)
    x = np.zeros((4, 8))
    assert abs(pcrb_theta(covariance(x), mom, 1.0, 1.0) - sigma**2) < 1e-12 * sigma**2
    assert abs(pcrb_upper_bound(covariance(x), mom, 1.0, 1.0) - sigma**2) < 1e-12 * sigma**2


def test_schur_matches_full_inverse(prior_moments, cfg12):
    rng = np.random.default_rng(3)
    for kind, mom in prior_moments.items():
        for _ in range(50):
            x = random_feasible_waveform(rng, cfg12)
            amp = rng.normal() + 1j * rng.normal()
            pcrb = pcrb_theta(covariance(x), mom, amp, 1.3)
            inv11 = np.linalg.inv(posterior_fim(x, mom, amp, 1.3))[0, 0]
            assert abs(inv11 - pcrb) <= 1e-10 * pcrb, kind


def test_posterior_fim_is_symmetric_psd(prior_moments, cfg12):
    rng = np.random.default_rng(4)
    for kind, mom in prior_moments.items():
        x = random_feasible_waveform(rng, cfg12)
        fim = posterior_fim(x, mom, 0.5 - 0.8j, 0.9)
        assert np.allclose(fim, fim.T), kind
        assert np.linalg.eigvalsh(fim).min() >= -1e-9, kind


def test_bound_ordering(mom12, cfg12):
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = random_feasible_waveform(rng, cfg12)
        amp = rng.normal() + 1j * rng.normal()
        r = covariance(x)
        assert pcrb_theta(r, mom12, amp, 1.0) <= pcrb_upper_bound(r, mom12, amp, 1.0)


MIXTURES = {
    "uniform": MixtureUniform(intervals=((-0.6, -0.2), (0.1, 0.45)), weights=(0.3, 0.7)),
    "gaussian": MixtureGaussian(means=(-0.5, 0.1, 0.6), sigma=0.07, weights=(0.2, 0.5, 0.3)),
}


@functools.cache
def mixture_moments(kind):
    return compute_moments(MIXTURES[kind], ArrayConfig(6, 6, 10))


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(MIXTURES)), seed=st.integers(0, 2**32 - 1),
       amp_db=st.floats(-40.0, 40.0), phase=st.floats(0.0, 2 * np.pi),
       noise=st.floats(0.05, 20.0), spread=st.floats(0.0, 3.0))
def test_pcrb_never_exceeds_trace_upper_bound(kind, seed, amp_db, phase, noise, spread):
    # Any waveform, not only feasible ones: rows of uneven power (spread)
    # tilt the beampattern toward one part of the prior.
    mom = mixture_moments(kind)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 10)) + 1j * rng.normal(size=(6, 10))
    x *= np.exp(spread * rng.normal(size=(6, 1)))
    amp = 10.0 ** (amp_db / 20.0) * np.exp(1j * phase)
    up = pcrb_upper_bound(covariance(x), mom, amp, noise)
    assert pcrb_theta(covariance(x), mom, amp, noise) <= up * (1.0 + 1e-12)


def test_bound_gap_matches_cauchy_schwarz_term(mom12, cfg12):
    # 1/pcrb - 1/upper must equal (2|amp|^2/sigma^2) * q with q computed
    # from the raw traces.
    rng = np.random.default_rng(6)
    x = random_feasible_waveform(rng, cfg12)
    amp, noise = 0.8 + 0.3j, 1.1
    lo = pcrb_theta(covariance(x), mom12, amp, noise)
    up = pcrb_upper_bound(covariance(x), mom12, amp, noise)
    t2 = np.vdot(x, mom12.xi2 @ x)
    t3 = np.vdot(x, mom12.xi3 @ x).real
    q = np.vdot(x, (mom12.xi1 - mom12.xi0) @ x).real - abs(t2) ** 2 / t3
    gap = 1 / lo - 1 / up
    assert abs(gap - 2 * abs(amp) ** 2 / noise * q) <= 1e-9 * abs(gap)


def test_noise_monotonicity_and_ratio_homogeneity(mom12, cfg12):
    rng = np.random.default_rng(7)
    x = random_feasible_waveform(rng, cfg12)
    bounds = [pcrb_theta(covariance(x), mom12, 1.0, s) for s in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    base = pcrb_theta(covariance(x), mom12, 1.0, 1.0)
    scaled = pcrb_theta(covariance(x), mom12, np.sqrt(2.0), 2.0)
    assert abs(base - scaled) <= 1e-12 * base


def test_unitary_right_multiplication_invariance(mom12, cfg12):
    rng = np.random.default_rng(8)
    x = random_feasible_waveform(rng, cfg12)
    q, _ = np.linalg.qr(rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25)))
    a = pcrb_theta(covariance(x), mom12, 1.0, 1.0)
    b = pcrb_theta(covariance(x @ q), mom12, 1.0, 1.0)
    assert abs(a - b) <= 1e-10 * a


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(MIXTURES)), seed=st.integers(0, 2**32 - 1),
       amp_db=st.floats(-30.0, 30.0), phase=st.floats(0.0, 2 * np.pi),
       noise=st.floats(0.05, 20.0))
def test_bounds_invariant_under_right_unitary(kind, seed, amp_db, phase, noise):
    # The bounds see X only through X X^H, so X -> XQ with a Haar-random
    # L x L unitary Q leaves both unchanged.
    mom = mixture_moments(kind)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 10)) + 1j * rng.normal(size=(6, 10))
    z, r = np.linalg.qr(rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)))
    q = z * (np.diag(r) / np.abs(np.diag(r)))
    amp = 10.0 ** (amp_db / 20.0) * np.exp(1j * phase)
    for bound in (pcrb_theta, pcrb_upper_bound):
        a, b = bound(covariance(x), mom, amp, noise), bound(covariance(x @ q), mom, amp, noise)
        assert abs(a - b) <= 1e-10 * a


def random_moments(rng, m_t):
    """Moments with the structure the bound needs: ``xi0`` and ``xi3``
    positive semidefinite, and ``[[xi1, xi2], [xi2^H, xi3]]`` as well, so
    ``|t2|^2 <= t1 t3`` for every covariance."""
    g = rng.normal(size=(3 * m_t, 3 * m_t)) + 1j * rng.normal(size=(3 * m_t, 3 * m_t))
    joint = g @ g.conj().T
    return DistributionMoments(xi0=joint[2 * m_t:, 2 * m_t:], xi1=joint[:m_t, :m_t],
                               xi2=joint[:m_t, m_t:2 * m_t], xi3=joint[m_t:2 * m_t, m_t:2 * m_t],
                               lam=float(rng.uniform(0.01, 10.0)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m_t=st.integers(1, 8), l_samples=st.integers(1, 12),
       kappa=st.floats(1.0, 3.0), amp_db=st.floats(-20.0, 20.0), noise=st.floats(0.05, 20.0))
def test_covariance_forms_match_waveform_forms(seed, m_t, l_samples, kappa, amp_db, noise):
    # The bounds and the beampattern of R = X X^H against the waveform
    # forms t_i = Tr{X^H xi_i X} and ||X^H a||^2, computed here from X.
    rng = np.random.default_rng(seed)
    x = random_feasible_waveform(rng, ArrayConfig(m_t, 4, l_samples, papr=kappa))
    mom = random_moments(rng, m_t)
    r = covariance(x)
    t0, t1, t3 = (np.vdot(x, xi @ x).real for xi in (mom.xi0, mom.xi1, mom.xi3))
    t2 = np.vdot(x, mom.xi2 @ x)
    amp = 10.0 ** (amp_db / 20.0)
    snr = 2.0 * amp**2 / noise
    want = 1.0 / (mom.lam + snr * (t1 - abs(t2) ** 2 / t3))
    assert abs(pcrb_theta(r, mom, amp, noise) - want) <= 1e-13 * want
    want = 1.0 / (mom.lam + snr * t0)
    assert abs(pcrb_upper_bound(r, mom, amp, noise) - want) <= 1e-13 * want
    # On the scale of the beampattern's ceiling m_t ||X||_F^2: near a null
    # both forms only resolve it to rounding.
    theta = rng.uniform(-np.pi / 2, np.pi / 2, 16)
    want = np.sum(np.abs(x.conj().T @ steering_matrix(theta, m_t)) ** 2, axis=0)
    assert np.all(np.abs(beampattern(r, theta) - want) <= 1e-13 * m_t * np.trace(r).real)
    # A waveform, a non-square matrix, a covariance with a non-Hermitian
    # part or a non-finite entry is not taken for a covariance.
    skewed, blank = r.copy(), r.copy()
    skewed[0, 0] += 1e-6j * np.trace(r).real
    blank[-1, 0] = np.nan
    # Each error names the property that failed.
    cases = [(r[:, :-1], "covariance must be a square matrix"),
             (skewed, "covariance is not Hermitian"), (blank, "covariance has a non-finite")]
    for bad, message in cases + ([(x, "square")] if l_samples != m_t else []):
        for call in (lambda: pcrb_theta(bad, mom, amp, noise),
                     lambda: pcrb_upper_bound(bad, mom, amp, noise),
                     lambda: beampattern(bad, theta)):
            with pytest.raises(ValueError, match=message):
                call()


def test_non_hermitian_moments_rejected(mom12):
    from dataclasses import replace
    bad = replace(mom12, xi1=mom12.xi1 + 1e-3j * np.eye(8))
    x = np.ones((8, 25), dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        pcrb_theta(covariance(x), bad, 1.0, 1.0)


def test_no_information_raises():
    cfg = ArrayConfig(4, 4, 8)
    mom = _point_moments(0.0, cfg)  # lam = 0
    with pytest.raises(ValueError):
        pcrb_theta(np.zeros((4, 4)), mom, 1.0, 1.0)
