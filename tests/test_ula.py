import numpy as np
import pytest
from conftest import covariance, received_block, synthesize_received
from hypothesis import given, settings
from hypothesis import strategies as st

from priorwave import (
    ArrayConfig,
    beampattern,
    steering_derivative_matrix,
    steering_matrix,
    waveform_feasibility,
)
from priorwave.ula import _check_angles


def test_steering_broadside_is_all_ones():
    a = steering_matrix(0.0, 8, 0.5)
    assert np.allclose(a, np.ones(8), atol=0)


def test_steering_self_inner_product_is_element_count():
    rng = np.random.default_rng(0)
    for _ in range(20):
        th = rng.uniform(-np.pi / 2, np.pi / 2)
        m = rng.integers(1, 12)
        a = steering_matrix(th, int(m))
        assert abs(np.vdot(a, a) - m) < 1e-12


def test_steering_phases_match_centered_exponent():
    # Per-index phase step is 2*pi*spacing*sin(theta): pi*sin(theta) at
    # half-wavelength spacing, with centered offsets (i - (m-1)/2).
    th = np.pi / 6
    a = steering_matrix(th, 4, 0.5)
    offsets = np.array([-1.5, -0.5, 0.5, 1.5])
    expected = np.exp(1j * np.pi * offsets * np.sin(th))
    assert np.max(np.abs(a - expected)) < 1e-15


def test_unit_modulus_and_derivative_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(100):
        th = rng.uniform(-np.pi / 2, np.pi / 2)
        a = steering_matrix(th, 8)
        da = steering_derivative_matrix(th, 8)
        assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-12
        assert abs(np.vdot(da, a)) <= 1e-10


def test_derivative_at_broadside():
    da = steering_derivative_matrix(0.0, 8, 0.5)
    expected = 1j * np.pi * (np.arange(8) - 3.5)
    assert np.max(np.abs(da - expected)) < 1e-14


def test_derivative_matches_central_finite_difference():
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(25):
        th = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3)
        fd = (steering_matrix(th + h, 8) - steering_matrix(th - h, 8)) / (2 * h)
        da = steering_derivative_matrix(th, 8)
        assert np.max(np.abs(fd - da)) / np.max(np.abs(da)) < 1e-6


def test_out_of_range_angle_rejected():
    with pytest.raises(ValueError):
        steering_matrix(2.0, 8)
    with pytest.raises(ValueError):
        steering_matrix(np.array([0.0, -1.7]), 4)
    with pytest.raises(ValueError, match=r"angle outside \[-pi/2, pi/2\]"):
        steering_matrix(np.nan, 2)


def test_beampattern_orthogonal_rows_is_flat_at_power():
    cfg = ArrayConfig(4, 4, 16, power=2.0)
    # Scaled DFT rows: X X^H = (P / m_t) I.
    m, l = np.meshgrid(np.arange(4), np.arange(16), indexing="ij")
    x = np.sqrt(cfg.power / (4 * 16)) * np.exp(-2j * np.pi * m * l / 16)
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 61)
    bp = beampattern(covariance(x), thetas)
    assert np.max(np.abs(bp - cfg.power)) < 1e-12


def test_beampattern_zero_waveform_and_nonnegativity():
    assert beampattern(np.zeros((4, 4), dtype=complex), 0.3) == 0.0
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    bp = beampattern(covariance(x), np.linspace(-np.pi / 2, np.pi / 2, 41))
    assert np.all(bp >= 0)


def test_beampattern_matches_gram_path():
    # The covariance form a^H R a against the waveform's own ||X^H a||^2.
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 10)) + 1j * rng.normal(size=(6, 10))
    gram = covariance(x)
    for th in rng.uniform(-np.pi / 2, np.pi / 2, size=25):
        a = steering_matrix(th, 6)
        direct = float(np.sum(np.abs(x.conj().T @ a) ** 2))
        assert abs(beampattern(gram, th) - direct) <= 1e-10 * max(1.0, direct)


def test_beampattern_invariant_under_right_unitary():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 31)
    assert np.allclose(beampattern(covariance(x), thetas),
                       beampattern(covariance(x @ q), thetas), rtol=1e-12)


def test_synthesize_broadside_noiseless_structure():
    # At theta = 0 everything steers to ones: each receive row carries the
    # column sums of X.
    rng = np.random.default_rng(6)
    x = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    y = synthesize_received(x, 0.0, 1.0, 3, 1e-30, np.random.default_rng(0))
    rowsum = x.sum(axis=0)
    for r in range(3):
        assert np.allclose(y[r], rowsum, atol=1e-10)


def test_synthesize_noise_variance():
    x = np.zeros((2, 4), dtype=complex)
    rng = np.random.default_rng(7)
    noise_power = 0.7
    draws = np.array([
        synthesize_received(x, 0.1, 0.0, 2, noise_power, rng) for _ in range(12500)
    ])
    per_entry = np.mean(np.abs(draws) ** 2)  # 1e5 noise samples in total
    assert 0.97 * noise_power <= per_entry <= 1.03 * noise_power


def test_synthesize_deterministic_per_seed():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    y1 = synthesize_received(x, 0.2, 1 + 1j, 4, 0.5, np.random.default_rng(42))
    y2 = synthesize_received(x, 0.2, 1 + 1j, 4, 0.5, np.random.default_rng(42))
    assert np.array_equal(y1, y2)


def formula_frame(x, theta, amplitude, m_r, noise_power, rng, spacing):
    """One frame as the plain product ``amplitude * a_r (a_t^H X) + Z``."""
    a_t = steering_matrix(theta, x.shape[0], spacing)
    a_r = steering_matrix(theta, m_r, spacing)
    noise = rng.normal(scale=np.sqrt(noise_power / 2.0), size=(m_r, x.shape[1], 2))
    return amplitude * np.outer(a_r, a_t.conj() @ x) + noise[..., 0] + 1j * noise[..., 1]


ANGLES = st.one_of(st.sampled_from([-np.pi / 2, np.pi / 2, 0.0]),
                   st.floats(-np.pi / 2, np.pi / 2))
AMPLITUDES = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m_t=st.integers(1, 9), m_r=st.integers(1, 9),
       l_samples=st.integers(1, 12), n=st.integers(1, 70), spacing=st.floats(0.1, 2.0),
       noise_power=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
def test_block_frames_match_per_trial_synthesis(data, m_t, m_r, l_samples, n, spacing,
                                                noise_power, seed):
    # A block built at once from the trials' own draws is bit-identical to
    # the per-trial frames, and both to the plain one-frame product.
    thetas = data.draw(st.lists(ANGLES, min_size=n, max_size=n))
    amps = data.draw(st.lists(AMPLITUDES, min_size=n, max_size=n))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m_t, l_samples)) + 1j * rng.normal(size=(m_t, l_samples))
    streams = [np.random.SeedSequence([seed, k]) for k in range(n)]
    per_trial = np.stack([
        synthesize_received(x, th, amp, m_r, noise_power, np.random.default_rng(ss), spacing)
        for th, amp, ss in zip(thetas, amps, streams)
    ])
    formula = np.stack([
        formula_frame(x, th, amp, m_r, noise_power, np.random.default_rng(ss), spacing)
        for th, amp, ss in zip(thetas, amps, streams)
    ])
    noise = np.stack([
        np.random.default_rng(ss).normal(scale=np.sqrt(noise_power / 2.0),
                                         size=(m_r, l_samples, 2))
        for ss in streams
    ])
    block = received_block(x, _check_angles(thetas), np.array(amps, dtype=complex), noise,
                           spacing, np.empty((n, m_r, l_samples), dtype=complex))
    assert np.array_equal(block, per_trial)
    assert np.array_equal(per_trial, formula)


def test_single_entry_frame_matches_formula():
    # m_r = L = 1 makes the frame one entry, which numpy would multiply in
    # place with another rounding than the one-frame product.
    rng = np.random.default_rng(5)
    for k in range(40):
        x = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
        th, amp = rng.uniform(-np.pi / 2, np.pi / 2), complex(*rng.normal(size=2) * 3)
        got = synthesize_received(x, th, amp, 1, 1.0, np.random.default_rng(k))
        want = formula_frame(x, th, amp, 1, 1.0, np.random.default_rng(k), 0.5)
        assert np.array_equal(got, want)


def test_array_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(0, 4, 8)
    with pytest.raises(ValueError):
        ArrayConfig(4, 4, 8, papr=0.5)
    with pytest.raises(ValueError):
        ArrayConfig(4, 4, 8, power=0.0)
    with pytest.raises(ValueError):
        ArrayConfig(4, 4, 8, noise_power=-1.0)
    for key in ("power", "papr", "noise_power", "spacing"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ArrayConfig(4, 4, 8, **{key: bad})


def test_waveform_feasibility_reports_margins():
    cfg = ArrayConfig(2, 2, 4, power=1.0, papr=1.5)
    x = np.full((2, 4), np.sqrt(1.0 / 8), dtype=complex)
    feas = waveform_feasibility(x, cfg)
    assert feas.power_error < 1e-12
    assert abs(feas.papr_margin - (cfg.elem_bound - 1.0 / 8)) < 1e-15
    with pytest.raises(ValueError):
        waveform_feasibility(np.zeros((3, 4)), cfg)
