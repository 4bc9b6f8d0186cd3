import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import priorwave.priors as priors_mod
from priorwave import (
    ArrayConfig,
    MixtureGaussian,
    MixtureUniform,
    compute_moments,
    steering_matrix,
)
from priorwave.priors import _point_moments
from priorwave.ula import _check_angles

SCENARIO3_MEANS = (-np.pi / 3, -np.pi / 6, np.pi / 9, 5 * np.pi / 18)
SCENARIO3_WEIGHTS = (0.15, 0.25, 0.4, 0.2)


def test_uniform_pdf_level():
    dist = MixtureUniform(((-np.pi / 18, np.pi / 18),), (1.0,))
    inside = dist.pdf(0.01)
    assert abs(inside - 9 / np.pi) < 1e-12
    assert dist.pdf(0.5) == 0.0


def test_gaussian_pdf_peak():
    dist = MixtureGaussian(means=(0.0,), sigma=np.pi / 180, weights=(1.0,))
    assert abs(dist.pdf(0.0) - 1 / (np.sqrt(2 * np.pi) * np.pi / 180)) < 1e-9


def test_scenario3_mixture_normalizes():
    dist = MixtureGaussian(SCENARIO3_MEANS, np.pi / 90, SCENARIO3_WEIGHTS)
    total, _ = quad(dist.pdf, -np.pi / 2, np.pi / 2, limit=400)
    assert abs(total - 1.0) < 1e-6


def test_log_pdf_grad_values():
    g1 = MixtureGaussian((0.1,), np.pi / 90, (1.0,))
    th = 0.08
    d1, d2 = g1.log_pdf_derivs(th)
    assert abs(d1 - (0.1 - th) / (np.pi / 90) ** 2) < 1e-9
    assert abs(d2 + 1 / (np.pi / 90) ** 2) < 1e-9
    sym = MixtureGaussian((-0.3, 0.3), np.pi / 45, (0.5, 0.5))
    assert abs(sym.log_pdf_derivs(0.0)[0]) < 1e-12
    # Both derivatives against central differences of log pdf, in the tails too.
    mix = MixtureGaussian(SCENARIO3_MEANS, np.pi / 90, SCENARIO3_WEIGHTS)
    th, h = np.linspace(-1.2, 1.2, 97), 1e-5
    d1, d2 = mix.log_pdf_derivs(th)
    lp = [np.log(mix.pdf(th + k * h)) for k in (-1, 0, 1)]
    assert np.allclose(d1, (lp[2] - lp[0]) / (2 * h), rtol=1e-6, atol=1e-3)
    assert np.allclose(d2, (lp[2] - 2 * lp[1] + lp[0]) / h**2, rtol=1e-4, atol=1.0)
    flat = MixtureUniform(((-0.2, 0.3),), (1.0,)).log_pdf_derivs(th)
    assert np.array_equal(flat[0], np.zeros_like(th)) and np.array_equal(flat[1], flat[0])


def test_expected_score_is_zero():
    dist = MixtureGaussian((-0.2, 0.25), np.pi / 60, (0.4, 0.6))
    val, _ = quad(lambda t: dist.pdf(t) * dist.log_pdf_derivs(t)[0], -np.pi / 2, np.pi / 2,
                  limit=400)
    assert abs(val) < 1e-6


def test_validation_rejects_bad_mixtures():
    with pytest.raises(ValueError):
        MixtureUniform(((-0.1, 0.1),), (0.9,))  # weights must sum to 1
    with pytest.raises(ValueError):
        MixtureUniform(((0.1, -0.1),), (1.0,))  # reversed endpoints
    with pytest.raises(ValueError):
        MixtureUniform(((-0.2, 0.1), (0.0, 0.3)), (0.5, 0.5))  # overlap
    with pytest.raises(ValueError):
        MixtureGaussian((0.0,), -0.1, (1.0,))
    for means, sigma, weights in (((np.nan,), 0.1, (1.0,)), ((0.0,), np.inf, (1.0,)),
                                  ((0.0,), np.nan, (1.0,)), ((0.0,), 0.1, (np.nan,)),
                                  ((0.0, 0.1), 0.1, (np.inf, 0.5))):
        with pytest.raises(ValueError):
            MixtureGaussian(means, sigma, weights)
    with pytest.raises(ValueError, match="finite"):
        MixtureUniform(((-0.1, 0.1),), (np.nan,))
    with pytest.raises(ValueError):
        _point_moments(3.0, ArrayConfig(4, 6, 8))


def test_point_mass_moments_are_exact():
    cfg = ArrayConfig(4, 6, 8)
    th0 = 0.4
    mom = _point_moments(th0, cfg)
    a = steering_matrix(th0, 4)
    assert np.allclose(mom.xi3, 6 * np.outer(a, a.conj()), atol=1e-14)
    assert abs(np.trace(mom.xi3).real - 6 * 4) < 1e-12
    assert mom.lam == 0.0


@pytest.mark.parametrize("dist", [
    MixtureUniform(((-np.pi / 18, np.pi / 18),), (1.0,)),
    MixtureGaussian(SCENARIO3_MEANS, np.pi / 90, SCENARIO3_WEIGHTS),
])
def test_xi3_trace_is_mr_mt(dist):
    cfg = ArrayConfig(8, 8, 25)
    mom = compute_moments(dist, cfg)
    assert abs(np.trace(mom.xi3).real - 64) < 64 * 1e-5


def test_gaussian_k1_lambda_matches_inverse_variance():
    cfg = ArrayConfig(4, 4, 8)
    for sigma in (np.pi / 360, np.pi / 180, np.pi / 90, np.pi / 45):
        mom = compute_moments(MixtureGaussian((0.1,), sigma, (1.0,)), cfg)
        assert abs(mom.lam - 1 / sigma**2) <= 1e-8 / sigma**2


def test_gaussian_lambda_nonnegative_and_below_k1_value():
    dist = MixtureGaussian((-0.05, 0.05), np.pi / 90, (0.5, 0.5))
    cfg = ArrayConfig(4, 4, 8)
    mom = compute_moments(dist, cfg)
    assert 0 <= mom.lam < 1 / (np.pi / 90) ** 2


def test_gaussian_lambda_matches_direct_score_quadrature():
    # Independent oracle: the score from central differences of log pdf,
    # integrated adaptively by quad out to 10 sigma past the outer means.
    cases = [
        ((-0.3, 0.2), np.pi / 60, (0.45, 0.55), 364.733),
        # Heavily overlapping components: well below 1 / sigma**2 = 204.1.
        ((0.0, 0.05), 0.07, (0.5, 0.5), 181.016),
    ]
    for means, sigma, weights, expected in cases:
        dist = MixtureGaussian(means, sigma, weights)
        h = 1e-5 * sigma

        def integrand(t):
            score = (np.log(dist.pdf(t + h)) - np.log(dist.pdf(t - h))) / (2 * h)
            return dist.pdf(t) * score**2

        direct, _ = quad(integrand, min(means) - 10 * sigma, max(means) + 10 * sigma,
                         points=means, limit=200, epsabs=0.0, epsrel=1e-10)
        lam = compute_moments(dist, ArrayConfig(2, 2, 4)).lam
        assert abs(lam - direct) / direct < 1e-6, (means, lam, direct)
        assert abs(lam - expected) < 1e-3


def test_uniform_lambda_edge_smoothing():
    dist = MixtureUniform(((-np.pi / 18, np.pi / 18),), (1.0,))
    cfg = ArrayConfig(4, 4, 8)
    eps = np.pi / 720
    level = 9 / np.pi
    expected = 2 * level / (2 * eps) * np.log(1e3)  # two edges, floor 1e-3
    mom = compute_moments(dist, cfg)
    assert abs(mom.lam - expected) / expected < 1e-12


def test_touching_intervals_are_one_density():
    # Equal levels that touch are the merged interval: one level at the
    # junction, the same moments, and no edge term at the junction.
    cfg = ArrayConfig(8, 8, 25)
    pair = MixtureUniform(((0.0, 0.2), (-0.2, 0.0)), (0.5, 0.5))
    one = MixtureUniform(((-0.2, 0.2),), (1.0,))
    th = np.concatenate([np.linspace(-0.3, 0.3, 61), [-0.2, 0.0, 0.2]])
    assert np.array_equal(pair.pdf(th), one.pdf(th))
    a, b = compute_moments(pair, cfg), compute_moments(one, cfg)
    for x, y in ((a.xi0, b.xi0), (a.xi1, b.xi1), (a.xi2, b.xi2), (a.xi3, b.xi3)):
        assert np.max(np.abs(x - y)) <= 1e-6 * np.max(np.abs(y))
    assert abs(a.lam - b.lam) <= 1e-12 * b.lam
    # Unequal levels: each side's nodes carry its own level, so the mass is
    # 1, and the junction adds the Fisher integral of a ramp from one level
    # to the other over the same half-width as an edge.
    lo, hi = np.radians(-10), np.radians(10)
    uneq = MixtureUniform(((lo, 0.0), (0.0, hi)), (0.7, 0.3))
    assert uneq.pdf(0.0) == 0.7 / -lo
    _, wq, f = uneq.quadrature(priors_mod._MOMENT_NODES)
    assert abs(wq @ f - 1.0) <= 1e-12
    h = np.pi / 720
    la, lb = 0.7 / -lo, 0.3 / hi
    slope = (lb - la) / (2 * h)
    ramp, _ = quad(lambda t: slope**2 / (la + slope * t), 0.0, 2 * h, epsabs=0, epsrel=1e-13)
    edges = (la + lb) / (2 * h) * np.log(1e3)
    lam = compute_moments(uneq, cfg).lam
    assert abs(lam - (edges + ramp)) <= 1e-12 * lam


def test_moments_hermitian_psd_structure(mom12):
    for xi in (mom12.xi0, mom12.xi1, mom12.xi3):
        assert np.linalg.norm(xi - xi.conj().T) <= 1e-10
        assert np.linalg.eigvalsh(xi).min() >= -1e-9
    diff_eigs = np.linalg.eigvalsh(mom12.xi1 - mom12.xi0)
    assert diff_eigs.min() >= -1e-9


def test_moments_stable_under_grid_doubling(dist12, cfg12, mom12, monkeypatch):
    monkeypatch.setattr(priors_mod, "_MOMENT_NODES", 2 * priors_mod._MOMENT_NODES)
    fine = compute_moments(dist12, cfg12)
    for a, b in ((mom12.xi0, fine.xi0), (mom12.xi1, fine.xi1),
                 (mom12.xi2, fine.xi2), (mom12.xi3, fine.xi3)):
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) <= 1e-6 * scale


def test_moments_gaussian_windows_cover_narrow_components():
    dist = MixtureGaussian(SCENARIO3_MEANS, np.pi / 360, SCENARIO3_WEIGHTS)
    mom = compute_moments(dist, ArrayConfig(8, 8, 25))
    assert abs(np.trace(mom.xi3).real - 64) < 64 * 1e-5


def test_moments_reject_bad_grid_and_mass():
    dist = MixtureUniform(((-0.2, 0.2),), (1.0,))
    cfg = ArrayConfig(2, 2, 4)
    broken = MixtureUniform(((-0.2, 0.2),), (1.0,))
    object.__setattr__(broken, "weights", (0.5,))  # sidestep validation
    with pytest.raises(ValueError, match="not 1"):
        compute_moments(broken, cfg)


def test_sampling_point_mass_and_uniform_moments():
    dist = MixtureUniform(((0.1, 0.5),), (1.0,))
    draws = dist.sample(np.random.default_rng(1), size=100000)
    half_width = 0.2
    se = half_width / np.sqrt(3 * len(draws))
    assert abs(draws.mean() - 0.3) < 3 * se


def test_sampling_recovers_mixture_weights():
    dist = MixtureUniform(((-0.5, -0.3), (0.0, 0.1), (0.3, 0.6)), (0.2, 0.5, 0.3))
    draws = dist.sample(np.random.default_rng(2), size=100000)
    w1 = np.mean((draws >= -0.5) & (draws <= -0.3))
    w2 = np.mean((draws >= 0.0) & (draws <= 0.1))
    assert abs(w1 - 0.2) < 0.02 and abs(w2 - 0.5) < 0.02


def test_mixture_uniform_keeps_draws_density_and_equality():
    # pdf and sample reuse per-interval arrays; draws, density values,
    # equality and hash are those of the plain per-call formulas.
    ivs, weights = ((-0.5, -0.3), (0.0, 0.1), (0.3, 0.6)), (0.2, 0.5, 0.3)
    used, fresh = MixtureUniform(ivs, weights), MixtureUniform(ivs, weights)
    th = np.linspace(-0.6, 0.7, 27)
    want_pdf = sum(np.where((th >= lo) & (th <= hi), w / (hi - lo), 0.0)
                   for (lo, hi), w in zip(ivs, weights))
    assert np.array_equal(used.pdf(th), want_pdf)
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        ks = ref.choice(3, size=4, p=weights)
        want = np.array([ivs[k][0] + (ivs[k][1] - ivs[k][0]) * u
                         for k, u in zip(ks, ref.random(4))])
        assert np.array_equal(used.sample(rng, size=4), want)
    assert used == fresh and hash(used) == hash(fresh)
    assert used != MixtureUniform(ivs, (0.3, 0.4, 0.3))


def choice_reference_sample(dist, rng, n):
    """The mixture draws with the component picked by ``rng.choice``."""
    ks = rng.choice(len(dist.weights), size=n, p=dist.weights)
    if isinstance(dist, MixtureUniform):
        ivs = np.array(dist.intervals)
        return ivs[ks, 0] + (ivs[ks, 1] - ivs[ks, 0]) * rng.random(n)
    means = np.array(dist.means)
    draws = means[ks] + dist.sigma * rng.standard_normal(n)
    bad = np.abs(draws) > np.pi / 2
    while bad.any():
        draws[bad] = means[ks[bad]] + dist.sigma * rng.standard_normal(bad.sum())
        bad = np.abs(draws) > np.pi / 2
    return draws


def test_component_draw_matches_rng_choice():
    # The inline categorical draw picks what ``rng.choice(p=weights)``
    # picks and leaves the generator where it leaves it, for one weight or
    # several, one draw or many.
    for seed in range(400):
        setup = np.random.default_rng(seed)
        k = int(setup.integers(1, 7))
        w = setup.random(k) + 0.01
        weights = tuple(w / w.sum())
        edges = np.sort(setup.uniform(-1.5, 1.5, 2 * k))
        dists = (MixtureUniform(tuple(zip(edges[::2], edges[1::2])), weights),
                 MixtureGaussian(tuple(setup.uniform(-1.5, 1.5, k)), 0.05, weights))
        for dist in dists:
            for size in (None, 1, int(setup.integers(2, 40))):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                want = choice_reference_sample(dist, ref, 1 if size is None else size)
                got = dist.sample(rng, size)
                assert np.array_equal(np.atleast_1d(got), want), (seed, dist, size)
                assert rng.random() == ref.random()


def test_gaussian_sampling_respects_domain():
    dist = MixtureGaussian((np.pi / 2 - 0.01,), np.pi / 90, (1.0,))
    draws = dist.sample(np.random.default_rng(3), size=20000)
    assert np.all(draws <= np.pi / 2) and np.all(draws >= -np.pi / 2)


class TopRng:
    """Every uniform is the largest float below 1: the last component, at its top end."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lo=st.floats(-1e-12, 1e-12),
       hi=st.floats(-1e-12, 1e-12), width=st.floats(1e-9, 1.0))
def test_uniform_draws_stay_in_the_checked_angle_domain(seed, lo, hi, width):
    # Intervals that end within 1e-12 of +-90 degrees, inside or outside,
    # as far as validation allows: every draw passes the angle check, so
    # the Monte-Carlo loop need not repeat it.
    a, b = -np.pi / 2 + lo, np.pi / 2 + hi
    dist = MixtureUniform(((a, a + width), (b - width, b)), (0.5, 0.5))
    draws = dist.sample(np.random.default_rng(seed), size=4096)
    assert np.array_equal(_check_angles(draws), draws)
    top = dist.sample(TopRng(), size=1)
    assert np.array_equal(_check_angles(top), top) and a <= top[0] <= b


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mean=st.floats(-np.pi / 2, np.pi / 2),
       sigma_deg=st.floats(0.01, 20.0))
def test_gaussian_draws_stay_in_the_checked_angle_domain(seed, mean, sigma_deg):
    # Components centred at +-90 degrees put up to half their mass past
    # the domain; the sampler redraws it there.
    dist = MixtureGaussian((-np.pi / 2, np.pi / 2, mean), np.deg2rad(sigma_deg),
                           (0.25, 0.25, 0.5))
    draws = dist.sample(np.random.default_rng(seed), size=4096)
    assert np.array_equal(_check_angles(draws), draws)
