import numpy as np
import pytest

from priorwave import (
    AngularGrid,
    ArrayConfig,
    MapEstimator,
    MixtureGaussian,
    MixtureUniform,
    compute_moments,
    lag_coefficients,
    steering_matrix,
)
from priorwave.admm import _cap_elements, _XUpdate
from priorwave.priors import _point_moments


@pytest.fixture(scope="session")
def cfg12():
    """Case 1-2 array: M_t = M_r = 8, L = 25, P = 1, kappa = 1.2."""
    return ArrayConfig(m_t=8, m_r=8, l_samples=25, power=1.0, papr=1.2, noise_power=1.0)


@pytest.fixture(scope="session")
def dist12():
    """Case 1-2 prior: single uniform interval [-10, 10] degrees."""
    return MixtureUniform(intervals=((-np.pi / 18, np.pi / 18),), weights=(1.0,))


@pytest.fixture(scope="session")
def mom12(dist12, cfg12):
    return compute_moments(dist12, cfg12)


@pytest.fixture(scope="session")
def prior_moments(mom12, cfg12):
    """Uniform (case 1-2), Gaussian-mixture and one-angle moments for the case 1-2 array."""
    gauss = MixtureGaussian(means=(-0.5, 0.1, 0.6), sigma=0.07, weights=(0.2, 0.5, 0.3))
    return {"uniform": mom12, "gaussian": compute_moments(gauss, cfg12),
            "point": _point_moments(0.3, cfg12)}


@pytest.fixture(scope="session")
def grid361():
    return AngularGrid(361)


def covariance(x):
    """The covariance ``R = X X^H`` through which the package reads a waveform."""
    return x @ x.conj().T


def lag_kernel(x, m_r):
    """The matrix ``K`` of ``lag_coefficients``, ``c = vec(y) @ K``: the
    coefficients of the unit frames, shape ``(m_r L, lags)``."""
    n = m_r * x.shape[1]
    return lag_coefficients(x, np.eye(n).reshape(n, m_r, x.shape[1]), m_r)


def random_feasible_waveform(rng, cfg, kappa=None):
    """Random waveform polished onto the power sphere and element cap."""
    kappa = cfg.papr if kappa is None else kappa
    bound = kappa * cfg.power / (cfg.m_t * cfg.l_samples)
    x = rng.normal(size=(cfg.m_t, cfg.l_samples)) + 1j * rng.normal(
        size=(cfg.m_t, cfg.l_samples)
    )
    for _ in range(100):
        x = _cap_elements(x, bound)
        x = x * np.sqrt(cfg.power / np.sum(np.abs(x) ** 2))
        if np.max(np.abs(x) ** 2) <= bound * (1 + 1e-12):
            break
    return x


def posterior_fim(x, mom, amplitude, noise_power):
    """The full 3x3 posterior information matrix of ``[theta, Re(amp), Im(amp)]``.

    Assembled from the traces ``t_i = Tr{X^H xi_i X}``: ``(2|amp|^2/sigma^2) t1
    + lam`` at (0, 0); the cross block mixes ``t2`` with the amplitude
    components, as the exact mixed partials of the log-likelihood do; the
    amplitude block is ``(2/sigma^2) t3`` times the identity.
    """
    t1 = np.vdot(x, mom.xi1 @ x).real
    t2 = complex(np.vdot(x, mom.xi2 @ x))
    t3 = np.vdot(x, mom.xi3 @ x).real
    amp, scale = complex(amplitude), 2.0 / noise_power
    cross = scale * np.array([amp.real * t2.real + amp.imag * t2.imag,
                              amp.imag * t2.real - amp.real * t2.imag])
    fim = np.zeros((3, 3))
    fim[0, 0] = scale * abs(amp) ** 2 * t1 + mom.lam
    fim[0, 1:] = cross
    fim[1:, 0] = cross
    fim[1, 1] = fim[2, 2] = scale * t3
    return fim


def x_update(target, curvature, power):
    """The ADMM waveform update for a curvature given as a matrix.

    Minimizes the quadratic on the power sphere through ``admm._XUpdate``,
    as the solvers do, and returns the update and its power multiplier.
    ``eigh`` reads one triangle only, so a curvature that is not Hermitian
    is rejected here rather than silently symmetrized; a zero target, which
    the update itself answers with the bottom eigenvector, is rejected too.
    """
    q = np.asarray(target, dtype=complex)
    pmat = np.asarray(curvature, dtype=complex)
    if pmat.ndim != 2 or pmat.shape[0] != pmat.shape[1] or pmat.shape[0] != q.shape[0]:
        raise ValueError("curvature must be square and match the target rows")
    if np.max(np.abs(pmat - pmat.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(pmat))):
        raise ValueError("curvature matrix is not Hermitian")
    if not power > 0:
        raise ValueError("power must be positive")
    if not q.any():
        raise ValueError("zero target matrix admits no finite-power solution")
    x, mu, _, _ = _XUpdate(pmat, power)(q)
    return x, mu


def synthesize_received(x, theta, amplitude, m_r, noise_power, rng, spacing=0.5):
    """The frame-path reference: one received frame ``amplitude * a_r a_t^H X + Z``.

    Noise entries are i.i.d. circular complex Gaussian with per-entry
    variance ``noise_power`` (half in each of the real and imaginary
    parts), drawn from ``rng`` as one ``(m_r, L, 2)`` normal fill.
    """
    x = np.asarray(x, dtype=complex)
    noise = rng.normal(scale=np.sqrt(noise_power / 2.0), size=(1, m_r, x.shape[1], 2))
    frame = np.empty((1, m_r, x.shape[1]), dtype=complex)
    return received_block(x, np.array([float(theta)]), np.array([amplitude], dtype=complex),
                          noise, spacing, frame)[0]


def received_block(x, th, varsigma, noise, spacing, out):
    """Frames ``varsigma[n] * a_r a_t^H X + Z[n]`` into ``out``.

    ``th`` and ``varsigma`` have one entry per frame; ``noise`` has shape
    ``(N, m_r, L, 2)`` (real and imaginary parts) and ``out`` is the
    complex ``(N, m_r, L)`` block it fills. Each frame is bit-identical to
    the one-frame product: the stacked ``(N, 1, m_t) @ (m_t, L)`` runs the
    kernel of a lone C-ordered row, and ``varsigma`` stays the left
    operand, since numpy's SIMD complex multiply is not commutative bit
    for bit.
    """
    a_t = np.conj(steering_matrix(th, x.shape[0], spacing).T, order="C")
    w = a_t[:, None, :] @ x
    np.multiply(steering_matrix(th, out.shape[1], spacing).T[:, :, None], w, out=out)
    # In place, except for a lone entry: numpy multiplies a single entry in
    # place with a scalar loop that rounds unlike its vector loop.
    np.multiply(varsigma[:, None, None], out if out.size > 1 else out.copy(), out=out)
    out.real += noise[..., 0]
    out.imag += noise[..., 1]
    return out


# Trials per Monte-Carlo block in the output contract of ``monte_carlo_mse``.
CONTRACT_BLOCK = 64


def per_block_mse(r, dist, cfg, grid, snr_list_db, n_trials, seed):
    """Reference sweep of the Monte-Carlo stream contract.

    Each block of 64 trials draws from its own generator, seeded by (seed,
    SNR index, block index), the true angles, then the phases, then one
    ``(k, lags, 2)`` normal fill; its lag coefficients are the amplitudes
    times the estimator's noiseless coefficients plus the fill, read as
    complex, times its noise factor, and are estimated as one stack. Then
    the same summary as ``SnrResult``, each bin's mean summed in trial order.
    """
    est = MapEstimator(r, dist, grid, cfg.m_r, cfg.noise_power, cfg.spacing)
    lags = est._noise_factor.shape[0]
    out = []
    for i_snr, snr_db in enumerate(snr_list_db):
        amp = float(np.sqrt(cfg.noise_power * 10.0 ** (snr_db / 10.0) / cfg.power))
        truth, got = [], []
        for block, start in enumerate(range(0, n_trials, CONTRACT_BLOCK)):
            k = min(CONTRACT_BLOCK, n_trials - start)
            rng = np.random.default_rng(np.random.SeedSequence([seed, i_snr, block]))
            theta = dist.sample(rng, k)
            varsigma = amp * np.exp(1j * (2.0 * np.pi * rng.random(k)))
            fill = rng.standard_normal((k, lags, 2))
            noise = (fill[..., 0] + 1j * fill[..., 1]) @ est._noise_factor
            truth.append(theta)
            got.append(est.estimate(noise + varsigma[:, None] * est._mean_coef(theta)))
        truth, got = np.concatenate(truth), np.concatenate(got)
        sq_err = (got - truth) ** 2
        bins = np.clip(np.rint((truth + np.pi / 2) / grid.cell), 0, len(grid) - 1).astype(int)
        per_angle = []
        for b in np.unique(bins):
            total = 0.0
            for e in sq_err[bins == b]:
                total += e
            per_angle.append((float(grid.points[b]), int(np.sum(bins == b)),
                              float(total / np.sum(bins == b))))
        out.append((float(np.mean(sq_err)),
                    float(np.std(sq_err, ddof=1) / np.sqrt(n_trials)), tuple(per_angle)))
    return out
