import numpy as np
import pytest

from priorwave import (
    AngularGrid,
    ArrayConfig,
    MixtureGaussian,
    MixtureUniform,
    compute_moments,
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
