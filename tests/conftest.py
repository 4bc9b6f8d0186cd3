import numpy as np
import pytest

from priorwave import (
    AngularGrid,
    ArrayConfig,
    MixtureUniform,
    compute_moments,
)
from priorwave.admm import _cap_elements, _XUpdate


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


def posterior_fim(blocks):
    """The full 3x3 posterior information matrix assembled from ``FimBlocks``."""
    fim = np.zeros((3, 3))
    fim[0, 0] = blocks.f_theta_theta + blocks.b_theta_theta
    fim[0, 1:] = blocks.f_theta_varsigma
    fim[1:, 0] = blocks.f_theta_varsigma
    fim[1, 1] = fim[2, 2] = blocks.f_varsigma_scale
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
