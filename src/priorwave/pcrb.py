"""Posterior Cramer-Rao bound on the angle estimate of a waveform.

The posterior Fisher information for the parameter vector
``[theta, Re(amplitude), Im(amplitude)]`` is assembled from the traces
``t_i = Tr{xi_i R}`` of the distribution moments over the waveform
covariance ``R = X X^H`` and the prior Fisher scalar. The angle-only bound
is the Schur complement of the amplitude block, which has the closed form
``t1 - |t2|^2 / t3``; dropping the subtracted term gives the trace upper
bound, the solver-friendly surrogate.
"""

from __future__ import annotations

import numpy as np

from .priors import DistributionMoments
from .ula import _covariance

__all__ = [
    "pcrb_theta",
    "pcrb_upper_bound",
]

# Below this fraction of Tr{R} Tr{xi3}, which bounds the xi3 trace of any
# covariance of that energy (xi3 is positive semidefinite), the amplitude
# block is treated as degenerate and the bound falls back to the
# prior-only value. Relative, so the test does not depend on the scale of R.
_DEGENERATE_TRACE = 1e-14


def _hermitian_trace(r: np.ndarray, mom: np.ndarray, name: str) -> float:
    """Real value of ``Tr{M R} = <R, M>`` for a Hermitian moment matrix."""
    val = complex(np.vdot(r, mom))
    scale = max(abs(val.real), 1e-300)
    if abs(val.imag) > 1e-8 * scale:
        raise ValueError(
            f"trace through {name} has imaginary residue {val.imag:.3e}; "
            "moment matrix is not numerically Hermitian"
        )
    return val.real


def _bound(r, mom: DistributionMoments, amplitude: complex, noise_power: float,
           signal) -> float:
    """``1 / (lam + (2|amp|^2/sigma^2) signal(R))`` once the covariance's
    shape and the noise power are checked."""
    r = _covariance(r)
    if r.shape != mom.xi0.shape:
        raise ValueError("covariance shape does not match the moment matrices")
    if not noise_power > 0:
        raise ValueError("noise_power must be positive")
    information = mom.lam + 2.0 * abs(complex(amplitude)) ** 2 / noise_power * signal(r)
    if not information > 0:
        raise ValueError("posterior information is not positive; "
                         "no angle information in signal or prior")
    return 1.0 / information


def _schur(r: np.ndarray, mom: DistributionMoments) -> float:
    """The angle information per unit SNR, ``t1 - |t2|^2 / t3``."""
    t1 = _hermitian_trace(r, mom.xi1, "xi1")
    t3 = _hermitian_trace(r, mom.xi3, "xi3")
    if t3 <= _DEGENERATE_TRACE * np.trace(r).real * np.trace(mom.xi3).real:
        return t1
    # Tr{xi2 R} of the Hermitian R, complex in general.
    return t1 - abs(complex(np.vdot(r, mom.xi2))) ** 2 / t3


def pcrb_theta(r: np.ndarray, mom: DistributionMoments, amplitude: complex,
               noise_power: float) -> float:
    """Posterior Cramer-Rao bound on the angle MSE, in radians squared.

    ``1 / (lam + (2|amp|^2/sigma^2) (t1 - |t2|^2 / t3))`` with
    ``t_i = Tr{xi_i R}`` for the waveform covariance ``R = X X^H``: the
    inverse of the angle information after eliminating the unknown
    amplitude. The Hermitian traces must come out real and raise if they
    do not. A covariance that radiates (numerically) no energy into the
    prior support, relative to its own, makes the amplitude block
    singular; the Schur term is then dropped and the bound degrades to the
    prior-only value.
    """
    return _bound(r, mom, amplitude, noise_power, lambda r: _schur(r, mom))


def pcrb_upper_bound(r: np.ndarray, mom: DistributionMoments, amplitude: complex,
                     noise_power: float) -> float:
    """Trace upper bound on the PCRB of the covariance ``R``, via ``xi0`` only."""
    return _bound(r, mom, amplitude, noise_power,
                  lambda r: _hermitian_trace(r, mom.xi0, "xi0"))
