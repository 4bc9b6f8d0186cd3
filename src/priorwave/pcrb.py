"""Posterior Cramer-Rao bound on the angle estimate of a waveform.

The posterior Fisher information for the parameter vector
``[theta, Re(amplitude), Im(amplitude)]`` is assembled from the traces
``t_i = Tr{X^H xi_i X}`` of the distribution moments and the prior Fisher
scalar. The angle-only bound is the Schur complement of the amplitude
block, which has the closed form ``t1 - |t2|^2 / t3``; dropping the
subtracted term gives the trace upper bound, the solver-friendly
surrogate.
"""

from __future__ import annotations

import numpy as np

from .priors import DistributionMoments

__all__ = [
    "pcrb_theta",
    "pcrb_upper_bound",
]

# Below this fraction of ||X||_F^2 Tr{xi3}, which bounds the xi3 trace of
# any waveform of that energy (xi3 is positive semidefinite), the amplitude
# block is treated as degenerate and the bound falls back to the
# prior-only value. Relative, so the test does not depend on the scale of X.
_DEGENERATE_TRACE = 1e-14


def _hermitian_trace(x: np.ndarray, mom: np.ndarray, name: str) -> float:
    """Real value of ``Tr{X^H M X}`` for a Hermitian moment matrix."""
    val = complex(np.vdot(x, mom @ x))
    scale = max(abs(val.real), 1e-300)
    if abs(val.imag) > 1e-8 * scale:
        raise ValueError(
            f"trace through {name} has imaginary residue {val.imag:.3e}; "
            "moment matrix is not numerically Hermitian"
        )
    return val.real


def _checked(x: np.ndarray, mom: DistributionMoments, noise_power: float) -> np.ndarray:
    """The waveform as a complex matrix, once its shape and the noise power are checked."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != mom.xi0.shape[0]:
        raise ValueError("waveform shape does not match the moment matrices")
    if not noise_power > 0:
        raise ValueError("noise_power must be positive")
    return x


def _inverse(information: float) -> float:
    if not information > 0:
        raise ValueError("posterior information is not positive; "
                         "no angle information in signal or prior")
    return 1.0 / information


def pcrb_theta(
    x: np.ndarray,
    mom: DistributionMoments,
    amplitude: complex,
    noise_power: float,
) -> float:
    """Posterior Cramer-Rao bound on the angle MSE, in radians squared.

    ``1 / (lam + (2|amp|^2/sigma^2) (t1 - |t2|^2 / t3))``: the inverse of
    the angle information after eliminating the unknown amplitude. The
    ``xi2`` trace is complex in general; the Hermitian traces must come
    out real and raise if they do not. A waveform that radiates
    (numerically) no energy into the prior support, relative to its own,
    makes the amplitude block singular; the Schur term is then dropped
    and the bound degrades to the prior-only value.
    """
    x = _checked(x, mom, noise_power)
    t1 = _hermitian_trace(x, mom.xi1, "xi1")
    t3 = _hermitian_trace(x, mom.xi3, "xi3")
    t2 = complex(np.vdot(x, mom.xi2 @ x))
    if t3 <= _DEGENERATE_TRACE * float(np.vdot(x, x).real) * np.trace(mom.xi3).real:
        signal = t1
    else:
        signal = t1 - abs(t2) ** 2 / t3
    return _inverse(mom.lam + 2.0 * abs(complex(amplitude)) ** 2 / noise_power * signal)


def pcrb_upper_bound(
    x: np.ndarray,
    mom: DistributionMoments,
    amplitude: complex,
    noise_power: float,
) -> float:
    """Trace upper bound on the PCRB via the ``xi0`` moment only."""
    x = _checked(x, mom, noise_power)
    t0 = _hermitian_trace(x, mom.xi0, "xi0")
    return _inverse(mom.lam + 2.0 * abs(complex(amplitude)) ** 2 / noise_power * t0)
