"""Posterior Cramer-Rao bound on the angle estimate of a waveform.

The posterior Fisher information for the parameter vector
``[theta, Re(amplitude), Im(amplitude)]`` splits into a signal part,
assembled from the distribution moments, and the prior Fisher scalar.
The angle-only bound is the Schur complement of the amplitude block; a
trace upper bound on that complement gives the solver-friendly surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .priors import DistributionMoments

__all__ = [
    "FimBlocks",
    "fim_signal",
    "pcrb_theta",
    "pcrb_upper_bound",
]

# Below this signal energy through xi3 the amplitude block is treated as
# degenerate and the bound falls back to the prior-only value.
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


@dataclass(frozen=True)
class FimBlocks:
    """Blocks of the 3x3 posterior Fisher information matrix.

    ``f_theta_varsigma`` is the real 1x2 cross block; the amplitude block
    is ``f_varsigma_scale * I_2``. ``b_theta_theta`` is the prior Fisher
    scalar.
    """

    f_theta_theta: float
    f_theta_varsigma: np.ndarray
    f_varsigma_scale: float
    b_theta_theta: float


def fim_signal(
    x: np.ndarray,
    mom: DistributionMoments,
    amplitude: complex,
    noise_power: float,
) -> FimBlocks:
    """Signal and prior Fisher blocks for waveform ``x``.

    ``F_theta_theta = (2|amp|^2/sigma^2) Tr{X^H xi1 X}`` and the amplitude
    blocks follow from ``xi2`` and ``xi3``. The ``xi2`` trace is complex
    in general; the exact mixed partials of the log-likelihood give a
    cross block that mixes its real and imaginary parts with the
    amplitude components, and whose squared norm is
    ``(2/sigma^2)^2 |amp|^2 |Tr{X^H xi2 X}|^2``. The Hermitian traces must
    come out real and raise if they do not.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != mom.xi1.shape[0]:
        raise ValueError("waveform shape does not match the moment matrices")
    if not noise_power > 0:
        raise ValueError("noise_power must be positive")
    amp = complex(amplitude)

    t1 = _hermitian_trace(x, mom.xi1, "xi1")
    t3 = _hermitian_trace(x, mom.xi3, "xi3")
    t2 = complex(np.vdot(x, mom.xi2 @ x))

    f_tt = 2.0 * abs(amp) ** 2 / noise_power * t1
    f_ts = (2.0 / noise_power) * np.array(
        [amp.real * t2.real + amp.imag * t2.imag,
         amp.imag * t2.real - amp.real * t2.imag]
    )
    scale = 2.0 / noise_power * t3
    return FimBlocks(
        f_theta_theta=f_tt,
        f_theta_varsigma=f_ts,
        f_varsigma_scale=scale,
        b_theta_theta=mom.lam,
    )


def pcrb_theta(
    x: np.ndarray,
    mom: DistributionMoments,
    amplitude: complex,
    noise_power: float,
) -> float:
    """Posterior Cramer-Rao bound on the angle MSE, in radians squared.

    The inverse of the angle information after eliminating the unknown
    amplitude. A waveform that radiates (numerically) no energy into the
    prior support makes the amplitude block singular; the Schur
    correction is then dropped and the bound degrades to the prior-only
    value.
    """
    blocks = fim_signal(x, mom, amplitude, noise_power)
    if blocks.f_varsigma_scale * noise_power / 2.0 < _DEGENERATE_TRACE:
        schur = 0.0
    else:
        schur = float(blocks.f_theta_varsigma @ blocks.f_theta_varsigma) / blocks.f_varsigma_scale
    information = blocks.f_theta_theta + blocks.b_theta_theta - schur
    if not information > 0:
        raise ValueError("posterior information is not positive; "
                         "no angle information in signal or prior")
    return 1.0 / information


def pcrb_upper_bound(
    x: np.ndarray,
    mom: DistributionMoments,
    amplitude: complex,
    noise_power: float,
) -> float:
    """Trace upper bound on the PCRB via the ``xi0`` moment only."""
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != mom.xi0.shape[0]:
        raise ValueError("waveform shape does not match the moment matrices")
    t0 = _hermitian_trace(x, mom.xi0, "xi0")
    information = mom.lam + 2.0 * abs(complex(amplitude)) ** 2 / noise_power * t0
    if not information > 0:
        raise ValueError("posterior information is not positive; "
                         "no angle information in signal or prior")
    return 1.0 / information
