"""Uniform-linear-array geometry: steering vectors and beampatterns.

Angles are radians in [-pi/2, pi/2] everywhere in this package; only the
CLI converts degrees at its boundary. The element phase reference sits at
the array center, which makes a steering vector and its angular derivative
exactly orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HALF_DOMAIN",
    "ArrayConfig",
    "Feasibility",
    "steering_matrix",
    "steering_derivative_matrix",
    "receive_derivative_norm2",
    "beampattern",
    "waveform_feasibility",
]

HALF_DOMAIN = np.pi / 2

# Slack for angle-domain checks: grid endpoints may sit exactly on +-pi/2.
_ANGLE_SLACK = 1e-12


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry and power budget of the colocated MIMO radar.

    Attributes
    ----------
    m_t, m_r : int
        Transmit / receive antenna counts.
    l_samples : int
        Samples per pulse (columns of the waveform matrix).
    power : float
        Total transmit energy ``P``; optimized waveforms satisfy
        ``||X||_F**2 == P``.
    papr : float
        Peak-to-average power ratio threshold ``kappa >= 1``.
    noise_power : float
        Per-entry complex noise variance at the receiver, linear scale.
        Real and imaginary parts carry half each.
    spacing : float
        Element spacing in wavelengths. The per-index phase step of a
        steering vector is ``2*pi*spacing*sin(theta)``, i.e.
        ``pi*sin(theta)`` at the default half-wavelength spacing.
    """

    m_t: int
    m_r: int
    l_samples: int
    power: float = 1.0
    papr: float = 1.0
    noise_power: float = 1.0
    spacing: float = 0.5

    def __post_init__(self) -> None:
        if self.m_t < 1 or self.m_r < 1:
            raise ValueError("antenna counts must be at least 1")
        if self.l_samples < 1:
            raise ValueError("l_samples must be at least 1")
        if not 1 <= self.papr < np.inf:
            raise ValueError("papr threshold must be >= 1 and finite")
        for name in ("power", "noise_power", "spacing"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")

    @property
    def elem_bound(self) -> float:
        """Per-entry power cap ``kappa * P / (M_t * L)``."""
        return self.papr * self.power / (self.m_t * self.l_samples)


@dataclass(frozen=True)
class Feasibility:
    """Constraint slack of a waveform: power mismatch and PAPR margin.

    ``power_error`` is ``| ||X||_F**2 - P |``; ``papr_margin`` is
    ``bound - max|X(m,l)|**2`` (negative means the element cap is
    violated).
    """

    power_error: float
    papr_margin: float


def _check_angles(theta) -> np.ndarray:
    arr = np.asarray(theta, dtype=float)
    if not np.all(np.abs(arr) <= HALF_DOMAIN + _ANGLE_SLACK):  # NaN fails too
        raise ValueError("angle outside [-pi/2, pi/2]")
    return arr


def _offsets(m: int) -> np.ndarray:
    # Centered element indices -(m-1)/2 ... +(m-1)/2.
    return np.arange(m) - (m - 1) / 2.0


def steering_matrix(theta, m: int, spacing: float = 0.5) -> np.ndarray:
    """Steering vectors for one or more angles, stacked as columns.

    Entry ``(i, n)`` is ``exp(1j * 2*pi*spacing * (i - (m-1)/2) *
    sin(theta_n))``.

    Parameters
    ----------
    theta : float or array_like
        Angle(s) in radians, within [-pi/2, pi/2].
    m : int
        Number of elements.
    spacing : float
        Element spacing in wavelengths.

    Returns
    -------
    np.ndarray
        Complex array of shape ``(m,)`` for scalar input, else
        ``(m, len(theta))``.
    """
    if m < 1:
        raise ValueError("element count must be at least 1")
    return _steer(_check_angles(theta), m, spacing)


def _steer(th: np.ndarray, m: int, spacing: float) -> np.ndarray:
    """``steering_matrix`` on angles already checked."""
    phase = 2.0 * np.pi * spacing * np.multiply.outer(_offsets(m), np.sin(th))
    return np.exp(1j * phase)


def steering_derivative_matrix(theta, m: int, spacing: float = 0.5) -> np.ndarray:
    """Entrywise d/d(theta) of :func:`steering_matrix` at the same angles."""
    if m < 1:
        raise ValueError("element count must be at least 1")
    th = _check_angles(theta)
    a = _steer(th, m, spacing)
    rate = 2.0 * np.pi * spacing * np.multiply.outer(_offsets(m), np.cos(th))
    return 1j * rate * a


def receive_derivative_norm2(theta, m_r: int, spacing: float = 0.5) -> np.ndarray:
    """``||da_r(theta)/dtheta||**2`` for the receive array.

    Equals ``(2*pi*spacing*cos(theta))**2 * sum_i (i - (m_r-1)/2)**2``;
    used as the scalar factor in the angle-information moments.
    """
    th = _check_angles(theta)
    coeff = float(np.sum(_offsets(m_r) ** 2))
    return (2.0 * np.pi * spacing * np.cos(th)) ** 2 * coeff


def _covariance(r) -> np.ndarray:
    """A transmit covariance ``R = X X^H`` as a complex matrix, checked finite,
    square and Hermitian up to rounding."""
    r = np.asarray(r, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"covariance must be a square matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("covariance has a non-finite entry")
    if not np.max(np.abs(r - r.conj().T)) <= 1e-10 * np.max(np.abs(r)):
        raise ValueError("covariance is not Hermitian")
    return r


def beampattern(r: np.ndarray, theta, spacing: float = 0.5):
    """Transmit power ``Re(a_t(theta)^H R a_t(theta))`` toward ``theta``.

    For ``R = X X^H`` this is ``||a_t^H X||_F**2``, the energy the waveform
    ``X`` radiates toward ``theta``; clamped at 0 against rounding.

    Parameters
    ----------
    r : np.ndarray
        Hermitian covariance of shape ``(m_t, m_t)``.
    theta : float or array_like
        Angle(s) in radians.

    Returns
    -------
    float or np.ndarray
        Nonnegative radiated energy per angle.
    """
    r = _covariance(r)
    a = steering_matrix(theta, r.shape[0], spacing)
    ra = r @ a
    out = np.maximum((a.real * ra.real + a.imag * ra.imag).sum(axis=0), 0.0)
    return float(out) if np.isscalar(theta) or np.ndim(theta) == 0 else out


def waveform_feasibility(x: np.ndarray, cfg: ArrayConfig) -> Feasibility:
    """Measure power mismatch and PAPR margin of a waveform against ``cfg``."""
    x = np.asarray(x)
    if x.shape != (cfg.m_t, cfg.l_samples):
        raise ValueError(
            f"waveform shape {x.shape} does not match config "
            f"({cfg.m_t}, {cfg.l_samples})"
        )
    power_error = abs(float(np.sum(np.abs(x) ** 2)) - cfg.power)
    papr_margin = cfg.elem_bound - float(np.max(np.abs(x) ** 2))
    return Feasibility(power_error=power_error, papr_margin=papr_margin)
