"""Angular priors on the target location and their information moments.

Two density families are supported: a mixture of disjoint uniform
intervals and a common-width Gaussian mixture. The moments ``xi0 ... xi3``
are the steering-vector integrals that enter the Fisher information of
the received signal, and ``lam`` is the Fisher information carried by the
prior itself. The deterministic-angle benchmark takes the moments of one
known angle instead (``_point_moments``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .ula import (
    HALF_DOMAIN,
    ArrayConfig,
    _ANGLE_SLACK,
    receive_derivative_norm2,
    steering_derivative_matrix,
    steering_matrix,
)

__all__ = [
    "MixtureUniform",
    "MixtureGaussian",
    "TargetDistribution",
    "DistributionMoments",
    "compute_moments",
]

_WEIGHT_TOL = 1e-12
# Trapezoid nodes of the moment quadrature, shared out over the windows.
_MOMENT_NODES = 2001
# Gaussian quadrature windows extend this many sigmas around each mean.
_GAUSS_WINDOW = 5.0
# Edge ramp half-width and foot floor of interval priors; see
# ``MixtureUniform.prior_fisher``.
_RAMP_HALFWIDTH = np.pi / 720
_RAMP_FLOOR = 1e-3


def _check_weights(weights) -> tuple[float, ...]:
    w = tuple(float(v) for v in weights)
    if not w:
        raise ValueError("at least one mixture component is required")
    if not all(0 < v < np.inf for v in w):
        raise ValueError("mixture weights must be positive and finite")
    if abs(sum(w) - 1.0) > _WEIGHT_TOL:
        raise ValueError("mixture weights must sum to 1")
    return w


def _merged(intervals) -> list[tuple[float, float]]:
    """The union of ``intervals``, sorted, with overlapping or touching ones merged."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def _weights_cdf(weights: tuple[float, ...]) -> np.ndarray:
    """Normalized cumulative weights for a categorical draw.

    ``cdf.searchsorted(rng.random(n), side="right")`` is the algorithm of
    ``rng.choice(len(weights), size=n, p=weights)``: the same picks from
    the same stream, without the call's argument checks.
    """
    cdf = np.cumsum(weights, dtype=float)
    return cdf / cdf[-1]


@dataclass(frozen=True)
class MixtureUniform:
    """Mixture of uniform densities on disjoint angular intervals."""

    intervals: tuple[tuple[float, float], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "weights", _check_weights(self.weights))
        if len(ivs) != len(self.weights):
            raise ValueError("one weight per interval is required")
        for lo, hi in ivs:
            if not lo < hi:
                raise ValueError("interval endpoints must satisfy lo < hi")
            if lo < -HALF_DOMAIN - _ANGLE_SLACK or hi > HALF_DOMAIN + _ANGLE_SLACK:
                raise ValueError("interval outside [-pi/2, pi/2]")
        ordered = sorted(ivs)
        for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
            if lo < hi:
                raise ValueError("intervals must be pairwise disjoint")

    # Per-interval arrays for pdf and sample, built on first use and kept:
    # they are not dataclass fields, so equality and hashing ignore them.
    @cached_property
    def _levels(self) -> np.ndarray:
        return np.array(
            [w / (hi - lo) for (lo, hi), w in zip(self.intervals, self.weights)]
        )

    @cached_property
    def _los(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.intervals])

    @cached_property
    def _widths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.intervals])

    @cached_property
    def _cdf(self) -> np.ndarray:
        return _weights_cdf(self.weights)

    def pdf(self, theta) -> np.ndarray:
        """The level of the first interval that holds each angle, else 0."""
        th = np.asarray(theta, dtype=float)
        out = np.zeros_like(th)
        for (lo, hi), level in zip(self.intervals, self._levels):
            out = np.where((out == 0.0) & (th >= lo) & (th <= hi), level, out)
        return float(out) if np.ndim(theta) == 0 else out

    def log_pdf_derivs(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Derivatives of ``log pdf``: zero, as the density is flat on its intervals."""
        zero = np.zeros_like(np.asarray(theta, dtype=float))
        return zero, zero

    def sample(self, rng: np.random.Generator, size: int | None = None):
        n = 1 if size is None else int(size)
        ks = self._cdf.searchsorted(rng.random(n), side="right")
        draws = self._los[ks] + self._widths[ks] * rng.random(n)
        return float(draws[0]) if size is None else draws

    def support(self) -> list[tuple[float, float]]:
        """The intervals of positive density, sorted, touching ones merged."""
        return _merged(self.intervals)

    def quadrature(self, n_nodes: int):
        """Trapezoid nodes, weights and densities on the intervals. Each
        interval's nodes carry its own level, so where two intervals touch
        the shared end counts once on either side at that side's level."""
        order = sorted(range(len(self.intervals)), key=self.intervals.__getitem__)
        th, wq, counts = _window_grid([self.intervals[k] for k in order], n_nodes)
        return th, wq, np.repeat(self._levels[order], counts)

    def prior_fisher(self) -> float:
        """Prior Fisher information with linear-ramp edge smoothing.

        The exact density has step edges whose squared score is not
        integrable, so each edge is replaced by a linear ramp of
        half-width ``pi/720`` (a quarter degree); the ramp itself still
        produces a logarithmically divergent score integral at its foot,
        so the closed-form edge contribution ``slope * log(level / floor)``
        is cut off at ``1e-3`` times the interval density level. Where two
        intervals of levels ``a`` and ``b`` touch, the ramp runs from one
        level to the other and adds ``|b - a| / (2 h) * |log(b / a)|``
        (zero for equal levels) in place of two cut-off edges. Both values
        are reporting conventions only; the solvers never use this value.
        """
        los = dict(zip((lo for lo, _ in self.intervals), self._levels))
        his = {hi for _, hi in self.intervals}
        total = 0.0
        for (lo, hi), level in zip(self.intervals, self._levels):
            slope = level / (2.0 * _RAMP_HALFWIDTH)
            total += ((lo not in his) + (hi not in los)) * slope * np.log(1.0 / _RAMP_FLOOR)
            nxt = los.get(hi)
            if nxt is not None:
                total += abs(nxt - level) / (2.0 * _RAMP_HALFWIDTH) * abs(np.log(nxt / level))
        return total


@dataclass(frozen=True)
class MixtureGaussian:
    """Gaussian mixture with per-component means and one shared sigma."""

    means: tuple[float, ...]
    sigma: float
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "weights", _check_weights(self.weights))
        if len(self.means) != len(self.weights):
            raise ValueError("one weight per mean is required")
        if not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        for m in self.means:
            if not abs(m) <= HALF_DOMAIN + _ANGLE_SLACK:
                raise ValueError("component mean outside [-pi/2, pi/2]")

    def pdf(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        z = (th[..., None] - np.array(self.means)) / self.sigma
        dens = np.exp(-0.5 * z**2) / (np.sqrt(2.0 * np.pi) * self.sigma)
        out = dens @ np.array(self.weights)
        return float(out) if np.ndim(theta) == 0 else out

    def log_pdf_derivs(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """First and second derivatives of ``log pdf``: the mean and, less
        ``1 / sigma**2``, the variance of the component scores ``z`` under
        the component responsibilities ``r``."""
        th = np.asarray(theta, dtype=float)[..., None]
        means = np.array(self.means)
        ll = -0.5 * ((th - means) / self.sigma) ** 2
        ll -= ll.max(axis=-1, keepdims=True)  # keeps the ratio finite in the tails
        r = np.array(self.weights) * np.exp(ll)
        r /= np.sum(r, axis=-1, keepdims=True)
        z = (means - th) / self.sigma**2
        d1 = np.sum(r * z, axis=-1)
        d2 = np.sum(r * (z - d1[..., None]) ** 2, axis=-1) - 1.0 / self.sigma**2
        return d1, d2

    @cached_property
    def _cdf(self) -> np.ndarray:
        return _weights_cdf(self.weights)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        n = 1 if size is None else int(size)
        ks = self._cdf.searchsorted(rng.random(n), side="right")
        draws = np.array(self.means)[ks] + self.sigma * rng.standard_normal(n)
        # Rejection against the angle domain; the density is deliberately
        # not renormalized for this truncation.
        bad = (draws < -HALF_DOMAIN) | (draws > HALF_DOMAIN)
        while bad.any():
            redraw = np.array(self.means)[ks[bad]]
            draws[bad] = redraw + self.sigma * rng.standard_normal(bad.sum())
            bad = (draws < -HALF_DOMAIN) | (draws > HALF_DOMAIN)
        return float(draws[0]) if size is None else draws

    def support(self) -> list[tuple[float, float]]:
        """The whole angle domain, though the density underflows to 0 far from every mean."""
        return [(-HALF_DOMAIN, HALF_DOMAIN)]

    def quadrature(self, n_nodes: int):
        """Trapezoid nodes, weights and densities on the merged +-5 sigma windows."""
        w = _GAUSS_WINDOW * self.sigma
        th, wq, _ = _window_grid(
            _merged((max(m - w, -HALF_DOMAIN), min(m + w, HALF_DOMAIN)) for m in self.means),
            n_nodes)
        return th, wq, self.pdf(th)

    def prior_fisher(self) -> float:
        """Prior Fisher information ``int f (d log f / d theta)**2`` of the mixture.

        Trapezoid quadrature from 8 sigma below the lowest mean to 8 sigma
        above the highest: the integral runs over the whole line because
        the tail mass outside the angle domain is negligible for the
        supported geometries.
        """
        lo = min(self.means) - 8.0 * self.sigma
        hi = max(self.means) + 8.0 * self.sigma
        n = int(min(max(8001, round((hi - lo) / (self.sigma / 40.0))), 400001))
        th = np.linspace(lo, hi, n)
        return float(np.trapezoid(self.pdf(th) * self.log_pdf_derivs(th)[0] ** 2, th))


TargetDistribution = Union[MixtureUniform, MixtureGaussian]


@dataclass(frozen=True)
class DistributionMoments:
    """Steering-vector moments of a prior plus its Fisher scalar.

    ``xi0`` weights the transmit outer product by the receive-derivative
    energy; ``xi1 = xi0 + m_r * int f da da^H``; ``xi2 = m_r * int f da a^H``;
    ``xi3 = m_r * int f a a^H``. ``lam`` is the prior Fisher information.
    """

    xi0: np.ndarray
    xi1: np.ndarray
    xi2: np.ndarray
    xi3: np.ndarray
    lam: float


def _grid_density(dist: TargetDistribution, points: np.ndarray) -> np.ndarray:
    """The density of ``dist`` at the grid ``points``; ``ValueError`` if zero at all of them."""
    f = np.asarray(dist.pdf(points), dtype=float)
    if not np.any(f > 0):
        raise ValueError("prior density is zero at every grid point")
    return f


def _window_grid(windows: list[tuple[float, float]], grid_size: int):
    """Trapezoid nodes/weights on a union of disjoint intervals, and the
    node count of each interval.

    Points are allocated proportionally to interval length (at least 9
    each) and the reduction order is fixed, so results do not depend on
    any parallel split.
    """
    lengths = np.array([hi - lo for lo, hi in windows])
    total = float(lengths.sum())
    if not total > 0:
        raise ValueError("quadrature support is empty")
    nodes = []
    weights = []
    counts = []
    for (lo, hi), length in zip(windows, lengths):
        n = max(9, int(round(grid_size * length / total)))
        counts.append(n)
        th = np.linspace(lo, hi, n)
        w = np.full(n, (hi - lo) / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        nodes.append(th)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights), counts


def _moments(th: np.ndarray, u: np.ndarray, cfg: ArrayConfig, lam: float) -> DistributionMoments:
    """Moments of the nodes ``th`` weighted by ``u``, with the prior Fisher ``lam``."""
    at = steering_matrix(th, cfg.m_t, cfg.spacing)
    dat = steering_derivative_matrix(th, cfg.m_t, cfg.spacing)
    r2 = receive_derivative_norm2(th, cfg.m_r, cfg.spacing)

    def _herm(z: np.ndarray) -> np.ndarray:
        # Exact Hermitian symmetrization of the accumulated quadrature.
        return 0.5 * (z + z.conj().T)

    xi0 = _herm(np.einsum("in,n,kn->ik", at, u * r2, at.conj()))
    xi3 = cfg.m_r * _herm(np.einsum("in,n,kn->ik", at, u, at.conj()))
    xi2 = cfg.m_r * np.einsum("in,n,kn->ik", dat, u, at.conj())
    xi1 = xi0 + cfg.m_r * _herm(np.einsum("in,n,kn->ik", dat, u, dat.conj()))
    return DistributionMoments(xi0=xi0, xi1=xi1, xi2=xi2, xi3=xi3, lam=lam)


def _point_moments(theta0: float, cfg: ArrayConfig) -> DistributionMoments:
    """Moments of one known angle, for the deterministic-angle benchmark: one
    node at ``theta0`` of weight 1 and no prior information (``lam = 0``)."""
    return _moments(np.array([float(theta0)]), np.ones(1), cfg, 0.0)


def compute_moments(
    dist: TargetDistribution,
    cfg: ArrayConfig,
) -> DistributionMoments:
    """Integrate the steering moments of ``dist`` for the array ``cfg``.

    Composite trapezoid quadrature on ``_MOMENT_NODES`` uniform nodes
    restricted to the support of the prior (Gaussian components
    contribute +-5 sigma windows); ``lam`` is ``dist.prior_fisher()``.

    Raises
    ------
    ValueError
        If the quadrature does not reproduce unit prior mass (a
        non-normalized distribution).
    """
    lam = dist.prior_fisher()
    th, wq, f = dist.quadrature(_MOMENT_NODES)
    mass = float(wq @ f)
    if abs(mass - 1.0) > 1e-4:
        raise ValueError(f"prior mass integrates to {mass:.6f}, not 1; "
                         "distribution is not normalized on its support")
    return _moments(th, wq * f, cfg, lam)
