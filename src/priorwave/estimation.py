"""Grid MAP estimation of the target angle and Monte-Carlo MSE sweeps.

The unknown deterministic amplitude is profiled out per candidate angle,
leaving a concentrated log-likelihood that is scanned over the angular
grid together with the log prior. The estimator works on stacks of
frames. Trials draw the true angle from the prior and are reproducible
per (seed, snr index, trial index that seeds an independent generator).
Only those draws are made trial by trial: each block of trials then
builds its frames at once, bit-identical to per-trial
``synthesize_received`` frames, and is estimated as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pcrb import pcrb_theta
from .priors import DistributionMoments, TargetDistribution, compute_moments
from .ula import HALF_DOMAIN, ArrayConfig, _check_angles, _received, _steer, steering_matrix

__all__ = [
    "AngularGrid",
    "SnrResult",
    "MseReport",
    "MapEstimator",
    "monte_carlo_mse",
]


@dataclass(frozen=True)
class AngularGrid:
    """Uniform angle grid spanning [-pi/2, pi/2] inclusive."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least two points")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] != -HALF_DOMAIN or pts[-1] != HALF_DOMAIN:
            raise ValueError("grid endpoints must be exactly -pi/2 and pi/2")

    @classmethod
    def uniform(cls, d: int = 361) -> "AngularGrid":
        return cls(np.linspace(-HALF_DOMAIN, HALF_DOMAIN, int(d)))

    @property
    def cell(self) -> float:
        return float(self.points[1] - self.points[0])

    def __len__(self) -> int:
        return len(self.points)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Trials per Monte-Carlo block: each block is one stack handed to
# ``MapEstimator.estimate``, which bounds the scan's temporaries.
_BLOCK = 64


class MapEstimator:
    """Reusable MAP scanner for a fixed waveform, prior, and grid.

    Every method takes one received frame of shape ``(m_r, L)`` or a
    stack ``(N, m_r, L)`` and returns a scalar or an array of ``N``
    values.

    The grid scan only visits the grid points where the prior is
    positive: their kernel ``conj(a_r) w^T`` is precomputed, so scanning
    a stack is one matrix product; points outside the support score
    ``-inf``. ``refine`` polishes each grid argmax by maximizing the
    exact posterior score over the bracketing cells (golden section, run
    in lockstep over the stack, deterministic); switch it off to
    reproduce a plain grid argmax.
    """

    def __init__(
        self,
        x: np.ndarray,
        dist: TargetDistribution,
        grid: AngularGrid,
        m_r: int,
        noise_power: float,
        spacing: float = 0.5,
        refine: bool = True,
    ) -> None:
        x = np.asarray(x, dtype=complex)
        if x.ndim != 2:
            raise ValueError("waveform must be a 2-D matrix")
        self.grid = grid
        self.refine = bool(refine)
        self._xh = x.conj().T
        self._dist = dist
        self._m_r = int(m_r)
        self._noise = float(noise_power)
        self._spacing = float(spacing)
        f = np.asarray(dist.pdf(grid.points), dtype=float)
        if not np.any(f > 0):
            raise ValueError("prior density is zero at every grid point")
        with np.errstate(divide="ignore"):
            self._log_prior = np.where(f > 0, np.log(np.maximum(f, 1e-300)), -np.inf)
        self._support = np.flatnonzero(f > 0)
        a_r = steering_matrix(grid.points[self._support], m_r, spacing)
        w = (self._xh @ steering_matrix(grid.points, x.shape[0], spacing)).take(self._support, 1)
        # kernel[(r, l), p] = conj(a_r[r, p]) * w[l, p]: frames @ kernel is the scan.
        # ``take`` keeps w C-ordered, so the product is too and reshapes without a copy.
        self._kernel = (a_r.conj()[:, None, :] * w[None, :, :]).reshape(-1, w.shape[1])
        den = noise_power * m_r * np.sum(np.abs(w) ** 2, axis=0)
        self._den = np.where(den > 1e-300, den, np.inf)

    def _frames(self, y) -> tuple[np.ndarray, bool]:
        """Frames as an ``(N, m_r, L)`` stack, and whether one frame was given."""
        ys = np.asarray(y, dtype=complex)
        if ys.ndim not in (2, 3) or ys.shape[-2:] != (self._m_r, self._xh.shape[0]):
            raise ValueError(
                f"frames must have shape (m_r, L) or (N, m_r, L) with "
                f"(m_r, L) = ({self._m_r}, {self._xh.shape[0]}), got {ys.shape}"
            )
        return ys.reshape(-1, *ys.shape[-2:]), ys.ndim == 2

    def _scan(self, ys: np.ndarray) -> np.ndarray:
        """Scores of a stack at the support points, shape ``(N, len(support))``."""
        # In place: a block's scan holds one complex and one real array.
        out = np.abs(ys.reshape(len(ys), -1) @ self._kernel)
        out **= 2
        out /= self._den
        out += self._log_prior[self._support]
        return out

    def score(self, y: np.ndarray) -> np.ndarray:
        """Posterior score (concentrated log-likelihood + log prior) per grid angle."""
        ys, single = self._frames(y)
        out = np.full((len(ys), len(self.grid)), -np.inf)
        out[:, self._support] = self._scan(ys)
        return out[0] if single else out

    def score_at(self, y: np.ndarray, theta):
        """Posterior score at arbitrary (off-grid) angles, one per frame.

        ``theta`` is broadcast against the frames; a single frame with a
        scalar angle gives a float.
        """
        ys, single = self._frames(y)
        out = self._score_at(ys, np.broadcast_to(_check_angles(theta), ys.shape[:1]))
        return float(out[0]) if single else out

    def _score_at(self, ys: np.ndarray, th: np.ndarray) -> np.ndarray:
        """``score_at`` of a stack at checked angles, one per frame."""
        f = np.asarray(self._dist.pdf(th), dtype=float)
        a_t = _steer(th, self._xh.shape[1], self._spacing).T
        a_r = _steer(th, self._m_r, self._spacing).T
        # One small matmul per frame, the same products a_r^H y and x^H a_t
        # that a lone frame takes: a frame's value is independent of the
        # stack it comes in.
        w = (self._xh @ a_t[:, :, None])[:, :, 0]
        s = ((a_r.conj()[:, None, :] @ ys) @ w[:, :, None])[:, 0, 0]
        den = self._noise * self._m_r * np.sum(np.abs(w) ** 2, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.abs(s) ** 2 / den + np.log(np.where(f > 0, f, 1.0))
        return np.where((f > 0) & (den > 1e-300), out, -np.inf)

    def estimate(self, y: np.ndarray):
        """MAP angle of each frame: a float for one frame, an array for a stack."""
        ys, single = self._frames(y)
        score = self._scan(ys)
        i = np.argmax(score, axis=1)
        theta = self.grid.points[self._support[i]]
        if self.refine:
            theta = self._refine(ys, theta, score[np.arange(len(ys)), i])
        return float(theta[0]) if single else theta

    def _refine(self, ys: np.ndarray, theta: np.ndarray, best: np.ndarray) -> np.ndarray:
        # Golden section over [theta - cell, theta + cell], one bracket per
        # frame; np.where applies each frame's own branch of the update.
        # Every probe lies inside the grid, so it skips the angle check.
        pts = self.grid.points
        a = np.maximum(theta - self.grid.cell, pts[0])
        b = np.minimum(theta + self.grid.cell, pts[-1])
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = self._score_at(ys, c), self._score_at(ys, d)
        for _ in range(40):
            left = fc > fd
            a = np.where(left, a, c)
            b = np.where(left, d, b)
            new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
            f_new = self._score_at(ys, new)
            c, fc, d, fd = (np.where(left, new, d), np.where(left, f_new, fd),
                            np.where(left, c, new), np.where(left, fc, f_new))
        refined = 0.5 * (a + b)
        # Keep the grid argmax if the local search somehow did worse.
        return np.where(self._score_at(ys, refined) >= best, refined, theta)


@dataclass(frozen=True)
class SnrResult:
    """Monte-Carlo summary at one SNR point."""

    snr_db: float
    mse: float
    std_error: float
    pcrb: float
    n_trials: int
    per_angle: tuple[tuple[float, int, float], ...]


@dataclass(frozen=True)
class MseReport:
    results: tuple[SnrResult, ...]


def monte_carlo_mse(
    x: np.ndarray,
    dist: TargetDistribution,
    cfg: ArrayConfig,
    grid: AngularGrid,
    snr_list_db,
    n_trials: int,
    seed: int,
    *,
    refine: bool = True,
    moments: DistributionMoments | None = None,
) -> MseReport:
    """Estimate the angle-MSE of a waveform across an SNR sweep.

    SNR is ``10*log10(|amplitude|^2 * P / noise_power)``; the amplitude
    magnitude is swept with a uniformly random phase per trial. The true
    angle is drawn from ``dist``, which is also the estimator's prior.
    Trials are binned by the nearest grid angle for the per-angle
    breakdown.

    Each trial draws from its own generator seeded by ``(seed, snr index,
    trial index)``; frames are built and estimated in fixed blocks of
    trials, each frame bit-identical to ``synthesize_received`` on the
    trial's generator.
    ``moments`` are the steering moments of ``dist`` for ``cfg``, used for
    the PCRB column; they are computed when not given.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    x = np.asarray(x, dtype=complex)
    estimator = MapEstimator(x, dist, grid, cfg.m_r, cfg.noise_power, cfg.spacing, refine)
    if moments is None:
        moments = compute_moments(dist, cfg)

    # Block buffers, refilled in place: frames, their noise, and phases.
    frames = np.empty((min(_BLOCK, n_trials), cfg.m_r, x.shape[1]), dtype=complex)
    noise = np.empty(frames.shape + (2,))
    phase = np.empty(len(frames))
    scale = np.sqrt(cfg.noise_power / 2.0)
    truth = np.empty(n_trials)
    estimate = np.empty(n_trials)
    results = []
    for i_snr, snr_db in enumerate(snr_list_db):
        amp = float(np.sqrt(cfg.noise_power * 10.0 ** (float(snr_db) / 10.0) / cfg.power))
        for start in range(0, n_trials, _BLOCK):
            k = min(_BLOCK, n_trials - start)
            # Only the draws are per trial, in the order synthesize_received
            # takes them; the block is then built at once.
            for j in range(k):
                rng = np.random.default_rng(np.random.SeedSequence([seed, i_snr, start + j]))
                truth[start + j] = dist.sample(rng)
                phase[j] = rng.uniform(0.0, 2.0 * np.pi)
                noise[j] = rng.normal(scale=scale, size=noise.shape[1:])
            th = _check_angles(truth[start:start + k])
            _received(x, th, amp * np.exp(1j * phase[:k]), noise[:k], cfg.spacing, frames[:k])
            estimate[start:start + k] = estimator.estimate(frames[:k])
        err = estimate - truth
        sq_err = err * err
        mse = float(np.mean(sq_err))
        std_error = float(np.std(sq_err, ddof=1) / np.sqrt(n_trials)) if n_trials > 1 else 0.0
        bound = pcrb_theta(x, moments, amp, cfg.noise_power)
        bins = np.clip(np.rint((truth + HALF_DOMAIN) / grid.cell), 0, len(grid) - 1).astype(int)
        counts = np.bincount(bins)
        per_angle = tuple(
            (float(grid.points[idx]), int(counts[idx]), float(np.mean(sq_err[bins == idx])))
            for idx in np.flatnonzero(counts)
        )
        results.append(SnrResult(snr_db=float(snr_db), mse=mse, std_error=std_error,
                                 pcrb=bound, n_trials=n_trials, per_angle=per_angle))
    return MseReport(results=tuple(results))
