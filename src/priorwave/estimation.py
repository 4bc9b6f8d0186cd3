"""Grid MAP estimation of the target angle and Monte-Carlo MSE sweeps.

The unknown deterministic amplitude is profiled out per candidate angle,
leaving a concentrated log-likelihood that is scanned over the angular
grid together with the log prior. The estimator reads the waveform only
through its covariance ``R = X X^H`` and a frame only through its lag
coefficients (``lag_coefficients``), whose law is known in closed form.
Monte-Carlo trials run in fixed blocks of ``_BLOCK``: each block draws
its true angles from the prior, its phases and its coefficient noise as
vectors from one generator seeded by (seed, snr index, block index), and
estimates the coefficients as one stack, with no frame built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pcrb import pcrb_theta
from .priors import DistributionMoments, TargetDistribution, _grid_density, compute_moments
from .ula import HALF_DOMAIN, ArrayConfig, _covariance, _offsets, _steer, beampattern

__all__ = [
    "AngularGrid",
    "SnrResult",
    "MapEstimator",
    "lag_coefficients",
    "monte_carlo_mse",
]


@dataclass(frozen=True)
class AngularGrid:
    """Uniform grid of ``size`` angles spanning [-pi/2, pi/2] inclusive."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("grid needs at least two points")

    # Built on first use and kept: not a field, so equality and hashing ignore it.
    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(-HALF_DOMAIN, HALF_DOMAIN, self.size)

    @property
    def cell(self) -> float:
        return float(self.points[1] - self.points[0])

    def __len__(self) -> int:
        return self.size


# Trials per Monte-Carlo block. Part of the output contract: each block
# draws from its own generator, so changing it changes every table. Each
# block is one stack of lag coefficients handed to ``MapEstimator.estimate``.
_BLOCK = 64

# The refine: the cap on Newton steps after the first probe, and the
# tolerance (radians) under which a Newton step or a bracket ends a
# frame's search, since probes closer than about 1e-8 rad to a peak
# compare rounding noise.
_NEWTON_STEPS = 30
_REFINE_TOL = 3e-9


def _lag_pick(m_t: int, m_r: int):
    """The score's lags and the picks ``(m_r, m_t, lags)`` and ``(m_t, m_t,
    lags)`` onto them: ``a_r^H y X^H a_t`` sums ``y[i, l] conj(x[m, l])``
    at phase lag ``off_t[m] - off_r[i]``, and ``a_t^H R a_t`` sums
    ``R[m, n]`` at lag ``off_t[n] - off_t[m]``, over one lag set."""
    off_t, off_r = _offsets(m_t), _offsets(m_r)
    num_lag = off_t[None, :] - off_r[:, None]
    den_lag = off_t[None, :] - off_t[:, None]
    lags, at = np.unique(np.concatenate([num_lag.ravel(), den_lag.ravel()]),
                         return_inverse=True)
    pick = at[:, None] == np.arange(len(lags))
    return (lags, pick[:num_lag.size].reshape(*num_lag.shape, -1),
            pick[num_lag.size:].reshape(*den_lag.shape, -1))


def lag_coefficients(x: np.ndarray, ys, m_r: int) -> np.ndarray:
    """Lag coefficients ``c = vec(y) @ K``, shape ``(N, lags)``, of an ``(N,
    m_r, L)`` stack of frames received from the waveform ``x``: the input
    of ``MapEstimator.estimate``."""
    x, ys = np.asarray(x, dtype=complex), np.asarray(ys, dtype=complex)
    if ys.ndim != 3 or ys.shape[1:] != (m_r, x.shape[1]):
        raise ValueError(f"frames must have shape (N, m_r, L) with "
                         f"(m_r, L) = ({m_r}, {x.shape[1]}), got {ys.shape}")
    _, num_pick, _ = _lag_pick(x.shape[0], m_r)
    kernel = np.einsum("imk,ml->ilk", num_pick, x.conj()).reshape(-1, num_pick.shape[-1])
    # A stacked product runs frame by frame: a frame's coefficients do not
    # depend on the stack it comes in.
    return (ys.reshape(len(ys), 1, -1) @ kernel)[:, 0]


class MapEstimator:
    """Reusable MAP scanner for a fixed waveform covariance, prior, and grid.

    ``estimate`` takes the lag coefficients ``(N, lags)`` of ``N`` frames
    (``lag_coefficients``) and returns their ``N`` angles. The waveform
    enters through its covariance ``R = X X^H`` alone.

    The score is evaluated through element-offset lags: for a uniform
    linear array, ``a_r^H y X^H a_t`` and ``a_t^H R a_t`` are
    trigonometric polynomials in ``sin(theta)`` whose coefficients are
    computed once per frame and once per waveform. The grid scan only
    visits the grid points where the prior is positive: their lag
    phasors are precomputed, so scanning a stack is one ``(N, lags) @
    (lags, support)`` product on the frames' coefficients, over the exact
    beampattern at each point; points outside the support score
    ``-inf``. ``refine`` polishes each grid argmax by maximizing the
    exact posterior score over the bracketing cells, clipped to +-pi/2
    and to the interval of ``dist.support()`` that holds the argmax;
    switch it off to reproduce a plain grid argmax.

    Off the grid, the refine evaluates the same polynomials on the
    coefficients the scan computed, with their first and second
    derivatives. It is safeguarded Newton on the score's slope (Rife &
    Boorstyn 1974), run in lockstep over the stack until every frame has
    converged; it returns the best angle it evaluated, so it never does
    worse than the grid argmax and it lands exactly on a maximum at a
    bracket end.

    The coefficients ``c = vec(y) @ K`` of a frame ``y = varsigma a_r
    a_t^H X + Z`` are ``varsigma * mu(theta) + w``, with ``w`` circular
    complex Gaussian of covariance ``sigma^2 K^T conj(K)``; both depend on
    ``X`` only through ``R`` (a sufficient statistic, so the Monte-Carlo
    draws the coefficients, not frames). ``_mean_coef`` gives ``mu`` and
    ``_noise_factor`` colours a unit fill into ``w``.
    """

    def __init__(
        self,
        r: np.ndarray,
        dist: TargetDistribution,
        grid: AngularGrid,
        m_r: int,
        noise_power: float,
        spacing: float = 0.5,
        refine: bool = True,
    ) -> None:
        self._r = r = _covariance(r)
        self.grid = grid
        self.refine = bool(refine)
        self._dist = dist
        self._m_r = int(m_r)
        self._spacing = spacing
        f = _grid_density(dist, grid.points)
        self._support = np.flatnonzero(f > 0)
        sup_pts = grid.points[self._support]
        # The exact log density, as ``_probe`` takes it off the grid.
        self._log_prior_sup = np.log(f[self._support])
        # The scan's denominator: the transmit beampattern at each support
        # point, clamped at zero against rounding near transmit nulls.
        den = noise_power * m_r * beampattern(r, sup_pts, spacing)
        self._den = np.where(den > 1e-300, den, np.inf)

        lags, num_pick, den_pick = _lag_pick(r.shape[0], self._m_r)
        den_coef = noise_power * m_r * np.einsum("mnk,mn->k", den_pick, r)
        # The law of a frame's coefficients through R alone: mu(theta)_k sums
        # a_r[i] (a_t^H R)[m] over the pick P[i, m, k], and the noise
        # covariance sigma^2 (K^T conj(K))_kq sums P[i, m, k] R[n, m] P[i, n, q].
        # Its square root comes from eigh with the eigenvalues clipped at 0:
        # a rank-one R leaves it singular. The factor maps a fill whose real
        # and imaginary parts have unit variance, hence the halved eigenvalues.
        self._num_pick = num_pick.reshape(-1, len(lags)).astype(float)
        cov = noise_power * np.einsum("imk,nm,inq->kq", num_pick, r, num_pick)
        val, vec = np.linalg.eigh(cov)
        self._noise_factor = (vec * np.sqrt(np.maximum(val, 0.0) / 2.0)).T
        self._lag_phase = phase = 2.0 * np.pi * spacing * lags
        # Weights of the coefficients for the polynomials and their first
        # and second derivatives in sin(theta).
        self._lag_w = np.stack([np.ones_like(phase), 1j * phase, -phase**2], axis=1)
        self._den_w = den_coef[:, None] * self._lag_w
        # The scan's lag phasors at the support points: coef @ phasors is
        # a_r^H y X^H a_t there, a (N, lags) @ (lags, support) product.
        self._sup_phasor = np.exp(1j * np.multiply.outer(self._lag_phase, np.sin(sup_pts)))

        # Refine brackets: a cell each side of a support point, cut to the support interval
        # holding it (within +-pi/2); an end whose grid neighbour is out of it is the interval end.
        ivs = np.clip(np.array(dist.support()), -HALF_DOMAIN, HALF_DOMAIN)
        lo, hi = ivs[ivs[:, 0].searchsorted(sup_pts, side="right") - 1].T
        nb = grid.points[np.clip(self._support + [[-1], [1]], 0, grid.size - 1)]
        self._bracket_lo = np.where(nb[0] < lo, lo, np.maximum(sup_pts - grid.cell, lo))
        self._bracket_hi = np.where(nb[1] > hi, hi, np.minimum(sup_pts + grid.cell, hi))

    def _scan(self, coef: np.ndarray) -> np.ndarray:
        """Scores at the support points from lag coefficients, shape ``(N, len(support))``."""
        s = coef @ self._sup_phasor
        out = s.real**2
        out += s.imag**2
        out /= self._den
        out += self._log_prior_sup
        return out

    def _mean_coef(self, th: np.ndarray) -> np.ndarray:
        """Lag coefficients of the noiseless unit-amplitude frames at checked
        angles ``th``, shape ``(N, lags)``."""
        a_r = _steer(th, self._m_r, self._spacing).T
        v = _steer(th, self._r.shape[0], self._spacing).T.conj() @ self._r
        return (a_r[:, :, None] * v[:, None, :]).reshape(len(th), -1) @ self._num_pick

    def _probe(self, coef: np.ndarray, th: np.ndarray):
        """Score, slope and curvature in theta at checked angles ``th`` of
        shape ``(N, k)``, from lag coefficients.

        In u = sin(theta) the likelihood term is g = |s|^2 / D, a ratio of
        lag polynomials; the chain rule turns its u-derivatives into theta
        ones, and the prior adds the derivatives of its log density.
        """
        f = np.asarray(self._dist.pdf(th), dtype=float)
        u = np.sin(th)
        e = np.exp(1j * np.multiply.outer(u, self._lag_phase))
        # Stacked products, one frame at a time, like the coefficients:
        # s, s', s'' and D, D', D'' in u.
        s0, s1, s2 = np.moveaxis(e @ (coef[:, :, None] * self._lag_w), -1, 0)
        d0, d1, d2 = np.moveaxis((e @ self._den_w).real, -1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = (s0.real**2 + s0.imag**2) / d0
            g1 = (2.0 * (s0.conj() * s1).real - g * d1) / d0
            g2 = (2.0 * (s0.conj() * s2 + s1.conj() * s1).real - 2.0 * g1 * d1 - g * d2) / d0
            out = g + np.log(np.where(f > 0, f, 1.0))
            # g1 and g2 are not finite at a transmit null (D = 0), which scores -inf.
            l1, l2 = self._dist.log_pdf_derivs(th)
            cos = np.cos(th)
            return (np.where((f > 0) & (d0 > 1e-300), out, -np.inf),
                    cos * g1 + l1, cos * cos * g2 - u * g1 + l2)

    def estimate(self, coef) -> np.ndarray:
        """MAP angles from an ``(N, lags)`` stack of lag coefficients."""
        coef = np.asarray(coef, dtype=complex)
        if coef.ndim != 2 or coef.shape[1] != len(self._lag_phase):
            raise ValueError(f"lag coefficients must have shape (N, {len(self._lag_phase)}), "
                             f"got {coef.shape}")
        i = np.argmax(self._scan(coef), axis=1)
        return self._refine(coef, i) if self.refine else self.grid.points[self._support[i]]

    def _refine(self, coef: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Maximize the score over each frame's bracket around support point ``i``.

        One probe scores the grid argmax and both bracket ends, and the best
        of them starts as the frame's best angle x; an end that scores best
        with its slope pointing out of the bracket is the maximum. Otherwise
        the slope at x moves the bracket end on its falling side to x, and x
        takes a Newton step on the slope; a step that leaves the bracket or
        meets a curvature >= 0 bisects the bracket instead. A probe that
        scores higher becomes x, and any other becomes the bracket end on
        its side. A frame stops once its Newton step or its bracket is under
        ``_REFINE_TOL``. The frames run in lockstep, with np.where applying
        each frame's own branch, until every frame has stopped or the step
        cap is reached; a stopped frame keeps its state, so no frame depends
        on the others in its stack. Every probe lies in the grid's range, so
        it skips the angle check.
        """
        rows = np.arange(len(coef))
        first = np.stack([self.grid.points[self._support[i]],
                          self._bracket_lo[i], self._bracket_hi[i]], 1)
        val, slope, curv = self._probe(coef, first)
        j = np.argmax(val, axis=1)
        x, top, slope, curv = first[rows, j], val[rows, j], slope[rows, j], curv[rows, j]
        a, b = first[:, 1], first[:, 2]
        live = ~(((j == 1) & (slope <= 0)) | ((j == 2) & (slope >= 0)))
        for _ in range(_NEWTON_STEPS):
            up = slope > 0
            a, b = np.where(up, x, a), np.where(up, b, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = -slope / curv
            # A converged step lands on x, now a bracket end: test it before
            # the step is checked against the bracket.
            live &= ~((curv < 0) & (np.abs(step) < _REFINE_TOL)) & (b - a > _REFINE_TOL)
            if not live.any():
                break
            u = x + step
            u = np.where((curv < 0) & (u > a) & (u < b), u, 0.5 * (a + b))
            v, g1, g2 = (c[:, 0] for c in self._probe(coef, u[:, None]))
            gain = live & (v > top)
            lose = live & ~gain
            a, b = np.where(lose & (u < x), u, a), np.where(lose & (u > x), u, b)
            x, top, slope, curv = (np.where(gain, new, old) for new, old in
                                   ((u, x), (v, top), (g1, slope), (g2, curv)))
        return x


@dataclass(frozen=True)
class SnrResult:
    """Monte-Carlo summary at one SNR point."""

    snr_db: float
    mse: float
    std_error: float
    pcrb: float
    n_trials: int
    per_angle: tuple[tuple[float, int, float], ...]


def monte_carlo_mse(
    r: np.ndarray,
    dist: TargetDistribution,
    cfg: ArrayConfig,
    grid: AngularGrid,
    snr_list_db,
    n_trials: int,
    seed: int,
    *,
    refine: bool = True,
    moments: DistributionMoments | None = None,
) -> tuple[SnrResult, ...]:
    """Estimate the angle-MSE of a waveform of covariance ``r`` across an SNR sweep.

    SNR is ``10*log10(|amplitude|^2 * P / noise_power)``; the amplitude
    magnitude is swept with a uniformly random phase per trial. The true
    angle is drawn from ``dist``, which is also the estimator's prior.
    Trials are binned by the nearest grid angle for the per-angle
    breakdown.

    Trials run in blocks of ``_BLOCK`` (the last may be partial). Block
    ``b`` at SNR index ``i`` draws from one generator seeded by
    ``SeedSequence([seed, i, b])``, in this order: ``dist.sample(rng, k)``
    for its ``k`` true angles (both priors draw inside the angle domain,
    so they are not checked again), ``2*pi*rng.random(k)`` for the phases, and
    one ``rng.standard_normal`` fill of shape ``(k, lags, 2)`` (real and
    imaginary parts). No frame is built: the block's lag coefficients are
    ``varsigma * mu(theta)`` plus the fill coloured to the frame noise's
    coefficient covariance (see ``MapEstimator``), and they are estimated
    as one stack. Results therefore depend on the block size, not on how
    the work is scheduled.
    ``moments`` are the steering moments of ``dist`` for ``cfg``, used for
    the PCRB column; they are computed when not given.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    estimator = MapEstimator(r, dist, grid, cfg.m_r, cfg.noise_power, cfg.spacing, refine)
    if moments is None:
        moments = compute_moments(dist, cfg)

    lags = len(estimator._noise_factor)
    truth = np.empty(n_trials)
    estimate = np.empty(n_trials)
    results = []
    for i_snr, snr_db in enumerate(snr_list_db):
        amp = float(np.sqrt(cfg.noise_power * 10.0 ** (float(snr_db) / 10.0) / cfg.power))
        for start in range(0, n_trials, _BLOCK):
            k = min(_BLOCK, n_trials - start)
            rng = np.random.default_rng(np.random.SeedSequence([seed, i_snr, start // _BLOCK]))
            th = dist.sample(rng, k)
            phase = 2.0 * np.pi * rng.random(k)
            # The fill's real and imaginary parts, read as complex.
            fill = rng.standard_normal((k, lags, 2)).view(complex)[..., 0]
            coef = fill @ estimator._noise_factor
            coef += (amp * np.exp(1j * phase))[:, None] * estimator._mean_coef(th)
            truth[start:start + k] = th
            estimate[start:start + k] = estimator.estimate(coef)
        err = estimate - truth
        sq_err = err * err
        mse = float(np.mean(sq_err))
        std_error = float(np.std(sq_err, ddof=1) / np.sqrt(n_trials)) if n_trials > 1 else 0.0
        bound = pcrb_theta(r, moments, amp, cfg.noise_power)
        bins = np.clip(np.rint((truth + HALF_DOMAIN) / grid.cell), 0, len(grid) - 1).astype(int)
        counts = np.bincount(bins)
        sums = np.bincount(bins, weights=sq_err)
        per_angle = tuple(
            (float(grid.points[idx]), int(counts[idx]), float(sums[idx] / counts[idx]))
            for idx in np.flatnonzero(counts)
        )
        results.append(SnrResult(snr_db=float(snr_db), mse=mse, std_error=std_error,
                                 pcrb=bound, n_trials=n_trials, per_angle=per_angle))
    return tuple(results)
