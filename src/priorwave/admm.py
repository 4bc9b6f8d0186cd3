"""Building blocks of the waveform design solvers.

Every design projects onto the feasible set (``_project_feasible``). The
fair solver's ADMM loop alternates a power-constrained quadratic update of
the waveform, an entrywise projection onto the per-element power cap, and
a dual ascent step. The quadratic update is solved exactly through one
Hermitian eigendecomposition plus a safeguarded Newton root of the scalar
secular equation for the power multiplier.

The ADMM loop warm-starts that root at the previous iteration's
multiplier, which barely moves between iterations. The warm start changes
only where Newton begins, not what it converges to: the secular function
is concave and increasing, so Newton from the right of the root steps once
to the root or to its left and then climbs monotonically, every iterate
still shrinks the same bracket, and a start outside the bracket falls back
to the cold start at its lower end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["AdmmTrace"]


@dataclass
class AdmmTrace:
    """Per-iteration history of one solve."""

    objective: np.ndarray = field(default_factory=lambda: np.empty(0))
    augmented_lagrangian: np.ndarray = field(default_factory=lambda: np.empty(0))
    residual: np.ndarray = field(default_factory=lambda: np.empty(0))
    mu_iterations: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    # x-updates whose multiplier root missed ``_MU_TOL``; the exact power
    # rescale that follows them hides the miss from the waveform.
    mu_tol_misses: int = 0

    def __len__(self) -> int:
        return len(self.residual)

    def monotone_violations(self, slack: float = 1e-9) -> int:
        """Count augmented-Lagrangian increases beyond ``slack``."""
        al = self.augmented_lagrangian
        if len(al) < 2:
            return 0
        return int(np.sum(np.diff(al) > slack))


# Relative slack of the element cap: 8 ulps keep the projection exactly
# idempotent in floating point.
_CAP_SLACK = 1.0 + 8.0 * np.finfo(float).eps

# Relative power mismatch at which the multiplier root stops.
_MU_TOL = 1e-12

# Guard on power-curve evaluations per root; safeguarded Newton takes
# about ten and each bisection fallback halves the bracket.
_MU_MAX_EVALS = 200


def _cap_elements(w: np.ndarray, bound: float) -> np.ndarray:
    """Euclidean projection onto the per-element disc ``|w|^2 <= bound``, in place.

    Entries within the cap (up to ``_CAP_SLACK``) are untouched; the rest
    are shrunk radially to magnitude ``sqrt(bound)`` with their phase
    preserved. ``w`` must be a complex array; it is returned.
    """
    mag2 = w.real**2 + w.imag**2
    outside = mag2 > bound * _CAP_SLACK
    if outside.any():
        w[outside] *= math.sqrt(bound) / np.sqrt(mag2[outside])
    return w


def _project_feasible(x: np.ndarray, power: float, bound: float) -> np.ndarray:
    """Euclidean projection onto ``{||X||_F**2 = power, |x_ml|**2 <= bound}``.

    Phases are kept and ``|x| <- min(c |x|, sqrt(bound))``, with the scale
    ``c`` that meets the power. With the nonzero magnitudes sorted in
    descending order and the first ``k`` capped, the power where the next
    one reaches the cap is ``bound * (k + T_k / |x|_(k)**2)``, ``T_k``
    summing the squared magnitudes from the ``k``-th on; the first ``k``
    where that meets the power gives ``c = sqrt((power - k bound) / T_k)``.
    If none does (rounding, when ``bound * x.size == power``, or too few
    nonzero entries), every nonzero entry is capped and the power left
    over is spread evenly over the zero entries, which have no phase to
    keep. Needs ``bound * x.size >= power``.
    """
    mag = np.abs(x)
    d = np.sort(mag, axis=None)[::-1]
    n = int(np.count_nonzero(d))
    d2 = d[:n] * d[:n]
    tail = np.cumsum(d2[::-1])[::-1]
    meets = np.flatnonzero(bound * (np.arange(n) + tail / d2) >= power)
    c = np.inf
    if meets.size:
        k0 = int(meets[0])
        c = math.sqrt((power - k0 * bound) / tail[k0])
    if n < x.size:
        zero = mag == 0
        mag = np.where(zero, 1.0, mag)  # a zero entry stays zero, without a 0/0
    out = x * (np.minimum(c * mag, math.sqrt(bound)) / mag)
    if n < x.size:
        left = max(power - n * bound, 0.0) if not meets.size else 0.0
        out[zero] = math.sqrt(left / (x.size - n))
    return out


def _solve_multiplier(psi, sig, power: float, mu_tol: float,
                      start: float | None = None) -> tuple[float, int, bool]:
    """Root of ``sum_m psi_m / (sig_m + 2 mu)**2 = power`` with ``Pmat + 2 mu I > 0``.

    ``psi`` and ``sig`` are sequences of floats over the eigenvalues, ``sig``
    in ascending order (as ``eigh`` returns it), so the shifted curvature
    is positive definite exactly when ``sig[0] + 2 mu > 0``.

    Safeguarded Newton on the secular equation ``1/||x(mu)|| = 1/sqrt(power)``
    (Moré & Sorensen 1983), whose left side is concave and increasing for
    ``mu > -min(sig)/2``. Each term of the power sum bounds the root from
    below and the smallest eigenvalue carrying all of ``psi`` bounds it
    from above. Newton begins at ``start`` when it lies strictly inside
    that bracket and at the lower bound otherwise. From the left of the
    root Newton rises monotonically to it; from the right, concavity puts
    the first step on the root or to its left, after which it rises
    again. Every evaluation shrinks the bracket, and a step that leaves it
    is replaced by its midpoint, so any start reaches the same root. Stops
    once ``|sum - power| <= mu_tol * power``, or, where rounding of ``mu``
    cannot reach that, when the bracket has no float left inside; returns
    the root, the number of power-sum evaluations, and whether the root
    met ``mu_tol`` (False for the best float of a collapsed bracket).
    """
    sig_min = sig[0]
    terms = tuple(zip(psi, sig))
    lo = 0.5 * max(max(math.sqrt(p / power) - s for p, s in terms), -sig_min)
    hi = 0.5 * (math.sqrt(math.fsum(psi) / power) - sig_min)
    mu = start if start is not None and lo < start < hi else lo
    best_mu, best_gap = None, math.inf
    for evals in range(1, _MU_MAX_EVALS + 1):
        two_mu = 2.0 * mu
        nxt = math.nan
        if sig_min + two_mu > 0:
            val = slope = 0.0
            for p, s in terms:
                denom = s + two_mu
                t = p / (denom * denom)
                val += t
                slope += t / denom
            gap = abs(val - power)
            if gap <= mu_tol * power:
                return mu, evals, True
            if gap < best_gap:
                best_mu, best_gap = mu, gap
            if val > power:
                lo = mu
            else:
                hi = mu
            nxt = mu + 0.5 * val * (math.sqrt(val / power) - 1.0) / slope
        else:  # on the pole: psi carries no weight on the bottom eigenvector
            lo = mu
        # The first upper end is a bound, not yet evaluated, so Newton may
        # land on it; a step that does not move falls back as well.
        if not lo < nxt <= hi or nxt == mu:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:  # no float left inside the bracket
                if best_mu is None:
                    break
                return best_mu, evals, False
        mu = nxt
    raise RuntimeError(
        f"no multiplier root in [{lo!r}, {hi!r}] after {evals} power evaluations")


class _XUpdate:
    """The power-sphere waveform update for one curvature, built once per solve.

    Each call minimizes ``Tr{X^H Pmat X} / 2 - Re Tr{Q^H X}`` over
    ``||X||_F**2 = power`` for a target ``Q``, so ``(Pmat + 2 mu I) X = Q``:
    with ``Pmat = G diag(sig) G^H`` the minimizer is ``G (G^H Q) / (sig + 2 mu)``
    at the multiplier root (``_solve_multiplier``). The eigendecomposition,
    the smallest-eigenvalue block and the spectrum as floats depend on the
    curvature only and are kept here.
    """

    def __init__(self, curvature: np.ndarray, power: float) -> None:
        sig, g = np.linalg.eigh(curvature)
        self.g, self.gh, self.sig = g, np.ascontiguousarray(g.conj().T), sig
        self.sig_list = sig.tolist()
        self.power = power
        sig_min = self.sig_list[0]
        # ``eigh`` sorts ascending, so the block within rounding of the
        # smallest eigenvalue is a prefix.
        tol = 1e-12 * max(self.sig_list[-1] - sig_min, 1.0)
        self.n_low = int(np.count_nonzero(sig <= sig_min + tol))
        self.mu_floor = -sig_min / 2.0

    def __call__(self, q: np.ndarray, start: float | None = None
                 ) -> tuple[np.ndarray, float, int, bool]:
        """Update for target ``q``; ``start`` is an optional first guess for
        the multiplier root, which the result does not depend on beyond
        rounding. Returns the update, the multiplier, the power-sum
        evaluations and whether the multiplier met ``_MU_TOL`` (the hard
        case is exact).
        """
        power = self.power
        gq = self.gh @ q
        psi = (gq.real**2 + gq.imag**2).sum(1)
        psi_list = psi.tolist()

        # Hard case: the target has no component on the smallest eigenspace
        # and the interior curve never reaches the power budget. Take the
        # boundary multiplier and pad with a null-space direction to hit the
        # power exactly; stationarity is unaffected because that direction
        # is annihilated by (Pmat + 2 mu I). A zero target lands here too and
        # gets the bottom eigenvector.
        n_low = self.n_low
        if math.fsum(psi_list[:n_low]) <= 1e-24 * max(math.fsum(psi_list), 1e-300):
            mu_floor = self.mu_floor
            denom = self.sig[n_low:] + 2.0 * mu_floor
            if float(np.sum(psi[n_low:] / denom**2)) < power:
                x = self.g[:, n_low:] @ (gq[n_low:] / denom[:, None])
                deficit = power - float(np.vdot(x, x).real)
                x[:, 0] += math.sqrt(deficit) * self.g[:, 0]
                return x, mu_floor, 0, True

        mu, iters, met = _solve_multiplier(psi_list, self.sig_list, power, _MU_TOL, start)
        x = self.g @ (gq / (self.sig + 2.0 * mu)[:, None])
        # Exact power rescale; relative change is within the root tolerance.
        x *= math.sqrt(power / np.vdot(x, x).real)
        return x, mu, iters, met
