"""Shared ADMM building blocks for the waveform design solvers.

All three solvers alternate a power-constrained quadratic update of the
waveform, an entrywise projection onto the per-element power cap, and a
dual ascent step. The quadratic update is solved exactly through one
Hermitian eigendecomposition plus a one-dimensional multiplier search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AdmmConfig",
    "AdmmTrace",
    "quad_x_update",
    "papr_project",
]


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty and stopping parameters shared by the solvers.

    With ``rho`` unset the quadratic-objective solvers set their penalty to
    ``safety * sqrt(3) * ||Xi + Xi^H||_F``; the sqrt(3)-scaled norm is the
    nominal descent threshold of the augmented Lagrangian, but the descent
    argument leaks around the power-sphere multiplier, so the default
    keeps a 2x margin and a damped dual step (``dual_step < 1`` leaves the
    fixed points unchanged). ``rho`` (or the ``rho_fair`` pair for the
    max-min solver) overrides the automatic penalty for experimentation.
    ``primal_tol`` stops on the squared split residual together with the
    squared auxiliary motion; ``mu_tol`` is the relative power mismatch
    accepted from the multiplier search.
    """

    rho: float | None = None
    rho_fair: tuple[float, float] | None = None
    safety: float = 2.0
    dual_step: float = 0.5
    max_iters: int = 5000
    primal_tol: float = 1e-8
    mu_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.rho is not None and not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.rho_fair is not None:
            pair = (float(self.rho_fair[0]), float(self.rho_fair[1]))
            object.__setattr__(self, "rho_fair", pair)
            if not (pair[0] > 0 and pair[1] > 0):
                raise ValueError("rho_fair entries must be positive")
        if not self.safety > 1:
            raise ValueError("safety must exceed 1")
        if not 0 < self.dual_step <= 1:
            raise ValueError("dual_step must lie in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.primal_tol > 0 and self.mu_tol > 0):
            raise ValueError("tolerances must be positive")


@dataclass
class AdmmTrace:
    """Per-iteration history of one solve."""

    objective: np.ndarray = field(default_factory=lambda: np.empty(0))
    augmented_lagrangian: np.ndarray = field(default_factory=lambda: np.empty(0))
    residual: np.ndarray = field(default_factory=lambda: np.empty(0))
    mu_iterations: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __len__(self) -> int:
        return len(self.residual)

    def monotone_violations(self, slack: float = 1e-9) -> int:
        """Count augmented-Lagrangian increases beyond ``slack``."""
        al = self.augmented_lagrangian
        if len(al) < 2:
            return 0
        return int(np.sum(np.diff(al) > slack))


def papr_project(w: np.ndarray, bound: float) -> np.ndarray:
    """Euclidean projection onto the per-element disc ``|w|^2 <= bound``.

    Entries within the cap are untouched; the rest are shrunk radially to
    magnitude ``sqrt(bound)`` with their phase preserved.
    """
    if not bound > 0:
        raise ValueError("bound must be positive")
    w = np.asarray(w, dtype=complex)
    mag2 = w.real**2 + w.imag**2
    # 8-ulp slack keeps the projection exactly idempotent in floating point.
    outside = mag2 > bound * (1.0 + 8.0 * np.finfo(float).eps)
    if not np.any(outside):
        return w.copy()
    out = w.copy()
    out[outside] = w[outside] * (np.sqrt(bound) / np.sqrt(mag2[outside]))
    return out


def _power_curve(psi: np.ndarray, sig: np.ndarray, mu: float) -> float:
    denom = sig + 2.0 * mu
    if np.any(np.abs(denom) < 1e-300):
        return np.inf
    return float(np.sum(psi / denom**2))


def _solve_multiplier(psi: np.ndarray, sig: np.ndarray, power: float,
                      mu_tol: float) -> tuple[float, int]:
    """Root of ``sum_m psi_m / (sig_m + 2 mu)**2 = power`` with ``Pmat + 2 mu I > 0``.

    The curve is strictly decreasing on the feasible interval, so a
    geometric bracket plus bisection always succeeds; a few Newton steps
    polish the root to the requested relative power accuracy.
    """
    mu_floor = -float(sig.min()) / 2.0
    scale = max(1.0, abs(mu_floor), float(sig.max()) / 2.0)
    lo = mu_floor
    hi = mu_floor + scale
    iters = 0
    while _power_curve(psi, sig, hi) > power:
        lo = hi
        hi = mu_floor + (hi - mu_floor) * 2.0
        iters += 1
        if iters > 200:
            raise RuntimeError("multiplier bracket failed to close")
    while (hi - lo) > 1e-10 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if _power_curve(psi, sig, mid) > power:
            lo = mid
        else:
            hi = mid
        iters += 1
    mu = 0.5 * (lo + hi)
    for _ in range(5):
        val = _power_curve(psi, sig, mu)
        if abs(val - power) <= mu_tol * power:
            break
        grad = -4.0 * float(np.sum(psi / (sig + 2.0 * mu) ** 3))
        if grad == 0.0:
            break
        step = (val - power) / grad
        nxt = mu - step
        if not lo <= nxt <= hi:
            break
        mu = nxt
        iters += 1
    return mu, iters


def _x_update_eig(g: np.ndarray, sig: np.ndarray, q: np.ndarray, power: float,
                  mu_tol: float) -> tuple[np.ndarray, float, int]:
    """Quadratic update given the eigendecomposition of the curvature."""
    if not np.any(np.abs(q) > 0):
        raise ValueError("zero target matrix admits no finite-power solution")
    gq = g.conj().T @ q
    psi = np.sum(np.abs(gq) ** 2, axis=1)

    # Hard case: the target has no component on the smallest eigenspace and
    # the interior curve never reaches the power budget. Take the boundary
    # multiplier and pad with a null-space direction to hit the power
    # exactly; stationarity is unaffected because that direction is
    # annihilated by (Pmat + 2 mu I).
    mu_floor = -float(sig.min()) / 2.0
    tol = 1e-12 * max(float(sig.max() - sig.min()), 1.0)
    low_block = sig <= sig.min() + tol
    psi_scale = float(psi.sum())
    if float(psi[low_block].sum()) <= 1e-24 * max(psi_scale, 1e-300):
        denom = np.where(low_block, np.inf, sig + 2.0 * mu_floor)
        if float(np.sum(psi / denom**2)) < power:
            coeff = np.where(low_block, 0.0, 1.0 / denom)
            x0 = g @ (coeff[:, None] * gq)
            deficit = power - float(np.sum(np.abs(x0) ** 2))
            pad = np.zeros_like(x0)
            pad[:, 0] = g[:, int(np.argmax(low_block))]
            x = x0 + np.sqrt(deficit) * pad
            return x, mu_floor, 0

    mu, iters = _solve_multiplier(psi, sig, power, mu_tol)
    x = g @ (gq / (sig + 2.0 * mu)[:, None])
    # Exact power rescale; relative change is within the root tolerance.
    x *= np.sqrt(power / float(np.sum(np.abs(x) ** 2)))
    return x, mu, iters


def quad_x_update(target: np.ndarray, curvature: np.ndarray, power: float,
                  mu_tol: float = 1e-12) -> np.ndarray:
    """Minimize a quadratic with Hermitian curvature on the power sphere.

    Returns ``X(mu) = (curvature + 2 mu I)^-1 target`` with the unique
    multiplier ``mu`` that gives ``||X||_F**2 = power`` while keeping the
    shifted curvature positive definite.
    """
    q = np.asarray(target, dtype=complex)
    pmat = np.asarray(curvature, dtype=complex)
    if pmat.ndim != 2 or pmat.shape[0] != pmat.shape[1] or pmat.shape[0] != q.shape[0]:
        raise ValueError("curvature must be square and match the target rows")
    herm_err = float(np.max(np.abs(pmat - pmat.conj().T)))
    if herm_err > 1e-10 * max(1.0, float(np.max(np.abs(pmat)))):
        raise ValueError("curvature matrix is not Hermitian")
    if not power > 0:
        raise ValueError("power must be positive")
    sig, g = np.linalg.eigh(pmat)
    x, _, _ = _x_update_eig(g, sig, q, power, mu_tol)
    return x
