"""The fair design's covariance relaxation and its waveform synthesis.

Every figure the package reports reads the waveform only through its
covariance ``R = X X^H``. The element cap ``|x_ml|^2 <= kappa P / (M_t L)``
relaxes to the per-antenna cap ``diag R <= kappa P / M_t``, which with
``Tr R = P`` and ``R >= 0`` is a small convex set. Over it the max-min
design ``max_R min_p a_p^H R a_p / f_p`` is a semidefinite program,
solved here by a log-barrier Newton method (Boyd & Vandenberghe 2004,
ch. 11) in ``M_t**2`` real coordinates of ``R`` plus the level ``t``.
Its value bounds the level of every feasible waveform from above.

``synthesize`` turns a covariance into a feasible waveform with the cyclic
algorithm of Stoica, Li & Zhu 2008 ("Waveform synthesis for
diversity-based transmit beampattern design", IEEE TSP): alternate the
semi-unitary ``V`` that best fits ``X = R^{1/2} V`` with the projection of
``R^{1/2} V`` onto the power sphere and the element cap. The algorithm
has more than one fixed point: on scenario-3 at kappa 1.2 about one draw
in four ends at a worse fit and, after the fair loop, a lower level. So
it runs a few rounds from several starts and carries on from the one
that fits best.
"""

from __future__ import annotations

import math

import numpy as np

from .admm import _project_feasible

# The barrier solve stops once its certified gap is below this fraction
# of the level; the barrier weight grows by ``_TAU_STEP`` per centering,
# and a centering stops at this half squared Newton decrement or after
# ``_MAX_NEWTON`` steps.
_REL_GAP = 1e-8
_TAU_STEP = 16.0
_CENTERED = 1e-8
_MAX_NEWTON = 50
# Synthesis runs ``_PROBE_ROUNDS`` rounds from each start, then carries on
# from the best fit until a round moves ``X`` by less than ``_SYNTH_TOL``
# of the power (squared Frobenius norm), or for ``_SYNTH_ROUNDS`` rounds.
_PROBE_ROUNDS = 30
_SYNTH_TOL = 1e-9
_SYNTH_ROUNDS = 300


def _coords(b: np.ndarray, upper: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``x^H Y x`` as a linear form in the real coordinates of Hermitian
    ``Y``, one row per column ``x`` of ``b``; ``upper`` is
    ``np.triu_indices(m, 1)``.

    The coordinates are the diagonal, then the real and the imaginary
    parts of the upper entries scaled by sqrt(2) (``_hermitian``), so
    ``||Y||_F`` is their Euclidean norm and ``Tr Y`` the sum of the first
    ``m``.
    """
    iu, ju = upper
    cross = math.sqrt(2.0) * b[iu].conj() * b[ju]
    return np.vstack((b.real**2 + b.imag**2, cross.real, -cross.imag)).T


def _hermitian(y: np.ndarray, upper: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The Hermitian matrix with real coordinates ``y`` (``_coords``)."""
    iu, ju = upper
    k, m = iu.size, len(y) - 2 * iu.size
    h = np.diag(y[:m]).astype(complex)
    h[iu, ju] = (y[m:m + k] + 1j * y[m + k:]) * math.sqrt(0.5)
    h[ju, iu] = h[iu, ju].conj()
    return h


def pinned(m: int, power: float, cap: float) -> bool:
    """Whether the cap ``diag R <= cap`` leaves no room: ``cap * m == power``
    up to rounding, so every diagonal entry of a feasible ``R`` is ``cap``."""
    return cap * m <= power * (1.0 + 1e-12)


def fair_relaxation(a: np.ndarray, f: np.ndarray, power: float, cap: float
                    ) -> tuple[np.ndarray, float, float, np.ndarray, np.ndarray]:
    """Solve ``max t`` s.t. ``a_p^H R a_p / f_p >= t``, ``Tr R = power``,
    ``diag R <= cap`` and ``R >= 0``.

    ``a`` holds one steering vector per column and ``f > 0`` their
    densities; ``cap * m >= power``. Returns ``(R, t, gap, w, d)``: ``t`` is
    the least scaled beampattern of ``R``, and the angle weights ``w`` (on
    the simplex) with the diagonal weights ``d`` are a dual feasible point
    of value ``t + gap = power * lambda_max(sum_p w_p a_p a_p^H / f_p -
    diag d) + cap * sum(d)``, so no feasible ``R`` (nor waveform) does
    better than ``t + gap``. The dual point is the barrier's multipliers
    at the centering that gave ``R``: ``w_p = 1 / (s_p sum(1/s))`` over the
    slacks ``s = levels - t`` and ``d_m = 1 / (sum(1/s) room_m)`` over the
    rooms ``cap - diag R``, so ``d >= 0``. When the diagonal is ``pinned``
    its barrier is dropped and ``d``, free in sign, is taken from the
    stationarity of ``R`` instead. ``gap`` is infinite only when the first
    centering fails, and ``(w, d)`` then come from the uncentered start.

    Each Newton step works in whitened coordinates ``R + L Y L^H`` (``L``
    the Cholesky factor of ``R``), where the log-det barrier's Hessian is
    the identity, and its line search compares barrier differences, so
    neither degrades as the barrier weight grows.
    """
    m, n = a.shape[0], a.shape[0] ** 2
    is_pinned = pinned(m, power, cap)
    n_barriers = f.size + (m if is_pinned else 2 * m)
    kkt = np.zeros((n + (m if is_pinned else 1),) * 2)
    rhs = np.zeros(len(kkt))
    on_diag = np.repeat([1.0, 0.0], (m, n - m))
    upper = np.triu_indices(m, 1)

    def levels(r):
        return np.einsum("ip,ij,jp->p", a.conj(), r, a).real / f

    def center(r, t, s, room, tau):
        """Damped Newton on ``-tau t - sum log s - sum log room - log det R``.

        The slacks ``s = levels - t`` and ``room = cap - diag R`` are
        carried along, since every step moves them linearly: recomputed as
        differences of nearly equal numbers they would lose the digits the
        dual weights need.
        """
        for _ in range(_MAX_NEWTON):
            lch = np.linalg.cholesky(r)
            g = _coords(lch.conj().T @ a, upper) / f[:, None]
            c = _coords(lch.conj().T, upper)
            inv_s = 1.0 / s
            grad = -g.T @ inv_s - on_diag
            grad_t = inv_s.sum() - tau
            # The level enters every slack: eliminate it. With D = 1/s**2 and
            # gbar the D-weighted mean row, its Schur complement is
            # sum_p D_p (g_p - gbar)(g_p - gbar)^T, formed without cancellation.
            d2 = inv_s**2
            gbar = d2 @ g / d2.sum()
            spread = g - gbar
            hess = np.eye(n) + (spread.T * d2) @ spread
            if not is_pinned:
                grad += c.T @ (1.0 / room)
                hess += (c.T * room**-2) @ c
            kkt[:n, :n] = hess
            kkt[n:, :n] = c if is_pinned else c.sum(0)
            kkt[:n, n:] = kkt[n:, :n].T
            rhs[:n] = -grad - gbar * grad_t
            # Jacobi scaling, and one refinement step that keeps the
            # equalities to rounding.
            scale = np.ones(len(kkt))
            scale[:n] = 1.0 / np.sqrt(np.diag(hess))
            scaled = kkt * scale * scale[:, None]
            sol = np.linalg.solve(scaled, rhs * scale)
            sol += np.linalg.solve(scaled, rhs * scale - scaled @ sol)
            y = scale[:n] * sol[:n]
            dt = gbar @ y - grad_t / d2.sum()
            slope = float(grad @ y + grad_t * dt)
            if -0.5 * slope <= _CENTERED:
                break
            # Relative changes of every barrier's argument along the step;
            # the step goes at most half way to the nearest boundary, and
            # the sufficient-decrease test compares barrier differences.
            ds, droom, dy = g @ y - dt, -(c @ y), _hermitian(y, upper)
            rel = [ds / s, np.linalg.eigvalsh(dy)]
            if not is_pinned:
                rel.append(droom / room)
            rel = np.concatenate(rel)
            alpha = min(1.0, 0.5 / max(-rel.min(), 1e-300))
            while -tau * alpha * dt - np.log1p(alpha * rel).sum() > 0.25 * alpha * slope:
                alpha *= 0.5
            r = r + alpha * (lch @ dy @ lch.conj().T)
            r = 0.5 * (r + r.conj().T)
            t, s, room = t + alpha * dt, s + alpha * ds, room + alpha * droom
        return r, t, s, room

    def dual_point(r, s, room):
        """The barrier's multipliers, normalized: weights on the angles (on
        the simplex) and on the diagonal. Any real diagonal weights serve
        when the diagonal is pinned."""
        total = (1.0 / s).sum()
        bmat = (a * (1.0 / (s * total * f))) @ a.conj().T
        d = (np.diag(bmat + np.linalg.inv(r) / total).real if is_pinned
             else 1.0 / (total * room))
        bound = power * float(np.linalg.eigvalsh(bmat - np.diag(d))[-1]) + cap * float(d.sum())
        return 1.0 / (s * total), d, bound

    r = np.eye(m, dtype=complex) * (power / m)
    t = 0.5 * float(levels(r).min())
    s, room = levels(r) - t, cap - np.diag(r).real
    tau = n_barriers / t
    best = (r, float(levels(r).min()), math.inf, *dual_point(r, s, room)[:2])
    while True:
        try:
            r, t, s, room = center(r, t, s, room, tau)
        except np.linalg.LinAlgError:  # the barrier weight has outrun double precision
            return best
        w, d, bound = dual_point(r, s, room)
        # The reported covariance meets the equalities that the steps hold
        # only to rounding; the congruence or the scaling keeps it PSD.
        if is_pinned:
            q = np.sqrt(cap / np.diag(r).real)
            feasible = r * np.outer(q, q)
        else:
            feasible = r * (power / np.trace(r).real)
        level = float(levels(feasible).min())
        gap = bound - level
        # In exact arithmetic each centering shrinks the gap ``_TAU_STEP``-fold.
        if gap > 0.5 * best[2]:  # rounding has caught up with the barrier
            return best if gap > best[2] else (feasible, level, gap, w, d)
        best = feasible, level, gap, w, d
        if gap <= _REL_GAP * level:
            return best
        tau *= _TAU_STEP


def synthesize(r: np.ndarray, starts, power: float, bound: float) -> np.ndarray:
    """A waveform under ``||X||_F**2 = power`` and ``|x_ml|**2 <= bound``
    whose covariance approximates ``r``, by the cyclic algorithm.

    Each of the ``starts`` runs ``_PROBE_ROUNDS`` rounds; the one whose
    covariance is then nearest ``r`` (Frobenius) runs on until it stops
    moving. Ties go to the earlier start.
    """
    lam, u = np.linalg.eigh(r)
    root = (u * np.sqrt(np.maximum(lam, 0.0))) @ u.conj().T

    def rounds(x, n):
        for _ in range(n):
            left, _, right = np.linalg.svd(root @ x, full_matrices=False)
            x_new = _project_feasible(root @ (left @ right), power, bound)
            moved = float(np.vdot(x_new - x, x_new - x).real)
            x = x_new
            if moved <= _SYNTH_TOL * power:
                break
        return x

    probes = [rounds(x, _PROBE_ROUNDS) for x in starts]
    return rounds(min(probes, key=lambda x: np.linalg.norm(x @ x.conj().T - r)), _SYNTH_ROUNDS)
