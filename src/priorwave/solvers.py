"""Waveform design drivers and the two benchmark waveforms.

Three designs run through one ADMM loop, ``_admm``: the bound-oriented
and integrated-beampattern solvers maximize a quadratic form of the
waveform under the power and per-element constraints, while the fair
(max-min) solver additionally carries one auxiliary vector per constraint
angle and a scalar level variable. Each design supplies only its split.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .admm import AdmmConfig, AdmmTrace, papr_project, _x_update_eig
from .estimation import AngularGrid
from .pcrb import pcrb_upper_bound
from .priors import DistributionMoments, PointMass, TargetDistribution, compute_moments
from .ula import ArrayConfig, Feasibility, steering_matrix, waveform_feasibility

__all__ = [
    "SolveResult",
    "solve_pcrb",
    "solve_psbp_integrated",
    "solve_psbp_fair",
    "baseline_omni",
    "baseline_crb",
]

# Loose feasibility used while tracking the best iterate; the returned
# waveform is polished to the tight tolerances afterwards.
_TRACK_SLACK = 1e-6
_FINAL_SLACK = 1e-9


@dataclass(frozen=True)
class SolveResult:
    """Designed waveform with its iteration history and native metric.

    ``metric_value`` is the solver's own figure of merit recomputed from
    the returned waveform: the bound surrogate at unit amplitude for the
    bound-oriented solver, the minimum density-scaled beampattern for the
    fair solver, and the density-weighted beampattern sum for the
    integrated solver.
    """

    waveform: np.ndarray
    trace: AdmmTrace
    metric_value: float
    feasibility: Feasibility
    iterations: int
    converged: bool


def _initial_waveform(cfg: ArrayConfig, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(cfg.power / (cfg.m_t * cfg.l_samples))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.m_t, cfg.l_samples))
    return scale * np.exp(1j * phases)


def _polish(x: np.ndarray, power: float, bound: float, max_rounds: int = 200) -> np.ndarray:
    """Alternate the element cap and the exact power rescale to feasibility."""
    for _ in range(max_rounds):
        x = papr_project(x, bound)
        x = x * np.sqrt(power / float(np.sum(np.abs(x) ** 2)))
        if float(np.max(np.abs(x) ** 2)) <= bound * (1.0 + _FINAL_SLACK):
            return x
    warnings.warn("feasibility polish did not converge; returning best effort")
    return x


class _QuadraticSplit:
    """``min -Tr{X^H Xi X}``: the element cap is the only split.

    The automatic penalty is ``safety * sqrt(3) * ||Xi + Xi^H||_F``.
    """

    maximize = False

    def __init__(self, xi: np.ndarray, cfg: ArrayConfig, admm: AdmmConfig) -> None:
        sym = xi + xi.conj().T
        self.xi = xi
        self.rho = (admm.rho if admm.rho is not None
                    else admm.safety * np.sqrt(3.0) * float(np.linalg.norm(sym)))
        self.curvature = self.rho * np.eye(cfg.m_t) - sym

    def start(self, x: np.ndarray) -> None:
        pass

    def target(self, q: np.ndarray) -> np.ndarray:
        return q

    def measure(self, x, res, move, al):
        obj = -float(np.vdot(x, self.xi @ x).real)
        return obj, obj + al, res, move


def _admm(split, cfg: ArrayConfig, admm: AdmmConfig, seed: int, metric) -> SolveResult:
    """ADMM over the element-cap split shared by every design.

    Each iteration projects onto the element cap, lets ``split`` add its
    own terms to the quadratic target, solves the power-sphere x-update
    exactly and takes a damped scaled dual step (Boyd et al. 2011, 3.1).
    ``split.measure`` receives the element-cap residual, auxiliary motion
    and augmented-Lagrangian term and returns the iteration's objective,
    augmented Lagrangian, residual and motion with its own blocks added.
    The best track-feasible iterate (lowest objective, or highest when
    ``split.maximize``) is polished and scored by ``metric``.
    """
    rng = np.random.default_rng(seed)
    bound = cfg.elem_bound
    rho = split.rho
    gamma = admm.dual_step
    sig, g = np.linalg.eigh(split.curvature)

    x = _initial_waveform(cfg, rng)
    u = x.copy()
    d = np.zeros_like(x)
    split.start(x)

    objective, al_values, residuals, mu_iters = [], [], [], []
    best_loss = np.inf
    best_x = None
    converged = False
    for _ in range(admm.max_iters):
        # Element-cap block first, then the waveform: the augmented
        # Lagrangian descends only when the quadratic block sees the
        # freshly projected auxiliary.
        u_prev = u
        u = papr_project(x - d, bound)
        q = split.target(rho * (u + d))
        x, _, iters = _x_update_eig(g, sig, q, cfg.power, admm.mu_tol)
        d = d + gamma * u - gamma * x
        obj, al, res, move = split.measure(
            x,
            float(np.sum(np.abs(u - x) ** 2)),
            float(np.sum(np.abs(u - u_prev) ** 2)),
            0.5 * rho * float(np.sum(np.abs(u - x + d) ** 2)),
        )

        objective.append(obj)
        al_values.append(al)
        residuals.append(res)
        mu_iters.append(iters)
        # Negation is exact, so a maximizing split tracks its best iterate
        # with the same comparison.
        loss = -obj if split.maximize else obj
        if float(np.max(np.abs(x) ** 2)) <= bound * (1.0 + _TRACK_SLACK) and loss < best_loss:
            best_loss = loss
            best_x = x.copy()
        # A slack element cap keeps the split residual at zero from the
        # first step, so stationarity of the auxiliary must be required
        # as well before stopping.
        if len(residuals) > 1 and res <= admm.primal_tol and move <= admm.primal_tol:
            converged = True
            break

    final = best_x if best_x is not None else x
    final = _polish(final, cfg.power, bound)
    trace = AdmmTrace(
        objective=np.array(objective),
        augmented_lagrangian=np.array(al_values),
        residual=np.array(residuals),
        mu_iterations=np.array(mu_iters, dtype=int),
    )
    return SolveResult(
        waveform=final,
        trace=trace,
        metric_value=metric(final),
        feasibility=waveform_feasibility(final, cfg),
        iterations=len(trace),
        converged=converged,
    )


def solve_pcrb(
    mom: DistributionMoments,
    cfg: ArrayConfig,
    admm: AdmmConfig,
    seed: int,
) -> SolveResult:
    """Minimize the angle-bound surrogate over feasible waveforms.

    Maximizes ``Tr{X^H xi0 X}`` under the total power and per-element
    constraints; the reported metric is the resulting bound surrogate at
    unit amplitude.
    """
    return _admm(_QuadraticSplit(mom.xi0, cfg, admm), cfg, admm, seed,
                 lambda x: pcrb_upper_bound(x, mom, 1.0, cfg.noise_power))


def _psbp_points(dist: TargetDistribution, grid: AngularGrid, pdf_floor: float):
    """Constraint angles and density values over the possible target region."""
    if isinstance(dist, PointMass):
        raise ValueError("beampattern grids need a density; got a point mass")
    f = np.asarray(dist.pdf(grid.points), dtype=float)
    peak = float(f.max())
    if peak <= 0:
        raise ValueError("prior density is zero at every grid point")
    mask = f >= pdf_floor * peak
    return grid.points[mask], f[mask]


def solve_psbp_integrated(
    dist: TargetDistribution,
    cfg: ArrayConfig,
    grid: AngularGrid,
    admm: AdmmConfig,
    seed: int,
    *,
    pdf_floor: float = 1e-6,
    bare_sum: bool = False,
) -> SolveResult:
    """Maximize the density-weighted beampattern sum over the grid.

    By default the sum is scaled by the grid cell width so it approximates
    the density-weighted integral and is stable under grid refinement;
    ``bare_sum`` reproduces the unscaled sum instead. A point-mass prior
    yields the rank-one weighting at its angle.
    """
    if isinstance(dist, PointMass):
        pts = np.array([dist.theta0])
        w = np.array([1.0])
    else:
        pts, f = _psbp_points(dist, grid, pdf_floor)
        w = f if bare_sum else f * grid.cell
    a = steering_matrix(pts, cfg.m_t, cfg.spacing)
    xi = np.einsum("ip,p,kp->ik", a, w, a.conj())
    return _admm(_QuadraticSplit(xi, cfg, admm), cfg, admm, seed,
                 lambda x: float(w @ np.sum(np.abs(x.conj().T @ a) ** 2, axis=0)))


def _inflate_columns(h: np.ndarray, fvals: np.ndarray, eta: float) -> np.ndarray:
    """Per-angle auxiliary update: keep columns already above the level,
    radially inflate the rest to squared norm ``f * eta``."""
    hn = np.linalg.norm(h, axis=0)
    out = h.copy()
    need = fvals * eta > hn**2
    if np.any(need):
        safe = np.maximum(hn[need], 1e-300)
        out[:, need] = h[:, need] * (np.sqrt(fvals[need] * eta) / safe)
    return out


def _eta_update(hnorms: np.ndarray, fvals: np.ndarray, rho3: float) -> float:
    """Level update of the max-min solver by bisecting its optimality condition.

    The objective ``-eta + (rho3/2) * sum_p [inflation cost]`` is convex in
    ``eta`` with a monotonically increasing derivative; each constraint
    angle joins the active set continuously, so the set is re-evaluated
    inside every derivative evaluation and the bisection lands on the
    joint fixed point of the level and its active set.
    """
    sum_f = float(fvals.sum())
    if 0.5 * rho3 * sum_f <= 1.0:
        raise RuntimeError(
            "rho3 too small for a bounded level update; increase rho3 "
            f"above {2.0 / sum_f:.3e}"
        )

    def derivative(eta: float) -> float:
        active = fvals * eta > hnorms**2
        if not np.any(active):
            return -1.0
        terms = fvals[active] - np.sqrt(fvals[active]) * hnorms[active] / np.sqrt(eta)
        return -1.0 + 0.5 * rho3 * float(terms.sum())

    sqrt_hi = 0.5 * rho3 * float(np.sqrt(fvals) @ hnorms) / (0.5 * rho3 * sum_f - 1.0)
    hi = max(sqrt_hi**2, float((hnorms**2 / fvals).max()), 1e-30)
    if derivative(hi) < 0:  # everything active and still descending: cap is the root
        return hi
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if derivative(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


class _FairSplit:
    """Max-min split: one auxiliary vector per constraint angle and a level.

    The level ``eta`` and the per-angle vectors are updated jointly from
    their first-order conditions before each x-update. The automatic
    penalties sit well above the level-update bound ``2 / sum(f)`` but
    small enough that the beampattern split stays soft; the element-cap
    penalty rides a factor above the beampattern one.
    """

    maximize = True

    def __init__(self, a: np.ndarray, f: np.ndarray, cfg: ArrayConfig,
                 admm: AdmmConfig) -> None:
        if admm.rho_fair is not None:
            self.rho, self.rho3 = admm.rho_fair
        else:
            self.rho3 = admm.safety * 40.0 / float(f.sum())
            self.rho = 2.0 * self.rho3
        r = a @ a.conj().T
        r = 0.5 * (r + r.conj().T)
        self.curvature = self.rho * np.eye(cfg.m_t) + self.rho3 * r
        self.a, self.f, self.gamma = a, f, admm.dual_step

    def start(self, x: np.ndarray) -> None:
        self.w = x.conj().T @ self.a
        self.gmat = self.w.copy()
        self.b = np.zeros_like(self.w)

    def target(self, q: np.ndarray) -> np.ndarray:
        h = self.w - self.b
        self.eta = _eta_update(np.linalg.norm(h, axis=0), self.f, self.rho3)
        self.g_prev = self.gmat
        self.gmat = _inflate_columns(h, self.f, self.eta)
        return q + self.rho3 * (self.a @ (self.gmat + self.b).conj().T)

    def measure(self, x, res, move, al):
        gmat, gamma = self.gmat, self.gamma
        w = self.w = x.conj().T @ self.a
        self.b = self.b + gamma * gmat - gamma * w
        obj = float(np.min(np.sum(np.abs(w) ** 2, axis=0) / self.f))
        res = res + float(np.sum(np.abs(gmat - w) ** 2))
        move = move + float(np.sum(np.abs(gmat - self.g_prev) ** 2))
        al = -self.eta + al + 0.5 * self.rho3 * float(np.sum(np.abs(gmat - w + self.b) ** 2))
        return obj, al, res, move


def solve_psbp_fair(
    dist: TargetDistribution,
    cfg: ArrayConfig,
    grid: AngularGrid,
    admm: AdmmConfig,
    seed: int,
    *,
    pdf_floor: float = 1e-6,
) -> SolveResult:
    """Maximize the minimum density-scaled beampattern over the grid.

    Splits the element cap onto one auxiliary matrix and the per-angle
    beampattern onto one auxiliary vector per constraint angle; the level
    variable and those vectors are updated jointly from their first-order
    conditions.
    """
    pts, f = _psbp_points(dist, grid, pdf_floor)
    a = steering_matrix(pts, cfg.m_t, cfg.spacing)
    return _admm(_FairSplit(a, f, cfg, admm), cfg, admm, seed,
                 lambda x: float(np.min(np.sum(np.abs(x.conj().T @ a) ** 2, axis=0) / f)))


def baseline_omni(cfg: ArrayConfig, seed: int | None = None) -> np.ndarray:
    """Constant-modulus waveform with an exactly flat transmit beampattern.

    Rows are scaled discrete-Fourier rows, so ``X X^H = (P/M_t) I`` and
    the PAPR equals 1. The waveform is fully deterministic; ``seed`` is
    accepted for interface uniformity with the solvers.
    """
    if cfg.l_samples < cfg.m_t:
        raise ValueError("an orthogonal-row waveform needs l_samples >= m_t")
    m = np.arange(cfg.m_t)[:, None]
    l = np.arange(cfg.l_samples)[None, :]
    scale = np.sqrt(cfg.power / (cfg.m_t * cfg.l_samples))
    return scale * np.exp(-2j * np.pi * m * l / cfg.l_samples)


def baseline_crb(
    theta0: float,
    cfg: ArrayConfig,
    admm: AdmmConfig,
    seed: int,
) -> SolveResult:
    """Bound-oriented design for one deterministic angle (no prior term)."""
    mom = compute_moments(PointMass(theta0), cfg)
    return solve_pcrb(mom, cfg, admm, seed)
