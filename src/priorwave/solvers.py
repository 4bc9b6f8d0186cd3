"""Waveform design drivers and the two benchmark waveforms.

Three designs run through one ADMM loop, ``_admm``: the bound-oriented
and integrated-beampattern solvers maximize a quadratic form of the
waveform under the power and per-element constraints, while the fair
(max-min) solver additionally carries one auxiliary vector per constraint
angle and a scalar level variable. Each design supplies only its split.

A quadratic design whose global optimum meets the element cap starts
there: ``Tr{X^H Xi X} <= P lambda_max(Xi_h)`` for every waveform of power
``P``, with equality at ``v 1^T sqrt(P / L)`` for a top eigenvector ``v``
of ``Xi + Xi^H``, so where that waveform meets the cap it is certified
optimal (Stoica, Li & Xie 2007) and overrides any warm start; the loop
confirms it in two iterations (``_certified_start``). Otherwise a cold
start of the quadratic designs is the seed's random constant-modulus
waveform with zero duals. A cold fair solve starts nearer
its end: from the optimum of its covariance relaxation
(``relaxation.fair_relaxation``), turned into a feasible waveform ``x0`` by
cyclic synthesis from the best fit of ``_SYNTH_STARTS`` such draws
(``relaxation.synthesize``), and with the duals that the relaxation's
dual point ``(w, d)`` predicts at the loop's fixed point: ADMM's
primal-dual warm start (Boyd et al. 2011, sec. 3). There the level
update's optimality condition is ``rho3 / 2 * sum_p c_p f_p = 1`` with
``b_p = c_p x^H a_p``, which the angle weights ``w`` on the simplex meet
through ``c_p = (2 / rho3) w_p / f_p``. And x-stationarity, ``2 mu X = rho
D + 2 B(w) X`` with ``B(w) = sum_p w_p a_p a_p^H / f_p``, holds at ``mu =
lambda_max`` for ``D = -(2 / rho) diag(d) X``, since ``(B(w) - diag d) R =
lambda_max R``. When the diagonal is pinned (kappa 1), ``d`` is free in
sign and is not the element cap's multiplier, so ``D`` starts at zero.
Every solve then runs the one loop from its ``AdmmState``, and a fair
solve never returns a lower level than its start's.

Away from its fixed point, the fair loop spends much of its run creeping
along a straight line: its successive steps in the state (waveform,
element-cap dual, beampattern dual) become parallel and each is a
near-constant fraction ``r`` of the one before. Once the last ``_ALIGNED_STEPS`` (3)
steps have pairwise cosines above ``_ALIGN_COS`` (0.9999) and shrink, the
loop jumps ahead ``min(r / (1 - r), _MAX_JUMP)`` steps at once
(``_MAX_JUMP`` is 10): the rest of the geometric series, capped. This is
Anderson acceleration with memory one (Zhang, O'Donoghue & Boyd 2020),
gated on alignment. The jumped waveform is rescaled to the power budget
and the alignment count starts over. The quadratic designs never jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .admm import _CAP_SLACK, AdmmTrace, _cap_elements, _project_feasible, _XUpdate
from .estimation import AngularGrid
from .pcrb import pcrb_upper_bound
from .priors import DistributionMoments, TargetDistribution, _grid_density, _point_moments
from .relaxation import fair_relaxation, pinned, synthesize
from .ula import ArrayConfig, beampattern, steering_matrix

__all__ = [
    "AdmmState",
    "SolveResult",
    "solve_pcrb",
    "solve_psbp_integrated",
    "solve_psbp_fair",
    "baseline_omni",
    "baseline_crb",
]

# The quadratic designs set their penalty to ``_SAFETY * sqrt(3) *
# ||Xi + Xi^H||_F``. The sqrt(3)-scaled norm is the nominal descent
# threshold of the augmented Lagrangian, but the descent argument leaks
# around the power-sphere multiplier, so the penalty keeps a 2x margin and
# the dual step is damped (a step below 1 leaves the fixed points
# unchanged).
_SAFETY = 2.0
_DUAL_STEP = 0.5
# Extrapolation of the fair loop's straight-line tail (module docstring):
# the steps that must be aligned, their least pairwise cosine, and the
# longest jump, in steps.
_ALIGNED_STEPS = 3
_ALIGN_COS = 0.9999
_MAX_JUMP = 10.0
# Stop once the squared split residual and the squared auxiliary motion
# both fall below this.
_PRIMAL_TOL = 1e-8
# The fair design constrains the grid angles whose prior density is at
# least this fraction of its peak.
_PDF_FLOOR = 1e-6
# Default iteration cap of every design, the only solver setting.
_MAX_ITERS = 5000
# A cold fair solve synthesizes its start from this many draws of its seed.
_SYNTH_STARTS = 4


@dataclass(frozen=True)
class AdmmState:
    """What one ADMM solve carries from iteration to iteration.

    ``x`` is the last waveform iterate before the final projection, ``d``
    the scaled dual of the element-cap split, ``mu`` the power multiplier
    (None: no x-update yet) and ``b`` the fair design's scaled beampattern
    dual (None: zeros). Passed as ``warm_start``, it starts the loop there,
    under the new problem's element cap; the result of a smaller threshold
    is feasible at a larger one. A cold start of a quadratic design is
    ``AdmmState(x0, zeros)`` with ``x0`` drawn from the seed. A cold fair
    start is ``AdmmState(x0, D, None, b)``: ``x0`` synthesized to the
    optimum of the covariance relaxation from several draws, and ``D`` and
    ``b`` the duals that the relaxation's dual point predicts (``D`` zero
    when the diagonal is pinned; module docstring). A fair solve that
    returns its start also returns the start as its state.
    """

    x: np.ndarray
    d: np.ndarray
    mu: float | None = None
    b: np.ndarray | None = None


@dataclass(frozen=True)
class SolveResult:
    """Designed waveform with its iteration history and native metric.

    ``len(trace)`` is the number of iterations run. ``metric_value`` is
    the solver's own figure of merit recomputed from the returned
    waveform: the bound surrogate at unit amplitude for the bound-oriented
    solver, the minimum density-scaled beampattern for the fair solver,
    and the density-weighted beampattern integral for the integrated
    solver. ``state`` is the loop's final state; passed as ``warm_start``
    to the same design at a larger PAPR threshold, it resumes the solve
    from there.
    """

    waveform: np.ndarray
    trace: AdmmTrace
    metric_value: float
    converged: bool
    state: AdmmState


def _sqnorm(z: np.ndarray) -> float:
    """Squared Frobenius norm of a complex array in one reduction."""
    return float(np.vdot(z, z).real)


def _initial_waveform(cfg: ArrayConfig, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(cfg.power / (cfg.m_t * cfg.l_samples))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.m_t, cfg.l_samples))
    return scale * np.exp(1j * phases)


class _QuadraticSplit:
    """``min -Tr{X^H Xi X}``: the element cap is the only split.

    The penalty is ``_SAFETY * sqrt(3) * ||Xi + Xi^H||_F``.
    """

    extrapolates = False
    certifies = True
    b = None

    def __init__(self, xi: np.ndarray, cfg: ArrayConfig) -> None:
        sym = xi + xi.conj().T
        self.xi = xi
        self.rho = _SAFETY * np.sqrt(3.0) * float(np.linalg.norm(sym))
        if not self.rho > 0:
            raise ValueError("the design objective Tr{X^H Xi X} is zero for every waveform")
        self.curvature = self.rho * np.eye(cfg.m_t) - sym

    def start(self, x: np.ndarray, b: None) -> None:
        pass

    def target(self, q: np.ndarray) -> np.ndarray:
        return q

    def measure(self, x, res, move, al):
        obj = -float(np.vdot(x, self.xi @ x).real)
        return obj, obj + al, res, move


def _certified_start(x_update: _XUpdate, cfg: ArrayConfig) -> AdmmState | None:
    """The global optimum of a quadratic design, when it meets the element cap.

    ``Tr{X^H Xi X} <= P lambda_max(Xi_h)`` for every waveform of power
    ``P``, with equality at ``X = v 1^T sqrt(P / L)`` for a top eigenvector
    ``v`` of ``Xi + Xi^H``: the curvature's bottom eigenvector. When that
    ``X`` also meets the element cap (``|v_m|^2 P / L <= elem_bound``, up to
    ``_CAP_SLACK``) it is a globally optimal waveform (Stoica, Li & Xie
    2007), and the loop starts there with zero duals; otherwise None.
    """
    v = x_update.g[:, 0]
    scale = cfg.power / cfg.l_samples
    if not np.all((v.real**2 + v.imag**2) * scale <= cfg.elem_bound * _CAP_SLACK):
        return None
    x = np.repeat(v[:, None] * math.sqrt(scale), cfg.l_samples, axis=1)
    return AdmmState(x, np.zeros_like(x))


def _admm(split, cfg: ArrayConfig, seed: int, metric, *, max_iters: int = _MAX_ITERS,
          warm_start: AdmmState | None = None) -> SolveResult:
    """ADMM over the element-cap split shared by every design.

    Each iteration projects onto the element cap, lets ``split`` add its
    own terms to the quadratic target, solves the power-sphere x-update
    exactly and takes a damped scaled dual step (Boyd et al. 2011, 3.1).
    ``split.measure`` receives the element-cap residual, auxiliary motion
    and augmented-Lagrangian term and returns the iteration's objective,
    augmented Lagrangian, residual and motion with its own blocks added.
    The last iterate, projected exactly onto the feasible set, is returned
    and ``metric`` scores its covariance ``X X^H``; ADMM's convergence
    results hold for the last iterate (Boyd et al. 2011, 3.2-3.3). At most
    ``max_iters`` iterations run, which must be at least 1.

    When ``split.extrapolates``, each iteration that does not stop the
    loop also tracks its step in ``(x, d, split.b)``. After
    ``_ALIGNED_STEPS`` aligned, shrinking steps it moves the state
    ``min(r / (1 - r), _MAX_JUMP)`` more steps ahead, rescales ``x`` to the
    power budget and lets ``split.jump`` move its dual and recompute its
    auxiliaries (module docstring). Jumps count in the trace's
    ``extrapolations``; the final iteration never jumps.

    The loop starts from ``warm_start``, by default from a random
    constant-modulus waveform drawn from ``seed`` with zero duals; given a
    state, ``seed`` is unused. A split that ``certifies`` starts instead at
    its certified optimum when that meets the cap, whatever the warm start
    (``_certified_start``); the loop then confirms it in two iterations.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    bound = cfg.elem_bound
    rho = split.rho
    gamma = _DUAL_STEP
    x_update = _XUpdate(split.curvature, cfg.power)

    if warm_start is not None:
        x = warm_start.x
        if x.shape != (cfg.m_t, cfg.l_samples):
            raise ValueError(f"warm start of shape {x.shape} does not fit "
                             f"a {cfg.m_t}x{cfg.l_samples} waveform")
        if np.shape(warm_start.d) != x.shape:
            raise ValueError(f"warm start dual d of shape {np.shape(warm_start.d)} does not "
                             f"fit its {x.shape} waveform")
    if split.certifies:
        warm_start = _certified_start(x_update, cfg) or warm_start
    if warm_start is None:
        x0 = _initial_waveform(cfg, np.random.default_rng(seed))
        warm_start = AdmmState(x0, np.zeros_like(x0))
    x, d, mu = warm_start.x, warm_start.d, warm_start.mu
    # The auxiliary's first motion never decides the stop (it needs two iterations).
    u = x
    split.start(x, warm_start.b)

    objective, al_values, residuals, mu_iters = [], [], [], []
    mu_misses = extrapolations = 0
    converged = False
    aligned, last, last_sq = 0, None, 0.0
    for it in range(1, max_iters + 1):
        # Element-cap block first, then the waveform: the augmented
        # Lagrangian descends only when the quadratic block sees the
        # freshly projected auxiliary.
        x_prev, u_prev = x, u
        u = _cap_elements(x - d, bound)
        q = split.target(rho * (u + d))
        # The multiplier barely moves between iterations: warm-start its root.
        x, mu, iters, met = x_update(q, mu)
        mu_misses += not met
        split_gap = u - x
        d_step = gamma * split_gap
        d = d + d_step
        obj, al, res, move = split.measure(
            x, _sqnorm(split_gap), _sqnorm(u - u_prev), 0.5 * rho * _sqnorm(split_gap + d))

        objective.append(obj)
        al_values.append(al)
        residuals.append(res)
        mu_iters.append(iters)
        # A slack element cap keeps the split residual at zero from the
        # first step, so stationarity of the auxiliary must be required
        # as well before stopping.
        if len(residuals) > 1 and res <= _PRIMAL_TOL and move <= _PRIMAL_TOL:
            converged = True
            break
        # The dual steps are gamma times the split residuals, so ``res``
        # gives their squared norm. A jump is never the last step, so the
        # returned waveform is always an x-update's.
        if split.extrapolates and it < max_iters:
            x_step, b_step = x - x_prev, split.b_step
            step_sq = _sqnorm(x_step) + gamma * gamma * res
            if step_sq < last_sq and _ALIGN_COS * math.sqrt(step_sq * last_sq) < (
                    np.vdot(last[0], x_step) + np.vdot(last[1], d_step)
                    + np.vdot(last[2], b_step)).real:
                aligned += 1
            else:
                aligned = 0
            if aligned < _ALIGNED_STEPS - 1:
                last, last_sq = (x_step, d_step, b_step), step_sq
            else:
                # The rest of the geometric series of steps shrinking by ``ratio``.
                ratio = math.sqrt(step_sq / last_sq)
                ahead = min(ratio / (1.0 - ratio), _MAX_JUMP)
                x = x + ahead * x_step
                x *= math.sqrt(cfg.power / _sqnorm(x))
                d = d + ahead * d_step
                split.jump(x, ahead)
                extrapolations += 1
                aligned, last_sq = 0, 0.0

    final = _project_feasible(x, cfg.power, bound)
    trace = AdmmTrace(
        objective=np.array(objective),
        augmented_lagrangian=np.array(al_values),
        residual=np.array(residuals),
        mu_iterations=np.array(mu_iters, dtype=int),
        mu_tol_misses=mu_misses,
        extrapolations=extrapolations,
    )
    return SolveResult(
        waveform=final,
        trace=trace,
        metric_value=metric(final @ final.conj().T),
        converged=converged,
        state=AdmmState(x, d, mu, split.b),
    )


def solve_pcrb(
    mom: DistributionMoments,
    cfg: ArrayConfig,
    seed: int,
    *,
    max_iters: int = _MAX_ITERS,
    warm_start: AdmmState | None = None,
) -> SolveResult:
    """Minimize the angle-bound surrogate over feasible waveforms.

    Maximizes ``Tr{X^H xi0 X}`` under the total power and per-element
    constraints; the reported metric is the resulting bound surrogate at
    unit amplitude. ``max_iters`` caps the iterations. ``warm_start`` (a
    ``SolveResult.state`` of the same design) resumes from that state
    instead of a ``seed``-drawn start. Where the certified optimum meets
    the element cap, the solve starts there instead, whatever the seed and
    warm start (module docstring).
    """
    return _admm(_QuadraticSplit(mom.xi0, cfg), cfg, seed,
                 lambda r: pcrb_upper_bound(r, mom, 1.0, cfg.noise_power),
                 max_iters=max_iters, warm_start=warm_start)


def solve_psbp_integrated(
    mom: DistributionMoments,
    cfg: ArrayConfig,
    seed: int,
    *,
    max_iters: int = _MAX_ITERS,
    warm_start: AdmmState | None = None,
) -> SolveResult:
    """Maximize the density-weighted beampattern integral ``Tr{X^H Xi X}``.

    ``Xi = xi3 / m_r = int f a a^H`` is the prior's own moment, so the
    design does not depend on any angle grid. ``max_iters`` and
    ``warm_start`` as in ``solve_pcrb``.
    """
    xi = mom.xi3 / cfg.m_r
    return _admm(_QuadraticSplit(xi, cfg), cfg, seed, lambda r: float(np.vdot(r, xi).real),
                 max_iters=max_iters, warm_start=warm_start)


def _inflate_columns(h: np.ndarray, hnorms: np.ndarray, fvals: np.ndarray,
                     eta: float) -> np.ndarray:
    """Per-angle auxiliary update: keep columns already above the level,
    radially inflate the rest to squared norm ``f * eta``.

    ``hnorms`` are the column norms of ``h``. Returns ``h`` itself when no
    column needs inflating.
    """
    level = fvals * eta
    need = level > hnorms**2
    if not need.any():
        return h
    return h * np.where(need, np.sqrt(level) / np.maximum(hnorms, 1e-300), 1.0)


def _eta_update(hnorms: np.ndarray, fvals: np.ndarray, root_f: np.ndarray,
                half: float) -> float:
    """Level update of the max-min solver, solved exactly.

    Minimizes ``-eta + half * sum_p [sqrt(f_p eta) - |h_p|]_+**2`` with
    ``half = rho3 / 2`` and ``root_f = sqrt(fvals)``, which is convex in
    ``eta`` and bounded below when ``half * sum(f) > 1`` (``_FairSplit``
    checks that once). In ``s = sqrt(eta)`` angle ``p`` is active beyond
    its breakpoint ``s_p = |h_p| / sqrt(f_p)``, and on a fixed active set
    ``A`` the optimality condition is linear:
    ``s * (half * sum_A f - 1) = half * sum_A sqrt(f) |h|``.
    Sorting the breakpoints gives every prefix active set by cumulative
    sums; the derivative's sign at every breakpoint, taken over the angles
    below it, picks the first segment where it turns positive, and the
    root on that segment (or beyond the last breakpoint) is the level.
    """
    s_brk = hnorms / root_f
    order = s_brk.argsort()
    cum_f = fvals[order].cumsum()
    cum_g = (root_f * hnorms)[order].cumsum()
    # s times the derivative at each breakpoint after the first (at the
    # first it is -s <= 0); the angle at its own breakpoint contributes
    # zero, so the sums over the angles before it, ``cum[j]`` for the
    # breakpoint ``j + 1``, suffice. A positive value needs a positive
    # slope, so the division below is safe.
    turn = (s_brk[order[1:]] * (half * cum_f[:-1] - 1.0) - half * cum_g[:-1] > 0.0).nonzero()[0]
    k = int(turn[0]) if turn.size else len(fvals) - 1
    s = half * cum_g[k] / (half * cum_f[k] - 1.0)
    return s * s


class _FairSplit:
    """Max-min split: one auxiliary vector per constraint angle and a level.

    The level ``eta`` and the per-angle vectors are updated jointly from
    their first-order conditions before each x-update. The penalties sit
    well above the level-update bound ``2 / sum(f)`` but small enough that
    the beampattern split stays soft; the element-cap penalty rides a
    factor above the beampattern one. Its loop extrapolates along the
    straight-line tail (``_ALIGNED_STEPS``): ``b_step`` is the last step of
    the beampattern dual ``b`` and ``jump`` moves ``b`` along it.
    """

    extrapolates = True
    certifies = False

    def __init__(self, a: np.ndarray, f: np.ndarray, cfg: ArrayConfig) -> None:
        sum_f = float(f.sum())
        self.rho3 = _SAFETY * 40.0 / sum_f
        self.rho = 2.0 * self.rho3
        self.half3 = 0.5 * self.rho3
        if self.half3 * sum_f <= 1.0:
            raise RuntimeError(
                f"level penalty rho3 = {self.rho3:.3e} admits no bounded level update; "
                f"it must exceed 2 / sum(f) = {2.0 / sum_f:.3e}"
            )
        self.root_f = np.sqrt(f)
        r = a @ a.conj().T
        r = 0.5 * (r + r.conj().T)
        self.curvature = self.rho * np.eye(cfg.m_t) + self.rho3 * r
        self.a, self.f = a, f

    def start(self, x: np.ndarray, b: np.ndarray | None) -> None:
        # ``gmat`` is read only as the first ``g_prev``, then replaced, never mutated.
        self.w = self.gmat = x.conj().T @ self.a
        if b is not None and np.shape(b) != self.w.shape:
            raise ValueError(f"warm start dual b of shape {np.shape(b)} does not fit "
                             f"the {self.w.shape} beampattern split")
        self.b = np.zeros_like(self.w) if b is None else b

    def jump(self, x: np.ndarray, ahead: float) -> None:
        """Move ``b`` ``ahead`` more of its last steps; ``w`` follows the
        jumped waveform ``x``."""
        self.b = self.b + ahead * self.b_step
        self.w = x.conj().T @ self.a

    def target(self, q: np.ndarray) -> np.ndarray:
        h = self.w - self.b
        hnorms = np.sqrt((h.real**2 + h.imag**2).sum(0))
        self.eta = _eta_update(hnorms, self.f, self.root_f, self.half3)
        self.g_prev = self.gmat
        self.gmat = _inflate_columns(h, hnorms, self.f, self.eta)
        return q + self.rho3 * (self.a @ (self.gmat + self.b).conj().T)

    def measure(self, x, res, move, al):
        gmat, gamma = self.gmat, _DUAL_STEP
        w = self.w = x.conj().T @ self.a
        bp_gap = gmat - w
        self.b_step = gamma * bp_gap
        self.b = self.b + self.b_step
        obj = float(((w.real**2 + w.imag**2).sum(0) / self.f).min())
        res = res + _sqnorm(bp_gap)
        move = move + _sqnorm(gmat - self.g_prev)
        al = -self.eta + al + 0.5 * self.rho3 * _sqnorm(bp_gap + self.b)
        return obj, al, res, move


def solve_psbp_fair(
    dist: TargetDistribution,
    cfg: ArrayConfig,
    grid: AngularGrid,
    seed: int,
    *,
    max_iters: int = _MAX_ITERS,
    warm_start: AdmmState | None = None,
) -> SolveResult:
    """Maximize the minimum density-scaled beampattern over the grid.

    Splits the element cap onto one auxiliary matrix and the per-angle
    beampattern onto one auxiliary vector per constraint angle; the level
    variable and those vectors are updated jointly from their first-order
    conditions. ``max_iters`` and ``warm_start`` as in ``solve_pcrb``;
    without ``warm_start`` the loop starts from the optimum of the
    covariance relaxation, synthesized from ``_SYNTH_STARTS`` waveforms
    drawn from ``seed``, with duals seeded from the relaxation's dual point
    (module docstring).

    The level is this design's objective and its start is feasible, so
    the solve never ends below its start: when the start's projection
    scores higher than the loop's last iterate, the result is that
    projection with the start as its state (the trace still records the
    loop). So a warm start from a smaller kappa's result keeps that
    result's level, up to its projection under the looser cap.
    """
    f = _grid_density(dist, grid.points)
    mask = f >= _PDF_FLOOR * f.max()
    pts, f = grid.points[mask], f[mask]
    a = steering_matrix(pts, cfg.m_t, cfg.spacing)
    split = _FairSplit(a, f, cfg)
    if warm_start is None:
        cap = cfg.papr * cfg.power / cfg.m_t
        r, _, _, w, d = fair_relaxation(a, f, cfg.power, cap)
        rng = np.random.default_rng(seed)
        x0 = synthesize(r, [_initial_waveform(cfg, rng) for _ in range(_SYNTH_STARTS)],
                        cfg.power, cfg.elem_bound)
        # The duals at the loop's fixed point, predicted by the relaxation's
        # dual point (module docstring); a pinned diagonal's weights are not
        # the element cap's multipliers.
        b = (x0.conj().T @ a) * (w / (split.half3 * f))
        dual = (np.zeros_like(x0) if pinned(cfg.m_t, cfg.power, cap)
                else (-2.0 / split.rho) * d[:, None] * x0)
        warm_start = AdmmState(x0, dual, None, b)

    def metric(r):
        return float(np.min(beampattern(r, pts, cfg.spacing) / f))

    result = _admm(split, cfg, seed, metric, max_iters=max_iters, warm_start=warm_start)
    start = _project_feasible(warm_start.x, cfg.power, cfg.elem_bound)
    level = metric(start @ start.conj().T)
    if level > result.metric_value:
        return replace(result, waveform=start, metric_value=level, state=warm_start)
    return result


def baseline_omni(cfg: ArrayConfig) -> np.ndarray:
    """Constant-modulus waveform with an exactly flat transmit beampattern.

    Rows are scaled discrete-Fourier rows, so ``X X^H = (P/M_t) I`` and
    the PAPR equals 1. The waveform is fully deterministic.
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
    seed: int,
    *,
    max_iters: int = _MAX_ITERS,
    warm_start: AdmmState | None = None,
) -> SolveResult:
    """Bound-oriented design for one deterministic angle (no prior term)."""
    return solve_pcrb(_point_moments(theta0, cfg), cfg, seed, max_iters=max_iters,
                      warm_start=warm_start)
