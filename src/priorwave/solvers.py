"""Waveform design drivers and the two benchmark waveforms.

The bound-oriented and integrated-beampattern designs and the crb
baseline maximize ``Tr{X^H Xi X} = x^H Xi_h x`` (``Xi_h`` the Hermitian
part of ``Xi``) over one beam ``x`` sent as ``X = x 1^T / sqrt(L)``, with
``||x||^2 = P`` and ``|x_m|^2 <= kappa P / M_t`` (``_beam_design``). The
minorize-maximize ascent ``x <- Pi(Xi_h x)`` (Soltanalian & Stoica 2014),
``Pi`` the projection onto that set (``_project_feasible``), never lowers
the value once ``Xi_h`` is shifted to be positive semidefinite, which
moves the value by a constant on the power sphere. A top eigenvector of
``Xi_h`` at power ``P`` attains ``P lambda_max(Xi_h)``, which bounds every
waveform; where it meets the cap it is optimal (Stoica, Li & Xie 2007)
and the only start. Otherwise the ascent also starts from
``_SYNTH_STARTS`` constant-modulus beams drawn from the seed, and the
best end wins.

The fair (max-min) design runs the ADMM loop ``_fair_admm``, which
carries one auxiliary vector per constraint angle and a scalar level
beside the element-cap split. A cold fair solve starts from the
optimum of its covariance relaxation (``relaxation.fair_relaxation``),
synthesized into a feasible waveform ``x0`` from the best fit of
``_SYNTH_STARTS`` random constant-modulus waveforms drawn from the seed
(``relaxation.synthesize``), with the duals that the relaxation's
dual point ``(w, d)`` predicts at the loop's fixed point: ADMM's
primal-dual warm start (Boyd et al. 2011, sec. 3). There the level
update's optimality condition is ``rho3 / 2 * sum_p c_p f_p = 1`` with
``b_p = c_p x^H a_p``, which the angle weights ``w`` on the simplex meet
through ``c_p = (2 / rho3) w_p / f_p``. And x-stationarity, ``2 mu X = rho
D + 2 B(w) X`` with ``B(w) = sum_p w_p a_p a_p^H / f_p``, holds at ``mu =
lambda_max`` for ``D = -(2 / rho) diag(d) X``, since ``(B(w) - diag d) R =
lambda_max R``. When the diagonal is pinned (kappa 1), ``d`` is free in
sign and is not the element cap's multiplier, so ``D`` starts at zero.
Every fair solve then runs the one plain ADMM loop from its
``AdmmState``, and never returns a lower level than its start's.
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

# The fair design's level penalty is ``_SAFETY * 40 / sum(f)``, computed only
# in ``_level_penalty``, and its dual steps are damped (a step below 1 leaves
# the fixed points alone).
_SAFETY = 2.0
_DUAL_STEP = 0.5
# The fair loop stops once the squared split residual and the squared
# auxiliary motion both fall below this.
_PRIMAL_TOL = 1e-8
# The beam ascent stops once a step, after at least two, raises
# ``Tr{X^H Xi X}`` by at most this, relative.
_ASCENT_TOL = 1e-13
# The fair design constrains the grid angles whose prior density is at
# least this fraction of its peak.
_PDF_FLOOR = 1e-6
# Default iteration cap of every design, the only solver setting.
_MAX_ITERS = 5000
# A cold fair solve synthesizes its start from this many draws of its
# seed, and a cap-binding quadratic design ascends from as many.
_SYNTH_STARTS = 4


@dataclass(frozen=True)
class AdmmState:
    """What the fair design's ADMM loop carries from iteration to iteration.

    ``x`` is the last waveform iterate before the final projection, ``d``
    the scaled dual of the element-cap split, ``mu`` the power multiplier
    (None: no x-update yet) and ``b`` the scaled beampattern dual (None:
    zeros). Passed as ``warm_start``, it starts the loop there, under the
    new problem's element cap. A cold fair start is ``AdmmState(x0, D,
    None, b)`` (module docstring).
    """

    x: np.ndarray
    d: np.ndarray
    mu: float | None = None
    b: np.ndarray | None = None


@dataclass(frozen=True)
class SolveResult:
    """Designed waveform with its iteration history and native metric.

    ``len(trace)`` is the number of iterations run, for a quadratic design
    the winning start's ascent steps. ``metric_value`` is the solver's own
    figure of merit recomputed from the returned waveform: the bound
    surrogate at unit amplitude for the bound-oriented solver, the minimum
    density-scaled beampattern for the fair solver, and the
    density-weighted beampattern integral for the integrated solver.
    ``state`` is the fair solve's final state; passed as ``warm_start`` to
    the fair design at a larger PAPR threshold, it resumes the solve from
    there. A quadratic design has no state to resume (None).
    """

    waveform: np.ndarray
    trace: AdmmTrace
    metric_value: float
    converged: bool
    state: AdmmState | None


def _sqnorm(z: np.ndarray) -> float:
    """Squared Frobenius norm of a complex array in one reduction."""
    return float(np.vdot(z, z).real)


def _initial_waveform(cfg: ArrayConfig, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(cfg.power / (cfg.m_t * cfg.l_samples))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.m_t, cfg.l_samples))
    return scale * np.exp(1j * phases)


def _beam_design(xi: np.ndarray, cfg: ArrayConfig, seed: int, metric,
                 max_iters: int) -> SolveResult:
    """The best of the ascents from each start (module docstring), each of
    at most ``max_iters`` steps; ``metric`` scores the returned covariance.
    The trace is the winning start's: ``-Tr{X^H Xi X}`` as objective and
    augmented Lagrangian, and the squared beam motion as residual."""
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    m_t, n_cols = cfg.m_t, cfg.l_samples
    xi_h = 0.5 * (xi + xi.conj().T)
    if not float(np.linalg.norm(xi_h)) > 0:
        raise ValueError("the design objective Tr{X^H Xi X} is zero for every waveform")
    lam, vecs = np.linalg.eigh(xi_h)
    lift = xi_h - min(lam[0], 0.0) * np.eye(m_t)
    power, cap = cfg.power, cfg.papr * cfg.power / m_t
    starts = [vecs[:, -1] * math.sqrt(power)]
    if not np.all(np.abs(starts[0]) ** 2 <= cap * _CAP_SLACK):
        rng = np.random.default_rng(seed)
        starts += [math.sqrt(power / m_t) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, m_t))
                   for _ in range(_SYNTH_STARTS)]
    best = None
    for x in starts:
        values, moves, converged = [], [], False
        for _ in range(max_iters):
            step = _project_feasible(lift @ x, power, cap)
            moves.append(_sqnorm(step - x))
            x = step
            values.append(float(np.vdot(x, xi_h @ x).real))
            if len(values) > 1 and values[-1] - values[-2] <= _ASCENT_TOL * abs(values[-1]):
                converged = True
                break
        if best is None or values[-1] > best[1][-1]:
            best = x, values, moves, converged
    x, values, moves, converged = best
    waveform = np.repeat(x[:, None] / math.sqrt(n_cols), n_cols, axis=1)
    objective = -np.array(values)
    trace = AdmmTrace(objective=objective, augmented_lagrangian=objective,
                      residual=np.array(moves), mu_iterations=np.zeros(len(values), dtype=int))
    return SolveResult(waveform, trace, metric(waveform @ waveform.conj().T), converged, None)


def solve_pcrb(
    mom: DistributionMoments,
    cfg: ArrayConfig,
    seed: int,
    *,
    max_iters: int = _MAX_ITERS,
) -> SolveResult:
    """Minimize the angle-bound surrogate over feasible waveforms.

    Maximizes ``Tr{X^H xi0 X}`` under the total power and per-element
    constraints; the reported metric is the resulting bound surrogate at
    unit amplitude. ``max_iters`` caps the steps of each start. Where
    the top eigenvector meets the element cap it is the certified optimum
    and the only start; otherwise the ascent also starts from beams drawn
    from ``seed`` (module docstring).
    """
    return _beam_design(mom.xi0, cfg, seed,
                        lambda r: pcrb_upper_bound(r, mom, 1.0, cfg.noise_power), max_iters)


def solve_psbp_integrated(
    mom: DistributionMoments,
    cfg: ArrayConfig,
    seed: int,
    *,
    max_iters: int = _MAX_ITERS,
) -> SolveResult:
    """Maximize the density-weighted beampattern integral ``Tr{X^H Xi X}``.

    ``Xi = xi3 / m_r = int f a a^H`` is the prior's own moment, so the
    design does not depend on any angle grid. ``max_iters`` as in
    ``solve_pcrb``.
    """
    xi = mom.xi3 / cfg.m_r
    return _beam_design(xi, cfg, seed, lambda r: float(np.vdot(r, xi).real), max_iters)


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
    ``eta`` and bounded below when ``half * sum(f) > 1``. In ``s =
    sqrt(eta)`` angle ``p`` is active beyond
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


def _level_penalty(f: np.ndarray) -> float:
    """The fair design's level penalty ``rho3``: well above the level-update
    bound ``2 / sum(f)`` (``rho3 / 2 * sum(f) = 20 * _SAFETY``), small
    enough that the beampattern split stays soft."""
    return _SAFETY * 40.0 / float(f.sum())


def _fair_admm(a: np.ndarray, f: np.ndarray, cfg: ArrayConfig, metric, start: AdmmState, *,
               max_iters: int = _MAX_ITERS) -> SolveResult:
    """Max-min ADMM from ``start`` over the constraint angles' steering
    columns ``a`` and densities ``f``.

    Splits the element cap onto one auxiliary matrix (penalty ``rho =
    2 rho3``) and the beampattern onto one auxiliary vector per angle
    (penalty ``rho3``, ``_level_penalty``). Each iteration projects onto the
    element cap, updates the level ``eta`` and the per-angle vectors
    jointly from their first-order conditions, solves the power-sphere
    x-update exactly and takes damped scaled dual steps (Boyd et al. 2011,
    3.1). The last iterate, projected exactly onto the feasible set, is
    returned and ``metric`` scores its covariance ``X X^H``; ADMM's
    convergence results hold for the last iterate (Boyd et al. 2011,
    3.2-3.3). At most ``max_iters`` iterations run, which must be at least 1.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    bound = cfg.elem_bound
    rho3 = _level_penalty(f)
    rho, half3 = 2.0 * rho3, 0.5 * rho3
    root_f = np.sqrt(f)
    r = a @ a.conj().T
    x_update = _XUpdate(rho * np.eye(cfg.m_t) + rho3 * (0.5 * (r + r.conj().T)), cfg.power)

    x, d, mu, b = start.x, start.d, start.mu, start.b
    if x.shape != (cfg.m_t, cfg.l_samples):
        raise ValueError(f"warm start of shape {x.shape} does not fit "
                         f"a {cfg.m_t}x{cfg.l_samples} waveform")
    if np.shape(d) != x.shape:
        raise ValueError(f"warm start dual d of shape {np.shape(d)} does not "
                         f"fit its {x.shape} waveform")
    # The auxiliaries' first motion never decides the stop (it needs two
    # iterations); ``gmat`` is read only as the first ``g_prev``, never mutated.
    u = x
    w = gmat = x.conj().T @ a
    if b is not None and np.shape(b) != w.shape:
        raise ValueError(f"warm start dual b of shape {np.shape(b)} does not fit "
                         f"the {w.shape} beampattern split")
    b = np.zeros_like(w) if b is None else b

    objective, al_values, residuals, mu_iters = [], [], [], []
    mu_misses = 0
    converged = False
    for _ in range(max_iters):
        # Element-cap block first, then the waveform: the augmented
        # Lagrangian descends only when the quadratic block sees the
        # freshly projected auxiliary.
        u_prev = u
        u = _cap_elements(x - d, bound)
        h = w - b
        hnorms = np.sqrt((h.real**2 + h.imag**2).sum(0))
        eta = _eta_update(hnorms, f, root_f, half3)
        g_prev = gmat
        gmat = _inflate_columns(h, hnorms, f, eta)
        q = rho * (u + d) + rho3 * (a @ (gmat + b).conj().T)
        # The multiplier barely moves between iterations: warm-start its root.
        x, mu, iters, met = x_update(q, mu)
        mu_misses += not met
        split_gap = u - x
        d = d + _DUAL_STEP * split_gap
        w = x.conj().T @ a
        bp_gap = gmat - w
        b = b + _DUAL_STEP * bp_gap
        res = _sqnorm(split_gap) + _sqnorm(bp_gap)
        move = _sqnorm(u - u_prev) + _sqnorm(gmat - g_prev)
        objective.append(float(((w.real**2 + w.imag**2).sum(0) / f).min()))
        al_values.append(-eta + 0.5 * rho * _sqnorm(split_gap + d)
                         + half3 * _sqnorm(bp_gap + b))
        residuals.append(res)
        mu_iters.append(iters)
        # A slack element cap keeps the split residual at zero from the
        # first step, so stationarity of the auxiliaries must be required
        # as well before stopping.
        if len(residuals) > 1 and res <= _PRIMAL_TOL and move <= _PRIMAL_TOL:
            converged = True
            break

    final = _project_feasible(x, cfg.power, bound)
    trace = AdmmTrace(np.array(objective), np.array(al_values), np.array(residuals),
                      np.array(mu_iters, dtype=int), mu_misses)
    return SolveResult(final, trace, metric(final @ final.conj().T), converged,
                       AdmmState(x, d, mu, b))


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
    conditions. ``max_iters`` caps the iterations, and ``warm_start`` (a
    ``SolveResult.state`` of the same design) resumes from that state;
    without it the loop starts from the optimum of the covariance
    relaxation, synthesized from ``_SYNTH_STARTS`` waveforms drawn from
    ``seed``, with duals from the relaxation's dual point (module docstring).

    The level is this design's objective and its start's projection is
    feasible, so the solve never ends below that projection: when it
    scores higher than the loop's last iterate, the result is that
    projection with the start as its state (the trace still records the
    loop). A warm start's ``x`` is the previous loop's last iterate before
    its final projection, so this projection under a looser cap is not
    the previous result's waveform and can score below it; keeping a
    kappa chain from falling is ``scenario``'s floor.
    """
    f = _grid_density(dist, grid.points)
    mask = f >= _PDF_FLOOR * f.max()
    pts, f = grid.points[mask], f[mask]
    a = steering_matrix(pts, cfg.m_t, cfg.spacing)
    if warm_start is None:
        cap = cfg.papr * cfg.power / cfg.m_t
        r, _, _, w, d = fair_relaxation(a, f, cfg.power, cap)
        rng = np.random.default_rng(seed)
        x0 = synthesize(r, [_initial_waveform(cfg, rng) for _ in range(_SYNTH_STARTS)],
                        cfg.power, cfg.elem_bound)
        # The duals at the loop's fixed point, predicted by the relaxation's
        # dual point (module docstring), with ``rho = 2 rho3``; a pinned
        # diagonal's weights are not the element cap's multipliers.
        rho3 = _level_penalty(f)
        b = (x0.conj().T @ a) * (w / (0.5 * rho3 * f))
        dual = (np.zeros_like(x0) if pinned(cfg.m_t, cfg.power, cap)
                else (-1.0 / rho3) * d[:, None] * x0)
        warm_start = AdmmState(x0, dual, None, b)

    def metric(r):
        return float(np.min(beampattern(r, pts, cfg.spacing) / f))

    result = _fair_admm(a, f, cfg, metric, warm_start, max_iters=max_iters)
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
) -> SolveResult:
    """Bound-oriented design for one deterministic angle (no prior term); its
    rank-one ``Xi`` has a constant-modulus top eigenvector, always optimal."""
    return solve_pcrb(_point_moments(theta0, cfg), cfg, seed, max_iters=max_iters)
