from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from priorwave import AngularGrid, steering_matrix
from priorwave.admm import _project_feasible
from priorwave.priors import _grid_density
from priorwave.relaxation import fair_relaxation, pinned, synthesize
from priorwave.scenario import _cell_seed, load_config
from priorwave.solvers import _SYNTH_STARTS, _initial_waveform

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "priorwave" / "configs"


def scaled_levels(r, a, f):
    return np.einsum("ip,ij,jp->p", a.conj(), r, a).real / f


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 8), n=st.integers(1, 60),
       kappa=st.one_of(st.just(1.0), st.floats(1.0, 4.0)), power=st.floats(0.5, 3.0))
def test_fair_relaxation_is_feasible_tight_and_bounds_every_waveform(seed, m, n, kappa, power):
    # kappa = 1 pins every diagonal entry at P / M_t, where the cap barrier
    # has no interior and the diagonal weights are free in sign.
    rng = np.random.default_rng(seed)
    a = steering_matrix(np.sort(rng.uniform(-np.pi / 2, np.pi / 2, n)), m)
    f = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
    cap = kappa * power / m
    r, t, gap, w, d = fair_relaxation(a, f, power, cap)

    assert np.array_equal(r, r.conj().T)
    assert np.linalg.eigvalsh(r)[0] >= 0.0
    assert abs(np.trace(r).real - power) <= 1e-9 * power
    assert np.diag(r).real.max() <= cap * (1 + 1e-9)
    assert abs(t - scaled_levels(r, a, f).min()) <= 1e-9 * abs(t)
    assert 0.0 <= gap <= 1e-6 * t
    # The returned dual point is feasible and certifies the bound ``t + gap``.
    assert w.shape == (n,) and d.shape == (m,)
    assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
    if not pinned(m, power, cap):
        assert d.min() >= 0.0
    value = (power * np.linalg.eigvalsh((a * (w / f)) @ a.conj().T - np.diag(d))[-1]
             + cap * d.sum())
    assert abs(value - (t + gap)) <= 1e-9 * (t + gap)
    # Weak duality: no feasible waveform beats the relaxation's bound.
    for l_samples in (1, m, 3 * m):
        bound = cap / l_samples
        for _ in range(3):
            x = rng.standard_normal((m, l_samples)) + 1j * rng.standard_normal((m, l_samples))
            x = _project_feasible(x, power, bound)
            assert scaled_levels(x @ x.conj().T, a, f).min() <= t + gap


def test_synthesized_waveform_is_feasible_and_keeps_a_rank_one_covariance():
    # A rank-one covariance within the cap is met exactly by X = v 1^T / sqrt(L),
    # so the cyclic algorithm from any start ends at that covariance.
    rng = np.random.default_rng(3)
    m, l_samples, power, kappa = 6, 20, 1.5, 1.3
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, m)) * np.sqrt(power / m)
    r = np.outer(v, v.conj())
    bound = kappa * power / (m * l_samples)
    x0 = np.sqrt(power / (m * l_samples)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (m, l_samples)))
    x = synthesize(r, [x0], power, bound)
    assert abs(np.vdot(x, x).real - power) <= 1e-12 * power
    assert (np.abs(x) ** 2).max() <= bound * (1 + 1e-12)
    assert np.linalg.norm(x @ x.conj().T - r) <= 1e-5 * power


def test_synthesis_carries_on_from_the_start_that_fits_best():
    # Scenario-3 at kappa 1.2, from the bundled fair cell's seed: the
    # synthesis has more than one fixed point, and the first three draws
    # all end at the worse fit (0.0833 against 0.0760), which the fair loop
    # then takes to a level about 2.3e-3 lower. From all four draws the
    # synthesis is, bit for bit, the one from the fourth.
    sc = load_config(CONFIG_DIR / "scenario-3.cfg")
    cfg = replace(sc.array, papr=1.2)
    grid = AngularGrid(sc.grid_size)
    f = _grid_density(sc.distribution, grid.points)
    mask = f >= 1e-6 * f.max()
    r, *_ = fair_relaxation(steering_matrix(grid.points[mask], cfg.m_t), f[mask],
                            cfg.power, cfg.papr * cfg.power / cfg.m_t)
    rng = np.random.default_rng(_cell_seed(sc.seed, "psbp-fair", 0, 0))
    draws = [_initial_waveform(cfg, rng) for _ in range(_SYNTH_STARTS)]

    def fit(x):
        return float(np.linalg.norm(x @ x.conj().T - r))

    alone = [synthesize(r, [x0], cfg.power, cfg.elem_bound) for x0 in draws]
    fits = [fit(x) for x in alone]
    assert min(fits[:3]) > fits[3] + 5e-3
    best = synthesize(r, draws, cfg.power, cfg.elem_bound)
    assert best.tobytes() == alone[3].tobytes()
