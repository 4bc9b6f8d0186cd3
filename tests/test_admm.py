import numpy as np
import pytest

from priorwave import AdmmConfig, papr_project, quad_x_update
from priorwave.admm import _solve_multiplier, _x_update_eig


def random_hermitian(rng, n, shift=0.0):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (h + h.conj().T) + shift * np.eye(n)


def test_admm_config_validation():
    with pytest.raises(ValueError):
        AdmmConfig(rho=-1.0)
    with pytest.raises(ValueError):
        AdmmConfig(safety=1.0)
    with pytest.raises(ValueError):
        AdmmConfig(max_iters=0)
    with pytest.raises(ValueError):
        AdmmConfig(primal_tol=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(dual_step=0.0)
    with pytest.raises(ValueError):
        AdmmConfig(rho_fair=(1.0, -2.0))


def test_papr_project_bound_arithmetic():
    # kappa = 1.2, P = 1, M_t = 8, L = 25 -> per-element cap 0.006.
    bound = 1.2 * 1.0 / (8 * 25)
    assert abs(bound - 0.006) < 1e-15
    phase = np.exp(0.7j)
    small = np.array([[0.05 * phase]])
    assert np.array_equal(papr_project(small, bound), small)
    big = np.array([[0.2 * phase]])
    proj = papr_project(big, bound)
    assert abs(abs(proj[0, 0]) - np.sqrt(0.006)) < 1e-12
    assert abs(np.angle(proj[0, 0]) - 0.7) < 1e-12


def test_papr_project_zero_and_idempotent():
    z = np.zeros((3, 4), dtype=complex)
    assert np.array_equal(papr_project(z, 0.1), z)
    rng = np.random.default_rng(0)
    w = 0.3 * (rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9)))
    once = papr_project(w, 0.02)
    twice = papr_project(once, 0.02)
    assert np.array_equal(once, twice)
    assert np.all(np.abs(once) <= np.abs(w) * (1 + 1e-15))


def test_papr_project_beats_disc_sampling():
    rng = np.random.default_rng(1)
    bound = 0.05
    w = 0.6 * (rng.normal(size=2000) + 1j * rng.normal(size=2000))
    proj = papr_project(w.reshape(-1, 1), bound).ravel()
    # Uniform samples over the disc, plus boundary points.
    r = np.sqrt(bound) * np.sqrt(rng.random(10000))
    phi = rng.uniform(0, 2 * np.pi, 10000)
    samples = r * np.exp(1j * phi)
    samples[:2000] = np.sqrt(bound) * np.exp(1j * phi[:2000])
    best = np.min(np.abs(w[:, None] - samples[None, :]), axis=1)
    assert np.all(best >= np.abs(w - proj) - 1e-12)


def test_quad_x_update_isotropic_curvature_rescales():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
    x = quad_x_update(q, 2.5 * np.eye(4), power=3.0)
    expected = q * np.sqrt(3.0) / np.linalg.norm(q)
    assert np.max(np.abs(x - expected)) < 1e-9


def test_quad_x_update_kkt_residual():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pmat = random_hermitian(rng, n)
        q = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
        power = float(rng.uniform(0.5, 4.0))
        sig, g = np.linalg.eigh(pmat)
        x, mu, _ = _x_update_eig(g, sig, q, power, 1e-12)
        assert abs(np.sum(np.abs(x) ** 2) - power) <= 1e-10 * power
        resid = np.linalg.norm((pmat + 2 * mu * np.eye(n)) @ x - q)
        assert resid <= 1e-8 * np.linalg.norm(q)
        assert np.all(sig + 2 * mu >= -1e-12 * max(1.0, abs(mu)))


def test_quad_x_update_matches_multiplier_grid_search():
    # Dense (1e5-point) sweep of the power curve over the bracket: no grid
    # multiplier may hit the power budget better than the returned root,
    # and the root's own power must be exact to well under 1e-6.
    rng = np.random.default_rng(5)
    pmat = random_hermitian(rng, 2)
    q = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    power = 1.7
    sig, g = np.linalg.eigh(pmat)
    x, mu, _ = _x_update_eig(g, sig, q, power, 1e-14)
    gq = g.conj().T @ q
    psi = np.sum(np.abs(gq) ** 2, axis=1)
    mus = np.linspace(mu - 0.5 * abs(mu) - 1.0, mu + 0.5 * abs(mu) + 1.0, 100000)
    mus = mus[sig.min() + 2 * mus > 0]
    powers = np.sum(psi[:, None] / (sig[:, None] + 2 * mus[None, :]) ** 2, axis=0)
    best_gap = np.min(np.abs(powers - power))
    own_gap = abs(np.sum(psi / (sig + 2 * mu) ** 2) - power)
    assert own_gap <= best_gap + 1e-12
    assert abs(np.sum(np.abs(x) ** 2) - power) <= 1e-6


def test_multiplier_curve_is_decreasing():
    rng = np.random.default_rng(6)
    pmat = random_hermitian(rng, 5)
    q = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    sig, g = np.linalg.eigh(pmat)
    psi = np.sum(np.abs(g.conj().T @ q) ** 2, axis=1)
    lo = -sig.min() / 2
    mus = lo + np.geomspace(1e-6, 1e3, 60)
    vals = [np.sum(psi / (sig + 2 * m) ** 2) for m in mus]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    root, _ = _solve_multiplier(psi, sig, 1.0, 1e-12)
    assert abs(np.sum(psi / (sig + 2 * root) ** 2) - 1.0) <= 1e-10


def test_quad_x_update_rejects_bad_inputs():
    with pytest.raises(ValueError):
        quad_x_update(np.zeros((3, 4)), np.eye(3), 1.0)  # zero target
    rng = np.random.default_rng(7)
    q = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    skew = np.array([[0.0, 1.0, 0], [-1.0, 0, 0], [0, 0, 1.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        quad_x_update(q, skew, 1.0)
    with pytest.raises(ValueError):
        quad_x_update(q, np.eye(3), -1.0)


def test_quad_x_update_hard_case():
    # Target orthogonal to the smallest eigenspace with a power budget the
    # interior curve cannot reach: the update must pad along the null
    # direction and stay exactly stationary.
    sig = np.array([1.0, 4.0])
    g = np.eye(2, dtype=complex)
    q = np.zeros((2, 3), dtype=complex)
    q[1, 0] = 1.0  # lives on the large-eigenvalue axis only
    power = 10.0
    x, mu, _ = _x_update_eig(g, sig, q, power, 1e-12)
    assert abs(np.sum(np.abs(x) ** 2) - power) <= 1e-10 * power
    pmat = np.diag(sig).astype(complex)
    resid = np.linalg.norm((pmat + 2 * mu * np.eye(2)) @ x - q)
    assert resid <= 1e-10
    assert abs(mu - (-0.5)) <= 1e-12  # boundary multiplier -sig_min/2
