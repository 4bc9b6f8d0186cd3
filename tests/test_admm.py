import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import x_update
from priorwave import baseline_crb, solve_pcrb, solve_psbp_fair, solve_psbp_integrated
from priorwave.admm import (
    _CAP_SLACK,
    _cap_elements,
    _project_feasible,
    _solve_multiplier,
)


def random_hermitian(rng, n, shift=0.0):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (h + h.conj().T) + shift * np.eye(n)


def test_admm_config_validation(dist12, mom12, cfg12, grid361):
    # The iteration cap is the only solver setting; the loop checks it
    # before its first iteration, for every design.
    for solve in (lambda **kw: solve_pcrb(mom12, cfg12, 1, **kw),
                  lambda **kw: solve_psbp_fair(dist12, cfg12, grid361, 1, **kw),
                  lambda **kw: solve_psbp_integrated(mom12, cfg12, 1, **kw),
                  lambda **kw: baseline_crb(0.0, cfg12, 1, **kw)):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="max_iters must be at least 1"):
                solve(max_iters=cap)


def capped_copy(w, bound):
    """The loop's element cap on a complex copy of ``w``."""
    return _cap_elements(np.array(w, dtype=complex), bound)


def test_papr_project_bound_arithmetic():
    # kappa = 1.2, P = 1, M_t = 8, L = 25 -> per-element cap 0.006.
    bound = 1.2 * 1.0 / (8 * 25)
    assert abs(bound - 0.006) < 1e-15
    phase = np.exp(0.7j)
    small = np.array([[0.05 * phase]])
    assert np.array_equal(capped_copy(small, bound), small)
    big = np.array([[0.2 * phase]])
    proj = capped_copy(big, bound)
    assert abs(abs(proj[0, 0]) - np.sqrt(0.006)) < 1e-12
    assert abs(np.angle(proj[0, 0]) - 0.7) < 1e-12


def test_papr_project_zero_and_idempotent():
    z = np.zeros((3, 4), dtype=complex)
    assert np.array_equal(capped_copy(z, 0.1), z)
    rng = np.random.default_rng(0)
    w = 0.3 * (rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9)))
    once = capped_copy(w, 0.02)
    twice = capped_copy(once, 0.02)
    assert np.array_equal(once, twice)
    assert np.all(np.abs(once) <= np.abs(w) * (1 + 1e-15))


def test_papr_project_beats_disc_sampling():
    rng = np.random.default_rng(1)
    bound = 0.05
    w = 0.6 * (rng.normal(size=2000) + 1j * rng.normal(size=2000))
    proj = capped_copy(w, bound)
    # Uniform samples over the disc, plus boundary points.
    r = np.sqrt(bound) * np.sqrt(rng.random(10000))
    phi = rng.uniform(0, 2 * np.pi, 10000)
    samples = r * np.exp(1j * phi)
    samples[:2000] = np.sqrt(bound) * np.exp(1j * phi[:2000])
    best = np.min(np.abs(w[:, None] - samples[None, :]), axis=1)
    assert np.all(best >= np.abs(w - proj) - 1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8), cols=st.integers(1, 30),
       log_bound=st.floats(-6.0, 2.0), near=st.booleans())
def test_papr_project_properties(seed, rows, cols, log_bound, near):
    # Idempotent, non-expansive (the disc is convex), and in place: the
    # cap returns its argument and leaves entries within it untouched.
    # ``near`` puts every magnitude within a few ulps of the cap, where the
    # projection's slack decides.
    rng = np.random.default_rng(seed)
    bound = 10.0**log_bound
    radius = np.sqrt(bound)
    shape = (2, rows, cols)
    if near:
        mags = radius * (1.0 + rng.integers(-16, 17, size=shape) * np.finfo(float).eps)
    else:
        mags = radius * 10.0 ** rng.uniform(-2.0, 2.0, size=shape)
    a, b = mags * np.exp(2j * np.pi * rng.random(size=shape))
    pa, pb = capped_copy(a, bound), capped_copy(b, bound)
    assert np.array_equal(capped_copy(pa, bound), pa)
    slack = 8.0 * np.finfo(float).eps * radius
    assert np.all(np.abs(pa - pb) <= np.abs(a - b) * (1.0 + 1e-12) + slack)
    w = a.copy()
    assert _cap_elements(w, bound) is w
    inside = np.abs(a) ** 2 <= bound
    assert np.array_equal(pa[inside], a[inside])


def alternating_cap_and_rescale(x, power, bound, rounds=200, slack=1e-12):
    """Reference: alternate the element cap and the exact power rescale.

    Returns the waveform, or None if it is not within ``slack`` of the cap
    after ``rounds`` rounds.
    """
    for _ in range(rounds):
        x = capped_copy(x, bound)
        x = x * np.sqrt(power / float(np.sum(np.abs(x) ** 2)))
        if float(np.max(np.abs(x) ** 2)) <= bound * (1.0 + slack):
            return x
    return None


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8), cols=st.integers(1, 30),
       kappa=st.sampled_from([1.0, 1.0001, 1.05, 1.2, 1.5, 2.0, 8.0]),
       log_power=st.floats(-3.0, 3.0), spread=st.floats(0.0, 2.0))
def test_project_feasible_properties(seed, rows, cols, kappa, log_power, spread):
    # Inputs lie on the power sphere, as the ADMM iterates do; ``spread``
    # 0 gives constant modulus, so at kappa = 1 every entry meets the cap
    # and only rounding decides the breakpoint.
    rng = np.random.default_rng(seed)
    power = 10.0**log_power
    n = rows * cols
    bound = kappa * power / n
    mags = 10.0 ** rng.uniform(-spread / 2, spread / 2, size=(rows, cols))
    x = mags * np.exp(2j * np.pi * rng.random(size=(rows, cols)))
    x *= np.sqrt(power / np.vdot(x, x).real)
    p = _project_feasible(x, power, bound)
    assert abs(np.vdot(p, p).real - power) <= 1e-12 * power
    assert np.max(np.abs(p) ** 2) <= bound * _CAP_SLACK
    assert np.max(np.abs(np.angle(p / x))) <= 1e-12
    assert np.max(np.abs(_project_feasible(p, power, bound) - p)) <= 1e-12 * np.sqrt(bound)
    ref = alternating_cap_and_rescale(x, power, bound)
    if ref is not None:
        assert np.max(np.abs(p - ref)) <= 1e-9 * np.sqrt(bound)


def test_project_feasible_leaves_zero_entries_finite():
    # Zero entries have no phase. They stay zero while the nonzero entries
    # can carry the power; when those, all capped, cannot, the power left
    # over is spread evenly over the zero entries.
    x = np.array([0.3 + 0.4j, 0.0, -1.0, 0.0])
    p = _project_feasible(x, 1.0, 0.6)
    assert np.allclose(np.abs(p) ** 2, [0.4, 0.0, 0.6, 0.0], rtol=0, atol=1e-15)
    assert np.allclose(p[[0, 2]] / np.abs(p[[0, 2]]), x[[0, 2]] / np.abs(x[[0, 2]]))
    p = _project_feasible(x, 1.0, 0.3)
    assert np.allclose(np.abs(p) ** 2, [0.3, 0.2, 0.3, 0.2], rtol=0, atol=1e-15)
    assert np.all(np.abs(p) ** 2 <= 0.3 * _CAP_SLACK)
    assert np.array_equal(_project_feasible(np.zeros(3, complex), 3.0, 1.5), np.ones(3))


def test_quad_x_update_isotropic_curvature_rescales():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(4, 7)) + 1j * rng.normal(size=(4, 7))
    x, _ = x_update(q, 2.5 * np.eye(4), power=3.0)
    expected = q * np.sqrt(3.0) / np.linalg.norm(q)
    assert np.max(np.abs(x - expected)) < 1e-9


def test_quad_x_update_kkt_residual():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pmat = random_hermitian(rng, n)
        q = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
        power = float(rng.uniform(0.5, 4.0))
        sig = np.linalg.eigvalsh(pmat)
        x, mu = x_update(q, pmat, power)
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
    x, mu = x_update(q, pmat, power)
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
    root, _, _ = _solve_multiplier(psi, sig, 1.0, 1e-12)
    assert abs(np.sum(psi / (sig + 2 * root) ** 2) - 1.0) <= 1e-10


def test_quad_x_update_rejects_bad_inputs():
    with pytest.raises(ValueError):
        x_update(np.zeros((3, 4)), np.eye(3), 1.0)  # zero target
    rng = np.random.default_rng(7)
    q = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    skew = np.array([[0.0, 1.0, 0], [-1.0, 0, 0], [0, 0, 1.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        x_update(q, skew, 1.0)
    with pytest.raises(ValueError):
        x_update(q, np.eye(3), -1.0)


def test_quad_x_update_hard_case():
    # Target orthogonal to the smallest eigenspace with a power budget the
    # interior curve cannot reach: the update must pad along the null
    # direction and stay exactly stationary.
    sig = np.array([1.0, 4.0])
    pmat = np.diag(sig).astype(complex)
    q = np.zeros((2, 3), dtype=complex)
    q[1, 0] = 1.0  # lives on the large-eigenvalue axis only
    power = 10.0
    x, mu = x_update(q, pmat, power)
    assert abs(np.sum(np.abs(x) ** 2) - power) <= 1e-10 * power
    resid = np.linalg.norm((pmat + 2 * mu * np.eye(2)) @ x - q)
    assert resid <= 1e-10
    assert abs(mu - (-0.5)) <= 1e-12  # boundary multiplier -sig_min/2


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def secular_case(seed, n, near_hard, frac):
    # Spectra in [-10, 10] with psi in [1e-2, 10] keep the root far enough
    # from the pole for 1e-12 to be reachable in double precision. The
    # near-hard case puts 1e-20 on the bottom eigenvector, so Newton starts
    # next to the pole, with a budget the other terms reach before it.
    rng = np.random.default_rng(seed)
    sig = np.sort(rng.uniform(-10.0, 10.0, n))
    psi = rng.uniform(1e-2, 10.0, n)
    power = float(10 ** rng.uniform(-2.0, 1.0))
    if near_hard and n > 1:
        sig[1:] = np.maximum(sig[1:], sig[0] + 0.1)
        psi[0] = 1e-20
        power = frac * float(np.sum(psi[1:] / (sig[1:] - sig[0]) ** 2))
    return psi, sig, power


SECULAR_CASES = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
                     near_hard=st.booleans(), frac=st.floats(0.02, 0.98))


@settings(max_examples=200, deadline=None)
@given(**SECULAR_CASES)
def test_multiplier_root_meets_power_tolerance(seed, n, near_hard, frac):
    psi, sig, power = secular_case(seed, n, near_hard, frac)
    mu, evals, met = _solve_multiplier(psi, sig, power, 1e-12)
    assert met and np.all(sig + 2.0 * mu > 0)
    assert abs(np.sum(psi / (sig + 2.0 * mu) ** 2) - power) <= 1e-12 * power
    assert evals <= 60


@settings(max_examples=200, deadline=None)
@given(t=st.floats(0.01, 0.99), **SECULAR_CASES)
def test_warm_started_root_meets_power_tolerance(seed, n, near_hard, frac, t):
    # Any start gives a root as good as the cold start's. Outside the open
    # bracket (below the pole, at either end, above it) the start is
    # ignored; inside, Newton reaches the root from either side.
    psi, sig, power = secular_case(seed, n, near_hard, frac)
    cold = _solve_multiplier(psi, sig, power, 1e-12)
    root = cold[0]
    pole = -0.5 * sig.min()
    lo = 0.5 * max(float(np.max(np.sqrt(psi / power) - sig)), -sig.min())
    hi = 0.5 * (math.sqrt(math.fsum(psi) / power) - sig.min())
    for start in (pole - 1.0, pole, lo, hi, hi + 1.0, 10.0 * abs(hi) + 1e3):
        assert _solve_multiplier(psi, sig, power, 1e-12, start) == cold, start
    for start in (lo + t * (root - lo), root, root + t * (hi - root)):
        mu, evals, met = _solve_multiplier(psi, sig, power, 1e-12, start)
        assert met and np.all(sig + 2.0 * mu > 0), start
        assert abs(np.sum(psi / (sig + 2.0 * mu) ** 2) - power) <= 1e-12 * power, start
        assert evals <= 60


def test_multiplier_root_next_to_the_pole_returns_best_float():
    # The root sits 4e-4 above the pole at mu ~ 10: one ulp of mu moves the
    # power sum by ~1e-11 relative, so 1e-12 is out of reach. The solver
    # must stop on its collapsed bracket with the best float, not spin.
    sig = np.array([-20.45052649, 3.67480336, 22.7524233])
    psi = np.array([1.32064696e-06, 1.98978820e02, 7.58251907e01])
    power = 7.775162494687686

    def gap(mu):
        return abs(np.sum(psi / (sig + 2.0 * mu) ** 2) - power)

    mu, evals, met = _solve_multiplier(psi, sig, power, 1e-12)
    assert evals <= 30 and not met
    assert np.all(sig + 2.0 * mu > 0)
    assert gap(mu) > 1e-12 * power
    assert gap(mu) <= min(gap(np.nextafter(mu, -np.inf)), gap(np.nextafter(mu, np.inf)))


def test_multiplier_root_needs_a_representable_pole_gap():
    # psi so small that the root lies closer to the pole than one ulp of mu:
    # no float multiplier keeps the shifted curvature positive definite.
    with pytest.raises(RuntimeError, match="multiplier root"):
        _solve_multiplier(np.array([1e-40]), np.array([200.0]), 3.0, 1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), hard=st.booleans())
def test_quad_x_update_kkt_property(seed, n, hard):
    # Random Hermitian curvature; the hard case removes the target's
    # component on the bottom eigenvector and asks for more power than the
    # interior curve reaches. The multiplier is recovered from x alone.
    rng = np.random.default_rng(seed)
    g = random_unitary(rng, n)
    sig = np.sort(rng.uniform(-5.0, 5.0, n))
    sig[1:] = np.maximum(sig[1:], sig[0] + 0.1)
    pmat = (g * sig) @ g.conj().T
    pmat = 0.5 * (pmat + pmat.conj().T)
    gq = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    power = float(rng.uniform(0.5, 4.0))
    if hard:
        gq[0] = 0.0
        psi = np.sum(np.abs(gq) ** 2, axis=1)
        power = float(np.sum(psi[1:] / (sig[1:] - sig[0]) ** 2)) * rng.uniform(1.5, 4.0)
    q = g @ gq
    x, _ = x_update(q, pmat, power)
    assert abs(np.sum(np.abs(x) ** 2) - power) <= 1e-10 * power
    grad = q - pmat @ x
    mu = 0.5 * np.vdot(x, grad).real / power
    assert np.linalg.norm(2.0 * mu * x - grad) <= 1e-8 * (np.linalg.norm(q) + 1.0)
    assert sig[0] + 2.0 * mu >= -1e-9 * max(1.0, abs(mu))
    if hard:
        assert abs(mu + 0.5 * sig[0]) <= 1e-9 * max(1.0, abs(sig[0]))
