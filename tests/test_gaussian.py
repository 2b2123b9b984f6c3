import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbm_structures.errors import ConditioningError, DomainError
from qbm_structures.gaussian import (
    DET_FLOOR,
    UNCERTAINTY_TOL,
    CatState,
    GaussianState,
    _check_uncertainty,
    _purity_from_cov,
    cat_state,
    coherent_state,
    condition_on_coherent,
    decoherence_factor,
    embed_symplectic,
    evolve,
    log_negativity,
    product_state,
    propagator,
    purify,
    purity,
    reduce,
    symplectic_eigenvalues,
    thermal_state,
    williamson,
)
from qbm_structures.model import ModelParams, QuadraticHamiltonian, build_qbm_hamiltonian, symplectic_form
from helpers import dense_uncertainty_min, expm_flow, is_pure, random_model, williamson_purify


def tms_covariance(r):
    """Two-mode squeezed vacuum covariance in (x1, x2, p1, p2) ordering."""
    c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    return np.array(
        [[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, -s, c]]
    )


def random_symplectic(n, rng, t=0.8):
    K = rng.standard_normal((2 * n, 2 * n))
    return expm_flow(QuadraticHamiltonian(n, (K + K.T) / 2), t)


def random_mixed_state(n, rng):
    nus = rng.uniform(0.5, 3.0, size=n)
    S = random_symplectic(n, rng)
    cov = S @ np.diag(np.concatenate([nus, nus])) @ S.T
    return GaussianState(rng.standard_normal(2 * n), (cov + cov.T) / 2), np.sort(nus)


# ---------------------------------------------------------------------------
# constructors


def test_vacuum_coherent_state():
    st = coherent_state(1, 0, 0.0, 0.0)
    assert np.array_equal(st.mean, np.zeros(2))
    assert np.array_equal(st.cov, 0.5 * np.eye(2))
    assert purity(st) == pytest.approx(1.0)


def test_coherent_state_minimum_uncertainty():
    st = coherent_state(3, 1, 1.2, -0.4, width_mass=2.0, width_freq=0.7)
    assert st.mean[1] == 1.2 and st.mean[4] == -0.4
    assert st.cov[1, 1] * st.cov[4, 4] == pytest.approx(0.25)
    assert purity(st) == pytest.approx(1.0)


def test_coherent_state_invalid_mode():
    with pytest.raises(DomainError):
        coherent_state(2, 2, 0.0, 0.0)


def test_thermal_state_zero_temperature_is_vacuum():
    st = thermal_state([(2.0, 0.5), (1.0, 1.5)], temperature=0.0)
    assert st.cov[0, 0] == pytest.approx(1.0 / (2 * 2.0 * 0.5))
    assert st.cov[2, 2] == pytest.approx(2.0 * 0.5 / 2)
    assert purity(st) == pytest.approx(1.0)


def test_thermal_state_equipartition():
    st = thermal_state([(1.0, 1.0)], temperature=100.0)
    assert st.cov[0, 0] == pytest.approx(100.0, rel=0.01)


def test_thermal_state_purity_closed_form():
    for T in (0.3, 0.5, 2.0):
        st = thermal_state([(1.3, 0.9)], temperature=T)
        assert purity(st) == pytest.approx(np.tanh(0.9 / (2 * T)), rel=1e-12)


def test_thermal_state_rejects_negative_temperature():
    with pytest.raises(DomainError):
        thermal_state([(1.0, 1.0)], temperature=-0.1)


def test_uncertainty_violation_rejected():
    with pytest.raises(DomainError):
        GaussianState(np.zeros(2), 0.1 * np.eye(2))


@pytest.mark.parametrize(
    "mean, cov",
    [
        (np.zeros(2), np.full((2, 2), np.nan)),
        (np.zeros(2), np.diag([np.inf, 0.5])),
        (np.array([np.nan, 0.0]), 0.5 * np.eye(2)),
        (np.array([0.0, -np.inf]), 0.5 * np.eye(2)),
    ],
)
def test_non_finite_moments_rejected(mean, cov):
    with pytest.raises(DomainError, match="finite"):
        GaussianState(mean, cov)


# ---------------------------------------------------------------------------
# purity, spectra, purification


def test_purity_product_rule():
    a = thermal_state([(1.0, 1.0)], 0.7)
    b = thermal_state([(1.0, 2.0)], 1.3)
    assert purity(product_state(a, b)) == pytest.approx(purity(a) * purity(b), rel=1e-12)


def test_purity_conditioning_guard():
    with pytest.raises(ConditioningError):
        _purity_from_cov(np.diag([1e-200, 1e-200]))
    for cov in (np.ones((2, 2)), np.array([[2.0, 3.0], [3.0, 2.0]])):  # det 0 and det < 0, as slogdet's sign says
        with pytest.raises(ConditioningError):
            _slogdet_purity(cov)
        with pytest.raises(ConditioningError):
            _purity_from_cov(cov)
    with pytest.raises(ConditioningError):  # slogdet returns nan here; the closed form checks det >= DET_FLOOR
        _purity_from_cov(np.array([[np.nan, 0.0], [0.0, 0.5]]))


def _slogdet_purity(cov):
    """The one-mode purity as the general route takes it: one slogdet."""
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or logdet < np.log(DET_FLOOR):
        raise ConditioningError("covariance is numerically degenerate")
    return float(np.exp(-np.log(2.0) - 0.5 * logdet))


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-140.0, 140.0),
    st.floats(-140.0, 140.0),
    st.one_of(st.floats(-0.999999, 0.999999), st.sampled_from([-1.5, 0.0, 1.5])),
)
def test_one_mode_purity_equals_the_slogdet_route(log_a, log_d, rho):
    # [[a, b], [b, d]] with b = rho sqrt(a d): det = a d (1 - rho^2), negative for |rho| > 1
    a, d = 10.0**log_a, 10.0**log_d
    cov = np.array([[a, rho * math.sqrt(a * d)], [rho * math.sqrt(a * d), d]])
    det = a * d * (1.0 - rho * rho)
    assume(not 1e-301 < det < 1e-299)  # both routes compare det with DET_FLOOR, each with its own rounding
    try:
        expected = _slogdet_purity(cov)
    except ConditioningError:
        with pytest.raises(ConditioningError):
            _purity_from_cov(cov)
        return
    # relative to 1e-14 times what each route's rounding scales with: a d - b^2 and the LU's pivots with the
    # cancellation (a d + b^2) / det, and slogdet's sum of the pivots' logs with their sizes, |ln a| + |ln d| + |ln det|
    got = _purity_from_cov(cov)
    logs = abs(math.log(a)) + abs(math.log(d)) + abs(math.log(det))
    assert abs(got - expected) <= 1e-14 * expected * ((a * d + cov[0, 1] ** 2) / det + logs)
    assert np.array_equal(_purity_from_cov(np.array([cov, 0.5 * np.eye(2)])), [got, 1.0])


def test_williamson_reconstructs_and_is_symplectic():
    rng = np.random.default_rng(5)
    om = symplectic_form(3)
    for _ in range(10):
        state, nus_in = random_mixed_state(3, rng)
        S, nus = williamson(state.cov)
        assert nus == pytest.approx(nus_in, rel=1e-9)
        D = np.diag(np.concatenate([nus, nus]))
        assert np.max(np.abs(S @ D @ S.T - state.cov)) < 1e-10
        assert np.max(np.abs(S @ om @ S.T - om)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_williamson_on_repeated_symplectic_eigenvalues(n):
    # the eigh route keeps a repeated nu's eigenvectors orthogonal to each other and to their conjugates
    rng = np.random.default_rng(50 + n)
    om = symplectic_form(n)
    for _ in range(50):
        nus_in = np.sort(rng.choice(rng.uniform(0.5, 3.0, size=max(1, n // 2)), size=n))
        S_in = random_symplectic(n, rng, t=0.5)
        cov = S_in @ np.diag(np.r_[nus_in, nus_in]) @ S_in.T
        S, nus = williamson((cov + cov.T) / 2)
        assert np.max(np.abs(nus - nus_in) / nus_in) <= 1e-12
        assert np.max(np.abs(S @ np.diag(np.r_[nus, nus]) @ S.T - cov)) <= 1e-12 * np.max(np.abs(cov))
        assert np.max(np.abs(S @ om @ S.T - om)) <= 1e-12 * np.max(np.abs(S)) ** 2


def test_purify_vacuum_needs_no_squeezing():
    pure = purify(coherent_state(1, 0, 0.0, 0.0))
    assert np.array_equal(pure.cov, 0.5 * np.eye(4))


def test_purify_needs_a_diagonal_covariance():
    state, _ = random_mixed_state(2, np.random.default_rng(6))
    with pytest.raises(DomainError, match="diagonal"):
        purify(state)


def test_purify_reduces_back():
    rng = np.random.default_rng(6)
    state, _ = random_mixed_state(2, rng)
    pure = williamson_purify(state)
    assert pure.n_modes == 4
    red = reduce(pure, [0, 1])
    assert np.max(np.abs(red.cov - state.cov)) < 1e-10
    assert np.max(np.abs(red.mean - state.mean)) < 1e-12
    assert purity(pure) == pytest.approx(1.0, abs=1e-8)


@st.composite
def diagonal_states(draw):
    """A coherent particle packet times a thermal bath (the vacuum at T = 0)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_bath = draw(st.integers(1, 6))
    temperature = draw(st.sampled_from([0.0, 0.3, 2.0, 20.0]))
    particle = coherent_state(1, 0, *rng.uniform(-3.0, 3.0, 2), *rng.uniform(0.3, 3.0, 2))
    return product_state(particle, thermal_state(rng.uniform(0.3, 3.0, (n_bath, 2)), temperature))


@settings(max_examples=40, deadline=None)
@given(diagonal_states())
def test_purify_diagonal_input_in_closed_form(state):
    n = state.n_modes
    pure = purify(state)
    assert np.max(np.abs(symplectic_eigenvalues(pure.cov) - 0.5)) <= 1e-10
    red = reduce(pure, range(n))
    assert np.max(np.abs(red.cov - state.cov)) <= 1e-12
    assert np.max(np.abs(red.mean - state.mean)) <= 1e-12


def test_purify_thermal():
    th = thermal_state([(1.0, 1.0), (1.0, 2.0)], temperature=1.0)
    pure = purify(th)
    assert is_pure(pure)
    red = reduce(pure, [0, 1])
    assert np.max(np.abs(red.cov - th.cov)) < 1e-10


# ---------------------------------------------------------------------------
# dynamics


def decoupled_hamiltonian():
    """Three decoupled modes, one per branch of the closed form: ab > 0, ab = 0 and ab < 0."""
    return QuadraticHamiltonian(3, np.diag([1.3, 0.0, -0.7, 0.8, 1.2, 0.5]))


def test_propagator_zero_time_identity():
    assert np.array_equal(propagator(decoupled_hamiltonian(), 0.0), np.eye(6))


def test_propagator_free_particle():
    K = np.array([[0.0, 0.0], [0.0, 0.5]])  # mass 2
    H = QuadraticHamiltonian(1, K)
    S = propagator(H, 3.0)
    assert np.allclose(S, [[1.0, 1.5], [0.0, 1.0]])


def test_propagator_harmonic_quarter_period():
    K = np.eye(2)
    S = propagator(QuadraticHamiltonian(1, K), np.pi / 2)
    assert np.allclose(S, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_propagator_group_property_and_symplecticity():
    H = decoupled_hamiltonian()
    om = symplectic_form(H.n_modes)
    t1, t2 = 0.7, 1.9
    S1, S2, S12 = propagator(H, t1), propagator(H, t2), propagator(H, t1 + t2)
    assert np.max(np.abs(S2 @ S1 - S12)) < 1e-8
    for S in (S1, S2, S12):
        assert np.max(np.abs(S @ om @ S.T - om)) < 1e-10


def test_propagator_rejects_a_coupled_generator():
    H = build_qbm_hamiltonian(random_model(np.random.default_rng(7), n_bath=2))
    with pytest.raises(DomainError, match="propagator needs a decoupled K"):
        propagator(H, 1.0)


def test_evolve_preserves_purity_and_uncertainty():
    rng = np.random.default_rng(10)
    state, _ = random_mixed_state(3, rng)
    S = random_symplectic(3, rng)
    out = evolve(state, S)  # constructor re-checks the uncertainty relation
    assert purity(out) == pytest.approx(purity(state), rel=1e-10)


def test_evolve_dimension_mismatch():
    with pytest.raises(DomainError):
        evolve(coherent_state(1, 0, 0.0, 0.0), np.eye(4))


def test_reduce_of_product_is_factor():
    a = coherent_state(1, 0, 1.0, 2.0)
    b = thermal_state([(1.0, 1.0)], 1.0)
    both = product_state(a, b)
    ra = reduce(both, [0])
    assert np.array_equal(ra.mean, a.mean) and np.array_equal(ra.cov, a.cov)
    assert np.array_equal(reduce(both, [0, 1]).cov, both.cov)


def test_reduce_two_mode_squeezed_closed_form():
    r = 0.4
    tms = GaussianState(np.zeros(4), tms_covariance(r))
    red = reduce(tms, [0])
    assert red.cov[0, 0] == pytest.approx(np.cosh(2 * r) / 2, rel=1e-12)
    assert purity(red) == pytest.approx(1.0 / np.cosh(2 * r), rel=1e-12)


def test_reduce_invalid_modes():
    st = coherent_state(2, 0, 0.0, 0.0)
    with pytest.raises(DomainError):
        reduce(st, [])
    with pytest.raises(DomainError):
        reduce(st, [5])


def test_schmidt_symmetry_of_pure_reductions():
    rng = np.random.default_rng(11)
    cov = 0.5 * np.eye(8)
    S = random_symplectic(4, rng)
    pure = GaussianState(np.zeros(8), S @ cov @ S.T)
    pa = purity(reduce(pure, [0, 2]))
    pb = purity(reduce(pure, [1, 3]))
    assert pa == pytest.approx(pb, rel=1e-8)


# ---------------------------------------------------------------------------
# entanglement


def test_log_negativity_product_exactly_zero():
    a = thermal_state([(1.0, 1.0)], 0.9)
    b = coherent_state(1, 0, 1.0, 0.0)
    assert log_negativity(product_state(a, b), [0]) == 0.0


def test_log_negativity_two_mode_squeezed_closed_form():
    for r in (0.1, 0.3, 0.8):
        tms = GaussianState(np.zeros(4), tms_covariance(r))
        assert log_negativity(tms, [0]) == pytest.approx(2 * r / np.log(2), rel=1e-10)


def test_log_negativity_local_symplectic_invariance():
    rng = np.random.default_rng(13)
    tms = GaussianState(np.zeros(4), tms_covariance(0.5))
    Sa = random_symplectic(1, rng)
    Sb = random_symplectic(1, rng)
    local = embed_symplectic(Sa, 2, [0]) @ embed_symplectic(Sb, 2, [1])
    before = log_negativity(tms, [0])
    after = log_negativity(evolve(tms, local), [0])
    assert after == pytest.approx(before, abs=1e-8)


def test_log_negativity_invalid_partition():
    st = coherent_state(2, 0, 0.0, 0.0)
    with pytest.raises(DomainError):
        log_negativity(st, [])
    with pytest.raises(DomainError):
        log_negativity(st, [0, 1])


# ---------------------------------------------------------------------------
# cat states and decoherence


def build_cat(delta_x=2.0, n_env=1, temperature=0.0, purified=False):
    particle = coherent_state(1, 0, delta_x, 0.0)
    bath = thermal_state([(1.0, 1.3)] * n_env, temperature)
    if purified:
        bath = purify(bath)
    base = product_state(particle, bath)
    mu1 = base.mean.copy()
    mu2 = mu1.copy()
    mu2[0] = -delta_x
    return cat_state([1 / np.sqrt(2), 1 / np.sqrt(2)], [mu1, mu2], base.cov)


def test_cat_state_normalization():
    cat = build_cat()
    assert cat.norm() == pytest.approx(1.0, abs=1e-12)
    amp = abs(cat.branches[0][0])
    # overlap of the branches is positive, so amplitudes shrink below 1/sqrt(2)
    assert amp < 1 / np.sqrt(2)


def test_cat_state_rejects_zero_norm():
    # equal and opposite weights on one mean cancel: the cat has norm 0
    mu = coherent_state(1, 0, 1.0, 0.0).mean
    with pytest.raises(DomainError, match="degenerate"):
        cat_state([1.0, -1.0], [mu, mu], 0.5 * np.eye(2))


def test_cat_state_requires_two_branches():
    with pytest.raises(DomainError):
        CatState(((1.0, np.zeros(2)),), 0.5 * np.eye(2))


def test_cat_state_requires_pure_covariance():
    th = thermal_state([(1.0, 1.0)], 1.0)
    with pytest.raises(DomainError):
        cat_state([1.0, 1.0], [np.zeros(2), np.ones(2)], th.cov)


def test_cat_norm_preserved_under_evolution():
    cat = build_cat()
    params = random_model(np.random.default_rng(14), n_bath=1, potential="harmonic")
    H = build_qbm_hamiltonian(params)
    for t in (0.5, 2.0):
        assert evolve(cat, expm_flow(H, t)).norm() == pytest.approx(1.0, abs=1e-10)


def test_decoherence_factor_product_start_is_one():
    cat = build_cat()
    assert decoherence_factor(cat, [1]) == pytest.approx(1.0, abs=1e-12)


def test_decoherence_factor_no_coupling_stays_one():
    params = ModelParams(m1=1.0, bath=((1.0, 1.3, 0.0),), potential="harmonic", omega=1.0)
    H = build_qbm_hamiltonian(params)
    cat = build_cat()
    for t in (0.7, 2.5, 6.0):
        assert decoherence_factor(evolve(cat, propagator(H, t)), [1]) == pytest.approx(1.0, abs=1e-12)


def test_decoherence_factor_branch_count_guard():
    base = product_state(coherent_state(1, 0, 1.0, 0.0), coherent_state(1, 0, 0.0, 0.0))
    means = [base.mean.copy() for _ in range(3)]
    means[1][0] = -1.0
    means[2][0] = 0.0
    cat3 = cat_state([1.0, 1.0, 1.0], means, base.cov)
    with pytest.raises(DomainError):
        decoherence_factor(cat3, [1])


def test_decoherence_factor_purified_thermal_bath():
    cat = build_cat(temperature=1.5, purified=True)
    assert decoherence_factor(cat, [1, 2]) == pytest.approx(1.0, abs=1e-10)
    params_coupled = ModelParams(m1=1.0, bath=((1.0, 1.3, 0.25),), potential="harmonic", omega=1.0)
    H = build_qbm_hamiltonian(params_coupled)
    S = embed_symplectic(expm_flow(H, 2.0), 3, [0, 1])
    r = decoherence_factor(evolve(cat, S), [1, 2])
    assert 0.0 <= r < 1.0


def test_condition_on_coherent_posterior_pure_and_mean_preserving():
    rng = np.random.default_rng(15)
    S = random_symplectic(3, rng)
    pure = GaussianState(rng.standard_normal(6), S @ (0.5 * np.eye(6)) @ S.T)
    post = condition_on_coherent(pure, 0)
    assert post.n_modes == 2
    assert is_pure(post)
    assert np.allclose(post.mean, pure.mean[[1, 2, 4, 5]])


def test_symplectic_eigenvalues_thermal():
    st = thermal_state([(1.0, 1.0), (1.0, 2.0)], temperature=1.0)
    nus = symplectic_eigenvalues(st.cov)
    expected = np.sort([1 / (2 * np.tanh(0.5)), 1 / (2 * np.tanh(1.0))])
    assert nus == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# validation of states built from uncoupled mode groups


def direct_sum(blocks, perm):
    """Direct sum of (x.., p..) covariance blocks, modes then relabelled: block mode j -> perm[j]."""
    n = sum(b.shape[0] // 2 for b in blocks)
    out = np.zeros((2 * n, 2 * n))
    at = 0
    for b in blocks:
        k = b.shape[0] // 2
        modes = perm[at : at + k]
        idx = np.r_[modes, n + modes]
        out[np.ix_(idx, idx)] = b
        at += k
    return out


@st.composite
def grouped_states(draw, allow_invalid=False):
    """Random symplectic x diag(nu) blocks of 1-3 modes in a random mode order.

    Valid blocks have every nu >= 1/2; with allow_invalid, a block may get one
    nu below 1/2, which breaks the uncertainty relation.  Returns the
    covariance.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    blocks = []
    for k in sizes:
        nus = rng.uniform(0.5, 3.0, size=k)
        nus[rng.random(k) < 0.3] = 0.5
        if allow_invalid and draw(st.booleans()):
            nus[0] = rng.uniform(0.05, 0.45)
        S = random_symplectic(k, rng, t=rng.uniform(0.1, 0.8))
        cov = S @ np.diag(np.concatenate([nus, nus])) @ S.T
        blocks.append((cov + cov.T) / 2)
    return direct_sum(blocks, rng.permutation(sum(sizes)))


@settings(max_examples=80, deadline=None)
@given(grouped_states(allow_invalid=True))
def test_grouped_check_matches_dense_eigvalsh(cov):
    scale = max(1.0, float(np.max(np.abs(cov))))
    margin = dense_uncertainty_min(cov) + UNCERTAINTY_TOL * scale
    assume(abs(margin) > 1e-12 * scale)
    try:
        GaussianState(np.zeros(cov.shape[0]), cov)
        accepted = True
    except DomainError:
        accepted = False
    assert accepted == (margin > 0)


@st.composite
def near_pure_one_mode_covariances(draw):
    """A stack of 2 x 2 covariances, entries up to 1e8, with (4 det - 1) / (4 b^2 + 1) within 1e-9 of 0."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        a = 10 ** draw(st.floats(-4.0, 8.0))
        b = draw(st.floats(-1.0, 1.0)) * math.sqrt(a * 10 ** draw(st.floats(-4.0, 8.0)))
        excess = draw(st.floats(-1e-9, 1e-9))
        d = (b * b + 0.25 * (1.0 + excess * (4 * b * b + 1.0))) / a
        assume(d <= 1e8)
        out.append([[a, b], [b, d]])
    return np.array(out)


@settings(max_examples=200, deadline=None)
@given(near_pure_one_mode_covariances())
def test_one_mode_closed_form_agrees_with_eigvalsh(covs):
    scale = np.maximum(1.0, np.max(np.abs(covs), axis=(1, 2)))
    least = np.array([dense_uncertainty_min(cov) for cov in covs])
    margin = least + UNCERTAINTY_TOL * scale
    assume(np.all(np.abs(margin) > 1e-14 * scale))
    for stack, margins in ((covs, margin), (covs[0], margin[:1])):
        try:
            _check_uncertainty(stack)
            accepted = True
        except DomainError:
            accepted = False
        assert accepted == bool(np.all(margins > 0))


def test_one_mode_closed_form_rejects_what_eigvalsh_rejects():
    huge = np.array([[1e8, 1e8 + 1.0], [1e8 + 1.0, 1e8]])  # least eigenvalue -1, below the tolerance of 1e-2 there
    for cov in (0.1 * np.eye(2), huge, np.array([[1.0, 0.9], [0.9, 1.0]]), np.full((2, 2), np.nan)):
        assert not dense_uncertainty_min(cov) >= -UNCERTAINTY_TOL * max(1.0, np.max(np.abs(cov)))
        with pytest.raises(DomainError):
            _check_uncertainty(cov)
    _check_uncertainty(np.array([np.diag([1e8, 2.5e-9]), 0.5 * np.eye(2)]))


@settings(max_examples=60, deadline=None)
@given(grouped_states(), st.integers(0, 2**32 - 1))
def test_random_states_have_unit_bounded_purity_and_nonnegative_negativity(cov, seed):
    rng = np.random.default_rng(seed)
    n = cov.shape[0] // 2
    state = GaussianState(rng.standard_normal(2 * n), cov)
    p = purity(state)
    assert 0.0 < p <= 1.0 + 1e-9
    if n > 1:
        party = rng.choice(n, size=rng.integers(1, n), replace=False)
        assert log_negativity(state, party) >= 0.0
