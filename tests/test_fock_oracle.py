import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbm_structures.errors import ConditioningError, DomainError
from qbm_structures.gaussian import (
    GaussianState,
    coherent_state,
    evolve,
    log_negativity,
    product_state,
    propagator,
    purity,
    reduce,
    thermal_state,
)
from qbm_structures.model import ModelParams, build_qbm_hamiltonian
import qbm_structures.fock_oracle as fo
from qbm_structures.fock_oracle import (
    ChebyshevEvolver,
    DenseEvolver,
    FockSpace,
    FockState,
    build_fock_hamiltonian,
    gaussian_to_fock,
    mode_means,
    purity_density,
    quadrature_moments,
    reduced_density,
    state_moments,
    weyl_operator,
)
from qbm_structures.structure import collective_mode_map
from helpers import expm_flow, is_pure, workload
from reference import (
    gaussian_to_fock_by_quadrature,
    log_negativity_density,
    mode_transform,
    pure_log_negativity,
    quadratic_operator,
    subspace,
)


def basis_state(space, occupations):
    amp = np.zeros(space.dim, dtype=complex)
    idx = np.ravel_multi_index(occupations, space.cutoffs)
    amp[idx] = 1.0
    return FockState(amp, space)


def dense_tms(r, d):
    """Two-mode squeezed vacuum via the dense squeeze operator (no Gaussian formulas)."""
    a = np.diag(np.sqrt(np.arange(1, d)), 1)
    a1, a2 = np.kron(a, np.eye(d)), np.kron(np.eye(d), a)
    psi = np.zeros(d * d)
    psi[0] = 1.0
    psi = scipy.linalg.expm(r * (a1 @ a2 - a1.T @ a2.T)) @ psi
    return psi / np.linalg.norm(psi)


def random_state(space, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return FockState(amp / np.linalg.norm(amp), space)


def embedded_quadratures(space):
    """Full-space x and p, each single-mode matrix padded by identities."""
    xs, ps = [], []
    for i, (d, m, w) in enumerate(zip(space.cutoffs, space.masses, space.frequencies)):
        left = np.eye(int(np.prod(space.cutoffs[:i], initial=1)))
        right = np.eye(int(np.prod(space.cutoffs[i + 1 :], initial=1)))
        a = np.diag(np.sqrt(np.arange(1, d)), 1)
        xs.append(np.kron(np.kron(left, (a + a.T) / np.sqrt(2 * m * w)), right))
        ps.append(1j * np.kron(np.kron(left, np.sqrt(m * w / 2) * (a.T - a)), right))
    return xs, ps


def embedded_hamiltonian(params, space):
    """The model Hamiltonian from dense products of full-space operators."""
    xs, ps = embedded_quadratures(space)
    H = sum((p @ p).real / (2 * m) for p, m in zip(ps, params.masses))
    if params.potential == "harmonic":
        H = H + 0.5 * params.m1 * params.omega**2 * (xs[0] @ xs[0])
    for i, (m, w, kappa) in enumerate(params.bath, start=1):
        H = H + 0.5 * m * w**2 * (xs[i] @ xs[i]) + params.coupling_sign * kappa * (xs[0] @ xs[i])
    return H


def embedded_quadratic(space, K):
    xs, ps = embedded_quadratures(space)
    ops = xs + ps
    H = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(len(ops)):
        for j in range(i, len(ops)):
            weight = 0.5 if i == j else 1.0
            H += weight * K[i, j] * 0.5 * (ops[i] @ ops[j] + ops[j] @ ops[i])
    return (H + H.conj().T) / 2


FACTOR_PARAMS = [
    ModelParams(
        m1=1.2,
        bath=((0.8, 0.9, 0.3), (1.5, 1.4, -0.2)),
        potential="harmonic",
        omega=1.1,
        coupling_sign=-1,
    ),
    ModelParams(m1=0.7, bath=((1.3, 0.6, 0.25), (0.9, 1.7, 0.4))),
]
FACTOR_CUTOFFS = (5, 3, 4)


@pytest.mark.parametrize("params", FACTOR_PARAMS)
def test_factored_hamiltonian_equals_embedded_products(params):
    space = FockSpace.for_model(params, FACTOR_CUTOFFS)
    ref = embedded_hamiltonian(params, space)
    assert np.abs(build_fock_hamiltonian(params, space) - ref).max() < 1e-12


def test_factored_quadratic_operator_equals_embedded_products():
    space = FockSpace(FACTOR_CUTOFFS, (1.2, 0.8, 1.5), (1.1, 0.9, 1.4))
    rng = np.random.default_rng(3)
    K = rng.normal(size=(6, 6))
    K = K + K.T
    assert np.abs(quadratic_operator(space, K).toarray() - embedded_quadratic(space, K)).max() < 1e-12


@pytest.mark.parametrize("modes", [(0,), (1,), (2,), (3,), (0, 3)])
def test_apply_equals_kron_product(modes):
    space = FockSpace((3, 4, 2, 5), (1.0, 1.2, 0.8, 1.1), (1.0, 0.9, 1.3, 0.7))
    psi = random_state(space, 5)
    rng = np.random.default_rng(6)
    factors = {
        i: rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for i, d in enumerate(space.cutoffs)
        if i in modes
    }
    expected = fo._kron(space, factors) @ psi.amplitudes
    assert np.abs(fo._apply(space, psi.amplitudes, factors) - expected).max() < 1e-12


def test_factored_weyl_operator_equals_expm_of_summed_generator():
    space = FockSpace(FACTOR_CUTOFFS, (1.2, 0.8, 1.5), (1.1, 0.9, 1.4))
    delta = np.array([0.3, -0.2, 0.15, 0.4, 0.1, -0.35])
    xs, ps = embedded_quadratures(space)
    gen = sum(1j * (delta[3 + i] * xs[i] - delta[i] * ps[i]) for i in range(3))
    assert np.abs(weyl_operator(space, delta) - scipy.linalg.expm(gen)).max() < 1e-12


def test_swapped_factor_order_is_caught(monkeypatch):
    # a Kronecker product taken over the modes in reverse order is a
    # different operator at unequal cutoffs; the equivalence tests must see it
    space = FockSpace.for_model(FACTOR_PARAMS[0], FACTOR_CUTOFFS)
    ref = embedded_hamiltonian(FACTOR_PARAMS[0], space)
    real_kron = fo._kron

    def swapped(space, factors):
        flipped = FockSpace(space.cutoffs[::-1], space.masses[::-1], space.frequencies[::-1])
        n = space.n_modes
        return real_kron(flipped, {n - 1 - i: f for i, f in factors.items()})

    monkeypatch.setattr(fo, "_kron", swapped)
    assert np.abs(build_fock_hamiltonian(FACTOR_PARAMS[0], space) - ref).max() > 1e-3


def random_params(n_modes, rng):
    """A random particle + (n_modes - 1) bath modes: harmonic or free, either coupling sign."""
    potential = "harmonic" if rng.random() < 0.5 else "free"
    return ModelParams(
        m1=rng.uniform(0.5, 2.0),
        bath=tuple((*rng.uniform(0.5, 2.0, 2), rng.uniform(-0.4, 0.4)) for _ in range(n_modes - 1)),
        potential=potential,
        omega=rng.uniform(0.5, 2.0) if potential == "harmonic" else None,
        coupling_sign=int(rng.choice([-1, 1])),
    )


def parity_model(cutoffs, rng):
    """A random model Hamiltonian on len(cutoffs) modes: one oscillator alone, or a particle + bath."""
    if len(cutoffs) == 1:
        m, w = rng.uniform(0.5, 2.0, 2)
        space = FockSpace(tuple(cutoffs), (m,), (w,))
        (x,), (p,) = fo._mode_quadratures(space)
        return fo._kron(space, {0: (p @ p).real / (2 * m) + 0.5 * m * w**2 * (x @ x)}), space
    params = random_params(len(cutoffs), rng)
    space = FockSpace.for_model(params, tuple(cutoffs))
    return build_fock_hamiltonian(params, space), space


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=3), st.integers(0, 2**32 - 1))
@example([1], 0)  # one basis state: the odd sector is empty
@example([5], 1)  # sectors of 3 and 2
@example([3, 1, 4], 2)  # a cutoff-1 mode among coupled ones, sectors of 6 and 6
@example([7, 5, 3], 3)  # sectors of 53 and 52
def test_real_eigenvector_propagation_equals_complex_route(cutoffs, seed):
    # the per-sector real eigenvectors give the propagator of one complex eigh of the full H
    rng = np.random.default_rng(seed)
    H, space = parity_model(cutoffs, rng)
    evolver = DenseEvolver(H, space)
    psi = random_state(space, seed)
    energies, V = np.linalg.eigh(H.astype(complex))
    for t in (0.0, 0.7, 5.3):
        expected = V @ (np.exp(-1j * energies * t) * (V.conj().T @ psi.amplitudes))
        assert np.abs(evolver.propagate(psi, t).amplitudes - expected).max() < 1e-12


def test_dense_evolver_rejects_parity_coupling_and_foreign_states():
    params = FACTOR_PARAMS[0]
    space = FockSpace.for_model(params, FACTOR_CUTOFFS)
    H = build_fock_hamiltonian(params, space)
    drive = fo._kron(space, {0: fo._x_matrix(FACTOR_CUTOFFS[0], space.masses[0], space.frequencies[0])})
    with pytest.raises(DomainError, match="parity"):
        DenseEvolver(H + drive, space)  # a linear drive flips the excitation parity

    pair = ModelParams(m1=1.0, bath=((1.0, 1.2, 0.1),), potential="harmonic", omega=1.0)
    space = FockSpace.for_model(pair, (10, 12))
    evolver = DenseEvolver(build_fock_hamiltonian(pair, space), space)
    foreign = random_state(FockSpace.for_model(pair, (12, 10)), 0)
    with pytest.raises(DomainError):
        evolver.propagate(foreign, 1.0)
    with pytest.raises(DomainError):
        DenseEvolver(np.eye(5), space)


def test_dense_evolver_diagonalises_per_parity_sector(monkeypatch):
    # on the benchmark's oracle-compare model (dimension 1000) no eigh sees more
    # than one excitation-parity sector of the Fock space
    run_cfg, scenario = workload("oracle-compare")
    space = FockSpace.for_model(scenario.model, run_cfg.cutoff)
    H = build_fock_hamiltonian(scenario.model, space)
    sizes = []
    real_eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(fo.np.linalg, "eigh", spy)
    DenseEvolver(H, space)
    assert space.dim == 1000
    assert sizes == [500, 500]


def time_grid(kind, rng):
    """A one-point grid, a grid of exactly repeated steps, or an uneven one with a repeated time."""
    if kind == "one":
        return np.array([rng.uniform(0.1, 6.0)])
    if kind == "repeated":
        return np.arange(6) * rng.uniform(0.2, 1.5)
    times = np.sort(rng.uniform(0.0, 6.0, 4))
    return np.sort(np.concatenate([[0.0], times, times[1:2]]))


def assert_matches_dense(params, space, times, seed):
    dense = DenseEvolver(build_fock_hamiltonian(params, space), space)
    states = (random_state(space, seed), random_state(space, seed + 1))
    blocks = list(ChebyshevEvolver(params, space).propagate(states, times))
    # one block per GRID_SPAN grid times, shaped (times, states, *cutoffs)
    spans = [len(times[i : i + fo.GRID_SPAN]) for i in range(0, len(times), fo.GRID_SPAN)]
    assert [block.shape for block in blocks] == [(n, 2, *space.cutoffs) for n in spans]
    for t, evolved in zip(times, np.concatenate(blocks), strict=True):
        for psi, out in zip(states, evolved, strict=True):
            assert np.abs(out.ravel() - dense.propagate(psi, t).amplitudes).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 7), min_size=2, max_size=3),
    st.sampled_from(["one", "repeated", "uneven"]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example([6, 1], "repeated", 0, True)  # one active mode: the bath mode has a single level
@example([1, 6], "uneven", 1, True)  # the particle has a single level
@example([1, 1, 1], "one", 2, True)  # H is a number
@example([7, 5, 3], "uneven", 3, True)
@example([5, 6, 4], "uneven", 4, False)  # B is not diagonal in the bath basis
def test_chebyshev_evolver_matches_dense_evolver(cutoffs, grid, seed, model_basis):
    rng = np.random.default_rng(seed)
    params = random_params(len(cutoffs), rng)
    space = FockSpace.for_model(params, tuple(cutoffs))
    if not model_basis:  # bath basis frequencies that differ from the model's
        bath = tuple(w * rng.uniform(0.6, 1.6) for w in space.frequencies[1:])
        space = FockSpace(space.cutoffs, space.masses, space.frequencies[:1] + bath)
    assert_matches_dense(params, space, time_grid(grid, rng), seed)


def test_chebyshev_evolver_continues_across_grid_spans(monkeypatch):
    # a grid longer than GRID_SPAN takes one expansion per span, each from the last state of the one before
    monkeypatch.setattr(fo, "GRID_SPAN", 2)
    params = FACTOR_PARAMS[0]
    times = np.array([0.0, 0.7, 1.5, 1.5, 2.9])
    assert_matches_dense(params, FockSpace.for_model(params, FACTOR_CUTOFFS), times, 6)


FOUR_MODES = ModelParams(
    m1=0.9, bath=((1.1, 0.8, 0.2), (0.7, 1.3, -0.15), (1.4, 1.1, 0.1)), potential="harmonic", omega=1.2
)


@pytest.mark.parametrize(
    "params, cutoffs, bath_basis, off_axes",
    [
        (FACTOR_PARAMS[0], FACTOR_CUTOFFS, None, []),
        (FACTOR_PARAMS[1], FACTOR_CUTOFFS, None, [1]),
        (FACTOR_PARAMS[0], FACTOR_CUTOFFS, (1.2, 1.1), [2, 3]),
        (FACTOR_PARAMS[1], FACTOR_CUTOFFS, (1.2, 1.1), [1, 2, 3]),
        (FOUR_MODES, (4, 3, 5, 2), (0.8, 1.7, 1.1), [3]),
    ],
    ids=[
        "model basis",
        "free particle",
        "bath basis off the model",
        "free particle, bath basis off the model",
        "four modes, one bath mode off the model",
    ],
)
def test_chebyshev_product_matches_the_dense_hamiltonian(params, cutoffs, bath_basis, off_axes):
    # a diagonal h_i enters H v as E * v; an off-diagonal part above rounding is applied along its own mode's axis
    space = FockSpace.for_model(params, cutoffs)
    if bath_basis is not None:  # bath basis frequencies, some of them not the model's
        space = FockSpace(space.cutoffs, space.masses, space.frequencies[:1] + bath_basis)
    evolver = ChebyshevEvolver(params, space)
    assert [axis for axis, _ in evolver._offs] == off_axes
    H = build_fock_hamiltonian(params, space)
    v = np.random.default_rng(5).normal(size=(4, *space.cutoffs))
    expected = (H - evolver._center * np.eye(space.dim)) @ v.reshape(4, -1).T * (2 / evolver._half)
    assert np.abs(evolver._twice_scaled(v).reshape(4, -1) - expected.T).max() < 1e-12


def test_chebyshev_evolver_matches_dense_evolver_on_four_modes():
    rng = np.random.default_rng(11)
    params = random_params(4, rng)
    space = FockSpace.for_model(params, 6)
    assert space.dim == 1296
    assert_matches_dense(params, space, np.linspace(0.0, 6.0, 5), 12)


@pytest.mark.parametrize("coupled", [True, False])
def test_chebyshev_interval_bounds_the_spectrum(coupled):
    # Weyl's bound holds the whole spectrum, and is the spectrum's own span when nothing couples
    params = FACTOR_PARAMS[0]
    if not coupled:
        params = ModelParams(m1=params.m1, bath=tuple((m, w, 0.0) for m, w, _ in params.bath), potential="free")
    space = FockSpace.for_model(params, FACTOR_CUTOFFS)
    evolver = ChebyshevEvolver(params, space)
    energies = np.linalg.eigvalsh(build_fock_hamiltonian(params, space))
    low, high = evolver._center - evolver._half, evolver._center + evolver._half
    assert low <= energies[0] and energies[-1] <= high
    if not coupled:
        assert abs(low - energies[0]) < 1e-10 and abs(high - energies[-1]) < 1e-10


def test_four_mode_dynamics_match_the_gaussian_route():
    # a displaced particle and three bath vacua at cutoff 8 (dimension 4096); the
    # truncation leaves about 1.5e-7 in the means and 1.0e-6 in the covariance
    params = ModelParams(
        m1=1.0, bath=((1.0, 0.8, 0.1), (1.0, 1.1, 0.1), (1.0, 1.5, 0.1)), potential="harmonic", omega=1.0
    )
    space = FockSpace.for_model(params, 8)
    g0 = product_state(
        coherent_state(1, 0, 0.5, 0.0), *(coherent_state(1, 0, 0.0, 0.0, 1.0, w) for _, w, _ in params.bath)
    )
    H = build_qbm_hamiltonian(params)
    times = np.linspace(0.0, 6.0, 5)
    blocks = ChebyshevEvolver(params, space).propagate([gaussian_to_fock(g0, space)], times)
    for t, (amps,) in zip(times, np.concatenate(list(blocks)), strict=True):
        expected = evolve(g0, expm_flow(H, t))
        mean, cov = state_moments(FockState(amps.ravel(), space))
        assert np.abs(mean - expected.mean).max() < 1e-6
        assert np.abs(cov - expected.cov).max() < 1e-5


@pytest.mark.parametrize("z", [1e-20, 1e-6, 0.3, 1.0, 7.5, 44.6, 120.0, 300.0, 800.0])
def test_bessel_series_matches_mpmath(z):
    (coeffs,) = fo._bessel_series([z])
    # mpmath takes milliseconds per order at high order, so above z = 120 every 8th order is checked
    orders = np.arange(0, coeffs.size, 1 if z <= 120 else 8)
    assert np.abs(coeffs[orders] - [float(mp.besselj(k, z)) for k in orders]).max() < 1e-15
    # the series ends at the first order above z whose coefficient is below 1e-17
    last, beyond = (float(mp.besselj(k, z)) for k in (coeffs.size - 1, coeffs.size))
    assert coeffs.size > z and abs(beyond) < 1e-17 <= abs(last)


def test_bessel_series_of_a_grid_matches_mpmath():
    # one table for a whole grid: a row per z, as many orders as the largest z needs
    zs = np.array([0.0, 1e-20, 0.3, 7.5, 44.6])
    table = fo._bessel_series(zs)
    assert table.shape == (zs.size, fo._bessel_series([44.6]).shape[1])
    assert np.array_equal(table[:2], np.eye(1, table.shape[1]).repeat(2, axis=0))  # J_k(0) exactly
    expected = [[float(mp.besselj(k, z)) for k in range(table.shape[1])] for z in zs[2:]]
    assert np.abs(table[2:] - expected).max() < 1e-15


def test_chebyshev_evolver_checks_its_inputs():
    params = FACTOR_PARAMS[0]
    space = FockSpace.for_model(params, FACTOR_CUTOFFS)
    evolver = ChebyshevEvolver(params, space)
    psi = random_state(space, 0)
    (block,) = evolver.propagate([psi], [0.0])
    assert block.shape == (1, 1, *space.cutoffs)
    assert np.abs(block.ravel() - psi.amplitudes).max() < 1e-15  # t = 0 only renormalises
    with pytest.raises(DomainError):
        evolver.propagate([random_state(FockSpace.for_model(params, (4, 3, 5)), 0)], [1.0])
    for times in ([0.0, 2.0, 1.0], [-1.0, 0.0]):
        with pytest.raises(DomainError):
            evolver.propagate([psi], times)


def test_space_cap_enforced():
    with pytest.raises(DomainError):
        FockSpace((200, 200), (1.0, 1.0), (1.0, 1.0))


def test_single_oscillator_spectrum():
    params = ModelParams(m1=1.0, bath=((1.0, 1.0, 0.0),), potential="harmonic", omega=1.0)
    space = FockSpace.for_model(params, 10)
    H = build_fock_hamiltonian(params, space)
    assert np.max(np.abs(H - H.T)) < 1e-12
    # decoupled oscillators in their own bases: exactly diagonal
    assert np.max(np.abs(H - np.diag(np.diag(H)))) < 1e-12
    evals = np.linalg.eigvalsh(H)
    k = np.arange(9)
    expected = np.sort((k[:, None] + k[None, :] + 1.0).ravel())
    assert evals[:9] == pytest.approx(np.sort(expected)[:9], abs=1e-8)


def test_ground_energy_second_order_perturbation():
    # H = H0 + kappa x1 x2 with unit masses/frequencies shifts the ground
    # energy by -kappa^2/8 at second order
    kappa = 0.2
    params = ModelParams(m1=1.0, bath=((1.0, 1.0, kappa),), potential="harmonic", omega=1.0)
    space = FockSpace.for_model(params, 14)
    e0 = np.linalg.eigvalsh(build_fock_hamiltonian(params, space))[0]
    assert e0 - 1.0 == pytest.approx(-(kappa**2) / 8, rel=0.05)


def test_evolve_dense_zero_time_and_eigenstate():
    params = ModelParams(m1=1.0, bath=((1.0, 1.5, 0.0),), potential="harmonic", omega=1.0)
    space = FockSpace.for_model(params, 8)
    H = build_fock_hamiltonian(params, space)
    psi = basis_state(space, (2, 1))
    evolver = DenseEvolver(H, space)
    assert np.allclose(evolver.propagate(psi, 0.0).amplitudes, psi.amplitudes)
    out = evolver.propagate(psi, 1.3)
    assert np.abs(np.abs(out.amplitudes) - np.abs(psi.amplitudes)).max() < 1e-10


def test_coherent_state_stays_coherent_under_harmonic():
    # |alpha| = 1.5 at cutoff 40; fidelity against the covariance-route
    # prediction stays above 1 - 1e-6
    alpha = 1.5
    params = ModelParams(m1=1.0, bath=((1.0, 1.0, 0.0),), potential="harmonic", omega=1.0)
    space = FockSpace.for_model(params, (40, 6))
    H = build_fock_hamiltonian(params, space)
    g0 = product_state(
        coherent_state(1, 0, alpha * np.sqrt(2), 0.0), coherent_state(1, 0, 0.0, 0.0)
    )
    psi0 = gaussian_to_fock(g0, space)
    evolver = DenseEvolver(H, space)
    Hg = build_qbm_hamiltonian(params)
    for t in (0.9, 2.7):
        predicted = gaussian_to_fock(evolve(g0, propagator(Hg, t)), space)
        fidelity = abs(np.vdot(predicted.amplitudes, evolver.propagate(psi0, t).amplitudes)) ** 2
        assert fidelity > 1 - 1e-6


def test_reduced_density_product_rank_one():
    space = FockSpace((6, 6), (1.0, 1.0), (1.0, 1.0))
    psi = basis_state(space, (2, 3))
    rho = reduced_density(psi, [0])
    assert rho.shape == (6, 6)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(rho)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert purity_density(rho) == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_bell_pair_half_purity():
    space = FockSpace((2, 2), (1.0, 1.0), (1.0, 1.0))
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1 / np.sqrt(2)
    psi = FockState(amp, space)
    rho = reduced_density(psi, [0])
    assert purity_density(rho) == pytest.approx(0.5, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_reduced_density_two_mode_squeezed_matches_gaussian():
    r = 0.3
    d = 20
    space = FockSpace((d, d), (1.0, 1.0), (1.0, 1.0))
    psi = FockState(dense_tms(r, d), space)
    rho = reduced_density(psi, [0])
    assert purity_density(rho) == pytest.approx(1.0 / np.cosh(2 * r), abs=1e-6)


def test_log_negativity_density_matches_gaussian_tms():
    r = 0.3
    d = 18
    space = FockSpace((d, d), (1.0, 1.0), (1.0, 1.0))
    psi = dense_tms(r, d)
    rho = np.outer(psi, psi.conj())
    got = log_negativity_density(rho, [0], space.cutoffs)
    assert got == pytest.approx(2 * r / np.log(2), abs=1e-6)


def test_pure_log_negativity_equals_density_route():
    d = 18
    tms = FockState(dense_tms(0.3, d), FockSpace((d, d), (1.0, 1.0), (1.0, 1.0)))
    rnd = random_state(FockSpace((3, 4, 5), (1.0, 1.2, 0.8), (1.0, 0.9, 1.3)), 7)
    for psi, party in ((tms, [0]), (tms, [1]), (rnd, [0]), (rnd, [1]), (rnd, [0, 2])):
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        expected = log_negativity_density(rho, party, psi.space.cutoffs)
        assert abs(pure_log_negativity(psi, party) - expected) <= 1e-12
    with pytest.raises(DomainError):
        pure_log_negativity(rnd, [0, 1, 2])


def test_gaussian_to_fock_vacuum_and_coherent():
    space = FockSpace((25,), (1.0,), (1.0,))
    vac = gaussian_to_fock(coherent_state(1, 0, 0.0, 0.0), space)
    e0 = np.zeros(25)
    e0[0] = 1.0
    assert np.abs(vac.amplitudes - e0).max() < 1e-14

    alpha = 1.0
    coh = gaussian_to_fock(coherent_state(1, 0, alpha * np.sqrt(2), 0.0), space)
    k = np.arange(25)
    poisson = np.exp(-(alpha**2) / 2) * alpha**k / np.sqrt(scipy.special.factorial(k))
    assert np.abs(coh.amplitudes - poisson).max() < 1e-12


def test_gaussian_to_fock_squeezed_parity():
    r = 0.2
    sq = GaussianState(np.zeros(2), np.diag([np.exp(-2 * r) / 2, np.exp(2 * r) / 2]))
    space = FockSpace((20,), (1.0,), (1.0,))
    psi = gaussian_to_fock(sq, space)
    assert np.abs(psi.amplitudes[1::2]).max() < 1e-12
    assert abs(psi.amplitudes[2]) > 1e-3


def test_gaussian_to_fock_truncation_error():
    space = FockSpace((6,), (1.0,), (1.0,))
    with pytest.raises(ConditioningError):
        gaussian_to_fock(coherent_state(1, 0, 4.0, 0.0), space)


def test_gaussian_to_fock_rejects_correlations_and_mixed():
    space2 = FockSpace((8, 8), (1.0, 1.0), (1.0, 1.0))
    r = 0.3
    c, s = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    tms_cov = np.array([[c, s, 0, 0], [s, c, 0, 0], [0, 0, c, -s], [0, 0, -s, c]])
    with pytest.raises(DomainError):
        gaussian_to_fock(GaussianState(np.zeros(4), tms_cov), space2)
    space1 = FockSpace((8,), (1.0,), (1.0,))
    with pytest.raises(DomainError):
        gaussian_to_fock(thermal_state([(1.0, 1.0)], 1.0), space1)


@st.composite
def mode_product_states(draw):
    """One or two modes, each a displaced, squeezed and rotated single-mode Gaussian, pure or mixed (nu > 1/2).

    With `correlated`, a two-mode squeezer couples the two modes.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2))
    cov = np.zeros((2 * n, 2 * n))
    for i in range(n):
        theta = rng.uniform(0.0, np.pi)
        c, s = np.cos(theta), np.sin(theta)
        S = np.array([[c, -s], [s, c]]) @ np.diag(np.exp(np.array([-1.0, 1.0]) * rng.uniform(-0.6, 0.6)))
        nu = 0.5 if draw(st.booleans()) else 0.5 + 10 ** rng.uniform(-6.0, 0.0)
        cov[np.ix_([i, n + i], [i, n + i])] = nu * S @ S.T
    if n == 2 and draw(st.booleans()):  # a two-mode squeezer: cross-mode blocks
        r = rng.uniform(0.1, 0.4)
        T = np.array([[np.cosh(r), np.sinh(r), 0, 0], [np.sinh(r), np.cosh(r), 0, 0]])
        T = np.vstack([T, [[0, 0, np.cosh(r), -np.sinh(r)], [0, 0, -np.sinh(r), np.cosh(r)]]])
        cov = T @ cov @ T.T
    return GaussianState(rng.uniform(-1.0, 1.0, 2 * n), (cov + cov.T) / 2)


@settings(max_examples=60, deadline=None)
@given(mode_product_states())
def test_recurrence_bridge_equals_the_quadrature_reference(state):
    # the ladder recurrence and its closed-form c_0 against 40-digit overlaps with the Hermite functions,
    # and purity and correlations checked per mode against the symplectic spectrum and the cross-mode blocks
    n = state.n_modes
    space = FockSpace((30,) if n == 1 else (22, 22), (1.0,) * n, (1.0,) * n)
    try:
        expected = gaussian_to_fock_by_quadrature(state, space)
    except (DomainError, ConditioningError) as exc:
        with pytest.raises(type(exc)):
            gaussian_to_fock(state, space)
        return
    assert is_pure(state)
    assert np.max(np.abs(gaussian_to_fock(state, space).amplitudes - expected.amplitudes)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 20), st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=8)
)
@example(1, 1.0, 1.0, [0.7, -0.4])  # a one-level mode: x = p = 0, so W = 1
@example(12, 1.3, 0.8, [0.0, 0.0, 2.5, -1.5])  # a zero shift next to a large one
@example(2, 1.0, 1.0, [0.0, 5e-324])  # a subnormal shift: the series' division must not overflow
def test_weyl_series_equals_the_eigh_factor(d, m, w, shifts):
    space = FockSpace((d,), (m,), (w,))
    (x,), (p,) = fo._mode_quadratures(space)
    dx, dp = np.reshape(shifts[: len(shifts) // 2 * 2], (-1, 2)).T
    for factor, delta in zip(fo._weyl_factors(x, p, dx, dp), zip(dx, dp)):
        if delta == (0.0, 0.0):
            assert np.array_equal(factor, np.eye(d))
        assert np.abs(factor - weyl_operator(space, np.array(delta))).max() < 1e-13


def test_weyl_operator_displaces_moments():
    space = FockSpace((30,), (1.3,), (0.8,))
    vac = gaussian_to_fock(
        coherent_state(1, 0, 0.0, 0.0, width_mass=1.3, width_freq=0.8), space
    )
    delta = np.array([0.7, -0.4])
    shifted = weyl_operator(space, delta) @ vac.amplitudes
    rho = np.outer(shifted, shifted.conj())
    mean, cov = quadrature_moments(rho, space)
    assert mean == pytest.approx(delta, abs=1e-10)
    assert cov[0, 0] == pytest.approx(1 / (2 * 1.3 * 0.8), abs=1e-10)


def squeezed_product():
    """Four modes: coherent, displaced and rotated-squeezed, vacuum in a foreign basis, coherent."""
    r, theta = 0.2, 0.4
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    squeezed = GaussianState(np.array([-0.4, 0.3]), rot @ np.diag([np.exp(-2 * r), np.exp(2 * r)]) @ rot.T / 2)
    g = product_state(
        coherent_state(1, 0, 0.9, -0.3),
        squeezed,
        coherent_state(1, 0, 0.0, 0.0, width_mass=1.3, width_freq=0.8),
        coherent_state(1, 0, 0.2, 0.1),
    )
    return g, FockSpace((18, 18, 2, 7), (1.0, 1.0, 1.3, 1.0), (1.0, 1.0, 0.8, 1.0))


def test_moments_of_coherent_state():
    coherent = (
        product_state(coherent_state(1, 0, 1.1, -0.3), coherent_state(1, 0, 0.0, 0.0)),
        FockSpace((22, 8), (1.0, 1.0), (1.0, 1.0)),
    )
    for g, space in (coherent, squeezed_product()):
        psi = gaussian_to_fock(g, space)
        mean, cov = state_moments(psi)
        assert mean == pytest.approx(g.mean, abs=1e-9)
        assert np.abs(cov - g.cov).max() < 1e-9
        assert mode_means(psi) == pytest.approx(g.mean, abs=1e-9)


def per_state_diagnostics(plus, minus):
    """branch_diagnostics' row from the per-state reductions: reduced densities, state_moments and a dense Weyl operator."""
    n = plus.space.n_modes
    mode0, env = [0, n], list(range(1, n))
    mean, cov = state_moments(plus)
    shift = (mode_means(minus) - mean)[env + [n + i for i in env]]
    r = abs(np.trace(reduced_density(plus, env) @ weyl_operator(subspace(plus.space, env), shift)))
    purity_0 = purity_density(reduced_density(plus, [0]))
    return [purity_0, *mean[mode0], *cov[np.ix_(mode0, mode0)].ravel(), r]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=2, max_size=3), st.integers(0, 2**32 - 1), st.booleans())
@example([6, 1], 0, True)  # a single-level bath mode: its Weyl factor is 1
@example([1, 5, 3], 1, True)  # a single-level particle: x_0 = p_0 = 0
@example([7, 6, 5], 2, False)  # bath basis frequencies that differ from the model's
def test_branch_diagnostics_match_the_per_state_reductions(cutoffs, seed, model_basis):
    rng = np.random.default_rng(seed)
    params = random_params(len(cutoffs), rng)
    space = FockSpace.for_model(params, tuple(cutoffs))
    if not model_basis:
        bath = tuple(w * rng.uniform(0.6, 1.6) for w in space.frequencies[1:])
        space = FockSpace(space.cutoffs, space.masses, space.frequencies[:1] + bath)
    pairs = []
    for _ in range(3):  # psi_- is psi_+ mixed with another state, then shifted on every mode
        plus, other = (random_state(space, int(s)) for s in rng.integers(2**32, size=2))
        shift = weyl_operator(space, rng.normal(scale=0.6, size=2 * space.n_modes))
        minus = shift @ (plus.amplitudes + other.amplitudes)
        pairs.append((plus, FockState(minus / np.linalg.norm(minus), space)))
    amps = np.reshape([[psi.amplitudes for psi in pair] for pair in pairs], (3, 2, *space.cutoffs))
    expected = np.array([per_state_diagnostics(*pair) for pair in pairs])
    assert np.abs(fo.branch_diagnostics(amps, space) - expected).max() < 1e-13
    with pytest.raises(DomainError):
        fo.branch_diagnostics(amps[:, :1], space)


def test_pure_state_routes_form_no_dense_operator(monkeypatch):
    g, space = squeezed_product()
    psi = gaussian_to_fock(g, space)
    real_kron = fo._kron

    def no_kron(*args, **kwargs):
        raise AssertionError("a full-space operator was assembled")

    monkeypatch.setattr(fo, "_kron", no_kron)
    mean, cov = state_moments(psi)
    assert np.abs(cov - g.cov).max() < 1e-9
    assert np.array_equal(mode_means(psi), mean)
    row = fo.branch_diagnostics(np.stack([psi.amplitudes, psi.amplitudes]).reshape(1, 2, *space.cutoffs), space)
    assert row[0, 1:7] == pytest.approx([mean[0], mean[4], cov[0, 0], cov[0, 4], cov[4, 0], cov[4, 4]], abs=1e-12)

    def sparse_only(space, factors, kron=np.kron):
        if kron is np.kron:
            raise AssertionError("a dense full-space operator was assembled")
        return real_kron(space, factors, kron)

    monkeypatch.setattr(fo, "_kron", sparse_only)
    c, s = np.cos(0.3), np.sin(0.3)
    splitter = np.kron(np.eye(2), [[c, s], [-s, c]])  # a beam splitter, orthogonal and symplectic
    mode_transform(random_state(FockSpace((6, 6), (1.0, 1.0), (1.0, 1.0)), 3), splitter)


def test_mode_transform_unitary_matches_gaussian_route():
    params = ModelParams(m1=1.2, bath=((0.9, 1.3, 0.2),), potential="harmonic", omega=1.0)
    H = build_qbm_hamiltonian(params)
    comp = collective_mode_map(H, params.masses)
    space = FockSpace.for_model(params, (24, 22))
    phi, chi = random_state(space, 2), random_state(space, 4)
    phi_t, chi_t = mode_transform(phi, comp.lift), mode_transform(chi, comp.lift)
    before = np.vdot(phi.amplitudes, chi.amplitudes)
    assert abs(np.vdot(phi_t.amplitudes, chi_t.amplitudes) - before) < 1e-12

    g0 = product_state(
        coherent_state(1, 0, 1.0, 0.2, 1.2, 1.0), thermal_state([(0.9, 1.3)], 0.0)
    )
    f0 = gaussian_to_fock(g0, space)
    evolver = DenseEvolver(build_fock_hamiltonian(params, space), space)
    t = 1.9
    ft = evolver.propagate(f0, t)
    alt = evolve(evolve(g0, expm_flow(H, t)), comp.lift)

    fa = mode_transform(ft, comp.lift)
    rho_sp = reduced_density(fa, [0])
    assert purity_density(rho_sp) == pytest.approx(purity(reduce(alt, [0])), abs=1e-8)
    mean_sp, cov_sp = quadrature_moments(rho_sp, subspace(space, [0]))
    red = reduce(alt, [0])
    assert mean_sp == pytest.approx(red.mean, abs=1e-6)
    assert np.abs(cov_sp - red.cov).max() < 1e-6
    assert pure_log_negativity(fa, [0]) == pytest.approx(log_negativity(alt, [0]), abs=1e-6)


def test_fock_state_norm_validation():
    space = FockSpace((4,), (1.0,), (1.0,))
    with pytest.raises(DomainError):
        FockState(np.ones(4, dtype=complex), space)


def test_dense_evolver_rejects_non_hermitian():
    space = FockSpace((2,), (1.0,), (1.0,))
    with pytest.raises(DomainError):
        DenseEvolver(np.array([[0.0, 1.0], [0.0, 0.0]]), space)
    with pytest.raises(DomainError):  # eigenvectors are kept real
        DenseEvolver(np.array([[0.0, 1j], [-1j, 0.0]]), space)
