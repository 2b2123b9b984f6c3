import numpy as np
import pytest
import scipy.linalg
import scipy.special

from qbm_structures import (
    ConditioningError,
    DenseEvolver,
    DomainError,
    FockSpace,
    FockState,
    GaussianState,
    ModelParams,
    build_fock_hamiltonian,
    build_qbm_hamiltonian,
    coherent_state,
    evolve,
    gaussian_to_fock,
    log_negativity,
    log_negativity_density,
    product_state,
    propagator,
    purity,
    purity_density,
    quadrature_moments,
    reduce,
    reduced_density,
    thermal_state,
    weyl_operator,
)
from qbm_structures.fock_oracle import mode_means, mode_transform_unitary, state_moments
from qbm_structures.structure import collective_mode_map


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
    evolver = DenseEvolver(H)
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
    evolver = DenseEvolver(H)
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


def test_moments_of_coherent_state():
    space = FockSpace((22, 8), (1.0, 1.0), (1.0, 1.0))
    g = product_state(coherent_state(1, 0, 1.1, -0.3), coherent_state(1, 0, 0.0, 0.0))
    psi = gaussian_to_fock(g, space)
    mean, cov = state_moments(psi)
    assert mean == pytest.approx(g.mean, abs=1e-9)
    assert np.abs(cov - g.cov).max() < 1e-9
    assert mode_means(psi) == pytest.approx(g.mean, abs=1e-9)


def test_mode_transform_unitary_matches_gaussian_route():
    params = ModelParams(m1=1.2, bath=((0.9, 1.3, 0.2),), potential="harmonic", omega=1.0)
    H = build_qbm_hamiltonian(params)
    comp = collective_mode_map(H, params.masses)
    space = FockSpace.for_model(params, (24, 22))
    U = mode_transform_unitary(space, comp.lift)
    assert np.abs(U.conj().T @ U - np.eye(space.dim)).max() < 1e-12

    g0 = product_state(
        coherent_state(1, 0, 1.0, 0.2, 1.2, 1.0), thermal_state([(0.9, 1.3)], 0.0)
    )
    f0 = gaussian_to_fock(g0, space)
    evolver = DenseEvolver(build_fock_hamiltonian(params, space))
    t = 1.9
    ft = evolver.propagate(f0, t)
    alt = evolve(evolve(g0, propagator(H, t)), comp.lift)

    psi_alt = U @ ft.amplitudes
    psi_alt = psi_alt / np.linalg.norm(psi_alt)
    fa = FockState(psi_alt, space)
    rho_sp = reduced_density(fa, [0])
    assert purity_density(rho_sp) == pytest.approx(purity(reduce(alt, [0])), abs=1e-8)
    mean_sp, cov_sp = quadrature_moments(rho_sp, space.subspace([0]))
    red = reduce(alt, [0])
    assert mean_sp == pytest.approx(red.mean, abs=1e-6)
    assert np.abs(cov_sp - red.cov).max() < 1e-6
    rho_full = np.outer(psi_alt, psi_alt.conj())
    got = log_negativity_density(rho_full, [0], space.cutoffs)
    assert got == pytest.approx(log_negativity(alt, [0]), abs=1e-6)


def test_fock_state_norm_validation():
    space = FockSpace((4,), (1.0,), (1.0,))
    with pytest.raises(DomainError):
        FockState(np.ones(4, dtype=complex), space)


def test_dense_evolver_rejects_non_hermitian():
    with pytest.raises(DomainError):
        DenseEvolver(np.array([[0.0, 1.0], [0.0, 0.0]]))
