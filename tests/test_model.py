import numpy as np
import pytest

from qbm_structures import (
    BathSpec,
    DomainError,
    ModelParams,
    QuadraticHamiltonian,
    build_qbm_hamiltonian,
    coherent_state,
    discretize_bath,
    evolve,
    mean_energy,
    product_state,
    propagator,
    symplectic_form,
    thermal_state,
)
from helpers import random_model


def test_zero_coupling_minimal_entries():
    # free particle + one uncoupled oscillator: two kinetic terms and one bath
    # potential term, nothing else
    params = ModelParams(m1=1.0, bath=((1.0, 1.0, 0.0),))
    K = build_qbm_hamiltonian(params).K
    nonzero = list(zip(*np.nonzero(K)))
    assert nonzero == [(1, 1), (2, 2), (3, 3)]
    assert K[1, 1] == 1.0  # bath potential m w^2
    assert K[2, 2] == 1.0 and K[3, 3] == 1.0  # both kinetic 1/m


def test_coupling_entry_matches_hand_expansion():
    # expanding (1/2) z^T K z and matching the interaction term x1 * kappa * x2
    # requires K[x1, x2] = kappa exactly
    params = ModelParams(m1=1.0, bath=((1.0, 1.0, 0.3),), potential="harmonic", omega=1.0)
    K = build_qbm_hamiltonian(params).K
    z = np.array([0.7, -1.2, 0.0, 0.0])
    energy = 0.5 * z @ K @ z
    by_hand = 0.5 * 1.0 * 0.7**2 + 0.5 * 1.0 * 1.2**2 + 0.3 * 0.7 * (-1.2)
    assert energy == pytest.approx(by_hand, abs=1e-15)
    assert K[0, 1] == 0.3 and K[1, 0] == 0.3


def test_minus_sign_negates_coupling_only():
    plus = build_qbm_hamiltonian(
        ModelParams(m1=1.0, bath=((1.0, 1.0, 0.3),), potential="harmonic", omega=1.0)
    ).K
    minus = build_qbm_hamiltonian(
        ModelParams(
            m1=1.0, bath=((1.0, 1.0, 0.3),), potential="harmonic", omega=1.0, coupling_sign=-1
        )
    ).K
    assert minus[0, 1] == -plus[0, 1]
    off = np.ones_like(plus, dtype=bool)
    off[0, 1] = off[1, 0] = False
    assert np.array_equal(plus[off], minus[off])


def test_zero_coupling_block_diagonal():
    params = ModelParams(m1=2.0, bath=((1.0, 0.7, 0.0), (1.5, 1.2, 0.0)))
    H = build_qbm_hamiltonian(params)
    n = H.n_modes
    for i in range(1, n):
        assert H.K[0, i] == 0.0 and H.K[n, n + i] == 0.0


def test_rejects_bad_parameters():
    with pytest.raises(DomainError):
        ModelParams(m1=-1.0, bath=((1.0, 1.0, 0.0),))
    with pytest.raises(DomainError):
        ModelParams(m1=1.0, bath=((1.0, -1.0, 0.0),))
    with pytest.raises(DomainError):
        ModelParams(m1=1.0, bath=())
    with pytest.raises(DomainError):
        ModelParams(m1=1.0, bath=((1.0, 1.0, 0.0),), potential="harmonic")
    with pytest.raises(DomainError):
        ModelParams(m1=1.0, bath=((1.0, 1.0, 0.0),), coupling_sign=2)


def test_asymmetric_matrix_rejected():
    K = np.zeros((4, 4))
    K[0, 1] = 1.0
    with pytest.raises(DomainError):
        QuadraticHamiltonian(2, K)


def test_indefinite_position_block_warns():
    with pytest.warns(UserWarning, match="indefinite"):
        build_qbm_hamiltonian(ModelParams(m1=1.0, bath=((1.0, 0.5, 0.8),)))


def test_discretize_single_mode_linear():
    spec = BathSpec(n_modes=1, gamma=0.3, cutoff=1.0)
    ((m, w, k),) = discretize_bath(spec, mass=1.5)
    assert w == 1.0
    assert k**2 == pytest.approx((2 / np.pi) * 1.5 * 0.3, rel=1e-14)


def test_discretize_zero_damping():
    for scheme in ("linear", "log"):
        modes = discretize_bath(BathSpec(n_modes=5, gamma=0.0, cutoff=2.0, scheme=scheme))
        assert all(k == 0.0 for _, _, k in modes)


def test_discretize_linear_grid():
    modes = discretize_bath(BathSpec(n_modes=4, gamma=0.1, cutoff=2.0))
    assert [w for _, w, _ in modes] == pytest.approx([0.5, 1.0, 1.5, 2.0])


def test_discretize_log_grid_in_range():
    modes = discretize_bath(BathSpec(n_modes=6, gamma=0.1, cutoff=3.0, scheme="log"))
    omegas = np.array([w for _, w, _ in modes])
    assert np.all(omegas > 0) and omegas[-1] == pytest.approx(3.0)
    assert np.all(np.diff(omegas) > 0)
    ratios = omegas[1:] / omegas[:-1]
    assert np.allclose(ratios, ratios[0])


def test_discretize_rejects_bad_spec():
    with pytest.raises(DomainError):
        BathSpec(n_modes=0, gamma=0.1, cutoff=1.0)
    with pytest.raises(DomainError):
        BathSpec(n_modes=2, gamma=-0.1, cutoff=1.0)
    with pytest.raises(DomainError):
        BathSpec(n_modes=2, gamma=0.1, cutoff=0.0)
    with pytest.raises(DomainError):
        discretize_bath(BathSpec(n_modes=2, gamma=0.1, cutoff=1.0), mass=0.0)


def test_energy_conserved_along_evolution():
    rng = np.random.default_rng(11)
    for _ in range(5):
        params = random_model(rng, n_bath=3, potential="harmonic", kappa_range=(0.05, 0.2))
        H = build_qbm_hamiltonian(params)
        state = product_state(
            coherent_state(1, 0, 1.0, -0.5, params.m1, params.omega),
            thermal_state([(m, w) for m, w, _ in params.bath], temperature=0.7),
        )
        e0 = mean_energy(H, state)
        for t in (0.3, 1.7, 4.0):
            et = mean_energy(H, evolve(state, propagator(H, t)))
            assert et == pytest.approx(e0, rel=1e-8)


def test_symplectic_form_shape():
    om = symplectic_form(3)
    assert om.shape == (6, 6)
    assert np.array_equal(om, -om.T)
    assert np.array_equal(om @ om, -np.eye(6))


def test_symplectic_form_is_shared_and_read_only():
    om = symplectic_form(4)
    assert symplectic_form(4) is om
    assert not om.flags.writeable
    with pytest.raises(ValueError):
        om[0, 4] = 2.0
