import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbm_structures.structure as structure
from qbm_structures import (
    ConditioningError,
    DomainError,
    QuadraticHamiltonian,
    StructureMap,
    build_qbm_hamiltonian,
    cm_relative_map,
    collective_mode_map,
    normal_mode_map,
    symplectic_form,
    transform_hamiltonian,
)
from qbm_structures.model import position_block
from helpers import random_model

CANONICITY_TOL = 1e-10


def symplectic_defect(m):
    om = symplectic_form(m.n_modes)
    return np.max(np.abs(m.lift @ om @ m.lift.T - om))


def test_two_equal_masses_textbook():
    m = cm_relative_map([1.0, 1.0])
    assert np.array_equal(m.T, np.array([[0.5, 0.5], [1.0, -1.0]]))


def test_cm_row_is_mass_weighted():
    m = cm_relative_map([2.0, 1.0, 1.0])
    assert m.T[0] == pytest.approx([0.5, 0.25, 0.25])


def test_cm_relative_canonicity_random():
    rng = np.random.default_rng(0)
    for _ in range(30):
        masses = rng.uniform(0.2, 5.0, size=rng.integers(2, 9))
        assert symplectic_defect(cm_relative_map(masses)) < CANONICITY_TOL


def test_cm_relative_rejects_bad_masses():
    with pytest.raises(DomainError):
        cm_relative_map([1.0])
    with pytest.raises(DomainError):
        cm_relative_map([1.0, -2.0])


def test_transform_identity_is_noop():
    params = random_model(np.random.default_rng(1), n_bath=3)
    H = build_qbm_hamiltonian(params)
    H2 = transform_hamiltonian(H, StructureMap(np.eye(4)))
    assert np.array_equal(H2.K, H.K)


def test_mass_polarization_appears():
    # after the collective split the kinetic form carries pairwise momentum
    # couplings (1/m1 off the diagonal) while the collective momentum decouples
    params = random_model(np.random.default_rng(2), n_bath=3)
    H = build_qbm_hamiltonian(params)
    Hc = transform_hamiltonian(H, cm_relative_map(params.masses))
    mom = Hc.momentum_block
    assert np.allclose(mom[0, 1:], 0.0, atol=1e-12)
    off = mom[1:, 1:][~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off) > 1e-8)
    assert np.allclose(off, 1.0 / params.m1, rtol=1e-10)
    # diagonal kinetic coefficients are the inverse reduced masses
    for a, (m2, _, _) in enumerate(params.bath, start=1):
        assert mom[a, a] == pytest.approx(1.0 / params.m1 + 1.0 / m2, rel=1e-12)


def test_free_particle_gets_confined_collective_mode():
    params = random_model(np.random.default_rng(3), n_bath=4, potential="free")
    H = build_qbm_hamiltonian(params)
    Hc = transform_hamiltonian(H, cm_relative_map(params.masses))
    assert Hc.position_block[0, 0] > 0


def test_transform_preserves_spectrum():
    rng = np.random.default_rng(4)
    params = random_model(rng, n_bath=4, potential="harmonic")
    H = build_qbm_hamiltonian(params)
    om = symplectic_form(H.n_modes)
    # the generator's eigenvalues are +/- i (frequency); real parts are noise,
    # so compare the sorted imaginary parts
    ref = np.sort(np.linalg.eigvals(om @ H.K).imag)
    for m in (cm_relative_map(params.masses), collective_mode_map(H, params.masses)):
        got = np.sort(np.linalg.eigvals(om @ transform_hamiltonian(H, m).K).imag)
        assert np.allclose(got, ref, rtol=1e-8, atol=1e-10)


def test_transform_dimension_mismatch():
    params = random_model(np.random.default_rng(5), n_bath=2)
    H = build_qbm_hamiltonian(params)
    with pytest.raises(DomainError):
        transform_hamiltonian(H, StructureMap(np.eye(5)))


def test_normal_mode_single_mode_rescales():
    K = np.diag([2.0, 3.0, 0.5, 1.0])  # two uncoupled modes, mode 0 has m=2, k=2
    H = QuadraticHamiltonian(2, K)
    m = normal_mode_map(H, [0])
    assert np.allclose(m.T[1], [0.0, 1.0])
    assert m.T[0] == pytest.approx([np.sqrt(2.0), 0.0])  # pure mass-weighting
    H2 = transform_hamiltonian(H, m)
    assert H2.momentum_block[0, 0] == pytest.approx(1.0)
    assert H2.position_block[0, 0] == pytest.approx(1.0)  # w^2 = k/m


def test_normal_modes_of_identical_pair():
    # two identical coupled oscillators split into symmetric/antisymmetric
    # modes with squared frequencies w^2 -/+ c
    w2, c = 1.44, 0.3
    K = np.zeros((4, 4))
    K[:2, :2] = [[w2, c], [c, w2]]
    K[2:, 2:] = np.eye(2)
    H = QuadraticHamiltonian(2, K)
    m = normal_mode_map(H, [0, 1])
    H2 = transform_hamiltonian(H, m)
    assert np.allclose(H2.momentum_block, np.eye(2), atol=1e-12)
    assert np.allclose(np.diag(H2.position_block), [w2 - c, w2 + c])
    assert abs(H2.position_block[0, 1]) < 1e-12
    for row in m.T:
        assert abs(abs(row[0]) - abs(row[1])) < 1e-12


def test_normal_mode_requires_positive_kinetic():
    K = np.diag([1.0, 1.0, -0.5, 1.0])
    H = QuadraticHamiltonian(2, K)
    with pytest.raises(DomainError):
        normal_mode_map(H, [0, 1])


def test_normal_modes_reject_modes_that_miss_mass_orthonormality(monkeypatch):
    params = random_model(np.random.default_rng(5), n_bath=3, potential="harmonic")
    B, masses = position_block(params), params.masses
    w, V = structure.normal_modes(B, masses)
    assert np.max(np.abs(V.T @ (masses[:, None] * V) - np.eye(4))) < structure.NORMAL_MODE_TOL
    eigh = structure.np.linalg.eigh
    monkeypatch.setattr(structure.np.linalg, "eigh", lambda a: (eigh(a)[0], eigh(a)[1] * (1 + 1e-6)))
    with pytest.raises(ConditioningError):
        structure.normal_modes(B, masses)
    with pytest.raises(ConditioningError):  # the general momentum block reduces to the same solver
        normal_mode_map(build_qbm_hamiltonian(params), range(4))


def test_full_pipeline_reproduces_original_sparsity():
    rng = np.random.default_rng(6)
    for potential in ("free", "harmonic"):
        params = random_model(rng, n_bath=5, potential=potential)
        H = build_qbm_hamiltonian(params)
        comp = collective_mode_map(H, params.masses)
        K2 = transform_hamiltonian(H, comp)
        n = H.n_modes
        pos, mom = K2.position_block, K2.momentum_block
        scale = np.max(np.abs(np.diag(pos)))
        bath_pos = pos[1:, 1:]
        assert np.max(np.abs(bath_pos - np.diag(np.diag(bath_pos)))) < 1e-10 * scale
        assert np.max(np.abs(mom - np.diag(np.diag(mom)))) < 1e-10
        assert np.max(np.abs(K2.cross_block)) < 1e-10 * scale
        assert pos[0, 0] > 0
        assert np.all(np.abs(pos[0, 1:]) > 1e-8)  # collective mode couples to every oscillator


def test_compose_matches_stepwise_transformation():
    params = random_model(np.random.default_rng(8), n_bath=4, potential="harmonic")
    H = build_qbm_hamiltonian(params)
    cm = cm_relative_map(params.masses)
    Hc = transform_hamiltonian(H, cm)
    nm = normal_mode_map(Hc, range(1, H.n_modes))
    stepwise = transform_hamiltonian(Hc, nm)
    onestep = transform_hamiltonian(H, StructureMap(nm.T @ cm.T))
    assert np.allclose(stepwise.K, onestep.K, atol=1e-10)


def test_irreducibility_composite_generic():
    rng = np.random.default_rng(9)
    params = random_model(rng, n_bath=3)
    H = build_qbm_hamiltonian(params)
    comp = collective_mode_map(H, params.masses)
    # irreducible: every old coordinate enters every new one, and back
    assert np.all(np.abs(comp.T) > 1e-12)
    assert np.all(np.abs(comp.T_inv) > 1e-12)


def test_rejects_singular_map():
    with pytest.raises(DomainError):
        StructureMap(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_well_conditioned_small_map_is_accepted():
    # det = 1e-13, yet T T^-1 = I to roundoff
    m = StructureMap(0.1 * np.eye(13))
    assert symplectic_defect(m) < CANONICITY_TOL


@pytest.mark.parametrize("T", [[[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]])
def test_rejects_non_finite_or_singular_map(T):
    with pytest.raises(DomainError):
        StructureMap(np.array(T))


def test_rejects_an_inaccurate_inverse(monkeypatch):
    inv = np.linalg.inv
    monkeypatch.setattr(structure.np.linalg, "inv", lambda a: inv(a) * (1 + 1e-8))
    with pytest.raises(DomainError, match="canonical lift"):
        StructureMap(np.array([[2.0, 1.0], [0.5, 3.0]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(-12.0, 2.0))
def test_every_accepted_map_has_a_symplectic_lift(seed, n, log_cond):
    # random T with singular values spread over 10^log_cond .. 1: some are rejected
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    T = (U * np.logspace(0.0, log_cond, n)) @ V.T * rng.uniform(0.1, 10.0)
    try:
        m = StructureMap(T)
    except DomainError:
        return
    assert symplectic_defect(m) <= 1e-10
