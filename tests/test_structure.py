import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbm_structures.structure as structure
from qbm_structures.errors import ConditioningError, DomainError
from qbm_structures.structure import (
    StructureMap,
    cm_relative_map,
    collective_mode_map,
    normal_mode_map,
    transform_hamiltonian,
)
from qbm_structures.experiments import ScenarioConfig, _prepare
from qbm_structures.model import (
    BathSpec,
    ModelParams,
    QuadraticHamiltonian,
    arrowhead,
    build_qbm_hamiltonian,
    discretize_bath,
    position_block,
    symplectic_form,
)
from qbm_structures.cli import apply_overrides, build_scenario
from helpers import arrowhead_matrix, random_model, workload

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
        assert np.max(np.abs(K2.K[:n, n:])) < 1e-10 * scale
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


# ---------------------------------------------------------------------------
# the star model's secular solver against the dense eigh

STAR_CASES = ("ohmic", "zero gamma", "one zero kappa", "repeated", "crowded", "stiff")


@st.composite
def star_models(draw):
    """Ohmic baths of up to 256 modes on a linear or geometric grid, shuffled, with zero couplings, repeated or
    1e-9-apart frequencies, a free (so unstable) or harmonic particle, stiff (omega = 100) or not, and every bath
    mass scaled by 1 or 64 at fixed J."""
    case = draw(st.sampled_from(STAR_CASES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_bath = draw(st.integers(1, 256))
    gamma = 0.0 if case == "zero gamma" else draw(st.floats(0.01, 0.5))
    cutoff = draw(st.floats(1.0, 10.0))
    if draw(st.booleans()):
        m, w, k = (np.array(column) for column in zip(*discretize_bath(BathSpec(n_bath, gamma, cutoff))))
    else:  # clustered at low frequencies: geometric from cutoff / n_bath, the Ohmic kappa_i^2 rule on local spacings
        w = np.geomspace(cutoff / n_bath, cutoff, n_bath)
        m, k = np.ones(n_bath), np.sqrt((2 / np.pi) * gamma * w**2 * (np.gradient(w) if n_bath > 1 else cutoff))
    if case == "one zero kappa":
        k[rng.integers(n_bath)] = 0.0
    if case == "repeated":
        w[rng.integers(n_bath, size=1 + n_bath // 3)] = w[rng.integers(n_bath)]
    if case == "crowded" and n_bath > 1:
        at = rng.integers(n_bath - 1, size=1 + n_bath // 4)
        w[at + 1] = w[at] * (1 + 1e-9)
    scale = draw(st.sampled_from([1.0, 64.0]))
    order = rng.permutation(n_bath)
    potential = draw(st.sampled_from(["free", "harmonic"]))
    return ModelParams(
        m1=draw(st.floats(0.6, 1.6)),
        bath=tuple(zip(scale * m[order], w[order], math.sqrt(scale) * k[order])),
        potential=potential,
        omega=(100.0 if case == "stiff" else draw(st.floats(0.2, 2.0))) if potential == "harmonic" else None,
        coupling_sign=draw(st.sampled_from([1, -1])),
    )


def _tie_groups(w):
    """Index groups of w (ascending) within 1e-12 of the largest |w|, the dense convention's ties."""
    cut = np.flatnonzero(np.diff(w) > 1e-12 * max(1.0, np.max(np.abs(w)))) + 1
    return np.split(np.arange(len(w)), cut)


@settings(max_examples=40, deadline=None)
@given(star_models())
def test_secular_solver_equals_the_dense_reference(params):
    tip, d, z = arrowhead(params)
    masses = params.masses
    C = arrowhead_matrix(tip, d, z)
    w, U = structure.star_normal_modes(tip, d, z)  # the backward-error gate never fires: it would raise here
    reference = np.linalg.eigh(C)[0]
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(np.sort(w) - reference)) <= 1e-12 * scale
    assert np.max(np.abs(C @ U - U * w)) <= 1e-14 * max(1.0, np.max(np.abs(C)))
    assert np.max(np.abs(U.T @ U - np.eye(len(w)))) <= 1e-13

    # the solver fixes no sign and no order: each eigenspace's projector against the dense route's
    U = U[:, np.argsort(w, kind="stable")]
    w_dense, V_dense = structure.normal_modes(position_block(params), masses)
    U_dense = np.sqrt(masses)[:, None] * V_dense
    for group in _tie_groups(reference):
        projector = U[:, group] @ U[:, group].T
        error = np.max(np.abs(projector - U_dense[:, group] @ U_dense[:, group].T))
        if len(group) > 1:  # a degenerate eigenspace
            assert error <= 1e-8
            continue
        others = np.delete(reference, group)
        gap = np.min(np.abs(others - reference[group[0]])) / scale if others.size else 1.0
        assert error <= 2e-13 / gap  # each route's column is within rounding / gap of the exact one

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _prepare(ScenarioConfig(params, times=np.array([0.0, 1.0])), None)
    warned = any(str(item.message).startswith("position block") for item in caught)
    if abs(reference[0]) > 1e-12 * scale:  # a smaller w has no sign either route resolves
        assert warned == (reference[0] < 0)
        if params.potential == "free":
            assert np.count_nonzero(w < 0) == 1  # coupled beyond confinement: one unstable mode


def test_secular_gate_catches_a_wrong_root_that_u_t_u_misses(monkeypatch):
    # U is built from the couplings z^ for which the computed roots are exact, so it stays orthonormal when a
    # root is wrong; only the backward error max |z^ - z| sees it
    run_cfg, _ = workload("marginal-wide")
    tip, d, z = arrowhead(build_scenario(apply_overrides(run_cfg, ["model.n_bath=64"])).model)
    roots = structure._secular_roots

    def nudged(*args):  # one converged root's offset tau from its pole, scaled by 1 + 1e-6
        out = roots(*args)
        out[1, 32] *= 1 + 1e-6
        return out

    monkeypatch.setattr(structure, "_secular_roots", nudged)
    with pytest.raises(ConditioningError, match="miss the model's couplings"):
        structure.star_normal_modes(tip, d, z)
    order, n = np.argsort(d), d.size + 1
    U = np.zeros((n, n))
    _, miss = structure._secular_modes(tip, d[order], z[order], U, np.r_[0, order + 1])  # nothing deflates here
    assert miss > structure.NORMAL_MODE_TOL * (max(tip, np.max(d)) + np.linalg.norm(z))
    assert np.max(np.abs(U.T @ U - np.eye(n))) <= 1e-13


@pytest.mark.parametrize("gamma", [1e-26, 1e-20, 1e-14])
@pytest.mark.parametrize("potential, omega", [("free", None), ("harmonic", 1.0), ("harmonic", 100.0)])
def test_secular_solver_takes_couplings_near_the_deflation_tolerance(gamma, potential, omega):
    # roots within 1e-20 of their poles, and end roots whose 2 x 2 bound rounds onto the pole
    params = ModelParams(m1=1.0, bath=discretize_bath(BathSpec(64, gamma, 10.0)), potential=potential, omega=omega)
    tip, d, z = arrowhead(params)
    C = arrowhead_matrix(tip, d, z)
    w, U = structure.star_normal_modes(tip, d, z)
    reference = np.linalg.eigh(C)[0]
    assert np.max(np.abs(np.sort(w) - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert np.max(np.abs(C @ U - U * w)) <= 1e-14 * np.max(np.abs(C))
    assert np.max(np.abs(U.T @ U - np.eye(len(w)))) <= 1e-13


def test_secular_solver_deflates_zero_couplings_and_repeated_frequencies():
    # three bath modes at one frequency, one uncoupled: two of its eigenvectors live in the bath alone
    bath = ((1.0, 1.2, 0.1), (1.0, 1.2, 0.1), (1.0, 1.2, 0.0))
    params = ModelParams(m1=1.0, bath=bath, potential="harmonic", omega=1.0)
    w, U = structure.star_normal_modes(*arrowhead(params))  # unit masses: U = V
    w_dense, V_dense = structure.normal_modes(position_block(params), params.masses)
    assert np.max(np.abs(np.sort(w) - w_dense)) <= 1e-14
    assert np.count_nonzero(np.abs(w - 1.44) <= 1e-14) == 2
    assert np.all(U[0, np.abs(w - 1.44) <= 1e-14] == 0.0)
    assert np.max(np.abs(U.T @ U - np.eye(4))) <= 1e-14
