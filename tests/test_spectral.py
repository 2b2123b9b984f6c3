"""Properties of the closed-form normal-mode flow and the rows-only diagnostics.

Random models come in three families: decoupled (a free or harmonic
particle with zero coupling, so a free particle has an exact zero mode),
harmonic (every normal mode stable) and unstable (a coupled free particle,
whose position form is indefinite).
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm_structures import (
    ConditioningError,
    QuadraticHamiltonian,
    build_qbm_hamiltonian,
    cm_relative_map,
    evolve,
    log_negativity,
    propagator,
    purity,
    reduce,
    symplectic_form,
    transform_hamiltonian,
)
from qbm_structures.experiments import (
    ScenarioConfig,
    _check_conjugate,
    _prepare,
    run_er_check,
    run_exclusivity,
    run_marginal,
    run_pod,
)
from qbm_structures.structure import normal_modes
from helpers import (
    default_split,
    dense_exclusivity,
    evolved_state,
    lift_total,
    random_model,
    with_williamson_purification,
)

FAMILIES = ("decoupled", "harmonic", "unstable")
SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def models(draw, families=FAMILIES):
    family = draw(st.sampled_from(families))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_bath = draw(st.integers(1, 4))
    if family == "decoupled":
        potential = draw(st.sampled_from(["free", "harmonic"]))
        return random_model(rng, n_bath, potential=potential, kappa_range=(0.0, 0.0))
    if family == "harmonic":
        return random_model(rng, n_bath, potential="harmonic", kappa_range=(0.02, 0.3))
    return random_model(rng, n_bath)


def _world(params, temperature=0.0, t_max=6.0, purified=True):
    cfg = ScenarioConfig(
        model=params,
        times=np.linspace(0.0, t_max, 5),
        x0=1.0,
        p0=-0.4,
        bath_temperature=temperature,
        purified=purified and temperature > 0,
    )
    return cfg, _prepare(cfg, None)


def _physical_block(world, S):
    n, N = world.n_phys, world.n_total
    idx = np.r_[0:n, N : N + n]
    return S[np.ix_(idx, idx)]


@SETTINGS
@given(models(), st.booleans())
def test_normal_modes_solve_the_generalized_eigenproblem(params, relative):
    H = build_qbm_hamiltonian(params)
    if relative:  # centre of mass + relative coordinates: a non-diagonal momentum block
        H = transform_hamiltonian(H, cm_relative_map(params.masses))
    n = H.n_modes
    w, V, M = normal_modes(H, range(n))
    B = H.position_block
    reference = scipy.linalg.eigh(B, np.linalg.inv(H.momentum_block), eigvals_only=True)
    assert np.max(np.abs(w - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))
    assert np.max(np.abs(B @ V - M @ V * w)) <= 1e-10 * max(1.0, np.max(np.abs(B)))
    assert np.max(np.abs(V.T @ M @ V - np.eye(n))) <= 1e-10


@SETTINGS
@given(models(), st.floats(0.0, 8.0))
def test_normal_mode_flow_equals_pade_propagator(params, t):
    _, world = _world(params)
    spectral = _physical_block(world, world.flow(world.mode_flow(t)))
    H = build_qbm_hamiltonian(params)
    pade = scipy.linalg.expm(symplectic_form(H.n_modes) @ H.K * t)
    assert np.linalg.norm(spectral - pade) <= 1e-10 * max(1.0, np.linalg.norm(pade))
    if np.count_nonzero(H.K) != np.count_nonzero(np.diagonal(H.K)):
        assert np.array_equal(propagator(H, t), pade)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.floats(0.0, 6.0))
def test_decoupled_propagator_equals_pade(seed, n, t):
    rng = np.random.default_rng(seed)
    K = np.diag(np.r_[rng.uniform(-2.0, 2.0, n) * rng.integers(0, 2, n), rng.uniform(0.2, 3.0, n)])
    H = QuadraticHamiltonian(n, K)
    pade = scipy.linalg.expm(symplectic_form(n) @ K * t)
    assert np.linalg.norm(propagator(H, t) - pade) <= 1e-10 * max(1.0, np.linalg.norm(pade))


@SETTINGS
@given(models(), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_normal_mode_flow_is_symplectic_group(params, t1, t2):
    _, world = _world(params, temperature=1.0)
    S1, S2, S12 = (world.flow(world.mode_flow(t)) for t in (t1, t2, t1 + t2))
    scale = max(1.0, np.linalg.norm(S12))
    assert np.linalg.norm(S2 @ S1 - S12) <= 1e-10 * scale**2
    omega = symplectic_form(world.n_total)
    for S in (S1, S2, S12):
        assert np.max(np.abs(S @ omega @ S.T - omega)) <= 1e-10 * max(1.0, np.max(np.abs(S))) ** 2


@SETTINGS
@given(models(), st.sampled_from([0.0, 1.5]))
def test_rows_only_diagnostics_equal_full_route(params, temperature):
    cfg, world = _world(params, temperature)
    rep = run_pod(cfg)
    lift = lift_total(world, default_split(params))
    for i, t in enumerate(cfg.times):
        state = evolved_state(world, t)
        alt = evolve(state, lift)
        assert rep.purity_1[i] == pytest.approx(purity(reduce(state, [0])), abs=1e-10)
        assert rep.purity_sp[i] == pytest.approx(purity(reduce(alt, [0])), abs=1e-10)
        assert rep.neg_12[i] == pytest.approx(log_negativity(state, [0]), abs=1e-9)
        assert rep.neg_spep[i] == pytest.approx(log_negativity(alt, [0]), abs=1e-9)


@SETTINGS
@given(models(families=("decoupled",)), st.sampled_from([0.0, 1.5]))
def test_decoupled_models_have_exactly_zero_negativity(params, temperature):
    cfg, _ = _world(params, temperature)
    assert np.all(run_pod(cfg).neg_12 == 0.0)
    assert np.all(run_er_check(cfg).neg_12 == 0.0)
    if temperature > 0:
        mixed, _ = _world(params, temperature, purified=False)
        assert np.all(run_pod(mixed).neg_12 == 0.0)


def _dense_negativities(cfg, world):
    """neg_12 and neg_SpEp of every sample from full states and the full collective lift."""
    lift = lift_total(world, default_split(cfg.model))
    states = [evolved_state(world, t) for t in cfg.times]
    return np.array([[log_negativity(s, [0]), log_negativity(evolve(s, lift), [0])] for s in states]).T


@SETTINGS
@given(models(families=("decoupled", "harmonic")), st.sampled_from([0.0, 1.5]))
def test_rows_exclusivity_equals_dense_branch_proxy(params, temperature):
    cfg, _ = _world(params, temperature)
    assert np.max(np.abs(run_exclusivity(cfg).neg_spep - dense_exclusivity(cfg))) <= 1e-10


@SETTINGS
@given(models(families=("decoupled", "harmonic")), st.floats(0.3, 2.0))
def test_mixed_rows_negativity_equals_full_route(params, temperature):
    cfg, world = _world(params, temperature, purified=False)
    rep = run_pod(cfg)
    n12, nsp = _dense_negativities(cfg, world)
    assert np.max(np.abs(rep.neg_12 - n12)) <= 1e-10
    assert np.max(np.abs(rep.neg_spep - nsp)) <= 1e-10


def test_mixed_global_state_negativity_matches_full_route():
    params = random_model(np.random.default_rng(3), 2, potential="harmonic", kappa_range=(0.1, 0.3))
    cfg = ScenarioConfig(model=params, times=np.linspace(0.0, 4.0, 4), x0=1.0, bath_temperature=1.5)
    world = _prepare(cfg, None)
    rep = run_pod(cfg)
    n12, nsp = _dense_negativities(cfg, world)
    assert np.max(np.abs(rep.neg_12 - n12)) <= 1e-10
    assert np.max(np.abs(rep.neg_spep - nsp)) <= 1e-10
    assert n12.max() > 0.05  # the particle split is entangled at t = 4/3
    for i, t in enumerate(cfg.times):
        assert rep.purity_1[i] == pytest.approx(purity(reduce(evolved_state(world, t), [0])), abs=1e-12)


@SETTINGS
@given(models(), st.sampled_from([(0.0, True), (1.5, True), (1.5, False)]))
def test_default_split_equals_full_collective_map(params, bath):
    temperature, purified = bath
    cfg, _ = _world(params, temperature, purified=purified)
    smap = default_split(params)
    runs = [
        (run_pod, ("purity_1", "purity_sp", "neg_12", "neg_spep")),
        (run_marginal, ("mean_sp", "var_sp", "l1_distance")),
    ]
    if temperature == 0.0 or purified:
        runs += [(run_er_check, ("neg_12", "neg_spep")), (run_exclusivity, ("neg_spep",))]
    for run, fields in runs:
        default, full = run(cfg), run(cfg, smap)
        for name in fields:
            assert np.max(np.abs(getattr(default, name) - getattr(full, name))) <= 1e-12, (run.__name__, name)


@SETTINGS
@given(models(), st.floats(0.3, 3.0))
def test_closed_form_purification_equals_williamson_route(params, temperature):
    cfg, _ = _world(params, temperature)
    runs = [
        (run_pod, ("purity_1", "purity_sp", "neg_12", "neg_spep")),
        (run_exclusivity, ("neg_spep",)),
        (run_marginal, ("mean_1", "var_1", "mean_sp", "var_sp", "l1_distance")),
    ]
    for run, fields in runs:
        closed, reference = run(cfg), with_williamson_purification(run, cfg)
        for name in fields:
            gap = np.max(np.abs(getattr(closed, name) - getattr(reference, name)))
            assert gap <= 1e-10, (run.__name__, name, gap)


def test_rows_that_lose_canonicity_raise():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    _check_conjugate(rows)
    with pytest.raises(ConditioningError):
        _check_conjugate(rows * (1.0 + 1e-8))
