"""Properties of the closed-form normal-mode flow and the rows-only diagnostics,
including the grid route of er, exclusivity and marginal against their
per-sample references.

Random models come in three families: decoupled (a free or harmonic
particle with zero coupling, so a free particle has an exact zero mode),
harmonic (every normal mode stable) and unstable (a coupled free particle,
whose position form is indefinite).
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qbm_structures.experiments as ex
from qbm_structures.errors import ConditioningError, DomainError
from qbm_structures.gaussian import evolve, log_negativity, propagator, purity, reduce
from qbm_structures.cli import build_scenario, parse_config
from qbm_structures.experiments import (
    _BLOCK,
    ScenarioConfig,
    _check_conjugate,
    _prepare,
    gaussian_l1_distance,
    run_er_check,
    run_exclusivity,
    run_marginal,
    run_pod,
)
from qbm_structures.model import QuadraticHamiltonian, build_qbm_hamiltonian, position_block, symplectic_form
from qbm_structures.structure import StructureMap, cm_relative_map, normal_mode_map, normal_modes, transform_hamiltonian
from helpers import (
    default_split,
    dense_exclusivity,
    dense_flow,
    dense_star_modes,
    evolved_state,
    expm_flow,
    exclusivity_scenario,
    lift_total,
    map_split,
    per_sample_er,
    per_sample_exclusivity,
    per_sample_marginal,
    qr_projection,
    random_model,
    williamson_purify,
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


@SETTINGS
@given(models(), st.sampled_from([1.0, 64.0]), st.booleans())
def test_normal_modes_solve_the_generalized_eigenproblem(params, mass_scale, relative):
    # every bath mass times mass_scale at fixed J (kappa_i^2 / m_i unchanged): the collective split depends on it
    bath = tuple((m * mass_scale, w, k * math.sqrt(mass_scale)) for m, w, k in params.bath)
    params = dataclasses.replace(params, bath=bath)
    n = params.n_modes
    if relative:  # centre of mass + relative coordinates: a non-diagonal momentum block, through normal_mode_map
        H = transform_hamiltonian(build_qbm_hamiltonian(params), cm_relative_map(params.masses))
        B = H.position_block
        reference = scipy.linalg.eigh(B, np.linalg.inv(H.momentum_block), eigvals_only=True)
        scale = max(1.0, np.max(np.abs(reference)))
        decoupled = transform_hamiltonian(H, normal_mode_map(H, range(n)))
        assert np.max(np.abs(decoupled.position_block - np.diag(reference))) <= 1e-10 * scale
        assert np.max(np.abs(decoupled.momentum_block - np.eye(n))) <= 1e-10
        assert np.max(np.abs(decoupled.K[:n, n:])) <= 1e-10 * scale
        return
    B, masses = position_block(params), params.masses
    w, V = normal_modes(B, masses)
    reference = scipy.linalg.eigh(B, np.diag(masses), eigvals_only=True)
    assert np.max(np.abs(w - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))
    assert np.max(np.abs(B @ V - masses[:, None] * V * w)) <= 1e-10 * max(1.0, np.max(np.abs(B)))
    assert np.max(np.abs(V.T @ (masses[:, None] * V) - np.eye(n))) <= 1e-10


@SETTINGS
@given(models(), st.floats(0.0, 8.0))
def test_normal_mode_flow_equals_pade_propagator(params, t):
    _, world = _world(params)
    spectral = dense_flow(world, world.mode_flow(t))
    H = build_qbm_hamiltonian(params)
    pade = expm_flow(H, t)
    assert np.linalg.norm(spectral - pade) <= 1e-10 * max(1.0, np.linalg.norm(pade))


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.floats(0.0, 6.0))
def test_decoupled_propagator_equals_pade(seed, n, t):
    rng = np.random.default_rng(seed)
    K = np.diag(np.r_[rng.uniform(-2.0, 2.0, n) * rng.integers(0, 2, n), rng.uniform(0.2, 3.0, n)])
    H = QuadraticHamiltonian(n, K)
    pade = expm_flow(H, t)
    assert np.linalg.norm(propagator(H, t) - pade) <= 1e-10 * max(1.0, np.linalg.norm(pade))


@SETTINGS
@given(models(), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_normal_mode_flow_is_symplectic_group(params, t1, t2):
    _, world = _world(params, temperature=1.0)
    S1, S2, S12 = (dense_flow(world, world.mode_flow(t)) for t in (t1, t2, t1 + t2))
    scale = max(1.0, np.linalg.norm(S12))
    assert np.linalg.norm(S2 @ S1 - S12) <= 1e-10 * scale**2
    omega = symplectic_form(world.n_phys)
    for S in (S1, S2, S12):
        assert np.max(np.abs(S @ omega @ S.T - omega)) <= 1e-10 * max(1.0, np.max(np.abs(S))) ** 2


@SETTINGS
@given(models(), st.sampled_from([0.0, 1.5]))
def test_rows_only_diagnostics_equal_full_route(params, temperature):
    cfg, world = _world(params, temperature)
    rep = run_pod(cfg)
    smap = default_split(params)
    for i, t in enumerate(cfg.times):
        state = evolved_state(world, t)
        alt = evolve(state, lift_total(state, smap))
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
    states = [evolved_state(world, t) for t in cfg.times]
    lift = lift_total(states[0], default_split(cfg.model))
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
    cfg, world = _world(params, temperature, purified=purified)
    pair = map_split(default_split(params))
    for closed_form, from_map in zip(world.pair, pair):  # (m / M, 1) against (T[0], T^-1[:, 0])
        assert np.max(np.abs(closed_form - from_map)) <= 1e-12 * np.max(np.abs(from_map))
    runs = [
        (run_pod, ("purity_1", "purity_sp", "neg_12", "neg_spep")),
        (run_marginal, ("mean_sp", "var_sp", "l1_distance")),
    ]
    if temperature == 0.0 or purified:
        runs += [(run_er_check, ("neg_12", "neg_spep")), (run_exclusivity, ("neg_spep",))]
    for run, fields in runs:
        default, full = run(cfg), run(cfg, pair)
        for name in fields:
            assert np.max(np.abs(getattr(default, name) - getattr(full, name))) <= 1e-12, (run.__name__, name)


@SETTINGS
@given(models(), st.sampled_from([(0.0, False), (1.5, True), (1.5, False)]))
def test_identity_map_makes_both_splits_agree(params, bath):
    temperature, purified = bath
    cfg, _ = _world(params, temperature, purified=purified)
    e_1 = np.eye(1, params.n_modes)[0]
    split = (e_1, e_1)  # the particle split itself: both splits' columns are the same bits
    assert np.array_equal(*_prepare(cfg, split).splits)
    pod = run_pod(cfg, split)
    assert np.array_equal(pod.purity_1, pod.purity_sp)
    assert np.array_equal(pod.neg_12, pod.neg_spep)
    marginal = run_marginal(cfg, split)
    assert np.array_equal(marginal.mean_1, marginal.mean_sp) and np.array_equal(marginal.var_1, marginal.var_sp)
    assert np.all(marginal.l1_distance == 0.0)
    if temperature == 0.0 or purified:
        er = run_er_check(cfg, split)
        assert np.array_equal(er.neg_12, er.neg_spep) and not er.witnessed.any()
        assert np.all(run_exclusivity(cfg, split).neg_spep == 0.0)


@pytest.mark.parametrize(
    "split",
    [
        ([0.5, 0.5], [1.0, 1.0]),  # two entries on a three-mode model
        ([0.5, 0.25, 0.25], [1.0, 1.0, 1.0, 1.0]),
        ([0.5, 0.25, 0.25], [1.0, 1.0, 1.0 + 1e-9]),  # a.b = 1 + 2.5e-10
        ([0.5, 0.25, 0.25], [1.0, float("nan"), 1.0]),
        ([0.5, float("inf"), 0.25], [1.0, 1.0, 1.0]),
    ],
)
def test_a_split_that_is_not_a_conjugate_pair_raises(split):
    params = random_model(np.random.default_rng(0), 2, potential="harmonic")
    cfg = ScenarioConfig(model=params, times=np.linspace(0.0, 1.0, 3), x0=1.0)
    with pytest.raises(DomainError, match="split"):
        run_pod(cfg, split)


def _completed_map(a, b):
    """A full StructureMap with T[0] = a and T^-1[:, 0] = b (for a.b = 1): the other rows of T span b's complement."""
    complement = np.linalg.qr(b[:, None], mode="complete")[0][:, 1:].T
    return StructureMap(np.vstack([a, complement]))


@SETTINGS
@given(
    models(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1.0, 64.0]),
    st.sampled_from([(0.0, True), (1.5, True), (1.5, False)]),
)
def test_any_split_equals_the_dense_route_of_a_full_map(params, seed, mass_scale, bath):
    # the I (+) D claim for every split: only the mode-0 pair matters, not the rest of the map
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, params.n_modes))
    assume(abs(a @ b) >= 0.3 * np.linalg.norm(a) * np.linalg.norm(b))  # off near-orthogonal, ill-conditioned T
    scale = math.sqrt(abs(a @ b))
    a, b = a / scale, b / (scale * np.sign(a @ b))
    temperature, purified = bath
    # the same spectral density J with every bath mass scaled: m_i -> s m_i, kappa_i -> sqrt(s) kappa_i
    scaled = tuple((mass_scale * m, w, math.sqrt(mass_scale) * k) for m, w, k in params.bath)
    cfg, world = _world(dataclasses.replace(params, bath=scaled), temperature, purified=purified)
    smap = _completed_map(a, b)
    pod, marginal = run_pod(cfg, (a, b)), run_marginal(cfg, (a, b))
    for i, t in enumerate(cfg.times):
        state = evolved_state(world, t)
        alt = evolve(state, lift_total(state, smap))
        assert pod.purity_sp[i] == pytest.approx(purity(reduce(alt, [0])), abs=1e-10)
        assert pod.neg_spep[i] == pytest.approx(log_negativity(alt, [0]), abs=1e-9)
        assert marginal.mean_sp[i] == pytest.approx(alt.mean[0], rel=1e-10, abs=1e-10)
        assert marginal.var_sp[i] == pytest.approx(alt.cov[0, 0], rel=1e-10)
    if temperature == 0.0 or purified:
        gap = np.abs(run_exclusivity(cfg, (a, b)).neg_spep - dense_exclusivity(cfg, smap=smap))
        assert np.max(gap) <= 1e-10


@SETTINGS
@given(models(), st.floats(0.3, 3.0))
def test_closed_form_purification_equals_williamson_route(params, temperature):
    cfg, world = _world(params, temperature)
    smap = default_split(params)
    states = [evolved_state(world, t, williamson_purify) for t in cfg.times]
    alts = [evolve(s, lift_total(s, smap)) for s in states]
    moments = np.array([[s.mean[0], s.cov[0, 0], a.mean[0], a.cov[0, 0]] for s, a in zip(states, alts)])
    dense = {
        "purity_1": [purity(reduce(s, [0])) for s in states],
        "purity_sp": [purity(reduce(a, [0])) for a in alts],
        "neg_12": [log_negativity(s, [0]) for s in states],
        "neg_spep": [log_negativity(a, [0]) for a in alts],
        **dict(zip(("mean_1", "var_1", "mean_sp", "var_sp"), moments.T)),
        "l1_distance": [gaussian_l1_distance(*m) for m in moments],
    }
    runs = [
        (run_pod(cfg), ("purity_1", "purity_sp", "neg_12", "neg_spep")),
        (run_marginal(cfg), ("mean_1", "var_1", "mean_sp", "var_sp", "l1_distance")),
    ]
    for report, fields in runs:
        for name in fields:
            gap = np.max(np.abs(getattr(report, name) - np.asarray(dense[name])))
            assert gap <= 1e-10, (name, gap)
    gap = np.max(np.abs(run_exclusivity(cfg).neg_spep - dense_exclusivity(cfg, williamson_purify)))
    assert gap <= 1e-10, ("branch neg_spep", gap)


def test_rows_that_lose_canonicity_raise():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    _check_conjugate(rows)
    with pytest.raises(ConditioningError):
        _check_conjugate(rows * (1.0 + 1e-8))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.sampled_from([1.0, 1e-3, 1e-6, 1e-9]), st.booleans())
def test_cgs2_projection_equals_the_qr_projection(seed, size, angle, inside):
    # two backward-stable projections differ by eps |h| times the span's condition 1 / sin(angle between its rows)
    rng = np.random.default_rng(seed)
    s1 = rng.standard_normal(size) * 10 ** rng.uniform(-3.0, 3.0)
    s2 = s1 * rng.uniform(-2.0, 2.0) + angle * np.linalg.norm(s1) * rng.standard_normal(size)
    span = np.array([s1, s2])
    h = rng.standard_normal((2, size)) * 10 ** rng.uniform(-3.0, 3.0)
    if inside:  # mostly in the span, as g_b is on an unstable run: the projection cancels
        h += rng.standard_normal((2, 2)) @ span * 10 ** rng.uniform(0.0, 8.0)
    sin = np.linalg.norm(s2 - s1 * (s1 @ s2) / (s1 @ s1)) / np.linalg.norm(s2)
    gap = np.max(np.abs(ex._project_off(h, span) - qr_projection(h, span)))
    assert gap <= 1e-13 * np.max(np.abs(h)) / sin


def test_cgs2_projection_equals_the_qr_projection_on_late_unstable_rows():
    # the branch projection of run_exclusivity on the free particle until its roundoff bound reaches the threshold
    cfg = dataclasses.replace(exclusivity_scenario(), times=np.linspace(0.0, 25.0, 51))
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, potential="free", omega=None))
    world = _prepare(cfg, None)
    r_a = np.diag(world.pair[:, 0])
    rows_1, rows_sp = world.split_rows(cfg.times).swapaxes(0, 1)
    h = np.concatenate([world.lift(rows_sp - r_a @ rows_1), np.zeros((len(cfg.times), 2, 2))], axis=-1)
    span = np.concatenate([world.lift(rows_1), np.broadcast_to(np.sqrt(2 * world.width), (len(cfg.times), 2, 2))], -1)
    assert np.max(np.abs(h)) > 1e6  # the rows have grown by six orders
    gap = np.abs(ex._project_off(h, span) - qr_projection(h, span))
    assert np.all(np.max(gap, axis=(1, 2)) <= 1e-13 * np.max(np.abs(h), axis=(1, 2)))


# ---------------------------------------------------------------------------
# the grid route against the per-sample loop it replaced

GRID_RUNS = (
    (run_er_check, per_sample_er, ("neg_12", "neg_spep")),
    (run_exclusivity, per_sample_exclusivity, ("neg_spep",)),
    (run_marginal, per_sample_marginal, ("mean_1", "var_1", "mean_sp", "var_sp", "l1_distance")),
)


def _assert_grid_matches_per_sample(cfg, split=None):
    for run, reference, fields in GRID_RUNS:
        report, expected = run(cfg, split), reference(cfg, split).reshape(len(cfg.times), -1)
        grid = np.column_stack([getattr(report, name) for name in fields])
        assert grid.shape == expected.shape
        gap = np.abs(grid - expected) / np.maximum(1.0, np.abs(expected))
        assert np.max(gap) <= 1e-12, (run.__name__, np.max(gap))
    world = _prepare(cfg, split)  # a time's rows are the same on any grid that holds it
    whole = world.split_rows(cfg.times)
    for i in range(len(cfg.times)):
        assert np.array_equal(whole[i], world.split_rows(cfg.times[i : i + 1])[0])


@SETTINGS
@given(
    models(),
    st.sampled_from([(0.0, False), (1.5, True)]),
    st.one_of(st.sampled_from([1, 2]), st.integers(3, 12)),
    st.floats(0.5, 8.0),
)
@example(random_model(np.random.default_rng(7), 3), (1.5, True), _BLOCK + 1, 6.0)
def test_grid_runs_equal_the_per_sample_loop(params, bath, n_times, t_max):
    temperature, purified = bath
    cfg = ScenarioConfig(
        model=params,
        times=np.linspace(0.0, t_max, n_times),
        x0=1.0,
        p0=-0.4,
        bath_temperature=temperature,
        purified=purified,
    )
    _assert_grid_matches_per_sample(cfg)


@pytest.mark.parametrize(
    "text",
    [
        "",  # the default free particle: coupled, so one normal mode is unstable
        "[model]\nbath_omegas = 0.7 1.1 1.9\nbath_kappas = 0.2 0.1 0.3\nbath_masses = 1.2 0.9 1.0\n",
        "[model]\npotential = harmonic\nomega = 1.0\nbath_omegas = 0.8 1.3\nbath_kappas = 0.3 0.2\n"
        "[initial]\ntemperature = 2.0\npurified = true\n",
    ],
)
def test_cli_models_grid_equals_per_sample_loop(text):
    cfg = build_scenario(parse_config(f"[scenario]\nkind = er\n{text}[times]\nn_points = {_BLOCK + 1}\n"))
    _assert_grid_matches_per_sample(cfg)
    split = map_split(default_split(cfg.model))
    _assert_grid_matches_per_sample(ScenarioConfig(cfg.model, cfg.times[:2], 1.0, 0.3), split)


def test_degenerate_bath_runs_equal_the_dense_references(monkeypatch):
    # three bath modes at one frequency, one uncoupled: the secular solver deflates two normal modes
    text = "[scenario]\nkind = pod\n[model]\nbath_omegas = 1.2 1.2 1.2\nbath_kappas = 0.1 0.1 0\n"
    cfg = build_scenario(parse_config(f"{text}[times]\nn_points = {_BLOCK + 1}\n"))
    pod = run_pod(cfg)
    grid = [(run(cfg), fields) for run, _, fields in GRID_RUNS]
    monkeypatch.setattr(ex, "star_normal_modes", dense_star_modes)  # from here on _prepare solves with eigh
    world = _prepare(cfg, None)
    smap = default_split(cfg.model)
    for i, t in enumerate(cfg.times):
        state = evolved_state(world, t)
        alt = evolve(state, lift_total(state, smap))
        assert pod.purity_1[i] == pytest.approx(purity(reduce(state, [0])), abs=1e-10)
        assert pod.purity_sp[i] == pytest.approx(purity(reduce(alt, [0])), abs=1e-10)
        assert pod.neg_12[i] == pytest.approx(log_negativity(state, [0]), abs=1e-9)
        assert pod.neg_spep[i] == pytest.approx(log_negativity(alt, [0]), abs=1e-9)
    for (report, fields), (_, reference, _) in zip(grid, GRID_RUNS):
        expected = reference(cfg).reshape(len(cfg.times), -1)
        got = np.column_stack([getattr(report, name) for name in fields])
        assert np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected))) <= 1e-12, reference.__name__


def test_grid_runs_take_stacked_calls_per_block(monkeypatch):
    cfg = dataclasses.replace(exclusivity_scenario(), times=np.linspace(0.0, 10.0, 2 * _BLOCK + 1))
    blocks = math.ceil(len(cfg.times) / _BLOCK)
    calls = Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in [(ex, "propagator"), (ex, "_decoupled_flow"), (ex, "_check_conjugate"), (ex._World, "lift")]:
        spy(owner, name)
    spy(ex, "_project_off")  # exclusivity's branch projection, one per block
    most_per_block = {run_er_check: {"lift": 1}, run_exclusivity: {"lift": 2, "_project_off": 1}, run_marginal: {}}
    for run, most in most_per_block.items():
        calls.clear()
        run(cfg)
        assert calls["propagator"] == 0, run.__name__
        assert calls["_decoupled_flow"] == blocks, run.__name__
        assert calls["_check_conjugate"] <= 3 * blocks + 1, run.__name__
        for name in ("lift", "_project_off"):
            assert calls[name] == most.get(name, 0) * blocks, (run.__name__, name)
