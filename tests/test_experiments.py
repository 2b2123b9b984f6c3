import dataclasses
import math
import os

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbm_structures.fock_oracle as fo
from qbm_structures import (
    BathSpec,
    ConditioningError,
    DomainError,
    GaussianState,
    ModelParams,
    discretize_bath,
    build_qbm_hamiltonian,
    evolve,
    log_negativity,
    propagator,
    purity,
    reduce,
    symplectic_form,
)
from qbm_structures.experiments import (
    ScenarioConfig,
    _prepare,
    gaussian_l1_distance,
    marginal_incompatibility,
    run_er_check,
    run_marginal,
    run_exclusivity,
    run_oracle_compare,
    run_pod,
)
from qbm_structures.structure import collective_mode_map
from helpers import (
    DATA_DIR,
    branch_proxy,
    default_split,
    dense_factor,
    dense_initial,
    evolved_state,
    exclusivity_scenario,
    l1_distance_per_pair,
    lift_total,
    oracle_scenario,
    pod_scenario,
    random_model,
    workload,
)
from reference import mode_transform, pure_log_negativity
from reference_pod_negativity import model_matrices

BASELINE_TOL = 1e-10
PARTICLE_SPLIT = ([1.0, 0.0], [1.0, 0.0])  # (e_1, e_1) on small_scenario's two modes


def _baseline(name):
    path = os.path.join(os.path.dirname(__file__), DATA_DIR, name)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def small_scenario(kappa=0.2, temperature=0.0, purified=False, n_times=6, t_max=4.0):
    params = ModelParams(
        m1=1.0, bath=((1.0, 1.3, kappa),), potential="harmonic", omega=1.0
    )
    return ScenarioConfig(
        model=params,
        times=np.linspace(0.0, t_max, n_times),
        x0=1.0,
        bath_temperature=temperature,
        purified=purified,
    )


# ---------------------------------------------------------------------------
# config validation


def test_times_must_start_at_zero_and_increase():
    params = ModelParams(m1=1.0, bath=((1.0, 1.0, 0.1),))
    with pytest.raises(DomainError):
        ScenarioConfig(model=params, times=np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        ScenarioConfig(model=params, times=np.array([0.0, 2.0, 1.0]))
    with pytest.raises(DomainError):
        ScenarioConfig(model=params, times=np.array([0.0]), particle_state="squeezed")


# ---------------------------------------------------------------------------
# parallel decoherence


def test_pod_decoupled_universe_keeps_purity():
    cfg = small_scenario(kappa=0.0, n_times=5)
    rep = run_pod(cfg)
    assert np.allclose(rep.purity_1, rep.purity_1[0], atol=1e-10)
    assert np.all(rep.neg_12 == 0.0)


def test_pod_coupled_run_decoheres_both_sides():
    cfg = small_scenario(kappa=0.35, temperature=1.5, purified=True, n_times=8)
    rep = run_pod(cfg)
    assert rep.purity_1[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(rep.purity_1[1:] < 1.0)
    assert np.all(rep.purity_sp < 1.0)
    assert np.all((rep.purity_1 > 0) & (rep.purity_1 <= 1 + 1e-12))
    assert np.all(rep.neg_spep >= 0.0)


def test_collective_half_time_starts_from_its_initial_purity():
    # purified thermal bath: the collective mode starts mixed (purity 0.11), and its half-time is not 0
    _, cfg = workload("pod-wide")
    rep = run_pod(cfg)
    p = rep.purity_sp
    tail = math.ceil(0.2 * p.size)
    threshold = (p[0] + np.mean(p[-tail:])) / 2
    first = int(np.argmax(p < threshold))
    assert p[0] < 0.2 and first > 0 and np.all(p[:first] >= threshold)
    assert rep.half_time_sp > 0
    assert rep.times[first - 1] < rep.half_time_sp <= rep.times[first]
    assert rep.purity_1[0] == pytest.approx(1.0, abs=1e-12) and rep.half_time_1 > 0


def test_half_time_is_nan_when_the_purity_does_not_decay():
    # the exclusivity-long model run as pod: the collective purity starts at 0.342 and ends near 0.40
    _, cfg = workload("exclusivity-long")
    cfg = dataclasses.replace(cfg, times=np.linspace(0.0, cfg.times[-1], 50))
    rep = run_pod(cfg)
    p = rep.purity_sp
    assert np.mean(p[-math.ceil(0.2 * p.size) :]) > p[0] and p.min() < p[0]
    assert math.isnan(rep.half_time_sp)
    assert rep.half_time_1 > 0


def test_pod_early_time_monotone_decay():
    cfg = pod_scenario()
    shortest_period = 2 * np.pi / max(w for _, w, _ in cfg.model.bath)
    quarter = shortest_period / 4
    rep = run_pod(cfg)
    early = rep.times <= quarter + 1e-12
    assert early.sum() >= 2
    assert np.all(np.diff(rep.purity_1[early]) < 1e-9)


def test_pod_matches_fock_oracle_n2():
    # one coupled three-mode instance, all four reported quantities checked
    # against the dense number-basis route at every sampled time
    params = ModelParams(
        m1=1.0, bath=((1.0, 0.9, 0.12), (1.0, 1.4, 0.12)), potential="harmonic", omega=1.0
    )
    times = np.linspace(0.0, 3.0, 3)
    cfg = ScenarioConfig(model=params, times=times, x0=0.8)
    rep = run_pod(cfg)

    H = build_qbm_hamiltonian(params)
    comp = collective_mode_map(H, params.masses)
    space = fo.FockSpace.for_model(params, (14, 12, 12))
    psi0 = fo.gaussian_to_fock(dense_initial(cfg), space)
    evolver = fo.DenseEvolver(fo.build_fock_hamiltonian(params, space), space)

    for i, t in enumerate(times):
        ft = evolver.propagate(psi0, t)
        rho1 = fo.reduced_density(ft, [0])
        assert fo.purity_density(rho1) == pytest.approx(rep.purity_1[i], abs=1e-6)
        assert pure_log_negativity(ft, [0]) == pytest.approx(rep.neg_12[i], abs=1e-6)
        fa = mode_transform(ft, comp.lift)
        assert fo.purity_density(fo.reduced_density(fa, [0])) == pytest.approx(
            rep.purity_sp[i], abs=1e-6
        )
        # trace-norm negativity of a truncated state converges only like the
        # square root of the leaked probability, so its tolerance is coarser;
        # the densely measured covariance pins the same quantity at 1e-6
        assert pure_log_negativity(fa, [0]) == pytest.approx(rep.neg_spep[i], abs=5e-4)
        mean_f, cov_f = fo.state_moments(ft)
        lift = comp.lift
        alt_state = GaussianState(lift @ mean_f, lift @ cov_f @ lift.T)
        assert log_negativity(alt_state, [0]) == pytest.approx(rep.neg_spep[i], abs=1e-6)


# ---------------------------------------------------------------------------
# entanglement relativity


def test_er_initial_product_is_witnessed():
    cfg = small_scenario(n_times=2, t_max=1.0)
    rep = run_er_check(cfg)
    assert rep.neg_12[0] < 1e-8
    assert rep.neg_spep[0] > 1e-3
    assert bool(rep.witnessed[0])


def test_er_identity_map_gives_equal_negativities():
    cfg = small_scenario(n_times=4)
    rep = run_er_check(cfg, split=PARTICLE_SPLIT)
    assert np.allclose(rep.neg_12, rep.neg_spep, atol=1e-12)
    assert not rep.witnessed.any()


def test_er_decoupled_product_stays_product():
    cfg = small_scenario(kappa=0.0, n_times=5)
    rep = run_er_check(cfg)
    assert np.all(rep.neg_12 == 0.0)


def test_er_requires_pure_global_state():
    cfg = small_scenario(temperature=1.0, purified=False, n_times=2)
    with pytest.raises(DomainError):
        run_er_check(cfg)


# ---------------------------------------------------------------------------
# exclusivity


def test_exclusivity_identity_map_never_flags():
    cfg = small_scenario(n_times=4)
    rep = run_exclusivity(cfg, split=PARTICLE_SPLIT)
    assert np.all(rep.neg_spep < 1e-10)
    assert rep.flagged_fraction == 0.0


def test_exclusivity_t0_matches_er_value():
    cfg = small_scenario(n_times=2, t_max=1.0)
    er = run_er_check(cfg)
    ex = run_exclusivity(cfg)
    # at t = 0 the branch proxy is the initial product state itself
    assert ex.neg_spep[0] == pytest.approx(er.neg_spep[0], abs=1e-9)
    assert bool(ex.excluding[0])


def test_exclusivity_requires_coherent_particle_and_purity():
    cfg = small_scenario(temperature=1.0, purified=False, n_times=2)
    with pytest.raises(DomainError):
        run_exclusivity(cfg)


def test_branch_proxy_is_product_form():
    cfg = small_scenario(kappa=0.3, n_times=2, t_max=2.0)
    world = _prepare(cfg, None)
    state = evolved_state(world, 2.0)
    proxy = branch_proxy(state, world.width)
    assert log_negativity(proxy, [0]) == 0.0
    assert purity(reduce(proxy, [0])) == pytest.approx(1.0, abs=1e-10)
    assert proxy.mean[0] == pytest.approx(state.mean[0])


# ---------------------------------------------------------------------------
# marginal incompatibility


def test_l1_distance_closed_form_vs_quadrature():
    # dense trapezoid handles the |f - g| kinks better than adaptive quadrature
    rng = np.random.default_rng(21)
    pairs = [(*rng.uniform(-2, 2, size=2), *rng.uniform(0.05, 3.0, size=2)) for _ in range(12)]
    # far apart: the densities cross 8.9 sigma above the first mean and below the second,
    # out in tails where 1 - (upper tail) would cancel and the CDF must come from erfc
    pairs.append((-4.5, 5.0, 0.27, 0.3))
    for m1, m2, v1, v2 in pairs:
        closed = gaussian_l1_distance(m1, v1, m2, v2)
        lo = min(m1, m2) - 12 * max(np.sqrt(v1), np.sqrt(v2))
        hi = max(m1, m2) + 12 * max(np.sqrt(v1), np.sqrt(v2))
        grid = np.linspace(lo, hi, 2_000_001)
        diff = np.abs(
            scipy.stats.norm.pdf(grid, m1, np.sqrt(v1))
            - scipy.stats.norm.pdf(grid, m2, np.sqrt(v2))
        )
        assert closed == pytest.approx(np.trapezoid(diff, grid), abs=1e-6)


def test_run_marginal_matches_pointwise_reports():
    cfg = small_scenario(kappa=0.3, temperature=1.0, purified=True, n_times=4)
    rep = run_marginal(cfg)
    for i, t in enumerate(cfg.times):
        point = marginal_incompatibility(cfg, t)
        assert point.times.tolist() == [t]
        assert (rep.mean_1[i], rep.var_1[i], rep.mean_sp[i], rep.var_sp[i], rep.l1_distance[i]) == (
            *point.mean_1,
            *point.var_1,
            *point.mean_sp,
            *point.var_sp,
            *point.l1_distance,
        )


def test_l1_distance_identical_is_zero():
    assert gaussian_l1_distance(0.3, 1.2, 0.3, 1.2) == 0.0


@st.composite
def moment_pairs(draw):
    """(mean_a, var_a, mean_b, var_b), with equal variances (one crossing) and equal pairs (distance 0) mixed in."""
    means = st.floats(-50.0, 50.0)
    variances = st.floats(1e-6, 1e6)
    mean_a, var_a, mean_b, var_b = draw(st.tuples(means, variances, means, variances))
    kind = draw(st.sampled_from(["any", "equal variances", "equal means", "equal"]))
    if kind in ("equal variances", "equal"):
        var_b = var_a
    if kind in ("equal means", "equal"):
        mean_b = mean_a + draw(st.sampled_from([0.0, 1e-15, -3e-15]))
    return mean_a, var_a, mean_b, var_b


@settings(max_examples=100, deadline=None)
@given(st.lists(moment_pairs(), min_size=1, max_size=40))
@example([(2.759, 1.0, 0.0, 2.0)])  # libm pow and x * x square 2.759 one ulp apart, which shows in the distance
def test_l1_distance_on_a_block_has_the_per_pair_bits(pairs):
    # the marginal column of a block is the same floats that one scalar evaluation per time gave
    assert gaussian_l1_distance(*np.array(pairs).T).tolist() == [l1_distance_per_pair(*p) for p in pairs]


def test_marginal_identity_map_is_zero():
    cfg = small_scenario(n_times=2)
    rep = marginal_incompatibility(cfg, 0.0, split=PARTICLE_SPLIT)
    assert rep.l1_distance.tolist() == [0.0]


def test_marginal_generic_map_exceeds_threshold():
    rep = marginal_incompatibility(pod_scenario(), 0.0)
    assert rep.l1_distance[0] > 0.1


def test_marginal_translation_covariance():
    # shifting both position axes by the same amount leaves the distance alone
    rep = marginal_incompatibility(small_scenario(n_times=2), 1.0)
    ((mean_1, var_1, mean_sp, var_sp),) = np.column_stack([rep.mean_1, rep.var_1, rep.mean_sp, rep.var_sp])
    a = gaussian_l1_distance(mean_1, var_1, mean_sp, var_sp)
    b = gaussian_l1_distance(mean_1 + 5.0, var_1, mean_sp + 5.0, var_sp)
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# consistency of the two observable routes


def test_transformed_state_matches_transformed_operators():
    cfg = small_scenario(kappa=0.3, n_times=2, t_max=3.0)
    world = _prepare(cfg, None)
    comp = default_split(cfg.model)
    state = evolved_state(world, 3.0)
    alt = evolve(state, lift_total(state, comp))
    n = state.n_modes
    # <X_Sp>, var(X_Sp) via transformed state vs via the row of T acting on
    # the original moments (Heisenberg route)
    row = np.zeros(2 * n)
    row[: comp.n_modes] = comp.T[0]
    assert alt.mean[0] == pytest.approx(row @ state.mean, rel=1e-8)
    assert alt.cov[0, 0] == pytest.approx(row @ state.cov @ row, rel=1e-8)


# ---------------------------------------------------------------------------
# recorded baselines


def test_pod_replays_baseline():
    header, base = _baseline("pod_baseline.csv")
    assert header == ["t", "purity_1", "purity_Sp", "neg_12", "neg_SpEp"]
    rep = run_pod(pod_scenario())
    got = np.column_stack([rep.times, rep.purity_1, rep.purity_sp, rep.neg_12, rep.neg_spep])
    assert got.shape == base.shape
    assert np.max(np.abs(got - base)) <= BASELINE_TOL


def test_exclusivity_replays_baseline():
    header, base = _baseline("exclusivity_baseline.csv")
    assert header == ["t", "neg_SpEp_branch", "excluding"]
    rep = run_exclusivity(exclusivity_scenario())
    got = np.column_stack([rep.times, rep.neg_spep, rep.excluding.astype(float)])
    assert got.shape == base.shape
    assert np.max(np.abs(got - base)) <= BASELINE_TOL


def test_pod_baseline_satisfies_pure_state_identity():
    # pure global state: purity of the single-mode reduction is 1 / (2 nu)
    # and E_N = log2(2 nu + 2 sqrt(nu^2 - 1/4)), so purity = sech(E_N ln 2)
    _, base = _baseline("pod_baseline.csv")
    for purity_col, neg_col in ((1, 3), (2, 4)):
        expected = np.array([1.0 / math.cosh(v * math.log(2.0)) for v in base[:, neg_col]])
        assert np.max(np.abs(base[:, purity_col] - expected)) <= BASELINE_TOL


# ---------------------------------------------------------------------------
# 50-digit references on an unstable free particle


def _free_particle(temperature):
    params = ModelParams(m1=1.0, bath=discretize_bath(BathSpec(n_modes=3, gamma=0.2, cutoff=5.0)))
    return ScenarioConfig(model=params, times=np.array([0.0, 5.0, 10.0]), x0=2.0, bath_temperature=temperature)


def _mp_block(matrix, rows, cols):
    return mp.matrix([[matrix[i, j] for j in cols] for i in rows])


def _mp_reference(cfg):
    """Per time: neg_12 and neg_SpEp of the global state, and the branch negativity (pure states).

    Independent of the package's numerics: mpmath's expm of Omega K, the
    dense state S sigma0 S^T, partial transposition by a momentum flip, the
    full centre-of-mass lift, and conditioning on the coherent projection
    of the particle by a Schur complement.
    """
    generator, sigma0 = model_matrices(cfg)
    n = cfg.model.n_modes
    masses = [mp.mpf(m) for m in cfg.model.masses]
    T = mp.zeros(n, n)
    for j in range(n):
        T[0, j] = masses[j] / mp.fsum(masses)
    for a in range(1, n):
        T[a, 0], T[a, a] = 1, -1
    lift = mp.diag([1] * (2 * n))
    lift[:n, :n], lift[n:, n:] = T, (T**-1).T
    omega = mp.zeros(2 * n, 2 * n)
    for i in range(n):
        omega[i, n + i], omega[n + i, i] = 1, -1
    flip = mp.diag([1] * n + [-1] + [1] * (n - 1))

    def negativity(sigma):
        nus = sorted(abs(e) for e in mp.eig(omega * flip * sigma * flip, left=False, right=False))[::2]
        return mp.fsum(-mp.log(2 * nu, 2) for nu in nus if nu < mp.mpf(1) / 2)

    width = mp.diag([1 / (2 * masses[0]), masses[0] / 2])  # free particle: unit width frequency
    a, b = [0, n], [i for i in range(2 * n) if i not in (0, n)]
    out = []
    for t in cfg.times:
        S = mp.expm(generator * mp.mpf(t))
        sigma = S * mp.diag(sigma0) * S.T
        branch = mp.zeros(2 * n, 2 * n)
        branch[0, 0], branch[n, n] = width[0, 0], width[1, 1]
        sab = _mp_block(sigma, b, a)
        cond = _mp_block(sigma, b, b) - sab * (_mp_block(sigma, a, a) + width) ** -1 * sab.T
        for i, bi in enumerate(b):
            for j, bj in enumerate(b):
                branch[bi, bj] = cond[i, j]
        out.append([negativity(sigma), negativity(lift * sigma * lift.T), negativity(lift * branch * lift.T)])
    return np.array(out, dtype=float)


def test_mixed_pod_matches_50_digit_reference():
    cfg = _free_particle(0.5)
    with mp.workdps(50):
        ref = _mp_reference(cfg)
    rep = run_pod(cfg)
    assert np.max(np.abs(rep.neg_12 - ref[:, 0])) < 1e-6
    assert np.max(np.abs(rep.neg_spep - ref[:, 1])) < 1e-6


def test_exclusivity_matches_50_digit_reference():
    cfg = _free_particle(0.0)
    with mp.workdps(50):
        ref = _mp_reference(cfg)
    assert np.max(np.abs(run_exclusivity(cfg).neg_spep - ref[:, 2])) < 1e-6


def test_exclusivity_reports_the_unstable_branch_until_its_roundoff_bound_reaches_the_threshold():
    # the old bound grew as |g_b|^2 and floored these accurate values to 0 from t = 21 on; the first-order one
    # stays below y2 = sinh(1e-3 ln 2)^2 of EXCLUSIVITY_THRESHOLD until t = 25
    cfg = dataclasses.replace(_free_particle(0.0), times=np.array([0.0, 19.0, 21.0, 22.0, 25.0]))
    with mp.workdps(50):
        ref = _mp_reference(cfg)[:, 2]
    rep = run_exclusivity(cfg)
    assert np.max(np.abs(rep.neg_spep - ref)) < 1e-7
    assert rep.excluding.all() and np.min(ref) > 0.8
    e_1 = np.eye(1, cfg.model.n_modes)[0]
    assert np.all(run_exclusivity(cfg, (e_1, e_1)).neg_spep == 0.0)  # the split that fixes mode 0
    with pytest.raises(ConditioningError, match=r"roundoff can hide an excluding branch at t = 30 \("):
        run_exclusivity(dataclasses.replace(cfg, times=np.array([0.0, 25.0, 30.0, 35.0])))


# ---------------------------------------------------------------------------
# oracle comparison harness


def test_oracle_compare_small_instance():
    cfg = oracle_scenario(1)
    times = np.linspace(0.0, cfg.times[-1], 6)
    cfg = ScenarioConfig(
        model=cfg.model, times=times, x0=cfg.x0, p0=cfg.p0
    )
    rep = run_oracle_compare(cfg, cutoffs=18, certify=True, bump=8)
    assert rep.max_abs_delta < 1e-6
    assert rep.certification_delta is not None and rep.certification_delta < 1e-8


@pytest.mark.parametrize("planted", ["delta_mean", "delta_cov"])
def test_oracle_compare_charges_each_moment_to_its_delta(monkeypatch, planted):
    # an error planted in one Fock moment of the particle shows in its own delta only
    cfg = oracle_scenario(1)
    cfg = ScenarioConfig(model=cfg.model, times=cfg.times[:3], x0=cfg.x0, p0=cfg.p0)
    real_diagnostics = fo.branch_diagnostics

    def planted_diagnostics(amps, space):
        table = real_diagnostics(amps, space)
        table[:, 2 if planted == "delta_mean" else 6] += 1e-3  # <p_0> or var(p_0)
        return table

    monkeypatch.setattr(fo, "branch_diagnostics", planted_diagnostics)
    rep = run_oracle_compare(cfg, cutoffs=18)
    for name in ("delta_purity", "delta_mean", "delta_cov", "delta_decoherence"):
        expected = 1e-3 if name == planted else 0.0
        assert np.abs(getattr(rep, name) - expected).max() < 1e-6, name


def test_oracle_compare_is_the_same_on_blocks_of_the_grid(monkeypatch):
    # blocks of two grid times (the last one a single time) give the report of one block over the grid
    cfg = oracle_scenario(2)
    cfg = ScenarioConfig(model=cfg.model, times=cfg.times[:5], x0=cfg.x0, p0=cfg.p0)
    whole = run_oracle_compare(cfg, cutoffs=10, certify=True, bump=2)
    monkeypatch.setattr(fo, "GRID_SPAN", 2)
    blocks = run_oracle_compare(cfg, cutoffs=10, certify=True, bump=2)
    for name in ("delta_purity", "delta_mean", "delta_cov", "delta_decoherence", "certification_delta"):
        assert np.abs(getattr(blocks, name) - getattr(whole, name)).max() < 1e-13, name


def test_oracle_compare_forms_no_dense_hamiltonian(monkeypatch):
    # on the benchmark's oracle-compare model (dimension 1000) the Fock route builds
    # no dense H and diagonalises nothing larger than one mode's basis in gaussian_to_fock
    run_cfg, scenario = workload("oracle-compare")
    sizes = []
    for name in ("eigh", "eigvalsh"):

        def spy(a, *args, real=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)

    def dense_route(*args, **kwargs):
        raise AssertionError("the dense Fock route was called")

    monkeypatch.setattr(fo, "build_fock_hamiltonian", dense_route)
    monkeypatch.setattr(fo, "DenseEvolver", dense_route)
    run_oracle_compare(scenario, run_cfg.cutoff)
    assert fo.FockSpace.for_model(scenario.model, run_cfg.cutoff).dim == 1000
    assert max(sizes) == run_cfg.cutoff + 8


def test_oracle_compare_rejects_large_or_warm_runs():
    params = ModelParams(m1=1.0, bath=((1.0, 1.0, 0.1),) * 3)
    cfg = ScenarioConfig(model=params, times=np.array([0.0, 1.0]), x0=1.0)
    with pytest.raises(DomainError):
        run_oracle_compare(cfg)
    warm = small_scenario(temperature=1.0, n_times=2)
    with pytest.raises(DomainError):
        run_oracle_compare(warm)


# ---------------------------------------------------------------------------
# initial state per mode


def wide_scenario(temperature=2.0, purified=True, n_bath=128):
    """A harmonic particle with an Ohmic bath of n_bath modes (the marginal-wide model)."""
    params = ModelParams(
        m1=1.0,
        bath=discretize_bath(BathSpec(n_modes=n_bath, gamma=0.2, cutoff=5.0)),
        potential="harmonic",
        omega=1.0,
    )
    return ScenarioConfig(
        model=params,
        times=np.linspace(0.0, 10.0, 2),
        x0=2.0,
        bath_temperature=temperature,
        purified=purified,
    )


@pytest.mark.parametrize("temperature, purified", [(2.0, True), (2.0, False), (0.0, False)])
def test_lift_is_a_symplectic_factor_of_the_initial_state(temperature, purified):
    cfg = wide_scenario(temperature, purified)
    world = _prepare(cfg, None)
    n = world.n_phys
    initial = dense_initial(cfg)
    idx = np.r_[0:n, initial.n_modes : initial.n_modes + n]
    assert np.array_equal(world.mean, initial.mean[idx])
    assert np.array_equal(np.diag(world.var), initial.cov[np.ix_(idx, idx)])
    G = world.lift(np.eye(2 * n))
    scale = max(1.0, np.max(np.abs(G)) ** 2)
    F = dense_factor(cfg)
    assert np.max(np.abs(G @ G.T - 2 * np.diag(world.var))) <= 1e-12 * scale
    assert np.max(np.abs(G @ G.T - F @ F.T)) <= 1e-12 * scale
    omega = symplectic_form(G.shape[1] // 2)
    assert np.max(np.abs(G @ omega @ G.T - symplectic_form(n))) <= 1e-12 * scale


def test_wide_runs_build_no_gaussian_state(monkeypatch):
    # every diagnostic reads its one-mode covariances off the rows (_World.moments): not even a one-mode state
    cfg = wide_scenario()
    sizes = []
    real = GaussianState.__post_init__

    def spy(self):
        real(self)
        sizes.append(self.n_modes)

    monkeypatch.setattr(GaussianState, "__post_init__", spy)
    for run in (run_pod, run_er_check, run_exclusivity, run_marginal):
        run(cfg)
    assert sizes == []
    GaussianState(np.zeros(2), 0.5 * np.eye(2))
    assert sizes == [1]  # the spy sees a state built
