"""Shared scenario builders for tests, acceptance runs and baseline recording,
and the dense full-state routes the rows-only scenarios are checked against."""

from unittest import mock

import numpy as np

from qbm_structures import (
    BathSpec,
    GaussianState,
    ModelParams,
    build_qbm_hamiltonian,
    coherent_state,
    condition_on_coherent,
    discretize_bath,
    embed_symplectic,
    evolve,
    log_negativity,
    product_state,
    symplectic_form,
    williamson,
)
from qbm_structures import experiments
from qbm_structures.experiments import ScenarioConfig, _prepare
from qbm_structures.structure import collective_mode_map

POD_SEED = 42
DATA_DIR = "data"


def random_model(rng, n_bath, potential="free", sign=+1, kappa_range=(0.02, 0.1)):
    """Generic weak-coupling instance: masses/frequencies in [0.6, 1.6]."""
    bath = tuple(
        (rng.uniform(0.6, 1.6), rng.uniform(0.6, 1.6), rng.uniform(*kappa_range))
        for _ in range(n_bath)
    )
    omega = rng.uniform(0.6, 1.6) if potential == "harmonic" else None
    return ModelParams(
        m1=rng.uniform(0.6, 1.6), bath=bath, potential=potential, omega=omega, coupling_sign=sign
    )


def _generic_ohmic_bath(rng, n_modes=8, gamma=0.2, cutoff=5.0):
    base = discretize_bath(BathSpec(n_modes=n_modes, gamma=gamma, cutoff=cutoff))
    masses = 1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=n_modes)
    return tuple((float(m), w, k) for m, (_, w, k) in zip(masses, base))


def pod_scenario():
    """Canonical demonstration run: 8-mode Ohmic bath, warm and purified, generic masses."""
    rng = np.random.default_rng(POD_SEED)
    bath = _generic_ohmic_bath(rng)
    params = ModelParams(m1=1.0 + 0.05 * rng.uniform(-1.0, 1.0), bath=bath)
    return ScenarioConfig(
        model=params,
        times=np.linspace(0.0, 10.0, 61),
        x0=2.0,
        bath_temperature=2.0,
        purified=True,
    )


def exclusivity_scenario():
    """Confined variant of the canonical run (stable at late times), 50-point grid."""
    rng = np.random.default_rng(POD_SEED)
    bath = _generic_ohmic_bath(rng)
    params = ModelParams(
        m1=1.0 + 0.05 * rng.uniform(-1.0, 1.0),
        bath=bath,
        potential="harmonic",
        omega=1.0,
    )
    return ScenarioConfig(
        model=params,
        times=np.linspace(0.0, 10.0, 50),
        x0=2.0,
        bath_temperature=2.0,
        purified=True,
    )


def oracle_scenario(n_bath):
    """Small instance for number-basis comparisons: T = 0, three particle periods."""
    if n_bath == 1:
        bath = ((1.0, 1.3, 0.2),)
    else:
        bath = ((1.0, 0.9, 0.15), (1.0, 1.4, 0.15))
    params = ModelParams(m1=1.0, bath=bath, potential="harmonic", omega=1.0)
    return ScenarioConfig(
        model=params,
        times=np.linspace(0.0, 3 * 2 * np.pi, 30),
        x0=1.0,
        p0=0.0,
    )


# ---------------------------------------------------------------------------
# dense references


def default_split(params):
    """The collective split as a full structure map: centre of mass, then normal modes of the rest."""
    return collective_mode_map(build_qbm_hamiltonian(params), params.masses)


def lift_total(world, smap):
    """The split's canonical lift on every mode of the world's global state (identity on ancillas)."""
    return embed_symplectic(smap.lift, world.n_total, range(world.n_phys))


def evolved_state(world, t):
    """The dense global state at time t."""
    return evolve(world.initial, world.flow(world.mode_flow(t)))


def branch_proxy(state, width):
    """Product-form snapshot of the evolved state in the original coordinates.

    The particle factor is the coherent state of covariance `width` at the
    particle's current mean; the environment factor is the pure state
    obtained by conditioning the rest of the global state on that coherent
    projection.
    """
    n = state.n_modes
    mw = 0.5 / width[0, 0]
    particle = coherent_state(1, 0, state.mean[0], state.mean[n], 1.0, mw)
    posterior = condition_on_coherent(state, 0, 1.0, mw)
    return product_state(particle, posterior)


def dense_exclusivity(cfg):
    """run_exclusivity's negativities from full states: evolve, branch_proxy, lift, log_negativity."""
    world = _prepare(cfg, None)
    lift = lift_total(world, default_split(cfg.model))
    proxies = [branch_proxy(evolved_state(world, t), world.width) for t in cfg.times]
    return np.array([log_negativity(evolve(proxy, lift), [0]) for proxy in proxies])


def dense_uncertainty_min(cov):
    """Least eigenvalue of cov + i Omega / 2 from one dense eigvalsh over every mode."""
    return float(np.linalg.eigvalsh(cov + 0.5j * symplectic_form(cov.shape[0] // 2)).min())


def dense_factor(world):
    """Physical rows of the PSD square root of 2 sigma0, from one dense eigh."""
    lam, U = np.linalg.eigh(2 * world.initial.cov)
    return ((U * np.sqrt(lam)) @ U.T)[world._phys]


def williamson_purify(state):
    """Purification through the Williamson normal form for any covariance.

    The k-th normal mode (nu ascending) is paired with ancilla k in a two-mode
    squeezed state, and the result is conjugated by the Williamson symplectic.
    """
    n, N = state.n_modes, 2 * state.n_modes
    S_w, nus = williamson(state.cov)
    s = np.where(nus < 0.5 + 1e-12, 0.0, np.sqrt(np.maximum(nus**2 - 0.25, 0.0)))
    nus = np.where(s == 0.0, 0.5, nus)
    big = np.diag(np.concatenate([nus, nus, nus, nus]))
    for k in range(n):
        big[k, n + k] = big[n + k, k] = s[k]
        big[N + k, N + n + k] = big[N + n + k, N + k] = -s[k]
    S_full = embed_symplectic(S_w, N, range(n))
    mean = np.zeros(2 * N)
    mean[:n] = state.mean[:n]
    mean[N : N + n] = state.mean[n:]
    return GaussianState(mean, S_full @ big @ S_full.T)


def with_williamson_purification(run, cfg):
    """run(cfg) with the bath purified by williamson_purify instead of purify."""
    with mock.patch.object(experiments, "purify", williamson_purify):
        return run(cfg)
