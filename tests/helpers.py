"""Shared scenario builders for tests, acceptance runs and baseline recording,
and the dense full-state routes the rows-only scenarios are checked against."""

import math
import os

import numpy as np
import scipy.linalg

from qbm_structures.errors import ConditioningError
from qbm_structures.experiments import EXCLUSIVITY_THRESHOLD, ScenarioConfig, _prepare
from qbm_structures.gaussian import (
    NEGATIVITY_FLOOR,
    PURITY_TOL,
    GaussianState,
    coherent_state,
    condition_on_coherent,
    embed_symplectic,
    evolve,
    log_negativity,
    product_state,
    purify,
    symplectic_eigenvalues,
    thermal_state,
    williamson,
)
from qbm_structures.model import BathSpec, ModelParams, build_qbm_hamiltonian, discretize_bath, symplectic_form
from qbm_structures.structure import collective_mode_map, normal_modes

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


def workload(name):
    """A benchmark workload's run: its parsed config and its scenario at seed 0."""
    from qbm_structures import cli

    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads", f"{name}.ini")
    with open(path, encoding="utf-8") as fh:
        run_cfg = cli.parse_config(fh.read())
    return run_cfg, cli.build_scenario(run_cfg)


# ---------------------------------------------------------------------------
# dense references


def default_split(params):
    """The collective split as a full structure map: centre of mass, then normal modes of the rest."""
    return collective_mode_map(build_qbm_hamiltonian(params), params.masses)


def map_split(smap):
    """A full map's mode-0 pair (a, b): X = a.x with a = T[0], P = b.p with b = T^-1[:, 0]."""
    return smap.T[0], smap.T_inv[:, 0]


def dense_initial(cfg, purify=purify):
    """The global initial state as one dense GaussianState.

    A coherent particle times the thermal bath, whose modes `purify` pairs
    with ancillas when the bath is purified.
    """
    params = cfg.model
    w_width = params.omega if params.potential == "harmonic" else 1.0
    particle = coherent_state(1, 0, cfg.x0, cfg.p0, params.m1, w_width)
    bath = thermal_state([(m, w) for m, w, _ in params.bath], cfg.bath_temperature)
    if cfg.purified:
        bath = purify(bath)
    return product_state(particle, bath)


def lift_total(state, smap):
    """The split's canonical lift on every mode of a global state (identity on ancillas)."""
    return embed_symplectic(smap.lift, state.n_modes, range(smap.n_modes))


def expm_flow(H, t):
    """S(t) = exp(Omega K t) for any K, by scipy's Pade scaling-and-squaring: the reference flow of a coupled model."""
    return scipy.linalg.expm(symplectic_form(H.n_modes) @ H.K * t)


def dense_flow(world, D):
    """Dense S(t) on the physical modes from the normal-mode flow D(t) = world.mode_flow(t); O(N^3)."""
    n, U, root = world.n_phys, world.U, world.sqrt_m[:, None]
    return world._physical(np.vstack([U @ D[:n] / root, U @ D[n:] * root]))


def evolved_state(world, t, purify=purify):
    """The dense global state at time t."""
    initial = dense_initial(world.config, purify)
    S = dense_flow(world, world.mode_flow(t))
    return evolve(initial, embed_symplectic(S, initial.n_modes, range(world.n_phys)))


def is_pure(state):
    """Every symplectic eigenvalue within PURITY_TOL of 1/2, from one dense eigvals."""
    return bool(np.max(np.abs(symplectic_eigenvalues(state.cov) - 0.5)) <= PURITY_TOL)


def qr_projection(h, span):
    """experiments._project_off by Householder QR: h minus its part in the span of span's two rows."""
    basis = np.linalg.qr(np.swapaxes(span, -1, -2))[0]
    return h - (h @ basis) @ np.swapaxes(basis, -1, -2)


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


def dense_exclusivity(cfg, purify=purify, smap=None):
    """run_exclusivity's negativities from full states: evolve, branch_proxy, lift, log_negativity.

    The alternate split is the full map `smap`, by default the collective one.
    """
    world = _prepare(cfg, None)
    states = [evolved_state(world, t, purify) for t in cfg.times]
    lift = lift_total(states[0], smap or default_split(cfg.model))
    return np.array([log_negativity(evolve(branch_proxy(s, world.width), lift), [0]) for s in states])


def dense_uncertainty_min(cov):
    """Least eigenvalue of cov + i Omega / 2 from one dense eigvalsh over every mode."""
    return float(np.linalg.eigvalsh(cov + 0.5j * symplectic_form(cov.shape[0] // 2)).min())


def dense_factor(cfg):
    """Physical rows of the PSD square root of 2 sigma0, from one dense eigh."""
    initial = dense_initial(cfg)
    lam, U = np.linalg.eigh(2 * initial.cov)
    n, N = cfg.model.n_modes, initial.n_modes
    return ((U * np.sqrt(lam)) @ U.T)[np.r_[0:n, N : N + n]]


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


# ---------------------------------------------------------------------------
# per-sample references: one dense D(t) and one errstate per grid time, as
# run_er_check, run_exclusivity and run_marginal computed before they took
# blocks of the grid at once


def arrowhead_matrix(tip, sq_freqs, couplings):
    """The dense n x n arrowhead C with C_00 = tip, diagonal sq_freqs and couplings in row and column 0."""
    C = np.diag(np.r_[tip, sq_freqs])
    C[0, 1:] = C[1:, 0] = couplings
    return C


def dense_star_modes(tip, sq_freqs, couplings):
    """structure.star_normal_modes by the dense route: one eigh of the arrowhead C (normal_modes, unit masses).

    Patched over experiments.star_normal_modes, it makes _prepare solve the model as it did before the secular
    solver."""
    return normal_modes(arrowhead_matrix(tip, sq_freqs, couplings), np.ones(len(sq_freqs) + 1))


def per_sample(times, sample):
    """sample(t) at every grid time; an overflow or NaN inside a sample is a ConditioningError naming t."""
    out = []
    for t in times:
        try:
            with np.errstate(over="raise", invalid="raise"):
                out.append(sample(t))
        except FloatingPointError as exc:
            raise ConditioningError(f"the flow overflowed or went non-finite at t = {t:.6g} ({exc})") from exc
    return np.array(out)


def _pure_log_negativity(world, rows):
    g = world.lift(rows)
    z1, z2 = g[:, : 2 * world.n_phys] + 1j * g[:, 2 * world.n_phys :]
    z2_perp = z2 - z1 * (np.vdot(z1, z2) / np.vdot(z1, z1).real)
    neg = float(np.arcsinh(np.linalg.norm(z1) * np.linalg.norm(z2_perp)) / np.log(2.0))
    return 0.0 if neg < NEGATIVITY_FLOOR else neg


def per_sample_er(cfg, split=None):
    """run_er_check's columns (neg_12, neg_spep)."""
    world = _prepare(cfg, split)

    def sample(t):
        return [_pure_log_negativity(world, rows) for rows in world.rows(world.mode_flow(t))]

    return per_sample(cfg.times, sample)


def per_sample_exclusivity(cfg, split=None):
    """run_exclusivity's neg_spep column: the QR projection, and the same roundoff bound and threshold check."""
    world = _prepare(cfg, split)
    W = world.width
    r_a = np.diag(world.pair[:, 0])
    base = r_a @ W @ r_a.T
    eps = np.finfo(float).eps

    def sample(t):
        rows_1, rows_sp = world.rows(world.mode_flow(t))
        g_a, g_b = world.lift(rows_1), world.lift(rows_sp - r_a @ rows_1)
        h = qr_projection(np.hstack([g_b, np.zeros((2, 2))]), np.hstack([g_a, np.sqrt(2 * W)]))
        red = base + 0.5 * h @ h.T
        y2 = 4.0 * (red[0, 0] * red[1, 1] - red[0, 1] * red[1, 0]) - 1.0
        err = eps * (np.linalg.norm(g_b, axis=1) + np.abs(world.pair[:, 0]) * np.linalg.norm(g_a, axis=1))
        adj = np.abs(red[::-1, ::-1])
        bound = 8.0 * (err @ adj @ np.linalg.norm(h, axis=1) + eps * np.sum(adj * np.abs(red)) / 2)
        if y2 < -bound:
            raise ConditioningError(f"branch block violates the uncertainty relation (4 det - 1 = {y2!r})")
        return [0.0 if y2 <= bound else float(np.arcsinh(np.sqrt(y2)) / np.log(2.0)), bound]

    neg, bound = per_sample(cfg.times, sample).T
    hidden = bound >= np.sinh(EXCLUSIVITY_THRESHOLD * np.log(2.0)) ** 2
    if np.any(hidden):
        raise ConditioningError(f"roundoff can hide an excluding branch at t = {cfg.times[np.argmax(hidden)]:.6g}")
    return neg


def per_sample_marginal(cfg, split=None):
    """run_marginal's columns (mean_1, var_1, mean_sp, var_sp, l1_distance)."""
    world = _prepare(cfg, split)

    def sample(t):
        red1, redsp = (GaussianState(r @ world.mean, (r * world.var) @ r.T) for r in world.rows(world.mode_flow(t)))
        moments = [red1.mean[0], red1.cov[0, 0], redsp.mean[0], redsp.cov[0, 0]]
        return moments + [l1_distance_per_pair(*moments)]

    return per_sample(cfg.times, sample)


def l1_distance_per_pair(mean_a, var_a, mean_b, var_b):
    """experiments.gaussian_l1_distance for one pair, in numpy scalar arithmetic: the formula that computed the
    marginal column one time at a time, whose bits the block evaluation keeps."""
    scale = max(abs(mean_a), abs(mean_b), np.sqrt(var_a), np.sqrt(var_b), 1.0)
    if abs(mean_a - mean_b) < 1e-14 * scale and abs(var_a - var_b) < 1e-14 * scale**2:
        return 0.0
    a = 1.0 / var_b - 1.0 / var_a
    b = 2.0 * mean_a / var_a - 2.0 * mean_b / var_b
    c = mean_b**2 / var_b - mean_a**2 / var_a + np.log(var_b / var_a)
    if abs(a) < 1e-300:
        roots = [-c / b]
    else:
        disc = b * b - 4 * a * c
        if disc <= 0:
            roots = [-b / (2 * a)]
        else:
            sq = np.sqrt(disc)
            roots = sorted([(-b - sq) / (2 * a), (-b + sq) / (2 * a)])
    cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))  # noqa: E731
    gaps = [0.0] + [cdf((r - mean_a) / np.sqrt(var_a)) - cdf((r - mean_b) / np.sqrt(var_b)) for r in roots] + [0.0]
    return float(np.sum(np.abs(np.diff(gaps))))
