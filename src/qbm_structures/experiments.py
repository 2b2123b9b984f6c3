"""Scripted scenarios: parallel decoherence, entanglement under restructuring,
branch exclusivity, and marginal incompatibility.

Every scenario runs one global evolution in the original particle + bath
coordinates; quantities for the alternate decomposition are read from the
very same states, never from a second dynamics.  Thermal baths can be purified
with ancilla modes so that the global state stays pure; ancillas never evolve
and count as part of the environment side of every bipartition.

The model is diagonalised once per run from its secular equation
(structure.star_normal_modes), which also decides the instability warning; in
its normal modes it is decoupled, so every mode flows in closed form
(gaussian._decoupled_flow), exponentiating nothing.
A split is the pair (a, b) of its mode-0 observables X = a.x and P = b.p with
a.b = 1 (a point map T's first row and T^-1's first column): (e_1, e_1) for the
particle, and (m / M, 1), the centre of mass and total momentum, for the
collective split.  Two maps that share the pair differ by I (+) D, local on the
rest, which changes no mode-0 diagnostic, so every diagnostic uses only mode-0
rows of the flow (and oracle-compare's decoherence factor the bath's rows).
All but pod evaluate blocks of the time grid at once (_World.flow_rows); pod
builds D(t) once per sample.  oracle-compare's number-basis rows come per block
of up to fock_oracle.GRID_SPAN times (fock_oracle.branch_diagnostics).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, DomainError, _require_finite
from .gaussian import (
    NEGATIVITY_FLOOR,
    UNCERTAINTY_TOL,
    GaussianState,
    _ancilla_nus,
    _check_uncertainty,
    _decoupled_flow,
    _purity_from_cov,
    _thermal_widths,
    evolve,  # unused: held for perfbench/test_perfbench.py's rebinding check until ROADMAP item 1
    propagator,
)
from .model import POTENTIAL_HARMONIC, ModelParams, QuadraticHamiltonian, arrowhead, symplectic_form
from .structure import CANONICITY_TOL, star_normal_modes

ER_PRODUCT_TOL = 1e-8
ER_WITNESS_THRESHOLD = 1e-3
EXCLUSIVITY_THRESHOLD = 1e-3
_BLOCK = 16  # grid times per stacked evaluation: per-block arrays stay O(_BLOCK N)

PARTICLE_STATE_COHERENT = "coherent"


@dataclass(frozen=True)
class ScenarioConfig:
    """Model, initial state and sampling grid for one scenario run."""

    model: ModelParams
    times: np.ndarray
    x0: float = 0.0
    p0: float = 0.0
    particle_state: str = PARTICLE_STATE_COHERENT
    bath_temperature: float = 0.0
    purified: bool = False

    def __post_init__(self) -> None:
        times = np.array(np.asarray(self.times, dtype=float))
        _require_finite(times=times, x0=self.x0, p0=self.p0, bath_temperature=self.bath_temperature)
        if times.ndim != 1 or times.size < 1:
            raise DomainError("times must be a nonempty 1-D grid")
        if times[0] != 0.0:
            raise DomainError("times must start at 0")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise DomainError("times must be strictly increasing")
        if self.particle_state != PARTICLE_STATE_COHERENT:
            raise DomainError(f"unsupported particle state kind {self.particle_state!r}")
        if self.bath_temperature < 0:
            raise DomainError("bath temperature must be >= 0")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)


class PODReport(NamedTuple):
    times: np.ndarray
    purity_1: np.ndarray
    purity_sp: np.ndarray
    neg_12: np.ndarray
    neg_spep: np.ndarray
    half_time_1: float
    half_time_sp: float
    recurrence_1: bool
    recurrence_sp: bool


class ERReport(NamedTuple):
    times: np.ndarray
    neg_12: np.ndarray
    neg_spep: np.ndarray
    witnessed: np.ndarray


class ExclusivityReport(NamedTuple):
    times: np.ndarray
    neg_spep: np.ndarray
    excluding: np.ndarray
    flagged_fraction: float


class MarginalReport(NamedTuple):
    times: np.ndarray
    mean_1: np.ndarray
    var_1: np.ndarray
    mean_sp: np.ndarray
    var_sp: np.ndarray
    l1_distance: np.ndarray


class OracleCompareReport(NamedTuple):
    times: np.ndarray
    delta_purity: np.ndarray
    delta_mean: np.ndarray
    delta_cov: np.ndarray
    delta_decoherence: np.ndarray
    certification_delta: float | None

    @property
    def max_abs_delta(self) -> float:
        return float(np.max([self.delta_purity, self.delta_mean, self.delta_cov, self.delta_decoherence]))


# ---------------------------------------------------------------------------
# shared scaffolding


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last axis, as the one BLAS dot that np.dot takes for a single row."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _check_conjugate(rows: np.ndarray) -> None:
    """Rows g_x, g_p (axis -2) of a symplectic matrix must satisfy g_x^T Omega g_p = 1."""
    n = rows.shape[-1] // 2
    g_x, g_p = np.moveaxis(rows, -2, 0)
    product = _rowdot(g_x[..., :n], g_p[..., n:]) - _rowdot(g_x[..., n:], g_p[..., :n])
    scale = np.maximum(1.0, np.sqrt(_rowdot(g_x, g_x)) * np.sqrt(_rowdot(g_p, g_p)))
    bad = np.ravel(~(np.abs(product - 1.0) <= UNCERTAINTY_TOL * scale))  # NaN rows fail too
    if np.any(bad):
        raise ConditioningError(f"mode-0 rows lost canonicity (g_x^T Omega g_p = {np.ravel(product)[bad][0]!r})")


def _norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(_rowdot(rows, rows))


def _project_off(h: np.ndarray, span: np.ndarray) -> np.ndarray:
    """h, (..., 2, L), less its part in the span of span's two rows, from Gram-Schmidt with one reorthogonalisation:
    as orthogonal as Householder QR (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 1069 (2005))."""
    s1, s2 = np.moveaxis(span, -2, 0)
    q1 = s1 / _norms(s1)[..., None]
    v = s2 - q1 * _rowdot(q1, s2)[..., None]
    v -= q1 * _rowdot(q1, v)[..., None]
    basis = np.stack([q1, v / _norms(v)[..., None]], axis=-2)
    return h - (h @ basis.swapaxes(-1, -2)) @ basis


@dataclass(frozen=True)
class _World:
    """Everything a scenario needs: the initial state per mode, the model's normal modes and two splits.

    The initial state is a product over the physical modes, of mean `mean` and covariance diag(`var`): the
    particle's packet (`width`), then thermal bath modes.  The model is the squared normal-mode frequencies
    `sq_freqs` and, with V^T M V = I, x = V q and p = MV pi.  `splits` holds the particle's and the alternate
    split's (a, b) (`pair`) as normal-mode coefficients [[a V, 0], [0, b MV]], (2, 2, 2n); `flow_rows` turns
    coefficients into rows of S(t) on a block of times, `rows` from pod's dense D(t) (`mode_flow`, which the
    perfbench tracer test pins at a propagator call per pod sample).
    """

    config: ScenarioConfig
    n_phys: int
    mean: np.ndarray
    var: np.ndarray
    sq_freqs: np.ndarray
    V: np.ndarray
    MV: np.ndarray
    pair: np.ndarray  # the alternate split's (a, b), (2, n)
    splits: np.ndarray

    @property
    def width(self) -> np.ndarray:
        return np.diag(self.var[[0, self.n_phys]])

    @cached_property
    def normal(self) -> QuadraticHamiltonian:  # the model in its normal modes, K = diag(w, 1)
        return QuadraticHamiltonian(self.n_phys, np.diag(np.r_[self.sq_freqs, np.ones(self.n_phys)]))

    def mode_flow(self, t: float) -> np.ndarray:
        """D(t): the flow in normal-mode coordinates, closed form per mode."""
        return propagator(self.normal, t)

    def _physical(self, coefficients: np.ndarray) -> np.ndarray:
        """Rows over the normal modes (q.., pi..) as rows over the physical (x.., p..): q = MV^T x, pi = V^T p."""
        n = self.n_phys
        return np.concatenate([coefficients[..., :n] @ self.MV.T, coefficients[..., n:] @ self.V.T], axis=-1)

    def rows(self, D: np.ndarray) -> np.ndarray:
        """Both splits' mode-0 x and p rows of the flow over the physical (x.., p..) coordinates, (2, 2, 2n)."""
        rows = self._physical(self.splits @ D)
        _check_conjugate(rows)
        return rows

    def flow_rows(self, coefficients: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Rows of S(t) over the physical (x.., p..), (n_t, k, 2n), for k rows of normal-mode coefficients.

        D(t) is 2 x 2 per normal mode: the coefficients times the closed-form (n_t, N) c and s, then one
        product per x/p block, stacked per time so that no product mixes two times.
        """
        w = self.sq_freqs
        c, s = (f[:, None] for f in _decoupled_flow(w, np.ones(self.n_phys), times))
        q, pi = np.hsplit(coefficients, 2)
        return self._physical(np.concatenate([q * c - pi * (w * s), q * s + pi * c], axis=-1))

    def split_rows(self, times: np.ndarray) -> np.ndarray:
        """`rows` at every time: one (n_t, 2, 2, 2n) stack."""
        n = self.n_phys
        rows = self.flow_rows(self.splits.reshape(4, 2 * n), times).reshape(len(times), 2, 2, 2 * n)
        _check_conjugate(rows)
        return rows

    @cached_property
    def _squeeze(self) -> np.ndarray:
        """lift's factors per mode: [[cosh r, sinh r] sqrt(a / nu), [cosh r, -sinh r] sqrt(b / nu)]."""
        a, b = self.var.reshape(2, -1)
        nu = _ancilla_nus(np.sqrt(a * b))
        cosh, sinh = np.sqrt(nu + 0.5), np.sqrt(nu - 0.5)
        return np.array([[cosh, sinh], [cosh, -sinh]]) * np.sqrt(np.array([a, b]) / nu)[:, None]

    def lift(self, rows: np.ndarray) -> np.ndarray:
        """rows @ S0 over (x.., x_anc.., p.., p_anc..): S0 purifies sigma0 = S0 S0^T / 2, mode by mode.

        With nu = sqrt(a b) for the variances a, b of mode k, cosh r =
        sqrt(nu + 1/2) and sinh r = sqrt(nu - 1/2), x_k = sqrt(a / nu)
        (cosh r x0_k + sinh r x0_anc) and p_k = sqrt(b / nu) (cosh r p0_k -
        sinh r p0_anc) over vacuum coordinates z0; nu < 1/2 + 1e-12 takes an
        unsqueezed ancilla, as in gaussian.purify.  O(N) per row.
        """
        return (rows.reshape(*rows.shape[:-1], 2, 1, self.n_phys) * self._squeeze).reshape(*rows.shape[:-1], -1)

    def moments(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Means and covariances of the modes whose x and p rows (axis -2) are given, uncertainty-checked."""
        cov = (rows * self.var) @ rows.swapaxes(-1, -2)
        _check_uncertainty(cov)
        return rows @ self.mean, cov

    def pure_log_negativity(self, rows: np.ndarray) -> np.ndarray:
        """1|rest log-negativity from the split's rows (axis -2); pure global states only.

        With g = lift(rows), rows of G = S(t) S0, and z = (x part) + i (p part)
        of each row of g, |z1|^2 |z2|^2 - |z1^H z2|^2 = 4 nu^2 - 1 for the mode-0
        symplectic eigenvalue nu, so E_N = log2(2 nu + 2 sqrt(nu^2 - 1/4)) =
        asinh(|z1| |z2_perp|) / ln 2 (Adesso & Illuminati, J. Phys. A 40, 7821
        (2007)).  The projection z2_perp does not cancel: product instants give
        roundoff, floored to exactly 0 like log_negativity.
        """
        g = self.lift(rows)
        _check_conjugate(g)
        z1, z2 = np.moveaxis(g[..., : 2 * self.n_phys] + 1j * g[..., 2 * self.n_phys :], -2, 0)
        z2_perp = z2 - z1 * (_rowdot(z1.conj(), z2) / _rowdot(z1.conj(), z1).real)[..., None]
        # each norm summed as np.linalg.norm sums one complex vector
        n1, n2 = (np.sqrt(_rowdot(z.real, z.real) + _rowdot(z.imag, z.imag)) for z in (z1, z2_perp))
        neg = np.arcsinh(n1 * n2) / np.log(2.0)
        return np.where(neg < NEGATIVITY_FLOOR, 0.0, neg)

    def mixed_log_negativity(self, rows: np.ndarray) -> float:
        """1|rest log-negativity from the split's rows g_x, g_p; unpurified global states.

        Transposing mode 0 turns Omega into Omega - 2 (e_x e_p^T - e_p e_x^T), so with
        S^T Omega S = Omega the transposed spectrum is |eig((Omega + R) sigma0)|,
        R = -2 (g_x g_p^T - g_p g_x^T); floored like gaussian.log_negativity.
        """
        g_x, g_p = rows
        R = -2.0 * (np.outer(g_x, g_p) - np.outer(g_p, g_x))
        spectrum = np.linalg.eigvals((symplectic_form(self.n_phys) + R) * self.var)
        terms = -np.log2(2 * np.sort(np.abs(spectrum))[::2])
        return float(np.sum(terms[terms >= NEGATIVITY_FLOOR]))

    def marginal(self, times: np.ndarray) -> np.ndarray:
        """Per time: mean and variance of mode-0 x in each split, then their L1 distance."""
        mean, cov = self.moments(self.split_rows(times))
        (mean_1, mean_sp), (var_1, var_sp) = mean[..., 0].T, cov[..., 0, 0].T
        return np.column_stack([mean_1, var_1, mean_sp, var_sp, gaussian_l1_distance(mean_1, var_1, mean_sp, var_sp)])

    def pure_global(self) -> bool:
        return self.config.bath_temperature == 0.0 or self.config.purified


def _prepare(cfg: ScenarioConfig, split=None) -> _World:
    """The run's world; `split` = (a, b) is the alternate split X = a.x, P = b.p, by default (m / M, 1)."""
    params = cfg.model
    n, masses = params.n_modes, params.masses
    if split is None:
        split = masses / np.sum(masses), np.ones(n)
    a, b = (np.asarray(v, dtype=float) for v in split)
    if a.shape != (n,) or b.shape != (n,):
        raise DomainError(f"a split is a pair (a, b) of {n}-vectors, one entry per mode")
    if not abs(a @ b - 1.0) <= CANONICITY_TOL:  # NaN fails too
        raise DomainError(f"a split's X = a.x and P = b.p must be conjugate, a.b = 1; got a.b = {a @ b!r}")
    mw = params.m1 * (params.omega if params.potential == POTENTIAL_HARMONIC else 1.0)
    var_x, var_p = _thermal_widths(masses[1:], np.array(params.bath)[:, 1], cfg.bath_temperature)
    sq_freqs, V = star_normal_modes(*arrowhead(params), masses)
    if sq_freqs[0] < 0:  # ascending; M^-1/2 B M^-1/2 has the inertia of the position block B (Sylvester)
        warnings.warn(
            "position block of the model Hamiltonian is indefinite "
            "(coupling exceeds confinement); dynamics are unbounded",
            stacklevel=2,
        )
    MV = masses[:, None] * V
    pairs = np.array([[np.eye(1, n)[0]] * 2, [a, b]])  # the particle split (e_1, e_1), then the alternate one
    splits = np.zeros((2, 2, 2 * n))
    splits[:, 0, :n], splits[:, 1, n:] = pairs[:, 0] @ V, pairs[:, 1] @ MV
    return _World(
        cfg,
        n,
        np.r_[cfg.x0, np.zeros(n - 1), cfg.p0, np.zeros(n - 1)],
        np.r_[0.5 / mw, var_x, 0.5 * mw, var_p],
        sq_freqs=sq_freqs,
        V=V,
        MV=MV,
        pair=pairs[1],
        splits=splits,
    )


def _sampled(times: np.ndarray, evaluate) -> np.ndarray:
    """evaluate(block) on consecutive _BLOCK-time blocks of the grid, concatenated, each under one errstate.

    An overflow or NaN names the block's first time that fails alone: no evaluation mixes two times.
    """
    out = []
    for start in range(0, len(times), _BLOCK):
        block = times[start : start + _BLOCK]
        try:
            with np.errstate(over="raise", invalid="raise"):
                out.append(np.asarray(evaluate(block)))
        except FloatingPointError as exc:
            if len(block) > 1:  # the first time that fails on its own raises here
                for i in range(len(block)):
                    _sampled(block[i : i + 1], evaluate)
            raise ConditioningError(f"the flow overflowed or went non-finite at t = {block[0]:.6g} ({exc})") from exc
    return np.concatenate(out)


def _first_crossing(times: np.ndarray, values: np.ndarray, threshold: float) -> float:
    """Linear-interpolated first time `values` drops below `threshold` (nan if never)."""
    below = np.nonzero(values < threshold)[0]
    if below.size == 0:
        return float("nan")
    i = int(below[0])
    if i == 0:
        return float(times[0])
    t0, t1, v0, v1 = times[i - 1], times[i], values[i - 1], values[i]
    return float(t0 + (threshold - v0) * (t1 - t0) / (v1 - v0))


def _half_time(times: np.ndarray, purities: np.ndarray) -> float:
    """First time the purity falls halfway from p(0) to its plateau, the mean of the last 20 % of samples.

    nan when the plateau is not below p(0): the purity does not decay, and the midpoint would sit at or above p(0).
    """
    tail = max(1, int(np.ceil(0.2 * purities.size)))
    plateau = float(np.mean(purities[-tail:]))
    if plateau >= purities[0]:
        return float("nan")
    return _first_crossing(times, purities, (purities[0] + plateau) / 2.0)


def _has_recurrence(values: np.ndarray, tol: float = 1e-6) -> bool:
    running_min = np.minimum.accumulate(values)
    return bool(np.any(values - running_min > tol))


# ---------------------------------------------------------------------------
# scenarios


def run_pod(cfg: ScenarioConfig, split=None) -> PODReport:
    """Purity and entanglement of both open systems along one global evolution.

    Every column comes from the mode-0 rows of each split, at O(N^2) per
    sample; a mixed global state adds one eigvals per split.
    """
    world = _prepare(cfg, split)
    negativity = world.pure_log_negativity if world.pure_global() else world.mixed_log_negativity

    def sample(t: float):
        rows = world.rows(world.mode_flow(t))
        return [*_purity_from_cov(world.moments(rows)[1]), *(negativity(r) for r in rows)]

    p1, psp, n12, nsp = _sampled(cfg.times, lambda block: [sample(t) for t in block]).T
    return PODReport(
        times=cfg.times,
        purity_1=p1,
        purity_sp=psp,
        neg_12=n12,
        neg_spep=nsp,
        half_time_1=_half_time(cfg.times, p1),
        half_time_sp=_half_time(cfg.times, psp),
        recurrence_1=_has_recurrence(p1),
        recurrence_sp=_has_recurrence(psp),
    )


def run_er_check(cfg: ScenarioConfig, split=None) -> ERReport:
    """Entanglement across both decompositions; flags instants witnessing relativity.

    A time instant is flagged when the state is a product across one split
    (negativity below 1e-8) while entangled across the other (above 1e-3).
    Requires a pure global state (zero-temperature or purified bath).
    """
    world = _prepare(cfg, split)
    if not world.pure_global():
        raise DomainError("entanglement check needs a pure global state; purify the bath")
    n12, nsp = _sampled(cfg.times, lambda block: world.pure_log_negativity(world.split_rows(block))).T
    witnessed = ((n12 < ER_PRODUCT_TOL) & (nsp > ER_WITNESS_THRESHOLD)) | (
        (nsp < ER_PRODUCT_TOL) & (n12 > ER_WITNESS_THRESHOLD)
    )
    return ERReport(times=cfg.times, neg_12=n12, neg_spep=nsp, witnessed=witnessed)


def run_exclusivity(cfg: ScenarioConfig, split=None) -> ExclusivityReport:
    """Entanglement of the instantaneous product-form branch under the alternate split.

    At each grid time the evolved global state sigma = G G^T / 2, G = S(t) S0, is collapsed to its particle
    (x) environment product form: the coherent state W = world.width at the particle's mean, times the rest
    conditioned on that coherent projection.  The report carries the alternate-split negativity of that branch
    and the fraction of instants where it exceeds 1e-3, i.e. where the branch of one decomposition is
    inconsistent with a product branch of the other.

    The branch is pure, so E_N = asinh(sqrt(4 det red - 1)) / ln 2 from its mode-0 block red in the alternate
    split.  With r_A = diag(a_0, b_0) the particle columns of the split's rows, r_B the rest, g_a = G_A and
    g_b = r_B G, red = r_A W r_A^T + g_b g_b^T / 2 - c (g_a g_a^T / 2 + W)^-1 c^T, c = g_b g_a^T / 2.  Its last
    two terms are h h^T / 2, h = [g_b, 0] projected off the rows of [g_a, sqrt(2 W)] (_project_off), which
    does not cancel as g_a grows (an unstable particle).  O(N^2) per sample, stacked over grid blocks.
    4 det red - 1 within its roundoff bound (first order in eps (|g_b| + |r_A| |g_a|) |h|) is 0; a bound that reaches
    the y2 of EXCLUSIVITY_THRESHOLD could hide a flag and raises ConditioningError after the grid (overflows first).
    """
    world = _prepare(cfg, split)
    if not world.pure_global():
        raise DomainError("branch analysis needs a pure global state; purify the bath")
    W = world.width
    r_a = np.diag(world.pair[:, 0])
    base = r_a @ W @ r_a.T
    eps = np.finfo(float).eps

    def branch_negativity(times: np.ndarray) -> np.ndarray:
        rows_1, rows_sp = world.split_rows(times).swapaxes(0, 1)
        g_a, g_b = world.lift(rows_1), world.lift(rows_sp - r_a @ rows_1)
        span = np.concatenate([g_a, np.broadcast_to(np.sqrt(2 * W), (len(times), 2, 2))], axis=-1)
        h = _project_off(np.concatenate([g_b, np.zeros((len(times), 2, 2))], axis=-1), span)
        red = base + 0.5 * h @ h.swapaxes(-1, -2)
        y2 = 4.0 * (red[:, 0, 0] * red[:, 1, 1] - red[:, 0, 1] * red[:, 1, 0]) - 1.0
        # twice the first-order bound: h_i is off by err_i, so 4 det red - 1 by 4 err^T adj|red| |h| + det's own
        err, adj = eps * (_norms(g_b) + np.abs(world.pair[:, 0]) * _norms(g_a)), np.abs(red[:, ::-1, ::-1])
        bound = 8 * (np.einsum("ti,tij,tj->t", err, adj, _norms(h)) + eps * np.sum(adj * np.abs(red), axis=(1, 2)) / 2)
        if np.any(y2 < -bound):
            bad = y2[y2 < -bound][0]
            raise ConditioningError(f"branch block violates the uncertainty relation (4 det - 1 = {bad!r})")
        return np.column_stack([np.arcsinh(np.sqrt(np.where(y2 > bound, y2, 0.0))) / np.log(2.0), bound])

    neg, bound = _sampled(cfg.times, branch_negativity).T
    hidden = np.flatnonzero(bound >= np.sinh(EXCLUSIVITY_THRESHOLD * np.log(2.0)) ** 2)
    if hidden.size:
        t, b = cfg.times[hidden[0]], bound[hidden[0]]
        raise ConditioningError(f"roundoff can hide an excluding branch at t = {t:.6g} (4 det - 1 within {b:.3g})")
    excluding = neg > EXCLUSIVITY_THRESHOLD
    return ExclusivityReport(
        times=cfg.times,
        neg_spep=neg,
        excluding=excluding,
        flagged_fraction=float(np.mean(excluding)),
    )


def run_marginal(cfg: ScenarioConfig, split=None) -> MarginalReport:
    """marginal_incompatibility over the whole grid, from one prepared world."""
    world = _prepare(cfg, split)
    return MarginalReport(cfg.times, *_sampled(cfg.times, world.marginal).T)


def marginal_incompatibility(cfg: ScenarioConfig, t: float, split=None) -> MarginalReport:
    """L1 distance between the collective mode's position density and the relabeled particle density.

    Treating the particle's reduced position density as if it were a density
    for the collective coordinate is the forbidden move; the one-row report
    quantifies how wrong it is at t.  Zero exactly when the map is the identity.
    """
    times = np.array([float(t)])
    return MarginalReport(times, *_sampled(times, _prepare(cfg, split).marginal).T)


def gaussian_l1_distance(mean_a: np.ndarray, var_a: np.ndarray, mean_b: np.ndarray, var_b: np.ndarray) -> np.ndarray:
    """Closed-form integral of |N(mean_a, var_a) - N(mean_b, var_b)| over the line, elementwise over equal shapes.

    The densities cross at the real roots of a quadratic; the distance is the
    total variation of the CDF difference across those crossings.  A single
    crossing is taken as a double root, whose second gap adds exactly 0.  The
    squares take libm pow (np.float_power), not the x * x of an array **, and
    the |gaps| add left to right, so every value has the bits that a per-pair
    scalar evaluation gave.  A scalar input returns a scalar.
    """
    mean_a, var_a, mean_b, var_b = np.asarray([mean_a, var_a, mean_b, var_b], dtype=float)
    if np.any(var_a <= 0) or np.any(var_b <= 0):
        raise DomainError("variances must be positive")
    sd_a, sd_b = np.sqrt(var_a), np.sqrt(var_b)
    scale = np.maximum.reduce([np.abs(mean_a), np.abs(mean_b), sd_a, sd_b, np.ones(sd_a.shape)])
    differ = np.abs(mean_a - mean_b) >= 1e-14 * scale
    differ |= np.abs(var_a - var_b) >= 1e-14 * np.float_power(scale, 2)
    out = np.zeros(differ.shape)
    m_a, v_a, m_b, v_b, sd_a, sd_b = (x[differ] for x in (mean_a, var_a, mean_b, var_b, sd_a, sd_b))
    a = 1.0 / v_b - 1.0 / v_a
    b = 2.0 * m_a / v_a - 2.0 * m_b / v_b
    c = np.float_power(m_b, 2) / v_b - np.float_power(m_a, 2) / v_a + np.log(v_b / v_a)
    linear = np.abs(a) < 1e-300
    two_a = 2 * np.where(linear, 1.0, a)
    sq = np.sqrt(np.maximum(b * b - 4 * a * c, 0.0))  # disc <= 0: the double root -b / 2a
    roots = np.sort([(-b - sq) / two_a, (-b + sq) / two_a], axis=0)
    roots[:, linear] = -c[linear] / b[linear]
    gap_lo, gap_hi = _normal_cdf((roots - m_a) / sd_a) - _normal_cdf((roots - m_b) / sd_b)
    out[differ] = np.abs(gap_lo) + np.abs(gap_hi - gap_lo) + np.abs(gap_hi)
    return out[()]


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise; erfc keeps full relative precision far out in the lower tail."""
    w = -z / math.sqrt(2.0)
    return 0.5 * np.reshape([math.erfc(v) for v in w.ravel().tolist()], w.shape)


# ---------------------------------------------------------------------------
# oracle comparison


def run_oracle_compare(
    cfg: ScenarioConfig,
    cutoffs: int | tuple[int, ...] = 16,
    certify: bool = False,
    bump: int = 10,
) -> OracleCompareReport:
    """Compare the covariance-route results against the number-basis route (fock_oracle).

    Valid for one or two bath modes with a zero-temperature bath.  Each route gives one row per grid time:
    particle purity, particle mean (x, p) and 2 x 2 covariance, and the two-branch decoherence factor for
    branches displaced to +/- x0.  The Gaussian columns come from rows of the flow per grid block, the particle's
    mode-0 rows and the bath's; the two Fock branches move together along the grid in fock_oracle.ChebyshevEvolver,
    and fock_oracle.branch_diagnostics reads their rows per block of grid times.  With certify=True the
    number-basis route is repeated with every cutoff raised by `bump` (at least 1) and the worst drift is
    reported (convergence certification).
    """
    params = cfg.model
    if len(params.bath) > 2:
        raise DomainError("oracle comparison is limited to at most two bath modes")
    if cfg.bath_temperature != 0.0 or cfg.purified:
        raise DomainError("oracle comparison runs with a zero-temperature, unpurified bath")
    if certify and bump < 1:
        raise DomainError(f"certification needs bump >= 1, got bump = {bump}")
    from . import fock_oracle as fo  # only this scenario loads the number-basis route

    world = _prepare(cfg, None)
    n, cov0, mu_plus = world.n_phys, np.diag(world.var), world.mean
    mu_minus = mu_plus * np.r_[-1.0, np.ones(2 * n - 1)]
    env = np.zeros((2 * n - 2, 2 * n))  # normal-mode coefficients of the bath's x_i = V_i q and p_i = (MV)_i pi
    env[: n - 1, :n], env[n - 1 :, n:] = world.V[1:], world.MV[1:]

    def gaussian_rows(times: np.ndarray) -> np.ndarray:
        mean, cov = world.moments(world.split_rows(times)[:, 0])
        # gaussian.decoherence_factor: r = exp(-|G^T w|^2 / 2), G = S_E diag(sqrt(var)), w = Omega_E S_E (mu_- - mu_+)
        s_env = world.flow_rows(env, times)
        w = -2.0 * cfg.x0 * np.concatenate([s_env[:, n - 1 :, 0], -s_env[:, : n - 1, 0]], axis=-1)
        g = w[:, None] @ (s_env * np.sqrt(world.var))
        return np.column_stack([_purity_from_cov(cov), mean, cov.reshape(-1, 4), np.exp(-0.5 * _rowdot(g, g))])

    def fock_table(space: fo.FockSpace) -> np.ndarray:
        branches = [fo.gaussian_to_fock(GaussianState(mu, cov0), space) for mu in (mu_plus, mu_minus)]
        walk = fo.ChebyshevEvolver(params, space).propagate(branches, cfg.times)
        out = []
        while block := [[psi.amplitudes for psi in states] for states in itertools.islice(walk, fo.GRID_SPAN)]:
            out.append(fo.branch_diagnostics(np.reshape(block, (len(block), 2, *space.cutoffs)), space))
        return np.concatenate(out)

    space = fo.FockSpace.for_model(params, cutoffs)
    fock = fock_table(space)
    delta = np.abs(_sampled(cfg.times, gaussian_rows) - fock)
    drift = float(np.max(np.abs(fock - fock_table(space.bumped(bump))))) if certify else None
    return OracleCompareReport(
        times=cfg.times,
        delta_purity=delta[:, 0],
        delta_mean=np.max(delta[:, 1:3], axis=1),
        delta_cov=np.max(delta[:, 3:7], axis=1),
        delta_decoherence=delta[:, 7],
        certification_delta=drift,
    )
