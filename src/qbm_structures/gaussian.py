"""Exact Gaussian-state machinery for quadratic Hamiltonians.

States are (mean, covariance) pairs over z = (x_1..x_n, p_1..p_n) with
sigma_ij = (1/2) <{dz_i, dz_j}> and hbar = 1, so the vacuum covariance is
I/2 and purity is 1 / (2^n sqrt(det sigma)).  Quadratic dynamics acts
exactly through symplectic matrices S(t) = exp(Omega K t): means transform
as S m, covariances as S sigma S^T.

Superpositions of two displaced copies of one pure Gaussian (cat states)
are carried as explicit branch lists; their environment-induced coherence
suppression has a closed form (see decoherence_factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, _require_finite
from .model import QuadraticHamiltonian, symplectic_form

UNCERTAINTY_TOL = 1e-10
PURITY_TOL = 1e-8
DET_FLOOR = 1e-300
NEGATIVITY_FLOOR = 1e-10


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a Gaussian state over (x.., p..) coordinates."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(np.asarray(self.mean, dtype=float))
        cov = np.array(np.asarray(self.cov, dtype=float))
        if mean.ndim != 1 or mean.size % 2:
            raise DomainError(f"mean must have even length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise DomainError(f"cov shape {cov.shape} does not match mean length {mean.size}")
        _require_finite(mean=mean, cov=cov)
        sym_scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > UNCERTAINTY_TOL * sym_scale:
            raise DomainError("covariance is not symmetric")
        cov = (cov + cov.T) / 2
        _check_uncertainty(cov)
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


def _check_uncertainty(cov: np.ndarray) -> None:
    """cov + i Omega / 2 >= 0 for a covariance or a stack; the tolerance grows with the entries (unstable runs).

    One mode takes the closed form: the least eigenvalue of [[a, b + i/2], [b - i/2, d]] is
    (a + d)/2 - sqrt(((a - d)/2)^2 + b^2 + 1/4), with b read below the diagonal as eigvalsh reads it.
    A covariance with no entry between two modes takes it per mode, and the least of those is its own.
    """
    n = cov.shape[-1] // 2
    blocks = cov.reshape(*cov.shape[:-2], 2, n, 2, n)
    if n == 1 or (cov.ndim == 2 and not np.any(blocks * (1.0 - np.eye(n))[:, None, :])):
        blocks = np.einsum("...piqi->...ipq", blocks)  # mode i's 2 x 2 block, (..., n, 2, 2)
        a, b, d = blocks[..., 0, 0], blocks[..., 1, 0], blocks[..., 1, 1]
        least = (0.5 * a + 0.5 * d) - np.hypot(np.hypot(0.5 * a - 0.5 * d, b), 0.5)  # no square overflows
        least = least.min(axis=-1)
    else:
        least = np.linalg.eigvalsh(cov + 0.5j * symplectic_form(n)).min(axis=-1)
    if not np.all(least >= -UNCERTAINTY_TOL * np.maximum(1.0, np.max(np.abs(cov), axis=(-2, -1)))):
        raise DomainError("covariance violates the uncertainty relation")


@dataclass(frozen=True)
class CatState:
    """Two-or-more displaced copies of one pure Gaussian, in coherent superposition.

    branches are (amplitude, mean) pairs sharing the covariance `cov`; the
    amplitudes include the overlap-aware normalization (see cat_state).
    """

    branches: tuple[tuple[complex, np.ndarray], ...]
    cov: np.ndarray

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise DomainError("a cat state needs at least two branches")
        cov = np.array(np.asarray(self.cov, dtype=float))
        size = cov.shape[0]
        branches = []
        for amp, mean in self.branches:
            mean = np.array(np.asarray(mean, dtype=float))
            if mean.shape != (size,):
                raise DomainError("branch mean length does not match covariance")
            mean.flags.writeable = False
            branches.append((complex(amp), mean))
        base = GaussianState(np.zeros(size), cov)
        # purity tolerance grows with the covariance norm: symplectic spectra of
        # strongly squeezed covariances carry proportionally larger roundoff
        nu = symplectic_eigenvalues(base.cov)
        if np.max(np.abs(nu - 0.5)) > PURITY_TOL * max(1.0, float(np.max(np.abs(cov)))):
            raise DomainError("shared covariance of a cat state must be pure")
        object.__setattr__(self, "cov", base.cov)
        object.__setattr__(self, "branches", tuple(branches))

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2

    def norm(self) -> float:
        total = 0.0j
        for a_j, mu_j in self.branches:
            for a_k, mu_k in self.branches:
                total += np.conj(a_j) * a_k * _displaced_overlap(mu_j, mu_k, self.cov)
        return float(np.sqrt(abs(total.real)))


def cat_state(weights, means, cov: np.ndarray) -> CatState:
    """Build a normalized cat: branch weights are rescaled against their pairwise overlaps.

    The returned state's amplitudes satisfy norm = 1 to 1e-10; symplectic
    evolution preserves that norm identically (overlaps depend on the means
    and covariance only through symplectic invariants).
    """
    if len(weights) != len(means):
        raise DomainError("one weight per branch mean required")
    cat = CatState(tuple(zip(weights, means)), cov)
    norm = cat.norm()
    if not 0.0 < norm < np.inf:
        raise DomainError("cat-state normalization failed (degenerate branch overlaps)")
    return CatState(tuple((a / norm, mu) for a, mu in cat.branches), cat.cov)


def _displaced_overlap(mu_a: np.ndarray, mu_b: np.ndarray, cov: np.ndarray) -> complex:
    """<a|b> for two displaced copies of one pure Gaussian (exact, incl. Weyl phase).

    Purity of cov makes det(2 cov) = 1 identically, so only the displacement
    quadratic form and the Weyl phase remain.
    """
    n = mu_a.size // 2
    omega = symplectic_form(n)
    delta = mu_b - mu_a
    quad = delta @ np.linalg.solve(2 * cov, delta)
    return complex(np.exp(-0.25 * quad) * np.exp(0.5j * (mu_a @ omega @ mu_b)))


# ---------------------------------------------------------------------------
# state constructors


def coherent_state(
    n_modes: int, mode: int, x: float, p: float, width_mass: float = 1.0, width_freq: float = 1.0
) -> GaussianState:
    """Minimum-uncertainty wavepacket at (x, p) on one mode, vacuum elsewhere.

    The packet's widths are those of the (width_mass, width_freq) oscillator
    ground state: sigma_xx = 1/(2 m w), sigma_pp = m w / 2.  Other modes get
    unit-oscillator vacuum.
    """
    if not 0 <= mode < n_modes:
        raise DomainError(f"mode {mode} out of range for {n_modes} modes")
    if width_mass <= 0 or width_freq <= 0:
        raise DomainError("width mass and frequency must be positive")
    mean = np.zeros(2 * n_modes)
    mean[mode] = x
    mean[n_modes + mode] = p
    diag = np.full(2 * n_modes, 0.5)
    mw = width_mass * width_freq
    diag[mode] = 0.5 / mw
    diag[n_modes + mode] = 0.5 * mw
    return GaussianState(mean, np.diag(diag))


def thermal_state(modes, temperature: float) -> GaussianState:
    """Product of thermal single-mode states; modes is a list of (mass, frequency).

    Widths are coth(w / 2T) times the vacuum widths (T = 0 gives the vacuum).
    """
    if temperature < 0:
        raise DomainError(f"temperature must be >= 0, got {temperature}")
    m, w = np.array(list(modes), dtype=float).T
    if np.any(m <= 0) or np.any(w <= 0):
        raise DomainError("mode masses and frequencies must be positive")
    return GaussianState(np.zeros(2 * m.size), np.diag(np.concatenate(_thermal_widths(m, w, temperature))))


def _thermal_widths(m: np.ndarray, w: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """sigma_xx and sigma_pp of thermal modes of masses m and frequencies w: coth(w / 2T) times 1/2mw and mw/2."""
    coth = 1.0 if temperature == 0 else 1.0 / np.tanh(w / (2 * temperature))
    return coth / (2 * m * w), m * w * coth / 2


def _ancilla_nus(nus: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues as purify pairs them: below 1/2 + 1e-12 a mode gets an unsqueezed vacuum ancilla."""
    return np.where(nus < 0.5 + 1e-12, 0.5, nus)


def product_state(*states: GaussianState) -> GaussianState:
    """Tensor product: concatenated means, block-diagonal covariance."""
    n = sum(s.n_modes for s in states)
    mean = np.zeros(2 * n)
    cov = np.zeros((2 * n, 2 * n))
    at = 0
    for s in states:
        k = s.n_modes
        sl_x, sl_p = slice(at, at + k), slice(n + at, n + at + k)
        mean[sl_x], mean[sl_p] = s.mean[:k], s.mean[k:]
        cov[sl_x, sl_x] = s.cov[:k, :k]
        cov[sl_p, sl_p] = s.cov[k:, k:]
        cov[sl_x, sl_p] = s.cov[:k, k:]
        cov[sl_p, sl_x] = s.cov[k:, :k]
        at += k
    return GaussianState(mean, cov)


# ---------------------------------------------------------------------------
# spectra, purity, purification


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending (>= 1/2 for states)."""
    n = cov.shape[0] // 2
    ev = np.abs(np.linalg.eigvals(symplectic_form(n) @ cov))
    return np.sort(ev)[::2]


def purity(state: GaussianState) -> float:
    """1 / (2^n sqrt(det sigma)); 1 exactly on pure states."""
    return float(_purity_from_cov(state.cov))


def _purity_from_cov(cov: np.ndarray) -> float | np.ndarray:
    """1 / (2^n sqrt(det cov)); ConditioningError where det is below DET_FLOOR or NaN.

    One mode, or a stack of one-mode covariances, takes 0.5 / sqrt(ad - bc); more modes take slogdet.
    """
    if cov.shape[-1] == 2:
        det = cov[..., 0, 0] * cov[..., 1, 1] - cov[..., 0, 1] * cov[..., 1, 0]
        if not np.all(det >= DET_FLOOR):  # NaN fails too
            raise ConditioningError("covariance is numerically degenerate")
        return 0.5 / np.sqrt(det)
    n = cov.shape[0] // 2
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or logdet < np.log(DET_FLOOR):
        raise ConditioningError("covariance is numerically degenerate")
    return float(np.exp(-n * np.log(2.0) - 0.5 * logdet))


def williamson(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose cov = S diag(nu.., nu..) S^T with S symplectic, nu ascending."""
    import scipy.linalg  # loaded on first use: no scenario purifies a correlated state

    n = cov.shape[0] // 2
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = np.arange(n) + n
    sig = cov[np.ix_(perm, perm)]

    w, U = np.linalg.eigh(sig)
    if w.min() <= 0:
        raise ConditioningError("covariance is not positive definite")
    sqrt_sig = (U * np.sqrt(w)) @ U.T
    isqrt_sig = (U / np.sqrt(w)) @ U.T

    omega_pair = np.zeros((2 * n, 2 * n))
    for k in range(n):
        omega_pair[2 * k, 2 * k + 1] = 1.0
        omega_pair[2 * k + 1, 2 * k] = -1.0
    skew = isqrt_sig @ omega_pair @ isqrt_sig
    T, O = scipy.linalg.schur((skew - skew.T) / 2)

    nus = np.empty(n)
    for k in range(n):
        t = T[2 * k, 2 * k + 1]
        if t < 0:
            O[:, [2 * k, 2 * k + 1]] = O[:, [2 * k + 1, 2 * k]]
            t = -t
        nus[k] = 1.0 / t
    order = np.argsort(nus)
    nus = nus[order]
    col_order = np.empty(2 * n, dtype=int)
    col_order[0::2] = 2 * order
    col_order[1::2] = 2 * order + 1
    O = O[:, col_order]

    scale = np.repeat(1.0 / np.sqrt(nus), 2)
    S_pair = sqrt_sig @ O * scale
    inv_perm = np.argsort(perm)
    return S_pair[np.ix_(inv_perm, inv_perm)], nus


def purify(state: GaussianState) -> GaussianState:
    """Extend to a pure state on doubled modes whose first-half reduction is the input.

    Ancilla n + k is paired with mode k in a two-mode squeezed state whose
    squeezing s = sqrt(nu^2 - 1/4) reproduces the mode's symplectic
    eigenvalue nu (cosh 2r = 2 nu).  A diagonal covariance (thermal, coherent
    and vacuum states) is purified in closed form: with nu = sqrt(a b) for
    the mode's variances a = sigma_xx and b = sigma_pp, the pair's x/x block
    is [[a, s sqrt(a / nu)], [s sqrt(a / nu), nu]] and its p/p block
    [[b, -s sqrt(b / nu)], [-s sqrt(b / nu), nu]].  Any other covariance is
    first brought to Williamson normal form, and mode k is then its k-th
    normal mode.  Modes with nu < 1/2 + 1e-12 get unsqueezed vacuum ancillas.
    """
    n, N = state.n_modes, 2 * state.n_modes
    d = np.diagonal(state.cov)
    diagonal = np.count_nonzero(state.cov) == np.count_nonzero(d)
    if diagonal:
        a, b = d[:n], d[n:]
        nus = np.sqrt(a * b)
    else:
        S_w, nus = williamson(state.cov)
        a = b = nus
    nus = _ancilla_nus(nus)
    s = np.sqrt(nus**2 - 0.25)
    cov = np.diag(np.concatenate([a, nus, b, nus]))
    i = np.arange(n)
    cov[i, n + i] = cov[n + i, i] = s * np.sqrt(a / nus)
    cov[N + i, N + n + i] = cov[N + n + i, N + i] = -s * np.sqrt(b / nus)
    if not diagonal:
        S_full = embed_symplectic(S_w, N, range(n))
        cov = S_full @ cov @ S_full.T
    mean = np.zeros(2 * N)
    mean[:n] = state.mean[:n]
    mean[N : N + n] = state.mean[n:]
    return GaussianState(mean, cov)


# ---------------------------------------------------------------------------
# dynamics


def propagator(H: QuadraticHamiltonian, t: float) -> np.ndarray:
    """Exact phase-space flow S(t) = exp(Omega K t).

    A decoupled generator (diagonal K, as for a model written in its normal modes) flows in
    closed form per mode (_decoupled_flow); any other K takes Pade scaling-and-squaring.
    """
    K, n = H.K, H.n_modes
    d = np.diagonal(K)
    if np.count_nonzero(K) != np.count_nonzero(d):
        import scipy.linalg  # loaded on first use: every scenario flows a decoupled K

        return scipy.linalg.expm(symplectic_form(n) @ K * t)
    a, b = d[:n], d[n:]
    c, s = _decoupled_flow(a, b, t)
    return np.block([[np.diag(c), np.diag(b * s)], [np.diag(-(a * s)), np.diag(c)]])


def _decoupled_flow(a: np.ndarray, b: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form flow (c, s) of decoupled modes with K_xx = a, K_pp = b, shaped times.shape + a.shape.

    x(t) = c x0 + b s p0 and p(t) = -a s x0 + c p0, where (c, s) = (cos, sin/Omega) of Omega t for
    ab = Omega^2 > 0, (1, t) for ab = 0, and (cosh, sinh/gamma) of gamma t for ab = -gamma^2 < 0.
    """
    t = np.asarray(times, dtype=float)[..., None]
    ab = a * b
    root = np.sqrt(np.abs(ab))
    c = np.ones(t.shape[:-1] + a.shape)
    s = c * t
    for mask, cos, sin in ((ab > 0, np.cos, np.sin), (ab < 0, np.cosh, np.sinh)):
        c[..., mask] = cos(root[mask] * t)
        s[..., mask] = sin(root[mask] * t) / root[mask]
    return c, s


def evolve(state, S: np.ndarray):
    """Apply a symplectic matrix: mean -> S mean, cov -> S cov S^T.

    Accepts GaussianState or CatState; cat branches share one covariance
    update and keep their amplitudes (a global symplectic is unitary, and the
    branch Weyl phases are tracked by the overlap convention).
    """
    if isinstance(state, CatState):
        if S.shape != (2 * state.n_modes,) * 2:
            raise DomainError("symplectic dimension does not match state")
        cov = S @ state.cov @ S.T
        return CatState(tuple((a, S @ m) for a, m in state.branches), cov)
    if S.shape != (2 * state.n_modes,) * 2:
        raise DomainError("symplectic dimension does not match state")
    return GaussianState(S @ state.mean, S @ state.cov @ S.T)


def embed_symplectic(S: np.ndarray, n_total: int, modes) -> np.ndarray:
    """Embed a symplectic on the given modes into n_total modes (identity elsewhere)."""
    modes = list(modes)
    k = len(modes)
    if S.shape != (2 * k, 2 * k):
        raise DomainError("symplectic dimension does not match mode count")
    idx = np.array(modes + [n_total + m for m in modes])
    out = np.eye(2 * n_total)
    out[np.ix_(idx, idx)] = S
    return out


def reduce(state: GaussianState, keep) -> GaussianState:
    """Partial trace: restrict mean and covariance to the kept modes (ascending order)."""
    keep = sorted(set(int(i) for i in keep))
    n = state.n_modes
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise DomainError(f"kept modes must be a nonempty subset of range({n})")
    idx = np.array(keep + [n + i for i in keep])
    return GaussianState(state.mean[idx], state.cov[np.ix_(idx, idx)])


# ---------------------------------------------------------------------------
# entanglement and coherence diagnostics


def log_negativity(state: GaussianState, party_a) -> float:
    """Logarithmic negativity across the bipartition (party_a | rest).

    Partially transposes by flipping party_a momenta in the covariance and
    sums -log2(2 nu) over symplectic eigenvalues below 1/2.  Contributions
    under 1e-10 are treated as zero so product states report exactly 0.
    """
    party_a = sorted(set(int(i) for i in party_a))
    n = state.n_modes
    if not party_a or party_a[0] < 0 or party_a[-1] >= n or len(party_a) == n:
        raise DomainError("party_a must be a proper nonempty subset of the modes")
    flip = np.ones(2 * n)
    for i in party_a:
        flip[n + i] = -1.0
    tilde = state.cov * np.outer(flip, flip)
    nu = symplectic_eigenvalues(tilde)
    terms = -np.log2(2 * nu)
    terms[terms < NEGATIVITY_FLOOR] = 0.0
    return float(np.sum(terms[terms > 0]))


def decoherence_factor(cat: CatState, env) -> float:
    """Distinguishability of the two branches' environment records, in [0, 1].

    For a pure two-branch cat the branches differ by a displacement delta;
    restricted to the env modes the branch states share a covariance sigma_E
    and differ by delta_E, and their overlap magnitude is the characteristic
    function of the reduced state at that displacement:
    r = |tr(rho_E T(delta_E))| = exp(-(Omega delta_E)^T sigma_E (Omega delta_E)/2),
    which reduces to |<eps_1|eps_2>| whenever the reductions are pure.
    """
    if len(cat.branches) != 2:
        raise DomainError("decoherence factor is defined for exactly two branches")
    env = sorted(set(int(i) for i in env))
    n = cat.n_modes
    if not env or env[0] < 0 or env[-1] >= n:
        raise DomainError(f"env modes must be a nonempty subset of range({n})")
    idx = np.array(env + [n + i for i in env])
    delta_e = (cat.branches[1][1] - cat.branches[0][1])[idx]
    sigma_e = cat.cov[np.ix_(idx, idx)]
    rotated = symplectic_form(len(env)) @ delta_e
    return float(np.exp(-0.5 * rotated @ sigma_e @ rotated))


def condition_on_coherent(
    state: GaussianState, mode: int, width_mass: float = 1.0, width_freq: float = 1.0
) -> GaussianState:
    """Posterior of the other modes after projecting `mode` onto the coherent state at its own mean.

    Standard Gaussian conditioning with a minimum-uncertainty projector of the
    given widths; projecting at the state's own mean leaves the posterior
    means unchanged.  On a pure input the posterior is pure.
    """
    n = state.n_modes
    if not 0 <= mode < n:
        raise DomainError(f"mode {mode} out of range for {n} modes")
    if n < 2:
        raise DomainError("conditioning needs at least one remaining mode")
    rest = [i for i in range(n) if i != mode]
    ia = np.array([mode, n + mode])
    ib = np.array(rest + [n + i for i in rest])
    mw = width_mass * width_freq
    proj = np.diag([0.5 / mw, 0.5 * mw])
    gain = state.cov[np.ix_(ib, ia)] @ np.linalg.inv(state.cov[np.ix_(ia, ia)] + proj)
    cov = state.cov[np.ix_(ib, ib)] - gain @ state.cov[np.ix_(ia, ib)]
    return GaussianState(state.mean[ib], (cov + cov.T) / 2)
