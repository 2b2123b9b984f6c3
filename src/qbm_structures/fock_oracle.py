"""Brute-force number-basis validator for small instances.

Everything here works in a truncated number basis built from ladder
operators, so results are independent of the covariance-matrix machinery
they certify.  The model's H is h_0 (x) I + I (x) B + x_0 (x) Y over
(mode 0) x (bath), built from single-mode factors (_factors).
ChebyshevEvolver applies it in that factored form to propagate states along
a time grid by a Chebyshev expansion, with no dense H and no eigh beyond
the single-mode ones; moments apply single-mode factors along tensor axes
(_apply).  build_fock_hamiltonian and DenseEvolver, which takes one eigh per
excitation-parity sector of the dense H, are the reference the evolver is
tested against.  For a few modes at cutoffs of a few tens.

Each mode's basis is the eigenbasis of a reference oscillator with the
mode's mass and a basis frequency; x and p matrices carry those widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError
from .gaussian import GaussianState, is_pure
from .model import POTENTIAL_HARMONIC, ModelParams

DEFAULT_DIM_CAP = 20_000
TRUNCATION_TOL = 1e-8


@dataclass(frozen=True)
class FockSpace:
    """Truncated number basis: per-mode cutoffs plus per-mode basis (mass, frequency)."""

    cutoffs: tuple[int, ...]
    masses: tuple[float, ...]
    frequencies: tuple[float, ...]

    def __post_init__(self) -> None:
        cut = tuple(int(c) for c in self.cutoffs)
        if not cut or any(c < 1 for c in cut):
            raise DomainError("per-mode cutoffs must be >= 1")
        if len(self.masses) != len(cut) or len(self.frequencies) != len(cut):
            raise DomainError("need one (mass, frequency) pair per mode")
        if any(m <= 0 for m in self.masses) or any(w <= 0 for w in self.frequencies):
            raise DomainError("basis masses and frequencies must be positive")
        dim = int(np.prod(cut))
        if dim > DEFAULT_DIM_CAP:
            raise DomainError(f"Fock dimension {dim} exceeds the cap {DEFAULT_DIM_CAP}")
        object.__setattr__(self, "cutoffs", cut)
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        object.__setattr__(self, "frequencies", tuple(float(w) for w in self.frequencies))

    @classmethod
    def for_model(cls, params: ModelParams, cutoffs) -> "FockSpace":
        """Basis matched to the model: each mode uses its own mass and frequency.

        A free particle gets basis frequency 1.0 (any complete basis works;
        convergence is certified per use).
        """
        if isinstance(cutoffs, int):
            cutoffs = (cutoffs,) * params.n_modes
        w1 = params.omega if params.potential == POTENTIAL_HARMONIC else 1.0
        masses = (params.m1,) + tuple(m for m, _, _ in params.bath)
        freqs = (w1,) + tuple(w for _, w, _ in params.bath)
        return cls(tuple(cutoffs), masses, freqs)

    @property
    def n_modes(self) -> int:
        return len(self.cutoffs)

    @property
    def dim(self) -> int:
        return int(np.prod(self.cutoffs))

    def bumped(self, delta: int) -> "FockSpace":
        """Same basis with every per-mode cutoff increased by delta (cap still applies)."""
        return FockSpace(tuple(c + delta for c in self.cutoffs), self.masses, self.frequencies)

    def subspace(self, modes) -> "FockSpace":
        modes = sorted(set(int(i) for i in modes))
        return FockSpace(
            tuple(self.cutoffs[i] for i in modes),
            tuple(self.masses[i] for i in modes),
            tuple(self.frequencies[i] for i in modes),
        )


@dataclass(frozen=True)
class FockState:
    """Dense complex amplitude vector over the truncated number basis."""

    amplitudes: np.ndarray
    space: FockSpace

    def __post_init__(self) -> None:
        amp = np.array(np.asarray(self.amplitudes, dtype=complex))
        if amp.shape != (self.space.dim,):
            raise DomainError(f"amplitude length {amp.shape} does not match dim {self.space.dim}")
        if abs(np.linalg.norm(amp) - 1.0) > 1e-10:
            raise DomainError("Fock amplitudes must be normalized to 1e-10")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)


# ---------------------------------------------------------------------------
# operator construction


def _ladder(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, d)), 1)


def _x_matrix(d: int, m: float, w: float) -> np.ndarray:
    a = _ladder(d)
    return (a + a.T) / np.sqrt(2 * m * w)


def _b_matrix(d: int, m: float, w: float) -> np.ndarray:
    """Real matrix B with p = i B (so p^2 = -B @ B stays real)."""
    a = _ladder(d)
    return np.sqrt(m * w / 2) * (a.T - a)


def _kron(space: FockSpace, factors: dict[int, np.ndarray], kron=np.kron):
    """Tensor product over the modes: factors[i] on mode i, identity elsewhere."""
    out = np.ones((1, 1))
    for i, d in enumerate(space.cutoffs):
        out = kron(out, factors[i] if i in factors else np.eye(d))
    return out


def _apply(space: FockSpace, amps: np.ndarray, factors: dict[int, np.ndarray]) -> np.ndarray:
    """_kron(space, factors) @ amps, one tensordot per factor along its mode's axis, O(dim d)."""
    tensor = amps.reshape(space.cutoffs)
    for i, f in factors.items():
        tensor = np.moveaxis(np.tensordot(f, tensor, axes=(1, i)), 0, i)
    return tensor.reshape(-1)


def _mode_quadratures(space: FockSpace) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Single-mode x and p matrices at each mode's own cutoff (p complex)."""
    modes = list(zip(space.cutoffs, space.masses, space.frequencies))
    return [_x_matrix(*f) for f in modes], [1j * _b_matrix(*f) for f in modes]


def _factors(params: ModelParams, space: FockSpace):
    """H = h_0 (x) I + I (x) B + x_0 (x) Y over (mode 0) x (bath), with the single-mode factors.

    h_i = p^2/2m_i + k_i x^2/2 and x_i are at mode i's cutoff; B = sum_i h_i and
    Y = sum_i s kappa_i x_i are dense on the bath space.
    """
    if space.n_modes != params.n_modes:
        raise DomainError("space mode count does not match the model")
    stiffness = (params.m1 * params.omega**2 if params.potential == POTENTIAL_HARMONIC else 0.0,)
    stiffness += tuple(m * w**2 for m, w, _ in params.bath)
    xs, ps = _mode_quadratures(space)
    hs = [(p @ p).real / (2 * m) + 0.5 * k * (x @ x) for x, p, m, k in zip(xs, ps, params.masses, stiffness)]
    hs = [(h + h.T) / 2 for h in hs]
    bath = space.subspace(range(1, space.n_modes))
    B = sum(_kron(bath, {i: h}) for i, h in enumerate(hs[1:]))
    kappas = [params.coupling_sign * kappa for _, _, kappa in params.bath]
    Y = sum(k * _kron(bath, {i: x}) for i, (x, k) in enumerate(zip(xs[1:], kappas)))
    return hs, xs, B, Y


def build_fock_hamiltonian(params: ModelParams, space: FockSpace) -> np.ndarray:
    """Dense real-symmetric Hamiltonian of the particle + bath model, kron(h_0, I) + kron(I, B) + kron(x_0, Y)."""
    hs, xs, B, Y = _factors(params, space)
    return np.kron(hs[0], np.eye(len(B))) + np.kron(np.eye(len(hs[0])), B) + np.kron(xs[0], Y)


# ---------------------------------------------------------------------------
# evolution


class DenseEvolver:
    """Diagonalise a real-symmetric H once per excitation-parity sector, then propagate to any time.

    Every term of the model is even in the quadratures (x^2, p^2, x_0 x_i),
    so it changes the total excitation number sum n_i by an even amount and
    commutes with the parity (-1)^(sum n_i), also in the truncated basis: H
    has no entry between the even and the odd basis states, and each sector
    takes its own eigh of about dim/2.
    """

    def __init__(self, H: np.ndarray, space: FockSpace):
        if H.shape != (space.dim, space.dim):
            raise DomainError(f"Hamiltonian shape {H.shape} does not match dim {space.dim}")
        if np.iscomplexobj(H) or np.max(np.abs(H - H.T)) > 1e-12:
            raise DomainError("Hamiltonian must be real symmetric (Hermitian) to 1e-12")
        parity = np.indices(space.cutoffs).sum(axis=0).ravel() % 2
        even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)
        if np.any(H[np.ix_(even, odd)]):
            raise DomainError("Hamiltonian must conserve total excitation parity")
        self.space = space
        # (basis indices, energies, real eigenvectors) per non-empty sector
        self._sectors = [(idx, *np.linalg.eigh(H[np.ix_(idx, idx)])) for idx in (even, odd) if idx.size]

    def propagate(self, psi: FockState, t: float) -> FockState:
        if psi.space != self.space:
            raise DomainError("state and Hamiltonian live in different Fock spaces")

        def apply(V, v):  # real V on a complex v viewed as dim x 2 (re, im) columns
            return (V @ v.view(float).reshape(-1, 2)).view(complex).ravel()

        evolved = np.empty_like(psi.amplitudes)
        for idx, energies, vectors in self._sectors:
            coeff = apply(vectors.T, psi.amplitudes[idx])
            evolved[idx] = apply(vectors, np.exp(-1j * energies * t) * coeff)
        norm = np.linalg.norm(evolved)
        if abs(norm - 1.0) > 1e-10:
            raise ConditioningError("unitary evolution failed to preserve the norm")
        return FockState(evolved / norm, psi.space)


def _bessel_series(z: float) -> np.ndarray:
    """J_0(z) .. J_(K-1)(z) for z >= 0, where K is the first order above z with J_K(z) < 1e-17.

    Miller's backward recurrence J_(k-1) = (2k/z) J_k - J_(k+1), started where
    the bound |J_n(z)| <= (z/2)^n / n! is below 1e-30 and normalised by
    J_0 + 2 sum_k J_2k = 1; rescaled on the way down so that it cannot overflow.
    """
    if z < 2e-17:  # J_1(z) = z/2 is already below the cutoff
        return np.ones(1)
    start = int(z) + 2
    while start * math.log(z / 2) - math.lgamma(start + 1) > math.log(1e-30):
        start += 1
    j = np.zeros(start + 2)
    j[start] = 1.0
    for k in range(start, 0, -1):
        j[k - 1] = 2 * k / z * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1 :] /= 1e250
    j /= j[0] + 2 * j[2::2].sum()
    return j[: next(k for k in range(int(z) + 1, start + 1) if j[k] < 1e-17)]


class ChebyshevEvolver:
    """Propagate states along a time grid by a Chebyshev expansion of exp(-i H dt), with no dense H.

    H = h_0 (x) I + I (x) B + x_0 (x) Y (see _factors) acts on amplitudes shaped
    (mode 0) x (bath) as  v @ [B | Y]  plus two d_0 x d_0 products, and the states
    of a block move together as the real and imaginary parts of one real array
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  The spectrum lies in
    the sum of the single-mode spectra widened by sum_i |kappa_i| |x_0| |x_i|
    (Weyl's inequality), which fixes the expansion's interval.
    """

    def __init__(self, params: ModelParams, space: FockSpace):
        hs, xs, B, Y = _factors(params, space)
        ends = np.array([np.linalg.eigvalsh(h)[[0, -1]] for h in hs]).sum(axis=0)
        norms = [np.abs(np.linalg.eigvalsh(x)).max() for x in xs]
        coupling = sum(abs(kappa) * norms[0] * norm for (_, _, kappa), norm in zip(params.bath, norms[1:]))
        self.space = space
        self._center = (ends[0] + ends[1]) / 2
        # a relative 1e-12 absorbs the rounding of the eigvalsh ends; a one-level space has H = center
        self._half = ((ends[1] - ends[0]) / 2 + coupling) * (1 + 1e-12) or 1.0
        # 2 (H - center) / half = h (x) I + I (x) B' + x_0 (x) Y', the operator of the recurrence
        self._h = (hs[0] - self._center * np.eye(len(hs[0]))) * (2 / self._half)
        self._x0, self._by = xs[0], np.hstack([B, Y]) * (2 / self._half)

    def _twice_scaled(self, v: np.ndarray) -> np.ndarray:
        """2 (H - center) / half applied to a (states, d_0, bath) real array."""
        d = self._by.shape[0]
        w = (v.reshape(-1, d) @ self._by).reshape(*v.shape[:2], 2 * d)
        return self._h @ v + w[..., :d] + self._x0 @ w[..., d:]

    def _step(self, v: np.ndarray, dt: float) -> np.ndarray:
        """exp(-i H dt) on the complex states v[:n] + i v[n:], as the same real layout."""
        coeffs = _bessel_series(self._half * dt)
        even, odd = coeffs[0] * v, np.zeros_like(v)
        prev, cur = None, v
        for k, c in enumerate(coeffs[1:], start=1):
            prev, cur = cur, 0.5 * self._twice_scaled(cur) if k == 1 else self._twice_scaled(cur) - prev
            target = even if k % 2 == 0 else odd
            target += (2 * c if k % 4 < 2 else -2 * c) * cur  # (-i)^k alternates within each parity
        n = v.shape[0] // 2
        # sum_k (-i)^k c_k T_k v = even - i odd, then the phase exp(-i center dt)
        re, im = even[:n] + odd[n:], even[n:] - odd[:n]
        cos, sin = np.cos(self._center * dt), np.sin(self._center * dt)
        return np.concatenate([cos * re + sin * im, cos * im - sin * re])

    def propagate(self, states, times):
        """Iterator over the tuple of evolved states at each time of a non-decreasing grid of t >= 0."""
        if any(psi.space != self.space for psi in states):
            raise DomainError("state and Hamiltonian live in different Fock spaces")
        times = np.asarray(times, dtype=float)
        if times.size and (times[0] < 0 or np.any(np.diff(times) < 0)):
            raise DomainError("times must be non-negative and non-decreasing")
        amps = np.array([psi.amplitudes for psi in states]).reshape(len(states), self.space.cutoffs[0], -1)
        return self._walk(np.concatenate([amps.real, amps.imag]), times)

    def _walk(self, v: np.ndarray, times: np.ndarray):
        n, now = v.shape[0] // 2, 0.0
        for t in times:
            if t > now:
                v, now = self._step(v, t - now), t
            amps = (v[:n] + 1j * v[n:]).reshape(n, -1)
            norms = np.linalg.norm(amps, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-10):
                raise ConditioningError("unitary evolution failed to preserve the norm")
            v = v / np.concatenate([norms, norms])[:, None, None]
            yield tuple(FockState(a / norm, self.space) for a, norm in zip(amps, norms))


# ---------------------------------------------------------------------------
# reductions and diagnostics


def _matricize(psi: FockState, keep) -> np.ndarray:
    """Amplitudes as a (kept modes) x (other modes) matrix."""
    keep = sorted(set(int(i) for i in keep))
    n = psi.space.n_modes
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise DomainError(f"kept modes must be a nonempty subset of range({n})")
    drop = [i for i in range(n) if i not in keep]
    tensor = np.transpose(psi.amplitudes.reshape(psi.space.cutoffs), keep + drop)
    return tensor.reshape(int(np.prod([psi.space.cutoffs[i] for i in keep])), -1)


def reduced_density(psi: FockState, keep) -> np.ndarray:
    """Partial trace of |psi><psi| onto the kept modes (trace-1 Hermitian PSD)."""
    mat = _matricize(psi, keep)
    rho = mat @ mat.conj().T
    return (rho + rho.conj().T) / 2


def purity_density(rho: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ rho)))


def quadrature_moments(rho: np.ndarray, space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and symmetrized covariance of (x.., p..) under a density matrix.

    Builds each quadrature over the whole space, so it is meant for reduced
    densities of one or a few modes.
    """
    xs, ps = _mode_quadratures(space)
    ops = [_kron(space, {k % space.n_modes: op}) for k, op in enumerate(xs + ps)]
    n2 = len(ops)
    mean = np.array([np.real(np.trace(rho @ op)) for op in ops])
    cov = np.empty((n2, n2))
    for i in range(n2):
        for j in range(i, n2):
            sym = 0.5 * np.real(np.trace(rho @ (ops[i] @ ops[j] + ops[j] @ ops[i])))
            cov[i, j] = cov[j, i] = sym - mean[i] * mean[j]
    return mean, cov


def state_moments(psi: FockState) -> tuple[np.ndarray, np.ndarray]:
    """Full mean and symmetrized covariance of (x.., p..) in a pure state.

    Each quadrature is applied to the amplitudes as a single-mode factor
    (_apply), so no full-space operator is formed.
    """
    xs, ps = _mode_quadratures(psi.space)
    n = psi.space.n_modes
    applied = np.array([_apply(psi.space, psi.amplitudes, {k % n: op}) for k, op in enumerate(xs + ps)])
    mean = np.real(applied @ psi.amplitudes.conj())
    gram = np.real(applied.conj() @ applied.T)  # Re <z_i psi|z_j psi> = <z_i z_j + z_j z_i> / 2
    return mean, (gram + gram.T) / 2 - np.outer(mean, mean)


def mode_means(psi: FockState) -> np.ndarray:
    """Per-mode <x>.., <p>.. of a pure state (the mean of state_moments)."""
    return state_moments(psi)[0]


def weyl_operator(space: FockSpace, delta: np.ndarray) -> np.ndarray:
    """Dense displacement operator shifting means by delta = (dx.., dp..)."""
    delta = np.asarray(delta, dtype=float)
    n = space.n_modes
    if delta.shape != (2 * n,):
        raise DomainError("delta must have one (x, p) pair per mode")
    xs, ps = _mode_quadratures(space)
    # generators on different modes commute, so the exponential factors over modes;
    # each one is exp(i h) for the Hermitian h = dp x - dx p, taken through eigh
    factors = {}
    for i in range(n):
        w, U = np.linalg.eigh(delta[n + i] * xs[i] - delta[i] * ps[i])
        factors[i] = (U * np.exp(1j * w)) @ U.conj().T
    return _kron(space, factors)


# ---------------------------------------------------------------------------
# Gaussian -> Fock bridge


def gaussian_to_fock(state: GaussianState, space: FockSpace) -> FockState:
    """Number-basis amplitudes of a pure Gaussian product state.

    Supports states whose covariance is block-diagonal over modes (each mode
    a displaced, possibly squeezed/rotated single-mode pure Gaussian); raises
    DomainError on cross-mode correlations.  Construction per mode: the
    centered state is the ground vector of the quadratic form with matrix
    sigma^{-1}, then a dense Weyl displacement is applied.  Amplitudes are
    computed at an enlarged cutoff; if the mass left above this space's
    cutoff exceeds 1e-8 a ConditioningError is raised, otherwise the
    truncation is renormalized.
    """
    if space.n_modes != state.n_modes:
        raise DomainError("space mode count does not match the state")
    if not is_pure(state):
        raise DomainError("only pure states have a wavefunction expansion")
    n = state.n_modes
    for i in range(n):
        for j in range(i + 1, n):
            block = state.cov[np.ix_([i, n + i], [j, n + j])]
            if np.max(np.abs(block)) > 1e-12:
                raise DomainError("cross-mode correlations are not supported by this bridge")

    margin = 8
    vectors = []
    deficit = 0.0
    for i in range(n):
        d = space.cutoffs[i]
        big = d + margin
        m, w = space.masses[i], space.frequencies[i]
        sigma = state.cov[np.ix_([i, n + i], [i, n + i])]
        K = np.linalg.inv(sigma)
        x = _x_matrix(big, m, w)
        b = _b_matrix(big, m, w)
        h = 0.5 * (K[0, 0] * (x @ x) - K[1, 1] * (b @ b)) + 0.5j * K[0, 1] * (x @ b + b @ x)
        h = (h + h.conj().T) / 2
        _, vecs = np.linalg.eigh(h)
        ground = vecs[:, 0]
        pivot = np.argmax(np.abs(ground))
        ground = ground * np.exp(-1j * np.angle(ground[pivot]))
        mini = FockSpace((big,), (m,), (w,))
        shift = weyl_operator(mini, np.array([state.mean[i], state.mean[n + i]]))
        amp = shift @ ground
        deficit += float(np.sum(np.abs(amp[d:]) ** 2))
        vectors.append(amp[:d])
    if deficit > TRUNCATION_TOL:
        raise ConditioningError(
            f"truncated norm deficit {deficit:.2e} exceeds {TRUNCATION_TOL}; raise the cutoffs"
        )
    full = vectors[0]
    for v in vectors[1:]:
        full = np.kron(full, v)
    full = full / np.linalg.norm(full)
    return FockState(full, space)
