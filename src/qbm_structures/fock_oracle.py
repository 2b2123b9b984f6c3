"""Brute-force number-basis validator for small instances.

Everything here works in a truncated number basis built from ladder
operators, so results are independent of the covariance-matrix machinery
they certify.  The model's H is h_0 (x) I + I (x) B + x_0 (x) Y over
(mode 0) x (bath), built from single-mode factors (_factors).
ChebyshevEvolver applies it in that factored form to propagate states along
a time grid by one Chebyshev expansion over the grid, with no dense H and no
eigh beyond the single-mode ones.  branch_diagnostics reads oracle-compare's
columns for a block of grid times off stacked single-mode reduced densities.
build_fock_hamiltonian and DenseEvolver, which takes one eigh per
excitation-parity sector of the dense H, are the reference the evolver is
tested against; the per-state state_moments (single-mode factors along tensor
axes, _apply), mode_means, reduced_density, purity_density and weyl_operator
are the reference for branch_diagnostics.  For a few modes at cutoffs of a few
tens.

Each mode's basis is the eigenbasis of a reference oscillator with the
mode's mass and a basis frequency; x and p matrices carry those widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError
from .gaussian import PURITY_TOL, GaussianState
from .model import POTENTIAL_HARMONIC, ModelParams

DEFAULT_DIM_CAP = 20_000
TRUNCATION_TOL = 1e-8
ROUNDING = 16 * np.finfo(float).eps  # relative size below which an off-diagonal part is rounding
ORDER_BLOCK = 8  # Chebyshev orders summed into the grid times by one GEMM
GRID_SPAN = 64  # grid times one Chebyshev expansion covers, which bounds its memory


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


def _bessel_series(zs) -> np.ndarray:
    """A row J_0(z) .. J_(K-1)(z) per z >= 0, where K is the first order above max z with J_K(max z) < 1e-17.

    Miller's backward recurrence J_(k-1) = (2k/z) J_k - J_(k+1), run on all z
    at once from where the bound |J_n(max z)| <= (max z/2)^n / n! is below
    1e-30, and normalised by J_0 + 2 sum_k J_2k = 1; rescaled on the way down
    so that it cannot overflow.  Below z = 2e-17, J_1(z) = z/2 is already below
    the cutoff and the row is 1, 0, 0 ...
    """
    zs = np.asarray(zs, dtype=float)
    top = zs.max()
    live = zs >= 2e-17
    if not live.any():
        table = np.zeros((zs.size, 1))
    else:
        start = int(top) + 2
        while start * math.log(top / 2) - math.lgamma(start + 1) > math.log(1e-30):
            start += 1
        ratio = 2 * np.arange(start + 1)[:, None] / zs[live]
        # |J| can grow by at most max(ratio) + 1 per order, so the magnitudes are checked only near overflow
        growth, bound = (ratio.max(axis=1) + 1).tolist(), 1.0
        j = np.zeros((start + 2, ratio.shape[1]))
        j[start] = 1.0
        for k in range(start, 0, -1):
            j[k - 1] = ratio[k] * j[k] - j[k + 1]
            bound *= growth[k]
            if bound > 1e250:
                j[k - 1 :, np.abs(j[k - 1 : k + 1]).max(axis=0) > 1e250] /= 1e250
                bound = np.abs(j[k - 1 : k + 1]).max()
        j /= j[0] + 2 * j[2::2].sum(axis=0)
        widest = j[:, zs[live].argmax()]
        table = np.zeros((zs.size, next(k for k in range(int(top) + 1, start + 1) if widest[k] < 1e-17)))
        table[live] = j[: table.shape[1]].T
    table[~live, 0] = 1.0
    return table


def _split_diagonal(m: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The diagonal of m, and its off-diagonal part, or None when that part is at rounding level."""
    diag = np.diag(m).copy()
    off = m - np.diag(diag)
    return diag, (off if np.abs(off).max() > ROUNDING * np.abs(m).max() else None)


class ChebyshevEvolver:
    """Propagate states along a time grid by one Chebyshev expansion of exp(-i H t), with no dense H.

    H = h_0 (x) I + I (x) B + x_0 (x) Y (see _factors) acts on amplitudes shaped
    (mode 0) x (bath).  In the basis FockSpace.for_model gives, B and a harmonic
    particle's h_0 are diagonal up to rounding, so H v is  E * v + x_0 @ (v @ Y)
    with E their diagonals summed; an off-diagonal part above rounding level (a
    free particle's h_0, a basis that does not match the model) is applied as
    a product of its own.  The states of a block move together as the real and
    imaginary parts of one real array (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
    3967 (1984)).  The spectrum lies in the sum of the single-mode spectra
    widened by sum_i |kappa_i| |x_0| |x_i| (Weyl's inequality), which fixes the
    expansion's interval.
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
        scale = 2 / self._half
        (h_diag, h_off), (b_diag, b_off) = _split_diagonal(hs[0]), _split_diagonal(B)
        self._diag = (h_diag[:, None] + b_diag - self._center) * scale
        self._h_off = None if h_off is None else h_off * scale
        self._b_off = None if b_off is None else b_off * scale
        self._x0, self._y = xs[0], Y * scale

    def _twice_scaled(self, v: np.ndarray) -> np.ndarray:
        """2 (H - center) / half applied to a (states, d_0, bath) real array."""
        out = self._diag * v + self._x0 @ (v.reshape(-1, len(self._y)) @ self._y).reshape(v.shape)
        if self._h_off is not None:
            out += self._h_off @ v
        if self._b_off is not None:
            out += v @ self._b_off
        return out

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
        """One expansion per GRID_SPAN grid times: the first from t = 0, each later one from the last state before it."""
        now = 0.0
        for first in range(0, times.size, GRID_SPAN):
            span = times[first : first + GRID_SPAN]
            re, im = self._expand(v, span - now)
            for r, i in zip(re, im):
                amps = r + 1j * i
                norms = np.linalg.norm(amps, axis=1)
                if np.any(np.abs(norms - 1.0) > 1e-10):
                    raise ConditioningError("unitary evolution failed to preserve the norm")
                yield tuple(FockState(a / norm, self.space) for a, norm in zip(amps, norms))
            v = np.concatenate([re[-1], im[-1]]).reshape(v.shape) / np.concatenate([norms, norms])[:, None, None]
            now = span[-1]

    def _expand(self, v: np.ndarray, dts: np.ndarray) -> np.ndarray:
        """exp(-i H dt) on the complex states v[:n] + i v[n:] for every dt.

        Returns the real and the imaginary parts, each (dts, n, d_0 * bath).
        Runs T_k(H') v once, up to the order the largest dt needs, and adds
        each dt's w_k = (2 - delta_k0) (-i)^k J_k(half dt) exp(-i center dt)
        in by one GEMM per ORDER_BLOCK orders: w_k T_k (re + i im) is
        (Re w_k re - Im w_k im) + i (Im w_k re + Re w_k im).
        """
        coeffs = _bessel_series(self._half * dts)
        orders = coeffs.shape[1]
        w = coeffs * (2 * np.array([1, -1j, -1, 1j]))[np.arange(orders) % 4]
        w[:, 0] /= 2
        w *= np.exp(-1j * self._center * dts)[:, None]
        # rows (re, im) x dts, columns orders x (re, im) of T_k v
        weights = np.stack([np.stack([w.real, -w.imag], axis=-1), np.stack([w.imag, w.real], axis=-1)])
        weights = weights.reshape(2 * dts.size, 2 * orders)
        ring = np.empty((min(ORDER_BLOCK, orders), *v.shape))  # T_k v at slot k % len(ring)
        sums = np.zeros((2 * dts.size, v.size // 2))
        for k in range(orders):
            slot = k % len(ring)
            if k == 0:
                ring[0] = v
            elif k == 1:
                ring[1] = 0.5 * self._twice_scaled(ring[0])
            else:
                np.subtract(self._twice_scaled(ring[slot - 1]), ring[slot - 2], out=ring[slot])
            if slot == len(ring) - 1 or k == orders - 1:
                sums += weights[:, 2 * (k - slot) : 2 * (k + 1)] @ ring[: slot + 1].reshape(2 * (slot + 1), -1)
        return sums.reshape(2, dts.size, v.shape[0] // 2, -1)


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


def branch_diagnostics(amps: np.ndarray, space: FockSpace) -> np.ndarray:
    """Per time: mode-0 purity, <x_0>, <p_0>, the 2 x 2 covariance and the decoherence factor of two branches.

    amps holds the branches psi_+, psi_- of a block of times, shaped (times, 2,
    *cutoffs); each row is [purity, <x_0>, <p_0>, cov (row-major), r].  Every
    number comes from single-mode reduced densities rho_i, stacked over the
    block.  The mode-0 columns are psi_+'s, from its rho_0 and the truncated
    x_0, p_0, x_0^2, p_0^2 and (x_0 p_0 + p_0 x_0)/2, as state_moments takes
    them.  r = |<psi_+| I (x) W_1 (x) W_2 .. |psi_+>|, where W_i shifts mode
    i's means from psi_+'s to psi_-'s (weyl_operator's factor, from one
    stacked eigh per mode) and acts along mode i's axis.  O(times dim d), with
    no operator beyond one mode.
    """
    n_t, cut = len(amps), space.cutoffs
    if amps.shape != (n_t, 2, *cut):
        raise DomainError(f"amplitudes of shape {amps.shape} are not (times, 2, *{cut})")
    xs, ps = _mode_quadratures(space)

    def expect(i: int, ops: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Mode i's rho_i of both branches, (times, 2, d, d), and its Re tr(rho_i op) per op, (ops, times, 2)."""
        d = cut[i]
        mat = np.moveaxis(amps.reshape(n_t, 2, -1, d, int(np.prod(cut[i + 1 :]))), 3, 2).reshape(n_t, 2, d, -1)
        rho = mat @ mat.conj().swapaxes(-1, -2)
        values = np.real(rho.reshape(n_t, 2, d * d) @ np.array([op.T.ravel() for op in ops]).T)
        return rho, np.moveaxis(values, -1, 0)

    x, p = xs[0], ps[0]
    rho, values = expect(0, [x, p, x @ x, p @ p, (x @ p + p @ x) / 2])
    mx, mp, xx, pp, xp = values[..., 0]
    cov_xp = xp - mx * mp
    columns = [np.sum(np.abs(rho[:, 0]) ** 2, axis=(1, 2)), mx, mp, xx - mx**2, cov_xp, cov_xp, pp - mp**2]
    plus = amps[:, 0].reshape(n_t, -1)
    shifted = plus
    for i in range(1, space.n_modes):
        means = expect(i, [xs[i], ps[i]])[1]
        dx, dp = means[..., 1] - means[..., 0]
        w, U = np.linalg.eigh(dp[:, None, None] * xs[i] - dx[:, None, None] * ps[i])
        W = (U * np.exp(1j * w)[:, None, :]) @ U.conj().swapaxes(-1, -2)
        shifted = (W[:, None] @ shifted.reshape(n_t, int(np.prod(cut[:i])), cut[i], -1)).reshape(n_t, -1)
    return np.column_stack(columns + [np.abs(np.sum(plus.conj() * shifted, axis=1))])


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
    DomainError on cross-mode correlations, then on a mode whose symplectic
    eigenvalue nu = sqrt(det sigma_i) is not 1/2 within PURITY_TOL.
    Construction per mode: the centered state is the ground vector of the
    quadratic form with matrix sigma_i^{-1}, adj(sigma_i) / det sigma_i, then a
    dense Weyl displacement is applied.  Amplitudes are computed at an enlarged
    cutoff; if the mass left above this space's cutoff exceeds 1e-8 a
    ConditioningError is raised, otherwise the truncation is renormalized.
    """
    if space.n_modes != state.n_modes:
        raise DomainError("space mode count does not match the state")
    n = state.n_modes
    for i in range(n):
        for j in range(i + 1, n):
            block = state.cov[np.ix_([i, n + i], [j, n + j])]
            if np.max(np.abs(block)) > 1e-12:
                raise DomainError("cross-mode correlations are not supported by this bridge")
    sigmas = [state.cov[np.ix_([i, n + i], [i, n + i])] for i in range(n)]
    dets = np.array([a * d - b * c for (a, b), (c, d) in sigmas])
    if not np.all(np.abs(np.sqrt(dets) - 0.5) <= PURITY_TOL):
        raise DomainError("only pure states have a wavefunction expansion")

    margin = 8
    vectors = []
    deficit = 0.0
    for i in range(n):
        d = space.cutoffs[i]
        big = d + margin
        m, w = space.masses[i], space.frequencies[i]
        (s_xx, s_xp), (_, s_pp) = sigmas[i]
        k_xx, k_pp, k_xp = np.array([s_pp, s_xx, -s_xp]) / dets[i]  # sigma_i^-1 = adj(sigma_i) / det sigma_i
        x = _x_matrix(big, m, w)
        b = _b_matrix(big, m, w)
        h = 0.5 * (k_xx * (x @ x) - k_pp * (b @ b)) + 0.5j * k_xp * (x @ b + b @ x)
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
