"""Brute-force number-basis validator for small instances.

Everything here works in a truncated number basis built from ladder
operators, so results are independent of the covariance-matrix machinery
they certify.  Operators are Kronecker products of single-mode factors, so
the one O(dim^3) step is DenseEvolver's eigendecomposition, and the
Hamiltonian it diagonalises is the one dense full-space operator on the
pure-state route: moments apply single-mode factors along tensor axes
(_apply), pure-state negativity comes from Schmidt coefficients, and mode
transforms apply sparse generators to the amplitudes by expm_multiply.
The model's terms are all even in the quadratures, so H conserves the
total excitation parity, and the eigendecomposition is two eighs of about
dim/2, one per parity sector: a quarter of the flops of one full eigh.
For one to three modes at cutoffs of a few tens.

Each mode's basis is the eigenbasis of a reference oscillator with the
mode's mass and a basis frequency; x and p matrices carry those widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError
from .gaussian import GaussianState, is_pure
from .model import POTENTIAL_HARMONIC, ModelParams, symplectic_form

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


def build_fock_hamiltonian(params: ModelParams, space: FockSpace) -> np.ndarray:
    """Dense real-symmetric Hamiltonian of the particle + bath model, term by term."""
    if space.n_modes != params.n_modes:
        raise DomainError("space mode count does not match the model")
    stiffness = (params.m1 * params.omega**2 if params.potential == POTENTIAL_HARMONIC else 0.0,)
    stiffness += tuple(m * w**2 for m, w, _ in params.bath)
    xs, ps = _mode_quadratures(space)
    H = np.zeros((space.dim, space.dim))
    for i, (x, p, m) in enumerate(zip(xs, ps, params.masses)):
        H += _kron(space, {i: (p @ p).real / (2 * m) + 0.5 * stiffness[i] * (x @ x)})
    for i, (_, _, kappa) in enumerate(params.bath, start=1):
        H += params.coupling_sign * kappa * _kron(space, {0: xs[0], i: xs[i]})
    return (H + H.T) / 2


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


def _check_party(party_a, k: int) -> list[int]:
    party_a = sorted(set(int(i) for i in party_a))
    if not party_a or party_a[0] < 0 or party_a[-1] >= k or len(party_a) == k:
        raise DomainError("party_a must be a proper nonempty subset of the modes")
    return party_a


def log_negativity_density(rho: np.ndarray, party_a, dims) -> float:
    """log2 of the trace norm after partial transposition on party_a modes."""
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    tensor = rho.reshape(dims + dims)
    for i in _check_party(party_a, k):
        tensor = np.swapaxes(tensor, i, k + i)
    d = int(np.prod(dims))
    pt = tensor.reshape(d, d)
    return float(np.log2(np.sum(np.abs(np.linalg.eigvalsh(pt)))))


def pure_log_negativity(psi: FockState, party_a) -> float:
    """Log-negativity of a pure state, 2 log2 of the sum of its Schmidt coefficients."""
    mat = _matricize(psi, _check_party(party_a, psi.space.n_modes))
    return float(2 * np.log2(np.sum(np.linalg.svd(mat, compute_uv=False))))


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


def quadratic_operator(space: FockSpace, K: np.ndarray):
    """Sparse (CSR) Weyl-ordered operator (1/2) sum K_ij sym(z_i z_j) for symmetric K."""
    import scipy.sparse  # loaded on first use, off the CLI's import path

    n = space.n_modes
    if K.shape != (2 * n, 2 * n) or np.max(np.abs(K - K.T)) > 1e-10:
        raise DomainError("K must be a symmetric 2n x 2n matrix")
    xs, ps = _mode_quadratures(space)
    z = [((a, xs[a]), (n + a, ps[a])) for a in range(n)]  # (row of K, single-mode matrix)
    H = scipy.sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for a in range(n):
        # (1/2) sum_ij K_ij z_i z_j is Weyl-ordered because K is symmetric
        h = 0.5 * sum(K[i, j] * (u @ v) for i, u in z[a] for j, v in z[a])
        H += _kron(space, {a: (h + h.conj().T) / 2}, scipy.sparse.kron)
        for b in range(a + 1, n):  # different modes commute: sum_i z_i (x) sum_j K_ij z_j
            for i, u in z[a]:
                H += _kron(space, {a: u, b: sum(K[i, j] * v for j, v in z[b])}, scipy.sparse.kron)
    return H.tocsr()  # a sum of Hermitian Kronecker products


def mode_transform(psi: FockState, S: np.ndarray) -> FockState:
    """The state U psi, where U^dag z U = S z for a symplectic S.

    Splits S into polar factors (positive- and orthogonal-symplectic), takes
    each one's quadratic generator by a matrix logarithm and applies its
    exponential to the amplitudes (expm_multiply on the sparse
    quadratic_operator).  The tensor slots of the result carry the
    transformed modes, so its partial traces are plain ones.
    """
    import scipy.linalg  # loaded on first use, off the CLI's import path
    import scipy.sparse.linalg

    n = psi.space.n_modes
    if S.shape != (2 * n, 2 * n):
        raise DomainError("symplectic dimension does not match the space")
    omega = symplectic_form(n)
    if np.max(np.abs(S @ omega @ S.T - omega)) > 1e-8:
        raise DomainError("matrix is not symplectic")
    gram = S @ S.T
    w, V = np.linalg.eigh(gram)
    if w.min() <= 0:
        raise ConditioningError("polar factor is not positive definite")
    pos = (V * np.sqrt(w)) @ V.T
    log_pos = (V * np.log(w)) @ V.T / 2
    orth = np.linalg.solve(pos, S)

    # orthogonal symplectic matrices are block encodings [[X, Y], [-Y, X]] of
    # complex unitaries u = X + iY, whose skew-Hermitian log always exists
    X, Y = orth[:n, :n], orth[:n, n:]
    if np.max(np.abs(orth[n:, :n] + Y)) > 1e-8 or np.max(np.abs(orth[n:, n:] - X)) > 1e-8:
        raise ConditioningError("polar factor is not orthogonal-symplectic")
    T, Q = scipy.linalg.schur(X + 1j * Y, output="complex")
    log_u = Q @ np.diag(np.log(np.diag(T))) @ Q.conj().T
    log_orth = np.block([[log_u.real, log_u.imag], [-log_u.imag, log_u.real]])
    if np.max(np.abs(scipy.linalg.expm(log_orth) - orth)) > 1e-8:
        raise ConditioningError("failed to take the orthogonal factor's logarithm")

    # U = exp(-i H_pos) exp(-i H_orth): the orthogonal factor acts first
    amp = psi.amplitudes
    for gen in (log_orth, log_pos):
        K = -omega @ gen
        K = (K + K.T) / 2
        amp = scipy.sparse.linalg.expm_multiply(-1j * quadratic_operator(psi.space, K), amp)
    norm = np.linalg.norm(amp)
    if abs(norm - 1.0) > 1e-10:
        raise ConditioningError("mode transform failed to preserve the norm")
    return FockState(amp / norm, psi.space)


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
