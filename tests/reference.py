"""Number-basis reference routes that only the tests use: negativities of Fock
states and the state-level mode transform U psi of a symplectic S.

They build on the single-mode factors of qbm_structures.fock_oracle and load
scipy, which no CLI scenario does.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import qbm_structures.fock_oracle as fo
from qbm_structures import ConditioningError, DomainError, symplectic_eigenvalues, symplectic_form
from qbm_structures.fock_oracle import FockState
from qbm_structures.gaussian import PURITY_TOL


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
    mat = fo._matricize(psi, _check_party(party_a, psi.space.n_modes))
    return float(2 * np.log2(np.sum(np.linalg.svd(mat, compute_uv=False))))


def quadratic_operator(space: fo.FockSpace, K: np.ndarray):
    """Sparse (CSR) Weyl-ordered operator (1/2) sum K_ij sym(z_i z_j) for symmetric K."""
    n = space.n_modes
    if K.shape != (2 * n, 2 * n) or np.max(np.abs(K - K.T)) > 1e-10:
        raise DomainError("K must be a symmetric 2n x 2n matrix")
    xs, ps = fo._mode_quadratures(space)
    z = [((a, xs[a]), (n + a, ps[a])) for a in range(n)]  # (row of K, single-mode matrix)
    H = scipy.sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for a in range(n):
        # (1/2) sum_ij K_ij z_i z_j is Weyl-ordered because K is symmetric
        h = 0.5 * sum(K[i, j] * (u @ v) for i, u in z[a] for j, v in z[a])
        H += fo._kron(space, {a: (h + h.conj().T) / 2}, scipy.sparse.kron)
        for b in range(a + 1, n):  # different modes commute: sum_i z_i (x) sum_j K_ij z_j
            for i, u in z[a]:
                H += fo._kron(space, {a: u, b: sum(K[i, j] * v for j, v in z[b])}, scipy.sparse.kron)
    return H.tocsr()  # a sum of Hermitian Kronecker products


def mode_transform(psi: FockState, S: np.ndarray) -> FockState:
    """The state U psi, where U^dag z U = S z for a symplectic S.

    Splits S into polar factors (positive- and orthogonal-symplectic), takes
    each one's quadratic generator by a matrix logarithm and applies its
    exponential to the amplitudes (expm_multiply on the sparse
    quadratic_operator).  The tensor slots of the result carry the
    transformed modes, so its partial traces are plain ones.
    """
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


def gaussian_to_fock_by_inverse(state, space: fo.FockSpace) -> FockState:
    """fo.gaussian_to_fock as it checked purity and inverted each mode's covariance before its closed forms.

    Purity first, from the symplectic spectrum (one eigvals of Omega sigma over every mode), then the
    cross-mode blocks, then each mode's ground vector of the quadratic form np.linalg.inv(sigma_i),
    displaced by weyl_operator, at cutoff + 8 and cut back.
    """
    if np.max(np.abs(symplectic_eigenvalues(state.cov) - 0.5)) > PURITY_TOL:
        raise DomainError("only pure states have a wavefunction expansion")
    n = state.n_modes
    if any(np.max(np.abs(state.cov[np.ix_([i, n + i], [j, n + j])])) > 1e-12 for i in range(n) for j in range(i)):
        raise DomainError("cross-mode correlations are not supported by this bridge")
    full, deficit = np.ones(1), 0.0
    for i, (d, m, w) in enumerate(zip(space.cutoffs, space.masses, space.frequencies)):
        K = np.linalg.inv(state.cov[np.ix_([i, n + i], [i, n + i])])
        x, b = fo._x_matrix(d + 8, m, w), fo._b_matrix(d + 8, m, w)
        h = 0.5 * (K[0, 0] * (x @ x) - K[1, 1] * (b @ b)) + 0.5j * K[0, 1] * (x @ b + b @ x)
        ground = np.linalg.eigh((h + h.conj().T) / 2)[1][:, 0]
        ground = ground * np.exp(-1j * np.angle(ground[np.argmax(np.abs(ground))]))
        amp = fo.weyl_operator(fo.FockSpace((d + 8,), (m,), (w,)), state.mean[[i, n + i]]) @ ground
        deficit += float(np.sum(np.abs(amp[d:]) ** 2))
        full = np.kron(full, amp[:d])
    if deficit > fo.TRUNCATION_TOL:
        raise ConditioningError(f"truncated norm deficit {deficit:.2e} exceeds {fo.TRUNCATION_TOL}; raise the cutoffs")
    return FockState(full / np.linalg.norm(full), space)
