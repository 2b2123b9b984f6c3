"""Number-basis reference routes that only the tests use: negativities of Fock
states, the state-level mode transform U psi of a symplectic S, Fock
amplitudes of Gaussian states by quadrature, and the space of a subset of
modes.

They build on the single-mode factors of qbm_structures.fock_oracle and load
scipy, which no CLI scenario does.
"""

import functools

import mpmath as mp
import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import qbm_structures.fock_oracle as fo
from qbm_structures.errors import ConditioningError, DomainError
from qbm_structures.model import symplectic_form
from qbm_structures.fock_oracle import FockState
from qbm_structures.gaussian import PURITY_TOL, symplectic_eigenvalues


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


def subspace(space: fo.FockSpace, modes) -> fo.FockSpace:
    """The number basis of the listed modes alone, in increasing mode order."""
    modes = sorted(set(int(i) for i in modes))
    return fo.FockSpace(
        tuple(space.cutoffs[i] for i in modes),
        tuple(space.masses[i] for i in modes),
        tuple(space.frequencies[i] for i in modes),
    )


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


QUADRATURE_STEP, QUADRATURE_HALF_WIDTH = mp.mpf(1) / 8, 20  # the grid of gaussian_to_fock_by_quadrature


@functools.lru_cache(maxsize=None)
def _hermite_functions(d: int, mw: float) -> tuple[list, list]:
    """The grid x_j, and the oscillator eigenfunctions phi_0 .. phi_(d-1) of m w = mw on it, at 40 digits."""
    with mp.workdps(40):
        n = int(QUADRATURE_HALF_WIDTH / QUADRATURE_STEP)
        xs = [j * QUADRATURE_STEP for j in range(-n, n + 1)]
        y = [mp.sqrt(mw) * x for x in xs]
        phis = [[(mw / mp.pi) ** mp.mpf(0.25) * mp.exp(-v * v / 2) for v in y]]
        for k in range(d - 1):  # phi_(k+1) = sqrt(2 / (k+1)) y phi_k - sqrt(k / (k+1)) phi_(k-1)
            below = phis[k - 1] if k else [0] * len(y)
            a, b = mp.sqrt(mp.mpf(2) / (k + 1)), mp.sqrt(mp.mpf(k) / (k + 1))
            phis.append([a * v * u - b * w for v, u, w in zip(y, phis[k], below)])
    return xs, phis


def gaussian_to_fock_by_quadrature(state, space: fo.FockSpace) -> FockState:
    """fo.gaussian_to_fock from the wavefunction, at 40 digits.

    Each mode's amplitude c_n is the overlap of phi_n with the displaced state
    exp(-i xm pm / 2) exp(i pm x) psi_0(x - xm), psi_0 = (Re A / pi)^(1/4) exp(-A x^2 / 2) and
    A = (1 - 2i sigma_xp) / (2 sigma_xx), by the trapezoid rule on a grid of step 1/8 over |x| <= 20.
    For these entire, Gaussian-decaying integrands the rule converges geometrically in the step:
    at step 1/16 over |x| <= 24 no amplitude of a cutoff-30 mode squeezed by e^0.6 and displaced
    by (1, -1) moves by more than 1e-40.  The phase makes the centred state's vacuum amplitude,
    by the same rule, real and positive.  psi_0 is normalised in closed form, so the weight left
    above the cutoff is 1 - sum_n |c_n|^2 at 40 digits, summed over the modes.
    """
    if np.max(np.abs(symplectic_eigenvalues(state.cov) - 0.5)) > PURITY_TOL:
        raise DomainError("only pure states have a wavefunction expansion")
    n = state.n_modes
    if any(np.max(np.abs(state.cov[np.ix_([i, n + i], [j, n + j])])) > 1e-12 for i in range(n) for j in range(i)):
        raise DomainError("cross-mode correlations are not supported by this bridge")
    full, deficit = np.ones(1), 0.0
    with mp.workdps(40):
        for i, (d, m, w) in enumerate(zip(space.cutoffs, space.masses, space.frequencies)):
            xs, phis = _hermite_functions(d, m * w)
            xm, pm = (mp.mpf(v) for v in state.mean[[i, n + i]].tolist())
            s_xx, s_xp = (mp.mpf(v) for v in state.cov[i, [i, n + i]].tolist())
            A = mp.mpc(1, -2 * s_xp) / (2 * s_xx)
            centred = mp.fdot(phis[0], [mp.exp(-A * x * x / 2) for x in xs])
            psi = [mp.exp(-0.5j * xm * pm + 1j * pm * x - A * (x - xm) ** 2 / 2) for x in xs]
            scale = (A.real / mp.pi) ** mp.mpf(0.25) * QUADRATURE_STEP * abs(centred) / centred
            amps = [scale * mp.fdot(phi, psi) for phi in phis]
            deficit += float(1 - mp.fsum(abs(c) ** 2 for c in amps))
            full = np.kron(full, [complex(c) for c in amps])
    if deficit > fo.TRUNCATION_TOL:
        raise ConditioningError(f"truncated norm deficit {deficit:.2e} exceeds {fo.TRUNCATION_TOL}; raise the cutoffs")
    return FockState(full / np.linalg.norm(full), space)
