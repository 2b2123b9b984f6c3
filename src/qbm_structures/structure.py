"""Linear canonical transformations between decompositions of the mode space.

A StructureMap is an invertible linear change of position coordinates
x' = T x together with its canonical lift p' = T^{-T} p.  The lift
S = diag(T, T^{-T}) preserves the symplectic form exactly in exact
arithmetic; constructors check it numerically.

The two maps used throughout are the center-of-mass + relative-coordinate
split (relative coordinates taken against the distinguished particle, which
keeps the textbook reduced masses and produces the momentum-momentum
cross-couplings of the collective frame) and the normal-mode map that
decouples a quadratically coupled block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, _require_finite
from .model import QuadraticHamiltonian

CANONICITY_TOL = 1e-10
NORMAL_MODE_TOL = 1e-10


@dataclass(frozen=True)
class StructureMap:
    """Invertible position map x' = T x with canonical momentum lift p' = T^{-T} p."""

    T: np.ndarray

    def __post_init__(self) -> None:
        T = np.array(np.asarray(self.T, dtype=float))
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise DomainError(f"T must be square, got shape {T.shape}")
        _require_finite(T=T)
        try:
            T_inv = np.linalg.inv(T)
        except np.linalg.LinAlgError as exc:
            raise DomainError("T is singular") from exc
        # lift Omega lift^T - Omega holds exactly the entries of +/-(T T^-1 - I)
        if not np.max(np.abs(T @ T_inv - np.eye(T.shape[0]))) <= CANONICITY_TOL:
            raise DomainError("canonical lift fails symplectic-form preservation (T T^-1 misses I)")
        T.flags.writeable = False
        T_inv.flags.writeable = False
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "_T_inv", T_inv)

    @property
    def n_modes(self) -> int:
        return self.T.shape[0]

    @property
    def T_inv(self) -> np.ndarray:
        return self._T_inv  # type: ignore[attr-defined]

    @property
    def lift(self) -> np.ndarray:
        """2n x 2n symplectic matrix acting on (x.., p..) vectors."""
        n = self.n_modes
        S = np.zeros((2 * n, 2 * n))
        S[:n, :n] = self.T
        S[n:, n:] = self.T_inv.T
        return S


def cm_relative_map(masses) -> StructureMap:
    """Center of mass plus relative coordinates against the first particle.

    Row 0 is the mass-weighted average m_i / M; row a (a = 1..N) is
    x_1 - x_{1+a}.  The lift's kinetic form then carries the reduced mass of
    each (particle, oscillator) pair on the diagonal and couples the relative
    momenta pairwise.
    """
    masses = np.asarray(masses, dtype=float)
    if masses.ndim != 1 or masses.size < 2:
        raise DomainError("need at least two masses")
    if np.any(masses <= 0):
        raise DomainError("all masses must be positive")
    n = masses.size
    T = np.zeros((n, n))
    T[0] = masses / masses.sum()
    for a in range(1, n):
        T[a, 0] = 1.0
        T[a, a] = -1.0
    return StructureMap(T)


def transform_hamiltonian(H: QuadraticHamiltonian, m: StructureMap) -> QuadraticHamiltonian:
    """Re-express H in the map's coordinates: K' = S^{-T} K S^{-1}."""
    if m.n_modes != H.n_modes:
        raise DomainError(f"mode count mismatch: map {m.n_modes}, Hamiltonian {H.n_modes}")
    n = H.n_modes
    S_inv = np.zeros((2 * n, 2 * n))
    S_inv[:n, :n] = m.T_inv
    S_inv[n:, n:] = m.T.T
    K = S_inv.T @ H.K @ S_inv
    return QuadraticHamiltonian(n, (K + K.T) / 2)


def normal_modes(H: QuadraticHamiltonian, block) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normal modes of the given block: squared frequencies w, mode matrix V, mass matrix M.

    Solves the generalized symmetric eigenproblem B v = w M v, where B is the
    block's position form and M the inverse of its (positive-definite)
    momentum form, i.e. the effective mass matrix.  V is M-orthonormal,
    V^T M V = I, so x = V q and p = M V pi are canonical with
    H = (1/2) sum_k (pi_k^2 + w_k q_k^2) when the block has no
    position-momentum terms.  w is sorted ascending; negative entries are
    unstable directions.  Degenerate frequencies are ordered
    lexicographically by eigenvector entries after fixing the first nonzero
    entry of each vector positive.  Raises ConditioningError when the
    returned V misses V^T M V = I by more than NORMAL_MODE_TOL.
    """
    block = sorted(set(int(i) for i in block))
    n = H.n_modes
    if not block or block[0] < 0 or block[-1] >= n:
        raise DomainError(f"block indices out of range for {n} modes")
    idx = np.asarray(block)
    A = H.momentum_block[np.ix_(idx, idx)]
    B = H.position_block[np.ix_(idx, idx)]
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise DomainError("kinetic sub-matrix of the block is not positive definite") from exc
    L_inv = np.linalg.inv(L)
    eff_mass = L_inv.T @ L_inv

    # with the momentum form A = L L^T = M^-1 and v = L u, B v = w M v becomes (L^T B L) u = w u
    C = L.T @ B @ L
    w, U = np.linalg.eigh((C + C.T) / 2)
    V = L @ U
    for k in range(V.shape[1]):
        col = V[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            V[:, k] = -col
    order = _tie_broken_order(w, V)
    w, V = w[order], V[:, order]
    residual = float(np.max(np.abs(V.T @ eff_mass @ V - np.eye(len(idx)))))
    if residual > NORMAL_MODE_TOL:
        raise ConditioningError(f"normal modes are not mass-orthonormal (residual {residual:.3e})")
    return w, V, eff_mass


def normal_mode_map(H: QuadraticHamiltonian, block) -> StructureMap:
    """Decouple the given modes: diagonalize their position and momentum blocks jointly.

    The returned map acts as the identity outside the block; inside, the new
    modes are those of normal_modes: unit mass and potential coefficients w
    (squared frequencies), sorted ascending.
    """
    block = sorted(set(int(i) for i in block))
    _, V, _ = normal_modes(H, block)
    n = H.n_modes
    idx = np.asarray(block)
    T = np.eye(n)
    T[np.ix_(idx, idx)] = np.linalg.inv(V)
    return StructureMap(T)


def _tie_broken_order(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    order = list(np.argsort(w, kind="stable"))
    scale = max(np.max(np.abs(w)), 1.0)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(w[order[j + 1]] - w[order[i]]) <= 1e-12 * scale:
            j += 1
        if j > i:
            order[i : j + 1] = sorted(order[i : j + 1], key=lambda k: tuple(np.round(V[:, k], 9)))
        i = j + 1
    return np.asarray(order)


def collective_mode_map(H: QuadraticHamiltonian, masses) -> StructureMap:
    """Full restructuring pipeline: center of mass, then normal modes of the relative block.

    The composite map sends an untransformed particle + bath model to one
    collective mode (mode 0) coupled bilinearly in position to mutually
    decoupled oscillators (modes 1..N), mirroring the original form.
    """
    cm = cm_relative_map(masses)
    nm = normal_mode_map(transform_hamiltonian(H, cm), range(1, H.n_modes))
    return StructureMap(nm.T @ cm.T)
