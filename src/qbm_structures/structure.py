"""Linear canonical transformations between decompositions of the mode space.

A StructureMap is an invertible linear change of position coordinates
x' = T x together with its canonical lift p' = T^{-T} p.  The lift
S = diag(T, T^{-T}) preserves the symplectic form exactly in exact
arithmetic; constructors check it numerically.

The maps here are test references (runs take the model's normal modes from
star_normal_modes): the center-of-mass + relative-coordinate split
(relative coordinates taken against the distinguished particle, which keeps
the textbook reduced masses and produces the momentum-momentum
cross-couplings of the collective frame) and the normal-mode map that
decouples a quadratically coupled block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DomainError, _require_finite
from .model import QuadraticHamiltonian

CANONICITY_TOL = 1e-10
NORMAL_MODE_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
_ROOT_BLOCK = 256  # secular roots per stacked step: temporaries stay O(_ROOT_BLOCK N)
_MAX_STEPS = 100


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


def normal_modes(B: np.ndarray, masses) -> tuple[np.ndarray, np.ndarray]:
    """Normal modes of H = (1/2) (x^T B x + p^T M^-1 p), M = diag(masses): squared frequencies w and mode matrix V.

    Solves the generalized symmetric eigenproblem B v = w M v.  With C = M^-1/2 B M^-1/2, a row and
    column scaling, it is C u = w u, one numpy eigh, and V = M^-1/2 U is M-orthonormal, V^T M V = I,
    so x = V q and p = M V pi are canonical with H = (1/2) sum_k (pi_k^2 + w_k q_k^2).  w is sorted
    ascending; negative entries are unstable directions.  The first entry above 1e-12 in size of
    each column of V is positive, and degenerate frequencies are ordered lexicographically by the
    columns' entries.  Raises ConditioningError when U misses U^T U = I, which is
    (sqrt(M) V)^T (sqrt(M) V) = I, by more than NORMAL_MODE_TOL.
    """
    r = np.sqrt(1.0 / np.asarray(masses, dtype=float))
    w, U = np.linalg.eigh(r[:, None] * B * r)
    return _mass_orthonormal(w, U, r)


def star_normal_modes(tip: float, sq_freqs, couplings) -> tuple[np.ndarray, np.ndarray]:
    """Squared frequencies w and orthonormal eigenvectors U of the particle + bath arrowhead C, in O(N^2).

    C = M^-1/2 B M^-1/2 (model.arrowhead) has the tip C_00 = k_1 / m_1, the squared bath frequencies d_i
    on the diagonal and the couplings z_i in row and column 0; the model's normal modes are V = M^-1/2 U.
    A zero coupling deflates (d_i, e_i), and equal frequencies deflate after a Givens rotation folds one
    coupling into the other.  With every remaining z_i nonzero and the d_i distinct, C u = w u reads
    u_i = z_i u_0 / (w - d_i), and w solves the secular equation f(w) = w - tip + sum_i z_i^2 / (d_i - w)
    = 0 (Ullersma, Physica 32, 27 (1966)): f increases between its poles, so one root lies below d_1,
    one between each pair of neighbours and one above d_N.  w holds those roots ascending, then the
    deflated d_i; no column has a fixed sign.  U is orthonormal to rounding whatever the roots
    (_secular_modes), so the check is the backward error: ConditioningError unless the couplings z^ for
    which the roots are exact miss z by at most NORMAL_MODE_TOL (max(|tip|, max |d|) + |z|).
    """
    d, z = (np.asarray(v, dtype=float) for v in (sq_freqs, couplings))
    n = d.size + 1
    order = np.argsort(d, kind="stable")
    d, z, rows = d[order], z[order], order + 1  # rows: each sorted bath mode's row of U
    scale = max(abs(tip), np.max(np.abs(d))) + math.sqrt(z @ z)
    tol = 8 * _EPS * scale
    live = np.abs(z) > tol
    rotations = []
    at = np.flatnonzero(live)
    # equal frequencies: a Givens rotation folds mode i's coupling into mode j's.  Along a chain of them, mode j
    # carries the folded coupling, and its rotated d, on to the next pair, so each pair is compared again
    for a in np.flatnonzero(np.diff(d[at]) <= tol):
        i, j = at[a], at[a + 1]
        if abs(d[j] - d[i]) <= tol:
            h = math.hypot(z[i], z[j])
            c, s = z[j] / h, z[i] / h  # the rotated pair drops only its off-diagonal c s (d_i - d_j)
            rotations.append((rows[i], rows[j], c, s))
            d[i], d[j] = c * c * d[i] + s * s * d[j], s * s * d[i] + c * c * d[j]
            z[i], z[j], live[i] = 0.0, h, False
    k = np.count_nonzero(live)
    U = np.zeros((n, n))
    w = np.empty(n)
    w[: k + 1], miss = _secular_modes(tip, d[live], z[live], U, np.concatenate(([0], rows[live])))
    if not miss <= NORMAL_MODE_TOL * scale:
        raise ConditioningError(f"normal modes miss the model's couplings by {miss / scale:.3e} (relative)")
    w[k + 1 :] = d[~live]
    U[rows[~live], np.arange(k + 1, n)] = 1.0
    for i, j, c, s in reversed(rotations):  # back to the bath's own coordinates
        U[[i, j]] = c * U[i] + s * U[j], c * U[j] - s * U[i]
    return w, U


def _secular_modes(tip: float, d: np.ndarray, z: np.ndarray, U: np.ndarray, rows: np.ndarray) -> tuple:
    """Eigenvalues of the arrowhead (tip, d, z), d ascending and distinct, z nonzero; eigenvectors into U[rows, :k+1].

    U takes the couplings z^ for which the computed roots w_j are exact, z^_i^2 = -prod_j (w_j - d_i) /
    prod_{l != i} (d_l - d_i) (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)): it is
    orthonormal to rounding however close two roots lie, and a wrong root shows only in max |z^ - z|,
    returned with the roots.
    """
    k = d.size
    if k == 0:
        U[rows[0], 0] = 1.0
        return np.array([tip]), 0.0
    z2 = z * z
    spread = math.sqrt(z2.sum())
    lower = np.concatenate(([min(tip, d[0]) - spread], d))  # root j lies in (lower_j, upper_j)
    upper = np.append(d, max(tip, d[-1]) + spread)
    # the end roots start from the 2 x 2 arrowheads that put every coupling on the nearest pole, which bound them,
    # unless that bound rounds onto the pole
    start = 0.5 * (lower + upper)
    for i, sign in ((0, -1.0), (-1, 1.0)):
        bound = 0.5 * (tip + d[i]) + sign * math.sqrt((0.5 * (tip - d[i])) ** 2 + spread**2)
        start[i] = bound if lower[i] < bound < upper[i] else start[i]
    n_blocks = -(-(k + 1) // _ROOT_BLOCK)
    size = -(-(k + 1) // n_blocks)
    blocks = [slice(s, min(s + size, k + 1)) for s in range(0, k + 1, size)]
    roots = [_secular_roots(tip, d, z2, lower[b], upper[b], start[b], b.start) for b in blocks]
    origin, tau = np.concatenate(roots, axis=1)
    origin = origin.astype(int)

    def gaps(b: slice) -> np.ndarray:  # w_j - d_i for the block's roots j
        return tau[b, None] - (d - d[origin[b], None])

    zhat2 = -np.ones(k)
    for b in blocks:
        gap = gaps(b)
        paired = np.arange(b.start, min(b.stop, k))
        at = np.arange(paired.size), paired
        span = d[paired, None] - d
        span[at] = 1.0  # root l's own pole enters as w_l - d_l
        zhat2 *= np.prod(gap[: paired.size] / span, axis=0)
        if b.stop > k:
            zhat2 *= gap[-1]
    zhat = np.copysign(np.sqrt(zhat2), z)
    for b in blocks:
        u = zhat / (gap if len(blocks) == 1 else gaps(b))  # one block keeps its gaps
        norm = np.sqrt(1.0 + np.einsum("ij,ij->i", u, u))
        U[rows[0], b] = 1.0 / norm
        U[rows[1:], b] = (u / norm[:, None]).T
    return d[origin] + tau, float(np.max(np.abs(zhat - z)))


def _secular_roots(tip: float, d: np.ndarray, z2: np.ndarray, lower, upper, start, first: int) -> np.ndarray:
    """Roots first, first + 1, .. of f(w) = w - tip + sum_i z2_i / (d_i - w) as rows (origin pole index, tau).

    Root j lies in (lower_j, upper_j) and is held as tau = w - d_o from its nearer pole d_o.  Each
    step solves the two-pole rational model of f that matches its value and slope at tau (Bunch,
    Nielsen & Sorensen, Numer. Math. 31, 31 (1978)), or bisects when that leaves the bracket.
    """
    k = d.size
    j = np.arange(first, first + lower.size)
    origin = np.maximum(j - 1, 0)
    delta = d - d[origin, None]
    tau = start - d[origin]
    out, todo = np.empty(j.size), np.arange(j.size)
    terms = np.empty((2, *delta.shape))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a non-finite model step bisects
        for step in range(_MAX_STEPS):
            inv = np.divide(1.0, np.subtract(delta, tau[:, None], out=terms[1]), out=terms[1])
            inv -= np.minimum(inv, 0.0, out=terms[0])  # the terms of poles below the root, then above it
            psi, phi = terms @ z2
            dpsi, dphi = np.square(terms, out=terms) @ z2
            if step == 0:  # the origin moves to the upper pole when the root lies above the start
                up = (psi + phi + d[origin] - tip + tau < 0) & (j > 0) & (j < k)
                origin[up] = j[up]
                delta[up] = d - d[origin[up], None]
                base = d[origin]
                tau, lo, hi, lin0 = start - base, lower - base, upper - base, base - tip
                g = np.array([lo, hi])  # the model's poles: the interval's ends
                to_low = np.where(j == 0, 1.0, 0.0)  # which end carries the linear term's slope 1
                to_up = 1.0 - to_low
            f = lin0 + tau + psi + phi
            np.copyto(lo, tau, where=f < 0)
            np.copyto(hi, tau, where=f > 0)
            g_l, g_u = g - tau
            t_l, t_u = (dpsi + to_low) * g_l, (dphi + to_up) * g_u  # the model's slopes at its poles, times g
            c = f - t_l - t_u
            a1 = c * (g_l + g_u) + t_l * g_l + t_u * g_u
            a0 = g_l * g_u * f
            # the root inside (g_l, g_u) of c eta^2 - a1 eta + a0; a1 < 0 (rare) loses digits to cancellation
            eta = 2.0 * a0 / (a1 + np.sqrt(np.maximum(a1 * a1 - 4.0 * c * a0, 0.0)))
            if step > 8:  # a bracket a few ulps wide holds the root: stay
                eta[hi - lo <= 4 * _EPS * np.abs(tau)] = 0.0
            # convergence is quadratic: a step eta leaves an error of about eta^2 over the distance to the model's
            # nearer pole, g, so eta^2 <= 1e-16 |tau| g leaves 1e-16 |tau|
            done = eta * eta <= 1e-16 * np.abs(tau) * np.minimum(-g_l, g_u)
            step_to = tau + eta
            tau = np.where(done | ((step_to > lo) & (step_to < hi)), step_to, 0.5 * (lo + hi))
            if done.any():
                out[todo[done]] = tau[done]
                if done.all():
                    return np.array([origin, out])
                keep = ~done
                todo, tau, lo, hi, lin0 = todo[keep], tau[keep], lo[keep], hi[keep], lin0[keep]
                delta, g, to_low, to_up = delta[keep], g[:, keep], to_low[keep], to_up[keep]
                terms = terms[:, : todo.size]
    raise ConditioningError(f"the secular equation of the normal modes did not converge in {_MAX_STEPS} steps")


def _mass_orthonormal(w: np.ndarray, U: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check U^T U = I, scale to V = r U in place, and fix signs and tie order."""
    residual = float(np.max(np.abs(U.T @ U - np.eye(len(w)))))
    if not residual <= NORMAL_MODE_TOL:
        raise ConditioningError(f"normal modes are not mass-orthonormal (residual {residual:.3e})")
    V = np.multiply(U, r[:, None], out=U)
    first = V[0].copy()  # each column's first entry above 1e-12, which is mostly row 0
    weak = np.flatnonzero(np.abs(first) <= 1e-12)
    first[weak] = V[np.argmax(np.abs(V[:, weak]) > 1e-12, axis=0), weak]
    flip = first < -1e-12  # a column with no such entry keeps its sign
    V[:, flip] *= -1.0
    order = _tie_broken_order(w, V)
    return w[order], V[:, order]


def normal_mode_map(H: QuadraticHamiltonian, block) -> StructureMap:
    """Decouple the given modes: diagonalize their position and momentum blocks jointly.

    The returned map acts as the identity outside the block; inside, the new
    modes have unit mass and potential coefficients w (squared frequencies),
    sorted ascending.  A general momentum block A = L L^T reduces, with
    v = L u, to normal_modes(L^T B L, ones), whose sign and tie-order
    conventions then fix U, and V = L U.
    """
    block = sorted(set(int(i) for i in block))
    n = H.n_modes
    if not block or block[0] < 0 or block[-1] >= n:
        raise DomainError(f"block indices out of range for {n} modes")
    idx = np.ix_(block, block)
    try:
        L = np.linalg.cholesky(H.momentum_block[idx])
    except np.linalg.LinAlgError as exc:
        raise DomainError("kinetic sub-matrix of the block is not positive definite") from exc
    _, U = normal_modes(L.T @ H.position_block[idx] @ L, np.ones(len(block)))
    T = np.eye(n)
    T[idx] = np.linalg.inv(L @ U)
    return StructureMap(T)


def _tie_broken_order(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    order = np.argsort(w, kind="stable")
    scale = max(np.max(np.abs(w)), 1.0)
    if np.all(np.diff(w[order]) > 1e-12 * scale):  # no ties
        return order
    order = list(order)
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
