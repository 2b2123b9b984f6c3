"""Quadratic model universe: one distinguished particle bilinearly coupled to a harmonic bath.

Conventions (fixed once for the whole package):

* hbar = 1, all masses and frequencies dimensionless.
* Phase-space ordering z = (x_1 .. x_n, p_1 .. p_n) with symplectic form
  Omega = [[0, I], [-I, 0]], so [z_a, z_b] = i * Omega_ab.
* A quadratic Hamiltonian is stored as the symmetric matrix K with
  H = (1/2) z^T K z.  The bilinear particle-bath interaction
  (+/-) x_1 * sum_i kappa_i x_{2i} therefore sits in the position block as
  K[x_1, x_{2i}] = K[x_{2i}, x_1] = (+/-) kappa_i.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _require_finite

SYMMETRY_TOL = 1e-12

POTENTIAL_FREE = "free"
POTENTIAL_HARMONIC = "harmonic"


@functools.lru_cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form [[0, I], [-I, 0]] for the (x.., p..) ordering.

    One read-only array per size is built and shared by every caller.
    """
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    omega = np.block([[zero, eye], [-eye, zero]])
    omega.flags.writeable = False
    return omega


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the particle + harmonic-bath model.

    bath entries are (mass, frequency, coupling) triples, one per bath
    oscillator; coupling_sign is +1 or -1 and multiplies every coupling term.
    """

    m1: float
    bath: tuple[tuple[float, float, float], ...]
    potential: str = POTENTIAL_FREE
    omega: float | None = None
    coupling_sign: int = +1

    def __post_init__(self) -> None:
        _require_finite(m1=self.m1, omega=self.omega, bath=self.bath)
        if self.m1 <= 0:
            raise DomainError(f"m1 must be positive, got {self.m1}")
        if len(self.bath) < 1:
            raise DomainError("bath must contain at least one oscillator")
        object.__setattr__(self, "bath", tuple((float(m), float(w), float(k)) for m, w, k in self.bath))
        for i, (m, w, _k) in enumerate(self.bath):
            if m <= 0:
                raise DomainError(f"bath mass {i} must be positive, got {m}")
            if w <= 0:
                raise DomainError(f"bath frequency {i} must be positive, got {w}")
        if self.potential not in (POTENTIAL_FREE, POTENTIAL_HARMONIC):
            raise DomainError(f"unknown potential kind {self.potential!r}")
        if self.potential == POTENTIAL_HARMONIC and (self.omega is None or self.omega <= 0):
            raise DomainError("harmonic potential requires omega > 0")
        if self.coupling_sign not in (+1, -1):
            raise DomainError(f"coupling_sign must be +1 or -1, got {self.coupling_sign}")
        with np.errstate(all="ignore"):  # what leaves the float range is named below
            stiff = self.stiffnesses
            squares = (self.couplings / np.sqrt(self.m1 * self.masses[1:])) ** 2  # arrowhead's z_i^2
            total = np.sum(squares)
        if not np.all(np.isfinite(stiff[1:])):
            i = int(np.argmin(np.isfinite(stiff[1:])))
            raise DomainError(f"bath frequency {i} = {self.bath[i][1]!r} overflows the stiffness m w^2")
        if not np.isfinite(stiff[0]):
            raise DomainError(f"omega = {self.omega!r} overflows the stiffness m1 omega^2")
        if not np.all(np.isfinite(squares)):
            i = int(np.argmin(np.isfinite(squares)))
            raise DomainError(f"bath coupling {i} = {self.bath[i][2]!r} overflows its square kappa^2 / (m1 m)")
        if not np.isfinite(total):
            raise DomainError("the bath couplings overflow the sum of their squares kappa_i^2 / (m1 m_i)")

    @property
    def n_modes(self) -> int:
        return 1 + len(self.bath)

    @property
    def masses(self) -> np.ndarray:
        return np.array([self.m1] + [m for m, _, _ in self.bath])

    @property
    def frequencies(self) -> np.ndarray:
        """Each mode's reference frequency: omega for a harmonic particle (1.0 for a free one), then the bath's."""
        w1 = self.omega if self.potential == POTENTIAL_HARMONIC else 1.0
        return np.array([w1] + [w for _, w, _ in self.bath])

    @property
    def stiffnesses(self) -> np.ndarray:
        """Each mode's potential m w^2: m1 omega^2 for a harmonic particle (0 for a free one), then the bath's."""
        k = self.masses * self.frequencies**2
        if self.potential != POTENTIAL_HARMONIC:
            k[0] = 0.0
        return k

    @property
    def couplings(self) -> np.ndarray:
        """The signed couplings (+/-) kappa_i, one per bath mode."""
        return self.coupling_sign * np.array([k for _, _, k in self.bath])


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = (1/2) z^T K z over z = (x_1..x_n, p_1..p_n); K symmetric 2n x 2n."""

    n_modes: int
    K: np.ndarray

    def __post_init__(self) -> None:
        K = np.asarray(self.K, dtype=float)
        _require_finite(K=K)
        if K.shape != (2 * self.n_modes, 2 * self.n_modes):
            raise DomainError(f"K has shape {K.shape}, expected {(2 * self.n_modes,) * 2}")
        if np.max(np.abs(K - K.T)) > SYMMETRY_TOL:
            raise DomainError("K is not symmetric to 1e-12")
        object.__setattr__(self, "K", _readonly(K))

    @property
    def position_block(self) -> np.ndarray:
        n = self.n_modes
        return self.K[:n, :n]

    @property
    def momentum_block(self) -> np.ndarray:
        n = self.n_modes
        return self.K[n:, n:]


@dataclass(frozen=True)
class BathSpec:
    """Recipe for sampling an Ohmic bath: n_modes frequencies in (0, cutoff]."""

    n_modes: int
    gamma: float
    cutoff: float

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise DomainError(f"n_modes must be >= 1, got {self.n_modes}")
        _require_finite(gamma=self.gamma, cutoff=self.cutoff)
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")
        if self.cutoff <= 0:
            raise DomainError(f"cutoff must be positive, got {self.cutoff}")


def discretize_bath(spec: BathSpec, mass: float = 1.0) -> tuple[tuple[float, float, float], ...]:
    """Sample an Ohmic spectral density J(w) = mass * gamma * w on the linear grid w_i = i * cutoff / n.

    Returns (mass, w_i, kappa_i) triples with kappa_i^2 = (2/pi) * mass * gamma
    * w_i^2 * dw, where dw = cutoff / n is the grid spacing.  Other grids come
    as explicit bath lists.
    """
    if mass <= 0:
        raise DomainError(f"bath mass must be positive, got {mass}")
    n, lam = spec.n_modes, spec.cutoff
    omegas = lam * np.arange(1, n + 1) / n
    try:
        with np.errstate(over="raise"):
            kappas = np.sqrt((2.0 / np.pi) * mass * spec.gamma * omegas**2 * (lam / n))
    except FloatingPointError as exc:
        raise DomainError(f"cutoff {lam!r} overflows the Ohmic couplings kappa_i^2") from exc
    return tuple((mass, float(w), float(k)) for w, k in zip(omegas, kappas))


def position_block(params: ModelParams) -> np.ndarray:
    """B, the n x n position block of K: stiffnesses m w^2 on the diagonal, couplings (+/-) kappa_i in row/column 0."""
    B = np.diag(params.stiffnesses)
    B[0, 1:] = B[1:, 0] = params.couplings
    return B


def arrowhead(params: ModelParams) -> tuple[float, np.ndarray, np.ndarray]:
    """C = M^-1/2 B M^-1/2 of position_block(params) as an arrowhead (tip, diagonal, couplings): C_00 = k_1 / m_1
    (0 for a free particle), C_ii = omega_i^2 and C_0i = (+/-) kappa_i / sqrt(m_1 m_i)."""
    masses = params.masses
    scaled = params.stiffnesses / masses
    return float(scaled[0]), scaled[1:], params.couplings / np.sqrt(masses[0] * masses[1:])


def build_qbm_hamiltonian(params: ModelParams) -> QuadraticHamiltonian:
    """Assemble the K matrix of the particle + bath model: position_block(params) and the kinetic diag(1/m).

    An indefinite position block (coupling beyond confinement) is reported by experiments._prepare.
    """
    n = params.n_modes
    K = np.zeros((2 * n, 2 * n))
    K[:n, :n] = position_block(params)
    K[n:, n:] = np.diag(1.0 / params.masses)
    return QuadraticHamiltonian(n, K)
