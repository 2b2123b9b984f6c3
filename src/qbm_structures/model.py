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

GRID_LINEAR = "linear"
GRID_LOG = "log"


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
        for i, (m, w, _k) in enumerate(self.bath):
            if m <= 0:
                raise DomainError(f"bath mass {i} must be positive, got {m}")
            if w <= 0:
                raise DomainError(f"bath frequency {i} must be positive, got {w}")
        if self.potential not in (POTENTIAL_FREE, POTENTIAL_HARMONIC):
            raise DomainError(f"unknown potential kind {self.potential!r}")
        if self.potential == POTENTIAL_HARMONIC:
            if self.omega is None or self.omega <= 0:
                raise DomainError("harmonic potential requires omega > 0")
        if self.coupling_sign not in (+1, -1):
            raise DomainError(f"coupling_sign must be +1 or -1, got {self.coupling_sign}")
        object.__setattr__(self, "bath", tuple((float(m), float(w), float(k)) for m, w, k in self.bath))

    @property
    def n_modes(self) -> int:
        return 1 + len(self.bath)

    @property
    def masses(self) -> np.ndarray:
        return np.array([self.m1] + [m for m, _, _ in self.bath])


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

    @property
    def cross_block(self) -> np.ndarray:
        """Position-momentum block (zero for untransformed models)."""
        n = self.n_modes
        return self.K[:n, n:]


@dataclass(frozen=True)
class BathSpec:
    """Recipe for sampling an Ohmic bath: n_modes frequencies in (0, cutoff]."""

    n_modes: int
    gamma: float
    cutoff: float
    scheme: str = GRID_LINEAR

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise DomainError(f"n_modes must be >= 1, got {self.n_modes}")
        _require_finite(gamma=self.gamma, cutoff=self.cutoff)
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")
        if self.cutoff <= 0:
            raise DomainError(f"cutoff must be positive, got {self.cutoff}")
        if self.scheme not in (GRID_LINEAR, GRID_LOG):
            raise DomainError(f"unknown grid scheme {self.scheme!r}")


def discretize_bath(spec: BathSpec, mass: float = 1.0) -> tuple[tuple[float, float, float], ...]:
    """Sample an Ohmic spectral density J(w) = mass * gamma * w on a frequency grid.

    Returns (mass, w_i, kappa_i) triples with kappa_i^2 = (2/pi) * mass * gamma
    * w_i^2 * dw_i, where dw_i is the local grid spacing.  The linear grid is
    w_i = i * cutoff / n; the log grid is geometric from cutoff/n up to cutoff.
    """
    if mass <= 0:
        raise DomainError(f"bath mass must be positive, got {mass}")
    n, lam = spec.n_modes, spec.cutoff
    if spec.scheme == GRID_LINEAR:
        omegas = lam * np.arange(1, n + 1) / n
        spacings = np.full(n, lam / n)
    else:
        omegas = np.geomspace(lam / n, lam, n)
        if n == 1:
            spacings = np.array([lam])
        else:
            spacings = np.empty(n)
            spacings[1:-1] = (omegas[2:] - omegas[:-2]) / 2
            spacings[0] = omegas[1] - omegas[0]
            spacings[-1] = omegas[-1] - omegas[-2]
    kappas = np.sqrt((2.0 / np.pi) * mass * spec.gamma * omegas**2 * spacings)
    return tuple((mass, float(w), float(k)) for w, k in zip(omegas, kappas))


def position_block(params: ModelParams) -> np.ndarray:
    """B, the n x n position block of K: potentials m w^2 on the diagonal, couplings (+/-) kappa_i at [0, i] and [i, 0].

    The particle's potential m1 omega^2 enters only when it is harmonic.
    """
    bath_m, bath_w, kappa = np.array(params.bath).T
    particle = params.m1 * params.omega**2 if params.potential == POTENTIAL_HARMONIC else 0.0
    B = np.diag(np.r_[particle, bath_m * bath_w**2])
    B[0, 1:] = B[1:, 0] = params.coupling_sign * kappa
    return B


def build_qbm_hamiltonian(params: ModelParams) -> QuadraticHamiltonian:
    """Assemble the K matrix of the particle + bath model: position_block(params) and the kinetic diag(1/m).

    An indefinite position block (coupling beyond confinement) is reported by experiments._prepare.
    """
    n = params.n_modes
    K = np.zeros((2 * n, 2 * n))
    K[:n, :n] = position_block(params)
    K[n:, n:] = np.diag(1.0 / params.masses)
    return QuadraticHamiltonian(n, K)
