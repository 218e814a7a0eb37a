"""Battery and auxiliary states, Hamiltonians, passive states, ergotropy.

The battery and auxiliary are single qubits with local Hamiltonian h*sigma_z
(h > 0), coupled by J*(sigma_x x sigma_x). Energies and times are absolute,
in the units of h and J (the command line runs the model (1, J/h), in units
of h). The default coupling for the numerical regime is J = 2h.

Passive states and ergotropy use the qubit closed forms on the Bloch
vector r of the state: under h*sigma_z the passive state is
(I - |r| sigma_z)/2, the same for every h > 0, and the ergotropy is
h (z + |r|). Both accept stacks of states. The generic spectral
construction (populations sorted against the levels) is kept only as the
oracle of the ``passive-ergotropy`` verify suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import DimensionError, DomainError, HermiticityError
from .qmath import I2, SIGMA_X, SIGMA_Y, SIGMA_Z


@dataclass(frozen=True)
class HamiltonianSpec:
    """Energy scale h and battery-auxiliary coupling J (J defaults to 2h).

    The scale lives here alone: every other module reads the model as h, the
    ratio g = J/h and W/h = w, and forms its phases w tau and g tau from
    tau = h t, so the model at (h, J) and time t is h times the model at
    (1, g) and time tau, whatever the scale of h.
    """

    h: float = 1.0
    J: float | None = None

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise DomainError(f"field strength h must be positive and finite, got {self.h}")
        if self.J is None:
            object.__setattr__(self, "J", 2.0 * self.h)
        # J/h is not finite where J is not, and where the ratio overflows
        if not math.isfinite(self.J / self.h):
            raise DomainError(f"J/h = {self.J / self.h} is not finite for h={self.h}, J={self.J}")

    @property
    def g(self) -> float:
        """The coupling in units of h, J/h: finite, since construction refuses
        a spec where it is not."""
        return self.J / self.h

    @property
    def w(self) -> float:
        """Rabi frequency sqrt(4h^2 + J^2) of the {|00>, |11>} parity block in
        units of h, W/h = hypot(2, g): at least 2 and finite for every spec,
        and never formed from h or J, so no scale of h over- or underflows it."""
        return math.hypot(2.0, self.g)


@dataclass(frozen=True)
class BlochVector:
    """Spherical coordinates (r, theta, phi) of a qubit state on the Bloch ball.

    Each coordinate is a number or an array; arrays broadcast against each
    other and describe a stack of states.
    """

    r: float
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r)
        if not np.all((0.0 <= r) & (r <= 1.0)):
            raise DomainError(f"Bloch radius must lie in [0, 1], got {self.r}")

    def cartesian(self) -> tuple[float, float, float]:
        sin_theta = np.sin(self.theta)
        return (
            self.r * sin_theta * np.cos(self.phi),
            self.r * sin_theta * np.sin(self.phi),
            self.r * np.cos(self.theta),
        )


def check_population_bias(k) -> None:
    """Raise DomainError unless k, a number or an array, lies in [-1, 1]; NaN
    fails, since every comparison with it is False."""
    if not np.all(np.abs(k) <= 1.0):
        raise DomainError(f"population bias k must lie in [-1, 1], got {k}")


def battery_state(k) -> np.ndarray:
    """Diagonal battery state diag((1+k)/2, (1-k)/2), |0> excited, |k| <= 1.

    ``k`` may be an array; the result is then a stack (..., 2, 2).
    """
    check_population_bias(k)
    k = np.asarray(k, dtype=float)
    rho = np.zeros(k.shape + (2, 2), dtype=complex)
    rho[..., 0, 0], rho[..., 1, 1] = (1.0 + k) / 2.0, (1.0 - k) / 2.0
    return rho


def bloch_state(b: BlochVector) -> np.ndarray:
    """Density matrix (I + r.sigma)/2 for a Bloch vector, or a stack (..., 2, 2)
    for a BlochVector of arrays."""
    x, y, z = (np.asarray(c)[..., None, None] for c in b.cartesian())
    return 0.5 * (I2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def hamiltonian_battery(spec: HamiltonianSpec) -> np.ndarray:
    """Local battery Hamiltonian h*sigma_z."""
    return spec.h * SIGMA_Z


def hamiltonian_joint(spec: HamiltonianSpec) -> np.ndarray:
    """Two-qubit Hamiltonian h(sz x I) + h(I x sz) + J(sx x sx)."""
    return (
        spec.h * qmath.kron(SIGMA_Z, I2)
        + spec.h * qmath.kron(I2, SIGMA_Z)
        + spec.J * qmath.kron(SIGMA_X, SIGMA_X)
    )


def energy(rho, spec: HamiltonianSpec) -> float | np.ndarray:
    """Mean battery energy Tr(rho * h*sigma_z): a float for one state, an
    array for a stack (..., 2, 2)."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise DimensionError(f"expected 2x2 battery states, got shape {rho.shape}")
    e = spec.h * (rho[..., 0, 0] - rho[..., 1, 1]).real
    return float(e) if np.ndim(e) == 0 else e


def _bloch_components(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch components (x, y, z) of Hermitian 2x2 operators, m = (Tr m I +
    x sx + y sy + z sz)/2; ``m`` is one operator or a stack (..., 2, 2)."""
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise DimensionError(f"expected 2x2 operators, got shape {a.shape}")
    if not qmath.is_hermitian(a):
        raise HermiticityError("input is not Hermitian within 1e-12")
    off = a[..., 0, 1]
    return 2.0 * off.real, -2.0 * off.imag, (a[..., 0, 0] - a[..., 1, 1]).real


def passive_state(rho) -> np.ndarray:
    """State with the same spectrum as rho but no unitarily extractable energy
    under h*sigma_z.

    For a qubit this is (I - |r| sigma_z)/2: the Bloch vector r of rho turned
    to point at the ground state |1>, so the larger population sits on the
    lower level. It does not depend on h > 0. ``rho`` may be a stack
    (..., 2, 2).
    """
    x, y, z = _bloch_components(rho)
    radius = np.hypot(np.hypot(x, y), z)[..., None, None]
    return 0.5 * (I2 - radius * SIGMA_Z)


def ergotropy(rho, spec: HamiltonianSpec) -> float | np.ndarray:
    """Maximum energy extractable by a unitary: E(rho) - E(passive(rho)).

    For a qubit under h*sigma_z this is h (z + |r|) from the Bloch vector of
    rho: exactly 2hk for battery_state(k) with k >= 0 and 0 for k <= 0, and
    never negative, since |r| >= |z| also holds in floating point. Returns
    a float for one state and an array for a stack (..., 2, 2).
    """
    x, y, z = _bloch_components(rho)
    w = spec.h * (z + np.hypot(np.hypot(x, y), z))
    return float(w) if np.ndim(w) == 0 else w
