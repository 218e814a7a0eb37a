"""Measurement-assisted stochastic energy extraction for a qubit battery.

Pipeline: prepare a joint battery-auxiliary state (product or entangled
pure), evolve it under the coupled Hamiltonian for a time t (exp(-iHt) in
closed form on its two parity blocks), perform a rank-1 projective
measurement on the auxiliary in a parameterized basis, post-select one
outcome, and score the branch by

    w_p = probability * (E_initial - E_post),

the outcome probability times the battery energy drop. The energy drop is
always taken against the t=0 battery marginal, so the figure of merit
cannot be gamed by crediting energy moved during the evolution itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .battery import BlochVector, HamiltonianSpec, battery_state, bloch_state, energy
from .errors import DomainError

# Below this outcome probability the post-selected state is numerically
# meaningless; such branches report w_p = 0 instead of dividing by ~0.
ZERO_PROBABILITY = 1e-12


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal auxiliary measurement basis from two angles.

    Outcome 0 projects onto (cos(theta/2), e^{-i phi} sin(theta/2)),
    outcome 1 onto its orthogonal complement
    (sin(theta/2), -e^{-i phi} cos(theta/2)).
    """

    theta: float
    phi: float = 0.0

    def outcome_ket(self, outcome_index: int) -> np.ndarray:
        c, s = math.cos(self.theta / 2.0), math.sin(self.theta / 2.0)
        w = complex(math.cos(self.phi), -math.sin(self.phi))
        if outcome_index == 0:
            return np.array([c, w * s], dtype=complex)
        if outcome_index == 1:
            return np.array([s, -w * c], dtype=complex)
        raise DomainError(f"outcome_index must be 0 or 1, got {outcome_index}")


Z_BASIS = MeasurementBasis(theta=0.0, phi=0.0)


@dataclass(frozen=True)
class EntangledInitParams:
    """Joint pure state sqrt((1+k)/2)|0>|chi> + sqrt((1-k)/2)|1>|chi_perp>.

    (theta, phi) orient the auxiliary Schmidt basis {|chi>, |chi_perp>};
    the battery marginal is battery_state(k) for every orientation.
    """

    k: float
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if abs(self.k) > 1.0:
            raise DomainError(f"population bias k must lie in [-1, 1], got {self.k}")


@dataclass(frozen=True)
class ProtocolResult:
    """One post-selected branch: probability, post state, energy drop, w_p.

    ``post_state`` is None when the branch probability is below
    ZERO_PROBABILITY (impossible outcome); then delta_e and w_p are 0.
    """

    probability: float
    post_state: np.ndarray | None
    delta_e: float
    w_p: float
    outcome_index: int


def separable_initial(k: float, aux: BlochVector) -> np.ndarray:
    """Product initial state battery_state(k) x bloch_state(aux)."""
    return qmath.kron(battery_state(k), bloch_state(aux))


def entangled_ket(p: EntangledInitParams) -> np.ndarray:
    basis = MeasurementBasis(p.theta, p.phi)
    a = math.sqrt((1.0 + p.k) / 2.0)
    b = math.sqrt((1.0 - p.k) / 2.0)
    ket = np.zeros(4, dtype=complex)
    ket[0:2] = a * basis.outcome_ket(0)
    ket[2:4] = b * basis.outcome_ket(1)
    return ket


def entangled_initial(p: EntangledInitParams) -> np.ndarray:
    """Rank-1 projector onto the Schmidt-form joint pure state."""
    ket = entangled_ket(p)
    return np.outer(ket, ket.conj())


def run_protocol(
    rho0,
    spec: HamiltonianSpec,
    t: float,
    basis: MeasurementBasis,
    outcome_index: int,
) -> ProtocolResult:
    """Evolve, measure the auxiliary, post-select, and score one branch.

    The joint state rho0 evolves as U rho0 U^dag with U = exp(-i H t) for
    the coupled two-qubit Hamiltonian of ``spec``. Projecting the auxiliary
    onto the chosen basis ket chi leaves the unnormalized battery operator

        M[i][j] = sum_ab conj(chi[a]) rho_t[2i+a][2j+b] chi[b]

    whose trace is the outcome probability. delta_e compares the normalized
    post state against the t=0 battery marginal of rho0.
    """
    rho0 = qmath.as_operator(rho0)
    u = joint_unitary(spec, t)
    rho_t = u @ rho0 @ u.conj().T
    chi = basis.outcome_ket(outcome_index)
    m = np.einsum("a,iajb,b->ij", chi.conj(), rho_t.reshape(2, 2, 2, 2), chi)
    probability = float(np.real(np.trace(m)))
    if probability < ZERO_PROBABILITY:
        return ProtocolResult(max(probability, 0.0), None, 0.0, 0.0, outcome_index)
    post = m / probability
    e0 = energy(qmath.partial_trace_second(rho0), spec)
    delta_e = e0 - energy(post, spec)
    return ProtocolResult(probability, post, delta_e, probability * delta_e, outcome_index)


def best_outcome(rho0, spec: HamiltonianSpec, t: float, basis: MeasurementBasis) -> ProtocolResult:
    """The branch with the larger w_p; ties go to outcome 0."""
    first = run_protocol(rho0, spec, t, basis, 0)
    second = run_protocol(rho0, spec, t, basis, 1)
    return second if second.w_p > first.w_p else first


def parity_blocks(spec: HamiltonianSpec, t):
    """exp(-iHt) on the two Z x Z parity blocks, for a time or an array of times.

    H is [[2h, J], [J, -2h]] on {|00>, |11>}, so U = cos(W t) - i sin(W t)
    (2h sigma_z + J sigma_x) / W = [[d, o], [o, conj(d)]] there, with W = hypot(2h, J)
    (finite and non-zero at any scale of h and J). H is J sigma_x on {|01>, |10>},
    so U = cos(J t) - i sin(J t) sigma_x = [[c, s], [s, c]] there. Returns (d, o, c, s).
    """
    omega = math.hypot(2.0 * spec.h, spec.J)
    wt, jt = omega * t, spec.J * t
    sin_wt = np.sin(wt)
    d = np.cos(wt) - 1j * ((2.0 * spec.h / omega) * sin_wt)
    return d, -1j * ((spec.J / omega) * sin_wt), np.cos(jt), -1j * np.sin(jt)


def joint_unitary(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """exp(-i H t) for the joint Hamiltonian, assembled from its parity blocks."""
    if t < 0:
        raise DomainError("evolution time must be non-negative")
    d, o, c, s = parity_blocks(spec, t)
    return np.array([[d, 0, 0, o], [0, c, s, 0], [0, s, c, 0], [o, 0, 0, np.conj(d)]], complex)
