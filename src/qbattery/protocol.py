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

run_protocol is the one oracle for this pipeline, and it is stacked: the
initial state may be a stack (..., 4, 4), and the time, the basis angles
and the outcome index may be arrays, all broadcasting against each other.
One state with scalar parameters is the stack-of-one case of the same code
and returns plain floats. The state builders (separable_initial,
entangled_initial) take arrays of parameters the same way. outcome_matrix
reads from the same evolved state the 2x2 matrix A whose quadratic form in
the outcome ket is w_p; the optimizer's closed form for lambda_max(A) is
checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .battery import (
    BlochVector, HamiltonianSpec, battery_state, bloch_state, check_population_bias, energy
)
from .errors import DimensionError, DomainError

# Below this outcome probability the post-selected state is numerically
# meaningless; such branches report w_p = 0 instead of dividing by ~0.
ZERO_PROBABILITY = 1e-12


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal auxiliary measurement basis from two angles.

    Outcome 0 projects onto (cos(theta/2), e^{-i phi} sin(theta/2)),
    outcome 1 onto its orthogonal complement
    (sin(theta/2), -e^{-i phi} cos(theta/2)). theta and phi may be arrays
    that broadcast against each other: a stack of bases.
    """

    theta: float
    phi: float = 0.0

    def outcome_ket(self, outcome_index) -> np.ndarray:
        """Kets of shape (..., 2); ``outcome_index`` (0 or 1) may be an array."""
        index = np.asarray(outcome_index)
        if ((index != 0) & (index != 1)).any():
            raise DomainError(f"outcome_index must be 0 or 1, got {outcome_index}")
        c, s = np.cos(self.theta / 2.0), np.sin(self.theta / 2.0)
        w = np.cos(self.phi) - 1j * np.sin(self.phi)
        one = index == 1
        first, second = np.where(one, s, c), np.where(one, -w * c, w * s)
        ket = np.empty(np.broadcast(first, second).shape + (2,), dtype=complex)
        ket[..., 0], ket[..., 1] = first, second
        return ket


Z_BASIS = MeasurementBasis(theta=0.0, phi=0.0)


@dataclass(frozen=True)
class EntangledInitParams:
    """Joint pure state sqrt((1+k)/2)|0>|chi> + sqrt((1-k)/2)|1>|chi_perp>.

    (theta, phi) orient the auxiliary Schmidt basis {|chi>, |chi_perp>};
    the battery marginal is battery_state(k) for every orientation. Each
    field may be an array: a stack of states.
    """

    k: float
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        check_population_bias(self.k)


@dataclass(frozen=True)
class ProtocolResult:
    """Post-selected branches: probability, post state, energy drop, w_p.

    For one state with scalar parameters every field is a number and
    ``post_state`` a 2x2 array, or None when the branch probability is below
    ZERO_PROBABILITY (an impossible outcome). For a stack every field is an
    array of the broadcast shape (``post_state`` (..., 2, 2)). The rule is
    per element: an impossible element has its probability clipped at 0,
    delta_e = w_p = 0, and a zero matrix as its post state.
    """

    probability: float | np.ndarray
    post_state: np.ndarray | None
    delta_e: float | np.ndarray
    w_p: float | np.ndarray
    outcome_index: int | np.ndarray


def separable_initial(k, aux: BlochVector) -> np.ndarray:
    """Product initial state battery_state(k) x bloch_state(aux); a stack
    (..., 4, 4) when k or the fields of aux are arrays."""
    return qmath.kron(battery_state(k), bloch_state(aux))


def entangled_ket(p: EntangledInitParams) -> np.ndarray:
    """Joint ket of shape (..., 4) in the basis |00>, |01>, |10>, |11>."""
    basis = MeasurementBasis(p.theta, p.phi)
    k = np.asarray(p.k, dtype=float)[..., None]
    first, second = np.sqrt((1.0 + k) / 2.0), np.sqrt((1.0 - k) / 2.0)
    return np.concatenate([first * basis.outcome_ket(0), second * basis.outcome_ket(1)], axis=-1)


def entangled_initial(p: EntangledInitParams) -> np.ndarray:
    """Rank-1 projector onto the Schmidt-form joint pure state, (..., 4, 4)."""
    ket = entangled_ket(p)
    return ket[..., :, None] * ket.conj()[..., None, :]


def run_protocol(
    rho0, spec: HamiltonianSpec, t, basis: MeasurementBasis, outcome_index
) -> ProtocolResult:
    """Evolve, measure the auxiliary, post-select, and score one branch.

    The joint state rho0 evolves as U rho0 U^dag with U = exp(-i H t) for
    the coupled two-qubit Hamiltonian of ``spec``. Projecting the auxiliary
    onto the chosen basis ket chi leaves the unnormalized battery operator

        M[i][j] = sum_ab conj(chi[a]) rho_t[2i+a][2j+b] chi[b]

    whose trace is the outcome probability; it is computed as V rho0 V^dag
    with V = (I x <chi|) U. delta_e compares the normalized post state
    against the t=0 battery marginal of rho0.

    rho0 is one 4x4 state or a stack (..., 4, 4); t, the angles of ``basis``
    and ``outcome_index`` are numbers or arrays. All of them broadcast
    against the stack shape, and the result holds one branch per element
    of the broadcast shape (see ProtocolResult).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape[-2:] != (4, 4):
        raise DimensionError(f"expected 4x4 joint states, got shape {rho0.shape}")
    u = joint_unitary(spec, t)
    chi = basis.outcome_ket(outcome_index)
    # the rows of (I x <chi|) U, so that M = V rho0 V^dag without forming rho_t
    v = np.einsum("...a,...iac->...ic", chi.conj(), u.reshape(u.shape[:-2] + (2, 2, 4)))
    m = np.einsum("...ic,...cd,...jd->...ij", v, rho0, v.conj())
    probability = np.trace(m, axis1=-2, axis2=-1).real
    impossible = probability < ZERO_PROBABILITY
    post = m / np.where(impossible, 1.0, probability)[..., None, None]
    post[impossible] = 0.0
    e0 = energy(qmath.partial_trace_second(rho0), spec)
    delta_e = np.where(impossible, 0.0, e0 - energy(post, spec))
    # possible elements have probability >= ZERO_PROBABILITY > 0, so only
    # impossible ones are clipped, and their w_p is 0 * 0
    probability = np.maximum(probability, 0.0)
    w_p = probability * delta_e
    if probability.ndim == 0:
        post = None if impossible else post
        scalars = float(probability), post, float(delta_e), float(w_p), int(outcome_index)
        return ProtocolResult(*scalars)
    index = np.broadcast_to(outcome_index, probability.shape)
    return ProtocolResult(probability, post, delta_e, w_p, index)


def best_outcome(rho0, spec: HamiltonianSpec, t, basis: MeasurementBasis) -> ProtocolResult:
    """The branch with the larger w_p; ties go to outcome 0. Stacks as in
    run_protocol, with the choice made per element."""
    first = run_protocol(rho0, spec, t, basis, 0)
    second = run_protocol(rho0, spec, t, basis, 1)
    return run_protocol(rho0, spec, t, basis, np.where(second.w_p > first.w_p, 1, 0))


def outcome_matrix(rho0, spec: HamiltonianSpec, t) -> np.ndarray:
    """The 2x2 matrix A with run_protocol's w_p = <chi|A|chi> for every
    auxiliary ket chi (above the ZERO_PROBABILITY rule):

        A_ab = sum_i c_i rho_t[(i,a),(i,b)],   c = (E0 - h, E0 + h),

    with rho_t = U rho0 U^dag and E0 the t=0 battery energy. Stacked like
    run_protocol: one (2, 2) matrix per element of the broadcast shape.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    u = joint_unitary(spec, t)
    rho_t = u @ rho0 @ qmath.dagger(u)
    e0 = np.asarray(energy(qmath.partial_trace_second(rho0), spec))
    c = np.stack([e0 - spec.h, e0 + spec.h], axis=-1)
    return np.einsum("...i,...iaib->...ab", c, rho_t.reshape(rho_t.shape[:-2] + (2, 2, 2, 2)))


def joint_unitary(spec: HamiltonianSpec, t) -> np.ndarray:
    """exp(-i H t) for the joint Hamiltonian, 4x4 for one time and (..., 4, 4)
    for an array of times, assembled in closed form on the two Z x Z parity blocks.

    H is [[2h, J], [J, -2h]] on {|00>, |11>}, so U = cos(W t) - i sin(W t)
    (2h sigma_z + J sigma_x) / W = [[d, o], [o, conj(d)]] there, with W = w h
    (HamiltonianSpec.w). H is J sigma_x on {|01>, |10>}, so U = cos(J t) -
    i sin(J t) sigma_x = [[c, s], [s, c]] there. With tau = h t and g = J/h the
    phases are W t = w tau and J t = g tau, and the amplitudes 2h/W = 2/w and
    J/W = g/w lie in [-1, 1] at every scale of h.
    """
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise DomainError("evolution time must be non-negative")
    g, w, tau = spec.g, spec.w, spec.h * t
    wt, jt = w * tau, g * tau
    sin_wt = np.sin(wt)
    d = np.cos(wt) - 1j * ((2.0 / w) * sin_wt)
    o = -1j * ((g / w) * sin_wt)
    c, s = np.cos(jt), -1j * np.sin(jt)
    u = np.zeros(t.shape + (4, 4), dtype=complex)
    u[..., 0, 0], u[..., 0, 3], u[..., 3, 0], u[..., 3, 3] = d, o, o, np.conj(d)
    u[..., 1, 1], u[..., 1, 2], u[..., 2, 1], u[..., 2, 2] = c, s, s, c
    return u
