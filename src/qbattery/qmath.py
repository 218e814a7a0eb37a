"""Dense complex linear algebra for one- and two-qubit operators.

Everything here is exact at dimension 2 or 4: tensor products, Hermitian
eigendecomposition, unitary evolution built from the spectral decomposition
(no series truncation), and the partial trace over the second qubit.
Every function also takes stacks of operators (..., d, d), and evolve
takes arrays of times, each non-negative and finite (evolution_time).
All functions are pure and all arrays are treated as immutable values.

Conventions: hbar = 1; the computational basis is the sigma_z eigenbasis
with |0> the excited state (eigenvalue +1) and |1> the ground state.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, HermiticityError

HERMITICITY_ATOL = 1e-12

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class EigenDecomposition(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``values`` is real and ascending; column ``vectors[..., :, i]`` is the
    orthonormal eigenvector paired with ``values[..., i]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def dagger(stack) -> np.ndarray:
    """Conjugate transpose of one matrix, or of each matrix of a stack."""
    return np.swapaxes(stack, -1, -2).conj()


def is_hermitian(m) -> bool:
    a = np.asarray(m)
    return bool(np.max(np.abs(a - dagger(a))) <= HERMITICITY_ATOL)


def kron(a, b) -> np.ndarray:
    """Tensor product of single-qubit operators (2x2 each -> 4x4).

    Either operand may be a stack (..., 2, 2); the stacks broadcast.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        raise DimensionError("kron expects two 2x2 operands or stacks of them")
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (4, 4))


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix or a stack (..., d, d) of them,
    as numpy's eigh returns it.

    Eigenvalues ascend. Inside a degenerate eigenspace the basis is whatever
    eigh picks, which is the same on every call with the same input.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2:] not in ((2, 2), (4, 4)):
        raise DimensionError(f"expected 2x2 or 4x4 matrices, got shape {a.shape}")
    if not is_hermitian(a):
        raise HermiticityError("input is not Hermitian within 1e-12")
    return EigenDecomposition(*np.linalg.eigh(a))


def evolution_time(t) -> np.ndarray:
    """t, a number or an array of times, as a float array; DomainError, naming
    the first bad time, unless every time is non-negative and finite. NaN
    fails the check, since every comparison with it is False."""
    t = np.asarray(t, dtype=float)
    valid = (t >= 0) & (t < np.inf)
    if not valid.all():
        raise DomainError(f"evolution time must be non-negative and finite, got {t[~valid][0]}")
    return t


def evolve(h_total, t) -> np.ndarray:
    """Unitary exp(-i*H*t) of a Hermitian generator, built spectrally.

    Exact up to eigensolver tolerance: V diag(exp(-i*lambda*t)) V^dag. The
    independent oracle of protocol.joint_unitary, which uses the parity blocks.
    h_total may be a stack (..., d, d) and t an array of times; they
    broadcast, and the result has one unitary per element, (..., d, d).
    """
    t = evolution_time(t)
    values, vectors = hermitian_eig(h_total)
    phases = np.exp(-1j * values * t[..., None])
    return (vectors * phases[..., None, :]) @ dagger(vectors)


def partial_trace_second(rho) -> np.ndarray:
    """Trace out the second qubit of a two-qubit operator or a stack (..., 4, 4)."""
    a = np.asarray(rho, dtype=complex)
    if a.shape[-2:] != (4, 4):
        raise DimensionError(f"partial_trace_second expects 4x4 operators, got shape {a.shape}")
    return np.einsum("...iaja->...ij", a.reshape(a.shape[:-2] + (2, 2, 2, 2)))
