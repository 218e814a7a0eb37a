"""Dense complex linear algebra for one- and two-qubit operators.

Everything here is exact at dimension 2 or 4: tensor products, Hermitian
eigendecomposition, unitary evolution built from the spectral decomposition
(no series truncation), and the partial trace over the second qubit.
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

    ``values`` is real and ascending; column ``vectors[:, i]`` is the
    orthonormal eigenvector paired with ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def as_operator(m) -> np.ndarray:
    """Return ``m`` as a square complex 2x2 or 4x4 array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise DimensionError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")
    return a


def is_hermitian(m, atol: float = HERMITICITY_ATOL) -> bool:
    a = np.asarray(m)
    return bool(np.max(np.abs(a - np.swapaxes(a, -1, -2).conj())) <= atol)


def kron(a, b) -> np.ndarray:
    """Tensor product of two single-qubit operators (2x2 each -> 4x4)."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise DimensionError("kron expects two 2x2 operands")
    return np.kron(a, b)


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with a deterministic order.

    Eigenvalues ascend; exact ties are broken by lexicographic comparison
    of the eigenvector real parts, so degenerate spectra still produce a
    reproducible pairing.
    """
    a = as_operator(m)
    if not is_hermitian(a):
        raise HermiticityError("input is not Hermitian within 1e-12")
    values, vectors = np.linalg.eigh(a)
    order = _tie_broken_order(values, vectors)
    return EigenDecomposition(values[order].copy(), vectors[:, order].copy())


def _tie_broken_order(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # eigh already ascends; only reorder inside exactly-degenerate groups.
    order = np.arange(values.size)
    start = 0
    while start < values.size:
        stop = start + 1
        while stop < values.size and values[stop] == values[start]:
            stop += 1
        if stop - start > 1:
            group = order[start:stop]
            keys = [tuple(np.real(vectors[:, i])) for i in group]
            order[start:stop] = group[np.array(sorted(range(len(keys)), key=keys.__getitem__))]
        start = stop
    return order


def evolve(h_total, t: float) -> np.ndarray:
    """Unitary exp(-i*H*t) of a Hermitian generator, built spectrally.

    Exact up to eigensolver tolerance: V diag(exp(-i*lambda*t)) V^dag. The
    independent oracle of protocol.joint_unitary, which uses the parity blocks.
    """
    if t < 0:
        raise DomainError("evolution time must be non-negative")
    values, vectors = hermitian_eig(h_total)
    phases = np.exp(-1j * values * t)
    return (vectors * phases) @ vectors.conj().T


def partial_trace_second(rho) -> np.ndarray:
    """Trace out the second qubit of a two-qubit operator."""
    a = as_operator(rho)
    if a.shape != (4, 4):
        raise DimensionError("partial_trace_second expects a 4x4 matrix")
    return np.einsum("iaja->ij", a.reshape(2, 2, 2, 2))
