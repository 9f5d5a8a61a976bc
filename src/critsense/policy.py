"""Centralized numeric tolerances and size caps."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NumericPolicy:
    """One record holding every tolerance/cap used across the package.

    Tests and library code must read tolerances from here, never hardcode.
    """

    norm_tol: float = 1e-12        # state normalization
    herm_tol: float = 1e-10        # Hermiticity / trace checks on density matrices
    trace_tol: float = 1e-10
    psd_tol: float = 1e-10         # allowed negative eigenvalue magnitude
    pauli_herm_tol: float = 1e-12  # Hermiticity of Pauli sums (imag part of coefficients)
    dense_cap: int = 14            # max qubits for dense operator matrices
    sparse_cap: int = 20           # max qubits for sparse matvec work
    fermion_bytes_cap: int = 2**30  # max bytes of fermion string-block work (L <= 16384)
    spectral_cutoff: float = 1e-12  # lambda_i + lambda_j cutoff in mixed-state sums
    fd_step: float = 1e-5          # centered finite-difference step in theta
    signal_floor: float = 1e-14    # |d<A>/dtheta| below this -> +inf sentinel
    derivative_agree_tol: float = 1e-6  # fd vs analytic derivative agreement
    degeneracy_tol: float = 1e-8   # two-fold near-degeneracy threshold
    residual_tol: float = 1e-8     # |H psi - E psi| for ground solutions
    zero_state_tol: float = 1e-14  # norm below which a vector counts as annihilated
    toeplitz_pivot_floor: float = 1e-8  # |pivot| below this -> per-r slogdet fallback


POLICY = NumericPolicy()


class CapacityError(ValueError):
    """A register size exceeded a configured dense/sparse/byte cap."""
