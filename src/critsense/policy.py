"""Centralized numeric tolerances and size caps, and the one check path.

Every bound that raises is one call of ``POLICY.check`` (a tolerance),
``POLICY.cap`` (a size cap) or ``POLICY.floor`` (a lower bound), on the
``POLICY`` the calling module imported, which tests patch.  Each fails
unless its comparison holds, so NaN fails, and names the field, its value
and the excess.  They build no array, so the theta loop calls them per point.
"""
from __future__ import annotations

from dataclasses import dataclass


class CapacityError(ValueError):
    """A register size exceeded a configured dense/sparse/byte cap."""


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
    fermion_bytes_cap: int = 2**30  # max bytes of the fermion slogdet fallback block (L <= 16384)
    spectral_cutoff: float = 1e-12  # lambda_i + lambda_j cutoff in mixed-state sums
    fd_step: float = 1e-5          # centered finite-difference step in theta
    signal_floor: float = 1e-14    # |d<A>/dtheta| below this -> +inf sentinel
    derivative_agree_tol: float = 1e-6  # fd vs analytic derivative agreement
    degeneracy_tol: float = 1e-8   # two-fold near-degeneracy threshold
    residual_tol: float = 1e-8     # |H psi - E psi| for ground solutions
    zero_state_tol: float = 1e-14  # norm below which a vector counts as annihilated
    imag_cut: float = 1e-14        # max |Im| below which a complex matrix is solved as real
    toeplitz_pivot_floor: float = 1e-8  # |pivot| below this -> per-r slogdet fallback
    qfi_negative_tol: float = 1e-9  # how far below 0 a reported QFI may round
    unitary_tol: float = 1e-10     # | |U psi| - 1 | of a Hadamard test's controlled operator
    pull_through_tol: float = 1e-12  # parity signal vs its anticommutation pull-through
    invariance_tol: float = 1e-8   # QFI change under the bond-ZZ channel, x max(1, QFI)
    pauli_square_tol: float = 1e-12  # |c - 1| of a measured observable's square c I
    monotone_tol: float = 1e-10    # largest drop between successive long-range-order values

    def check(self, what, miss, field: str, *, scale=1.0, scaled_by: str = "",
              error=ValueError) -> None:
        """Raise ``error(message)`` unless ``miss <= field * scale``.  ``what``
        is a string or, on a hot path, a function formatting it on a miss."""
        value = getattr(self, field)
        tol = value * scale
        if not miss <= tol:
            what = what() if callable(what) else what
            per = f" x {scaled_by}" if scaled_by else ""
            raise error(f"{what} {miss:.3e} exceeds its tolerance {tol:.3e} "
                        f"({field} {value:g}{per}) by {miss - tol:.3e}")

    def cap(self, what: str, value, field: str, *, error=CapacityError) -> None:
        """Raise ``error(message)`` unless ``value``, in units ``what``, <= ``field``."""
        limit = getattr(self, field)
        if not value <= limit:
            raise error(f"{value} {what} exceeds {field} ({limit}) by {value - limit}")

    def floor(self, what: str, value, field: str, *, error=ValueError) -> None:
        """Raise ``error(message)`` unless ``value >= field``."""
        limit = getattr(self, field)
        if not value >= limit:
            raise error(f"{what} {value:.3e} is below {field} ({limit:g}) by {limit - value:.3e}")


POLICY = NumericPolicy()
