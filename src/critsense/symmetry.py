"""Symmetry generators used as measurement observables.

Parity (product of X or of Z), single-site translation, and bond-centered
reflection, each represented as a basis permutation with per-basis phases.
Translation and reflection are built from the ordered swap products
T = S_{0,1} S_{1,2} ... S_{L-2,L-1} and I_{j+1/2} = prod_k S_{j-k, j+1+k};
controlled versions act as direct permutations on the doubled register, with
the Toffoli decomposition tracked only as gate-count metadata.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .policy import POLICY
from .qcore import PauliOperator, PureState, _permutation, pauli_word

KINDS = ("parity_x", "parity_z", "translation", "reflection")


@dataclass(frozen=True)
class SymmetryOperator:
    """Unitary symmetry action A|b> = phase[b] |perm[b]> on basis states."""

    kind: str
    L: int
    perm: np.ndarray = field(repr=False)
    phase: np.ndarray | None = field(repr=False, default=None)
    is_hermitian: bool = True
    bond_center: int | None = None
    swap_count: int = 0
    anticommuting_safe: bool = True  # False flags the odd-L open-chain reflection

    @property
    def toffoli_count(self) -> int:
        """Gates of the controlled version: three Toffolis per controlled swap."""
        return 3 * self.swap_count

    @property
    def shape(self) -> tuple[int, int]:
        dim = 1 << self.L
        return dim, dim

    def apply_vec(self, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Action on a state vector or a (2^L, k) column block.

        ``out``, a complex128 array of ``vec``'s shape that does not overlap
        it, receives the result.
        """
        if out is None:
            out = np.empty(vec.shape, dtype=np.complex128)
        if self.phase is None:
            out[self.perm] = vec
        else:
            out[self.perm] = (self.phase if vec.ndim == 1 else self.phase[:, None]) * vec
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply_vec(x)

    def to_sparse(self) -> sp.csr_matrix:
        dim = 1 << self.L
        idx = np.arange(dim, dtype=np.int64)
        data = np.ones(dim, dtype=np.complex128) if self.phase is None else self.phase
        return sp.csr_matrix((data, (self.perm, idx)), shape=(dim, dim))

    def to_matrix(self) -> np.ndarray:
        return self.to_sparse().toarray()


@dataclass(frozen=True)
class HadamardTestResult:
    """Ancilla outcome statistics of the controlled-unitary interference test."""

    p_plus: float
    p_minus: float
    re_value: float      # 2 p_plus - 1 = Re<U>
    im_value: float      # from the phased-ancilla variant; unused by default
    toffoli_count: int

    def __post_init__(self):
        POLICY.check("outcome probabilities must sum to 1: |p_plus + p_minus - 1|",
                     abs(self.p_plus + self.p_minus - 1.0), "norm_tol")
        POLICY.check("|Re<U>| cannot exceed 1: |Re<U>| - 1", abs(self.re_value) - 1.0, "norm_tol")


def build_symmetry(
    kind: str,
    L: int,
    bond_center: int | None = None,
    boundary: str = "periodic",
) -> SymmetryOperator:
    """Construct a symmetry operator of the given kind on L sites."""
    if kind not in KINDS:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    if L < 2:
        raise ValueError("L must be >= 2")
    dim = 1 << L
    idx = np.arange(dim, dtype=np.int64)
    if kind == "parity_x":
        perm = idx ^ (dim - 1)
        return SymmetryOperator(kind, L, perm=perm, is_hermitian=True, swap_count=0)
    if kind == "parity_z":
        phase = (1.0 - 2.0 * (np.bitwise_count(idx) & 1)).astype(np.complex128)
        return SymmetryOperator(kind, L, perm=idx.copy(), phase=phase, is_hermitian=True)
    if kind == "translation":
        if boundary != "periodic":
            raise ValueError("translation requires a periodic chain")
        return SymmetryOperator(
            kind, L, perm=_permutation(L, "translation"), is_hermitian=False, swap_count=L - 1
        )
    # reflection about the midpoint of bond (j, j+1)
    if bond_center is None:
        raise ValueError("reflection requires its bond center")
    j = bond_center
    site_map = [(2 * j + 1 - i) % L for i in range(L)]
    if boundary == "open":
        raw = [2 * j + 1 - i for i in range(L)]
        if any(r < 0 or r >= L for r in raw):
            # the bond-centered mirror leaves the open chain; keep the wrapped
            # permutation but flag it (it no longer anticommutes with the
            # staggered imprinter)
            safe = False
        else:
            site_map, safe = raw, True
    else:
        safe = True
    perm = np.zeros(dim, dtype=np.int64)
    for i, r in enumerate(site_map):
        perm |= ((idx >> (L - 1 - r)) & 1) << (L - 1 - i)
    swaps = sum(1 for i, r in enumerate(site_map) if i < r)
    return SymmetryOperator(
        "reflection", L, perm=perm, is_hermitian=True, bond_center=j,
        swap_count=swaps, anticommuting_safe=safe,
    )


def anticommutes(sym: SymmetryOperator, op: PauliOperator) -> bool:
    """True iff the max matrix entry of A O + O A is below ``POLICY.herm_tol``."""
    if op.n_qubits != sym.L:
        raise ValueError("register size mismatch")
    a = sym.to_sparse()
    o = op.to_sparse()
    anti = a @ o + o @ a
    return anti.nnz == 0 or float(np.max(np.abs(anti.data))) < POLICY.herm_tol


def symmetry_eigenvalue(state: PureState, sym: SymmetryOperator) -> tuple[bool, complex]:
    """(is_eigenstate, s) with s = <psi|A|psi>; eigenstate iff |A psi - s psi| < 1e-8."""
    avec = sym @ state.amplitudes
    s = complex(np.vdot(state.amplitudes, avec))
    resid = float(np.linalg.norm(avec - s * state.amplitudes))
    return resid < 1e-8, s


def rydberg_order_parameter(L: int, boundary: str = "periodic") -> PauliOperator:
    """Staggered density-difference order parameter sum_j (-1)^j (n_{j+1} - n_j).

    With n = (I - Z)/2 the sum telescopes to single-site Z terms with
    staggered weights (exactly, on even periodic chains).
    """
    if L < 3:
        raise ValueError("need L >= 3")
    terms: list[tuple[complex, str]] = []
    last = L if boundary == "periodic" else L - 1
    for j in range(last):
        k = (j + 1) % L
        sign = (-1.0) ** j
        # (-1)^j (n_k - n_j) = (-1)^j (Z_j - Z_k)/2
        terms.append((0.5 * sign, pauli_word(L, {j: "Z"})))
        terms.append((-0.5 * sign, pauli_word(L, {k: "Z"})))
    return PauliOperator(L, terms)


def hadamard_test(state: PureState, unitary: SymmetryOperator) -> HadamardTestResult:
    """Exact ancilla + controlled-unitary interference statistics.

    The doubled register (|0> psi + |1> U psi)/sqrt(2) is simulated directly;
    after the final ancilla mixing, p_plus = |psi + U psi|^2/4, which equals
    (1 + Re<psi|U|psi>)/2.  The phased variant gives the imaginary part.
    """
    psi = state.amplitudes
    upsi = unitary @ psi
    POLICY.check("controlled operator must be unitary: | |U psi| - 1 |",
                 abs(float(np.linalg.norm(upsi)) - 1.0), "unitary_tol")
    plus_branch = 0.5 * (psi + upsi)
    minus_branch = 0.5 * (psi - upsi)
    p_plus = float(np.vdot(plus_branch, plus_branch).real)
    p_minus = float(np.vdot(minus_branch, minus_branch).real)
    # phased ancilla (S gate before the second mixing) exposes Im<U>
    im_value = float(np.imag(np.vdot(psi, upsi)))
    return HadamardTestResult(
        p_plus=p_plus,
        p_minus=p_minus,
        re_value=p_plus - p_minus,
        im_value=im_value,
        toffoli_count=unitary.toffoli_count,
    )


def hadamard_test_povm(unitary: SymmetryOperator) -> list[sp.csr_matrix]:
    """System-side effects {(I +- (U + U^dag)/2)/2} of the ancilla readout."""
    u = unitary.to_sparse()
    dim = u.shape[0]
    half = 0.5 * (u + u.conj().T)
    eye = sp.identity(dim, dtype=np.complex128, format="csr")
    return [0.5 * (eye + half), 0.5 * (eye - half)]
