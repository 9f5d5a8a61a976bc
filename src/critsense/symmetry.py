"""Symmetry generators used as measurement observables.

Parity (product of X or of Z), single-site translation, and bond-centered
reflection, each a site map with an X and a Z mask (``SymmetryOperator``).
Translation and reflection are built from the ordered swap products
T = S_{0,1} S_{1,2} ... S_{L-2,L-1} and I_{j+1/2} = prod_k S_{j-k, j+1+k};
controlled versions act as direct permutations on the doubled register, with
the Toffoli decomposition tracked only as gate-count metadata.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .policy import POLICY
from .qcore import PauliOperator, PureState, _check_register, _conjugate, _sign_table, pauli_word

if TYPE_CHECKING:
    import scipy.sparse as sp

KINDS = ("parity_x", "parity_z", "translation", "reflection")
SIGN_SITES = 12  # sites of the one sign table apply_vec builds: 2^12 floats


@dataclass(frozen=True)
class SymmetryOperator:
    """Unitary symmetry action A|b> = (-1)^popcount(b & sign) |sigma(b) ^ flip>,
    sigma moving the bit of site j to site ``sites[j]``; ``flip`` and ``sign``
    are basis-index masks (site 0 the most significant bit).  No array is held.
    """

    kind: str
    L: int
    sites: tuple[int, ...]
    flip: int = 0
    sign: int = 0
    is_hermitian: bool = True
    bond_center: int | None = None
    swap_count: int = 0
    anticommuting_safe: bool = True  # False flags the odd-L open-chain reflection

    def __post_init__(self):
        if sorted(self.sites) != list(range(self.L)):
            raise ValueError(f"sites {self.sites!r} is no map of {self.L} sites onto themselves")

    @property
    def toffoli_count(self) -> int:
        """Gates of the controlled version: three Toffolis per controlled swap."""
        return 3 * self.swap_count

    @property
    def shape(self) -> tuple[int, int]:
        dim = 1 << self.L
        return dim, dim

    @cached_property
    def _view(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[slice, ...]]:
        """The move as a copy between coalesced views: ``(shape, axes,
        moved, flips)``.  A run of adjacent sites that sigma keeps adjacent
        and in order, all flipped or none, moves as one axis of 2^len:
        ``shape`` holds the runs in site order, ``axes`` the transpose that
        puts them in the order of their images, ``moved`` the transposed
        shape and ``flips`` the slices reversing the flipped runs.  The
        translation takes two axes, a parity one, the reflection L.
        """
        n = self.L
        images = [(k, self.flip >> (n - 1 - k) & 1) for k in self.sites]  # (site, flipped)
        runs: list[list] = []  # [image of the first site, its flip mark, length]
        for j, (k, flipped) in enumerate(images):
            if j and images[j - 1] == (k - 1, flipped):
                runs[-1][2] += 1
            else:
                runs.append([k, flipped, 1])
        axes = tuple(sorted(range(len(runs)), key=lambda r: runs[r][0]))
        shape = tuple(1 << length for _, _, length in runs)
        flips = tuple(slice(None, None, -1 if runs[r][1] else 1) for r in axes)
        return shape, axes, tuple(shape[r] for r in axes), flips

    def _move(self, vec: np.ndarray) -> np.ndarray:
        """A's move of a register vector or (2^L, k) block, trailing axis
        kept, as a view in the moved coalesced shape (``_view``): entry
        sigma(b) ^ flip of the view, reshaped to ``vec``'s shape, is entry
        b of ``vec``."""
        shape, axes, _, flips = self._view
        cols = vec.shape[1:]
        trail = tuple(range(len(axes), len(axes) + len(cols)))
        return vec.reshape(shape + cols).transpose(axes + trail)[flips]

    def apply_vec(self, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Action on a state vector or a (2^L, k) column block: one copy of the
        moved view of ``vec``'s register (``_move``), times the sign, into
        ``out`` if given (a C-contiguous complex128 array of ``vec``'s shape
        that does not overlap it)."""
        if out is None:
            out = np.empty(vec.shape, dtype=np.complex128)
        out.reshape(self._view[2] + vec.shape[1:])[...] = self._move(vec)
        if self.sign:
            self._apply_sign(out)
        return out

    @cached_property
    def _signs(self) -> tuple[int, int, tuple[np.ndarray, np.ndarray]]:
        """(m, low, (table, -table)): the sign mask m moved to the output
        sites, and the sign table of its last ``low`` sites and its negation."""
        n = self.L
        mask = 0
        for j, k in enumerate(self.sites):
            mask |= (self.sign >> (n - 1 - j) & 1) << (n - 1 - k)
        low = min(n, SIGN_SITES)
        table = _sign_table(low, mask & ((1 << low) - 1))
        return mask, low, (table, -table)

    def _apply_sign(self, out: np.ndarray) -> None:
        """out[c] *= (-1)^popcount(b & sign) for c = sigma(b) ^ flip, in place.

        Read at the output, the sign is (-1)^popcount((c ^ flip) & m), m the
        sign mask moved to the output sites: one table over the last
        ``SIGN_SITES`` sites, or its negation, on each slab of the leading
        sites, so no whole-register table is built.  Every entry is
        multiplied by the same +-1.0 a whole-register table holds, so the
        complex products, signed zeros included, are the same.
        """
        mask, low, tables = self._signs
        trail = (1,) * (out.ndim - 1)
        tables = tuple(t.reshape(t.shape + trail) for t in tables)
        slabs = out.reshape((1 << (self.L - low),) + (2,) * low + out.shape[1:])
        for i, slab in enumerate(slabs):
            slab *= tables[(((i << low) ^ self.flip) & mask).bit_count() & 1]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply_vec(x)

    def to_sparse(self) -> sp.csr_matrix:
        """complex128 CSR: row c holds A's sign at column src[c], the move of
        the basis indices, so that A|src[c]> = +-|c>."""
        import scipy.sparse as sp  # loaded on first use

        POLICY.cap("qubits", self.L, "sparse_cap")
        dim = 1 << self.L
        index = np.int32 if dim < 2**31 - 1 else np.int64
        src = self._move(np.arange(dim, dtype=index)).reshape(-1)
        indptr = np.arange(dim + 1, dtype=index)
        return sp.csr_matrix((self.apply_vec(np.ones(dim)), src, indptr), shape=(dim, dim))

    def to_matrix(self) -> np.ndarray:
        """Dense matrix; refuses registers above the dense cap."""
        POLICY.cap("qubits", self.L, "dense_cap")
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
    if kind in ("parity_x", "parity_z"):
        mask = {("flip" if kind == "parity_x" else "sign"): (1 << L) - 1}
        return SymmetryOperator(kind, L, tuple(range(L)), **mask)
    if kind == "translation":
        if boundary != "periodic":
            raise ValueError("translation requires a periodic chain")
        return SymmetryOperator(kind, L, tuple((i + 1) % L for i in range(L)),
                                is_hermitian=False, swap_count=L - 1)
    # reflection about the midpoint of bond (j, j+1): site i to 2j + 1 - i
    if bond_center is None:
        raise ValueError("reflection requires its bond center")
    j = bond_center
    raw = [2 * j + 1 - i for i in range(L)]
    site_map = [r % L for r in raw]
    # an open-chain mirror that leaves the chain keeps the wrapped map but is
    # flagged: it no longer anticommutes with the staggered imprinter
    safe = boundary != "open" or all(0 <= r < L for r in raw)
    swaps = sum(1 for i, r in enumerate(site_map) if i < r)
    return SymmetryOperator("reflection", L, tuple(site_map), bond_center=j,
                            swap_count=swaps, anticommuting_safe=safe)


def anticommutes(sym: SymmetryOperator, op: PauliOperator) -> bool:
    """True iff A O A^dagger = -O: ``qcore._conjugate``'s exact terms are
    those of O negated, coefficient for coefficient; no matrix is built."""
    if op.n_qubits != sym.L:
        raise ValueError("register size mismatch")
    moved = _conjugate(op, sym.sites, flip=sym.flip, sign=sym.sign)
    return moved == {word: -c for c, word in op.terms}


def symmetry_eigenvalue(state: PureState, sym: SymmetryOperator) -> tuple[bool, complex]:
    """(is_eigenstate, s) with s = <psi|A|psi>; eigenstate iff |A psi - s psi| < 1e-8.
    A symmetry of another register is refused (ValueError) before any product."""
    _check_register(state, sym)
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
    A unitary of another register is refused (ValueError) before any product.
    """
    _check_register(state, unitary)
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
    import scipy.sparse as sp  # loaded on first use

    u = unitary.to_sparse()
    dim = u.shape[0]
    half = 0.5 * (u + u.conj().T)
    eye = sp.identity(dim, dtype=np.complex128, format="csr")
    return [0.5 * (eye + half), 0.5 * (eye - half)]
