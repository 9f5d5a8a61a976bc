"""Exact state and operator algebra for n-qubit registers.

Conventions, fixed globally for reproducible outputs:
  * site 0 is the most significant bit of the computational-basis index;
  * |0> is the Z = +1 eigenstate;
  * Pauli strings are stored as per-site letter strings over {I, X, Y, Z}.

Dense density matrices follow one dtype rule: real in, real out; complex only
when the data is.  A real matrix is kept as float64 and anything complex as
complex128, so real probes and real channels run in real arithmetic end to
end; an operation whose own factors are complex (a phase imprint, say)
returns complex128.

All operations are pure functions of immutable inputs and safe for
concurrent read-only use.  The only internal mutable state is the lazy
spectral cache on MixedState, which should be populated once (call
``spectrum()``) before sharing across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .policy import POLICY, CapacityError, NumericPolicy

LETTERS = "IXYZ"


def basis_index_bits(n_qubits: int) -> list[np.ndarray]:
    """Bit value (0/1) of each site for every basis index; site 0 = MSB."""
    idx = np.arange(1 << n_qubits, dtype=np.int64)
    return [(idx >> (n_qubits - 1 - j)) & 1 for j in range(n_qubits)]


@lru_cache(maxsize=256)
def _string_action(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """Permutation and phase arrays of a Pauli string: P|b> = phase[b]|perm[b]>."""
    n = len(letters)
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    flip = 0
    for j, c in enumerate(letters):
        if c in "XY":
            flip |= 1 << (n - 1 - j)
    perm = idx ^ flip
    phase = np.ones(dim, dtype=np.complex128)
    for j, c in enumerate(letters):
        if c == "I" or c == "X":
            continue
        b = (idx >> (n - 1 - j)) & 1
        sign = 1.0 - 2.0 * b
        if c == "Z":
            phase = phase * sign
        else:  # Y
            phase = phase * (1j * sign)
    return perm, phase


class PauliOperator:
    """Complex-weighted sum of Pauli strings on an n-qubit register.

    Terms with identical letter strings are merged; zero coefficients are
    dropped.  The operator is Hermitian iff every merged coefficient is real
    (strings are linearly independent and individually Hermitian).
    """

    __slots__ = ("n_qubits", "terms")

    def __init__(self, n_qubits: int, terms: Iterable[tuple[complex, str]] = ()):
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        merged: dict[str, complex] = {}
        for coeff, letters in terms:
            if len(letters) != n_qubits:
                raise ValueError(
                    f"letter string {letters!r} does not match n_qubits={n_qubits}"
                )
            if any(c not in LETTERS for c in letters):
                raise ValueError(f"invalid Pauli letters {letters!r}")
            merged[letters] = merged.get(letters, 0.0) + complex(coeff)
        self.n_qubits = n_qubits
        self.terms = tuple(
            (c, s) for s, c in sorted(merged.items()) if abs(c) > 1e-15
        )

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliOperator":
        return cls(n_qubits, [(coeff, "I" * n_qubits)])

    @classmethod
    def single(cls, n_qubits: int, site: int, letter: str, coeff: complex = 1.0) -> "PauliOperator":
        return cls.string(n_qubits, {site: letter}, coeff)

    @classmethod
    def string(cls, n_qubits: int, sites: dict[int, str], coeff: complex = 1.0) -> "PauliOperator":
        """One Pauli string from a {site: letter} mapping (identity elsewhere)."""
        word = ["I"] * n_qubits
        for site, letter in sites.items():
            if not 0 <= site < n_qubits:
                raise ValueError(f"site {site} outside register of {n_qubits} qubits")
            word[site] = letter
        return cls(n_qubits, [(coeff, "".join(word))])

    # -- algebra -------------------------------------------------------
    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n_qubits != other.n_qubits:
            raise ValueError("register size mismatch")
        return PauliOperator(self.n_qubits, list(self.terms) + list(other.terms))

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliOperator":
        return PauliOperator(self.n_qubits, [(c * scalar, s) for c, s in self.terms])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = " + ".join(f"({c:g})*{s}" for c, s in self.terms[:6])
        more = "" if len(self.terms) <= 6 else f" + ... [{len(self.terms)} terms]"
        return f"PauliOperator({self.n_qubits}q: {body}{more})"

    @property
    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= POLICY.pauli_herm_tol for c, _ in self.terms)

    @property
    def is_diagonal(self) -> bool:
        return all(set(s) <= {"I", "Z"} for _, s in self.terms)

    def diagonal(self) -> np.ndarray:
        """Eigenvalue vector over the computational basis; requires I/Z letters only."""
        if not self.is_diagonal:
            raise ValueError("operator has X/Y letters; not diagonal")
        dim = 1 << self.n_qubits
        d = np.zeros(dim, dtype=np.complex128)
        for coeff, letters in self.terms:
            _, phase = _string_action(letters)
            d += coeff * phase
        return d

    def apply_vec(self, vec: np.ndarray) -> np.ndarray:
        """Linear action on a state vector (unnormalized result)."""
        out = np.zeros(vec.shape, dtype=np.complex128)
        for coeff, letters in self.terms:
            perm, phase = _string_action(letters)
            out[perm] += coeff * (phase * vec)
        return out

    def to_sparse(self, policy: NumericPolicy = POLICY) -> sp.csr_matrix:
        if self.n_qubits > policy.sparse_cap:
            raise CapacityError(
                f"{self.n_qubits} qubits exceeds sparse cap {policy.sparse_cap}"
            )
        dim = 1 << self.n_qubits
        mat = sp.csr_matrix((dim, dim), dtype=np.complex128)
        idx = np.arange(dim, dtype=np.int64)
        for coeff, letters in self.terms:
            perm, phase = _string_action(letters)
            mat = mat + sp.csr_matrix((coeff * phase, (perm, idx)), shape=(dim, dim))
        return mat


def to_matrix(op: PauliOperator, policy: NumericPolicy = POLICY) -> np.ndarray:
    """Dense matrix of a Pauli sum; refuses registers above the dense cap."""
    if op.n_qubits > policy.dense_cap:
        raise CapacityError(
            f"{op.n_qubits} qubits exceeds dense cap {policy.dense_cap}"
        )
    return op.to_sparse(policy).toarray()


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over the 2^n computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude length {amp.shape} does not match 2^{self.n_qubits}"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > POLICY.norm_tol:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond tolerance")
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def from_basis(cls, n_qubits: int, index: int) -> "PureState":
        amp = np.zeros(1 << n_qubits, dtype=np.complex128)
        amp[index] = 1.0
        return cls(n_qubits, amp)


@dataclass
class MixedState:
    """Hermitian, PSD, unit-trace matrix with a lazily cached spectral decomposition.

    The matrix is stored as float64 when it is real and as complex128
    otherwise (real in, real out; complex only when the data is).
    """

    n_qubits: int
    matrix: np.ndarray
    _spectrum: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        dim = 1 << self.n_qubits
        mat = np.asarray(self.matrix)
        mat = mat.astype(np.complex128 if np.iscomplexobj(mat) else np.float64, copy=False)
        if mat.shape != (dim, dim):
            raise ValueError("matrix shape does not match register size")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > POLICY.herm_tol:
            raise ValueError(f"matrix not Hermitian: max deviation {herm:.3e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > POLICY.trace_tol:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond tolerance")
        self.matrix = mat

    @classmethod
    def from_pure(cls, state: PureState) -> "MixedState":
        """|psi><psi|; real when the amplitudes have no imaginary part."""
        if state.n_qubits > POLICY.dense_cap:
            raise CapacityError(
                f"{state.n_qubits} qubits exceeds dense cap {POLICY.dense_cap}"
            )
        amp = state.amplitudes
        if not amp.imag.any():
            amp = amp.real
        return cls(state.n_qubits, np.outer(amp, amp.conj()))

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvector columns; cached after first call.

        Uses the real-symmetric solver, and returns real eigenvectors, when
        the matrix is real-valued, which is substantially faster at the
        largest register sizes.
        """
        if self._spectrum is None:
            mat = self.matrix
            if not np.iscomplexobj(mat) or np.max(np.abs(mat.imag)) < 1e-14:
                w, v = np.linalg.eigh(mat.real)
            else:
                w, v = np.linalg.eigh(mat)
            if w.min() < -POLICY.psd_tol:
                raise ValueError(f"matrix not PSD: min eigenvalue {w.min():.3e}")
            self._spectrum = (w, v)
        return self._spectrum


State = PureState | MixedState


def apply_operator(op: PauliOperator, state: PureState) -> np.ndarray:
    """Linear (generally unnormalized) action op|psi> as a raw vector."""
    if op.n_qubits != state.n_qubits:
        raise ValueError("register size mismatch")
    return op.apply_vec(state.amplitudes)


def dephase_normalize(vec: np.ndarray, n_qubits: int | None = None) -> PureState:
    """Rescale to unit norm and fix the global phase deterministically.

    The amplitude of largest magnitude (lowest index on ties) is rotated to
    the positive real axis, so eigensolver output is reproducible bit-exactly.
    Raises on an (effectively) zero vector.
    """
    vec = np.asarray(vec, dtype=np.complex128)
    if n_qubits is None:
        n_qubits = int(round(np.log2(vec.size)))
    norm = np.linalg.norm(vec)
    if norm < POLICY.zero_state_tol:
        raise ValueError("cannot normalize a zero vector")
    vec = vec / norm
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    return PureState(n_qubits, vec / phase)


def expectation(state: State, op: PauliOperator) -> complex:
    """<psi|op|psi> or Tr(rho op)."""
    if op.n_qubits != state.n_qubits:
        raise ValueError("register size mismatch")
    if isinstance(state, PureState):
        return complex(np.vdot(state.amplitudes, op.apply_vec(state.amplitudes)))
    total = 0.0 + 0.0j
    rho = state.matrix
    for coeff, letters in op.terms:
        perm, phase = _string_action(letters)
        idx = np.arange(rho.shape[0])
        total += coeff * np.sum(phase * rho[idx, perm])
    return complex(total)


def variance(state: State, op: PauliOperator) -> float:
    """<op^2> - <op>^2 for a Hermitian op; guaranteed >= -1e-10 numerically."""
    if not op.is_hermitian:
        raise ValueError("variance requires a Hermitian operator")
    if isinstance(state, PureState):
        ovec = op.apply_vec(state.amplitudes)
        mean = np.vdot(state.amplitudes, ovec).real
        second = np.vdot(ovec, ovec).real
    else:
        rho = state.matrix
        osp = op.to_sparse()
        orho = osp @ rho
        mean = np.trace(orho).real
        second = np.trace(osp @ orho).real
    return second - mean * mean


def evolve_phase(state: State, gen: PauliOperator, theta: float) -> State:
    """e^{i theta gen}|psi>, or U rho U^dagger with U = e^{i theta gen}, for a
    Hermitian generator.

    Diagonal generators (I/Z letters only) are applied as a pure phase; the
    general case goes through a Krylov evaluation of the matrix exponential
    action (pure states) or the dense unitary (mixed states).  The norm is
    preserved to 1e-12.  A mixed state's cached spectrum is carried over:
    the eigenvalues are imprint invariant and the eigenvectors are rotated.
    """
    if not gen.is_hermitian:
        raise ValueError("phase generator must be Hermitian")
    if gen.n_qubits != state.n_qubits:
        raise ValueError("register size mismatch")
    if theta == 0.0:
        return state
    if isinstance(state, MixedState):
        return _imprint_mixed(state, gen, theta)
    if gen.is_diagonal:
        d = gen.diagonal().real
        amp = np.exp(1j * theta * d) * state.amplitudes
    else:
        amp = spla.expm_multiply(1j * theta * gen.to_sparse(), state.amplitudes)
        amp = amp / np.linalg.norm(amp)
    return PureState(state.n_qubits, amp)


def _imprint_mixed(rho: MixedState, gen: PauliOperator, theta: float) -> MixedState:
    diagonal = gen.is_diagonal
    if diagonal:
        u = np.exp(1j * theta * gen.diagonal())
        out = MixedState(rho.n_qubits, rho.matrix * np.outer(u, u.conj()))
    else:
        w, vv = np.linalg.eigh(to_matrix(gen))
        uu = (vv * np.exp(1j * theta * w)) @ vv.conj().T
        out = MixedState(rho.n_qubits, uu @ rho.matrix @ uu.conj().T)
    if rho._spectrum is not None:
        lam, v = rho._spectrum
        out._spectrum = (lam, u[:, None] * v if diagonal else uu @ v)
    return out


def apply_exponential(gen: PauliOperator, scale: complex, vec: np.ndarray) -> np.ndarray:
    """Raw action e^{scale * gen} vec, without any normalization."""
    if gen.is_diagonal:
        return np.exp(scale * gen.diagonal()) * vec
    return spla.expm_multiply(scale * gen.to_sparse(), vec)


def partial_trace(rho: MixedState, kept_sites: Sequence[int]) -> MixedState:
    """Reduced density matrix on ``kept_sites`` (order preserved)."""
    n = rho.n_qubits
    kept = list(kept_sites)
    if any(not 0 <= s < n for s in kept) or len(set(kept)) != len(kept):
        raise ValueError("kept_sites must be distinct sites of the register")
    traced = [s for s in range(n) if s not in kept]
    tens = rho.matrix.reshape([2] * (2 * n))
    # trace out highest-position axes first so earlier axis numbers stay valid
    for s in sorted(traced, reverse=True):
        tens = np.trace(tens, axis1=s, axis2=s + (tens.ndim // 2))
    k = len(kept)
    # axes are currently in increasing original-site order; restore caller order
    perm = [int(p) for p in np.argsort(np.argsort(kept))]
    tens = np.transpose(tens, axes=perm + [p + k for p in perm])
    return MixedState(k, tens.reshape(1 << k, 1 << k))


def linear_expectation(obj, state: PureState) -> complex:
    """<psi|obj|psi> for any supported linear-operator representation.

    Accepts PauliOperator, anything exposing ``apply_vec``, numpy arrays and
    scipy sparse matrices.
    """
    vec = state.amplitudes
    if isinstance(obj, PauliOperator) or hasattr(obj, "apply_vec"):
        return complex(np.vdot(vec, obj.apply_vec(vec)))
    if sp.issparse(obj):
        return complex(np.vdot(vec, obj @ vec))
    arr = np.asarray(obj)
    return complex(np.vdot(vec, arr @ vec))
