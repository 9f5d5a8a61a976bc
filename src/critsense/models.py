"""Spin-chain Hamiltonians, ground-state solvers, and reference probe states.

Supported models: transverse-field Ising chain, XXZ chain, Rydberg-blockade
chain (hard-core bosons), and the symmetric cluster ladder.  Ladder qubits are
laid out interleaved: rung j (1-based), chain y in {1, 2} -> qubit
2(j-1) + (y-1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .policy import POLICY
from .qcore import (
    PauliOperator,
    PureState,
    _flip_mask,
    charge,
    collective_spin,
    dephase_normalize,
    expectation,
    parity_x_operator,
    pauli_word,
    sector_isometry,
    staggered_z,
    variance,
)
from .symmetry import SymmetryOperator, build_symmetry

if TYPE_CHECKING:
    import scipy.sparse as sp

_KINDS = ("tfim", "xxz", "rydberg", "cluster_ladder")


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one chain/ladder Hamiltonian."""

    kind: str
    L: int
    J: float = 1.0
    h: float = 1.0
    delta: float = 0.0          # XXZ anisotropy
    omega: float = 1.0          # Rydberg Rabi frequency
    detuning: float = 0.0
    v1: float = 50.0            # nearest-neighbor repulsion
    v2: float = 0.0             # next-nearest repulsion
    boundary: str = "periodic"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        for name in ("J", "h", "delta", "omega", "detuning", "v1", "v2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.L < 2:
            raise ValueError("L must be >= 2")
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"boundary must be periodic or open, got {self.boundary!r}")
        if self.kind == "tfim" and (self.J == 0.0 or self.h == 0.0):
            raise ValueError("tfim requires J != 0 and h != 0")
        if self.kind == "xxz" and not (-1.0 < self.delta <= 1.0):
            raise ValueError("xxz critical range requires -1 < delta <= 1")
        if self.kind == "rydberg" and self.v1 <= 0.0:
            raise ValueError("rydberg requires V1 > 0")

    @property
    def n_qubits(self) -> int:
        return 2 * self.L if self.kind == "cluster_ladder" else self.L


@dataclass
class GroundSolution:
    energy: float
    state: PureState
    gap: float
    sector_labels: dict = field(default_factory=dict)


def ladder_site(j: int, y: int, L: int) -> int:
    """Qubit index of rung j (1..L), chain y (1 or 2)."""
    if not (1 <= j <= L and y in (1, 2)):
        raise ValueError(f"invalid ladder coordinate (j={j}, y={y}) for L={L}")
    return 2 * (j - 1) + (y - 1)


def build_hamiltonian(spec: ModelSpec, extra_terms: list[tuple[complex, str]] | None = None) -> PauliOperator:
    """Hermitian Hamiltonian of the model as a merged Pauli sum.

    ``extra_terms`` is a hook for user-supplied symmetry-preserving
    perturbations (used with the cluster ladder); terms are raw
    (coefficient, letter-string) pairs on the full register.
    """
    L = spec.L
    n = spec.n_qubits
    terms: list[tuple[complex, str]] = []

    def bonds() -> list[tuple[int, int]]:
        last = L if spec.boundary == "periodic" else L - 1
        return [(j, (j + 1) % L) for j in range(last)]

    if spec.kind == "tfim":
        for j, k in bonds():
            terms.append((-spec.J, pauli_word(n, {j: "Z", k: "Z"})))
        for j in range(L):
            terms.append((-spec.h, pauli_word(n, {j: "X"})))
    elif spec.kind == "xxz":
        for j, k in bonds():
            terms.append((1.0, pauli_word(n, {j: "X", k: "X"})))
            terms.append((1.0, pauli_word(n, {j: "Y", k: "Y"})))
            terms.append((spec.delta, pauli_word(n, {j: "Z", k: "Z"})))
    elif spec.kind == "rydberg":
        # n_j = (I - Z_j)/2, b_j + b_j^dag = X_j
        for j in range(L):
            terms.append((0.5 * spec.omega, pauli_word(n, {j: "X"})))
            terms.append((-0.5 * spec.detuning, pauli_word(n, {})))
            terms.append((0.5 * spec.detuning, pauli_word(n, {j: "Z"})))
        for v, step in ((spec.v1, 1), (spec.v2, 2)):
            if v == 0.0:
                continue
            last = L if spec.boundary == "periodic" else L - step
            for j in range(last):
                k = (j + step) % L
                terms.append((0.25 * v, pauli_word(n, {})))
                terms.append((-0.25 * v, pauli_word(n, {j: "Z"})))
                terms.append((-0.25 * v, pauli_word(n, {k: "Z"})))
                terms.append((0.25 * v, pauli_word(n, {j: "Z", k: "Z"})))
    elif spec.kind == "cluster_ladder":
        for j in range(1, L):
            s = lambda jj, yy: ladder_site(jj, yy, L)
            triangles = [
                ({s(j, 1): "Z", s(j, 2): "X", s(j + 1, 1): "Z"}),
                ({s(j, 2): "Z", s(j + 1, 1): "X", s(j + 1, 2): "Z"}),
                ({s(j, 2): "Z", s(j, 1): "X", s(j + 1, 2): "Z"}),
                ({s(j, 1): "Z", s(j + 1, 2): "X", s(j + 1, 1): "Z"}),
            ]
            for tri in triangles:
                terms.append((-1.0, pauli_word(n, tri)))

    if extra_terms:
        terms.extend(extra_terms)
    op = PauliOperator(n, terms)
    if not op.is_hermitian:
        raise ValueError("assembled Hamiltonian is not Hermitian")
    return op


def _deterministic_start(dim: int) -> np.ndarray:
    # fixed, full-support start vector keeps Lanczos output reproducible
    v0 = np.ones(dim) + 1e-3 * np.cos(np.arange(dim))
    return v0 / np.linalg.norm(v0)


class EigensolverError(RuntimeError):
    pass


def _check_residual(mat, vec: np.ndarray, energy: float) -> None:
    """|M v - E v| within ``POLICY.residual_tol`` x max(1, |E|), else EigensolverError."""
    # a real matrix takes the two parts of v apart: no complex copy of the matrix
    hv = mat @ vec if np.iscomplexobj(mat) else mat @ vec.real + 1j * (mat @ vec.imag)
    resid = float(np.linalg.norm(hv - energy * vec))
    POLICY.check("ground-state residual", resid, "residual_tol", scale=max(1.0, abs(energy)),
                 scaled_by="max(1, |E|)", error=EigensolverError)


def _selection(n: int, basis: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray, float]:
    """Isometry onto the sorted basis states ``basis``: column i is |basis[i]>."""
    import scipy.sparse as sp  # loaded on first use

    cols = np.arange(basis.size)
    P = sp.csr_matrix((np.ones(basis.size), (basis, cols)), shape=(1 << n, basis.size))
    return P, basis, 1.0


def _sector_block(
    H: PauliOperator, sector: list[tuple[str, object, float]], lanczos: bool
) -> tuple[tuple[sp.csr_matrix, np.ndarray, np.ndarray] | None, set[int]]:
    """Orbit isometry of the symmetry group the sector entries generate.

    An entry joins when its wanted eigenvalue is +-1 and its op is either
    * a single X-string (I/X letters, coefficient 1) that commutes with H
      (``qcore.charge`` 0); or
    * the translation T of the whole register, when H is translation
      invariant (charge 0); -1 needs an even register, as T^n = 1.
    T and the flips must commute, so T joins only with ring-invariant
    strings (the product-of-X parity).  A group element g carries the
    character chi(g), the product of the joined eigenvalues.  The isometry
    is ``qcore.sector_isometry`` of the joined generators, ``"translation"``
    first and then the X-strings in join order: one column sum_g chi(g)|g r>
    / sqrt(|O_r|) per orbit O_r that chi allows, the mixed spectra's cached
    object.  Returns ``(P, reps, norms)`` and the indices of the joined
    entries, or ``(None, set())`` when no entry joins or chi allows no
    orbit.  For ``lanczos`` the flip group stops short of a single orbit, as
    ``eigsh`` needs two states.
    """
    n = H.n_qubits
    group = {0: 1.0}  # flip group: element mask -> character
    words: list[str] = []
    charges: list[int] = []
    shift: int | None = None  # T's charge, once it joins
    joined: set[int] = set()
    for i, (_, op, want) in enumerate(sector):
        if want not in (1.0, -1.0):
            continue
        if isinstance(op, SymmetryOperator):
            if (op.kind == "translation" and op.L == n and shift is None
                    and (want == 1.0 or n % 2 == 0)
                    and all(w[-1] + w[:-1] == w for w in words)
                    and charge(H, "translation") == 0):
                shift = 0 if want == 1.0 else n // 2
                joined.add(i)
            continue
        if not (isinstance(op, PauliOperator) and len(op.terms) == 1):
            continue
        coeff, word = op.terms[0]
        if coeff != 1.0 or "X" not in word or set(word) - {"I", "X"} or charge(H, word) != 0:
            continue
        if shift is not None and word[-1] + word[:-1] != word:
            continue
        mask = _flip_mask(n, word)
        if mask in group:  # already an element: joins only if its character agrees
            if group[mask] == want:
                joined.add(i)
            continue
        if lanczos and 2 * len(group) > 1 << (n - 1):
            continue
        group.update({g ^ mask: c * want for g, c in list(group.items())})
        words.append(word)
        charges.append(0 if want == 1.0 else 1)
        joined.add(i)
    if not joined:
        return None, set()
    if shift is not None:
        words.insert(0, "translation")
        charges.insert(0, shift)
    block = sector_isometry(n, tuple(words), tuple(charges))
    if not block[1].size:
        return None, set()
    return block, joined


def _lowest_levels(mat) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenpairs from Lanczos, enough to hold the whole ground multiplet.

    Asks for k = 2 levels and doubles k while the highest returned level is
    still within ``POLICY.degeneracy_tol`` of E0, capped at dim - 1.
    """
    import scipy.sparse.linalg as spla  # loaded on first use

    dim = mat.shape[0]
    v0 = _deterministic_start(dim)
    k = min(2, dim - 1)
    while True:
        try:
            evals, evecs = spla.eigsh(mat, k=k, which="SA", v0=v0)
        except spla.ArpackNoConvergence as exc:  # pragma: no cover
            raise EigensolverError(f"Lanczos failed to converge: {exc}") from exc
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
        if k == dim - 1 or evals[-1] - evals[0] >= POLICY.degeneracy_tol:
            return evals, evecs
        k = min(2 * k, dim - 1)


def ground_state(
    H: PauliOperator,
    sector: list[tuple[str, object, float]] | None = None,
    basis: np.ndarray | None = None,
) -> GroundSolution:
    """Lowest-energy state of a Hermitian Pauli sum.

    The solve runs on P^dagger H P for an isometry P out of the full
    register, and the state comes back as P v, a full-register vector
    whatever P is:

    * with ``basis``, a sorted array of basis indices (the hard Rydberg
      blockade of ``solve_rydberg_blockaded``), P selects those states;
    * without it, at every register size, P spans the sector block of the
      symmetry group the ``sector`` entries generate (see
      ``_sector_block``): the X-strings that commute with H (the
      product-of-X parity of the Ising chain, the two chain parities of the
      cluster ladder) and the translation T at eigenvalue +-1 when H is
      translation invariant (the periodic Ising and Rydberg chains), so a
      momentum k = 0 or pi block of about 2^n / n states, 2^n / 2n with the
      parity too;
    * otherwise (no entry joins) there is no P: the whole register.

    The block is diag(norms) H[reps] P, with ``(P, reps, norms)`` from
    ``qcore.sector_isometry`` (cached per (n, generators, charges), shared
    with the mixed spectra) and the rows
    H[reps] built from the grouped Pauli form (``to_sparse(rows)``), never
    the whole register's matrix.  The solver switches on the register (or
    ``basis``) dimension, not on the block's: up to 2^10 states it is dense
    ``eigh`` of the block; above, Lanczos on it, asking for two levels and
    for twice as many while all of them sit within ``POLICY.degeneracy_tol``
    of E0.  A real Hamiltonian (Ising, XXZ, Rydberg) gives a float64 matrix
    and runs the real-symmetric solvers; a complex one keeps the complex
    Hermitian path, unless its dense block's imaginary parts all stay below
    ``POLICY.imag_cut``.  The ground multiplet is the levels within
    ``POLICY.degeneracy_tol`` of E0.

    ``sector`` lists (label, symmetry operator, wanted eigenvalue) triples.
    The entries outside the block (those that do not join the group)
    resolve the multiplet after the solve, to the requested eigenvalues in
    that order.  ``sector_labels[label]`` records Re<op> of the returned
    state.  ``gap`` is E1 - E0 of the matrix that was diagonalized: the gap
    inside the (k, +-) block when it was used, the splitting inside the
    multiplet when it has several members, nan for a one-state block.  The
    residual is checked against that matrix.
    """
    if not H.is_hermitian:
        raise ValueError("ground_state requires a Hermitian Hamiltonian")
    n = H.n_qubits
    POLICY.cap("qubits", n, "sparse_cap")  # before any 2^n array
    sector = list(sector or ())
    lanczos = (1 << n if basis is None else basis.size) > 1024
    # (P, rows, norms): P^dagger v == norms * v[rows] for every v in the range of P
    restriction, joined = None, set()
    if basis is not None:
        restriction = _selection(n, basis)
    else:
        restriction, joined = _sector_block(H, sector, lanczos)
    if restriction is None:
        mat = H.to_sparse()
    else:
        P, rows, norms = restriction
        # P^dagger H P = diag(norms) H[rows] P: a selection reads its rows
        # from any vector, and H maps a symmetry sector into itself
        mat = H.to_sparse(rows) @ P
        mat.data *= np.repeat(norms, np.diff(mat.indptr)) if np.ndim(norms) else norms
    if lanczos:
        evals, evecs = _lowest_levels(mat)
    else:
        dense = mat.toarray()
        if np.iscomplexobj(dense) and np.max(np.abs(dense.imag)) < POLICY.imag_cut:
            dense = dense.real
        evals, evecs = np.linalg.eigh(dense)

    e0 = float(evals[0])
    gap = float(evals[1] - e0) if evals.size > 1 else math.nan
    multiplet = evecs[:, evals - e0 < POLICY.degeneracy_tol]
    full = (multiplet if restriction is None else P @ multiplet).astype(np.complex128)
    for i, (_, op, want) in enumerate(sector):
        if full.shape[1] == 1:
            break
        if i in joined:
            continue
        block = full.conj().T @ (op @ full)
        w, u = np.linalg.eigh(0.5 * (block + block.conj().T))
        pick = np.where(np.abs(w - want) < 1e-6)[0]
        if pick.size == 0:
            pick = np.array([int(np.argmin(np.abs(w - want)))])
        full = full @ u[:, pick]
    state = dephase_normalize(full[:, 0], n)

    amps = state.amplitudes if restriction is None else norms * state.amplitudes[rows]
    _check_residual(mat, amps, e0)
    labels = {label: expectation(state, op).real for label, op, _ in sector}
    return GroundSolution(energy=e0, state=state, gap=gap, sector_labels=labels)


def solve_model(spec: ModelSpec) -> GroundSolution:
    """Build and solve a model, resolving near-degeneracies in its natural sector.

    For the Ising chain the sector is the product-of-X parity sign(h)^L
    (label ``parity_x``): the Z-basis off-diagonals -h share one sign, so by
    Perron-Frobenius the ground state is unique, and prod Z maps h to -h while
    prod Z prod X = (-1)^L prod X prod Z.  On a periodic chain it is also the
    T = +1 momentum (label ``translation_re``, Re<T>), the same argument with
    T commuting with prod Z.  For the cluster ladder, both chain parities
    are fixed to +1 (labels ``parity_x_chain1`` and ``parity_x_chain2``).
    At every size these entries form the solve's block (``ground_state``),
    so ``gap`` is the gap inside that sector.
    """
    H = build_hamiltonian(spec)
    n = spec.n_qubits
    sector: list[tuple[str, object, float]] | None = None
    if spec.kind == "tfim":
        parity = 1.0 if spec.h > 0.0 or n % 2 == 0 else -1.0
        sector = [("parity_x", parity_x_operator(n), parity)]
        if spec.boundary == "periodic":
            sector.append(("translation_re", build_symmetry("translation", n), +1.0))
    elif spec.kind == "cluster_ladder":
        sector = []
        for y in (1, 2):
            chain = {ladder_site(j, y, spec.L): "X" for j in range(1, spec.L + 1)}
            sector.append((f"parity_x_chain{y}", PauliOperator.string(n, chain), +1.0))
    return ground_state(H, sector=sector)


# -- reference probe states ------------------------------------------

def ghz_state(L: int) -> PureState:
    """(|0..0> + |1..1>)/sqrt(2)."""
    POLICY.cap("qubits", L, "sparse_cap")  # before 2^L amplitudes
    amp = np.zeros(1 << L, dtype=np.complex128)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(L, amp)


def spin_coherent_state(L: int) -> PureState:
    """|+>^L, the separable equal superposition."""
    POLICY.cap("qubits", L, "sparse_cap")  # before 2^L amplitudes
    amp = np.full(1 << L, (1 << L) ** -0.5, dtype=np.complex128)
    return PureState(L, amp)


def oat_squeezed_state(L: int, twist_time: float) -> PureState:
    """One-axis-twisted state exp(-i t (sum Z / 2)^2)|+>^L."""
    if twist_time < 0.0:
        raise ValueError("twist_time must be >= 0")
    POLICY.cap("qubits", L, "sparse_cap")  # before 2^L amplitudes
    popcount = np.bitwise_count(np.arange(1 << L)).astype(np.int64)
    m = (L - 2 * popcount) / 2.0
    amp = np.exp(-1j * twist_time * m**2) * spin_coherent_state(L).amplitudes
    return PureState(L, amp)


def oat_optimal_generator(state: PureState) -> tuple[PauliOperator, float]:
    """Best collective y-z plane imprint generator for a twisted probe.

    The twist commutes with sum Z, so the metrological gain lives in the
    anti-squeezed transverse quadrature: maximize 4 Var(cos a sum Z +
    sin a sum Y) through the 2x2 collective covariance matrix.
    """
    L = state.n_qubits
    sz = collective_spin(L, "Z", half=False)
    sy = collective_spin(L, "Y", half=False)
    vz = variance(state, sz)
    vy = variance(state, sy)
    zvec = sz @ state.amplitudes
    yvec = sy @ state.amplitudes
    cross = float(np.real(np.vdot(zvec, yvec)))
    cov = cross - float(
        np.real(expectation(state, sz)) * np.real(expectation(state, sy))
    )
    mat = np.array([[vz, cov], [cov, vy]])
    w, v = np.linalg.eigh(mat)
    a = v[:, -1]
    gen = float(a[0]) * sz + float(a[1]) * sy
    return gen, 4.0 * float(w[-1])


def optimal_oat_twist(L: int, n_grid: int = 200) -> tuple[float, float, PauliOperator]:
    """Grid-scan the twist time maximizing the transverse-quadrature QFI.

    Returns (t*, qfi*, generator*).  The naive sum-Z generator is twist
    invariant (its QFI stays 4L for every twist time), so the scan targets
    the optimal in-plane quadrature instead.
    """
    best_t, best_f, best_gen = 0.0, -1.0, None
    for t in np.linspace(0.0, math.pi / 2.0, n_grid):
        state = oat_squeezed_state(L, float(t))
        gen, f = oat_optimal_generator(state)
        if f > best_f:
            best_t, best_f, best_gen = float(t), f, gen
    return best_t, best_f, best_gen


def luttinger_K(delta_xxz: float) -> float:
    """Luttinger parameter of the critical XXZ chain, K = pi/(2(pi - arccos delta))."""
    if delta_xxz == -1.0:
        return math.inf
    if not (-1.0 < delta_xxz <= 1.0):
        raise ValueError("delta outside the critical range (-1, 1]")
    return math.pi / (2.0 * (math.pi - math.acos(delta_xxz)))


class NoCrossingError(RuntimeError):
    """No susceptibility crossing inside the scanned detuning window."""


@dataclass(frozen=True)
class RydbergCrossing:
    detuning: float
    bracket_width: float
    pair_crossings: tuple[float, ...]


def _rydberg_susceptibility(spec: ModelSpec) -> float:
    from .metrology import qfi_pure

    order = staggered_z(spec.L)
    translation = build_symmetry("translation", spec.L)
    sol = ground_state(build_hamiltonian(spec), sector=[("translation_re", translation, +1.0)])
    return qfi_pure(sol.state, order) / (4.0 * spec.L ** 1.75)


def rydberg_blockade_basis(L: int, boundary: str = "periodic") -> np.ndarray:
    """Basis indices with no two adjacent occupied sites (hard-blockade space)."""
    idx = np.arange(1 << L, dtype=np.int64)
    ok = np.ones(idx.size, dtype=bool)
    last = L if boundary == "periodic" else L - 1
    for j in range(last):
        k = (j + 1) % L
        bj = (idx >> (L - 1 - j)) & 1
        bk = (idx >> (L - 1 - k)) & 1
        ok &= ~((bj & bk).astype(bool))
    return idx[ok]


def solve_rydberg_blockaded(spec: ModelSpec) -> GroundSolution:
    """Ground state in the hard-blockade subspace (adjacent pairs excluded).

    ``ground_state`` restricted to ``rydberg_blockade_basis``: the drive then
    only connects blockade-respecting configurations, and the state comes
    back embedded in the full register so downstream operators apply
    unchanged.  This is the optional alternative to the default finite-V1
    treatment on the full space.
    """
    if spec.kind != "rydberg":
        raise ValueError("blockade solve applies to the rydberg kind")
    basis = rydberg_blockade_basis(spec.L, spec.boundary)
    sol = ground_state(build_hamiltonian(spec), basis=basis)
    sol.sector_labels["blockade_dim"] = float(basis.size)
    return sol


def rydberg_order_response(
    omega: float, v1: float, v2: float, L: int, detuning: float, step: float = 0.1
) -> float:
    """Detuning derivative of the staggered order magnitude sqrt(Var(O))/L.

    This response peaks at the finite-size pseudo-critical detuning (the
    scaled variance itself is monotone through the transition, saturating in
    the ordered phase).
    """
    def mag(d: float) -> float:
        spec = ModelSpec(kind="rydberg", L=L, omega=omega, detuning=d, v1=v1, v2=v2)
        chi = _rydberg_susceptibility(spec)
        return math.sqrt(chi * L**1.75) / L

    return (mag(detuning + step) - mag(detuning - step)) / (2.0 * step)


def locate_rydberg_critical_detuning(
    omega: float,
    v1: float,
    v2: float,
    L_list: list[int],
    window: tuple[float, float] | None = None,
    coarse_points: int = 13,
) -> RydbergCrossing:
    """Finite-size crossing of the scaled order-parameter susceptibility.

    For each pair of consecutive sizes, brackets the sign change of
    chi_{L2} - chi_{L1} on a coarse detuning grid and bisects it down to a
    bracket width of 1e-2 * omega.  Susceptibilities use the standard
    Var(O)/L^{7/4} finite-size scaling of the staggered-occupation order
    parameter.
    """
    if len(L_list) < 2:
        raise ValueError("need at least two sizes to locate a crossing")
    lo, hi = window if window is not None else (0.25 * omega, 3.5 * omega)

    # consecutive pairs share a size and the same coarse grid: solve each
    # (L, detuning) point once per call
    solved: dict[tuple[int, float], float] = {}

    def chi(L: int, detuning: float) -> float:
        if (L, detuning) not in solved:
            spec = ModelSpec(
                kind="rydberg", L=L, omega=omega, detuning=detuning, v1=v1, v2=v2
            )
            solved[L, detuning] = _rydberg_susceptibility(spec)
        return solved[L, detuning]

    crossings = []
    width = 0.0
    for L1, L2 in zip(L_list, L_list[1:]):
        grid = np.linspace(lo, hi, coarse_points)
        g = [chi(L2, d) - chi(L1, d) for d in grid]
        bracket = None
        for a, b, ga, gb in zip(grid, grid[1:], g, g[1:]):
            if ga == 0.0:
                bracket = (a, a, ga)
                break
            if ga * gb < 0.0:
                bracket = (a, b, ga)
                break
        if bracket is None:
            raise NoCrossingError(
                f"no susceptibility crossing for sizes {L1},{L2} in [{lo}, {hi}]"
            )
        a, b, ga = bracket
        while b - a > 1e-2 * omega:
            mid = 0.5 * (a + b)
            gm = chi(L2, mid) - chi(L1, mid)
            if ga * gm <= 0.0:
                b = mid
            else:
                a, ga = mid, gm
        crossings.append(0.5 * (a + b))
        width = max(width, b - a)
    return RydbergCrossing(
        detuning=float(np.mean(crossings)),
        bracket_width=width,
        pair_crossings=tuple(crossings),
    )
