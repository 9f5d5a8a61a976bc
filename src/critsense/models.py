"""Spin-chain Hamiltonians, ground-state solvers, and reference probe states.

Supported models: transverse-field Ising chain, XXZ chain, Rydberg-blockade
chain (hard-core bosons), and the symmetric cluster ladder.  Ladder qubits are
laid out interleaved: rung j (1-based), chain y in {1, 2} -> qubit
2(j-1) + (y-1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .policy import POLICY, CapacityError, NumericPolicy
from .qcore import PauliOperator, PureState, dephase_normalize, linear_expectation

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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "L": self.L, "J": self.J, "h": self.h,
            "delta": self.delta, "omega": self.omega, "detuning": self.detuning,
            "v1": self.v1, "v2": self.v2, "boundary": self.boundary,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelSpec":
        return cls(**payload)


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
            terms.append((-spec.J, _word(n, {j: "Z", k: "Z"})))
        for j in range(L):
            terms.append((-spec.h, _word(n, {j: "X"})))
    elif spec.kind == "xxz":
        for j, k in bonds():
            terms.append((1.0, _word(n, {j: "X", k: "X"})))
            terms.append((1.0, _word(n, {j: "Y", k: "Y"})))
            terms.append((spec.delta, _word(n, {j: "Z", k: "Z"})))
    elif spec.kind == "rydberg":
        # n_j = (I - Z_j)/2, b_j + b_j^dag = X_j
        for j in range(L):
            terms.append((0.5 * spec.omega, _word(n, {j: "X"})))
            terms.append((-0.5 * spec.detuning, _word(n, {})))
            terms.append((0.5 * spec.detuning, _word(n, {j: "Z"})))
        for v, step in ((spec.v1, 1), (spec.v2, 2)):
            if v == 0.0:
                continue
            last = L if spec.boundary == "periodic" else L - step
            for j in range(last):
                k = (j + step) % L
                terms.append((0.25 * v, _word(n, {})))
                terms.append((-0.25 * v, _word(n, {j: "Z"})))
                terms.append((-0.25 * v, _word(n, {k: "Z"})))
                terms.append((0.25 * v, _word(n, {j: "Z", k: "Z"})))
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
                terms.append((-1.0, _word(n, tri)))

    if extra_terms:
        terms.extend(extra_terms)
    op = PauliOperator(n, terms)
    if not op.is_hermitian:
        raise ValueError("assembled Hamiltonian is not Hermitian")
    return op


def _word(n: int, sites: dict[int, str]) -> str:
    word = ["I"] * n
    for site, letter in sites.items():
        word[site] = letter
    return "".join(word)


def _deterministic_start(dim: int) -> np.ndarray:
    # fixed, full-support start vector keeps Lanczos output reproducible
    v0 = np.ones(dim) + 1e-3 * np.cos(np.arange(dim))
    return v0 / np.linalg.norm(v0)


class EigensolverError(RuntimeError):
    pass


def ground_state(
    H: PauliOperator,
    sector: list[tuple[object, float]] | tuple[object, float] | None = None,
    k: int = 8,
    policy: NumericPolicy = POLICY,
) -> GroundSolution:
    """Lowest-energy state of a Hermitian Pauli sum.

    ``sector`` lists (symmetry operator, wanted eigenvalue) pairs; when the
    ground level is near-degenerate (splitting below the degeneracy
    tolerance), the returned state is resolved inside the multiplet to the
    requested symmetry eigenvalues.  Dense diagonalization below 2^10, Lanczos
    above.
    """
    if not H.is_hermitian:
        raise ValueError("ground_state requires a Hermitian Hamiltonian")
    n = H.n_qubits
    dim = 1 << n
    if dim <= 1024:
        mat = H.to_sparse().toarray()
        mat = mat.real if np.max(np.abs(mat.imag)) < 1e-14 else mat
        evals, evecs = np.linalg.eigh(mat)
    else:
        if n > policy.sparse_cap:
            raise ValueError(f"{n} qubits exceeds sparse cap {policy.sparse_cap}")
        kk = min(k, dim - 2)
        try:
            evals, evecs = spla.eigsh(
                H.to_sparse(), k=kk, which="SA", v0=_deterministic_start(dim)
            )
        except spla.ArpackNoConvergence as exc:  # pragma: no cover
            raise EigensolverError(f"Lanczos failed to converge: {exc}") from exc
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]

    e0 = float(evals[0])
    multiplet = np.where(evals - e0 < policy.degeneracy_tol)[0]
    gap_idx = multiplet[-1] + 1
    gap = float(evals[gap_idx] - e0) if gap_idx < len(evals) else float("nan")

    basis = evecs[:, multiplet].astype(np.complex128)
    labels: dict = {}
    if sector is not None and basis.shape[1] > 1:
        pairs = [sector] if isinstance(sector, tuple) else list(sector)
        for op, want in pairs:
            if basis.shape[1] == 1:
                break
            block = _operator_block(op, basis)
            w, u = np.linalg.eigh(0.5 * (block + block.conj().T))
            pick = np.where(np.abs(w - want) < 1e-6)[0]
            if pick.size == 0:
                pick = np.array([int(np.argmin(np.abs(w - want)))])
            basis = basis @ u[:, pick]
    vec = basis[:, 0]
    state = dephase_normalize(vec, n)

    resid = np.linalg.norm(H.apply_vec(state.amplitudes) - e0 * state.amplitudes)
    if resid > policy.residual_tol * max(1.0, abs(e0)):
        raise EigensolverError(f"ground-state residual {resid:.3e} too large")
    if sector is not None:
        pairs = [sector] if isinstance(sector, tuple) else list(sector)
        for i, (op, want) in enumerate(pairs):
            key = getattr(op, "kind", None) or f"sector_{i}"
            labels[key] = float(np.real(linear_expectation(op, state)))
    gap = max(gap, 0.0) if not math.isnan(gap) else gap
    if len(multiplet) > 1:
        gap = float(evals[multiplet[1]] - e0)  # splitting inside the multiplet
    return GroundSolution(energy=e0, state=state, gap=gap, sector_labels=labels)


def _operator_block(op, basis: np.ndarray) -> np.ndarray:
    cols = []
    for i in range(basis.shape[1]):
        if isinstance(op, PauliOperator) or hasattr(op, "apply_vec"):
            cols.append(op.apply_vec(basis[:, i]))
        else:
            cols.append(np.asarray(op) @ basis[:, i])
    act = np.stack(cols, axis=1)
    return basis.conj().T @ act


def parity_x_operator(n: int) -> PauliOperator:
    return PauliOperator(n, [(1.0, "X" * n)])


def solve_model(spec: ModelSpec, sector: str | None = "auto") -> GroundSolution:
    """Build and solve a model, resolving near-degeneracies in its natural sector.

    For the Ising chain the default sector is the +1 eigenstate of the
    product-of-X parity.  For the cluster ladder, both chain parities are
    fixed to +1.  ``sector=None`` skips resolution.
    """
    H = build_hamiltonian(spec)
    n = spec.n_qubits
    sector_ops: list[tuple[object, float]] | None = None
    if sector == "auto":
        if spec.kind == "tfim":
            sector_ops = [(parity_x_operator(n), +1.0)]
        elif spec.kind == "cluster_ladder":
            chain1 = {ladder_site(j, 1, spec.L): "X" for j in range(1, spec.L + 1)}
            chain2 = {ladder_site(j, 2, spec.L): "X" for j in range(1, spec.L + 1)}
            sector_ops = [
                (PauliOperator.string(n, chain1), +1.0),
                (PauliOperator.string(n, chain2), +1.0),
            ]
    sol = ground_state(H, sector=sector_ops)
    if spec.kind == "tfim":
        par = parity_x_operator(n)
        sol.sector_labels["parity_x"] = float(
            np.real(linear_expectation(par, sol.state))
        )
        if spec.boundary == "periodic":
            # momentum phase is recorded empirically, never asserted
            sol.sector_labels["translation_re"] = float(
                np.real(linear_expectation(_translation_perm(n), sol.state))
            )
    return sol


# -- reference probe states ------------------------------------------

def _check_probe_size(L: int) -> None:
    # refuse before allocating 2^L amplitudes
    if L > POLICY.sparse_cap:
        raise CapacityError(f"{L} qubits exceeds sparse cap {POLICY.sparse_cap}")


def ghz_state(L: int) -> PureState:
    """(|0..0> + |1..1>)/sqrt(2)."""
    _check_probe_size(L)
    amp = np.zeros(1 << L, dtype=np.complex128)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(L, amp)


def spin_coherent_state(L: int) -> PureState:
    """|+>^L, the separable equal superposition."""
    _check_probe_size(L)
    amp = np.full(1 << L, (1 << L) ** -0.5, dtype=np.complex128)
    return PureState(L, amp)


def oat_squeezed_state(L: int, twist_time: float) -> PureState:
    """One-axis-twisted state exp(-i t (sum Z / 2)^2)|+>^L."""
    if twist_time < 0.0:
        raise ValueError("twist_time must be >= 0")
    idx = np.arange(1 << L)
    popcount = np.array([bin(b).count("1") for b in idx])
    m = (L - 2 * popcount) / 2.0
    amp = np.exp(-1j * twist_time * m**2) * spin_coherent_state(L).amplitudes
    return PureState(L, amp)


def oat_optimal_generator(state: PureState) -> tuple[PauliOperator, float]:
    """Best collective y-z plane imprint generator for a twisted probe.

    The twist commutes with sum Z, so the metrological gain lives in the
    anti-squeezed transverse quadrature: maximize 4 Var(cos a sum Z +
    sin a sum Y) through the 2x2 collective covariance matrix.
    """
    from .qcore import expectation, variance

    L = state.n_qubits
    sz = PauliOperator(L, [(1.0, _word(L, {j: "Z"})) for j in range(L)])
    sy = PauliOperator(L, [(1.0, _word(L, {j: "Y"})) for j in range(L)])
    vz = variance(state, sz)
    vy = variance(state, sy)
    zvec = sz.apply_vec(state.amplitudes)
    yvec = sy.apply_vec(state.amplitudes)
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


def _staggered_z(L: int) -> PauliOperator:
    return PauliOperator(
        L, [((-1.0) ** j, _word(L, {j: "Z"})) for j in range(L)]
    )


def _rydberg_susceptibility(spec: ModelSpec) -> float:
    from .metrology import qfi_pure

    order = _staggered_z(spec.L)
    sol = ground_state(build_hamiltonian(spec), sector=(_translation_perm(spec.L), +1.0))
    return qfi_pure(sol.state, order) / (4.0 * spec.L ** 1.75)


class _PermOp:
    """Minimal permutation operator wrapper for sector resolution."""

    def __init__(self, perm: np.ndarray, kind: str):
        self.perm = perm
        self.kind = kind

    def apply_vec(self, vec: np.ndarray) -> np.ndarray:
        out = np.empty_like(vec)
        out[self.perm] = vec
        return out


def _translation_perm(L: int) -> _PermOp:
    idx = np.arange(1 << L, dtype=np.int64)
    new = (idx >> 1) | ((idx & 1) << (L - 1))
    return _PermOp(new, "translation")


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

    The Hamiltonian is restricted to the constrained basis (the drive then
    only connects blockade-respecting configurations); the returned state is
    embedded back into the full register so downstream operators apply
    unchanged.  This is the optional alternative to the default finite-V1
    treatment on the full space.
    """
    if spec.kind != "rydberg":
        raise ValueError("blockade solve applies to the rydberg kind")
    basis = rydberg_blockade_basis(spec.L, spec.boundary)
    H = build_hamiltonian(spec).to_sparse()[np.ix_(basis, basis)]
    dim = basis.size
    if dim <= 512:
        evals, evecs = np.linalg.eigh(H.toarray())
    else:
        evals, evecs = spla.eigsh(H.tocsc(), k=min(6, dim - 2), which="SA",
                                  v0=_deterministic_start(dim))
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
    full = np.zeros(1 << spec.L, dtype=np.complex128)
    full[basis] = evecs[:, 0]
    gap = float(evals[1] - evals[0]) if evals.size > 1 else float("nan")
    return GroundSolution(
        energy=float(evals[0]),
        state=dephase_normalize(full, spec.L),
        gap=max(gap, 0.0),
        sector_labels={"blockade_dim": float(dim)},
    )


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

    def chi(L: int, detuning: float) -> float:
        spec = ModelSpec(
            kind="rydberg", L=L, omega=omega, detuning=detuning, v1=v1, v2=v2
        )
        return _rydberg_susceptibility(spec)

    crossings = []
    width = 0.0
    for L1, L2 in zip(L_list, L_list[1:]):
        grid = np.linspace(lo, hi, coarse_points)
        g = [chi(L2, d) - chi(L1, d) for d in grid]
        bracket = None
        for a, b, ga, gb in zip(grid, grid[1:], g, g[1:]):
            if ga == 0.0:
                bracket = (a, a)
                break
            if ga * gb < 0.0:
                bracket = (a, b)
                break
        if bracket is None:
            raise NoCrossingError(
                f"no susceptibility crossing for sizes {L1},{L2} in [{lo}, {hi}]"
            )
        a, b = bracket
        ga = chi(L2, a) - chi(L1, a)
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
