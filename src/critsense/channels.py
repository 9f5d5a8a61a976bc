"""Decoherence channels and their exact noisy-precision formulas.

Per-site channels act as rho -> prod_j [(1-p) rho + p P_j rho P_j] with
P in {X_j, Z_j, Z_j Z_{j+1}}; the global dephasing channel averages a
collective Z rotation over a Gaussian phase.  Channels are applied before the
phase imprint by default (an explicit flag covers the reversed order, which
leaves every formula here unchanged for the symmetric channels).

Every kind is applied through the XOR structure of the basis, in a fixed
number of passes over the matrix whatever the register size.  A bit flip
maps rho[a, b] to sum_f w(f) rho[a ^ f, b ^ f]; on the reindexed matrix
M[a, d] = rho[a, a ^ d] it acts on the row index alone, as the Kronecker
product K = kron_j [[1-p, p], [p, 1-p]] (I_2 on sites outside the mask),
so it is an XOR gather, one GEMM with the Kronecker factor of the high n//2
sites, one batched GEMM with that of the others, and the gather again.  The
Z-type per-site kinds multiply rho[a, b] by a table over a ^ b, and global
dephasing by a (2n + 1)-entry table over the difference of the sum-Z
eigenvalues of a and b.

Each kind writes into its one dim x dim output and otherwise holds only
scratch of one row tile or column panel: the GEMMs run in place panel by
panel, and a gather row tile by row tile, since each row of M reads only the
same row of rho.  The first pass reads rho from a matrix or, for a pure
state, from psi itself, so |psi><psi| is never built.

The closed-form delta-theta expressions below are exact in the collective-spin
convention, i.e. with imprint generator S_z = (1/2) sum_j Z_j; cross-checks
against exact diagonalization must use that generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .policy import POLICY, CapacityError
from .qcore import (
    MixedState,
    PauliOperator,
    PureState,
    collective_spin,
    evolve_phase,
    projector_amplitudes,
)

KINDS = ("bitflip_x", "dephase_z", "zz", "global_dephase")


@dataclass(frozen=True)
class ChannelSpec:
    """One completely positive trace-preserving map.

    Per-site kinds use the flip probability ``p``; the global kind is
    parameterized by the accumulated noise kernel ``chi`` (and the evolution
    time ``t`` it was derived from, kept for bookkeeping).  Each kind
    refuses the other's field (ValueError naming it): it would act on
    nothing, yet reach the CSV.  ``site_mask`` restricts per-site kinds to a
    subset of sites (bond start sites for zz).
    """

    kind: str
    p: float | None = None
    chi: float | None = None
    t: float | None = None
    site_mask: tuple[int, ...] | None = None
    after_imprint: bool = False  # compose the channel after the phase imprint

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        for name, value in (("p", self.p), ("chi", self.chi), ("t", self.t)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.kind == "global_dephase":
            if self.chi is None or self.chi < 0.0:
                raise ValueError("global dephasing needs chi >= 0")
            if self.p is not None:
                raise ValueError("p acts on no global dephasing; leave it unset")
        else:
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("per-site channels need p in [0, 1]")
            if self.chi is not None:
                raise ValueError(f"chi acts on no {self.kind} channel; leave it unset")
        mask = self.site_mask or ()
        repeated = sorted({j for j in mask if mask.count(j) > 1})
        if repeated:  # a repeat would apply the channel to that site again
            raise ValueError(f"site_mask may name each site once; repeated: {repeated}")


@dataclass(frozen=True)
class NoiseKernel:
    """Stationary noise correlation C(t) and its accumulated kernel chi(t)."""

    correlation: Callable[[float], float]

    def chi(self, t: float) -> float:
        """chi(t) = int_0^t (t - tau) C(tau) d tau by adaptive quadrature."""
        if t < 0.0:
            raise ValueError("t must be >= 0")
        if t == 0.0:
            return 0.0
        from scipy.integrate import quad  # loaded on first use: it pulls in scipy.optimize

        val, _ = quad(lambda tau: (t - tau) * self.correlation(tau), 0.0, t)
        return val


def _sites(spec: ChannelSpec, L: int) -> Sequence[int]:
    return spec.site_mask if spec.site_mask is not None else range(L)


def _check_mask(spec: ChannelSpec, n_qubits: int) -> None:
    """ValueError naming the first ``site_mask`` site outside the register."""
    for j in spec.site_mask or ():
        if not 0 <= j < n_qubits:
            raise ValueError(f"site_mask site {j} is outside the {n_qubits}-qubit register")


# entries of one row tile, rows * 2^n: the index tables below hold one tile,
# so they stay 256 KiB however large the register
_TILE_ENTRIES = 1 << 15


def _tile_rows(dim: int) -> int:
    return min(dim, max(1, _TILE_ENTRIES // dim))


def _xor_tiles(dim: int, flat: bool):
    """Row tiles of a dim x dim matrix and the XOR table of each.

    Yields ``(rows, table)`` with ``table[i, b] = a ^ b`` for the tile's
    row a = rows.start + i; with ``flat``, ``table[i, b] = i * dim + (a ^ b)``,
    the flat index of entry (i, a ^ b) of the tile.  A tile holds a power of
    two rows and starts at a multiple of it, so a = start | i and each table
    is one XOR of the first tile's table with ``start``.  The table buffer
    is reused from tile to tile.
    """
    n_rows = _tile_rows(dim)
    i = np.arange(n_rows)[:, None]
    base = i ^ np.arange(dim)
    if flat:
        base += i * dim  # above every bit of a ^ b < dim, so the XOR below leaves it
    table = np.empty_like(base)
    for start in range(0, dim, n_rows):
        np.bitwise_xor(base, start, out=table)
        yield slice(start, start + n_rows), table


def _row_reader(source: np.ndarray):
    """``rows_of(rows, out)``: rho[rows] of the matrix rho a channel reads.

    ``source`` is rho itself (dim x dim), whose rows come back as views, or
    psi (dim,) for rho = |psi><psi|, which is never built: ``out`` is filled
    with psi_a conj(psi_b), np.outer's products in its operand order, so a
    channel of psi is bit for bit that of ``MixedState.from_pure``.
    """
    if source.ndim == 2:
        return lambda rows, out: source[rows]
    conj = source.conj()
    return lambda rows, out: np.multiply(source[rows, None], conj, out=out)


def _load_reindexed(source: np.ndarray, out: np.ndarray) -> None:
    """out[a, d] = rho[a, a ^ d] for the rho of ``source`` (``_row_reader``),
    one row tile at a time: a gather of the matrix's row tile, or
    psi_a conj(psi)[a ^ d]."""
    dim = out.shape[0]
    if source.ndim == 2:
        for rows, table in _xor_tiles(dim, flat=True):
            np.take(source[rows].reshape(-1), table, out=out[rows], mode="clip")  # "raise" buffers
        return
    conj = source.conj()
    for rows, table in _xor_tiles(dim, flat=False):
        np.take(conj, table, out=out[rows], mode="clip")
        np.multiply(source[rows, None], out[rows], out=out[rows])


def _gemm_in_place(k: np.ndarray, mats: np.ndarray) -> None:
    """mat = k @ mat for each mat of the stack ``mats``, over column panels of
    ``_TILE_ENTRIES`` entries (or the whole mat), each copied to one scratch
    first; the sizes are powers of two, so the panels tile mat exactly."""
    rows, cols = mats.shape[-2:]
    width = min(cols, _TILE_ENTRIES // rows)
    scratch = np.empty((rows, width))
    for mat in mats:
        for start in range(0, cols, width):
            panel = mat[:, start:start + width]
            np.copyto(scratch, panel)
            np.matmul(k, scratch, out=panel)


def _bitflip(source: np.ndarray, spec: ChannelSpec, out: np.ndarray) -> None:
    # K = kron_j [[1-p, p], [p, 1-p]] (I_2 off the mask) on the row index of
    # M[a, d] = rho[a, a ^ d], as its factors on the high n//2 sites and the rest
    dim = out.shape[0]
    n_qubits = dim.bit_length() - 1
    sites = set(_sites(spec, n_qubits))
    flip = np.array([[1.0 - spec.p, spec.p], [spec.p, 1.0 - spec.p]])
    factors = [flip if j in sites else np.eye(2) for j in range(n_qubits)]
    high = n_qubits // 2
    k_high = reduce(np.kron, factors[:high], np.ones((1, 1)))
    k_low = reduce(np.kron, factors[high:])
    _load_reindexed(source, out)
    # K is real and contracts the row index, never the last axis, so a complex
    # matrix goes through as its float64 view
    floats = out.view(np.float64).reshape(k_high.shape[0], k_low.shape[0], -1)
    _gemm_in_place(k_high, floats.reshape(1, k_high.shape[0], -1))
    _gemm_in_place(k_low, floats)
    # M[a, d] back to rho[a, a ^ d]: each row reads only itself, so a copy of
    # the row tile is all the gather needs
    tile = np.empty_like(out[:_tile_rows(dim)])
    for rows, table in _xor_tiles(dim, flat=True):
        np.copyto(tile, out[rows])
        np.take(tile.reshape(-1), table, out=out[rows], mode="clip")


def _xor_factors(spec: ChannelSpec, n_qubits: int) -> np.ndarray:
    """g(d) with rho'[a, b] = g(a ^ b) rho[a, b] for the Z-type per-site kinds.

    A site (``dephase_z``) or bond (``zz``) whose sign differs between row
    and column scales the entry by c = (1 - p) - p, any other by
    (1 - p) + p = 1: g(d) = c^k with k the popcount of d over the masked
    sites, or of d ^ rot(d), the bond parities, over the masked bond starts.
    c^k is a running product, the same floats as the per-site factors
    multiplied together in site order.
    """
    dim = 1 << n_qubits
    d = np.arange(dim)
    if spec.kind == "zz":  # bit of site j + 1 moved onto site j's, site 0 onto site n - 1's
        d ^= ((d << 1) | (d >> (n_qubits - 1))) & (dim - 1)
    mask = sum(1 << (n_qubits - 1 - j) for j in _sites(spec, n_qubits))
    c = (1.0 - spec.p) - spec.p
    powers = np.ones(n_qubits + 1)
    for k in range(1, n_qubits + 1):
        powers[k] = powers[k - 1] * c
    return powers[np.bitwise_count(d & mask)]


def _global_dephase_factors(spec: ChannelSpec, n_qubits: int) -> np.ndarray:
    """Gaussian average of exp(-i phi (m_a - m_b)), one entry per u_b - u_a + n.

    m = n - 2u is the sum-Z eigenvalue of a basis state with u flipped
    sites, so m_a - m_b = 2 (u_b - u_a) takes 2n + 1 values; the phase
    phi ~ N(0, chi/2) is averaged on 41 Gauss-Hermite nodes.
    """
    nodes, weights = hermgauss(41)
    phis = nodes * math.sqrt(spec.chi)  # sqrt(2 sigma^2) with sigma^2 = chi/2
    delta = 2.0 * np.arange(-n_qubits, n_qubits + 1)
    return weights @ np.exp(-1j * np.outer(phis, delta)) / math.sqrt(math.pi)


def apply_channel_matrix(mat: np.ndarray, spec: ChannelSpec, n_qubits: int) -> np.ndarray:
    """Channel action on an arbitrary matrix (state or observable).

    Every kind makes a fixed number of passes over the matrix, whatever n
    (the module docstring has the identities), and writes into one new
    matrix, beside scratch of one row tile or column panel: the bit flip an
    XOR gather into it, one GEMM with K's factor on the high n//2 sites and
    one batched GEMM with its factor on the rest, both in place over column
    panels, and the gather back, in place row tile by row tile; the Z-type
    per-site kinds and global dephasing one multiply by a factor table, one
    row tile at a time.  The input is not modified.  The per-site kinds keep
    a real matrix real; the global kind's phase kernel is complex, so it
    returns complex128.  A ``site_mask`` site outside the register raises
    ValueError before anything is allocated.
    """
    POLICY.cap("qubits", n_qubits, "dense_cap")
    _check_mask(spec, n_qubits)
    dim = 1 << n_qubits
    if mat.shape != (dim, dim):
        raise ValueError("matrix does not match register size")
    mat = np.ascontiguousarray(mat, dtype=np.complex128 if np.iscomplexobj(mat) else np.float64)
    return _channel(mat, spec, n_qubits)


def _channel(source: np.ndarray, spec: ChannelSpec, n_qubits: int) -> np.ndarray:
    """The channel of the rho that ``_row_reader`` reads from ``source``, in
    one new matrix."""
    dim = 1 << n_qubits
    dtype = np.complex128 if spec.kind == "global_dephase" else source.dtype
    out = np.empty((dim, dim), dtype=dtype)
    if spec.kind == "bitflip_x":
        _bitflip(source, spec, out)
        return out
    rows_of = _row_reader(source)
    if spec.kind == "global_dephase":
        kernel = _global_dephase_factors(spec, n_qubits)
        flipped = np.bitwise_count(np.arange(dim)).astype(np.intp)  # u: the sites at Z = -1
        n_rows = _tile_rows(dim)
        for start in range(0, dim, n_rows):
            rows = slice(start, start + n_rows)
            at = np.subtract(flipped, flipped[rows, None]) + n_qubits
            np.multiply(rows_of(rows, out[rows]), kernel.take(at), out=out[rows])
    else:
        factors = _xor_factors(spec, n_qubits)
        for rows, table in _xor_tiles(dim, flat=False):
            np.multiply(rows_of(rows, out[rows]), factors.take(table), out=out[rows])
    return out


def apply_channel(state: MixedState | PureState, spec: ChannelSpec) -> MixedState:
    """CPTP action on a density matrix; trace and Hermiticity are preserved.

    A ``PureState`` stands for |psi><psi|, which is never built: the
    channel's first pass reads its rows from psi.  ``MixedState.from_pure``'s
    rules hold (``CapacityError`` above ``dense_cap`` before anything is
    allocated, a real matrix for real amplitudes), and the result is bit for
    bit the channel of ``from_pure``'s matrix.  A ``site_mask`` site outside
    the register raises ValueError before anything is allocated.
    """
    _check_mask(spec, state.n_qubits)
    if isinstance(state, PureState):
        out = _channel(projector_amplitudes(state), spec, state.n_qubits)
    else:
        out = apply_channel_matrix(state.matrix, spec, state.n_qubits)
    return MixedState(state.n_qubits, out)


def noisy_imprinted_state(
    probe: PureState, spec: ChannelSpec, gen: PauliOperator, theta: float
) -> MixedState:
    """Channel and phase imprint composed in the order the spec selects.

    The default order is channel first, imprint second; ``after_imprint``
    reverses it.  For channels whose Kraus operators commute with the
    generator (the Z-diagonal kinds with a Z-sum imprint) both orders give
    identical states.
    """
    if spec.after_imprint:
        return apply_channel(evolve_phase(probe, gen, theta), spec)
    return evolve_phase(apply_channel(probe, spec), gen, theta)


def kraus_family(spec: ChannelSpec) -> list[np.ndarray]:
    """Single-site (or single-bond) Kraus operators of a per-site kind."""
    if spec.kind == "global_dephase":
        raise ValueError("the global kind has no finite per-site Kraus family")
    p = spec.p
    eye = np.eye(2, dtype=np.complex128)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    if spec.kind == "bitflip_x":
        return [math.sqrt(1 - p) * eye, math.sqrt(p) * x]
    if spec.kind == "dephase_z":
        return [math.sqrt(1 - p) * eye, math.sqrt(p) * z]
    zz = np.kron(z, z)
    return [math.sqrt(1 - p) * np.eye(4, dtype=np.complex128), math.sqrt(p) * zz]


def in_plane_spin(L: int, theta: float) -> PauliOperator:
    """S_theta = cos(theta) S_x + sin(theta) S_y."""
    return math.cos(theta) * collective_spin(L, "X") + math.sin(theta) * collective_spin(L, "Y")


def conjugate_collective_action(
    spec: ChannelSpec, observable: str, L: int, theta: float = 0.0
) -> tuple[float, float]:
    """Closed-form conjugate-channel coefficients (a, b): E*[obs] = a obs + b I.

    Supported observables: ``s_theta`` (in-plane collective spin) and
    ``s_theta_sq`` (its square) under uniform single-site Z dephasing, where
    E*[S_theta] = (1-2p) S_theta and
    E*[S_theta^2] = (1-2p)^2 S_theta^2 + p(1-p) L.
    """
    if spec.kind != "dephase_z":
        raise ValueError("closed forms implemented for the dephasing kind")
    p = spec.p
    if observable == "s_theta":
        return (1.0 - 2.0 * p, 0.0)
    if observable == "s_theta_sq":
        a = (1.0 - 2.0 * p) ** 2
        return (a, p * (1.0 - p) * L)
    raise ValueError(f"unsupported observable {observable!r}")


def bitflip_qfi_formula(L: int, p: float, second_moment_pristine: float) -> float:
    """Exact QFI after uniform X flips: 4(1-2p)^2 <O^2> + 16 p(1-p) L.

    ``second_moment_pristine`` is <O^2> of O = sum Z in the pristine probe
    (whose <O> vanishes by parity).  At p = 1/2 this evaluates to 4L; note the
    collective-spin convention S_z = (1/2) sum Z would quote L instead (the
    two differ by the fixed factor 4 in generator normalization).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return 4.0 * (1.0 - 2.0 * p) ** 2 * second_moment_pristine + 16.0 * p * (1.0 - p) * L


def dephased_delta_theta_critical(L: int, p: float, c_y: float) -> float:
    """Small-theta precision of the in-plane spin readout under uniform dephasing.

    delta theta = (pi/sqrt(L)) sqrt(C_y + p(1-p)/(1-2p)^2), exact for the
    S_z = (1/2) sum Z imprint generator with the thermodynamic transverse
    magnetization; C_y = <S_y^2>/L is non-universal and fitted from data.
    """
    if not 0.0 <= p < 0.5:
        raise ValueError("formula diverges for p >= 1/2")
    if c_y <= 0.0:
        raise ValueError("C_y must be positive")
    return (math.pi / math.sqrt(L)) * math.sqrt(p * (1.0 - p) / (1.0 - 2.0 * p) ** 2 + c_y)


def ghz_dephased_delta_theta(L: int, p: float) -> float:
    """delta theta = e^{L |ln(1-2p)|}/L for the maximally entangled probe."""
    if not 0.0 <= p < 0.5:
        raise ValueError("formula diverges for p >= 1/2")
    return math.exp(L * abs(math.log(1.0 - 2.0 * p))) / L


def global_dephasing_sensitivity(L: int, t: float, chi: float, c_x: float, c_y: float) -> float:
    """Best field sensitivity under collective Gaussian dephasing.

    delta B = (pi/(t sqrt(L))) sqrt(e^{-2 chi} C_y
              + (e^{2 chi} - e^{-2 chi})(C_x + C_y)/2);
    at chi = 0 this reduces to the noiseless in-plane spin bound.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if chi < 0.0:
        raise ValueError("chi must be >= 0")
    bracket = math.exp(-2 * chi) * c_y + 0.5 * (math.exp(2 * chi) - math.exp(-2 * chi)) * (c_x + c_y)
    return (math.pi / (t * math.sqrt(L))) * math.sqrt(bracket)


@dataclass(frozen=True)
class InvarianceReport:
    qfi_before: float
    qfi_after: float

    @property
    def difference(self) -> float:
        return abs(self.qfi_after - self.qfi_before)


def zz_channel_invariance_check(
    rho_pristine: MixedState | PureState, gen: PauliOperator, p: float
) -> InvarianceReport:
    """QFI before/after the bond-ZZ channel must match, to
    ``POLICY.invariance_tol`` x max(1, QFI before), for a Z-sum generator."""
    from .metrology import qfi_mixed

    rho = (
        MixedState.from_pure(rho_pristine)
        if isinstance(rho_pristine, PureState)
        else rho_pristine
    )
    if not gen.is_diagonal:
        raise ValueError("invariance check expects a Z-diagonal generator")
    before = qfi_mixed(rho, gen).value
    after = qfi_mixed(apply_channel(rho, ChannelSpec(kind="zz", p=p)), gen).value
    report = InvarianceReport(qfi_before=before, qfi_after=after)
    POLICY.check(lambda: f"ZZ-channel changed the QFI: before={before!r} after={after!r}; "
                 "|after - before|", report.difference, "invariance_tol",
                 scale=max(1.0, abs(before)), scaled_by="max(1, |before|)",
                 error=AssertionError)
    return report


def choi_matrix(spec: ChannelSpec, n_qubits: int) -> np.ndarray:
    """Choi matrix of the full n-qubit channel (small registers only)."""
    dim = 1 << n_qubits
    if dim > 64:
        raise CapacityError("Choi construction limited to 6 qubits")
    choi = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for a in range(dim):
        for b in range(dim):
            e = np.zeros((dim, dim), dtype=np.complex128)
            e[a, b] = 1.0
            out = apply_channel_matrix(e, spec, n_qubits)
            choi[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] = out
    return choi
