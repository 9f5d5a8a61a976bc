"""Decoherence channels and their exact noisy-precision formulas.

Per-site channels act as rho -> prod_j [(1-p) rho + p P_j rho P_j] with
P in {X_j, Z_j, Z_j Z_{j+1}}; the global dephasing channel averages a
collective Z rotation over a Gaussian phase.  Channels are applied before the
phase imprint by default (an explicit flag covers the reversed order, which
leaves every formula here unchanged for the symmetric channels).

The closed-form delta-theta expressions below are exact in the collective-spin
convention, i.e. with imprint generator S_z = (1/2) sum_j Z_j; cross-checks
against exact diagonalization must use that generator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .policy import POLICY, CapacityError
from .qcore import (
    MixedState,
    PauliOperator,
    PureState,
    basis_index_bits,
    collective_spin,
    evolve_phase,
)

KINDS = ("bitflip_x", "dephase_z", "zz", "global_dephase")


@dataclass(frozen=True)
class ChannelSpec:
    """One completely positive trace-preserving map.

    Per-site kinds use the flip probability ``p``; the global kind is
    parameterized by the accumulated noise kernel ``chi`` (and the evolution
    time ``t`` it was derived from, kept for bookkeeping).  ``site_mask``
    restricts per-site kinds to a subset of sites (bond start sites for zz).
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
        if self.kind == "global_dephase":
            if self.chi is None or self.chi < 0.0:
                raise ValueError("global dephasing needs chi >= 0")
        else:
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("per-site channels need p in [0, 1]")
        mask = self.site_mask or ()
        repeated = sorted({j for j in mask if mask.count(j) > 1})
        if repeated:  # a repeat would apply the channel to that site again
            raise ValueError(f"site_mask may name each site once; repeated: {repeated}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "p": self.p, "chi": self.chi, "t": self.t,
            "site_mask": list(self.site_mask) if self.site_mask else None,
            "after_imprint": self.after_imprint,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChannelSpec":
        """Spec from a JSON object; a key that is not a field is refused."""
        if not isinstance(payload, dict):
            raise TypeError(f"must be an object, got {payload!r}")
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown key(s) {unknown}")
        mask = payload.get("site_mask")
        return cls(**{**payload, "site_mask": tuple(mask) if mask else None})


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


def apply_channel_matrix(mat: np.ndarray, spec: ChannelSpec, n_qubits: int) -> np.ndarray:
    """Channel action on an arbitrary matrix (state or observable).

    All four kinds commute entrywise with the basis structure: X flips are
    index permutations, Z-type kinds are sign masks, and the global kind is a
    Gauss-Hermite average over collective Z rotations.  The per-site kinds
    keep a real matrix real; the global kind's phase kernel is complex, so it
    returns complex128.
    """
    if n_qubits > POLICY.dense_cap:
        raise CapacityError(f"{n_qubits} qubits exceeds dense cap {POLICY.dense_cap}")
    dim = 1 << n_qubits
    if mat.shape != (dim, dim):
        raise ValueError("matrix does not match register size")
    out = np.array(mat, dtype=np.complex128 if np.iscomplexobj(mat) else np.float64, order="C")
    if spec.kind == "bitflip_x":
        # X_j rho X_j flips the row bit and the column bit of site j: axes j
        # and n + j of the (2,) * 2n view, site 0 being the most significant
        tens = out.reshape((2,) * (2 * n_qubits))
        flipped = np.empty_like(tens)
        for j in _sites(spec, n_qubits):
            np.multiply(np.flip(tens, axis=(j, n_qubits + j)), spec.p, out=flipped)
            tens *= 1.0 - spec.p
            tens += flipped
        return out
    bits = basis_index_bits(n_qubits)
    if spec.kind in ("dephase_z", "zz"):
        factor = np.ones((dim, dim))
        for j in _sites(spec, n_qubits):
            if spec.kind == "dephase_z":
                s = 1.0 - 2.0 * bits[j]
            else:
                k = (j + 1) % n_qubits
                s = (1.0 - 2.0 * bits[j]) * (1.0 - 2.0 * bits[k])
            factor *= (1.0 - spec.p) + spec.p * np.outer(s, s)
        return out * factor
    # global dephasing: average exp(-i phi sum Z) rho exp(+i phi sum Z) over
    # the Gaussian phase phi ~ N(0, chi/2), on 41 Gauss-Hermite nodes
    m = sum(1.0 - 2.0 * b for b in bits)  # sum-Z eigenvalues per basis state
    nodes, weights = hermgauss(41)
    phis = nodes * math.sqrt(spec.chi)  # sqrt(2 sigma^2) with sigma^2 = chi/2
    acc = np.zeros(out.shape, dtype=np.complex128)
    for phi, w in zip(phis, weights):
        kernel = np.exp(-1j * phi * (m[:, None] - m[None, :]))
        acc += w * (out * kernel)
    return acc / math.sqrt(math.pi)


def apply_channel(rho: MixedState, spec: ChannelSpec) -> MixedState:
    """CPTP action on a density matrix; trace and Hermiticity are preserved."""
    out = apply_channel_matrix(rho.matrix, spec, rho.n_qubits)
    return MixedState(rho.n_qubits, out)


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
        return apply_channel(MixedState.from_pure(evolve_phase(probe, gen, theta)), spec)
    return evolve_phase(apply_channel(MixedState.from_pure(probe), spec), gen, theta)


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
    """QFI before/after the bond-ZZ channel must match, to 1e-8 relative, for a
    Z-sum generator."""
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
    if report.difference > 1e-8 * max(1.0, abs(before)):
        raise AssertionError(
            f"ZZ-channel changed the QFI: before={before!r} after={after!r}"
        )
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
