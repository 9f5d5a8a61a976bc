"""Qubit loss: parity measurements restricted to an accessible subregion.

Only a contiguous block of L_sub sites can be addressed; the phase is
imprinted inside the block and read out through the block parity (Ising) or
the fermion-string parities i gamma_{0,a} gamma_{L_sub,b} (XXZ), whose
expectation behaves as a two-point function of dual disorder operators.  The
precision curve then has an interior optimum instead of the theta -> 0 one.

The subregion is placed centrally on a periodic chain by default; the offset
is configurable.  A readout that vanishes identically reads the +inf
sentinel at every angle (its derivative is rounding, under
``POLICY.signal_floor``), so its window report is degenerate.  Desk-scale
caveat: the asymptotic window exponents are not reachable by exact
diagonalization, so assertions here cover curve structure and monotone
trends while exponent fits are emitted as indicative data only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrology import PrecisionCurve, precision_curve
from .models import luttinger_K
from .policy import POLICY
from .qcore import (
    PauliOperator,
    PureState,
    apply_exponential,
    expectation,
    into_frame,
    pauli_word,
)


@dataclass(frozen=True)
class SubsystemProtocol:
    """Accessible-block sensing setup: imprinter and restricted measurement."""

    L: int
    L_sub: int
    offset: int
    imprinter: PauliOperator
    measurement: PauliOperator
    kind: str  # ising_parity | xxz_string

    def __post_init__(self):
        if not 1 <= self.L_sub <= self.L:
            raise ValueError("need 1 <= L_sub <= L")

    @property
    def sql_reference(self) -> float:
        return 1.0 / math.sqrt(2.0 * self.L_sub)


@dataclass(frozen=True)
class WindowReport:
    """Sub-SQL window [theta_l, theta_r] and interior optimum of one curve."""

    theta_l: float | None
    theta_min: float | None
    theta_r: float | None
    delta_theta_min: float
    sql_reference: float
    has_window: bool
    degenerate: bool  # no interior minimum (optimum pinned at the grid edge)

    def __post_init__(self):
        if self.has_window:
            if not (self.theta_l < self.theta_min < self.theta_r):
                raise ValueError("window angles must be ordered theta_l < theta_min < theta_r")
            if self.delta_theta_min > self.sql_reference:
                raise ValueError("a sub-SQL window requires delta_theta_min <= sql_reference")


def subsystem_parity(L: int, L_sub: int, offset: int | None = None) -> PauliOperator:
    """Product of X over the accessible block."""
    offset = _resolve_offset(L, L_sub, offset)
    return PauliOperator.string(L, {offset + j: "X" for j in range(L_sub)})


def _resolve_offset(L: int, L_sub: int, offset: int | None, span: int | None = None) -> int:
    span = L_sub if span is None else span
    if offset is None:
        offset = (L - span) // 2
    if offset < 0 or offset + span > L:
        raise ValueError("subregion leaves the chain")
    return offset


def xxz_string_parity(
    L: int, L_sub: int, alpha: int, beta: int, offset: int | None = None
) -> PauliOperator:
    """Fermion-string parity i gamma_{0,alpha} gamma_{L_sub,beta} as one Pauli string.

    gamma_{j,1} = X_j prod_{i<j}(-Z_i) and gamma_{j,2} = Y_j prod_{i<j}(-Z_i)
    relative to the block start; the product collapses to a single Hermitian,
    involutory string on L_sub + 1 sites.
    """
    if alpha not in (1, 2) or beta not in (1, 2):
        raise ValueError("alpha, beta must be 1 or 2")
    offset = _resolve_offset(L, L_sub, offset, span=L_sub + 1)
    end_letter = "X" if beta == 1 else "Y"
    sign = (-1.0) ** L_sub
    if alpha == 1:
        first_letter = "Y"           # X Z = -i Y absorbs the i prefactor
    else:
        first_letter = "X"           # Y Z = +i X flips the sign
        sign = -sign
    sites = {offset: first_letter, offset + L_sub: end_letter}
    for i in range(1, L_sub):
        sites[offset + i] = "Z"
    return PauliOperator.string(L, sites, coeff=sign)


def make_ising_protocol(L: int, L_sub: int, offset: int | None = None) -> SubsystemProtocol:
    """Block parity with the half-sum Z imprinter on the same block."""
    offset = _resolve_offset(L, L_sub, offset)
    imprinter = PauliOperator(
        L, [(0.5, pauli_word(L, {offset + j: "Z"})) for j in range(L_sub)]
    )
    return SubsystemProtocol(
        L=L, L_sub=L_sub, offset=offset,
        imprinter=imprinter,
        measurement=subsystem_parity(L, L_sub, offset),
        kind="ising_parity",
    )


def make_xxz_protocol(
    L: int, L_sub: int, alpha: int = 1, beta: int = 2, offset: int | None = None
) -> SubsystemProtocol:
    """String parity with the half-sum X imprinter on the block interior.

    On the real-valued ground states the single-Y strings (diagonal
    alpha = beta pairs) vanish identically and every pair vanishes for even
    L_sub (the interior Z-string is then odd under the global spin flip), so
    the workable readout is the (1,2)/(2,1) pair on odd blocks.
    """
    offset = _resolve_offset(L, L_sub, offset, span=L_sub + 1)
    imprinter = PauliOperator(
        L, [(0.5, pauli_word(L, {offset + j: "X"})) for j in range(1, L_sub)]
    )
    return SubsystemProtocol(
        L=L, L_sub=L_sub, offset=offset,
        imprinter=imprinter,
        measurement=xxz_string_parity(L, L_sub, alpha, beta, offset),
        kind="xxz_string",
    )


def parity_theta_curve(
    psi: PureState, protocol: SubsystemProtocol, theta_grid: np.ndarray
) -> PrecisionCurve:
    """Signal, variance, and precision of the restricted parity along theta.

    The curve is ``precision_curve`` of the block parity, read for a pure
    probe from one moment matrix per curve, with no evolution per angle
    (two direct evolutions check it at the grid's ends).  Each signal is
    also checked against the anticommutation pull-through
    <psi|e^{-2 i theta O} Pi|psi>; the two must agree to
    ``POLICY.pull_through_tol``.  In the imprinter's product frame
    O = W D W^dagger (``PauliOperator.frame``), with D's phase table
    ``(values, index)``, that is sum_j e^{-2 i theta v_j} M_j, with M =
    bincount(inverse, conj(W^dagger psi) W^dagger Pi psi), ``inverse`` the
    index broadcast over the register: one pass over the register per
    curve, and no rotation for a diagonal imprinter.
    """
    pi_op = protocol.measurement
    gen = protocol.imprinter
    curve = precision_curve(psi, gen, pi_op, theta_grid)
    rotations, diag = gen.frame()
    amp = into_frame(rotations, psi.amplitudes)
    pi_vec = into_frame(rotations, pi_op @ psi.amplitudes)
    values, index = diag.phase_table()
    inverse = diag._register(index)
    weight = amp.conj() * pi_vec
    moments = (np.bincount(inverse, weight.real, values.size)
               + 1j * np.bincount(inverse, weight.imag, values.size))
    pulled = [np.dot(np.exp(-2j * th * values), moments) for th in curve.theta]
    for th, direct, pull in zip(curve.theta, curve.signal, pulled):
        POLICY.check(lambda: f"pull-through mismatch at theta={th}: {direct} vs {pull}; "
                     "|direct - pull|", abs(direct - pull), "pull_through_tol",
                     error=AssertionError)
    return curve


def default_theta_grid(n_points: int = 256, lo: float = 1e-3, hi: float = 1.0) -> np.ndarray:
    return np.logspace(math.log10(lo), math.log10(hi), n_points)


def window_report(curve: PrecisionCurve, L_sub: int) -> WindowReport:
    """Interior optimum and SQL crossings of one precision curve.

    theta_min refines the grid argmin by parabolic interpolation; theta_l and
    theta_r are the linear-interpolated crossings of delta theta with the SQL
    reference 1/sqrt(2 L_sub).  Missing crossings yield a no-window report,
    which is a valid outcome.
    """
    if curve.theta.size < 200:
        raise ValueError("window extraction needs a dense grid (>= 200 points)")
    sql = 1.0 / math.sqrt(2.0 * L_sub)
    d = curve.delta_theta
    finite = np.where(np.isfinite(d))[0]
    if finite.size == 0:
        return WindowReport(None, None, None, math.inf, sql, False, True)
    i_min = finite[int(np.argmin(d[finite]))]
    flat = (np.max(d[finite]) - np.min(d[finite])) < 1e-9 * max(np.min(d[finite]), 1e-300)
    degenerate = flat or i_min in (0, curve.theta.size - 1)
    if degenerate:
        # optimum pinned at the grid edge, or a precision curve with no
        # theta structure at all (maximally entangled probes with full access)
        return WindowReport(None, None, None, float(d[i_min]), sql, False, True)
    t_min, d_min = _parabolic_refine(curve.theta, d, i_min)
    theta_l = _crossing(curve.theta, d, sql, i_min, direction=-1)
    theta_r = _crossing(curve.theta, d, sql, i_min, direction=+1)
    has_window = theta_l is not None and theta_r is not None and d_min < sql
    return WindowReport(
        theta_l=theta_l, theta_min=t_min, theta_r=theta_r,
        delta_theta_min=d_min, sql_reference=sql,
        has_window=has_window, degenerate=False,
    )


def _parabolic_refine(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    if not (np.isfinite(y0) and np.isfinite(y2)):
        return float(x1), float(y1)
    denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    if abs(denom) < 1e-300:
        return float(x1), float(y1)
    t = x1 - 0.5 * ((x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)) / denom
    coeffs = np.polyfit([x0, x1, x2], [y0, y1, y2], 2)
    return float(t), float(np.polyval(coeffs, t))


def _crossing(
    x: np.ndarray, y: np.ndarray, level: float, i_min: int, direction: int
) -> float | None:
    idx = range(i_min, 0, -1) if direction < 0 else range(i_min, x.size - 1)
    for i in idx:
        j = i - 1 if direction < 0 else i + 1
        yi, yj = y[i], y[j]
        if not (np.isfinite(yi) and np.isfinite(yj)):
            continue
        if (yi - level) * (yj - level) <= 0.0 and yi != yj:
            frac = (level - yi) / (yj - yi)
            return float(x[i] + frac * (x[j] - x[i]))
    return None


@dataclass(frozen=True)
class XxzWindowRow:
    L_sub: int
    report: WindowReport
    predicted_exponents: dict
    window_predicted: bool


def xxz_window_scaling(
    delta_xxz: float,
    L_sub_list: list[int],
    psi: PureState,
    theta_grid: np.ndarray | None = None,
) -> list[XxzWindowRow]:
    """Measured window quantities next to the Luttinger-parameter predictions.

    Each block is read out by ``make_xxz_protocol``'s (1, 2) string pair,
    whose signal does not vanish on odd blocks.

    Predicted size exponents: delta_theta_min ~ L^{-1+3/(4K)},
    theta_min ~ L^{-1+1/(4K)}, theta_l ~ L^{-3/2+1/K}, theta_r ~ L^{-1/2-1/(2K)};
    a sub-SQL window requires K above the threshold 3/2 (all three angles
    merge at the threshold).
    """
    K = luttinger_K(delta_xxz)
    predicted = {
        "delta_theta_min": -1.0 + 3.0 / (4.0 * K),
        "theta_min": -1.0 + 1.0 / (4.0 * K),
        "theta_l": -1.5 + 1.0 / K,
        "theta_r": -0.5 - 1.0 / (2.0 * K),
    }
    window_predicted = K > 1.5
    grid = default_theta_grid() if theta_grid is None else theta_grid
    rows = []
    for L_sub in L_sub_list:
        proto = make_xxz_protocol(psi.n_qubits, L_sub)
        curve = parity_theta_curve(psi, proto, grid)
        rows.append(
            XxzWindowRow(
                L_sub=L_sub,
                report=window_report(curve, L_sub),
                predicted_exponents=predicted,
                window_predicted=window_predicted,
            )
        )
    return rows


class DisorderOperator:
    """Dual disorder operator for the hard-boson chain.

    A local non-unitary map projects site j onto the drive-favored local state
    and parks it in |0>, then a string of swaps carries the site to the left
    edge; the composite detects domain-wall endpoints.  Non-Hermitian; use
    through correlators <mu_0^dag mu_r(theta)>.
    """

    def __init__(self, L: int, j: int, mean_occupation: float):
        if not 0.0 < mean_occupation < 1.0:
            raise ValueError("mean occupation must lie strictly between 0 and 1")
        if not 0 <= j < L:
            raise ValueError("site outside chain")
        self.L = L
        self.j = j
        self.mean_occupation = mean_occupation

    def apply_vec(self, vec: np.ndarray) -> np.ndarray:
        """Project site j, then rotate sites [0..j] to [j, 0, .., j-1]: the
        (2^j, 2, 2^(L-1-j)) view transposed, the parked site leading."""
        nbar = self.mean_occupation
        L, j = self.L, self.j
        tens = vec.reshape(1 << j, 2, 1 << (L - 1 - j))
        moved = np.zeros((2, 1 << j, 1 << (L - 1 - j)), dtype=vec.dtype)
        moved[0] = math.sqrt(1.0 - nbar) * tens[:, 0, :] - math.sqrt(nbar) * tens[:, 1, :]
        return moved.reshape(vec.shape)


def staggered_density_imprinter(L: int, L_sub: int) -> PauliOperator:
    """O_sub = (1/2) sum_{0<j<L_sub} sigma_j with sigma_j the staggered
    density difference; diagonal in the computational basis."""
    terms: list[tuple[complex, str]] = []
    for j in range(1, L_sub):
        sign = (-1.0) ** j
        terms.append((0.25 * sign, pauli_word(L, {j: "Z"})))
        terms.append((-0.25 * sign, pauli_word(L, {j + 1: "Z"})))
    return PauliOperator(L, terms)


def rydberg_dual_curve(
    psi: PureState, L_sub: int, mean_occupation: float, theta_grid: np.ndarray
) -> np.ndarray:
    """<mu_0^dag mu_{L_sub}(theta)> on the chain carrying ``psi``.

    The string pair plays the role of the restricted parity; the curve is the
    dual two-point function after imprinting with the staggered block
    generator.
    """
    L = psi.n_qubits
    if L_sub >= L:
        raise ValueError("need L_sub < L")
    mu0 = DisorderOperator(L, 0, mean_occupation)
    mur = DisorderOperator(L, L_sub, mean_occupation)
    gen = staggered_density_imprinter(L, L_sub)
    bra = mu0.apply_vec(psi.amplitudes)
    out = np.empty(theta_grid.size, dtype=np.complex128)
    for i, th in enumerate(np.asarray(theta_grid, dtype=float)):
        rot = apply_exponential(gen, -1j * th, psi.amplitudes)
        rot = mur.apply_vec(rot)
        rot = apply_exponential(gen, 1j * th, rot)
        out[i] = np.vdot(bra, rot)
    return out


def mean_occupation(psi: PureState, sites: list[int] | None = None) -> float:
    """Average (1 - <Z>)/2 over the given sites (all sites by default)."""
    L = psi.n_qubits
    sites = list(range(L)) if sites is None else sites
    total = 0.0
    for j in sites:
        z = PauliOperator.single(L, j, "Z")
        total += 0.5 * (1.0 - expectation(psi, z).real)
    return total / len(sites)
