"""Fisher-information kernels and precision estimators.

Phase is always imprinted as |psi_theta> = e^{i theta O}|psi>; quantum Fisher
information (QFI) values follow the convention F_Q = 4 Var(O) for pure probes.

Error propagation, delta theta = sqrt(Var_theta(A)) / |d<A>/dtheta|, has one
theta loop, ``precision_curve``; ``error_propagation`` is its one-point case.
The loop owns the arithmetic.  Each grid point evolves the probe once and
reads from that state the signal <A>, the variance (branch probabilities for
an involution A, A^2 = I) and the exact derivative i<[A, O]>.  The reported
derivative is a centered difference of the minus-branch probability (an
involution) or of <A>: one step for a PauliOperator readout, Richardson
extrapolation of two steps for any other form.  The commutator value
cross-checks it to ``derivative_agree_tol``.  Only the reading of a point
depends on the probe: a pure one evolves into three register buffers
allocated once per curve, whatever the readout (``_pure_reader``); a mixed
one is imprinted into a new ``MixedState`` per point (``_mixed_reader``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .policy import POLICY
from .qcore import (
    MixedState,
    PauliOperator,
    PureState,
    SectorBlock,
    State,
    _check_register,
    _deviations,
    _imprint_mixed,
    apply_exponential,
    charge,
    evolve_phase,
    expectation,
    to_matrix,
    trace_product,
    variance,
)
from .symmetry import SymmetryOperator


@dataclass(frozen=True)
class PrecisionCurve:
    """Signal, noise, and precision of one observable along a theta grid."""

    theta: np.ndarray
    signal: np.ndarray
    variance: np.ndarray
    delta_theta: np.ndarray

    def __post_init__(self):
        _check_grid(self.theta)
        if np.any(self.delta_theta < 0):
            raise ValueError("delta_theta entries must be >= 0")


@dataclass(frozen=True)
class QfiReport:
    value: float
    method: str  # pure_variance | mixed_spectral | formula_bitflip | lower_bound_Fn | outcome_averaged
    spectral_cutoff_used: float = 0.0

    def __post_init__(self):
        POLICY.check(lambda: f"QFI {self.value!r} must be non-negative: its shortfall below 0",
                     -self.value, "qfi_negative_tol")


def qfi_pure(state: PureState, gen: PauliOperator) -> float:
    """4 Var(gen) on a pure probe."""
    return 4.0 * variance(state, gen)


def qfi_mixed(rho: MixedState, gen: PauliOperator) -> QfiReport:
    """Spectral QFI: 2 sum_{li+lj>cutoff} (li-lj)^2/(li+lj) |<i|O|j>|^2, with
    ``POLICY.spectral_cutoff``.

    The sum runs over the block pairs of ``rho.sector_spectrum()`` whose
    block of O is non-zero (see ``_block_pairs``): for a rho symmetric under
    translation and the product of X and for Sum Z, the block (k, +) with
    (k, -) only.
    """
    cutoff = POLICY.spectral_cutoff
    total = 0.0
    for wa, wb, m, mult in _block_pairs(rho, gen):
        li = wa[:, None]
        lj = wb[None, :]
        ssum = li + lj
        weights = np.divide(
            (li - lj) ** 2, ssum, out=np.zeros_like(ssum), where=ssum > cutoff
        )
        total += mult * np.sum(weights * np.abs(m) ** 2)
    value = 2.0 * float(total)
    return QfiReport(value=value, method="mixed_spectral", spectral_cutoff_used=cutoff)


def _block_pairs(rho: MixedState, gen: PauliOperator):
    """(w_a, w_b, <i|gen|j>, multiplicity) per block pair (a, b), a <= b,
    whose block of ``gen`` is non-zero; eigenvalues clipped at 0.

    The whole register (one block, P = I) applies ``gen`` itself to the
    eigenvectors.  Symmetry blocks read P_a^dagger G P_b from
    ``gen.to_sparse()``.  For each generator g of the group, if
    g G g^dagger = c G (``qcore.charge``), G moves that charge by c: the
    pair needs chi_a(g) = c chi_b(g).  If no such c exists, G couples every
    value of the charge.  So Sum Z pairs (k, +) with (k, -); the staggered
    Z pairs (k, +-) with (k + pi, -+) on an even chain, and with every
    (k', -+) on an odd one; Sum X keeps each block; and Z_0 + Z_0 Z_1 pairs
    all of them.  A pair a < b stands for (b, a) too: multiplicity 2, as every
    sum over it is symmetric in i and j.
    """
    blocks = rho.sector_spectrum()
    w = [np.clip(block.values, 0.0, None) for block in blocks]
    if blocks[0].isometry is None:
        v = blocks[0].vectors
        yield w[0], w[0], v.conj().T @ (gen @ v), 1
        return
    shifts = [charge(gen, name) for name, _, _ in blocks[0].sector]

    def coupled(a: SectorBlock, b: SectorBlock) -> bool:
        return all(q is None or (ma - mb) % order == q
                   for q, (_, ma, order), (_, mb, _) in zip(shifts, a.sector, b.sector))

    G = gen.to_sparse()
    for a in range(len(blocks)):
        left = blocks[a].isometry.conj().T @ G
        for b in range(a, len(blocks)):
            if not coupled(blocks[a], blocks[b]):
                continue
            g_ab = left @ blocks[b].isometry
            m = blocks[a].vectors.conj().T @ (g_ab @ blocks[b].vectors)
            yield w[a], w[b], m, 1 if a == b else 2


def sld(rho_theta: MixedState, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative solving d_theta rho = (L rho + rho L)/2.

    Matrix elements on eigenvalue pairs with li + lj <= ``POLICY.spectral_cutoff``
    are set to 0 (the derivative carries no weight there).  ``drho`` must be
    Hermitian to ``POLICY.herm_tol`` in max |drho - drho^dagger| (ValueError
    naming the deviation otherwise).
    """
    drho = np.asarray(drho, dtype=np.complex128)
    POLICY.check("drho must be Hermitian: max |drho - drho^dagger|", _deviations(drho)[0],
                 "herm_tol")
    w, v = rho_theta.spectrum()
    w = np.clip(w, 0.0, None)
    d = v.conj().T @ drho @ v
    ssum = w[:, None] + w[None, :]
    elem = np.zeros_like(d)
    mask = ssum > POLICY.spectral_cutoff
    elem[mask] = 2.0 * d[mask] / ssum[mask]
    return v @ elem @ v.conj().T


def optimal_observable(
    rho_theta: MixedState, theta: float, fq: float, drho: np.ndarray
) -> np.ndarray:
    """theta * I + L_theta / F_Q, the locally optimal readout."""
    if fq <= 0.0:
        raise ValueError("optimal observable undefined for zero QFI")
    dim = rho_theta.matrix.shape[0]
    return theta * np.eye(dim) + sld(rho_theta, drho) / fq


def _is_involution(obs) -> bool:
    """Observables with obs^2 = I: +-1-weighted single Pauli strings and the
    Hermitian symmetry permutations (unitary, so Hermitian means obs^2 = I)."""
    if isinstance(obs, PauliOperator):
        return (
            len(obs.terms) == 1
            and abs(obs.terms[0][0].imag) < 1e-15
            and abs(abs(obs.terms[0][0].real) - 1.0) < 1e-15
        )
    return isinstance(obs, SymmetryOperator) and obs.is_hermitian


def _branch_probs(rho: MixedState, obs) -> tuple[float, float]:
    """(p_plus, p_minus) of the +-1 outcomes of an involutory observable on a
    mixed state, resolved over its spectral ensemble.

    Branch norms avoid the catastrophic cancellation of 1 - <obs>^2 when the
    state is nearly an eigenstate, which the small-outcome Fisher weights
    amplify.
    """
    w, v = rho.spectrum()
    keep = w > POLICY.spectral_cutoff  # noise-level weights carry O(1) branch
    w = w[keep] / np.sum(w[keep])      # norms and would swamp tiny outcomes
    v = v[:, keep]
    ov = obs @ v
    minus = 0.5 * (v - ov)
    p_minus = float(np.dot(w, np.sum(np.abs(minus) ** 2, axis=0)))
    plus = 0.5 * (v + ov)
    p_plus = float(np.dot(w, np.sum(np.abs(plus) ** 2, axis=0)))
    return p_plus, p_minus


def _branch_variance(p_plus: float, p_minus: float) -> float:
    total = p_plus + p_minus
    return 4.0 * p_plus * p_minus / (total * total)


def _commutator_derivative(rho: MixedState, gen: PauliOperator, obs) -> float:
    """Exact d<obs>/dtheta = i tr(rho [obs, gen]) on the already evolved state."""
    if isinstance(obs, PauliOperator):  # from the grouped forms
        commutator = trace_product(rho, obs, gen) - trace_product(rho, gen, obs)
        return float(np.real(1j * commutator))
    g_rho = gen @ rho.matrix  # (G rho)^dagger = rho G
    return float(np.real(1j * np.trace(obs @ (g_rho - g_rho.conj().T))))


def _delta_theta(theta: float, var: float, deriv: float, exact: float) -> float:
    """sqrt(var) / |deriv| (+inf below ``signal_floor``), once the reported
    derivative is within ``derivative_agree_tol`` of the commutator one (a
    NaN on either side misses it)."""
    POLICY.check(lambda: f"derivative routes disagree at theta={theta!r}: reported {deriv!r}, "
                 f"commutator {exact!r}; |reported - commutator|", abs(exact - deriv),
                 "derivative_agree_tol", scale=max(1.0, abs(exact)),
                 scaled_by="max(1, |commutator|)", error=ArithmeticError)
    return math.inf if abs(deriv) < POLICY.signal_floor else math.sqrt(var) / abs(deriv)


def _check_grid(theta: np.ndarray) -> None:
    """ValueError naming the first angle that is not finite or does not
    exceed the one before it.

    A scalar loop: it leaves no array temporaries on the heap ahead of the
    curve's register buffers, whose placement moves theta_sweep's run time
    by a few percent.
    """
    prev = None
    for i, th in enumerate(theta):
        if not math.isfinite(th):
            raise ValueError(f"theta grid: theta[{i}] = {float(th)!r} is not finite")
        if prev is not None and not th > prev:
            raise ValueError(f"theta grid must be strictly increasing: theta[{i}] = "
                             f"{float(th)!r} does not exceed theta[{i - 1}] = {float(prev)!r}")
        prev = th


def _pure_reader(psi: PureState, gen: PauliOperator, obs, involution: bool) -> Callable:
    """``read`` of a pure probe, in three register buffers allocated once per
    curve: psi_theta = e^{i theta O} psi, its image A psi_theta and a scratch.

    A CSR or dense readout's product is copied into the image; every other
    step writes into a buffer.  A branch probability is 0.25 ||psi_theta +-
    A psi_theta||^2, the norm of the halved sum to the bit: scaling by a
    power of two is exact (short of subnormal amplitudes).
    """
    base = psi.amplitudes
    evolved, image, work = (np.empty_like(base) for _ in range(3))
    in_place = isinstance(obs, (PauliOperator, SymmetryOperator))

    def branch(sign) -> float:
        sign(evolved, image, out=work)  # ||(psi +- A psi) / 2||^2
        return 0.25 * float(np.vdot(work, work).real)

    def read(theta: float, full: bool):
        if theta == 0.0:  # evolve_phase, then A on the result
            evolved[:] = base
        else:
            apply_exponential(gen, 1j * theta, base, out=evolved)
            if not gen.is_diagonal:
                np.divide(evolved, np.linalg.norm(evolved), out=evolved)
        if in_place:
            obs.apply_vec(evolved, out=image)
        else:
            image[...] = obs @ evolved
        if involution and not full:
            return branch(np.subtract)
        signal = complex(np.vdot(evolved, image)).real
        if not full:
            return signal
        if involution:
            var = _branch_variance(branch(np.add), branch(np.subtract))
        else:
            var = float(np.vdot(image, image).real) - signal * signal
        gen.apply_vec(evolved, out=work)  # i(<A psi|G psi> - <G psi|A psi>)
        return signal, var, float(np.real(1j * (np.vdot(image, work) - np.vdot(work, image))))

    return read


def _mixed_reader(rho: MixedState, gen: PauliOperator, obs, involution: bool) -> Callable:
    """``read`` of a mixed probe: one imprinted ``MixedState`` per call, a
    generator with X/Y letters factored once per curve."""
    if involution:
        rho.spectrum()  # warm the cache once; evolutions inherit it
    factors = None if gen.is_diagonal else np.linalg.eigh(to_matrix(gen))

    def read(theta: float, full: bool):
        st = rho if theta == 0.0 else _imprint_mixed(rho, gen, theta, factors)
        if involution:
            p_plus, p_minus = _branch_probs(st, obs)
            if not full:
                return p_minus
        signal = expectation(st, obs).real
        if not full:
            return signal
        var = _branch_variance(p_plus, p_minus) if involution else variance(st, obs)
        return signal, var, _commutator_derivative(st, gen, obs)

    return read


def precision_curve(
    state: State,
    gen: PauliOperator,
    obs,
    theta_grid: Sequence[float],
) -> PrecisionCurve:
    """Signal, variance and delta theta of ``obs`` at each grid angle.

    A grid angle that is not finite or does not exceed the one before it is
    refused (ValueError naming it) before anything of the register's size is
    allocated.  ``read(theta, full)`` evolves the probe to theta and returns
    the differenced quantity, the minus-branch probability of an involution
    or <obs>, or with ``full`` the signal, the variance and the commutator
    derivative.  A reported derivative that misses the commutator one raises
    ArithmeticError; a vanishing one gives the +inf sentinel, so sweeps
    tolerate dead points.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    _check_grid(thetas)
    if not gen.is_hermitian or not getattr(obs, "is_hermitian", True):
        raise ValueError("phase generator and readout must be Hermitian")
    _check_register(state, gen)
    _check_register(state, obs)
    involution = _is_involution(obs)
    reader = _pure_reader if isinstance(state, PureState) else _mixed_reader
    read = reader(state, gen, obs, involution)

    def slope(theta: float, step: float) -> float:
        # d<A>/dtheta = -2 dp_minus/dtheta exactly for an involution (the
        # normalization is imprint invariant), which keeps the quotient
        # clean when the probe is nearly an A-eigenstate
        up, dn = read(theta + step, False), read(theta - step, False)
        return -(up - dn) / step if involution else (up - dn) / (2.0 * step)

    step = POLICY.fd_step
    sig, var, dth = (np.empty_like(thetas) for _ in range(3))
    for i, th in enumerate(thetas):
        th = float(th)
        sig[i], v, exact = read(th, True)
        var[i] = max(v, 0.0)
        deriv = slope(th, step)
        if not isinstance(obs, PauliOperator):  # Richardson over two steps
            deriv = (4.0 * slope(th, 0.5 * step) - deriv) / 3.0
        dth[i] = _delta_theta(th, var[i], deriv, exact)
    return PrecisionCurve(theta=thetas, signal=sig, variance=var, delta_theta=dth)


def error_propagation(state: State, gen: PauliOperator, obs, theta: float) -> float:
    """delta theta = sqrt(Var_theta(obs)) / |d<obs>/dtheta| at one angle: the
    one-point ``precision_curve``."""
    return float(precision_curve(state, gen, obs, [theta]).delta_theta[0])


def classical_fisher(
    state: State, gen: PauliOperator, povm: Sequence, theta_grid: Sequence[float]
) -> np.ndarray:
    """sum_k (d_theta P_k)^2 / P_k over outcomes with P_k above the floor, at
    each grid angle of e^{i theta gen}|psi>, differenced at ``POLICY.fd_step``.

    The grid, the generator and every register are checked (ValueError)
    before any evolution; POVM completeness once per call, on two seeded
    random vectors.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    _check_grid(thetas)
    if not gen.is_hermitian:
        raise ValueError("phase generator must be Hermitian")
    for op in (gen, *povm):
        _check_register(state, op)
    dim = 1 << state.n_qubits
    rng = np.random.default_rng(np.random.Philox(7))
    for _ in range(2):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        total = sum(eff @ vec for eff in povm)
        POLICY.check("POVM effects do not sum to the identity: max |sum_k E_k v - v|",
                     float(np.max(np.abs(total - vec))), "herm_tol",
                     scale=float(np.linalg.norm(vec)), scaled_by="|v|")

    def probs(theta: float) -> np.ndarray:
        st = evolve_phase(state, gen, theta)
        return np.array([expectation(st, eff).real for eff in povm])

    def cfi(theta: float) -> float:
        step = POLICY.fd_step
        p = probs(theta)
        dp = (probs(theta + step) - probs(theta - step)) / (2.0 * step)
        keep = p > POLICY.signal_floor
        return np.sum(dp[keep] ** 2 / p[keep])

    return np.array([cfi(th) for th in thetas.tolist()])


def fn_sequence(rho: MixedState, gen: PauliOperator, n_max: int) -> np.ndarray:
    """Monotone lower-bound sequence F_0..F_n for the mixed-state QFI.

    F_n = 2 sum_{ij} (li-lj)^2 [sum_{l=0}^{n} (1-li-lj)^l] |<i|O|j>|^2; the
    series telescopes to the spectral QFI as n grows.  The sum runs over the
    same block pairs as ``qfi_mixed``.  Every pair of distinct eigenvalues,
    inside a block or across two, must sum to at most 1 + ``POLICY.trace_tol``
    (ValueError otherwise); the largest such sum is that of the two largest.
    """
    w = np.sort(np.concatenate([b.values for b in rho.sector_spectrum()]))
    top = float(np.clip(w[-2:], 0.0, None).sum())
    POLICY.check(lambda: f"invalid density matrix: a distinct eigenvalue pair sums to "
                 f"{top!r}, its excess over 1", top - 1.0, "trace_tol")
    out = np.zeros(n_max + 1)
    for wa, wb, m, mult in _block_pairs(rho, gen):
        ssum = wa[:, None] + wb[None, :]
        m2 = np.abs(m) ** 2
        diff2 = (wa[:, None] - wb[None, :]) ** 2
        base = np.clip(1.0 - ssum, 0.0, 1.0)
        power = np.ones_like(base)
        acc = np.zeros_like(base)
        for l in range(n_max + 1):
            acc = acc + power
            out[l] += mult * np.sum(diff2 * acc * m2)
            power = power * base
    return 2.0 * out


def d2(rho: MixedState, gen: PauliOperator) -> float:
    """Purity-normalized commutator bound 4 Tr{rho [rho, O] O} / Tr{rho^2}."""
    r = rho.matrix
    o = to_matrix(gen)
    ro = r @ o
    num = np.trace(r @ ro @ o) - np.trace(ro @ ro)
    purity = float(np.real(np.vdot(r, r)))
    if purity <= 0.0:
        raise ValueError("non-positive purity is impossible for a state")
    return 4.0 * float(np.real(num)) / purity


def jeffreys_n(rho: MixedState, sigma: MixedState, n: int) -> float:
    """Order-n symmetric divergence from log-traces of matrix powers."""
    if n < 2:
        raise ValueError("jeffreys_n needs integer n >= 2")
    r, s = rho.matrix, sigma.matrix
    rn = np.linalg.matrix_power(r, n)
    sn = np.linalg.matrix_power(s, n)
    rs = r @ np.linalg.matrix_power(s, n - 1)
    sr = s @ np.linalg.matrix_power(r, n - 1)
    val = (
        math.log(float(np.real(np.trace(rn))))
        + math.log(float(np.real(np.trace(sn))))
        - math.log(float(np.real(np.trace(rs))))
        - math.log(float(np.real(np.trace(sr))))
    )
    return val / (n - 1)
