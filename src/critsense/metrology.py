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
cross-checks it to ``derivative_agree_tol``.  One reader serves every probe
and readout (``_reader``): the probe is a column block Phi with rho = Phi
Phi^dagger (``_ensemble``), a pure state's amplitudes as they are, a mixed
state's weighted spectral ensemble, evolved into three buffers of its shape
allocated once per curve.  Every generator evolves the block by one
exponential in its product frame (``qcore.apply_exponential``), unitary to
rounding, so nothing is renormalized.  Each trace is a flat ``vdot`` over
the evolved block, so a mixed probe builds no state per point.
``classical_fisher`` evolves the same block by the same step (``_evolve``).
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
    apply_exponential,
    charge,
    to_matrix,
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


def _branch_variance(p_plus: float, p_minus: float) -> float:
    total = p_plus + p_minus
    return 4.0 * p_plus * p_minus / (total * total)


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


def _ensemble(state: State) -> np.ndarray:
    """The probe as a column block Phi with rho = Phi Phi^dagger: a pure
    state's amplitudes themselves (no copy), a mixed state's eigenvectors
    (``spectrum()``) weighted by sqrt(w), over the weights above
    ``POLICY.spectral_cutoff``, renormalized, as one C-contiguous complex
    block (a column pick of ``v`` alone is laid out transposed, which makes
    every flat pass over the block copy it).

    Noise-level weights would carry O(1) branch norms into the sums and swamp
    tiny outcomes.  Every trace the theta loop reads is then a flat ``vdot``
    over Phi_theta = e^{i theta O} Phi: tr(rho A) = <Phi|A Phi>, and the
    branch probabilities are 0.25 ||Phi +- A Phi||^2.
    """
    if isinstance(state, PureState):
        return state.amplitudes
    w, v = state.spectrum()
    keep = w > POLICY.spectral_cutoff
    w = w[keep] / np.sum(w[keep])
    return np.multiply(v[:, keep], np.sqrt(w), dtype=np.complex128, order="C")


def _evolve(gen: PauliOperator, theta: float, base: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{i theta gen} base into ``out``, as ``evolve_phase`` has it: a copy
    at theta = 0, else ``apply_exponential`` in the generator's frame."""
    if theta == 0.0:
        out[:] = base
    else:
        apply_exponential(gen, 1j * theta, base, out=out)
    return out


def _reader(state: State, gen: PauliOperator, obs, involution: bool) -> Callable:
    """``read`` of a probe's block Phi (``_ensemble``), in three buffers of
    its shape allocated once per curve: Phi_theta = e^{i theta O} Phi, its
    image A Phi_theta and a scratch.

    A CSR or dense readout's product is copied into the image; every other
    step writes into a buffer.  A branch probability is 0.25 ||Phi_theta +-
    A Phi_theta||^2, the norm of the halved sum to the bit: scaling by a
    power of two is exact (short of subnormal amplitudes).
    """
    base = _ensemble(state)
    evolved, image, work = (np.empty_like(base) for _ in range(3))
    in_place = isinstance(obs, (PauliOperator, SymmetryOperator))

    def branch(sign) -> float:
        sign(evolved, image, out=work)  # ||(Phi +- A Phi) / 2||^2
        return 0.25 * float(np.vdot(work, work).real)

    def read(theta: float, full: bool):
        _evolve(gen, theta, base, evolved)
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
        gen.apply_vec(evolved, out=work)  # i(<A Phi|G Phi> - <G Phi|A Phi>)
        return signal, var, float(np.real(1j * (np.vdot(image, work) - np.vdot(work, image))))

    return read


def precision_curve(
    state: State,
    gen: PauliOperator,
    obs,
    theta_grid: Sequence[float],
) -> PrecisionCurve:
    """Signal, variance and delta theta of ``obs`` at each grid angle.

    A grid angle that is not finite or does not exceed the one before it,
    and a generator with no product frame (``PauliOperator.frame``), are
    refused (ValueError naming them) before anything of the register's size
    is allocated.  ``read(theta, full)`` evolves the probe to theta and returns
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
    gen.frame()  # refuses a generator with no product frame, ahead of the buffers
    involution = _is_involution(obs)
    read = _reader(state, gen, obs, involution)

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

    The grid, the generator, its product frame and every register are
    checked (ValueError) before any evolution; POVM completeness once per
    call, on two seeded random vectors.  P_k = <Phi_theta|E_k Phi_theta> over the probe's block
    (``_ensemble``), evolved by the theta loop's step (``_evolve``).
    """
    thetas = np.asarray(theta_grid, dtype=float)
    _check_grid(thetas)
    if not gen.is_hermitian:
        raise ValueError("phase generator must be Hermitian")
    for op in (gen, *povm):
        _check_register(state, op)
    gen.frame()  # refuses a generator with no product frame, ahead of the POVM check
    dim = 1 << state.n_qubits
    rng = np.random.default_rng(np.random.Philox(7))
    for _ in range(2):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        total = sum(eff @ vec for eff in povm)
        POLICY.check("POVM effects do not sum to the identity: max |sum_k E_k v - v|",
                     float(np.max(np.abs(total - vec))), "herm_tol",
                     scale=float(np.linalg.norm(vec)), scaled_by="|v|")

    base = _ensemble(state)
    evolved = np.empty_like(base)

    def probs(theta: float) -> np.ndarray:
        _evolve(gen, theta, base, evolved)
        return np.array([complex(np.vdot(evolved, eff @ evolved)).real for eff in povm])

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
