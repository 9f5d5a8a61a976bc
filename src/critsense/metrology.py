"""Fisher-information kernels and precision estimators.

Phase is always imprinted as |psi_theta> = e^{i theta O}|psi>; quantum Fisher
information (QFI) values follow the convention F_Q = 4 Var(O) for pure probes.

Error propagation, delta theta = sqrt(Var_theta(A)) / |d<A>/dtheta|, has one
entry point, ``precision_curve``; ``error_propagation`` is its one-point case.
It owns the arithmetic: along the whole grid it reads the signal <A>, the
variance (branch probabilities for an involution A, A^2 = I) and the exact
derivative i<[A, O]>.  The reported derivative is a centered difference of
the minus-branch probability (an involution) or of <A>: one step for a
PauliOperator readout, Richardson extrapolation of two steps for any other
form.  The commutator value cross-checks it to ``derivative_agree_tol``.

A pure probe is read from one moment matrix per curve (``_moment_reader``):
in the generator's product frame O = W D W^dagger (``PauliOperator.frame``)
each angle is a sum over pairs of D's distinct values, evaluated in
np.longdouble, so no angle evolves the probe.  Two direct evolutions check
it, at the first and last grid angle.  A mixed probe is evolved per angle
(``_reader``): it is a column block Phi with rho = Phi Phi^dagger
(``_ensemble``), its weighted spectral ensemble, evolved into three buffers
of its shape allocated once per curve by one exponential in the frame
(``qcore.apply_exponential``), unitary to rounding, so nothing is
renormalized; each trace is a flat ``vdot`` over the evolved block.
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
    _rotate,
    charge,
    into_frame,
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
    curve's register buffers, whose placement moved the per-angle loop's run
    time by a few percent.
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


def _monomial_source(obs):
    """For a readout with one entry per row, a single Pauli string or a
    symmetry permutation: the function taking a register array to its
    entries at each row's source, A|src(b)> ~ |b>, in ``apply_vec``'s own
    view of the move; None for any other form."""
    if isinstance(obs, SymmetryOperator):
        def moved(table):
            out = np.empty(table.shape, dtype=table.dtype)
            out.reshape(obs._view[2])[...] = obs._move(table)
            return out
        return moved
    if isinstance(obs, PauliOperator) and len(obs.terms) == 1:
        shape, flip = obs._grouped().views[0]
        return lambda table: table.reshape(shape)[flip].reshape(-1)
    return None


def _split_sums(keys: np.ndarray, part: np.ndarray, length: int, scratch: np.ndarray) -> np.ndarray:
    """``np.bincount(keys, part, length)`` nearly to the bits of the exact
    sums, as np.longdouble.

    Each entry splits as hi + lo, hi rounded to a multiple of 2^(e - 26)
    with 2^e above every |entry|: up to 2^26 such multiples sum exactly in
    float64 in any order, and lo, under 2^(e - 27) each, carries the rest.
    ``scratch``, a float64 array twice ``part``'s length, holds both.
    """
    hi, lo = scratch[:part.size], scratch[part.size:]
    top = max(float(np.max(part)), -float(np.min(part)))  # max |part|, with no temporary
    if top == 0.0:
        return np.zeros(length, dtype=np.longdouble)
    quantum = math.ldexp(1.0, math.frexp(top)[1] - 26)
    np.multiply(part, 1.0 / quantum, out=hi)
    np.rint(hi, out=hi)
    hi *= quantum
    np.subtract(part, hi, out=lo)
    return np.bincount(keys, hi, length).astype(np.longdouble) + np.bincount(keys, lo, length)


def _moment_reader(state: PureState, gen: PauliOperator, obs, involution: bool):
    """``(read, check)`` of a pure probe along a whole grid, from its
    moments in the generator's product frame G = W D W^dagger
    (``PauliOperator.frame``).

    With chi = W^dagger psi, A' = W^dagger A W, and D's distinct values v_j
    and projectors P_j (``phase_table``): <A>_theta = sum_jk e^{i theta (v_j
    - v_k)} M_jk with M_jk = <P_k chi|A'|P_j chi>, and <A^2>_theta the same
    sum over N_jk = <P_k chi|A'^2|P_j chi>.  A single Pauli string or a
    symmetry permutation under a diagonal G gives M in one 2-D bincount of
    chi conj(A chi) over the pair (the table index at the row's source, at
    the row), in the table index's narrow dtype; any other readout takes
    one product A' P_j chi per value j, and one more for N.  Every bincount
    is summed nearly exactly (``_split_sums``).  Two register buffers are
    allocated (three for N), next to chi, a rotated copy of psi when G has
    rotations.

    ``read(thetas, full)`` adds to the theta = 0 values the pair terms j < k
    in cos(theta Delta) - 1 = -2 sin^2(theta Delta / 2) and sin(theta Delta),
    Delta = v_j - v_k, and returns np.longdouble arrays, so that the stencil
    differences the signal before it is rounded.  An involution's branch
    probabilities start from 0.25 ||psi +- A psi||^2, so a probe near an
    A-eigenstate keeps its small outcome's relative accuracy.
    ``check(theta, signal)`` compares a signal with a direct evolution.
    """
    psi = state.amplitudes
    rotations, diag = gen.frame()
    values, index = diag.phase_table()
    inverse = diag._register(index)
    size = values.size
    chi = into_frame(rotations, psi)
    image, work = np.empty_like(psi), np.empty_like(psi)
    split = work.view(np.float64)
    in_place = isinstance(obs, (PauliOperator, SymmetryOperator))

    def apply(vec, out):
        if in_place:
            return obs.apply_vec(vec, out=out)
        out[...] = obs @ vec
        return out

    def sums(keys, vec, length):  # sum of conj(chi) vec over keys, vec overwritten
        np.conjugate(vec, out=vec)
        vec *= chi
        return (_split_sums(keys, vec.real, length, split),
                -_split_sums(keys, vec.imag, length, split))

    apply(psi, image)
    if involution:
        branches = []
        for sign in (np.add, np.subtract):  # ||(psi +- A psi) / 2||^2
            sign(psi, image, out=work)
            branches.append(0.25 * float(np.vdot(work, work).real))
    else:
        square = float(np.vdot(image, image).real)
    squares = None
    source = None if rotations else _monomial_source(obs)
    if source is not None:  # A^2 = c^2 I: <A^2> does not move
        keys = source(inverse).astype(np.min_scalar_type(size * size - 1))
        keys *= size
        keys += inverse
        moments = [part.reshape(size, size) for part in sums(keys, image, size * size)]
    else:
        spare = None if involution else np.empty_like(psi)
        moments = [np.empty((size, size), dtype=np.longdouble) for _ in range(2)]
        if spare is not None:
            squares = [np.empty_like(part) for part in moments]
        for j in range(size):
            np.multiply(chi, inverse == j, out=work)
            _rotate(work, rotations)
            apply(work, image)
            if spare is not None:
                apply(image, spare)
                _rotate(spare, rotations, adjoint=True)
                squares[0][j], squares[1][j] = sums(inverse, spare, size)
            _rotate(image, rotations, adjoint=True)
            moments[0][j], moments[1][j] = sums(inverse, image, size)
        if squares is not None:
            square = np.sum(squares[0])
    scale = max(1.0, float(np.sum(np.hypot(*moments))))
    signal0 = np.sum(moments[0])
    upper = np.triu_indices(size, 1)
    wide = values.astype(np.longdouble)
    delta = (wide[:, None] - wide[None, :])[upper]
    # the pairs (j, k) and (k, j) as one term: (cos - 1) (re_jk + re_kj) - sin (im_jk - im_kj)
    pairs = [((re + re.T)[upper], (im - im.T)[upper])
             for re, im in ([moments] if squares is None else [moments, squares])]
    live = np.flatnonzero(np.any([part != 0.0 for pair in pairs for part in pair], axis=0))

    def shifts(thetas: np.ndarray, full: bool):
        """The pair sums along ``thetas``: the signal's and, with ``full``,
        the square's and the exact derivative."""
        x0 = thetas.astype(np.longdouble)
        signal, second, slope = (np.zeros_like(x0) for _ in range(3))
        for p in live.tolist():
            x = x0 * delta[p]
            sin = np.sin(x)
            half = np.sin(0.5 * x)
            cos_m1 = -2.0 * half * half
            re, im = pairs[0]
            signal += cos_m1 * re[p] - sin * im[p]
            if full:
                slope -= delta[p] * (sin * re[p] + (cos_m1 + 1.0) * im[p])
                if squares is not None:
                    re, im = pairs[1]
                    second += cos_m1 * re[p] - sin * im[p]
        return signal, second, slope

    def read(thetas: np.ndarray, full: bool):
        shift, second, slope = shifts(thetas, full)
        if involution and not full:
            return branches[1] - 0.5 * shift
        signal = signal0 + shift
        if not full:
            return signal
        if involution:
            var = _branch_variance(branches[0] + 0.5 * shift, branches[1] - 0.5 * shift)
        else:
            var = square + second - signal * signal
        return signal, var, slope

    def check(theta: float, signal: float) -> None:
        _evolve(gen, theta, psi, work)
        direct = complex(np.vdot(work, apply(work, image))).real
        POLICY.check(lambda: f"moment form misses the evolved signal at theta={theta!r}: form "
                     f"{signal!r}, evolved {direct!r}; |form - evolved|", abs(signal - direct),
                     "pull_through_tol", scale=scale, scaled_by="max(1, sum |M_jk|)",
                     error=ArithmeticError)

    return read, check


def _pointwise(read: Callable) -> Callable:
    """A one-angle ``read`` of ``_reader`` as a grid ``read``, point by point."""
    def batch(thetas: np.ndarray, full: bool):
        rows = np.array([read(th, full) for th in thetas.tolist()], dtype=float)
        return tuple(rows.reshape(-1, 3).T) if full else rows
    return batch


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
    is allocated.  ``read(thetas, full)`` returns along a grid the
    differenced quantity, the minus-branch probability of an involution or
    <obs>, or with ``full`` the signal, the variance and the commutator
    derivative: for a pure probe from one moment matrix per curve
    (``_moment_reader``), whose signal must match a direct evolution at the
    first and last grid angle to ``pull_through_tol`` (ArithmeticError
    otherwise); for a mixed probe by one evolution per angle
    (``_reader``).  The reported derivative is the same stencil on both: a
    centered difference at ``fd_step`` for a PauliOperator readout,
    Richardson extrapolation of two steps for any other form.  One that
    misses the commutator derivative raises ArithmeticError; a vanishing one
    gives the +inf sentinel, so sweeps tolerate dead points.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    _check_grid(thetas)
    if not gen.is_hermitian or not getattr(obs, "is_hermitian", True):
        raise ValueError("phase generator and readout must be Hermitian")
    _check_register(state, gen)
    _check_register(state, obs)
    gen.frame()  # refuses a generator with no product frame, ahead of the buffers
    involution = _is_involution(obs)
    check = None
    if isinstance(state, PureState):
        read, check = _moment_reader(state, gen, obs, involution)
    else:
        read = _pointwise(_reader(state, gen, obs, involution))

    def slope(step: float) -> np.ndarray:
        # d<A>/dtheta = -2 dp_minus/dtheta exactly for an involution (the
        # normalization is imprint invariant), which keeps the quotient
        # clean when the probe is nearly an A-eigenstate
        up, dn = read(thetas + step, False), read(thetas - step, False)
        return -(up - dn) / step if involution else (up - dn) / (2.0 * step)

    sig, var, exact = (np.asarray(part, dtype=float) for part in read(thetas, True))
    var = np.maximum(var, 0.0)
    if check is not None and thetas.size:
        for i in dict.fromkeys((0, thetas.size - 1)):  # each end once, first first
            check(float(thetas[i]), float(sig[i]))
    step = POLICY.fd_step
    deriv = slope(step)
    if not isinstance(obs, PauliOperator):  # Richardson over two steps
        deriv = (4.0 * slope(0.5 * step) - deriv) / 3.0
    dth = np.array([_delta_theta(*point) for point in
                    zip(thetas.tolist(), var.tolist(), deriv.astype(float).tolist(),
                        exact.tolist())])
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
