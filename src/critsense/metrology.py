"""Fisher-information kernels and precision estimators.

Phase is always imprinted as |psi_theta> = e^{i theta O}|psi>; quantum Fisher
information (QFI) values follow the convention F_Q = 4 Var(O) for pure probes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .policy import POLICY, NumericPolicy
from .qcore import (
    MixedState,
    PauliOperator,
    PureState,
    State,
    evolve_phase,
    expectation,
    linear_expectation,
    to_matrix,
    variance,
)


@dataclass(frozen=True)
class PrecisionCurve:
    """Signal, noise, and precision of one observable along a theta grid."""

    theta: np.ndarray
    signal: np.ndarray
    variance: np.ndarray
    delta_theta: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.theta) <= 0):
            raise ValueError("theta grid must be strictly increasing")
        if np.any(self.delta_theta < 0):
            raise ValueError("delta_theta entries must be >= 0")


@dataclass(frozen=True)
class QfiReport:
    value: float
    method: str  # pure_variance | mixed_spectral | formula_bitflip | lower_bound_Fn | outcome_averaged
    spectral_cutoff_used: float = 0.0

    def __post_init__(self):
        if self.value < -1e-9:
            raise ValueError("QFI must be non-negative")


def qfi_pure(state: PureState, gen: PauliOperator) -> float:
    """4 Var(gen) on a pure probe."""
    return 4.0 * variance(state, gen)


def qfi_mixed(
    rho: MixedState,
    gen: PauliOperator,
    cutoff: float = POLICY.spectral_cutoff,
) -> QfiReport:
    """Spectral QFI: 2 sum_{li+lj>cutoff} (li-lj)^2/(li+lj) |<i|O|j>|^2."""
    w, v = rho.spectrum()
    w = np.clip(w, 0.0, None)
    m = _generator_elements(gen, v)
    li = w[:, None]
    lj = w[None, :]
    ssum = li + lj
    weights = np.divide(
        (li - lj) ** 2, ssum, out=np.zeros_like(ssum), where=ssum > cutoff
    )
    value = 2.0 * float(np.sum(weights * np.abs(m) ** 2))
    return QfiReport(value=value, method="mixed_spectral", spectral_cutoff_used=cutoff)


def _generator_elements(gen: PauliOperator, v: np.ndarray) -> np.ndarray:
    """<i|gen|j> between the eigenvector columns of ``v``.

    A diagonal generator scales the rows of ``v``, so real eigenvectors and
    a real diagonal keep the product real; other generators go through the
    sparse matrix.
    """
    if gen.is_diagonal:
        d = gen.diagonal()
        ov = (d if d.imag.any() else d.real)[:, None] * v
    else:
        ov = gen.to_sparse() @ v
    return v.conj().T @ ov


def sld(
    rho_theta: MixedState,
    drho: np.ndarray,
    cutoff: float = POLICY.spectral_cutoff,
) -> np.ndarray:
    """Symmetric logarithmic derivative solving d_theta rho = (L rho + rho L)/2.

    Matrix elements on eigenvalue pairs with li + lj <= cutoff are set to 0
    (the derivative carries no weight there).
    """
    drho = np.asarray(drho, dtype=np.complex128)
    if np.max(np.abs(drho - drho.conj().T)) > 1e-8:
        raise ValueError("drho must be Hermitian")
    w, v = rho_theta.spectrum()
    w = np.clip(w, 0.0, None)
    d = v.conj().T @ drho @ v
    ssum = w[:, None] + w[None, :]
    elem = np.zeros_like(d)
    mask = ssum > cutoff
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


def _signal(state: State, obs) -> float:
    if isinstance(state, PureState):
        return float(np.real(linear_expectation(obs, state)))
    if isinstance(obs, PauliOperator):
        return float(np.real(expectation(state, obs)))
    mat = obs.toarray() if sp.issparse(obs) else np.asarray(obs)
    return float(np.real(np.trace(state.matrix @ mat)))


def _is_involution(obs) -> bool:
    """Observables with obs^2 = I: +-1-weighted single Pauli strings and the
    Hermitian symmetry permutations."""
    if isinstance(obs, PauliOperator):
        return (
            len(obs.terms) == 1
            and abs(obs.terms[0][0].imag) < 1e-15
            and abs(abs(obs.terms[0][0].real) - 1.0) < 1e-15
        )
    return getattr(obs, "hermitian", False) and hasattr(obs, "apply_vec")


def _branch_probs(state: State, obs) -> tuple[float, float]:
    """(p_plus, p_minus) of the +-1 outcomes of an involutory observable.

    Branch norms avoid the catastrophic cancellation of 1 - <obs>^2 when the
    state is nearly an eigenstate, which the small-outcome Fisher weights
    amplify.  Mixed states are resolved over their spectral ensemble for the
    same reason.
    """
    if isinstance(state, PureState):
        vec = state.amplitudes
        ovec = obs.apply_vec(vec)
        plus = 0.5 * (vec + ovec)
        minus = 0.5 * (vec - ovec)
        return float(np.vdot(plus, plus).real), float(np.vdot(minus, minus).real)
    w, v = state.spectrum()
    keep = w > POLICY.spectral_cutoff  # noise-level weights carry O(1) branch
    w = w[keep] / np.sum(w[keep])      # norms and would swamp tiny outcomes
    v = v[:, keep]
    ov = np.stack([obs.apply_vec(v[:, i]) for i in range(v.shape[1])], axis=1)
    minus = 0.5 * (v - ov)
    p_minus = float(np.dot(w, np.sum(np.abs(minus) ** 2, axis=0)))
    plus = 0.5 * (v + ov)
    p_plus = float(np.dot(w, np.sum(np.abs(plus) ** 2, axis=0)))
    return p_plus, p_minus


def _variance_at(state: State, obs) -> float:
    if _is_involution(obs):
        p_plus, p_minus = _branch_probs(state, obs)
        total = p_plus + p_minus
        return 4.0 * p_plus * p_minus / (total * total)
    if isinstance(obs, PauliOperator):
        return variance(state, obs)
    mean = _signal(state, obs)
    return 1.0 - mean * mean


def theta_derivative(
    state: State,
    gen: PauliOperator,
    obs,
    theta: float,
    fd_step: float = POLICY.fd_step,
    method: str = "fd",
) -> float:
    """d<obs>/dtheta along the imprint family.

    Methods: ``fd`` (centered differences), ``richardson`` (two-step
    extrapolated differences, the fallback when no exact commutator route
    exists), ``analytic`` (i<[obs, gen]>_theta, Pauli observables only).
    """
    if method == "richardson":
        coarse = theta_derivative(state, gen, obs, theta, fd_step, "fd")
        fine = theta_derivative(state, gen, obs, theta, 0.5 * fd_step, "fd")
        return (4.0 * fine - coarse) / 3.0
    if method == "fd":
        if _is_involution(obs):
            # d<A>/dtheta = -2 dp_minus/dtheta exactly (normalization is
            # imprint invariant); differencing only the small branch keeps the
            # quotient clean when the probe is nearly an A-eigenstate
            if isinstance(state, MixedState):
                state.spectrum()  # warm the cache once; evolutions inherit it
            _, m_up = _branch_probs(evolve_phase(state, gen, theta + fd_step), obs)
            _, m_dn = _branch_probs(evolve_phase(state, gen, theta - fd_step), obs)
            return -(m_up - m_dn) / fd_step
        up = _signal(evolve_phase(state, gen, theta + fd_step), obs)
        dn = _signal(evolve_phase(state, gen, theta - fd_step), obs)
        return (up - dn) / (2.0 * fd_step)
    if method == "analytic":
        if not isinstance(obs, PauliOperator):
            raise ValueError("analytic derivative needs a Pauli-sum observable")
        st = evolve_phase(state, gen, theta)
        if isinstance(st, PureState):
            vec = st.amplitudes
            avec = obs.apply_vec(vec)
            gvec = gen.apply_vec(vec)
            # i<[A, O]> = i(<psi|A O|psi> - <psi|O A|psi>)
            val = 1j * (np.vdot(avec, gvec) - np.vdot(gvec, avec))
            return float(np.real(val))
        ao = expectation(st, _pauli_product(obs, gen))
        oa = expectation(st, _pauli_product(gen, obs))
        return float(np.real(1j * (ao - oa)))
    raise ValueError(f"unknown derivative method {method!r}")


_PAULI_MUL = {
    ("I", "I"): (1.0, "I"), ("I", "X"): (1.0, "X"), ("I", "Y"): (1.0, "Y"), ("I", "Z"): (1.0, "Z"),
    ("X", "I"): (1.0, "X"), ("Y", "I"): (1.0, "Y"), ("Z", "I"): (1.0, "Z"),
    ("X", "X"): (1.0, "I"), ("Y", "Y"): (1.0, "I"), ("Z", "Z"): (1.0, "I"),
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


def _pauli_product(a: PauliOperator, b: PauliOperator) -> PauliOperator:
    terms = []
    for ca, sa in a.terms:
        for cb, sb in b.terms:
            coeff = ca * cb
            word = []
            for la, lb in zip(sa, sb):
                f, l = _PAULI_MUL[(la, lb)]
                coeff *= f
                word.append(l)
            terms.append((coeff, "".join(word)))
    return PauliOperator(a.n_qubits, terms)


def error_propagation(
    state: State,
    gen: PauliOperator,
    obs,
    theta: float,
    fd_step: float = POLICY.fd_step,
    policy: NumericPolicy = POLICY,
) -> float:
    """delta theta = sqrt(Var_theta(obs)) / |d<obs>/dtheta|.

    Pauli-sum observables use centered finite differences cross-checked
    against the exact commutator route (both must agree within the policy
    tolerance); other observables fall back to Richardson-extrapolated
    differences.  A vanishing signal returns the +inf sentinel rather than
    raising, so sweeps tolerate dead points.
    """
    if isinstance(obs, PauliOperator):
        deriv = theta_derivative(state, gen, obs, theta, fd_step, method="fd")
        exact = theta_derivative(state, gen, obs, theta, method="analytic")
        if abs(exact - deriv) > policy.derivative_agree_tol * max(1.0, abs(exact)):
            raise ArithmeticError(
                f"derivative routes disagree: fd={deriv!r} analytic={exact!r}"
            )
    else:
        deriv = theta_derivative(state, gen, obs, theta, fd_step, method="richardson")
    st = evolve_phase(state, gen, theta)
    var = max(_variance_at(st, obs), 0.0)
    if abs(deriv) < policy.signal_floor:
        return math.inf
    return math.sqrt(var) / abs(deriv)


def precision_curve(
    state: State,
    gen: PauliOperator,
    obs,
    theta_grid: Sequence[float],
    fd_step: float = POLICY.fd_step,
) -> PrecisionCurve:
    thetas = np.asarray(list(theta_grid), dtype=float)
    sig = np.empty_like(thetas)
    var = np.empty_like(thetas)
    dth = np.empty_like(thetas)
    for i, th in enumerate(thetas):
        st = evolve_phase(state, gen, float(th))
        sig[i] = _signal(st, obs)
        var[i] = max(_variance_at(st, obs), 0.0)
        deriv = theta_derivative(state, gen, obs, float(th), fd_step, method="fd")
        dth[i] = math.inf if abs(deriv) < POLICY.signal_floor else math.sqrt(var[i]) / abs(deriv)
    return PrecisionCurve(theta=thetas, signal=sig, variance=var, delta_theta=dth)


def classical_fisher(
    povm: Sequence,
    state_family: Callable[[float], State],
    theta: float,
    fd_step: float = POLICY.fd_step,
    policy: NumericPolicy = POLICY,
) -> float:
    """sum_k (d_theta P_k)^2 / P_k over outcomes with P_k above the floor.

    POVM completeness (effects summing to the identity) is verified by action
    on a few deterministic probe vectors.
    """
    probe_state = state_family(theta)
    dim = 1 << probe_state.n_qubits
    rng = np.random.default_rng(np.random.Philox(7))
    for _ in range(2):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        total = np.zeros(dim, dtype=np.complex128)
        for eff in povm:
            total += _effect_apply(eff, vec)
        if np.max(np.abs(total - vec)) > policy.herm_tol * np.linalg.norm(vec):
            raise ValueError("POVM effects do not sum to the identity")

    def probs(th: float) -> np.ndarray:
        st = state_family(th)
        return np.array([_signal(st, eff) for eff in povm])

    p = probs(theta)
    dp = (probs(theta + fd_step) - probs(theta - fd_step)) / (2.0 * fd_step)
    keep = p > policy.signal_floor
    return float(np.sum(dp[keep] ** 2 / p[keep]))


def _effect_apply(eff, vec: np.ndarray) -> np.ndarray:
    if isinstance(eff, PauliOperator) or hasattr(eff, "apply_vec"):
        return eff.apply_vec(vec)
    if sp.issparse(eff):
        return eff @ vec
    return np.asarray(eff) @ vec


def fn_sequence(rho: MixedState, gen: PauliOperator, n_max: int) -> np.ndarray:
    """Monotone lower-bound sequence F_0..F_n for the mixed-state QFI.

    F_n = 2 sum_{ij} (li-lj)^2 [sum_{l=0}^{n} (1-li-lj)^l] |<i|O|j>|^2; the
    series telescopes to the spectral QFI as n grows.
    """
    w, v = rho.spectrum()
    w = np.clip(w, 0.0, None)
    ssum = w[:, None] + w[None, :]
    off = ~np.eye(w.size, dtype=bool)
    if np.any(ssum[off] > 1.0 + 1e-10):
        raise ValueError("distinct eigenvalue pair sums exceed 1; invalid density matrix")
    m2 = np.abs(_generator_elements(gen, v)) ** 2
    diff2 = (w[:, None] - w[None, :]) ** 2
    base = np.clip(1.0 - ssum, 0.0, 1.0)
    out = np.empty(n_max + 1)
    power = np.ones_like(base)
    acc = np.zeros_like(base)
    for l in range(n_max + 1):
        acc = acc + power
        out[l] = 2.0 * float(np.sum(diff2 * acc * m2))
        power = power * base
    return out


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
