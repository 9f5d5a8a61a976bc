import math

import numpy as np
import pytest

from critsense import (
    MixedState,
    PauliOperator,
    classical_fisher,
    d2,
    error_propagation,
    evolve_phase,
    expectation,
    fn_sequence,
    ghz_state,
    jeffreys_n,
    optimal_observable,
    qfi_mixed,
    qfi_pure,
    sld,
    spin_coherent_state,
    to_matrix,
)
from critsense.channels import in_plane_spin
from critsense.metrology import precision_curve, theta_derivative
from critsense.models import ModelSpec, solve_model
from critsense.policy import POLICY

from conftest import sum_z
from oracles import X as XM, Y as YM, kron_op, sum_z_dense


def random_mixed(rng, n, rank=None):
    dim = 1 << n
    g = rng.standard_normal((dim, rank or dim)) + 1j * rng.standard_normal((dim, rank or dim))
    m = g @ g.conj().T
    return MixedState(n, m / np.trace(m))


def test_qfi_pure_ghz_heisenberg():
    assert abs(qfi_pure(ghz_state(4), sum_z(4)) - 64.0) < 1e-12


def test_qfi_pure_coherent_sql():
    assert abs(qfi_pure(spin_coherent_state(4), sum_z(4)) - 16.0) < 1e-12


def test_qfi_mixed_rank_one_matches_pure():
    st = ghz_state(3)
    rep = qfi_mixed(MixedState.from_pure(st), sum_z(3))
    assert rep.method == "mixed_spectral"
    assert abs(rep.value - 36.0) < 1e-8


def test_qfi_mixed_maximally_mixed_zero():
    rho = MixedState(2, np.eye(4, dtype=complex) / 4.0)
    assert abs(qfi_mixed(rho, sum_z(2)).value) < 1e-12


def test_qfi_mixed_bitflip_frozen_value():
    # spectral route must reproduce the closed-form 10 for the flipped pair state
    from critsense import ChannelSpec, apply_channel

    rho = apply_channel(
        MixedState.from_pure(ghz_state(2)), ChannelSpec(kind="bitflip_x", p=0.25)
    )
    assert abs(qfi_mixed(rho, sum_z(2)).value - 10.0) < 1e-8


def spectral_qfi_and_fn(w, v, gen_matrix, n_max):
    """QFI and F_0..F_n from an eigendecomposition and a generator matrix."""
    w = np.clip(w, 0.0, None)
    m2 = np.abs(v.conj().T @ (gen_matrix @ v)) ** 2
    ssum = w[:, None] + w[None, :]
    diff2 = (w[:, None] - w[None, :]) ** 2
    keep = ssum > POLICY.spectral_cutoff
    qfi = 2.0 * np.sum(diff2[keep] / ssum[keep] * m2[keep])
    base = np.clip(1.0 - ssum, 0.0, 1.0)
    fn = [2.0 * np.sum(diff2 * sum(base**k for k in range(n + 1)) * m2) for n in range(n_max + 1)]
    return qfi, np.array(fn)


@pytest.mark.parametrize("real", [True, False], ids=["real_rho", "complex_rho"])
@pytest.mark.parametrize("L", [3, 4])
def test_generator_kernel_matches_sparse_route_and_oracle(rng, L, real):
    dim = 1 << L
    g = rng.standard_normal((dim, 3))
    if not real:
        g = g + 1j * rng.standard_normal((dim, 3))
    m = g @ g.conj().T
    rho = MixedState(L, m / np.trace(m))
    assert rho.matrix.dtype == (np.float64 if real else np.complex128)
    w, v = rho.spectrum()
    assert v.dtype == rho.matrix.dtype
    oracle_w, oracle_v = np.linalg.eigh(rho.matrix.astype(np.complex128))
    plane = 0.5 * sum(math.cos(0.4) * kron_op(L, {j: XM}) + math.sin(0.4) * kron_op(L, {j: YM})
                      for j in range(L))
    for gen, dense in ((sum_z(L), sum_z_dense(L)), (in_plane_spin(L, 0.4), plane)):
        got_q = qfi_mixed(rho, gen).value
        got_f = fn_sequence(rho, gen, 6)
        # the generic sparse route on the same eigenvectors, and a dense oracle
        for ref_w, ref_v, mat in ((w, v, gen.to_sparse()), (oracle_w, oracle_v, dense)):
            ref_q, ref_f = spectral_qfi_and_fn(ref_w, ref_v, mat, 6)
            assert abs(got_q - ref_q) < 1e-10 * max(1.0, ref_q)
            assert np.max(np.abs(got_f - ref_f)) < 1e-10 * max(1.0, ref_q)


def test_qfi_invariance_under_imprint():
    st = solve_model(ModelSpec(kind="tfim", L=6)).state
    gen = sum_z(6)
    base = qfi_pure(st, gen)
    for theta in (0.05, 0.4, 1.1):
        assert abs(qfi_pure(evolve_phase(st, gen, theta), gen) - base) < 1e-9


def test_qfi_convexity_spot_check(rng):
    gen = sum_z(3)
    a = random_mixed(rng, 3, rank=2)
    b = random_mixed(rng, 3, rank=3)
    mix = MixedState(3, 0.3 * a.matrix + 0.7 * b.matrix)
    assert qfi_mixed(mix, gen).value <= (
        0.3 * qfi_mixed(a, gen).value + 0.7 * qfi_mixed(b, gen).value + 1e-9
    )


def test_sld_pure_family_identity():
    st = ghz_state(3)
    rho = MixedState.from_pure(st)
    om = to_matrix(sum_z(3))
    drho = 1j * (om @ rho.matrix - rho.matrix @ om)
    L_op = sld(rho, drho)
    assert np.max(np.abs(L_op - 2 * drho)) < 1e-10


def test_sld_defining_equation(rng):
    rho = random_mixed(rng, 3)
    om = to_matrix(sum_z(3))
    drho = 1j * (om @ rho.matrix - rho.matrix @ om)
    L_op = sld(rho, drho)
    resid = drho - 0.5 * (L_op @ rho.matrix + rho.matrix @ L_op)
    assert np.max(np.abs(resid)) < 1e-10


def test_sld_diagonal_case():
    lam = np.array([0.5, 0.3, 0.2, 0.0])
    dlam = np.array([0.1, -0.05, -0.05, 0.0])
    L_op = sld(MixedState(2, np.diag(lam).astype(complex)), np.diag(dlam).astype(complex))
    want = np.diag([0.2, -1.0 / 6.0, -0.25, 0.0])
    assert np.max(np.abs(L_op - want)) < 1e-12


def test_sld_eigenbasis_cfi_attains_qfi(rng):
    rho = random_mixed(rng, 3)
    om = to_matrix(sum_z(3))
    w, v = np.linalg.eigh(om)

    def family(t):
        u = (v * np.exp(1j * t * w)) @ v.conj().T
        return MixedState(3, u @ rho.matrix @ u.conj().T)

    theta = 0.1
    m = family(theta).matrix
    drho = 1j * (om @ m - m @ om)
    L_op = sld(family(theta), drho)
    wl, vl = np.linalg.eigh(L_op)
    povm = [np.outer(vl[:, i], vl[:, i].conj()) for i in range(vl.shape[1])]
    cfi = classical_fisher(povm, family, theta)
    fq = qfi_mixed(family(theta), sum_z(3)).value
    assert abs(cfi - fq) < 1e-6 * max(1.0, fq)


def test_qfi_equals_sld_second_moment(rng):
    # independent identity: F_Q = Tr(rho L^2) with the defining-equation SLD
    rho = random_mixed(rng, 3, rank=3)
    om = to_matrix(sum_z(3))
    drho = 1j * (om @ rho.matrix - rho.matrix @ om)
    L_op = sld(rho, drho)
    lhs = float(np.real(np.trace(rho.matrix @ L_op @ L_op)))
    rhs = qfi_mixed(rho, sum_z(3)).value
    assert abs(lhs - rhs) < 1e-8 * max(1.0, rhs)


def test_qfi_mixed_single_qubit_hand_value():
    # rho = diag(0.7, 0.3), O = X: 2 * 2 * (0.4)^2 / 1.0 = 0.64
    rho = MixedState(1, np.diag([0.7, 0.3]).astype(complex))
    got = qfi_mixed(rho, PauliOperator.single(1, 0, "X")).value
    assert abs(got - 0.64) < 1e-12


def test_optimal_observable_hermitian(rng):
    rho = random_mixed(rng, 2)
    om = to_matrix(sum_z(2))
    drho = 1j * (om @ rho.matrix - rho.matrix @ om)
    A = optimal_observable(rho, 0.2, 1.5, drho)
    assert np.max(np.abs(A - A.conj().T)) < 1e-10
    with pytest.raises(ValueError):
        optimal_observable(rho, 0.2, 0.0, drho)


def test_error_propagation_ghz_heisenberg_value():
    par = PauliOperator(6, [(1.0, "X" * 6)])
    dth = error_propagation(ghz_state(6), sum_z(6), par, 1e-4)
    assert abs(dth - 1.0 / 12.0) < 1e-5


def test_error_propagation_commuting_observable_sentinel():
    # readout commuting with the generator carries no signal
    dth = error_propagation(ghz_state(4), sum_z(4), sum_z(4), 0.1)
    assert math.isinf(dth)


def test_error_propagation_derivative_routes_agree(critical_states):
    st = critical_states(8).state
    gen = sum_z(8)
    par = PauliOperator(8, [(1.0, "X" * 8)])
    for theta in (1e-3, 0.2):
        fd = theta_derivative(st, gen, par, theta, method="fd")
        an = theta_derivative(st, gen, par, theta, method="analytic")
        assert abs(fd - an) < 1e-6 * max(1.0, abs(an))


def test_error_propagation_small_theta_saturates_bound(critical_states):
    st = critical_states(10).state
    gen = sum_z(10)
    par = PauliOperator(10, [(1.0, "X" * 10)])
    bound = 1.0 / math.sqrt(qfi_pure(st, gen))
    base = error_propagation(st, gen, par, 1e-4)
    assert abs(base - bound) / bound < 5e-3
    # quadratic approach: |dth(theta) - dth(0+)| <= c theta^2 with a stable c
    thetas = np.array([0.02, 0.04, 0.08])
    excess = np.array([error_propagation(st, gen, par, float(t)) - base for t in thetas])
    cs = excess / thetas**2
    assert np.all(cs > 0)
    assert cs.max() / cs.min() < 2.5  # consistent with a quadratic law


def test_cramer_rao_at_desk_scale(critical_states):
    st = critical_states(8).state
    gen = sum_z(8)
    par = PauliOperator(8, [(1.0, "X" * 8)])
    fq = qfi_pure(st, gen)
    for theta in (1e-4, 0.05, 0.3):
        assert error_propagation(st, gen, par, theta) >= 1.0 / math.sqrt(fq) - 1e-9


def test_classical_fisher_parity_identity(critical_states):
    st = critical_states(8).state
    gen = sum_z(8)
    par = PauliOperator(8, [(1.0, "X" * 8)])
    half = PauliOperator.identity(8, 0.5)
    povm = [half + 0.5 * par, half + (-0.5) * par]
    for theta in (1e-4, 0.02, 0.3):
        cfi = classical_fisher(povm, lambda t: evolve_phase(st, gen, t), theta)
        dth = error_propagation(st, gen, par, theta)
        assert abs(cfi - dth**-2) < 1e-10 * cfi


def test_classical_fisher_theta_independent_measurement():
    st = ghz_state(3)
    gen = sum_z(3)
    eye = PauliOperator.identity(3, 0.5)
    povm = [eye, eye]  # completeness holds; probabilities never move
    cfi = classical_fisher(povm, lambda t: evolve_phase(st, gen, t), 0.1)
    assert abs(cfi) < 1e-12


def test_classical_fisher_completeness_check():
    st = ghz_state(2)
    with pytest.raises(ValueError):
        classical_fisher(
            [PauliOperator.identity(2, 0.4)], lambda t: st, 0.0
        )


def test_symmetry_shortcut_consistency(critical_states):
    # <A>_theta equals s <psi|U(2 theta)^dag|psi> when A anticommutes with O
    sol = critical_states(8)
    st = sol.state
    gen = sum_z(8)
    par = PauliOperator(8, [(1.0, "X" * 8)])
    s = expectation(st, par).real
    for theta in (0.03, 0.2):
        lhs = expectation(evolve_phase(st, gen, theta), par).real
        shifted = evolve_phase(st, gen, 2.0 * theta)
        rhs = s * np.vdot(st.amplitudes, shifted.amplitudes).real
        assert abs(lhs - rhs) < 1e-10


def test_precision_curve_shape(critical_states):
    st = critical_states(6).state
    gen = sum_z(6)
    par = PauliOperator(6, [(1.0, "X" * 6)])
    curve = precision_curve(st, gen, par, np.linspace(0.01, 0.5, 20))
    assert curve.theta.size == 20
    assert np.all(curve.delta_theta >= 0)
    assert np.all(curve.variance >= 0)


def test_fn_sequence_monotone_sandwich(rng):
    gen = sum_z(3)
    for _ in range(100):
        rho = random_mixed(rng, 3, rank=4)
        fs = fn_sequence(rho, gen, 8)
        assert all(fs[i] <= fs[i + 1] + 1e-12 for i in range(8))
        assert all(fs[i + 1] <= 2.0 * fs[i] + 1e-12 for i in range(8))


def test_f0_identity_and_pure_d2(rng):
    gen = sum_z(3)
    for _ in range(20):
        rho = random_mixed(rng, 3, rank=3)
        fs = fn_sequence(rho, gen, 0)
        purity = float(np.real(np.vdot(rho.matrix, rho.matrix)))
        assert abs(fs[0] - d2(rho, gen) * purity) < 1e-10 * max(1.0, fs[0])
    st = spin_coherent_state(3)
    assert abs(d2(MixedState.from_pure(st), gen) - qfi_pure(st, gen)) < 1e-10


def test_fn_converges_to_qfi(rng):
    gen = sum_z(3)
    rho = random_mixed(rng, 3, rank=2)
    fs = fn_sequence(rho, gen, 4000)
    assert abs(fs[-1] - qfi_mixed(rho, gen).value) < 1e-8


def test_jeffreys_distance(rng):
    rho = random_mixed(rng, 2)
    sig = random_mixed(rng, 2)
    assert abs(jeffreys_n(rho, rho, 2)) < 1e-10
    assert jeffreys_n(rho, sig, 2) > 0.0
    with pytest.raises(ValueError):
        jeffreys_n(rho, sig, 1)


def test_d2_is_jeffreys_curvature(rng):
    # D2 equals the theta-curvature of the order-2 divergence along the
    # imprint family (direct expansion of both trace expressions)
    gen = sum_z(2)
    rho = random_mixed(rng, 2, rank=3)
    om = to_matrix(gen)
    w, v = np.linalg.eigh(om)

    def sigma(t):
        u = (v * np.exp(1j * t * w)) @ v.conj().T
        return MixedState(2, u @ rho.matrix @ u.conj().T)

    eps = 1e-4
    curv = (
        jeffreys_n(rho, sigma(eps), 2) + jeffreys_n(rho, sigma(-eps), 2)
    ) / eps**2
    assert abs(curv - d2(rho, gen)) < 1e-4 * max(1.0, abs(d2(rho, gen)))
