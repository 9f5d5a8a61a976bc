import math

import numpy as np
import pytest

from critsense import (
    CapacityError,
    MixedState,
    PauliOperator,
    PureState,
    apply_operator,
    dephase_normalize,
    evolve_phase,
    expectation,
    partial_trace,
    to_matrix,
    variance,
)
import critsense.qcore as qcore
from critsense.models import ghz_state, spin_coherent_state
from critsense.policy import POLICY, NumericPolicy

from conftest import sum_z
from oracles import kron_word, tfim_dense, ground_vec, expect, kron_op, Z


def test_to_matrix_single_z():
    assert np.allclose(to_matrix(PauliOperator.single(1, 0, "Z")), np.diag([1, -1]))


def test_to_matrix_xx_antidiagonal():
    m = to_matrix(PauliOperator.string(2, {0: "X", 1: "X"}))
    assert np.allclose(m, np.fliplr(np.eye(4)))


def test_to_matrix_matches_kron_expansion(rng):
    for _ in range(10):
        n = rng.integers(1, 5)
        words = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(3)]
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        op = PauliOperator(n, list(zip(coeffs, words)))
        want = sum(c * kron_word(w) for c, w in zip(coeffs, words))
        assert np.allclose(to_matrix(op), want, atol=1e-13)


def test_to_matrix_dense_cap():
    tight = NumericPolicy(dense_cap=3)
    with pytest.raises(CapacityError):
        to_matrix(PauliOperator.identity(4), policy=tight)


def test_expectation_basis_state():
    assert abs(expectation(PureState.from_basis(1, 0), PauliOperator.single(1, 0, "Z")) - 1) < 1e-15


def test_expectation_ghz_sum_z_vanishes():
    assert abs(expectation(ghz_state(4), sum_z(4))) < 1e-14


def test_expectation_tfim8_z0z3_frozen_oracle():
    # frozen from the dense-kron oracle; unique ground state at this size
    _, gs = ground_vec(tfim_dense(8))
    want = expect(gs, kron_op(8, {0: Z, 3: Z}))
    assert abs(want - 0.519776655638314) < 1e-12
    from critsense import ModelSpec, solve_model

    sol = solve_model(ModelSpec(kind="tfim", L=8))
    got = expectation(sol.state, PauliOperator.string(8, {0: "Z", 3: "Z"})).real
    assert abs(got - want) < 1e-10


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(ghz_state(3), sum_z(4))


def test_expectation_linearity(rng):
    st = ghz_state(3)
    a = PauliOperator.string(3, {0: "X", 1: "Y"})
    b = PauliOperator.string(3, {2: "Z"})
    al, be = 0.7, -1.3 + 0.4j
    lhs = expectation(st, al * a + be * b)
    rhs = al * expectation(st, a) + be * expectation(st, b)
    assert abs(lhs - rhs) < 1e-12


def test_variance_ghz_and_coherent():
    assert abs(variance(ghz_state(4), sum_z(4)) - 16.0) < 1e-12
    assert abs(variance(spin_coherent_state(4), sum_z(4)) - 4.0) < 1e-12


def test_variance_eigenstate_zero():
    assert abs(variance(PureState.from_basis(3, 5), sum_z(3))) < 1e-14


def test_variance_rejects_non_hermitian():
    with pytest.raises(ValueError):
        variance(ghz_state(2), PauliOperator.string(2, {0: "X"}, coeff=1j))


def test_variance_nonnegative_random(rng):
    for _ in range(20):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        st = PureState(3, v / np.linalg.norm(v))
        assert variance(st, sum_z(3)) >= -1e-10


def test_evolve_phase_identity_at_zero():
    st = ghz_state(3)
    assert evolve_phase(st, sum_z(3), 0.0) is st


def test_evolve_phase_diagonal_phases():
    plus = PureState(1, np.array([1, 1]) / math.sqrt(2))
    out = evolve_phase(plus, PauliOperator.single(1, 0, "Z"), math.pi / 2)
    want = np.array([np.exp(1j * math.pi / 2), np.exp(-1j * math.pi / 2)]) / math.sqrt(2)
    assert np.allclose(out.amplitudes, want, atol=1e-15)


def test_evolve_phase_norm_and_variance_invariance(rng):
    st = spin_coherent_state(4)
    gen = sum_z(4)
    for theta in (0.1, 0.7, 2.0):
        out = evolve_phase(st, gen, theta)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
        assert abs(variance(out, gen) - variance(st, gen)) < 1e-10


def test_evolve_phase_general_generator_matches_dense():
    # X-sum generator exercises the Krylov path
    gen = PauliOperator(3, [(1.0, "XII"), (1.0, "IXI"), (1.0, "IIX")])
    st = ghz_state(3)
    out = evolve_phase(st, gen, 0.3)
    from scipy.linalg import expm

    want = expm(0.3j * to_matrix(gen)) @ st.amplitudes
    assert np.allclose(out.amplitudes, want, atol=1e-10)


def test_apply_operator_identity():
    st = ghz_state(3)
    assert np.allclose(apply_operator(PauliOperator.identity(3), st), st.amplitudes)


def test_partial_trace_ghz():
    red = partial_trace(MixedState.from_pure(ghz_state(3)), [0, 1])
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = 0.5
    assert np.allclose(red.matrix, want, atol=1e-14)


def test_partial_trace_unit_trace_random(rng):
    for _ in range(5):
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        st = PureState(4, v / np.linalg.norm(v))
        red = partial_trace(MixedState.from_pure(st), [1, 3])
        assert abs(np.trace(red.matrix) - 1.0) < 1e-12


def test_partial_trace_site_order():
    # |01> on sites (0,1): keeping [1,0] must transpose the factors
    st = PureState.from_basis(2, 0b01)
    red = partial_trace(MixedState.from_pure(st), [1, 0])
    want = np.zeros((4, 4))
    want[0b10, 0b10] = 1.0
    assert np.allclose(red.matrix, want, atol=1e-14)


def test_partial_trace_kept_operator_consistency(rng):
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    st = PureState(4, v / np.linalg.norm(v))
    rho = MixedState.from_pure(st)
    red = partial_trace(rho, [0, 2])
    op_red = PauliOperator.string(2, {0: "Z", 1: "X"})
    op_full = PauliOperator.string(4, {0: "Z", 2: "X"})
    lhs = np.trace(red.matrix @ to_matrix(op_red))
    rhs = expectation(st, op_full)
    assert abs(lhs - rhs) < 1e-12


def test_from_pure_dtype_follows_amplitudes():
    real = MixedState.from_pure(ghz_state(3))
    assert real.matrix.dtype == np.float64
    phased = evolve_phase(ghz_state(3), sum_z(3), 0.3)
    cplx = MixedState.from_pure(phased)
    assert cplx.matrix.dtype == np.complex128
    amp = phased.amplitudes
    assert np.max(np.abs(cplx.matrix - np.outer(amp, amp.conj()))) == 0.0


def test_from_pure_refuses_over_dense_cap(monkeypatch):
    # a tight cap keeps the refused outer product small should the check regress
    monkeypatch.setattr(qcore, "POLICY", NumericPolicy(dense_cap=3))
    with pytest.raises(CapacityError):
        MixedState.from_pure(spin_coherent_state(4))


@pytest.mark.parametrize("make", [ghz_state, spin_coherent_state])
def test_probe_states_refuse_over_sparse_cap(make):
    with pytest.raises(CapacityError):
        make(POLICY.sparse_cap + 1)


def test_spectrum_of_real_state_is_real(rng):
    g = rng.standard_normal((16, 16))
    m = g @ g.T
    rho = MixedState(4, m / np.trace(m))
    w, v = rho.spectrum()
    assert rho.matrix.dtype == np.float64 and v.dtype == np.float64
    assert np.max(np.abs(w - np.linalg.eigvalsh(rho.matrix.astype(np.complex128)))) < 1e-13
    assert np.max(np.abs(rho.matrix @ v - v * w)) < 1e-13


@pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "general"])
def test_mixed_imprint_rotates_cached_spectrum(rng, diagonal):
    L = 3
    g = rng.standard_normal((8, 8))
    m = g @ g.T
    rho = MixedState(L, m / np.trace(m))
    gen = sum_z(L) if diagonal else PauliOperator(L, [(0.7, "XII"), (0.2, "IYZ")])
    lam, _ = rho.spectrum()
    out = evolve_phase(rho, gen, 0.3)
    assert out.matrix.dtype == np.complex128
    w, u = np.linalg.eigh(to_matrix(gen))
    uu = (u * np.exp(0.3j * w)) @ u.conj().T
    assert np.max(np.abs(out.matrix - uu @ rho.matrix @ uu.conj().T)) < 1e-13
    assert out._spectrum is not None
    w_out, v_out = out.spectrum()
    assert np.array_equal(w_out, lam)
    assert np.max(np.abs(out.matrix @ v_out - v_out * w_out)) < 1e-13


def test_dephase_normalize_zero_vector():
    with pytest.raises(ValueError):
        dephase_normalize(np.zeros(4), 2)


def test_dephase_normalize_fixes_global_phase(rng):
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    a = dephase_normalize(v, 3)
    b = dephase_normalize(np.exp(0.73j) * v, 3)
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-14)


def test_pure_state_norm_validation():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))


def test_mixed_state_validation():
    with pytest.raises(ValueError):
        MixedState(1, np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        MixedState(1, np.diag([0.8, 0.8]).astype(complex))  # trace != 1


def test_pauli_terms_merge():
    op = PauliOperator(2, [(1.0, "ZZ"), (2.0, "ZZ"), (1.0, "XI"), (-1.0, "XI")])
    assert op.terms == ((3.0, "ZZ"),)


def test_pauli_hermitian_flag():
    assert PauliOperator(2, [(1.0, "XY")]).is_hermitian
    assert not PauliOperator(2, [(1j, "XY")]).is_hermitian
