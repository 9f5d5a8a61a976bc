import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from critsense import (
    CapacityError,
    MixedState,
    PauliOperator,
    PureState,
    dephase_normalize,
    evolve_phase,
    expectation,
    partial_trace,
    to_matrix,
    variance,
)
import critsense.qcore as qcore
from critsense.models import (
    ModelSpec, build_hamiltonian, ghz_state, solve_model, spin_coherent_state,
)
from critsense.policy import POLICY, NumericPolicy
from critsense.symmetry import build_symmetry

from conftest import sum_z
from oracles import (
    kron_word, tfim_dense, ground_vec, expect, kron_op, Z,
    diagonal_exponential, diagonal_imprint, flip_apply_vec, flip_orbit_isometry,
    gathered_group_average, permutation, permutation_orbit_isometry, register_group_terms,
    register_readers, symmetry_arrays,
)
from critsense.subsys import make_ising_protocol


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


def test_to_matrix_dense_cap(monkeypatch):
    monkeypatch.setattr(qcore, "POLICY", replace(qcore.POLICY, dense_cap=3))
    with pytest.raises(CapacityError):
        to_matrix(PauliOperator.identity(4))
    to_matrix(PauliOperator.identity(3))


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
    rho = MixedState.from_pure(ghz_state(3))
    op = sum_z(4)
    for form in (op, op.to_sparse(), to_matrix(op), build_symmetry("parity_x", 4)):
        for state in (ghz_state(3), rho):
            with pytest.raises(ValueError, match="register size mismatch"):
                expectation(state, form)
            with pytest.raises(ValueError, match="register size mismatch"):
                variance(state, form)


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
    with pytest.raises(ValueError, match="Hermitian"):
        variance(ghz_state(4), build_symmetry("translation", 4))


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
    assert np.allclose(PauliOperator.identity(3) @ st.amplitudes, st.amplitudes)


def test_partial_trace_ghz():
    red = partial_trace(MixedState.from_pure(ghz_state(3)), [0, 1])
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = 0.5
    assert np.allclose(red.matrix, want, atol=1e-14)


def test_empty_register_refused():
    # a 0-qubit state would have no basis-index bits for spectrum() to read
    with pytest.raises(ValueError, match="n_qubits must be >= 1"):
        MixedState(0, np.ones((1, 1)))
    with pytest.raises(ValueError, match="kept_sites must name at least one site"):
        partial_trace(MixedState.from_pure(ghz_state(2)), [])


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
    # the imprint is U rho U^dagger, a new state whose spectrum is its own
    gen = sum_z(L) if diagonal else PauliOperator(L, [(0.7, "XII"), (0.2, "IYZ")])
    out = evolve_phase(rho, gen, 0.3)
    assert out.matrix.dtype == np.complex128
    w, u = np.linalg.eigh(to_matrix(gen))
    uu = (u * np.exp(0.3j * w)) @ u.conj().T
    assert np.max(np.abs(out.matrix - uu @ rho.matrix @ uu.conj().T)) < 1e-13
    w_out, v_out = out.spectrum()
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


def test_state_checks_refuse_nan():
    # a NaN compares False with every tolerance, so each check must fail on it
    with pytest.raises(ValueError, match=r"state norm .*nan.* deviates from 1"):
        PureState(2, np.array([np.nan, 0.0, 0.0, 0.0]))
    for mat in (np.diag([np.nan, 1.0]), np.array([[0.5, np.nan], [np.nan, 0.5]]),
                np.diag([np.inf, 1.0])):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not Hermitian: max deviation nan"):
            MixedState(1, mat)  # inf - inf is NaN


def test_pauli_terms_merge():
    op = PauliOperator(2, [(1.0, "ZZ"), (2.0, "ZZ"), (1.0, "XI"), (-1.0, "XI")])
    assert op.terms == ((3.0, "ZZ"),)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, math.nan)])
def test_pauli_refuses_a_non_finite_coefficient(bad):
    # abs(nan) > 1e-15 is False: a NaN term would be dropped as if zero
    with pytest.raises(ValueError, match="'ZZ' is not finite"):
        PauliOperator(2, [(bad, "ZZ"), (1.0, "XI")])
    with pytest.raises(ValueError, match="'XI' is not finite"):
        bad * PauliOperator(2, [(1.0, "XI")])


def test_pauli_hermitian_flag():
    assert PauliOperator(2, [(1.0, "XY")]).is_hermitian
    assert not PauliOperator(2, [(1j, "XY")]).is_hermitian


# -- grouped form against the per-string reference and the Kronecker oracle --

_COEFFS = st.one_of(
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def pauli_sums(draw):
    """(n, raw terms): up to six strings, optionally a cancelling pair and the identity."""
    n = draw(st.integers(1, 6))
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(_COEFFS, words), max_size=6))
    if terms and draw(st.booleans()):
        coeff, word = terms[0]
        terms.append((-coeff, word))
    if draw(st.booleans()):
        terms.append((draw(_COEFFS), "I" * n))
    return n, terms


_EDGE_SUMS = [
    (1, []),                                      # empty operator
    (1, [(0.5, "I")]),                            # identity, one qubit
    (1, [(1.0, "Y"), (0.3j, "Z")]),               # odd-Y string, complex diagonal
    (3, [(1.0, "XYZ"), (-1.0, "XYZ")]),           # cancels to zero
    (3, [(0.7, "XYI"), (-0.7, "YXI")]),           # Hermitian with an imaginary matrix
    (4, [(1.0, "XXII"), (1.0, "YYII"), (0.4, "ZZII"), (2.0, "IIII")]),
]


def _string_sum_apply(op, vec):
    out = np.zeros(vec.shape, dtype=np.complex128)
    for coeff, letters in op.terms:
        perm, phase = qcore._string_action(letters)
        out[perm] += coeff * (phase * vec)
    return out


def _kron_matrix(op):
    dim = 1 << op.n_qubits
    return sum((c * kron_word(w) for c, w in op.terms), np.zeros((dim, dim), dtype=complex))


def _with_edges(test):
    for n, terms in _EDGE_SUMS:
        test = example((n, terms))(test)
    return test


def _random_state(n, seed):
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(1 << n) + 1j * gen.standard_normal(1 << n)
    g = gen.standard_normal((1 << n, 1 << n)) + 1j * gen.standard_normal((1 << n, 1 << n))
    rho = g @ g.conj().T
    return v, 0.5 * (rho + rho.conj().T) / np.trace(rho).real


@_with_edges
@given(pauli_sums())
def test_grouped_apply_vec_matches_string_sum(case):
    n, terms = case
    op = PauliOperator(n, terms)
    v, _ = _random_state(n, len(terms))
    want = _string_sum_apply(op, v)
    assert np.max(np.abs(op.apply_vec(v) - want), initial=0.0) < 1e-12
    assert np.max(np.abs(op.apply_vec(v) - _kron_matrix(op) @ v), initial=0.0) < 1e-12
    real = v.real.copy()
    out = op.apply_vec(real)
    assert out.dtype == op.to_sparse().dtype
    assert np.max(np.abs(out - _string_sum_apply(op, real)), initial=0.0) < 1e-12


@_with_edges
@given(pauli_sums())
def test_grouped_to_sparse_matches_kron_oracle(case):
    n, terms = case
    op = PauliOperator(n, terms)
    mat = op.to_sparse()
    want = _kron_matrix(op)
    assert np.max(np.abs(mat.toarray() - want)) < 1e-12
    # a real operator yields a real matrix, and only a real operator does
    assert (mat.dtype == np.float64) == (not np.any(want.imag))
    assert mat.dtype in (np.float64, np.complex128)
    assert mat.has_canonical_format and not np.any(mat.data == 0)


@_with_edges
@given(pauli_sums())
def test_grouped_mixed_expectation_matches_trace(case):
    n, terms = case
    op = PauliOperator(n, terms)
    _, rho = _random_state(n, 7 + len(terms))
    got = expectation(MixedState(n, rho), op)
    assert abs(got - np.trace(rho @ _kron_matrix(op))) < 1e-12
    ref = sum(
        c * np.sum(qcore._string_action(w)[1] * rho[np.arange(1 << n), qcore._string_action(w)[0]])
        for c, w in op.terms
    )
    assert abs(got - ref) < 1e-12


@_with_edges
@given(pauli_sums())
def test_grouped_diagonal_matches_oracle(case):
    n, terms = case
    diag_terms = [(c, w.replace("X", "Z").replace("Y", "I")) for c, w in terms]
    op = PauliOperator(n, diag_terms)
    d = op.diagonal()
    assert np.max(np.abs(d - np.diag(_kron_matrix(op)))) < 1e-12
    assert d.dtype == op.to_sparse().dtype
    assert not d.flags.writeable


def test_diagonal_is_read_only():
    op = sum_z(4)
    d = op.diagonal()
    assert d.dtype == np.float64 and not d.flags.writeable
    with pytest.raises(ValueError):
        d[0] = 1.0
    with pytest.raises(ValueError):
        PauliOperator(2, [(1.0, "XZ")]).diagonal()
    with pytest.raises(ValueError):
        PauliOperator(2, [(1.0, "XZ")]).phase_table()


# -- the phase table of a diagonal operator ------------------------------

_SCALES = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-3.0, 3.0, allow_nan=False).map(lambda x: 1j * x),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def diagonal_sums(draw, coeffs=_COEFFS):
    """(n, raw terms): up to six I/Z strings on n <= 6 qubits."""
    n = draw(st.integers(1, 6))
    words = st.text(alphabet="IZ", min_size=n, max_size=n)
    return n, draw(st.lists(st.tuples(coeffs, words), max_size=6))


def _same_bits(got, want):
    """Equal dtype and equal bit patterns, so that signed zeros count."""
    return got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@example((1, []), 0.5j)
@example((4, [(0.5, "ZIII"), (0.5, "IZII"), (0.5, "IIZI"), (0.5, "IIIZ")]), -0.3j)
@example((5, [(0.5, "ZIIII"), (-0.5, "IIZII"), (0.5, "IIIIZ"), (1.0, "ZIZIZ")]), 0.7j)  # scattered
@example((5, [(1.0, "IIIIZ")]), -1.1j)                                              # last site
@example((5, [(0.3, "ZIIII")]), 2.0 + 0.4j)                                         # first site
@example((4, [(1.0, "ZZZZ"), (0.25, "IIII")]), 0.9j)                                # full register
@given(diagonal_sums(), _SCALES)
def test_phase_table_exponential_is_bit_exact(case, scale):
    n, terms = case
    op = PauliOperator(n, terms)
    d = op.diagonal()
    values, index = op.phase_table()
    assert op.phase_table()[0] is values
    assert np.array_equal(op._register(values[index]), d)
    assert len(set(values.tolist())) == values.size
    assert index.dtype == np.uint8
    gen = np.random.default_rng(len(terms))
    real = gen.standard_normal(1 << n)
    for vec in (real, real + 1j * gen.standard_normal(1 << n)):
        want = diagonal_exponential(d, scale, vec)
        assert _same_bits(qcore.apply_exponential(op, scale, vec), want)
        # the form the theta loop calls: the product written into a buffer
        out = np.full_like(want, np.nan)
        assert qcore.apply_exponential(op, scale, vec, out=out) is out
        assert _same_bits(out, want)


@given(diagonal_sums(st.floats(-2.0, 2.0, allow_nan=False)),
       st.floats(-3.0, 3.0, allow_nan=False).filter(lambda t: t != 0.0))
def test_phase_table_mixed_imprint_is_bit_exact(case, theta):
    n, terms = case
    op = PauliOperator(n, terms)
    _, rho = _random_state(n, 11 + len(terms))
    got = evolve_phase(MixedState(n, rho), op, theta).matrix
    assert _same_bits(got, diagonal_imprint(rho, op.diagonal(), theta))


# -- the coalesced-view apply_vec against the (2,) * n flip route -------------

_FLIP_EXAMPLES = [
    (4, [(1.0, "IXXI")]),                            # one contiguous run, +1
    (5, [(-1.0, "XIXIX")]),                          # scattered mask, -1
    (3, [(1.0, "XXX")]),                             # full mask
    (3, [(0.5, "ZIZ")]),                             # empty mask, one diagonal group
    (3, [(0.5j, "ZIZ"), (0.3, "IZI")]),              # complex diagonal: phase times amplitude
    (4, [(1.0, "XXII"), (-1.0, "IIXX")]),            # two +-1 scalar groups
    (4, [(1.0, "YZZX"), (0.5j, "XIIX"), (0.2, "ZIIZ")]),  # vector, complex and diagonal groups
    (2, [(2.0, "XX"), (-0.5, "IX")]),                # scalar phases other than +-1
    (2, [(1.0, "XI")]),                              # 0 + x on a signed zero, real or complex
    (2, [(-1.0, "XI")]),                             # 0 - x on a signed zero
    (2, [(1.0, "IX")]),
]


def _with_flip_examples(test):
    for n, terms in _EDGE_SUMS + _FLIP_EXAMPLES:
        test = example((n, terms))(test)
    return test


def _vectors_with_signed_zeros(n, seed):
    """A real vector, a complex one and (2^n, 3) blocks of both, with -0.0
    and +0.0 in some real and some imaginary parts, both parts -0.0 in
    some amplitudes."""
    gen = np.random.default_rng(seed)
    real = gen.standard_normal((1 << n, 3))
    imag = gen.standard_normal((1 << n, 3))
    real[::3], real[1::5] = -0.0, 0.0
    imag[::2], imag[3::5] = -0.0, 0.0
    cplx = np.empty(real.shape, dtype=complex)  # real + 1j * imag would lose the -0.0
    cplx.real, cplx.imag = real, imag
    return real[:, 0].copy(), cplx[:, 0].copy(), real, cplx


@_with_flip_examples
@given(pauli_sums())
def test_apply_vec_matches_the_flip_route_bit_for_bit(case):
    n, terms = case
    op = PauliOperator(n, terms)
    for vec in _vectors_with_signed_zeros(n, len(terms)):
        want = flip_apply_vec(op, vec)
        assert _same_bits(op.apply_vec(vec), want)
        out = np.full_like(want, np.nan)
        assert op.apply_vec(vec, out=out) is out
        assert _same_bits(out, want)


@st.composite
def wide_pauli_sums(draw):
    """(n, raw terms): up to twelve strings with Y letters on n <= 8 qubits,
    complex coefficients, Z terms that widen a group's sites one by one."""
    n = draw(st.integers(1, 8))
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    return n, draw(st.lists(st.tuples(_COEFFS, words), max_size=12))


@_with_flip_examples
@example((6, [(0.5, "IIIIZZ"), (0.5, "IIIZZI"), (0.5, "IIZZII"), (0.5, "IZZIII"),
              (0.5, "ZZIIII"), (0.5, "ZIIIIZ"), (0.3, "IIIIIZ")]))  # a ring of bonds
@example((5, [(1.0 + 0.5j, "ZIIIZ"), (-0.25j, "IIZII"), (0.75, "ZIZIZ")]))  # complex, scattered
@example((4, [(0.5, "YZIY"), (-0.5j, "XZIX"), (0.25, "YIZX")]))  # one flip group, Y and Z signs
@given(wide_pauli_sums())
def test_grouped_phases_match_the_register_formula_bit_for_bit(case):
    """The phase tables, broadcast over their views, give the grouped form
    the whole-register +-1 vectors gave (``oracles.register_group_terms``):
    the same masks, views and real flag, each scalar phase equal and each
    table, 2^len on its touched runs and 1 elsewhere, read-only and of the
    same dtype and bits as the vector once broadcast."""
    n, terms = case
    op = PauliOperator(n, terms)
    got, want = qcore._group_terms(n, op.terms), register_group_terms(n, op.terms)
    assert (got.masks, got.views, got.real) == (want.masks, want.views, want.real)
    for a, b, (shape, _) in zip(got.phases, want.phases, got.views):
        assert np.isscalar(a) == np.isscalar(b)
        if np.isscalar(a):
            assert type(a) is type(b) and _same_bits(np.atleast_1d(a), np.atleast_1d(b))
        else:
            assert a.ndim == len(shape) and all(t in (1, s) for t, s in zip(a.shape, shape))
            assert a.size < b.size or a.shape == shape
            assert _same_bits(np.broadcast_to(a, shape).reshape(-1), b)
            assert not a.flags.writeable


def test_grouped_views_coalesce_runs_of_sites():
    # a view splits where the flip mark or the touched mark (a Z or Y letter
    # in some term of the group) changes
    form = PauliOperator(6, [(1.0, "IXXIIX"), (0.5, "IXYIIX"), (1.0, "ZIIIII"),
                             (1.0, "XXXXXX")])._grouped()
    flip, keep = slice(None, None, -1), slice(None, None, 1)
    assert form.masks == (0, 0b011001, 0b111111)
    assert form.views == (((2, 32), (keep, keep)),
                          ((2, 2, 2, 4, 2), (keep, flip, flip, keep, flip)),
                          ((64,), (flip,)))
    assert [np.shape(p) for p in form.phases] == [(2, 1), (1, 1, 2, 1, 1), ()]


def _same_csr(got, want):
    return got.shape == want.shape and all(
        getattr(got, a).dtype == getattr(want, a).dtype
        and getattr(got, a).tobytes() == getattr(want, a).tobytes()
        for a in ("indptr", "indices", "data"))


def _with_reader_examples(test):
    for n, terms in _EDGE_SUMS + _FLIP_EXAMPLES:
        test = example((n, terms), 0.7j, 3)(test)
    return test


@_with_reader_examples
@example((6, [(0.5, "IIIIZZ"), (0.5, "IIIZZI"), (0.5, "IIZZII"), (0.5, "IZZIII"),
              (0.5, "ZZIIII"), (0.5, "ZIIIIZ"), (0.3, "IIIIIZ")]), -1.3j, 5)  # a full table
@example((5, [(1.0 + 0.5j, "ZIIIZ"), (-0.25j, "IIZII"), (0.75, "ZIZIZ")]), 0.4 - 0.2j, 6)
@given(wide_pauli_sums(), _SCALES, st.integers(0, 2**16))
def test_table_readers_match_the_register_vectors_bit_for_bit(case, scale, seed):
    """Every reader of the phase tables gives what it gave on whole-register
    phase vectors (``oracles.register_readers``) bit for bit: ``apply_vec``
    on vectors and (2^n, 3) blocks, real and complex, with and without
    ``out``; ``to_sparse`` on a subset of rows and on all; the mixed-state
    ``expectation`` and ``trace_product``; and, for the operator's diagonal
    part (X to Z, Y to I), ``diagonal``, ``phase_table`` and
    ``apply_exponential``."""
    n, terms = case
    gen = np.random.default_rng(seed)
    diag_terms = [(c, w.replace("X", "Z").replace("Y", "I")) for c, w in terms]
    vectors = _vectors_with_signed_zeros(n, seed)
    _, rho = _random_state(n, seed)
    mixed = MixedState(n, rho)
    for op in (PauliOperator(n, terms), PauliOperator(n, diag_terms)):
        want = register_readers(op)
        for vec in vectors:
            w = want["apply_vec"](vec)
            assert _same_bits(op.apply_vec(vec), w)
            out = np.full_like(w, np.nan)
            assert op.apply_vec(vec, out=out) is out and _same_bits(out, w)
        rows = np.flatnonzero(gen.random(1 << n) < 0.5)
        assert _same_csr(op.to_sparse(rows), want["to_sparse"](rows))
        assert _same_csr(op.to_sparse(), want["to_sparse"](np.arange(1 << n)))
        for got, w in ((expectation(mixed, op), want["expectation"](mixed.matrix)),
                       (qcore.trace_product(mixed, op, op), want["trace_product"](mixed.matrix))):
            assert _same_bits(np.array([got]), np.array([w]))
        if not op.is_diagonal:
            continue
        d = want["diagonal"]()
        assert _same_bits(op.diagonal(), d)
        values, index = op.phase_table()
        want_values, inverse = want["phase_table"]()
        assert _same_bits(values, want_values) and index.dtype == inverse.dtype
        assert np.array_equal(op._register(index), inverse)
        for vec in vectors:
            w = diagonal_exponential(d if vec.ndim == 1 else d[:, None], scale, vec)
            assert _same_bits(qcore.apply_exponential(op, scale, vec), w)
            out = np.full_like(w, np.nan)
            assert qcore.apply_exponential(op, scale, vec, out=out) is out
            assert _same_bits(out, w)


def _held(run):
    """(bytes still allocated after ``run``, peak bytes during it)."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_grouped_form_holds_only_the_touched_tables():
    # the XXZ chain's 20 bond groups each touch two sites: 4-entry tables,
    # where one vector over the register each held 160 MiB
    op = build_hamiltonian(ModelSpec(kind="xxz", L=20))
    held, _ = _held(op._grouped)
    assert len(op._grouped().masks) == 20 and held < 1 << 20


def test_block_imprinter_holds_only_its_support_table():
    # the L_sub = 8 block of a 20-site register: 2^8 table entries, no
    # 2^20 diagonal, cast or index kept once every reader has run
    gen = make_ising_protocol(20, 8).imprinter
    vec = np.ones(1 << 20, dtype=complex)
    out = np.empty_like(vec)

    def warm():
        gen.phase_table()
        gen.apply_vec(vec, out=out)
        qcore.apply_exponential(gen, 0.3j, vec, out=out)

    held, peak = _held(warm)
    assert held < 1 << 20 and peak < 1 << 20
    assert gen.phase_table()[1].size == 1 << 8


def test_to_sparse_dtype_follows_operator():
    real = PauliOperator(3, [(1.0, "XXI"), (1.0, "YYI"), (0.5, "ZZI"), (1j, "XYI")])
    assert real.to_sparse().dtype == np.float64
    cplx = PauliOperator(3, [(1.0, "XYI"), (-1.0, "YXI")])
    assert cplx.to_sparse().dtype == np.complex128
    assert PauliOperator(2).to_sparse().dtype == np.float64
    assert PauliOperator(2).to_sparse().nnz == 0


def test_string_action_cache_still_reports():
    info = qcore._string_action.cache_info()
    assert info.maxsize == 256


@pytest.mark.parametrize("dim", [1, 8, 130, 300])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_hermitian_deviation_equals_full_check(rng, dim, cplx):
    g = rng.standard_normal((dim, dim)) + (1j * rng.standard_normal((dim, dim)) if cplx else 0.0)
    m = g + g.conj().T
    # one asymmetric entry per corner tile, the largest in a lower off-diagonal tile
    m[dim - 1, 0] += 3e-9
    m[0, dim - 1] += 1e-9
    m[dim // 2, dim // 2] += 2e-9j if cplx else 0.0
    want = np.max(np.abs(m - m.conj().T))
    assert qcore._deviations(m) == (want, None, None)


def test_mixed_state_rejects_far_tile_asymmetry():
    dim = 512
    rho = np.eye(dim) / dim
    rho[400, 3] = 1e-6  # lower triangle, two tiles away from the diagonal
    with pytest.raises(ValueError, match="not Hermitian"):
        MixedState(9, rho)
    rho = np.eye(dim, dtype=complex) / dim
    rho[200, 200] += 1e-6j  # diagonal tile, imaginary diagonal entry
    with pytest.raises(ValueError, match="not Hermitian"):
        MixedState(9, rho)


# -- the operator protocol: op @ x on a vector or a column block ----------

@_with_edges
@given(pauli_sums())
def test_matmul_block_matches_columns_and_matrix(case):
    n, terms = case
    op = PauliOperator(n, terms)
    gen = np.random.default_rng(len(terms))
    for k in (1, 3):
        real = gen.standard_normal((1 << n, k))
        for block in (real, real + 1j * gen.standard_normal((1 << n, k))):
            got = op @ block
            cols = np.stack([op.apply_vec(block[:, i]) for i in range(k)], axis=1)
            assert got.shape == block.shape and got.dtype == cols.dtype
            assert np.array_equal(got, cols)
            assert np.max(np.abs(got - to_matrix(op) @ block), initial=0.0) < 1e-12


def test_single_diagonal_group_allocates_only_its_result(rng):
    # the spectral QFI applies a diagonal generator to all dim eigenvectors:
    # one dim x k result, no accumulation buffer beside it
    op = sum_z(10)
    vec = rng.standard_normal(1 << 10)
    block = rng.standard_normal((1 << 10, 64))
    d = op.diagonal()
    assert np.array_equal(op @ vec, d * vec) and (op @ vec).dtype == np.float64
    assert np.array_equal(PauliOperator.identity(10, 0.5) @ vec, 0.5 * vec)
    tracemalloc.start()
    try:
        got = op @ block
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, d[:, None] * block)
    assert peak < 1.5 * block.nbytes


@pytest.mark.parametrize("L", [3, 4, 5])
def test_symmetry_matmul_block_matches_sparse(rng, L):
    syms = [build_symmetry(k, L) for k in ("parity_x", "parity_z", "translation")]
    syms.append(build_symmetry("reflection", L, bond_center=1))
    dim = 1 << L
    for sym in syms:
        mat = sym.to_sparse()
        assert sym.shape == mat.shape
        for k in (1, 3):
            real = rng.standard_normal((dim, k))
            for block in (real, real + 1j * rng.standard_normal((dim, k))):
                assert np.max(np.abs(sym @ block - mat @ block)) < 1e-15
                assert np.max(np.abs(sym @ block[:, 0] - mat @ block[:, 0])) < 1e-15


# -- orbit isometries -------------------------------------------------------

def _flip_groups(n):
    """(masks, charges) of the product-of-X parity and, on an even register,
    the cluster ladder's two interleaved chain parities, every character."""
    full = (1 << n) - 1
    cases = [([full], [m]) for m in (0, 1)]
    if n % 2 == 0:
        chain = int("10" * (n // 2), 2)
        cases += [([chain, chain >> 1], [m1, m2]) for m1 in (0, 1) for m2 in (0, 1)]
    return cases


def _x_string(n, mask):
    """The I/X letter string of a flip mask, site 0 the most significant bit."""
    return format(mask, f"0{n}b").translate(str.maketrans("01", "IX"))


@pytest.mark.parametrize("n", range(2, 13))
def test_orbit_isometry_reproduces_the_flip_only_isometry(n):
    """For a free XOR action the general construction gives the flip-only
    isometry, representatives and scale, float for float: the
    pure-state sector solves read exactly what they read before."""
    for masks, charges in _flip_groups(n):
        group = {0: 1.0}
        for mask, m in zip(masks, charges):
            group.update({g ^ mask: c * (1.0 - 2.0 * m) for g, c in list(group.items())})
        want_P, want_reps, want_scale = flip_orbit_isometry(n, group)
        P, reps, norms = qcore._orbit_isometry(n, [_x_string(n, mask) for mask in masks], charges)
        assert P.dtype == want_P.dtype == np.float64
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(P, attr), getattr(want_P, attr)), (masks, attr)
        assert P.shape == want_P.shape
        assert np.array_equal(reps, want_reps)
        assert np.all(norms == want_scale)


def _generator_sets(n):
    """The generator sets the sector paths build, as ``charge`` names: T,
    the product-of-X parity, T x parity and, on an even register, the two
    interleaved chain parities of ``models._sector_block``."""
    sets = [("translation",), ("X" * n,), ("translation", "X" * n)]
    if n % 2 == 0:
        sets.append(("XI" * (n // 2), "IX" * (n // 2)))
    return sets


def _same_isometry(got, want):
    P, reps, norms = got
    Q, want_reps, want_norms = want
    assert P.shape == Q.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(P, attr), getattr(Q, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
    assert reps.dtype == want_reps.dtype and np.array_equal(reps, want_reps)
    assert norms.dtype == want_norms.dtype and norms.tobytes() == want_norms.tobytes()


@given(st.integers(1, 12), st.data())
def test_orbit_isometry_word_walk_matches_the_permutation_arrays(n, data):
    """The in-place word walk on the generator names gives the isometry the
    int64 permutation arrays gave (``oracles.permutation_orbit_isometry``),
    bit for bit, for every character of every generator set the callers
    build, and of a few drawn X-strings (the identity string included)."""
    sets = _generator_sets(n)
    drawn = data.draw(st.lists(st.text(alphabet="IX", min_size=n, max_size=n),
                               min_size=1, max_size=3))
    for group in sets + [tuple(drawn)]:
        perms = [permutation(n, name) for name in group]
        orders = [qcore._order(n, name) for name in group]
        for charges in itertools.product(*(range(order) for order in orders)):
            _same_isometry(qcore._orbit_isometry(n, group, charges),
                           permutation_orbit_isometry(n, perms, charges))


def test_orbit_isometry_word_walk_at_twenty_sites():
    """The ground solve's (k = 0, +) block at L = 20, the north-star size,
    where the walk runs on uint32 images."""
    n, group = 20, ("translation", "X" * 20)
    perms = [permutation(n, name) for name in group]
    _same_isometry(qcore._orbit_isometry(n, group, (0, 0)),
                   permutation_orbit_isometry(n, perms, (0, 0)))


def test_sector_paths_build_no_permutation_array():
    """A T x prod-X ground solve and the mixed sector spectrum of its state
    run on index arithmetic alone: ``qcore`` has no permutation builder left
    (its formula is ``oracles.permutation``), and both still succeed."""
    assert not hasattr(qcore, "_permutation")
    qcore.sector_isometry.cache_clear()
    try:
        sol = solve_model(ModelSpec("tfim", L=8))
        blocks = MixedState.from_pure(sol.state).sector_spectrum()
    finally:
        qcore.sector_isometry.cache_clear()
    assert blocks[0].sector == (("translation", 0, 8), ("X" * 8, 0, 2))
    assert len(blocks) == 16


def test_imaginary_part_cut_is_one_policy_field(monkeypatch):
    """``POLICY.imag_cut`` decides when a complex matrix is solved as real,
    in the mixed spectrum and in the dense ground solve alike: a matrix whose
    imaginary parts stay below 1e-13 runs the complex solver at the default
    cut and the real one once the field is raised to 1e-12."""
    import critsense.models as models
    from critsense.models import ground_state

    gen = np.random.default_rng(0)
    a = gen.standard_normal((16, 16))
    skew = gen.standard_normal((16, 16))
    rho = a @ a.T / np.trace(a @ a.T) + 1e-13j * (skew - skew.T)
    H = build_hamiltonian(ModelSpec("tfim", L=4)) + PauliOperator(4, [(1e-13, "YIII")])
    solved = []
    eigh = np.linalg.eigh

    def spy(mat, *args, **kwargs):
        solved.append(mat.dtype)
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for cut, dtype in ((None, np.complex128), (1e-12, np.float64)):
        if cut is not None:
            policy = replace(POLICY, imag_cut=cut)
            monkeypatch.setattr(qcore, "POLICY", policy)
            monkeypatch.setattr(models, "POLICY", policy)
        solved.clear()
        blocks = MixedState(4, rho).sector_spectrum()
        assert blocks[0].isometry is None and solved == [dtype]
        solved.clear()
        ground_state(H)
        assert solved == [dtype]


@given(st.integers(2, 8), st.sampled_from(["real", "complex", "real_view"]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_group_average_views_match_the_gathered_rows(n, kind, parity, seed):
    """The group average's rows by arithmetic row indices and column views
    are the rows the permutation gathers summed (``oracles
    .gathered_group_average``), bit for bit, under T and under T x prod-X,
    for a real rho, a complex one and the strided real part of a complex
    array (the form ``_diagonalize`` passes on a rho without imaginary part)."""
    dim = 1 << n
    gen = np.random.default_rng(seed)
    mat = gen.standard_normal((dim, dim))
    if kind != "real":
        mat = mat + 1j * gen.standard_normal((dim, dim))
    if kind == "real_view":
        mat = mat.real
    group = ("translation", "X" * n) if parity else ("translation",)
    reps = qcore.sector_isometry(n, group, (0,) * len(group))[1]
    got = qcore._group_average_rows(mat, parity, reps)
    assert _same_bits(got, gathered_group_average(mat, group, reps))


@pytest.mark.parametrize("n", range(2, 9))
def test_momentum_parity_isometries_span_the_register(n):
    """The T x prod-X characters (k, +-): each column is an eigenvector of
    T with eigenvalue exp(-2 pi i k / n) and of prod X with +-1, the columns
    of all sectors are orthonormal and span the register, and
    P^dagger v = norms * v[reps] on the range of P."""
    dim = 1 << n
    T = build_symmetry("translation", n).to_matrix()
    F = build_symmetry("parity_x", n).to_matrix()
    cols = []
    for k, s in itertools.product(range(n), range(2)):
        P, reps, norms = qcore.sector_isometry(n, ("translation", "X" * n), (k, s))
        if not reps.size:
            continue
        A = P.toarray()
        assert np.allclose(T @ A, np.exp(-2j * np.pi * k / n) * A, atol=1e-13)
        assert np.allclose(F @ A, (1 - 2 * s) * A, atol=1e-13)
        assert (A.dtype == np.float64) == (2 * k % n == 0)
        v = A @ np.linspace(1.0, 2.0, A.shape[1])
        assert np.allclose(A.conj().T @ v, norms * v[reps], atol=1e-13)
        cols.append(A)
    full = np.hstack(cols)
    assert full.shape == (dim, dim)
    assert np.allclose(full.conj().T @ full, np.eye(dim), atol=1e-13)


def test_ground_solve_and_mixed_spectrum_share_one_isometry():
    """The ground solve's (k = 0, +) block is the mixed spectrum's: one
    cached object.  The spectrum of the ground state adds the other 2L - 1
    characters of T x prod-X, and its labels hold the names ``charge``
    takes."""
    L = 8
    group = ("translation", "X" * L)
    qcore.sector_isometry.cache_clear()
    sol = solve_model(ModelSpec("tfim", L=L))
    assert qcore.sector_isometry.cache_info().currsize == 1
    P = qcore.sector_isometry(L, group, (0, 0))[0]
    assert qcore.sector_isometry.cache_info().hits == 1  # the solve's entry
    blocks = MixedState.from_pure(sol.state).sector_spectrum()
    assert blocks[0].sector == (("translation", 0, L), ("X" * L, 0, 2))
    assert blocks[0].isometry is P
    info = qcore.sector_isometry.cache_info()
    assert (info.currsize, info.misses) == (2 * L, 2 * L)


def test_ground_solve_builds_only_its_own_character():
    qcore.sector_isometry.cache_clear()
    solve_model(ModelSpec("tfim", L=12))
    assert qcore.sector_isometry.cache_info().currsize == 1


@pytest.mark.parametrize("n, word", [(2, "ZZ"), (3, "XX")], ids=["z_string", "short_word"])
def test_generator_names_are_checked(n, word):
    """A Z letter would be read as I (charge 0, though a Z-string flips the
    sign of X) and a short word as a string on the last sites: both raise,
    naming the word, wherever a name becomes a permutation."""
    op = qcore.collective_spin(n, "X" if word == "ZZ" else "Z")
    with pytest.raises(ValueError, match=repr(word)):
        qcore.charge(op, word)
    with pytest.raises(ValueError, match=repr(word)):
        qcore.sector_isometry(n, (word,), (0,))


@pytest.mark.parametrize("name", ["translation", "parity_x"])
@pytest.mark.parametrize("n", [2, 3, 8, 9])
def test_symmetry_check_reads_the_permuted_matrix(rng, name, n):
    """The tiled pass returns max |rho - U rho U^dagger| of a full
    permutation gather, exactly, while it is within herm_tol: for a rho
    averaged over the orbit of U, and one entry pair moved by 0.5 herm_tol
    (the last two rows' pair, or row 1's last entry, which the parity sees
    only in the upper right quarter); at 10 herm_tol it returns a maximum
    over herm_tol (its remaining tiles skipped), never more than the full
    one."""
    dim = 1 << n
    inv = np.argsort(symmetry_arrays(name, n)[0])  # (U rho U^dagger)[a, b] = rho[inv a, inv b]
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    orbit = [g @ g.conj().T]
    while len(orbit) < (n if name == "translation" else 2):
        orbit.append(orbit[-1][inv][:, inv])
    rho = sum(orbit) / np.trace(sum(orbit)).real
    which = 1 if name == "translation" else 2

    def deviation(mat):
        return qcore._deviations(mat, translation=name == "translation",
                                 parity=name == "parity_x")[which]

    assert deviation(rho) == np.max(np.abs(rho - rho[inv][:, inv])) <= POLICY.herm_tol
    for (row, col), (offset, want) in itertools.product(
            [(dim - 2, dim - 1), (1, dim - 1)], [(0.5, True), (10.0, False)]):
        far = rho.copy()
        far[row, col] += offset * POLICY.herm_tol
        far[col, row] += offset * POLICY.herm_tol
        full = np.max(np.abs(far - far[inv][:, inv]))
        assert (full <= POLICY.herm_tol) == want
        if want:
            assert deviation(far) == full
        else:
            assert POLICY.herm_tol < deviation(far) <= full


_CHARGE_CASES = {
    # (operator on 4 qubits, generator, charge q): "translation" has order 4,
    # an X-string order 2
    "ising_T": (lambda: build_hamiltonian(ModelSpec(kind="tfim", L=4, h=0.7)), "translation", 0),
    "sum_z_parity": (lambda: sum_z(4), "XXXX", 1),
    "sum_z_T": (lambda: sum_z(4), "translation", 0),
    "staggered_z_T": (lambda: qcore.staggered_z(4), "translation", 2),
    "staggered_z_half_string": (lambda: qcore.staggered_z(4), "XXII", None),
    "z0_plus_z0z1_parity": (lambda: PauliOperator(4, [(1.0, "ZIII"), (1.0, "ZZII")]), "XXXX", None),
    "zz_bond_half_string": (lambda: PauliOperator(4, [(1.0, "IZZI")]), "XXII", 1),
    "zz_bond_pair_string": (lambda: PauliOperator(4, [(1.0, "IZZI")]), "IXXI", 0),
}


@pytest.mark.parametrize("name", list(_CHARGE_CASES))
def test_charge_matches_dense_conjugation(name):
    # g O g^dagger == exp(2 pi i q / N) O, checked on the Kronecker matrices
    n = 4
    make, generator, want = _CHARGE_CASES[name]
    op = make()
    assert qcore.charge(op, generator) == want
    if generator == "translation":
        g, order = build_symmetry("translation", n).to_matrix(), n
    else:
        g, order = kron_word(generator), 2
    mat = to_matrix(op)
    moved = g @ mat @ g.conj().T
    found = [q for q in range(order) if np.allclose(moved, np.exp(2j * np.pi * q / order) * mat)]
    assert found == ([] if want is None else [want])
