import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import critsense.qcore as qcore
import critsense.symmetry as symmetry
from critsense import (
    CapacityError,
    ModelSpec,
    PauliOperator,
    PureState,
    anticommutes,
    build_symmetry,
    evolve_phase,
    expectation,
    ghz_state,
    hadamard_test,
    rydberg_order_parameter,
    solve_model,
    spin_coherent_state,
    symmetry_eigenvalue,
    variance,
)
from critsense.policy import POLICY
from critsense.qcore import collective_spin
from critsense.symmetry import KINDS, SymmetryOperator, hadamard_test_povm

from conftest import staggered_z, sum_z
from oracles import (
    matrix_anticommutes,
    permutation_csr,
    scatter_apply,
    site_map_arrays,
    symmetry_arrays,
)


def test_translation_permutes_basis():
    T = build_symmetry("translation", 2)
    out = T.apply_vec(PureState.from_basis(2, 0b01).amplitudes)
    assert out[0b10] == 1.0


def test_translation_power_is_identity(rng):
    T = build_symmetry("translation", 4)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    w = v.copy()
    for _ in range(4):
        w = T.apply_vec(w)
    assert np.allclose(w, v)


def test_translation_requires_periodic():
    with pytest.raises(ValueError):
        build_symmetry("translation", 4, boundary="open")


def test_reflection_palindrome_fixed():
    R = build_symmetry("reflection", 4, bond_center=1)
    out = R.apply_vec(PureState.from_basis(4, 0b0110).amplitudes)
    assert out[0b0110] == 1.0


def test_reflection_squares_to_identity(rng):
    R = build_symmetry("reflection", 5, bond_center=2)
    v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert np.allclose(R.apply_vec(R.apply_vec(v)), v)


def test_reflection_needs_center():
    with pytest.raises(ValueError):
        build_symmetry("reflection", 4)


def test_reflection_odd_open_flagged():
    R = build_symmetry("reflection", 5, bond_center=2, boundary="open")
    assert not R.anticommuting_safe


def test_parity_z_phase():
    P = build_symmetry("parity_z", 3)
    out = P.apply_vec(PureState.from_basis(3, 0b101).amplitudes)
    assert out[0b101] == 1.0  # two down spins
    out = P.apply_vec(PureState.from_basis(3, 0b100).amplitudes)
    assert out[0b100] == -1.0


@pytest.mark.parametrize("kind", ["parity_x", "parity_z", "translation", "reflection"])
@pytest.mark.parametrize("cols", [(), (3,)], ids=["vector", "block"])
def test_apply_vec_writes_into_out(rng, kind, cols):
    L = 5
    sym = build_symmetry(kind, L, bond_center=1)
    vec = rng.standard_normal((1 << L,) + cols) + 1j * rng.standard_normal((1 << L,) + cols)
    buf = np.empty_like(vec)
    assert sym.apply_vec(vec, out=buf) is buf
    assert np.array_equal(buf, sym.apply_vec(vec))


def test_anticommutation_table():
    L = 4
    px = build_symmetry("parity_x", L)
    assert anticommutes(px, sum_z(L))
    assert not anticommutes(px, PauliOperator(L, [(1.0, "XIII")]))
    T = build_symmetry("translation", L)
    assert anticommutes(T, staggered_z(L))
    assert not anticommutes(T, sum_z(L))
    R = build_symmetry("reflection", L, bond_center=1)
    assert anticommutes(R, staggered_z(L))


def test_symmetry_eigenvalue_ghz():
    ok, s = symmetry_eigenvalue(ghz_state(4), build_symmetry("parity_x", 4))
    assert ok and abs(s - 1.0) < 1e-12


def test_symmetry_eigenvalue_tfim_sector(critical_states):
    sol = critical_states(8)
    ok, s = symmetry_eigenvalue(sol.state, build_symmetry("parity_x", 8))
    assert ok and abs(s - 1.0) < 1e-8


def test_symmetry_eigenvalue_rotated_not_eigenstate():
    st = evolve_phase(spin_coherent_state(4), sum_z(4), 0.1)
    ok, _ = symmetry_eigenvalue(st, build_symmetry("parity_x", 4))
    assert not ok


def test_rydberg_order_parameter_structure():
    op = rydberg_order_parameter(4)
    assert op.is_hermitian
    # telescopes to staggered single-site Z with unit weights on even chains
    assert set(op.terms) == set(staggered_z(4).terms)
    assert all(set(w) <= {"I", "Z"} for _, w in op.terms)


def test_rydberg_order_parameter_translation_odd():
    L = 6
    op = rydberg_order_parameter(L)
    T = build_symmetry("translation", L)
    assert anticommutes(T, op)
    # vanishes on any translation-invariant state
    sol = solve_model(ModelSpec(kind="rydberg", L=L, detuning=0.8))
    assert abs(expectation(sol.state, op)) < 1e-8


def test_hadamard_identity_unitary():
    # parity acts as the identity on its +1 eigenstate
    res = hadamard_test(ghz_state(4), build_symmetry("parity_x", 4))
    assert abs(res.p_plus - 1.0) < 1e-12
    assert res.toffoli_count == 0


def test_hadamard_minus_one_eigenstate():
    # |psi> = (|01> - |10>)/sqrt(2) is T-odd
    amp = np.zeros(4, dtype=complex)
    amp[0b01], amp[0b10] = 1.0, -1.0
    st = PureState(2, amp / np.sqrt(2))
    res = hadamard_test(st, build_symmetry("translation", 2))
    assert abs(res.p_plus) < 1e-12
    assert abs(res.re_value + 1.0) < 1e-12


def test_hadamard_phased_variant_reads_imaginary_part(rng):
    T = build_symmetry("translation", 4)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    st = PureState(4, v / np.linalg.norm(v))
    res = hadamard_test(st, T)
    direct = np.vdot(st.amplitudes, T.apply_vec(st.amplitudes))
    assert abs(res.re_value - direct.real) < 1e-12
    assert abs(res.im_value - direct.imag) < 1e-12


def test_hadamard_gate_counts():
    T = build_symmetry("translation", 8)
    assert T.swap_count == 7
    assert T.toffoli_count == 21


def test_hadamard_povm_effects_positive():
    T = build_symmetry("translation", 4)
    for eff in hadamard_test_povm(T):
        w = np.linalg.eigvalsh(eff.toarray())
        assert w.min() > -1e-12


class _HalfT:
    """A stand-in controlled operator: half the translation's action."""

    def __init__(self, sym):
        self.sym = sym
        self.shape = sym.shape
        self.toffoli_count = sym.toffoli_count

    def __matmul__(self, vec):
        return 0.5 * (self.sym @ vec)


def test_hadamard_test_rejects_non_unitary():
    T = build_symmetry("translation", 2)
    psi = PureState(2, np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="unitary_tol"):
        hadamard_test(psi, _HalfT(T))
    hadamard_test(psi, T)  # the unscaled operator passes


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("call", [hadamard_test, symmetry_eigenvalue])
def test_wrong_register_symmetry_refused_before_any_product(kind, call):
    sym = build_symmetry(kind, 5, bond_center=1)
    with pytest.raises(ValueError, match="register size mismatch"):
        call(ghz_state(4), sym)


@pytest.mark.parametrize("L", range(2, 9))
@pytest.mark.parametrize("kind", KINDS)
def test_hadamard_povm_is_the_hadamard_test(rng, kind, L):
    # the two effects sum to the identity exactly (every entry is dyadic),
    # and on evolved probes their expectations are the test's p+- = (1 +-
    # Re<T>) / 2 to rounding
    sym = build_symmetry(kind, L, bond_center=(L - 2) // 2)
    povm = hadamard_test_povm(sym)
    dim = 1 << L
    assert abs(povm[0] + povm[1] - sp.identity(dim, format="csr")).max() == 0.0
    gen = PauliOperator(L, [(float(w), "I" * j + "Z" + "I" * (L - 1 - j))
                            for j, w in enumerate(rng.uniform(-1.0, 1.0, L))])
    for theta in (0.0, 0.3, -1.1):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        probe = evolve_phase(PureState(L, v / np.linalg.norm(v)), gen, theta)
        res = hadamard_test(probe, sym)
        for eff, p in zip(povm, (res.p_plus, res.p_minus)):
            assert abs(expectation(probe, eff).real - p) < 1e-14


def test_derivative_curvature_matches_variance(critical_states):
    # curvature of <A>_theta near zero is -4 s Var(O) for the eigenvalue s
    L = 10
    sol = critical_states(L)
    st = sol.state
    gen = sum_z(L)
    par = build_symmetry("parity_x", L)
    s = float(np.real(np.vdot(st.amplitudes, par.apply_vec(st.amplitudes))))
    var = variance(st, gen)
    thetas = np.array([0.004, 0.008, 0.012, 0.016])
    vals = []
    for th in thetas:
        ev = evolve_phase(st, gen, float(th))
        vals.append(float(np.real(np.vdot(ev.amplitudes, par.apply_vec(ev.amplitudes)))))
    quad = np.polyfit(thetas, np.array(vals), 2)[0]
    assert abs(quad - (-2.0 * s * var)) / (2.0 * var) < 0.02  # <A> = s(1 - 2 Var theta^2 + ...)


def test_theta_variance_quartic_structure(critical_states):
    # Var_theta(A) grows as 4 s^2 Var(O) theta^2 near zero
    L = 10
    sol = critical_states(L)
    st = sol.state
    gen = sum_z(L)
    par = build_symmetry("parity_x", L)
    var_o = variance(st, gen)
    thetas = np.array([0.002, 0.004, 0.008])
    ratios = []
    for th in thetas:
        ev = evolve_phase(st, gen, float(th))
        a = float(np.real(np.vdot(ev.amplitudes, par.apply_vec(ev.amplitudes))))
        ratios.append((1.0 - a * a) / th**2)
    ratios = np.array(ratios)
    assert np.all(np.abs(ratios - 4.0 * var_o) / (4.0 * var_o) < 0.02)


def test_theta_curves_collapse(critical_states):
    # ferromagnetic parity vs antiferromagnetic reflection/translation readouts
    L = 10
    fm = critical_states(L).state
    afm = solve_model(ModelSpec(kind="tfim", L=L, J=-1.0, h=1.0)).state
    par = build_symmetry("parity_x", L)
    refl = build_symmetry("reflection", L, bond_center=(L - 2) // 2)
    trans = build_symmetry("translation", L)
    thetas = np.linspace(0.0, 0.5, 21)
    curves = {"p": [], "r": [], "t": []}
    for th in thetas:
        stf = evolve_phase(fm, sum_z(L), float(th))
        sta = evolve_phase(afm, staggered_z(L), float(th))
        curves["p"].append(np.vdot(stf.amplitudes, par.apply_vec(stf.amplitudes)).real)
        curves["r"].append(np.vdot(sta.amplitudes, refl.apply_vec(sta.amplitudes)).real)
        curves["t"].append(hadamard_test(sta, trans).re_value)
    for key in curves:
        arr = np.array(curves[key])
        assert abs(arr[0] - 1.0) < 1e-8     # starts at +|s| = 1
        assert np.all(np.abs(arr - arr[::-1].max()) <= 2.0)  # bounded sanity
    a = {k: np.array(v) / v[0] for k, v in curves.items()}
    assert np.max(np.abs(a["p"] - a["r"])) < 0.05
    assert np.max(np.abs(a["p"] - a["t"])) < 0.05


def test_reflection_error_propagation_saturates_bound():
    # non-Pauli observable exercises the extrapolated-derivative route
    from critsense.metrology import error_propagation
    from critsense.models import ModelSpec, solve_model
    from critsense.metrology import qfi_pure

    L = 8
    sol = solve_model(ModelSpec(kind="tfim", L=L, J=-1.0, h=1.0))
    gen = staggered_z(L)
    refl = build_symmetry("reflection", L, bond_center=(L - 2) // 2)
    dth = error_propagation(sol.state, gen, refl, 1e-4)
    bound = 1.0 / (qfi_pure(sol.state, gen) ** 0.5)
    assert abs(dth - bound) / bound < 5e-3


def test_odd_open_reflection_precision_is_finite():
    # flagged non-anticommuting case still yields an empirical precision curve
    from critsense.metrology import error_propagation
    from critsense.models import ModelSpec, solve_model

    L = 7
    sol = solve_model(ModelSpec(kind="tfim", L=L, J=-1.0, h=1.0, boundary="open"))
    refl = build_symmetry("reflection", L, bond_center=(L - 2) // 2, boundary="open")
    assert not refl.anticommuting_safe
    dth = error_propagation(sol.state, staggered_z(L), refl, 0.05)
    assert np.isfinite(dth) and dth > 0.0


def test_theta_curve_even_in_theta(critical_states):
    st = critical_states(8).state
    par = build_symmetry("parity_x", 8)
    for th in (0.1, 0.3):
        up = evolve_phase(st, sum_z(8), th)
        dn = evolve_phase(st, sum_z(8), -th)
        vu = np.vdot(up.amplitudes, par.apply_vec(up.amplitudes)).real
        vd = np.vdot(dn.amplitudes, par.apply_vec(dn.amplitudes)).real
        assert abs(vu - vd) < 1e-10


# -- one description against the permutation arrays ---------------------------

def _symmetry_args(draw, L):
    """(kind, bond_center, boundary) of a drawn ``build_symmetry`` call on L sites."""
    kind = draw(st.sampled_from(KINDS))
    boundary = "periodic" if kind == "translation" else draw(st.sampled_from(["periodic", "open"]))
    return kind, draw(st.integers(0, L - 1)), boundary


@given(st.integers(2, 12), st.data())
def test_apply_vec_and_to_sparse_match_the_permutation_arrays(L, data):
    """``apply_vec`` gives the scatter out[perm] = phase * vec of the
    whole-register arrays (``oracles.symmetry_arrays``) bit for bit, signed
    zeros included, on vectors and column blocks in C and Fortran order; and
    ``to_sparse`` their COO-built CSR entry for entry."""
    kind, center, boundary = _symmetry_args(data.draw, L)
    sym = build_symmetry(kind, L, bond_center=center, boundary=boundary)
    perm, phase = symmetry_arrays(kind, L, bond_center=center, boundary=boundary)
    cols = data.draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vec = rng.standard_normal((1 << L,) + cols)
    if data.draw(st.booleans()):
        vec = vec + 1j * rng.standard_normal(vec.shape)
    zeros = rng.random(vec.shape) < 0.25
    vec[zeros] = np.where(rng.random(vec.shape) < 0.5, 0.0, -0.0)[zeros]
    if cols and data.draw(st.booleans()):
        vec = np.asfortranarray(vec)
    got, want = sym.apply_vec(vec), scatter_apply(perm, phase, vec)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    out = np.empty(vec.shape, dtype=np.complex128)
    assert sym.apply_vec(vec, out=out) is out and out.tobytes() == want.tobytes()
    mat, ref = sym.to_sparse(), permutation_csr(perm, phase)
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(mat, attr), getattr(ref, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


@given(st.integers(1, 10), st.integers(1, 12), st.data())
def test_sign_slabs_match_the_whole_register_scatter(L, sign_sites, data):
    """The sign applied slab by slab, on any site map with any X and Z masks
    and tables of any width, gives the scatter of ``oracles.site_map_arrays``
    bit for bit, signed zeros included."""
    sites = tuple(data.draw(st.permutations(range(L))))
    flip, sign = (data.draw(st.integers(0, (1 << L) - 1)) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symmetry, "SIGN_SITES", sign_sites)
        sym = SymmetryOperator("translation", L, sites, flip=flip, sign=sign)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cols = data.draw(st.sampled_from([(), (1,), (3,)]))
        vec = rng.standard_normal((1 << L,) + cols) + 1j * rng.standard_normal((1 << L,) + cols)
        vec.real[rng.random(vec.shape) < 0.25] = -0.0
        vec.imag[rng.random(vec.shape) < 0.25] = 0.0
        vec.imag[rng.random(vec.shape) < 0.25] = -0.0
        want = scatter_apply(*site_map_arrays(L, sites, flip, sign), vec)
        assert sym.apply_vec(vec).tobytes() == want.tobytes()


@st.composite
def _block_site_maps(draw, max_L=10):
    """(L, sites, flip): the register cut into blocks of adjacent sites,
    the blocks permuted, some reversed, and a flip mask made of runs, so
    that the moved view coalesces some runs and splits others."""
    L = draw(st.integers(1, max_L))
    cuts = sorted(draw(st.sets(st.integers(1, L - 1), max_size=L - 1))) if L > 1 else []
    blocks = [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [L])]
    blocks = [block[::-1] if draw(st.booleans()) else block
              for block in draw(st.permutations(blocks))]
    order = [site for block in blocks for site in block]  # order[k]: the site moved to k
    sites = [0] * L
    for k, j in enumerate(order):
        sites[j] = k
    flip = 0
    for a, b in zip([0] + cuts, cuts + [L]):  # one mark per block, over the output sites
        if draw(st.booleans()):
            flip |= ((1 << (b - a)) - 1) << (L - b)
    return L, tuple(sites), flip


@given(_block_site_maps(), st.data())
def test_coalesced_move_matches_the_scatter(case, data):
    """The move between coalesced views, on site maps that keep runs of
    sites together and flip masks made of runs, gives the scatter of
    ``oracles.site_map_arrays`` bit for bit on vectors and column blocks
    (C and Fortran order, into a new array and into ``out``), and
    ``to_sparse`` the COO-built CSR entry for entry."""
    L, sites, flip = case
    sym = SymmetryOperator("translation", L, sites, flip=flip)
    perm, phase = site_map_arrays(L, sites, flip, 0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cols = data.draw(st.sampled_from([(), (1,), (3,)]))
    vec = rng.standard_normal((1 << L,) + cols)
    if data.draw(st.booleans()):
        vec = vec + 1j * rng.standard_normal(vec.shape)
    if cols and data.draw(st.booleans()):
        vec = np.asfortranarray(vec)
    want = scatter_apply(perm, phase, vec)
    assert sym.apply_vec(vec).tobytes() == want.tobytes()
    out = np.empty(vec.shape, dtype=np.complex128)
    assert sym.apply_vec(vec, out=out) is out and out.tobytes() == want.tobytes()
    mat, ref = sym.to_sparse(), permutation_csr(perm, phase)
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(mat, attr), getattr(ref, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr


@pytest.mark.parametrize("kind, axes", [("parity_x", 1), ("parity_z", 1), ("translation", 2),
                                        ("reflection", 10)])
def test_move_view_has_one_axis_per_run(kind, axes):
    sym = build_symmetry(kind, 10, bond_center=4)
    shape, order, moved, _ = sym._view
    assert len(shape) == len(order) == len(moved) == axes
    assert np.prod(shape) == 1 << 10


def test_parity_z_builds_no_register_table():
    sym = build_symmetry("parity_z", 20)
    vec = np.ones(1 << 20, dtype=np.complex128)
    out = np.empty_like(vec)
    assert _peak(lambda: sym.apply_vec(vec, out=out)) < 1 << 20  # the table alone is 8 MiB
    assert out[0] == 1.0 and out[1] == -1.0 and out[-1] == 1.0


def _pauli_sum(draw, L):
    """A drawn operator: a named imprinter or a random Pauli sum with
    coefficients in {+-0.5, +-1, +-2}."""
    named = draw(st.sampled_from(["sum_z", "staggered", "rydberg", "random"]))
    if named == "sum_z":
        return sum_z(L)
    if named == "staggered":
        return staggered_z(L)
    if named == "rydberg" and L >= 3:
        return rydberg_order_parameter(L, draw(st.sampled_from(["periodic", "open"])))
    words = st.text(alphabet="IXYZ", min_size=L, max_size=L)
    coeffs = st.sampled_from([0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
    return PauliOperator(L, draw(st.lists(st.tuples(coeffs, words), min_size=0, max_size=5)))


@given(st.integers(2, 6), st.data())
def test_anticommutes_matches_the_matrix_check(L, data):
    """The exact term rule answers as the matrix check max |A O + O A| <
    herm_tol (``oracles.matrix_anticommutes``) does, on drawn operators and on
    O - A O A^dagger, which anticommutes by construction."""
    kind, center, boundary = _symmetry_args(data.draw, L)
    sym = build_symmetry(kind, L, bond_center=center, boundary=boundary)
    matrix = permutation_csr(*symmetry_arrays(kind, L, bond_center=center, boundary=boundary))
    op = _pauli_sum(data.draw, L)
    moved = qcore._conjugate(op, sym.sites, flip=sym.flip, sign=sym.sign)
    odd = op - PauliOperator(L, [(c, w) for w, c in moved.items()])
    for o in (op, odd):
        assert anticommutes(sym, o) == matrix_anticommutes(matrix, o), o
    if sym.is_hermitian:
        assert anticommutes(sym, odd)


def test_anticommutes_builds_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sparse matrix was built")

    monkeypatch.setattr(SymmetryOperator, "to_sparse", refuse)
    monkeypatch.setattr(PauliOperator, "to_sparse", refuse)
    L = 6
    assert anticommutes(build_symmetry("translation", L), staggered_z(L))
    assert anticommutes(build_symmetry("reflection", L, bond_center=2), staggered_z(L))
    assert not anticommutes(build_symmetry("parity_x", L), collective_spin(L, "X"))


def _peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", KINDS)
def test_building_a_symmetry_allocates_no_register_array(kind):
    assert _peak(lambda: build_symmetry(kind, 20, bond_center=9)) < 64 * 1024


@pytest.mark.parametrize("form", ["to_sparse", "to_matrix"])
def test_symmetry_matrices_refuse_registers_over_the_caps_before_allocating(form):
    sym = build_symmetry("translation", 40)
    field = "sparse_cap" if form == "to_sparse" else "dense_cap"

    def run():
        with pytest.raises(CapacityError, match=field):
            getattr(sym, form)()

    assert _peak(lambda: build_symmetry("translation", 40)) < 64 * 1024
    assert _peak(run) < 64 * 1024
    with pytest.raises(CapacityError, match="dense_cap"):
        build_symmetry("parity_x", POLICY.dense_cap + 1).to_matrix()


def test_symmetry_operator_is_frozen_and_hashable():
    T = build_symmetry("translation", 5)
    assert T == build_symmetry("translation", 5) and hash(T) == hash(build_symmetry("translation", 5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        T.flip = 1
    with pytest.raises(ValueError, match="sites"):
        SymmetryOperator("translation", 3, (0, 0, 1))
