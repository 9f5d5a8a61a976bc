import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from critsense import (
    ModelSpec,
    PauliOperator,
    expectation,
    ghz_state,
    parity_theta_curve,
    solve_model,
    subsystem_parity,
    to_matrix,
    window_report,
    xxz_string_parity,
    xxz_window_scaling,
)
from critsense.subsys import (
    DisorderOperator,
    default_theta_grid,
    make_ising_protocol,
    make_xxz_protocol,
    mean_occupation,
    rydberg_dual_curve,
    staggered_density_imprinter,
)
from critsense.channels import ChannelSpec, apply_channel
from critsense.metrology import classical_fisher, error_propagation, precision_curve
from critsense.policy import POLICY
from critsense.qcore import MixedState, collective_spin
from critsense.symmetry import build_symmetry
from critsense.models import build_hamiltonian, ground_state

from oracles import disorder_apply


def test_full_block_parity_is_global_parity():
    op = subsystem_parity(6, 6)
    assert op.terms == ((1.0, "X" * 6),)


def test_block_parity_placement():
    op = subsystem_parity(8, 4, offset=2)
    assert op.terms == ((1.0, "IIXXXXII"),)
    # central by default
    op = subsystem_parity(8, 4)
    assert op.terms == ((1.0, "IIXXXXII"),)
    with pytest.raises(ValueError):
        subsystem_parity(6, 4, offset=4)


def test_xxz_string_parity_structure():
    op = xxz_string_parity(5, 2, 1, 1, offset=0)
    assert op.terms == ((1.0, "YZXII"),)
    m = to_matrix(op)
    assert np.allclose(m, m.conj().T)
    assert np.allclose(m @ m, np.eye(32))
    with pytest.raises(ValueError):
        xxz_string_parity(5, 2, 3, 1)


def test_xxz_string_parity_vanishes_even_block():
    L = 10
    sol = solve_model(ModelSpec(kind="xxz", L=L, delta=0.5))
    for (a, b) in ((1, 2), (2, 1)):
        val = expectation(sol.state, xxz_string_parity(L, 4, a, b)).real
        assert abs(val) < 1e-10
    # odd blocks carry the signal
    val = expectation(sol.state, xxz_string_parity(L, 5, 1, 2)).real
    assert abs(val) > 1e-3


def test_protocol_anticommutation():
    proto = make_ising_protocol(10, 6)
    gm = to_matrix(proto.imprinter)
    pm = to_matrix(proto.measurement)
    assert np.max(np.abs(gm @ pm + pm @ gm)) < 1e-12
    proto_x = make_xxz_protocol(10, 5)
    gm = to_matrix(proto_x.imprinter)
    pm = to_matrix(proto_x.measurement)
    assert np.max(np.abs(gm @ pm + pm @ gm)) < 1e-12


def test_parity_theta_curve_pull_through(critical_states):
    sol = critical_states(10)
    proto = make_ising_protocol(10, 6)
    grid = np.linspace(0.01, 0.8, 25)
    curve = parity_theta_curve(sol.state, proto, grid)
    assert np.all(curve.variance >= 0.0)
    # even in theta
    neg = parity_theta_curve(sol.state, proto, grid[::-1] * -1.0)
    assert np.max(np.abs(curve.signal - neg.signal[::-1])) < 1e-10


@pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
def test_parity_theta_curve_exponentials_per_curve(critical_states, monkeypatch, check):
    # a pure curve reads every angle from one moment matrix: the only
    # exponentials over the register are the two direct evolutions that
    # check the form at the first and last grid angle, in the bare loop and
    # through parity_theta_curve, whose pull-through check reads the
    # imprinter's phase table once per curve with no exponential either
    import critsense.metrology as metrology
    import critsense.qcore as qcore
    import critsense.subsys as subsys

    calls = []
    original = qcore.apply_exponential

    def counted(gen, scale, vec, out=None):
        calls.append(scale)
        return original(gen, scale, vec, out=out)

    for module in (qcore, metrology, subsys):
        monkeypatch.setattr(module, "apply_exponential", counted)
    psi, proto = critical_states(8).state, make_ising_protocol(8, 4)
    for grid in (np.linspace(0.05, 0.5, 7), np.linspace(0.05, 0.5, 70)):
        calls.clear()
        if check:
            parity_theta_curve(psi, proto, grid)
        else:
            metrology.precision_curve(psi, proto.imprinter, proto.measurement, grid)
        assert calls == [1j * grid[0], 1j * grid[-1]]


def test_pull_through_check_catches_a_moved_signal(critical_states, monkeypatch):
    # the one-pass check still resolves 1e-11: one signal moved by that much raises
    import dataclasses

    import critsense.subsys as subsys

    psi = critical_states(8).state
    proto = make_ising_protocol(8, 4)
    grid = np.linspace(0.05, 0.5, 7)
    parity_theta_curve(psi, proto, grid)
    original = subsys.precision_curve

    def moved(*args):
        curve = original(*args)
        signal = curve.signal.copy()
        signal[3] += 1e-11
        return dataclasses.replace(curve, signal=signal)

    monkeypatch.setattr(subsys, "precision_curve", moved)
    with pytest.raises(AssertionError, match="pull-through mismatch at theta="):
        parity_theta_curve(psi, proto, grid)


# A mixed probe's loop evolves its weighted spectral block, the general loop
# a fresh MixedState (and its fresh eigh) per point.  Over three imprinters
# (these two and Sum X) and seven readouts of the dephased chain, signal and
# variance agree to rounding (4.9e-15 and 1.2e-14 at L = 6, 1.9e-14 and
# 9.6e-14 at L = 8); the reported slope sqrt(variance) / delta_theta, 0 at
# an inf sentinel, to the rounding of both routes' differences at fd_step
# (3.2e-10 at L = 6, 1.7e-9 at L = 8).
MIXED_MOMENT_TOL = 1e-13
MIXED_SLOPE_TOL = 5e-9
# A pure probe's curve reads every angle from one moment matrix, the general
# loop evolves the probe per point.  Over the twelve cases below at L = 8
# and 10, signal and variance agree to 3.1e-15 and 1.3e-14 (the Sum X
# readout's, |A| up to 5); the slopes to 1.3e-10, the rounding of the
# general loop's differences at fd_step, which the form takes before
# rounding the signal.  The curves of test_workspace_theta_loop_... agree
# to 3.3e-16, 5.6e-16 and 5.5e-11.
PURE_MOMENT_TOL = 5e-14
PURE_SLOPE_TOL = 5e-10


def _slope(curve):
    """|d<A>/dtheta| as the curve reports it, sqrt(variance) / delta_theta:
    0 at the +inf sentinel and where both vanish (an A-eigenstate)."""
    root = np.sqrt(curve.variance)
    return np.divide(root, curve.delta_theta, out=np.zeros_like(root),
                     where=curve.delta_theta > 0)


def _assert_close(got, want, moment_tol, slope_tol, what):
    for name in ("signal", "variance"):
        miss = np.abs(getattr(got, name) - getattr(want, name))
        assert np.all(miss <= moment_tol), (what, name, np.max(miss))
    miss = np.abs(_slope(got) - _slope(want))
    assert np.all(miss <= slope_tol), (what, np.max(miss))


@pytest.mark.parametrize("L, mixed", [(8, False), (10, False), (6, True)],
                         ids=["pure-8", "pure-10", "mixed-6"])
def test_theta_loop_matches_the_general_loop_oracle(critical_states, monkeypatch, L, mixed):
    # the one loop gives the general loop it replaced (kept in
    # oracles.general_precision_curve) to the named tolerances above: every
    # readout form (a Pauli string, a Pauli sum, two symmetry permutations
    # and the CSR and dense reflection), a diagonal imprinter and an X-sum
    # one (read in its product frame), and theta = 0 (at a grid point and as
    # theta + step).  A readout that commutes with the imprinter (parity_z
    # under the Z sum) or has the probe as an eigenstate (the reflection)
    # reads the +inf sentinel where the general loop differences rounding.
    # The curves are also compared with the oracle on the (2,) * n flip and
    # gathered-factor kernels.
    import critsense.metrology as metrology
    import critsense.qcore as qcore
    from oracles import flip_apply_vec, gathered_exponential, general_precision_curve

    probe = critical_states(L).state
    if mixed:
        probe = apply_channel(MixedState.from_pure(probe), ChannelSpec("dephase_z", p=0.05))
    refl = build_symmetry("reflection", L, bond_center=(L - 2) // 2)
    readouts = [subsystem_parity(L, 4), collective_spin(L, "X"), refl,
                build_symmetry("parity_z", L), refl.to_sparse(), refl.to_matrix()]
    gens = [make_ising_protocol(L, 4).imprinter, make_xxz_protocol(L, 3).imprinter]
    grid = np.concatenate(([-POLICY.fd_step, 0.0], default_theta_grid(6)))
    cases = [(gen, obs) for gen in gens for obs in readouts]
    curves = {"loop": [precision_curve(probe, gen, obs, grid) for gen, obs in cases],
              "oracle": [general_precision_curve(probe, gen, obs, grid) for gen, obs in cases]}
    monkeypatch.setattr(qcore.PauliOperator, "apply_vec", flip_apply_vec)
    for module in (qcore, metrology):
        monkeypatch.setattr(module, "apply_exponential", gathered_exponential)
    curves["pinned"] = [general_precision_curve(probe, gen, obs, grid) for gen, obs in cases]
    tols = (MIXED_MOMENT_TOL, MIXED_SLOPE_TOL) if mixed else (PURE_MOMENT_TOL, PURE_SLOPE_TOL)
    for path in ("oracle", "pinned"):
        for case, got, want in zip(cases, curves["loop"], curves[path]):
            _assert_close(got, want, *tols, (path, case))


@pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
@pytest.mark.parametrize("L", [8, 10])
def test_workspace_theta_loop_matches_the_general_loop(critical_states, monkeypatch, L, check):
    # the Ising blocks (diagonal imprinter) and one XXZ string readout (an
    # X-sum imprinter, read in its product frame; the string's Y letter makes
    # the moment matrix complex), through parity_theta_curve with its
    # pull-through check and through the bare loop it calls,
    # ``subsys.precision_curve``.  The general loop
    # (oracles.general_precision_curve) is pinned bit for bit to itself on
    # the (2,) * n flip and gathered-factor kernels; the moment form agrees
    # with it to PURE_MOMENT_TOL and PURE_SLOPE_TOL.
    import critsense.metrology as metrology
    import critsense.qcore as qcore
    import critsense.subsys as subsys
    from oracles import flip_apply_vec, gathered_exponential, general_precision_curve

    psi = critical_states(L).state
    grid = default_theta_grid(64)
    protocols = [make_ising_protocol(L, L_sub) for L_sub in (2, 4, 6)]
    protocols.append(make_xxz_protocol(L, 3, alpha=1, beta=2))

    def curve_of(proto):
        if check:
            return parity_theta_curve(psi, proto, grid)
        return subsys.precision_curve(psi, proto.imprinter, proto.measurement, grid)

    curves = {}
    for path in ("workspace", "general", "oracle"):
        if path == "general":
            monkeypatch.setattr(subsys, "precision_curve", general_precision_curve)
        if path == "oracle":
            monkeypatch.setattr(qcore.PauliOperator, "apply_vec", flip_apply_vec)
            for module in (qcore, metrology):
                monkeypatch.setattr(module, "apply_exponential", gathered_exponential)
        curves[path] = [curve_of(proto) for proto in protocols]
    for proto, got, want in zip(protocols, curves["workspace"], curves["oracle"]):
        _assert_close(got, want, PURE_MOMENT_TOL, PURE_SLOPE_TOL, proto.kind)
    for got, want in zip(curves["general"], curves["oracle"]):
        for name in ("signal", "variance", "delta_theta"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_workspace_theta_loop_allocates_no_register_array(critical_states):
    # three register-sized buffers per curve (state, image, scratch), plus
    # the buffer numpy's ufunc iterator allocates for a strided or broadcast
    # operand (8192 elements at most, one L = 12 register); a point that
    # allocated a register array of its own would reach five (the heap-history
    # slowdown of many 2^L temporaries).  A Pauli-string involution and the
    # reflection, a symmetry permutation, take the same buffers.
    import tracemalloc

    L = 12
    psi = critical_states(L).state
    grid = default_theta_grid(32)
    refl = build_symmetry("reflection", L, bond_center=(L - 2) // 2)
    protocols = [make_ising_protocol(L, 4), make_ising_protocol(L, 8)]
    cases = [(proto.imprinter, proto.measurement) for proto in protocols]
    cases.append((protocols[0].imprinter, refl))
    for gen, obs in cases:
        precision_curve(psi, gen, obs, grid[:1])  # the operators' cached tables
        tracemalloc.start()
        try:
            precision_curve(psi, gen, obs, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * psi.amplitudes.nbytes, peak / psi.amplitudes.nbytes


@pytest.mark.parametrize("L_sub", [2, 4, 6, 8, 14])
def test_ising_imprinter_phase_table_has_L_sub_plus_one_values(L_sub):
    gen = make_ising_protocol(14, L_sub).imprinter
    values, index = gen.phase_table()
    assert values.size == L_sub + 1
    assert index.dtype == np.uint8 and index.size == 1 << L_sub
    assert np.array_equal(gen._register(values[index]), gen.diagonal())


def test_parity_theta_curve_exponentiates_only_the_phase_table(critical_states, monkeypatch):
    # every exponential of the Z-sum imprinter runs over its L_sub + 1 distinct
    # eigenvalues, never over the 2^L basis states
    L, L_sub = 8, 4
    psi = critical_states(L).state
    sizes = []
    original = np.exp

    def spy(x, *args, **kwargs):
        sizes.append(np.size(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    parity_theta_curve(psi, make_ising_protocol(L, L_sub), np.linspace(0.05, 0.5, 7))
    assert sizes and max(sizes) <= L_sub + 1


def test_block_parity_expectation_in_unit_interval(critical_states):
    sol = critical_states(12)
    for L_sub in (4, 6):
        proto = make_ising_protocol(12, L_sub)
        val = expectation(sol.state, proto.measurement).real
        assert 0.0 < val < 1.0


def test_delta_theta_equals_cfi_along_grid(critical_states):
    sol = critical_states(8)
    proto = make_ising_protocol(8, 4)
    par = proto.measurement
    gen = proto.imprinter
    half = PauliOperator.identity(8, 0.5)
    povm = [half + 0.5 * par, half + (-0.5) * par]
    thetas = (0.05, 0.2, 0.6)
    for theta, cfi in zip(thetas, classical_fisher(sol.state, gen, povm, thetas)):
        dth = error_propagation(sol.state, gen, par, theta)
        assert abs(cfi - dth**-2) < 1e-10 * cfi


def test_window_report_synthetic_curve():
    # delta(theta) = a/theta + b theta^3 has an interior optimum at
    # (a/(3b))^{1/4}
    from critsense.metrology import PrecisionCurve

    a, b = 0.02, 40.0
    theta = default_theta_grid(400)
    d = a / theta + b * theta**3
    curve = PrecisionCurve(theta=theta, signal=np.cos(theta), variance=np.ones_like(theta), delta_theta=d)
    rep = window_report(curve, 8)
    want = (a / (3 * b)) ** 0.25
    assert rep.theta_min == pytest.approx(want, rel=1e-3)
    assert rep.has_window == (rep.delta_theta_min < rep.sql_reference)


def test_window_report_needs_dense_grid():
    from critsense.metrology import PrecisionCurve

    theta = np.linspace(0.01, 1.0, 50)
    curve = PrecisionCurve(theta=theta, signal=theta, variance=theta, delta_theta=theta)
    with pytest.raises(ValueError):
        window_report(curve, 6)


def test_window_ghz_flat_curve_degenerate():
    proto = make_ising_protocol(8, 8)
    curve = parity_theta_curve(ghz_state(8), proto, default_theta_grid(256))
    rep = window_report(curve, 8)
    assert rep.degenerate and not rep.has_window
    assert rep.delta_theta_min == pytest.approx(1.0 / 8.0, rel=1e-6)


def test_theta_min_decreases_with_block(critical_states):
    sol = critical_states(12)
    grid = default_theta_grid(256)
    mins = []
    for L_sub in (4, 6, 8):
        curve = parity_theta_curve(sol.state, make_ising_protocol(12, L_sub), grid)
        mins.append(window_report(curve, L_sub).theta_min)
    assert all(m is not None for m in mins)
    assert mins[0] > mins[1] > mins[2]


def test_xxz_window_scaling_predictions():
    # threshold Luttinger parameter: all three window angles merge
    from critsense.models import luttinger_K

    K = 1.5
    delta = math.cos(math.pi * (1.0 - 1.0 / (2.0 * K)))  # inverse of the K map
    assert luttinger_K(delta) == pytest.approx(K, rel=1e-12)
    sol = solve_model(ModelSpec(kind="xxz", L=10, delta=0.0))
    rows = xxz_window_scaling(delta, [3], sol.state, theta_grid=default_theta_grid(200))
    pred = rows[0].predicted_exponents
    assert pred["theta_l"] == pytest.approx(-5.0 / 6.0)
    assert pred["theta_min"] == pytest.approx(-5.0 / 6.0)
    assert pred["theta_r"] == pytest.approx(-5.0 / 6.0)
    # K = 1 predicts no sub-SQL window; the (1, 2) readout carries a signal,
    # so its best precision is finite (a vanishing readout reads the +inf
    # sentinel, test_a_vanishing_string_readout_has_no_optimum)
    rows = xxz_window_scaling(0.0, [3, 5], sol.state, theta_grid=default_theta_grid(200))
    assert not rows[0].window_predicted
    for row in rows:
        assert not row.report.has_window
        assert row.report.delta_theta_min < 10.0


def test_a_vanishing_string_readout_has_no_optimum():
    # on the real XX ground state the single-Y strings (alpha = beta) vanish
    # identically: the signal is rounding (under 1e-16), and so is its
    # derivative, below POLICY.signal_floor, so every cell is the +inf
    # sentinel and the report is degenerate.  The finite differences of the
    # evolved signal used to read noise of about 1e-11 and name an optimum
    # near delta theta = 3e10.  The (1, 2) pair keeps its finite optimum.
    sol = solve_model(ModelSpec(kind="xxz", L=10, delta=0.0))
    grid = default_theta_grid()
    for L_sub, best in ((3, 2.736037869), (5, 2.363266296)):
        for alpha in (1, 2):
            proto = make_xxz_protocol(10, L_sub, alpha=alpha, beta=alpha)
            curve = parity_theta_curve(sol.state, proto, grid)
            assert np.max(np.abs(curve.signal)) < 1e-15
            assert np.all(curve.delta_theta == math.inf), (L_sub, alpha)
            report = window_report(curve, L_sub)
            assert report.degenerate and report.delta_theta_min == math.inf
        curve = parity_theta_curve(sol.state, make_xxz_protocol(10, L_sub, alpha=1, beta=2), grid)
        report = window_report(curve, L_sub)
        assert not report.degenerate
        assert report.delta_theta_min == pytest.approx(best, rel=1e-9)


def test_disorder_operator_zeta_limit():
    # <n> -> 0 reduces the local map to the empty-state projector
    op = DisorderOperator(3, 1, 1e-12)
    v = np.zeros(8, dtype=complex)
    v[0b010] = 1.0  # site 1 occupied
    out = op.apply_vec(v)
    assert np.linalg.norm(out) < 1e-5
    v2 = np.zeros(8, dtype=complex)
    v2[0] = 1.0
    out2 = op.apply_vec(v2)
    assert abs(np.linalg.norm(out2) - 1.0) < 1e-5


def test_disorder_operator_unit_overlap_image():
    nbar = 0.3
    local = np.array([math.sqrt(1 - nbar), -math.sqrt(nbar)])
    full = np.array([1.0])
    for _ in range(4):
        full = np.kron(full, local)
    mu = DisorderOperator(4, 2, nbar)
    img = mu.apply_vec(full.astype(complex))
    assert abs(np.linalg.norm(img) - 1.0) < 1e-12
    # the moved site parks in |0> at the left edge
    reshaped = img.reshape(2, 8)
    assert np.linalg.norm(reshaped[1]) < 1e-12


@given(st.integers(2, 8), st.data())
def test_disorder_operator_matches_the_permutation_scatter(L, data):
    """The rotation as a transposed view gives the int64 permutation's
    scatter (``oracles.disorder_apply``) bit for bit, signed zeros included."""
    j = data.draw(st.integers(0, L - 1))
    nbar = data.draw(st.floats(0.01, 0.99))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vec = rng.standard_normal(1 << L) + 1j * rng.standard_normal(1 << L)
    vec[rng.random(vec.size) < 0.25] = -0.0
    got = DisorderOperator(L, j, nbar).apply_vec(vec)
    want = disorder_apply(L, j, nbar, vec)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_disorder_operator_validation():
    with pytest.raises(ValueError):
        DisorderOperator(4, 1, 0.0)
    with pytest.raises(ValueError):
        DisorderOperator(4, 5, 0.3)


@pytest.mark.slow
def test_rydberg_dual_curve_even_and_decaying():
    L = 12
    spec = ModelSpec(kind="rydberg", L=L, omega=1.0, detuning=0.68, v1=50.0, v2=0.0,
                     boundary="open")
    sol = ground_state(build_hamiltonian(spec))
    nbar = mean_occupation(sol.state, list(range(2, 8)))
    thetas = np.linspace(-0.6, 0.6, 13)
    curve = rydberg_dual_curve(sol.state, 7, nbar, thetas).real
    assert np.max(np.abs(curve - curve[::-1])) < 1e-10
    mid = len(thetas) // 2
    assert curve[mid] == np.max(curve)
    assert curve[0] < curve[mid]


def test_staggered_imprinter_diagonal():
    op = staggered_density_imprinter(8, 5)
    assert op.is_diagonal and op.is_hermitian


@pytest.mark.slow
def test_best_precision_non_increasing_in_block_size():
    L = 14
    sol = solve_model(ModelSpec(kind="tfim", L=L, boundary="open"))
    grid = default_theta_grid(256)
    mins = []
    for L_sub in (6, 8, 10, 12):
        curve = parity_theta_curve(sol.state, make_ising_protocol(L, L_sub, offset=0), grid)
        mins.append(window_report(curve, L_sub).delta_theta_min)
    assert all(b <= a + 1e-12 for a, b in zip(mins, mins[1:]))
