import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from critsense import (
    CapacityError,
    ChannelSpec,
    MixedState,
    NoiseKernel,
    NumericPolicy,
    PauliOperator,
    PureState,
    apply_channel,
    bitflip_qfi_formula,
    conjugate_collective_action,
    dephased_delta_theta_critical,
    error_propagation,
    ghz_dephased_delta_theta,
    ghz_state,
    global_dephasing_sensitivity,
    qfi_mixed,
    qfi_pure,
    spin_coherent_state,
    variance,
    zz_channel_invariance_check,
)
from critsense.channels import (
    apply_channel_matrix,
    choi_matrix,
    collective_spin,
    in_plane_spin,
    kraus_family,
)
import critsense.qcore as qcore
from critsense.qcore import expectation, to_matrix

from conftest import sum_z
from oracles import bitflip_sitewise, bitflip_three_buffers, kron_op, X as XM, Z as ZM


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(kind="bitflip_x", p=1.5)
    with pytest.raises(ValueError):
        ChannelSpec(kind="global_dephase")
    with pytest.raises(ValueError):
        ChannelSpec(kind="unknown", p=0.1)


def test_channel_spec_refuses_unknown_and_missing_fields():
    with pytest.raises(TypeError, match="'probability'"):
        ChannelSpec(kind="bitflip_x", probability=0.1)
    with pytest.raises(TypeError, match="'kind'"):
        ChannelSpec(p=0.1)


@pytest.mark.parametrize("mask, repeated", [((0, 0), "[0]"), ((2, 0, 3, 2), "[2]")])
def test_channel_spec_refuses_a_repeated_site(mask, repeated):
    # a repeat would apply the channel to that site once per entry
    message = re.escape(f"site_mask may name each site once; repeated: {repeated}")
    with pytest.raises(ValueError, match=message):
        ChannelSpec(kind="bitflip_x", p=0.1, site_mask=mask)


@pytest.mark.parametrize("site", [-1, "n"])
@pytest.mark.parametrize("kind", ["bitflip_x", "dephase_z", "zz"])
def test_channels_refuse_a_site_outside_the_register(kind, site):
    # a site past the register used to leave rho unchanged (bitflip_x) or
    # raise a bare shift error (the Z-type kinds); -1 was ignored by all three
    n = 3
    site = n if site == "n" else site
    spec = ChannelSpec(kind=kind, p=0.2, site_mask=(0, site))
    message = re.escape(f"site_mask site {site} is outside the {n}-qubit register")
    probe = ghz_state(n)
    for run in (lambda: apply_channel(probe, spec),
                lambda: apply_channel(MixedState.from_pure(probe), spec),
                lambda: apply_channel_matrix(np.eye(1 << n) / (1 << n), spec, n)):
        with pytest.raises(ValueError, match=message):
            run()
    # refused before the dim^2 output (8 MiB at ten qubits) is allocated
    probe = ghz_state(10)
    spec = ChannelSpec(kind=kind, p=0.2, site_mask=(10 if site == n else site,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="10-qubit register"):
            apply_channel(probe, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_kraus_completeness():
    for kind in ("bitflip_x", "dephase_z", "zz"):
        fam = kraus_family(ChannelSpec(kind=kind, p=0.3))
        total = sum(k.conj().T @ k for k in fam)
        assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-12


def test_identity_channel_at_p0():
    rho = MixedState.from_pure(ghz_state(3))
    out = apply_channel(rho, ChannelSpec(kind="bitflip_x", p=0.0))
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15


def test_full_flip_at_p1():
    rho = MixedState(1, np.diag([1.0, 0.0]).astype(complex))
    out = apply_channel(rho, ChannelSpec(kind="bitflip_x", p=1.0))
    assert np.max(np.abs(out.matrix - np.diag([0.0, 1.0]))) < 1e-15


def test_channel_matches_kraus_oracle(rng):
    # site-by-site dense Kraus application is the independent reference
    L = 4
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    for kind, local, mask in (
        ("bitflip_x", XM, None), ("dephase_z", ZM, None), ("bitflip_x", XM, (0, 1))
    ):
        p = 0.37
        want = rho.copy()
        for j in (range(L) if mask is None else mask):
            pj = kron_op(L, {j: local})
            want = (1 - p) * want + p * (pj @ want @ pj)
        got = apply_channel_matrix(rho, ChannelSpec(kind=kind, p=p, site_mask=mask), L)
        assert np.max(np.abs(got - want)) < 1e-12
    # bond channel
    p = 0.2
    want = rho.copy()
    for j in range(L):
        pj = kron_op(L, {j: ZM, (j + 1) % L: ZM})
        want = (1 - p) * want + p * (pj @ want @ pj)
    got = apply_channel_matrix(rho, ChannelSpec(kind="zz", p=p), L)
    assert np.max(np.abs(got - want)) < 1e-12


@st.composite
def bitflip_cases(draw):
    """(n, site_mask or None, p, complex?): odd and even n, so both the
    high/low split and its empty high half (n = 1) are drawn, with masks
    that may straddle the split."""
    n = draw(st.integers(1, 9))
    mask = draw(st.none() | st.lists(st.integers(0, n - 1), unique=True, max_size=n).map(tuple))
    p = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return n, mask or None, p, draw(st.booleans())


@example((1, None, 0.3, True))
@example((4, (1, 2), 0.3, False))  # the two sites either side of the split
@example((5, (2,), 0.7, True))     # the first site of the low half, n odd
@example((9, (3, 4, 8), 0.25, True))
@given(bitflip_cases())
def test_bitflip_matches_sitewise_oracle(case):
    n, mask, p, cplx = case
    dim = 1 << n
    gen = np.random.default_rng(n + 97 * int(cplx))
    rho = gen.standard_normal((dim, dim))
    if cplx:
        rho = rho + 1j * gen.standard_normal((dim, dim))
    before = rho.copy()
    got = apply_channel_matrix(rho, ChannelSpec(kind="bitflip_x", p=p, site_mask=mask), n)
    sites = range(n) if mask is None else mask
    want = bitflip_sitewise(rho, p, sites)
    assert np.array_equal(rho, before)  # the input is not modified
    assert got.dtype == rho.dtype
    # the GEMMs run in place over column panels and the gathers one row tile
    # at a time, on the same floats as the whole-matrix kernel
    assert np.array_equal(got, bitflip_three_buffers(rho, p, sites))
    if p in (0.0, 1.0):  # K is the identity or a permutation: every entry exact
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(rho))


_PURE_SPECS = [
    ChannelSpec(kind="bitflip_x", p=0.3),
    ChannelSpec(kind="bitflip_x", p=0.3, site_mask=(1, 2)),
    ChannelSpec(kind="dephase_z", p=0.2),
    ChannelSpec(kind="zz", p=0.15, site_mask=(0, 2)),
    ChannelSpec(kind="global_dephase", chi=0.4, t=1.0),
]


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("spec", _PURE_SPECS, ids=lambda spec: spec.kind + ("_masked" if spec.site_mask else ""))
def test_pure_state_channel_equals_projector_channel_bit_for_bit(rng, n, cplx, spec):
    # the first pass reads |psi><psi| from psi: np.outer's products, real for
    # real amplitudes (n = 9 spans several row tiles)
    amp = rng.standard_normal(1 << n) + (1j * rng.standard_normal(1 << n) if cplx else 0.0)
    psi = PureState(n, amp / np.linalg.norm(amp))
    got = apply_channel(psi, spec).matrix
    want = apply_channel(MixedState.from_pure(psi), spec).matrix
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["bitflip_x", "dephase_z", "zz", "global_dephase"])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_channel_allocates_one_matrix(rng, kind, cplx):
    # the result alone, from a matrix and from a pure state; the index tables,
    # factor tiles and the scratch of one 2^15-entry row tile or column panel
    # stay far below one more dim^2 matrix (8 MiB real)
    n = 10
    dim = 1 << n
    rho = rng.standard_normal((dim, dim))
    amp = rng.standard_normal(dim)
    if cplx:
        rho = rho + 1j * rng.standard_normal((dim, dim))
        amp = amp + 1j * rng.standard_normal(dim)
    psi = PureState(n, amp / np.linalg.norm(amp))
    spec = ChannelSpec(kind=kind, chi=0.3) if kind == "global_dephase" else ChannelSpec(kind=kind, p=0.2)
    for apply in (lambda: apply_channel_matrix(rho, spec, n), lambda: apply_channel(psi, spec).matrix):
        tracemalloc.start()
        try:
            out = apply()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + (2 << 20)
        del out


def test_pure_state_channel_refuses_over_dense_cap(monkeypatch):
    # refused before anything of the matrix's size exists: a regression
    # would allocate an 8 MiB dim^2 matrix
    monkeypatch.setattr(qcore, "POLICY", NumericPolicy(dense_cap=9))
    psi = spin_coherent_state(10)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            apply_channel(psi, ChannelSpec(kind="bitflip_x", p=0.1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (1 << 20)


def test_qfi_of_bit_flipped_probe_allocates_under_half_a_matrix(critical_states):
    # the sector spectrum reads rho in place: no dim^2 buffer comes back downstream
    n = 10
    rho = apply_channel(critical_states(n).state, ChannelSpec(kind="bitflip_x", p=0.1))
    tracemalloc.start()
    try:
        qfi_mixed(rho, sum_z(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * rho.matrix.nbytes


@pytest.mark.parametrize("L", [4, 5])
@pytest.mark.parametrize("spec", [
    ChannelSpec(kind="bitflip_x", p=0.3),
    ChannelSpec(kind="bitflip_x", p=0.3, site_mask=(0, 2)),
    ChannelSpec(kind="dephase_z", p=0.2),
    ChannelSpec(kind="zz", p=0.15),
    ChannelSpec(kind="global_dephase", chi=0.4, t=1.0),
], ids=lambda spec: spec.kind + ("_masked" if spec.site_mask else ""))
def test_real_input_stays_real(rng, L, spec):
    # the float64 route must give the complex128 route's matrix; only the
    # global kind, whose phase kernel is complex, returns complex128
    dim = 1 << L
    g = rng.standard_normal((dim, dim))
    rho = g @ g.T
    rho /= np.trace(rho)
    real = apply_channel_matrix(rho, spec, L)
    cplx = apply_channel_matrix(rho.astype(np.complex128), spec, L)
    assert real.dtype == (np.complex128 if spec.kind == "global_dephase" else np.float64)
    assert cplx.dtype == np.complex128
    assert np.max(np.abs(real - cplx)) < 1e-14
    assert apply_channel(MixedState(L, rho), spec).matrix.dtype == real.dtype


def test_trace_and_hermiticity_preserved(rng):
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    rho = MixedState(3, np.outer(v, v.conj()))
    for spec in (
        ChannelSpec(kind="bitflip_x", p=0.3),
        ChannelSpec(kind="dephase_z", p=0.45),
        ChannelSpec(kind="zz", p=0.2),
        ChannelSpec(kind="global_dephase", chi=0.3, t=1.0),
    ):
        out = apply_channel(rho, spec)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12


def test_choi_positive():
    for spec in (
        ChannelSpec(kind="bitflip_x", p=0.3),
        ChannelSpec(kind="dephase_z", p=0.7),
        ChannelSpec(kind="zz", p=0.25),
        ChannelSpec(kind="global_dephase", chi=0.2, t=1.0),
    ):
        choi = choi_matrix(spec, 2)
        w = np.linalg.eigvalsh(choi)
        assert w.min() > -1e-10


def test_bitflip_commutes_with_parity_conjugation(rng):
    L = 3
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    par = kron_op(L, {j: XM for j in range(L)})
    spec = ChannelSpec(kind="bitflip_x", p=0.3)
    a = par @ apply_channel_matrix(rho, spec, L) @ par
    b = apply_channel_matrix(par @ rho @ par, spec, L)
    assert np.max(np.abs(a - b)) < 1e-12


def test_bitflip_formula_edges():
    assert abs(bitflip_qfi_formula(6, 0.0, 11.0) - 44.0) < 1e-12
    assert abs(bitflip_qfi_formula(6, 0.5, 11.0) - 24.0) < 1e-12  # 4L at p = 1/2


def test_bitflip_formula_matches_spectral_ghz2():
    rho = apply_channel(
        MixedState.from_pure(ghz_state(2)), ChannelSpec(kind="bitflip_x", p=0.25)
    )
    got = qfi_mixed(rho, sum_z(2)).value
    assert abs(got - 10.0) < 1e-8
    assert abs(bitflip_qfi_formula(2, 0.25, 4.0) - 10.0) < 1e-12


@pytest.mark.parametrize("p", [0.1, 0.3, 0.49])
@pytest.mark.parametrize("probe", ["critical", "ghz"])
def test_bitflip_exactness(critical_states, probe, p):
    L = 6
    state = critical_states(L).state if probe == "critical" else ghz_state(L)
    gen = sum_z(L)
    second = qfi_pure(state, gen) / 4.0 + expectation(state, gen).real ** 2
    rho = apply_channel(MixedState.from_pure(state), ChannelSpec(kind="bitflip_x", p=p))
    got = qfi_mixed(rho, gen).value
    want = bitflip_qfi_formula(L, p, second)
    assert abs(got - want) < 1e-8 * max(1.0, want)


@pytest.mark.parametrize("L", [6, 8])
def test_bitflip_sandwich_error_propagation(critical_states, L):
    # parity error-propagation precision squares to the spectral QFI: the
    # matching lower and upper bounds pinch at small imprint angle
    p = 0.3
    state = critical_states(L).state
    gen = sum_z(L)
    rho = apply_channel(MixedState.from_pure(state), ChannelSpec(kind="bitflip_x", p=p))
    par = PauliOperator(L, [(1.0, "X" * L)])
    dth = error_propagation(rho, gen, par, 1e-5)
    fq = qfi_mixed(rho, gen).value
    assert abs(dth**-2 - fq) < 1e-8 * fq


def test_noisy_imprint_order_flag(critical_states):
    from critsense.channels import noisy_imprinted_state

    L = 4
    state = critical_states(L).state
    gen = sum_z(L)
    theta = 0.3
    # X-flip Kraus operators do not commute with the Z imprint: orders differ
    before = noisy_imprinted_state(state, ChannelSpec(kind="bitflip_x", p=0.3), gen, theta)
    after = noisy_imprinted_state(
        state, ChannelSpec(kind="bitflip_x", p=0.3, after_imprint=True), gen, theta
    )
    assert np.max(np.abs(before.matrix - after.matrix)) > 1e-3
    # Z-diagonal Kraus operators commute with it: orders coincide
    zb = noisy_imprinted_state(state, ChannelSpec(kind="zz", p=0.3), gen, theta)
    za = noisy_imprinted_state(
        state, ChannelSpec(kind="zz", p=0.3, after_imprint=True), gen, theta
    )
    assert np.max(np.abs(zb.matrix - za.matrix)) < 1e-13
    # at theta = 0 the flag is inert
    b0 = noisy_imprinted_state(state, ChannelSpec(kind="bitflip_x", p=0.3), gen, 0.0)
    a0 = noisy_imprinted_state(
        state, ChannelSpec(kind="bitflip_x", p=0.3, after_imprint=True), gen, 0.0
    )
    assert np.max(np.abs(b0.matrix - a0.matrix)) < 1e-14


def test_conjugate_collective_action_coefficients():
    spec = ChannelSpec(kind="dephase_z", p=0.1)
    assert conjugate_collective_action(spec, "s_theta", 6) == (0.8, 0.0)
    a, b = conjugate_collective_action(spec, "s_theta_sq", 6)
    assert abs(a - 0.64) < 1e-15 and abs(b - 0.54) < 1e-15
    assert conjugate_collective_action(ChannelSpec(kind="dephase_z", p=0.0), "s_theta", 6) == (1.0, 0.0)
    with pytest.raises(ValueError):
        conjugate_collective_action(spec, "nope", 6)
    with pytest.raises(ValueError):
        conjugate_collective_action(ChannelSpec(kind="zz", p=0.1), "s_theta", 6)


@pytest.mark.parametrize("p", [0.1, 0.3])
def test_conjugate_action_brute_force(p):
    # channel applied to the observable matrix reproduces the closed forms
    L = 6
    spec = ChannelSpec(kind="dephase_z", p=p)
    s_theta = in_plane_spin(L, 0.37)
    m = to_matrix(s_theta)
    eye = np.eye(1 << L)
    a, b = conjugate_collective_action(spec, "s_theta", L)
    assert np.max(np.abs(apply_channel_matrix(m, spec, L) - (a * m + b * eye))) < 1e-10
    a2, b2 = conjugate_collective_action(spec, "s_theta_sq", L)
    m2 = m @ m
    assert np.max(np.abs(apply_channel_matrix(m2, spec, L) - (a2 * m2 + b2 * eye))) < 1e-10


def test_dephased_critical_formula_against_ed(critical_states):
    # single fitted C_y reproduces the exact-diagonalization precision
    p = 0.2
    sizes = (8, 10, 12)
    measured = {}
    for L in sizes:
        state = critical_states(L).state
        rho = apply_channel(MixedState.from_pure(state), ChannelSpec(kind="dephase_z", p=p))
        measured[L] = error_propagation(rho, collective_spin(L, "Z"), collective_spin(L, "Y"), 1e-5)
    cys = [
        (measured[L] * math.sqrt(L) / math.pi) ** 2 - p * (1 - p) / (1 - 2 * p) ** 2
        for L in sizes
    ]
    cy = float(np.mean(cys))
    for L in sizes:
        formula = dephased_delta_theta_critical(L, p, cy)
        assert abs(formula - measured[L]) / measured[L] < 0.10


def test_dephased_formula_edges():
    assert abs(dephased_delta_theta_critical(100, 0.0, 0.04) - math.pi * 0.02) < 1e-12
    with pytest.raises(ValueError):
        dephased_delta_theta_critical(10, 0.5, 0.1)
    assert abs(ghz_dephased_delta_theta(10, 0.0) - 0.1) < 1e-15
    with pytest.raises(ValueError):
        ghz_dephased_delta_theta(10, 0.6)


def test_ghz_dephased_matches_spectral():
    p = 0.2
    for L in (4, 6):
        rho = apply_channel(MixedState.from_pure(ghz_state(L)), ChannelSpec(kind="dephase_z", p=p))
        got = 1.0 / math.sqrt(qfi_mixed(rho, collective_spin(L, "Z")).value)
        assert abs(got - ghz_dephased_delta_theta(L, p)) < 1e-10 * got


def test_global_dephasing_formula():
    assert abs(
        global_dephasing_sensitivity(16, 2.0, 0.0, 0.3, 0.05)
        - math.pi / (2.0 * 4.0) * math.sqrt(0.05)
    ) < 1e-12
    vals = [global_dephasing_sensitivity(16, 1.0, chi, 0.3, 0.05) for chi in (0.0, 0.1, 0.3, 1.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_global_dephasing_against_ed(critical_states):
    L = 10
    sol = critical_states(L)
    sx, sy = collective_spin(L, "X"), collective_spin(L, "Y")
    cx = (variance(sol.state, sx) + expectation(sol.state, sx).real ** 2) / L
    cy = (variance(sol.state, sy) + expectation(sol.state, sy).real ** 2) / L
    for chi in (0.02, 0.1):
        rho = apply_channel(
            MixedState.from_pure(sol.state), ChannelSpec(kind="global_dephase", chi=chi, t=1.0)
        )
        db = error_propagation(rho, collective_spin(L, "Z"), sy, 1e-6)
        formula = global_dephasing_sensitivity(L, 1.0, chi, cx, cy)
        assert abs(db - formula) / formula < 0.10


def test_global_dephasing_gaussian_kernel(rng):
    # Gauss-Hermite average must match the exact Gaussian characteristic factor
    L = 3
    chi = 0.4
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    got = apply_channel_matrix(rho, ChannelSpec(kind="global_dephase", chi=chi, t=1.0), L)
    idx = np.arange(8)
    m = np.array([3 - 2 * bin(b).count("1") for b in idx], dtype=float)
    kernel = np.exp(-chi * (m[:, None] - m[None, :]) ** 2 / 4.0)
    assert np.max(np.abs(got - rho * kernel)) < 1e-12


def test_global_dephasing_equals_local_at_one_site(rng):
    # on a single site the collective and individual kernels coincide with
    # p = (1 - e^{-chi})/2
    chi = 0.7
    p = 0.5 * (1.0 - math.exp(-chi))
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    a = apply_channel_matrix(rho, ChannelSpec(kind="global_dephase", chi=chi, t=1.0), 1)
    b = apply_channel_matrix(rho, ChannelSpec(kind="dephase_z", p=p), 1)
    assert np.max(np.abs(a - b)) < 1e-12


def test_zz_invariance(critical_states):
    for L in (4, 6):
        for state in (ghz_state(L), critical_states(L).state):
            rep = zz_channel_invariance_check(state, sum_z(L), 0.3)
            assert rep.difference < 1e-8 * max(1.0, rep.qfi_before)
    rep = zz_channel_invariance_check(ghz_state(4), sum_z(4), 0.0)
    assert rep.difference < 1e-12 * rep.qfi_before


def test_noise_kernel_quadrature():
    kern = NoiseKernel(correlation=lambda t: math.exp(-t))
    assert kern.chi(0.0) == 0.0
    # chi(t) = int_0^t (t - tau) e^{-tau} dtau = t - 1 + e^{-t}
    for t in (0.5, 1.0, 2.0):
        assert abs(kern.chi(t) - (t - 1.0 + math.exp(-t))) < 1e-10
    vals = [kern.chi(t) for t in (0.1, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_channel_order_flag_equivalence(critical_states):
    # symmetric channels commute with the diagonal imprint, so applying the
    # channel after the phase gives the same state as before it
    L = 4
    state = critical_states(L).state
    from critsense import evolve_phase

    theta = 0.3
    spec = ChannelSpec(kind="zz", p=0.3)
    before = apply_channel(MixedState.from_pure(evolve_phase(state, sum_z(L), theta)), spec)
    rho0 = apply_channel(MixedState.from_pure(state), spec)
    u = np.exp(1j * theta * sum_z(L).diagonal().real)
    after = rho0.matrix * np.outer(u, u.conj())
    assert np.max(np.abs(before.matrix - after)) < 1e-12
