import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from critsense import (
    CapacityError,
    FermionSolution,
    ModelSpec,
    PauliOperator,
    expectation,
    fit_power_law,
    qfi_scaling_tfim,
    solve_model,
    solve_tfim_fermion,
    zz_correlator,
    zz_correlators,
)
import critsense.fermion as fermion
from critsense.fermion import (
    FermionError,
    PowerLawFit,
    _antiperiodic_momenta,
    _mode_data,
    qfi_generator_second_moment,
)

from conftest import sum_z
from oracles import eliminated_zz_correlators


@pytest.mark.parametrize("J,h", [(1.0, 1.0), (1.0, 0.7), (0.6, 1.3)])
@pytest.mark.parametrize("L", [8, 10])
def test_energy_matches_ed(critical_states, L, J, h):
    sol_ed = critical_states(L, J, h)
    sol_f = solve_tfim_fermion(L, J=J, h=h)
    assert abs(sol_ed.energy - sol_f.energy) < 1e-8


def test_epsilon_dispersion_at_criticality():
    sol = solve_tfim_fermion(16)
    ks = np.array([(2 * m + 1) * math.pi / 16 for m in range(8)])
    assert np.max(np.abs(sol.epsilon - 4.0 * np.abs(np.sin(ks / 2)))) < 1e-12


@pytest.mark.parametrize("J,h", [(1.0, 1.0), (1.0, 0.7)])
def test_correlators_match_ed_all_r(critical_states, J, h):
    L = 10
    sol_ed = critical_states(L, J, h)
    sol_f = solve_tfim_fermion(L, J=J, h=h)
    for r in range(1, L):
        zz = PauliOperator.string(L, {0: "Z", r: "Z"})
        assert abs(expectation(sol_ed.state, zz).real - zz_correlator(sol_f, r)) < 1e-8


def test_correlator_reflection_symmetry():
    sol = solve_tfim_fermion(12)
    for r in range(1, 12):
        assert abs(zz_correlator(sol, r) - zz_correlator(sol, 12 - r)) < 1e-10


def test_open_boundary_matches_ed():
    L = 8
    sol_ed = solve_model(ModelSpec(kind="tfim", L=L, boundary="open"))
    sol_f = solve_tfim_fermion(L, boundary="open")
    assert abs(sol_ed.energy - sol_f.energy) < 1e-8
    for r in (1, 3, 5):
        start = (L - r) // 2
        zz = PauliOperator.string(L, {start: "Z", start + r: "Z"})
        assert abs(expectation(sol_ed.state, zz).real - zz_correlator(sol_f, r)) < 1e-8


def test_majorana_omega_antisymmetric():
    sol = solve_tfim_fermion(8)
    om = sol.majorana_omega
    assert np.max(np.abs(om + om.T)) < 1e-12
    ref = np.zeros((16, 16))
    for j in range(8):
        for l in range(8):
            ref[2 * j + 1, 2 * l] = -sol.kernel(l - j)
            ref[2 * l, 2 * j + 1] = sol.kernel(l - j)
    assert np.array_equal(om, ref)


def test_periodic_kernel_matches_momentum_sum():
    L, J, h = 64, 1.0, 0.7
    ks = _antiperiodic_momenta(L)
    _, one_minus_2n, f = _mode_data(J, h, ks)
    sol = solve_tfim_fermion(L, J=J, h=h)
    for l in range(-2 * L, 2 * L, 7):
        want = (2.0 / L) * sum(
            a * math.cos(l * k) + 2.0 * b * math.sin(l * k)
            for a, b, k in zip(one_minus_2n, f, ks)
        )
        assert abs(sol.kernel(l) - want) < 1e-13


# critical, paramagnet, deep paramagnet (minors underflow toward 0), ferromagnet
REGIMES = [(1.0, 1.0), (0.2, 1.0), (1.0, 50.0), (1.0, 0.3)]


def _assert_minors_match(sol, got, rs):
    for r in rs:
        want = zz_correlator(sol, r)
        assert abs(got[r - 1] - want) <= 1e-10 * abs(want) + 1e-15, (r, got[r - 1], want)


@pytest.mark.parametrize("J,h", REGIMES)
@pytest.mark.parametrize("L", [10, 64])
def test_zz_correlators_match_slogdet_all_r(L, J, h):
    sol = solve_tfim_fermion(L, J=J, h=h)
    got = zz_correlators(sol, L - 1)
    assert got.shape == (L - 1,)
    _assert_minors_match(sol, got, range(1, L))


@pytest.mark.parametrize("J,h", REGIMES)
def test_zz_correlators_match_slogdet_sampled_r_large_L(J, h):
    sol = solve_tfim_fermion(768, J=J, h=h)
    got = zz_correlators(sol, 384)
    _assert_minors_match(sol, got, (1, 2, 7, 100, 255, 383, 384))


@pytest.mark.parametrize("J,h", REGIMES)
@pytest.mark.parametrize("L", [10, 64, 768])
def test_zz_correlators_match_the_rank1_elimination(L, J, h):
    """The O(r^2) recursion against the O(r^3) elimination it replaced, at
    every r; the two tests above hold both to ``slogdet``."""
    sol = solve_tfim_fermion(L, J=J, h=h)
    r_max = L - 1 if L <= 64 else L // 2
    got, want = zz_correlators(sol, r_max), eliminated_zz_correlators(sol, r_max)
    miss = np.abs(got - want) - (1e-10 * np.abs(want) + 1e-15)
    assert np.all(miss <= 0.0), (int(np.argmax(miss)) + 1, float(np.max(miss)))


def test_zz_correlators_at_4096_sites_match_slogdet():
    sol = solve_tfim_fermion(4096)
    got = zz_correlators(sol, 2048)
    for r in (1, 1024, 2048):
        want = zz_correlator(sol, r)
        assert abs(got[r - 1] - want) <= 1e-10 * abs(want), (r, got[r - 1], want)


def test_zz_correlators_hold_no_string_block():
    sol = solve_tfim_fermion(4096)
    tracemalloc.start()
    try:
        zz_correlators(sol, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # the 2048^2 block alone is 32 MiB


@pytest.mark.parametrize("J,h", REGIMES)
@pytest.mark.parametrize("L", [10, 64, 128])
def test_second_moment_halving_matches_full_sum(L, J, h):
    sol = solve_tfim_fermion(L, J=J, h=h)
    full = L + L * sum(zz_correlator(sol, r) for r in range(1, L))
    got = qfi_generator_second_moment(sol)
    assert abs(got - full) <= 1e-10 * abs(full)


@pytest.mark.parametrize("bad_pivot", ["first_zero", "second_tiny"])
def test_zz_correlators_fallback_on_bad_pivot(bad_pivot):
    base = solve_tfim_fermion(16)
    g = base._g_array.copy()
    if bad_pivot == "first_zero":
        g[1] = 0.0                              # T[0, 0] = g(1)
    else:
        g[2] = (g[1] - 1e-12) * g[1] / g[0]     # second pivot g(1) - g(0) g(2) / g(1)
    sol = FermionSolution(L=16, J=1.0, h=1.0, boundary="periodic", energy=None, _g_array=g)
    got = zz_correlators(sol, 15)
    assert np.all(np.isfinite(got))
    if bad_pivot == "first_zero":
        assert got[0] == 0.0
    _assert_minors_match(sol, got, range(1, 16))


def test_zz_correlators_input_checks(monkeypatch):
    sol = solve_tfim_fermion(16)
    with pytest.raises(ValueError):
        zz_correlators(sol, 16)
    with pytest.raises(ValueError):
        zz_correlators(sol, 0)
    with pytest.raises(FermionError):
        zz_correlators(solve_tfim_fermion(None), 4)
    with pytest.raises(FermionError):
        zz_correlators(solve_tfim_fermion(8, boundary="open"), 4)
    monkeypatch.setattr(fermion, "POLICY", replace(fermion.POLICY, fermion_bytes_cap=16 * 8 * 8 - 1))
    with pytest.raises(CapacityError):
        zz_correlators(sol, 8)
    monkeypatch.setattr(fermion, "POLICY", replace(fermion.POLICY, fermion_bytes_cap=16 * 8 * 8))
    assert zz_correlators(sol, 8).shape == (8,)


def test_thermo_r1_value():
    # frozen: the nearest-neighbor order correlator at criticality is 2/pi
    sol = solve_tfim_fermion(None)
    assert abs(zz_correlator(sol, 1) - 2.0 / math.pi) < 1e-9


def test_paramagnetic_limit_product_form():
    sol = solve_tfim_fermion(12, J=1.0, h=50.0)
    assert abs(sol.kernel(0) + 1.0) < 1e-3  # <X> -> +1 means g(0) -> -1
    # order correlations die off as (J/2h)^r
    assert abs(zz_correlator(sol, 1)) < 0.02
    for r in (2, 5):
        assert abs(zz_correlator(sol, r)) < 1e-3


def test_ferromagnetic_limit_long_range_order():
    sol = solve_tfim_fermion(None, J=1.0, h=0.05)
    for r in (1, 4, 12):
        assert abs(zz_correlator(sol, r) - 1.0) < 5e-3


def test_energy_extensivity_converges():
    diffs = []
    for L in (16, 32, 64):
        e1 = solve_tfim_fermion(L).energy
        e2 = solve_tfim_fermion(2 * L).energy
        diffs.append(abs(e2 / 2.0 - e1))
    assert diffs[1] < diffs[0] and diffs[2] < diffs[1]


def test_critical_decay_exponent():
    sol = solve_tfim_fermion(None)
    rs = np.unique(np.round(np.logspace(math.log10(8), math.log10(128), 14)).astype(int))
    cs = np.array([zz_correlator(sol, int(r)) for r in rs])
    fit = fit_power_law(rs, cs)
    assert abs(-fit.exponent - 0.25) < 0.02


def test_qfi_scaling_critical():
    fit, values = qfi_scaling_tfim([32, 64, 128, 256])
    assert abs(fit.exponent - 1.75) < 0.05
    assert np.all(np.diff(values) > 0)


def test_qfi_scaling_paramagnet_sql():
    fit, _ = qfi_scaling_tfim([32, 64, 128, 256], at_criticality=False, J=0.2, h=1.0)
    assert abs(fit.exponent - 1.0) < 0.05


def test_second_moment_matches_ed(critical_states):
    L = 8
    sol_ed = critical_states(L)
    from critsense import variance

    want = variance(sol_ed.state, sum_z(L))
    got = qfi_generator_second_moment(solve_tfim_fermion(L))
    assert abs(want - got) < 1e-8


def test_fit_power_law_exact_recovery():
    xs = np.array([4.0, 8.0, 16.0, 32.0])
    fit = fit_power_law(xs, xs**1.75)
    assert abs(fit.exponent - 1.75) < 1e-12
    assert fit.r_squared == 1.0


@pytest.mark.parametrize("r2", [math.nan, -1e-300, 1.0 + 2.0**-52])
def test_power_law_fit_refuses_r_squared_outside_the_unit_interval(r2):
    PowerLawFit(1.0, 1.0, 1.0, (1.0, 2.0))
    with pytest.raises(ValueError, match="r_squared"):
        PowerLawFit(1.0, 1.0, r2, (1.0, 2.0))


def test_fit_power_law_noisy_recovery(rng):
    xs = np.logspace(1, 3, 24)
    ys = 2.0 * xs**1.6 * (1.0 + 0.01 * rng.standard_normal(24))
    fit = fit_power_law(xs, ys)
    assert abs(fit.exponent - 1.6) < 0.02


def test_fit_power_law_errors():
    with pytest.raises(ValueError):
        fit_power_law(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        fit_power_law(np.array([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 3.0]))
    with pytest.raises(ValueError):
        fit_power_law(np.array([1.0, 2.0, 3.0, 10.0]), np.ones(4), window=(5.0, 6.0))


def test_solver_input_validation():
    with pytest.raises(FermionError):
        solve_tfim_fermion(7)  # odd periodic chains have no paired momenta
    with pytest.raises(ValueError):
        solve_tfim_fermion(8, J=-1.0)
    with pytest.raises(ValueError):
        zz_correlator(solve_tfim_fermion(8), 0)
    with pytest.raises(ValueError):
        zz_correlator(solve_tfim_fermion(8), 8)
