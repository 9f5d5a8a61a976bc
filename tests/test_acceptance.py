"""Acceptance gate: every release-blocking criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion.  Stated runtime budgets are asserted where the criterion carries
one.
"""
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from critsense import (
    ChannelSpec,
    MixedState,
    PauliOperator,
    apply_channel,
    bitflip_qfi_formula,
    classical_fisher,
    conjugate_collective_action,
    d2,
    error_propagation,
    evolve_phase,
    expectation,
    fit_power_law,
    fn_sequence,
    ghz_state,
    ModelSpec,
    parity_theta_curve,
    qfi_mixed,
    qfi_pure,
    qfi_scaling_tfim,
    solve_model,
    solve_tfim_fermion,
    spin_coherent_state,
    window_report,
    zz_channel_invariance_check,
    zz_correlator,
)
from critsense.channels import apply_channel_matrix, in_plane_spin
from critsense.metrology import variance
from critsense.models import ladder_site
from critsense.deformed import (
    averaged_qfi,
    averaged_qfi_decoded,
    decoded_correlator,
    enumerate_outcomes,
    sample_outcomes,
    uniform_outcome_lro_check,
)
from critsense.subsys import default_theta_grid, make_ising_protocol
from critsense.symmetry import build_symmetry, hadamard_test, hadamard_test_povm
from critsense.qcore import to_matrix

from conftest import staggered_z, sum_z

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s)")


def test_criterion_01_pure_qfi_exactness():
    with criterion(1, "pure-state QFI exactness for GHZ and product probes", 1.0):
        for L in range(2, 11):
            assert abs(qfi_pure(ghz_state(L), sum_z(L)) - 4.0 * L * L) < 1e-10
            assert abs(qfi_pure(spin_coherent_state(L), sum_z(L)) - 4.0 * L) < 1e-10


def test_criterion_02_critical_qfi_scaling(critical_states):
    with criterion(2, "critical QFI scaling exponent 1.75 +- 0.05 (large L) and "
                      "[1.6, 1.9] (ED sizes)", 600.0):
        fit, _ = qfi_scaling_tfim([64, 128, 256, 512])
        assert abs(fit.exponent - 1.75) < 0.05
        sizes = [8, 10, 12, 14]
        values = [4.0 * variance(critical_states(L).state, sum_z(L)) for L in sizes]
        ed_fit = fit_power_law(np.array(sizes, float), np.array(values))
        assert 1.6 <= ed_fit.exponent <= 1.9


def test_criterion_03_correlator_decay():
    with criterion(3, "critical order-correlator decay exponent 0.25 +- 0.02", 300.0):
        sol = solve_tfim_fermion(None)
        rs = np.unique(np.round(np.logspace(math.log10(8), math.log10(128), 14)).astype(int))
        cs = np.array([zz_correlator(sol, int(r)) for r in rs])
        fit = fit_power_law(rs, cs)
        assert abs(-fit.exponent - 0.25) < 0.02


def test_criterion_04_symmetry_recipe_saturation(critical_states):
    with criterion(4, "parity error-propagation saturates the QFI bound and "
                      "equals the two-outcome Fisher information"):
        L = 12
        st = critical_states(L).state
        gen = sum_z(L)
        par = PauliOperator(L, [(1.0, "X" * L)])
        dth = error_propagation(st, gen, par, 1e-4)
        bound = 1.0 / math.sqrt(qfi_pure(st, gen))
        assert abs(dth - bound) / bound < 0.005
        half = PauliOperator.identity(L, 0.5)
        povm = [half + 0.5 * par, half + (-0.5) * par]
        cfi = classical_fisher(st, gen, povm, [1e-4])[0]
        assert abs(cfi - dth**-2) < 1e-10 * cfi


def test_criterion_05_bitflip_exactness(critical_states):
    with criterion(5, "spin-flip channel QFI matches the closed formula to 1e-8", 120.0):
        for L in (4, 6, 8):
            for state in (critical_states(L).state, ghz_state(L)):
                gen = sum_z(L)
                second = qfi_pure(state, gen) / 4.0 + expectation(state, gen).real ** 2
                for p in (0.1, 0.3, 0.49):
                    rho = apply_channel(
                        MixedState.from_pure(state), ChannelSpec(kind="bitflip_x", p=p)
                    )
                    got = qfi_mixed(rho, gen).value
                    want = bitflip_qfi_formula(L, p, second)
                    assert abs(got - want) < 1e-8 * max(1.0, want)


def test_criterion_06_dephasing_dichotomy(critical_states):
    with criterion(6, "dephasing: linear critical QFI vs exponential GHZ decay"):
        p = 0.3
        sizes = [6, 8, 10, 12]
        vals = []
        for L in sizes:
            rho = apply_channel(
                MixedState.from_pure(critical_states(L).state),
                ChannelSpec(kind="dephase_z", p=p),
            )
            vals.append(qfi_mixed(rho, sum_z(L)).value)
        slope = fit_power_law(np.array(sizes, float), np.array(vals)).exponent
        assert 0.8 <= slope <= 1.2
        ghz_vals = {}
        for L in range(4, 11):
            rho = apply_channel(
                MixedState.from_pure(ghz_state(L)), ChannelSpec(kind="dephase_z", p=p)
            )
            ghz_vals[L] = qfi_mixed(rho, sum_z(L)).value
        target = 2.0 * abs(math.log(1.0 - 2.0 * p))
        for L in (6, 8, 10):
            assert ghz_vals[L] < ghz_vals[L - 2]
            # decay rate per site with the quadratic prefactor compensated
            rate = -0.5 * math.log((ghz_vals[L] / ghz_vals[L - 2]) * ((L - 2) / L) ** 2)
            assert abs(rate - target) / target < 0.15


def test_criterion_07_zz_channel_invariance(critical_states):
    with criterion(7, "bond-ZZ channel leaves the QFI unchanged to 1e-8"):
        for L in (4, 6, 8):
            for state in (ghz_state(L), critical_states(L).state):
                rep = zz_channel_invariance_check(state, sum_z(L), 0.3)
                assert rep.difference < 1e-8 * max(1.0, rep.qfi_before)


def test_criterion_08_conjugate_channel_closed_forms():
    with criterion(8, "conjugate dephasing action reproduces the closed-form "
                      "coefficients to 1e-10"):
        for L in (4, 6, 8):
            for p in (0.1, 0.3):
                spec = ChannelSpec(kind="dephase_z", p=p)
                m = to_matrix(in_plane_spin(L, 0.37))
                eye = np.eye(1 << L)
                a, b = conjugate_collective_action(spec, "s_theta", L)
                assert abs(a - (1.0 - 2.0 * p)) < 1e-15 and b == 0.0
                assert np.max(np.abs(apply_channel_matrix(m, spec, L) - (a * m + b * eye))) < 1e-10
                a2, b2 = conjugate_collective_action(spec, "s_theta_sq", L)
                assert abs(a2 - (1.0 - 2.0 * p) ** 2) < 1e-15
                assert abs(b2 - p * (1.0 - p) * L) < 1e-12
                m2 = m @ m
                assert np.max(np.abs(apply_channel_matrix(m2, spec, L) - (a2 * m2 + b2 * eye))) < 1e-10


def test_criterion_09_hadamard_protocol():
    with criterion(9, "translation-readout Fisher information grows superlinearly "
                      "and the symmetry curves collapse"):
        cfis = []
        sizes = [8, 10, 12]
        afm_states = {}
        for L in sizes:
            sol = solve_model(ModelSpec(kind="tfim", L=L, J=-1.0, h=1.0))
            afm_states[L] = sol.state
            gen = staggered_z(L)
            povm = hadamard_test_povm(build_symmetry("translation", L))
            cfis.append(classical_fisher(sol.state, gen, povm, [1e-3])[0])
        slope = fit_power_law(np.array(sizes, float), np.array(cfis)).exponent
        assert 1.5 <= slope <= 2.0
        # theta-curve collapse at L = 10 within 5%
        L = 10
        fm = solve_model(ModelSpec(kind="tfim", L=L)).state
        afm = afm_states[L]
        par = build_symmetry("parity_x", L)
        refl = build_symmetry("reflection", L, bond_center=(L - 2) // 2)
        trans = build_symmetry("translation", L)
        thetas = np.linspace(0.0, 0.5, 21)
        curves = {"parity": [], "reflection": [], "translation": []}
        for th in thetas:
            stf = evolve_phase(fm, sum_z(L), float(th))
            sta = evolve_phase(afm, staggered_z(L), float(th))
            curves["parity"].append(
                float(np.real(np.vdot(stf.amplitudes, par.apply_vec(stf.amplitudes))))
            )
            curves["reflection"].append(
                float(np.real(np.vdot(sta.amplitudes, refl.apply_vec(sta.amplitudes))))
            )
            curves["translation"].append(hadamard_test(sta, trans).re_value)
        normalized = {k: np.array(v) / v[0] for k, v in curves.items()}
        for key in ("reflection", "translation"):
            assert np.max(np.abs(normalized["parity"] - normalized[key])) < 0.05


def test_criterion_10_subsystem_parity_structure():
    with criterion(10, "restricted-parity precision: interior optimum, shrinking "
                       "optimal angle, improving curve collapse"):
        L = 14
        sol = solve_model(ModelSpec(kind="tfim", L=L, boundary="open"))
        grid = default_theta_grid(256)
        curves, reports = {}, {}
        for L_sub in (6, 8, 10):
            proto = make_ising_protocol(L, L_sub, offset=0)
            curves[L_sub] = parity_theta_curve(sol.state, proto, grid)
            reports[L_sub] = window_report(curves[L_sub], L_sub)
        for L_sub, rep in reports.items():
            assert not rep.degenerate and rep.theta_min is not None
        mins = [reports[ls].theta_min for ls in (6, 8, 10)]
        assert mins[0] > mins[1] > mins[2]
        # shape collapse in the rescaled variable improves with block size
        xs = np.linspace(0.5, 2.5, 50)
        shapes = {}
        for L_sub, curve in curves.items():
            x = grid * L_sub ** (7.0 / 8.0)
            shapes[L_sub] = np.interp(xs, x, curve.signal / curve.signal[0])
        d68 = float(np.max(np.abs(shapes[6] - shapes[8])))
        d810 = float(np.max(np.abs(shapes[8] - shapes[10])))
        assert d810 < d68
        # indicative finite-size exponent fits, emitted as data only
        fit_min = fit_power_law(np.array([6.0, 8.0, 10.0]), np.array(mins))
        print(f"  indicative theta_min exponent (finite-size): {fit_min.exponent:.3f}")


def test_criterion_11_deformed_state_suite():
    with criterion(11, "outcome-decoded ladder protocol: sampling, route equality, "
                       "monotone long-range order", 600.0):
        L = 5
        sol = solve_model(ModelSpec(kind="cluster_ladder", L=L))
        ops = [
            PauliOperator.single(2 * L, ladder_site(j, 1, L), "X") for j in range(1, L + 1)
        ]
        ens = enumerate_outcomes(sol.state, ops)
        samples = sample_outcomes(sol.state, ops, seed=20260809, n_samples=10000)
        for (j, k) in ((1, 5), (2, 4), (1, 3)):
            mean, se = decoded_correlator(ens, L, j, k, samples=samples)
            exact = decoded_correlator(ens, L, j, k)
            assert abs(mean - exact) <= 4.0 * se
        assert abs(averaged_qfi(ens, L) - averaged_qfi_decoded(ens, L)) < 1e-9
        betas = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
        for rungs in (5, 6):
            probe = sol.state if rungs == 5 else solve_model(
                ModelSpec(kind="cluster_ladder", L=6)
            ).state
            rep = uniform_outcome_lro_check(probe, rungs, betas)
            assert rep.monotone
            assert rep.long_range_value[-1] > rep.long_range_value[0] - 1e-12


def test_criterion_12_fn_d2_suite(rng):
    with criterion(12, "mixed-state bound sequence: monotone sandwich and the "
                       "purity identities"):
        gen = sum_z(3)
        for _ in range(100):
            g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
            m = g @ g.conj().T
            rho = MixedState(3, m / np.trace(m))
            fs = fn_sequence(rho, gen, 6)
            assert all(fs[i] <= fs[i + 1] + 1e-12 for i in range(6))
            assert all(fs[i + 1] <= 2.0 * fs[i] + 1e-12 for i in range(6))
            purity = float(np.real(np.vdot(rho.matrix, rho.matrix)))
            assert abs(fs[0] - d2(rho, gen) * purity) < 1e-10 * max(1.0, fs[0])
        for st in (ghz_state(3), spin_coherent_state(3)):
            assert abs(d2(MixedState.from_pure(st), gen) - qfi_pure(st, gen)) < 1e-10
