import mpmath
import numpy as np

from critsense import ModelSpec, build_hamiltonian, solve_model, solve_tfim_fermion, zz_correlators
from critsense.fermion import qfi_generator_second_moment
from critsense.qcore import sector_isometry

from mpref import block_coordinates, block_matrix, lowest_eigenpair, ray_distance, toeplitz_minors


def test_lowest_eigenpair_matches_the_critical_ising_closed_form():
    # the periodic critical Ising chain (J = h = 1, even L) has its ground
    # state at k = 0 with parity +1, E0 = -sum_k |2 sin(k / 2)| over the
    # L antiperiodic momenta k = (2m + 1) pi / L, which sums to -2 / sin(pi / 2L)
    L, dps = 6, 30
    spec = ModelSpec(kind="tfim", L=L)
    H = build_hamiltonian(spec)
    P, reps, norms = sector_isometry(L, ("translation", "X" * L), (0, 0))
    block = block_matrix(H, P, reps, norms, dps)
    energy, vec = lowest_eigenpair(block, dps)
    with mpmath.workdps(dps):
        assert abs(energy + 2 / mpmath.sin(mpmath.pi / (2 * L))) < mpmath.mpf(10) ** -25
        assert mpmath.norm(block * vec - energy * vec) < mpmath.mpf(10) ** -25
        assert abs(mpmath.norm(vec) - 1) < mpmath.mpf(10) ** -25
    # the float solve sits within a few ulp of the reference
    coords, outside = block_coordinates(solve_model(spec).state.amplitudes, P, reps, norms)
    assert outside < 1e-14
    assert ray_distance(coords, vec, dps) < 1e-14
    assert ray_distance(-1j * coords, vec, dps) < 1e-14  # blind to the global phase
    # a numpy block takes its float entries as exact
    dense = np.array([[2.0, 1.0], [1.0, 2.0]])
    low, low_vec = lowest_eigenpair(dense, dps)
    assert abs(low - 1) < mpmath.mpf(10) ** -25
    assert ray_distance(np.array([1.0, -1.0]) / np.sqrt(2), low_vec, dps) < 1e-15


def test_string_minors_and_second_moment_match_the_40_digit_elimination():
    # the reference eliminates the same float kernel values, so this bounds
    # the rounding of the O(r^2) recursion alone
    L, dps = 64, 40
    sol = solve_tfim_fermion(L)
    ref = toeplitz_minors(sol.kernel, L - 1, dps)
    got = zz_correlators(sol, L - 1)
    with mpmath.workdps(dps):
        for r, (value, want) in enumerate(zip(got, ref), start=1):
            assert abs(mpmath.mpf(value) - want) <= mpmath.mpf(1e-13) * abs(want), r
        half = L // 2
        moment = L + L * (2 * mpmath.fsum(ref[:half - 1]) + ref[half - 1])
        assert abs(qfi_generator_second_moment(sol) - moment) <= mpmath.mpf(1e-13) * moment
