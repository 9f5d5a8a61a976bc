import math

import numpy as np
import pytest

from critsense import (
    ModelSpec,
    PauliOperator,
    build_hamiltonian,
    expectation,
    ghz_state,
    ground_state,
    luttinger_K,
    oat_squeezed_state,
    solve_model,
    spin_coherent_state,
    to_matrix,
    variance,
)
from critsense.models import (
    NoCrossingError,
    ladder_site,
    locate_rydberg_critical_detuning,
    optimal_oat_twist,
    rydberg_order_response,
)
from critsense.metrology import qfi_pure
from critsense.policy import POLICY
from critsense.qcore import collective_spin, parity_x_operator, pauli_word, staggered_z
from critsense.symmetry import build_symmetry

from conftest import sum_z
from oracles import (
    ground_vec,
    rydberg_blockade_dense,
    sector_dimension,
    sector_gap,
    sector_ground_space,
    sector_levels,
    xxz_dense,
)


def test_tfim_l2_merged_bond():
    H = build_hamiltonian(ModelSpec(kind="tfim", L=2))
    assert H.terms == ((-1.0, "IX"), (-1.0, "XI"), (-2.0, "ZZ"))


def test_xxz_open_bond_terms():
    H = build_hamiltonian(ModelSpec(kind="xxz", L=3, delta=0.0, boundary="open"))
    words = {w for _, w in H.terms}
    assert words == {"XXI", "IXX", "YYI", "IYY"}


def test_cluster_ladder_term_count():
    H = build_hamiltonian(ModelSpec(kind="cluster_ladder", L=3))
    assert len(H.terms) == 8
    for coeff, word in H.terms:
        assert coeff == -1.0
        assert sorted(c for c in word if c != "I") == ["X", "Z", "Z"]


def test_extra_terms_hook():
    n = 6
    extra = [(0.25, "XIIIII")]
    H = build_hamiltonian(ModelSpec(kind="cluster_ladder", L=3), extra_terms=extra)
    assert (0.25, "XIIIII") in H.terms


def test_invalid_specs():
    with pytest.raises(ValueError):
        ModelSpec(kind="tfim", L=4, J=0.0)
    with pytest.raises(ValueError):
        ModelSpec(kind="xxz", L=4, delta=1.5)
    with pytest.raises(ValueError):
        ModelSpec(kind="rydberg", L=4, v1=-1.0)
    with pytest.raises(ValueError):
        ModelSpec(kind="nope", L=4)


def test_ground_state_tfim2_frozen_energy():
    sol = ground_state(build_hamiltonian(ModelSpec(kind="tfim", L=2)))
    assert abs(sol.energy - (-2.0 * math.sqrt(2.0))) < 1e-10


def test_ground_state_paramagnetic_limit():
    sol = solve_model(ModelSpec(kind="tfim", L=4, J=1.0, h=100.0))
    fid = abs(np.vdot(sol.state.amplitudes, spin_coherent_state(4).amplitudes)) ** 2
    assert fid > 0.999


def test_ground_state_parity_sector_resolution():
    # deep ferromagnet: the near-degenerate pair is split across the parity
    # sectors, and the solve runs on the +1 (k = 0) block, so its gap is the
    # one inside that block
    spec = ModelSpec(kind="tfim", L=8, J=1.0, h=0.2)
    H = to_matrix(build_hamiltonian(spec))
    w = np.linalg.eigvalsh(H)
    assert w[1] - w[0] < 1e-4
    sol = solve_model(spec)
    assert abs(sol.gap - sector_gap(H, [("X" * 8, 1.0)], translation=+1.0)) < 1e-10
    par = parity_x_operator(8)
    val = expectation(sol.state, par).real
    assert abs(val - 1.0) < 1e-8
    # frozen oracle for the sector-resolved correlator
    assert abs(
        expectation(sol.state, PauliOperator.string(8, {0: "Z", 4: "Z"})).real
        - 0.989845648304
    ) < 1e-9


def test_ground_state_variational_bound():
    spec = ModelSpec(kind="tfim", L=6)
    sol = solve_model(spec)
    H = build_hamiltonian(spec)
    for basis_idx in (0, 21, 63):
        from critsense import PureState

        prod = PureState.from_basis(6, basis_idx)
        assert expectation(prod, H).real >= sol.energy - 1e-8


def test_ground_state_residual():
    spec = ModelSpec(kind="xxz", L=8, delta=0.4)
    sol = solve_model(spec)
    H = build_hamiltonian(spec)
    resid = np.linalg.norm(H.apply_vec(sol.state.amplitudes) - sol.energy * sol.state.amplitudes)
    assert resid < 1e-8 * max(1.0, abs(sol.energy))


def test_xxz_delta1_total_z_sector():
    sol = solve_model(ModelSpec(kind="xxz", L=4, delta=1.0))
    # oracle: dense ground state sits in the zero-magnetization sector
    e0, gs = ground_vec(xxz_dense(4, 1.0))
    assert abs(sol.energy - e0) < 1e-10
    sz = sum_z(4)
    assert abs(expectation(sol.state, sz)) < 1e-10
    zz = variance(sol.state, sz)
    assert abs(zz) < 1e-10  # <sumZ^2> = 0: exact sector eigenstate


def test_hamiltonian_symmetry_commutators():
    # [H_tfim, prod X] = 0 and [H_xxz, sum Z] = 0 at the matrix level
    Ht = to_matrix(build_hamiltonian(ModelSpec(kind="tfim", L=6)))
    P = to_matrix(parity_x_operator(6))
    assert np.max(np.abs(Ht @ P - P @ Ht)) < 1e-12
    Hx = to_matrix(build_hamiltonian(ModelSpec(kind="xxz", L=6, delta=0.3)))
    Sz = to_matrix(sum_z(6))
    assert np.max(np.abs(Hx @ Sz - Sz @ Hx)) < 1e-12


def test_translation_invariance_matrix_level():
    T = build_symmetry("translation", 6).to_matrix()
    H = to_matrix(build_hamiltonian(ModelSpec(kind="rydberg", L=6, detuning=1.0)))
    assert np.max(np.abs(T @ H @ T.conj().T - H)) < 1e-12


def test_ghz_and_coherent_states():
    g = ghz_state(1)
    assert np.allclose(g.amplitudes, np.array([1, 1]) / math.sqrt(2))
    assert abs(variance(ghz_state(4), sum_z(4)) - 16.0) < 1e-12
    assert abs(variance(spin_coherent_state(4), sum_z(4)) - 4.0) < 1e-12


def test_oat_zero_twist_is_coherent():
    assert np.allclose(
        oat_squeezed_state(5, 0.0).amplitudes, spin_coherent_state(5).amplitudes
    )


def test_oat_sum_z_qfi_twist_invariant():
    # the twist commutes with sum Z, so that particular QFI never moves
    for t in (0.2, 0.9):
        assert abs(qfi_pure(oat_squeezed_state(8, t), sum_z(8)) - 32.0) < 1e-9


def test_oat_optimal_twist_beats_sql():
    t_star, f_star, gen = optimal_oat_twist(8, n_grid=120)
    assert 4 * 8 < f_star < 4 * 64
    assert abs(qfi_pure(oat_squeezed_state(8, t_star), gen) - f_star) < 1e-9


def test_luttinger_parameter():
    assert abs(luttinger_K(0.0) - 1.0) < 1e-15
    assert abs(luttinger_K(1.0) - 0.5) < 1e-15
    assert luttinger_K(-1.0) == math.inf
    assert luttinger_K(-0.999) > 10.0
    with pytest.raises(ValueError):
        luttinger_K(1.2)


def test_ladder_site_layout():
    assert ladder_site(1, 1, 4) == 0
    assert ladder_site(1, 2, 4) == 1
    assert ladder_site(4, 2, 4) == 7
    with pytest.raises(ValueError):
        ladder_site(5, 1, 4)


@pytest.mark.slow
def test_rydberg_crossing_location_and_response():
    res = locate_rydberg_critical_detuning(1.0, 50.0, 0.0, [8, 10, 12])
    assert res.detuning > 0.0 and np.isfinite(res.detuning)
    assert res.bracket_width <= 1e-2
    # response of the order magnitude peaks near the crossing for the largest size
    grid = np.linspace(0.3, 1.8, 11)
    resp = [rydberg_order_response(1.0, 50.0, 0.0, 12, float(d)) for d in grid]
    peak = float(grid[int(np.argmax(resp))])
    assert abs(peak - res.detuning) < 0.35


def test_rydberg_crossing_solves_each_point_once(monkeypatch):
    import critsense.models as models

    real = models._rydberg_susceptibility
    solved = []

    def counting(spec):
        solved.append((spec.L, spec.detuning))
        return real(spec)

    monkeypatch.setattr(models, "_rydberg_susceptibility", counting)
    res = locate_rydberg_critical_detuning(1.0, 50.0, 0.0, [4, 6, 8])
    # both pairs share L = 6 on the same coarse grid, and each bisection
    # starts from its coarse-grid bracket end
    assert len(solved) == len(set(solved))
    assert {L for L, _ in solved} == {4, 6, 8}
    assert res.bracket_width <= 1e-2


def test_rydberg_blockade_basis_counts():
    from critsense.models import rydberg_blockade_basis

    # open chains count Fibonacci-style, periodic ones Lucas-style
    assert rydberg_blockade_basis(4, "open").size == 8
    assert rydberg_blockade_basis(5, "open").size == 13
    assert rydberg_blockade_basis(4, "periodic").size == 7
    assert rydberg_blockade_basis(6, "periodic").size == 18


def test_rydberg_blockade_matches_large_v1():
    from critsense.models import solve_rydberg_blockaded

    spec_hard = ModelSpec(kind="rydberg", L=8, omega=1.0, detuning=1.2, v1=50.0)
    blockaded = solve_rydberg_blockaded(spec_hard)
    # no adjacent double occupancy in the embedded state
    from critsense.models import rydberg_blockade_basis

    allowed = set(rydberg_blockade_basis(8).tolist())
    support = np.nonzero(np.abs(blockaded.state.amplitudes) > 1e-12)[0]
    assert set(support.tolist()) <= allowed
    # converges to the full-space solve as V1 grows
    spec_big = ModelSpec(kind="rydberg", L=8, omega=1.0, detuning=1.2, v1=4000.0)
    full = ground_state(build_hamiltonian(spec_big), sector=None)
    fid = abs(np.vdot(full.state.amplitudes, blockaded.state.amplitudes)) ** 2
    assert fid > 0.999
    with pytest.raises(ValueError):
        solve_rydberg_blockaded(ModelSpec(kind="tfim", L=4))


@pytest.mark.parametrize("L", [8, 15], ids=["dense_47", "lanczos_1364"])
def test_blockade_solve_matches_restricted_dense_oracle(eigsh_spy, L):
    from critsense.models import rydberg_blockade_basis, solve_rydberg_blockaded

    spec = ModelSpec(kind="rydberg", L=L, omega=1.0, detuning=1.2, v1=50.0)
    sol = solve_rydberg_blockaded(spec)
    states, H = rydberg_blockade_dense(L, 1.0, 1.2)
    assert np.array_equal(rydberg_blockade_basis(L), states)
    assert sol.sector_labels == {"blockade_dim": float(states.size)}
    assert len(eigsh_spy) == (states.size > 1024)
    w, v = np.linalg.eigh(H)
    assert abs(sol.energy - w[0]) < 1e-10
    assert abs(sol.gap - (w[1] - w[0])) < 1e-10
    amps = sol.state.amplitudes
    assert np.linalg.norm(np.delete(amps, states)) == 0.0
    assert abs(np.vdot(v[:, 0], amps[states])) ** 2 > 1.0 - 1e-10


@pytest.mark.parametrize("n", [6, 11], ids=["dense", "lanczos"])
def test_full_register_basis_matches_no_basis(n):
    H = build_hamiltonian(ModelSpec(kind="tfim", L=n, J=-1.0, h=0.8))
    plain = ground_state(H)
    full = ground_state(H, basis=np.arange(1 << n))
    assert abs(full.energy - plain.energy) < 1e-12
    assert abs(full.gap - plain.gap) < 1e-10
    assert abs(np.vdot(plain.state.amplitudes, full.state.amplitudes)) ** 2 > 1.0 - 1e-12


@pytest.mark.parametrize("h", [0.1, 0.2, 1.0], ids=["multiplet", "near_degenerate", "unique"])
def test_gap_is_first_excitation(h):
    # splittings 4e-9 (under degeneracy_tol: a two-member multiplet), 1e-6, O(1)
    spec = ModelSpec(kind="tfim", L=8, h=h)
    H = to_matrix(build_hamiltonian(spec))
    w = np.linalg.eigvalsh(H)
    assert (w[1] - w[0] < POLICY.degeneracy_tol) == (h == 0.1)
    # no sector: the whole register
    assert abs(ground_state(build_hamiltonian(spec)).gap - (w[1] - w[0])) < 1e-10
    # the natural sector (parity +1, k = 0) is the block that was diagonalized
    gap = sector_gap(H, [("X" * 8, 1.0)], translation=+1.0)
    assert abs(solve_model(spec).gap - gap) < 1e-10


def test_sector_labels_are_named():
    tfim = solve_model(ModelSpec(kind="tfim", L=6))
    assert set(tfim.sector_labels) == {"parity_x", "translation_re"}
    assert abs(tfim.sector_labels["parity_x"] - 1.0) < 1e-10
    open_chain = solve_model(ModelSpec(kind="tfim", L=6, boundary="open"))
    assert set(open_chain.sector_labels) == {"parity_x"}
    ladder = solve_model(ModelSpec(kind="cluster_ladder", L=3))
    assert set(ladder.sector_labels) == {"parity_x_chain1", "parity_x_chain2"}
    for val in ladder.sector_labels.values():
        assert abs(val - 1.0) < 1e-8


def test_rydberg_no_crossing_error():
    with pytest.raises(NoCrossingError):
        locate_rydberg_critical_detuning(1.0, 50.0, 0.0, [4, 6], window=(3.2, 3.5), coarse_points=4)


# -- real-symmetric solves on the grouped operator ------------------------

def _dm_chain(n):
    """Ising chain plus a Dzyaloshinskii-Moriya term 0.3 sum (X_j Y_k - Y_j X_k):
    Hermitian, with an imaginary matrix."""
    terms = []
    for j in range(n):
        k = (j + 1) % n
        terms.append((0.3, pauli_word(n, {j: "X", k: "Y"})))
        terms.append((-0.3, pauli_word(n, {j: "Y", k: "X"})))
    return build_hamiltonian(ModelSpec(kind="tfim", L=n)) + PauliOperator(n, terms)


_GROUND_CASES = {
    "tfim_fm": lambda n: build_hamiltonian(ModelSpec(kind="tfim", L=n, J=1.0)),
    "tfim_afm": lambda n: build_hamiltonian(ModelSpec(kind="tfim", L=n, J=-1.0)),
    "xxz": lambda n: build_hamiltonian(ModelSpec(kind="xxz", L=n, delta=0.4)),
    "rydberg": lambda n: build_hamiltonian(
        ModelSpec(kind="rydberg", L=n, detuning=1.0, v1=5.0)
    ),
    "dm_complex": _dm_chain,
}


@pytest.fixture()
def eigsh_spy(monkeypatch):
    """(dtype, dim, k) of every ``eigsh`` call, in order."""
    import scipy.sparse.linalg as spla

    seen = []
    real_eigsh = spla.eigsh

    def spy(A, k=6, *args, **kwargs):
        seen.append((A.dtype, A.shape[0], k))
        return real_eigsh(A, k, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", spy)
    return seen


@pytest.mark.parametrize(
    "n, name",
    [(11, name) for name in _GROUND_CASES] + [(12, "tfim_fm")],
)
def test_lanczos_ground_state_matches_dense_eigh(eigsh_spy, n, name):
    import scipy.linalg as sla

    H = _GROUND_CASES[name](n)
    sol = ground_state(H)
    # one call per k; the XXZ doublet at odd n takes k = 2, then k = 4
    dtype = np.float64 if name != "dm_complex" else np.complex128
    assert eigsh_spy and all(seen == dtype for seen, _, _ in eigsh_spy)
    w, v = sla.eigh(to_matrix(H), subset_by_index=[0, 3])
    assert abs(sol.energy - w[0]) < 1e-10
    # weight of the returned state in the dense ground space (XXZ at odd n
    # has a degenerate doublet, every other case a unique ground state)
    ground = v[:, w - w[0] < 1e-8]
    weight = float(np.sum(np.abs(ground.conj().T @ sol.state.amplitudes) ** 2))
    assert weight > 1.0 - 1e-10


# -- sector-block Lanczos ------------------------------------------------

def _ladder_parities(rungs):
    n = 2 * rungs
    return [
        pauli_word(n, {ladder_site(j, y, rungs): "X" for j in range(1, rungs + 1)})
        for y in (1, 2)
    ]


_SECTOR_CASES = {
    "fm_periodic": ModelSpec(kind="tfim", L=11),
    "fm_open": ModelSpec(kind="tfim", L=11, boundary="open"),
    "afm_periodic": ModelSpec(kind="tfim", L=11, J=-1.0),
    "afm_open": ModelSpec(kind="tfim", L=11, J=-1.0, boundary="open"),
    "ordered": ModelSpec(kind="tfim", L=11, h=0.2),   # doublet split across the sectors
    "ladder": ModelSpec(kind="cluster_ladder", L=6),  # Z2 x Z2 of the chain parities
}


@pytest.mark.parametrize("name", list(_SECTOR_CASES))
def test_sector_block_matches_projected_dense_ground_space(eigsh_spy, name):
    spec = _SECTOR_CASES[name]
    n = spec.n_qubits
    words = _ladder_parities(spec.L) if spec.kind == "cluster_ladder" else ["X" * n]
    flips = [(w, 1.0) for w in words]
    # the periodic Ising chain adds the translation at k = 0; the open chain
    # and the ladder keep the parity blocks of 2^(n - #parities) states
    momentum = +1.0 if spec.kind == "tfim" and spec.boundary == "periodic" else None
    sol = solve_model(spec)
    # Lanczos ran on the sector block only, never on the full register
    dims = {dim for _, dim, _ in eigsh_spy}
    assert eigsh_spy and dims == {sector_dimension(n, flips, momentum)}
    if momentum is None:
        assert dims == {1 << (n - len(words))}
    # the reference projects Lanczos levels of the whole register's CSR
    e0, space = sector_ground_space(build_hamiltonian(spec).to_sparse(), flips, translation=momentum)
    assert abs(sol.energy - e0) < 1e-10
    weight = float(np.sum(np.abs(space.conj().T @ sol.state.amplitudes) ** 2))
    assert weight > 1.0 - 1e-10
    parities = [v for label, v in sol.sector_labels.items() if label.startswith("parity")]
    assert len(parities) == len(words)
    assert all(abs(v - 1.0) < 1e-10 for v in parities)
    assert ("translation_re" in sol.sector_labels) == (momentum is not None)
    if momentum is not None:
        assert abs(sol.sector_labels["translation_re"] - 1.0) < 1e-10


_DENSE_SECTOR_CASES = {
    "fm_periodic": ModelSpec(kind="tfim", L=10),
    "fm_open": ModelSpec(kind="tfim", L=10, boundary="open"),
    "afm_periodic": ModelSpec(kind="tfim", L=10, J=-1.0),
    "afm_open": ModelSpec(kind="tfim", L=10, J=-1.0, boundary="open"),
    "ordered": ModelSpec(kind="tfim", L=10, h=0.2),   # doublet split across the sectors
    "ladder": ModelSpec(kind="cluster_ladder", L=5),  # Z2 x Z2 of the chain parities
    "rydberg": ModelSpec(kind="rydberg", L=10, detuning=1.0),  # T alone, k = 0
}


@pytest.mark.parametrize("name", list(_DENSE_SECTOR_CASES))
def test_dense_solve_factors_the_sector_block(monkeypatch, name):
    spec = _DENSE_SECTOR_CASES[name]
    n = spec.n_qubits
    H = build_hamiltonian(spec)
    if spec.kind == "rydberg":
        flips, momentum = [], +1.0
        sector = [("translation_re", build_symmetry("translation", n), +1.0)]
    else:
        words = _ladder_parities(spec.L) if spec.kind == "cluster_ladder" else ["X" * n]
        flips = [(w, 1.0) for w in words]
        momentum = +1.0 if spec.boundary == "periodic" and spec.kind == "tfim" else None
    rows = []
    real_eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        rows.append(a.shape[0])
        return real_eigh(a, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eigh", spy)
        sol = ground_state(H, sector=sector) if spec.kind == "rydberg" else solve_model(spec)
    # one dense eigh, of the sector block, never of the 2^n register
    dim = sector_dimension(n, flips, momentum)
    assert rows == [dim] and dim < 1 << n
    levels = sector_levels(to_matrix(H), flips, 64, translation=momentum)
    e0, space = next(levels)
    assert space.shape[1] == 1
    assert abs(sol.energy - e0) < 1e-10
    assert abs(np.vdot(space[:, 0], sol.state.amplitudes)) ** 2 > 1.0 - 1e-10
    assert abs(sol.gap - (next(levels)[0] - e0)) < 1e-10
    for label, value in sol.sector_labels.items():
        assert abs(value - 1.0) < 1e-10, label


def test_empty_sector_solves_the_whole_register():
    # on two sites T = -1 holds only (|01> - |10>), whose parity is -1: the
    # character (T, prod X) = (-1, +1) has no state, so no block is taken and
    # the whole register's multiplet is resolved after the solve
    H = build_hamiltonian(ModelSpec(kind="tfim", L=2))
    sector = [("parity_x", parity_x_operator(2), +1.0),
              ("translation_re", build_symmetry("translation", 2), -1.0)]
    assert sector_dimension(2, [("XX", 1.0)], -1.0) == 0
    sol = ground_state(H, sector=sector)
    w = np.linalg.eigvalsh(to_matrix(H))
    assert abs(sol.energy - w[0]) < 1e-12
    assert abs(sol.gap - (w[1] - w[0])) < 1e-12


_MOMENTUM_CASES = {
    "fm": dict(J=1.0, h=1.0),
    "afm": dict(J=-1.0, h=1.0),
    "ordered": dict(J=1.0, h=0.2),
    "negative_h": dict(J=1.0, h=-1.0),  # odd n: the ground state has parity -1
}


@pytest.mark.parametrize("n, name", [(n, name) for n in (11, 12) for name in _MOMENTUM_CASES
                                     if name != "negative_h" or n % 2])
def test_momentum_block_matches_full_register(eigsh_spy, n, name):
    spec = ModelSpec(kind="tfim", L=n, **_MOMENTUM_CASES[name])
    parity = 1.0 if spec.h > 0 or n % 2 == 0 else -1.0
    flips = [("X" * n, parity)]
    sol = solve_model(spec)
    assert eigsh_spy and {dim for _, dim, _ in eigsh_spy} == {sector_dimension(n, flips, +1.0)}
    # the reference projects Lanczos levels of the whole register's CSR
    e0, space = sector_ground_space(build_hamiltonian(spec).to_sparse(), flips, translation=+1.0)
    assert abs(sol.energy - e0) < 1e-10
    assert float(np.sum(np.abs(space.conj().T @ sol.state.amplitudes) ** 2)) > 1.0 - 1e-10
    assert abs(sol.sector_labels["parity_x"] - parity) < 1e-10
    assert abs(sol.sector_labels["translation_re"] - 1.0) < 1e-10


@pytest.mark.parametrize("h", [1.0, -1.0])
@pytest.mark.parametrize("J", [1.0, -1.0])
@pytest.mark.parametrize("L", [9, 11], ids=["dense", "lanczos"])
def test_ising_natural_sector_holds_the_ground_state(L, J, h):
    # Perron-Frobenius: one ground state, at k = 0 and parity sign(h)^L
    spec = ModelSpec(kind="tfim", L=L, J=J, h=h)
    H = build_hamiltonian(spec)
    if L <= 10:
        w, v = np.linalg.eigh(to_matrix(H))
    else:
        import scipy.sparse.linalg as spla

        w, v = spla.eigsh(H.to_sparse(), k=2, which="SA")
        order = np.argsort(w)
        w, v = w[order], v[:, order]
    sol = solve_model(spec)
    assert w[1] - w[0] > 1e-3
    assert abs(sol.energy - w[0]) < 1e-10
    assert abs(np.vdot(v[:, 0], sol.state.amplitudes)) ** 2 > 1.0 - 1e-10
    assert abs(sol.sector_labels["parity_x"] - np.sign(h) ** L) < 1e-10
    assert abs(sol.sector_labels["translation_re"] - 1.0) < 1e-10


@pytest.mark.parametrize("n", [11, 12])
def test_momentum_pi_joins_only_an_even_ring(eigsh_spy, n):
    # T = -1 is the k = pi block on an even ring, where the ordered
    # antiferromagnet's Neel difference |0101..> - |1010..> (parity -1) sits;
    # on an odd ring T^n = 1 has no -1 eigenvalue, so T stays outside the
    # parity block
    H = build_hamiltonian(ModelSpec(kind="tfim", L=n, J=-1.0, h=0.5))
    sector = [("parity_x", parity_x_operator(n), -1.0),
              ("translation_re", build_symmetry("translation", n), -1.0)]
    sol = ground_state(H, sector=sector)
    momentum = -1.0 if n % 2 == 0 else None
    flips = [("X" * n, -1.0)]
    assert {dim for _, dim, _ in eigsh_spy} == {sector_dimension(n, flips, momentum)}
    e0, space = sector_ground_space(H.to_sparse(), flips, translation=momentum)
    assert abs(sol.energy - e0) < 1e-10
    assert float(np.sum(np.abs(space.conj().T @ sol.state.amplitudes) ** 2)) > 1.0 - 1e-10
    if momentum is not None:
        assert abs(sol.sector_labels["translation_re"] + 1.0) < 1e-10


def test_rydberg_momentum_block_matches_full_register(eigsh_spy):
    L = 12
    spec = ModelSpec(kind="rydberg", L=L, omega=1.0, detuning=1.0, v1=50.0)
    H = build_hamiltonian(spec)
    translation = build_symmetry("translation", L)
    sol = ground_state(H, sector=[("translation_re", translation, +1.0)])
    assert eigsh_spy and {dim for _, dim, _ in eigsh_spy} == {sector_dimension(L, [], +1.0)} == {352}
    eigsh_spy.clear()
    # the whole register, its multiplet resolved to T = +1 after the solve
    with pytest.MonkeyPatch.context() as mp:
        import critsense.models as models

        mp.setattr(models, "_sector_block", lambda H, sector, lanczos: (None, set()))
        full = ground_state(H, sector=[("translation_re", translation, +1.0)])
    assert {dim for _, dim, _ in eigsh_spy} == {1 << L}
    assert abs(sol.energy - full.energy) < 1e-10
    assert abs(np.vdot(full.state.amplitudes, sol.state.amplitudes)) ** 2 > 1.0 - 1e-10
    assert abs(sol.sector_labels["translation_re"] - 1.0) < 1e-10
    assert abs(full.sector_labels["translation_re"] - 1.0) < 1e-10


def test_translation_joins_only_a_translation_invariant_hamiltonian(eigsh_spy):
    # a field on one site breaks the ring: the parity block alone, T resolved after
    n = 11
    H = build_hamiltonian(ModelSpec(kind="tfim", L=n), extra_terms=[(-0.3, pauli_word(n, {0: "X"}))])
    sector = [("parity_x", parity_x_operator(n), +1.0),
              ("translation_re", build_symmetry("translation", n), +1.0)]
    sol = ground_state(H, sector=sector)
    assert {dim for _, dim, _ in eigsh_spy} == {1 << (n - 1)}
    e0, space = sector_ground_space(to_matrix(H), [("X" * n, 1.0)])
    assert abs(sol.energy - e0) < 1e-10
    assert sol.sector_labels["translation_re"] < 1.0 - 1e-3


def test_non_commuting_parity_falls_back_to_full_register(eigsh_spy):
    # a longitudinal field on site 0 anticommutes with the product-of-X parity
    n = 11
    H = build_hamiltonian(ModelSpec(kind="tfim", L=n), extra_terms=[(-0.3, pauli_word(n, {0: "Z"}))])
    sol = ground_state(H, sector=[("parity_x", parity_x_operator(n), +1.0)])
    assert eigsh_spy and {dim for _, dim, _ in eigsh_spy} == {1 << n}
    e0, space = sector_ground_space(to_matrix(H), [])
    assert abs(sol.energy - e0) < 1e-10
    assert abs(np.vdot(space[:, 0], sol.state.amplitudes)) ** 2 > 1.0 - 1e-10
    assert sol.sector_labels["parity_x"] < 1.0 - 1e-3  # the field mixes the sectors


def test_lanczos_grows_k_until_the_multiplet_is_resolved(eigsh_spy):
    import scipy.linalg as sla

    n = 11
    H = build_hamiltonian(ModelSpec(kind="tfim", L=n, h=0.1))
    w, v = sla.eigh(to_matrix(H), subset_by_index=[0, 3])
    assert w[1] - w[0] < POLICY.degeneracy_tol < w[2] - w[0]
    sol = ground_state(H)
    assert eigsh_spy == [(np.float64, 1 << n, 2), (np.float64, 1 << n, 4)]
    assert abs(sol.gap - (w[1] - w[0])) < 1e-10
    doublet = v[:, :2]
    assert float(np.sum(np.abs(doublet.conj().T @ sol.state.amplitudes) ** 2)) > 1.0 - 1e-10
    # both members came back: a sector outside the block resolves the doublet
    parity = build_symmetry("parity_x", n)
    resolved = ground_state(H, sector=[("parity", parity, -1.0)])
    assert abs(resolved.sector_labels["parity"] + 1.0) < 1e-8


@pytest.mark.parametrize("name", ["tfim_afm", "dm_complex"])
def test_dense_ground_state_solves_in_operator_dtype(monkeypatch, name):
    seen = []
    real_eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    H = _GROUND_CASES[name](8)
    sol = ground_state(H)
    assert seen[0] == (np.float64 if name == "tfim_afm" else np.complex128)
    w, v = real_eigh(to_matrix(H))
    assert abs(sol.energy - w[0]) < 1e-10
    assert abs(np.vdot(v[:, 0], sol.state.amplitudes)) ** 2 > 1.0 - 1e-10


def _translation_reference(vec, L):
    # the permutation the sector resolution used before build_symmetry:
    # out[(b >> 1) | ((b & 1) << (L - 1))] = vec[b]
    idx = np.arange(1 << L)
    out = np.empty(vec.shape, dtype=np.complex128)
    out[(idx >> 1) | ((idx & 1) << (L - 1))] = vec
    return out


def test_translation_sector_operator_matches_reference(rng):
    L = 6
    T = build_symmetry("translation", L)
    basis = rng.standard_normal((1 << L, 3)) + 1j * rng.standard_normal((1 << L, 3))
    basis, _ = np.linalg.qr(basis)
    ref = basis.conj().T @ np.stack([_translation_reference(basis[:, i], L) for i in range(3)], 1)
    block = basis.conj().T @ (T @ basis)
    assert np.max(np.abs(0.5 * (block + block.conj().T) - 0.5 * (ref + ref.conj().T))) < 1e-14
    sol = solve_model(ModelSpec(kind="tfim", L=L, J=-1.0))
    psi = sol.state.amplitudes
    want = float(np.real(np.vdot(psi, _translation_reference(psi, L))))
    assert abs(sol.sector_labels["translation_re"] - want) < 1e-14
    assert abs(expectation(sol.state, T).real - want) < 1e-14


def test_collective_and_staggered_generators_unchanged():
    import conftest

    for L in (2, 5, 8):
        assert collective_spin(L, "Z", half=False).terms == sum_z(L).terms
        assert staggered_z(L).terms == conftest.staggered_z(L).terms


@pytest.mark.parametrize("solve, spec", [
    ("ground_state", ModelSpec(kind="tfim", L=6)),            # dense eigh
    ("ground_state", ModelSpec(kind="tfim", L=11)),           # Lanczos
    ("blockaded", ModelSpec(kind="rydberg", L=8, detuning=1.2)),   # 47 states: dense
    ("blockaded", ModelSpec(kind="rydberg", L=15, detuning=1.2)),  # 1364 states: Lanczos
], ids=["dense", "lanczos", "blockaded_dense", "blockaded_lanczos"])
def test_residual_failure_names_tolerance_and_excess(monkeypatch, solve, spec):
    import dataclasses

    import critsense.models as models
    from critsense.models import EigensolverError, solve_rydberg_blockaded

    def run():
        if solve == "ground_state":
            return ground_state(build_hamiltonian(spec))
        return solve_rydberg_blockaded(spec)

    run()  # within the default tolerance
    monkeypatch.setattr(models, "POLICY", dataclasses.replace(models.POLICY, residual_tol=0.0))
    with pytest.raises(EigensolverError) as info:
        run()
    message = str(info.value)
    assert "residual" in message
    assert "exceeds its tolerance 0.000e+00" in message
    assert "residual_tol 0 x max(1, |E|)" in message
    resid = float(message.split("residual ")[1].split()[0])
    excess = float(message.rsplit("by ", 1)[1])
    assert resid > 0 and excess == resid


def test_oat_state_refuses_oversized_register_before_allocating():
    import tracemalloc

    from critsense.policy import CapacityError

    L = POLICY.sparse_cap + 1
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"{L} qubits"):
            oat_squeezed_state(L, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
