import contextlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from critsense import (
    MixedState,
    PauliOperator,
    PureState,
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
    variance,
)
import critsense.metrology as metrology
from critsense.channels import ChannelSpec, apply_channel, in_plane_spin
from critsense.metrology import precision_curve
from critsense.models import ModelSpec, solve_model
from critsense.policy import POLICY
import critsense.qcore as qcore
from critsense.qcore import collective_spin
from critsense.symmetry import build_symmetry

from conftest import staggered_z, sum_z
from oracles import (
    X as XM, Y as YM, flip_orbit_isometry, gathered_group, kron_op, permutation,
    spectral_qfi_and_fn, sum_z_dense,
)


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
            ref_q, ref_f = spectral_qfi_and_fn(ref_w, ref_v, mat, 6, POLICY.spectral_cutoff)
            assert abs(got_q - ref_q) < 1e-10 * max(1.0, ref_q)
            assert np.max(np.abs(got_f - ref_f)) < 1e-10 * max(1.0, ref_q)


# -- parity blocks against the whole-register oracle -----------------------

PARITY_GENERATORS = {  # by their terms' Z/Y-letter parity: odd, odd, even, both
    "sum_z": sum_z,
    "staggered_z": staggered_z,
    "sum_x": lambda n: collective_spin(n, "X", half=False),
    "z0_plus_z0z1": lambda n: PauliOperator(n, [(1.0, "Z" + "I" * (n - 1)),
                                                (1.0, "ZZ" + "I" * (n - 2))]),
}


def parity_symmetric_rho(rng, n, rank, real):
    """(sigma + X sigma X)/2 for a random rank-``rank`` state sigma, X = prod X."""
    dim = 1 << n
    g = rng.standard_normal((dim, rank))
    if not real:
        g = g + 1j * rng.standard_normal((dim, rank))
    sigma = g @ g.conj().T
    rho = 0.5 * (sigma + sigma[::-1, ::-1])
    return rho / np.trace(rho).real


@contextlib.contextmanager
def eigh_sizes():
    """Dimensions of the matrices np.linalg.eigh is called on inside the block."""
    sizes = []
    real_eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real_eigh(a, *args, **kwargs)

    with mock.patch.object(np.linalg, "eigh", spy):
        yield sizes


@given(
    n=st.integers(2, 8),
    rank=st.integers(1, 6),
    real=st.booleans(),
    name=st.sampled_from(sorted(PARITY_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_parity_blocks_match_whole_register_oracle(n, rank, real, name, seed):
    rng = np.random.default_rng(np.random.Philox(seed))
    rho_matrix = parity_symmetric_rho(rng, n, rank, real)
    gen = PARITY_GENERATORS[name](n)
    oracle_w, oracle_v = np.linalg.eigh(rho_matrix)
    ref_q, ref_f = spectral_qfi_and_fn(oracle_w, oracle_v, gen.to_sparse(), 6,
                                       POLICY.spectral_cutoff)
    rho = MixedState(n, rho_matrix)
    with eigh_sizes() as sizes:
        got_q = qfi_mixed(rho, gen).value
        got_f = fn_sequence(rho, gen, 6)
        w, v = rho.spectrum()
    assert sizes == [1 << (n - 1)] * 2
    tol = 1e-10 * max(1.0, ref_q)
    assert abs(got_q - ref_q) <= tol
    assert np.max(np.abs(got_f - ref_f)) <= tol
    assert np.max(np.abs(w - oracle_w)) <= 1e-10
    assert np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(rho.matrix @ v - v * w)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(1 << n))) <= 1e-10


@pytest.mark.parametrize("name", sorted(PARITY_GENERATORS))
@pytest.mark.parametrize("real", [True, False], ids=["real_rho", "complex_rho"])
@pytest.mark.parametrize("offset", [10.0, 0.5], ids=["over_herm_tol", "under_herm_tol"])
def test_parity_certification_decides_the_path(rng, name, real, offset):
    """A rho off the product-of-X symmetry by more than herm_tol takes the
    whole-register path, one 2^n eigh and the oracle bit for bit; below
    herm_tol the two blocks run."""
    n = 5
    rho_matrix = parity_symmetric_rho(rng, n, 1 << n, real)
    shift = offset * POLICY.herm_tol  # |rho - X rho X| = shift, trace kept
    rho_matrix[0, 0] += shift
    rho_matrix[1, 1] -= shift
    gen = PARITY_GENERATORS[name](n)
    rho = MixedState(n, rho_matrix)
    with eigh_sizes() as sizes:
        got_q = qfi_mixed(rho, gen).value
        got_f = fn_sequence(rho, gen, 6)
    ref_q, ref_f = spectral_qfi_and_fn(*np.linalg.eigh(rho_matrix), gen, 6,
                                       POLICY.spectral_cutoff)
    if offset > 1.0:
        assert sizes == [1 << n]
        assert got_q == ref_q
        assert np.array_equal(got_f, ref_f)
    else:
        assert sizes == [1 << (n - 1)] * 2
        assert abs(got_q - ref_q) <= 1e-10 * max(1.0, ref_q)
        assert np.max(np.abs(got_f - ref_f)) <= 1e-10 * max(1.0, ref_q)


def test_parity_blocks_refuse_a_non_psd_matrix():
    # prod X symmetric and unit trace; each block holds 0.3, 0.2, 0.1 and -0.1
    rho = MixedState(3, np.diag([0.3, 0.2, 0.1, -0.1, -0.1, 0.1, 0.2, 0.3]))
    with eigh_sizes() as sizes, pytest.raises(ValueError, match="min eigenvalue -1.000e-01"):
        qfi_mixed(rho, sum_z(3))
    assert sizes == [4, 4]
    for call in (rho.spectrum, lambda: fn_sequence(rho, sum_z(3), 2)):
        with pytest.raises(ValueError, match="min eigenvalue -1.000e-01"):
            call()


def test_imprint_carries_the_whole_register_spectrum_only(rng):
    """e^{i 0.3 Sum Z} breaks the parity: the imprinted state is one
    whole-register block, and its QFI is what a fresh state of the same
    matrix gives (Sum X and the parity readouts see the imprint)."""
    n = 4
    rho = MixedState(n, parity_symmetric_rho(rng, n, 5, True))
    out = evolve_phase(rho, sum_z(n), 0.3)
    assert [b.isometry for b in out.sector_spectrum()] == [None]
    fresh = MixedState(n, out.matrix)
    for gen in (sum_z(n), collective_spin(n, "X", half=False), PARITY_GENERATORS["z0_plus_z0z1"](n)):
        want = qfi_mixed(fresh, gen).value
        assert abs(qfi_mixed(out, gen).value - want) <= 1e-10 * max(1.0, want)


@pytest.mark.parametrize("where", ["within_block", "across_blocks"])
def test_fn_sequence_pair_sum_check_reads_trace_tol(monkeypatch, where):
    """Two eigenvalues 1/2 + eps and two at -eps (inside psd_tol): the top
    pair sums to 1 + 2 eps, under trace_tol at its default and over it at
    1e-12.  The top pair sits in one symmetry block or one in each."""
    eps = 3e-11
    bell = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]]) / math.sqrt(2.0)
    # columns: Phi+ and Psi+ are prod-X even, Psi- and Phi- odd; the two-site
    # translation (the swap) is even on all but Psi-, so the blocks (k, +-)
    # are (0, +) = {Phi+, Psi+}, (0, -) = {Phi-} and (pi, -) = {Psi-}
    top = (0, 1) if where == "within_block" else (0, 3)
    lam = np.full(4, -eps)
    lam[list(top)] = 0.5 + eps
    rho = MixedState(2, (bell * lam) @ bell.T)
    with eigh_sizes() as sizes:
        fn_sequence(rho, sum_z(2), 3)
    assert sizes == [2, 1, 1]
    monkeypatch.setattr(metrology, "POLICY", replace(POLICY, trace_tol=1e-12))
    with pytest.raises(ValueError, match=r"excess over 1 .* \(trace_tol 1e-12\)"):
        fn_sequence(rho, sum_z(2), 3)


# -- translation x parity blocks against the whole-register oracle ---------

SECTOR_GENERATORS = dict(PARITY_GENERATORS, in_plane=lambda n: in_plane_spin(n, 0.4))


def translation_parity_rho(rng, n, rank, real):
    """A random rank-``rank`` state averaged over the group of the translation
    T and X = prod X: (1/2n) sum_{a, s} T^a X^s sigma X^s T^-a."""
    dim = 1 << n
    g = rng.standard_normal((dim, rank))
    if not real:
        g = g + 1j * rng.standard_normal((dim, rank))
    sigma = g @ g.conj().T
    back = np.argsort(permutation(n, "translation"))
    rho = np.zeros_like(sigma)
    for _ in range(n):
        rho += sigma + sigma[::-1, ::-1]
        sigma = sigma[back][:, back]
    return rho / np.trace(rho).real


@contextlib.contextmanager
def pair_count():
    """Number of block pairs ``metrology._block_pairs`` yields inside the block."""
    count = [0]
    real_pairs = metrology._block_pairs

    def spy(rho, gen):
        for pair in real_pairs(rho, gen):
            count[0] += 1
            yield pair

    with mock.patch.object(metrology, "_block_pairs", spy):
        yield count


@given(
    n=st.integers(3, 9),
    rank=st.integers(1, 6),
    real=st.booleans(),
    name=st.sampled_from(sorted(SECTOR_GENERATORS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_translation_parity_blocks_match_whole_register_oracle(n, rank, real, name, seed):
    rng = np.random.default_rng(np.random.Philox(seed))
    rho_matrix = translation_parity_rho(rng, n, rank, real)
    gen = SECTOR_GENERATORS[name](n)
    oracle_w, oracle_v = np.linalg.eigh(rho_matrix)
    ref_q, ref_f = spectral_qfi_and_fn(oracle_w, oracle_v, gen.to_sparse(), 6,
                                       POLICY.spectral_cutoff)
    rho = MixedState(n, rho_matrix)
    with eigh_sizes() as sizes:
        got_q = qfi_mixed(rho, gen).value
        got_f = fn_sequence(rho, gen, 6)
        w, v = rho.spectrum()
    blocks = rho.sector_spectrum()
    assert len(blocks) == 2 * n
    # a real rho takes the block at -k from the one at k: one eigh per k <= n - k
    assert sizes == [b.values.size for b in blocks
                     if not real or b.sector[0][1] <= n - b.sector[0][1]]
    assert max(sizes) < 1 << (n - 1)
    tol = 1e-10 * max(1.0, ref_q)
    assert abs(got_q - ref_q) <= tol
    assert np.max(np.abs(got_f - ref_f)) <= tol
    assert np.max(np.abs(w - oracle_w)) <= 1e-10
    assert np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(rho.matrix @ v - v * w)) <= 1e-10
    assert np.max(np.abs(v.conj().T @ v - np.eye(1 << n))) <= 1e-10


@pytest.mark.parametrize("real", [True, False], ids=["real_rho", "complex_rho"])
@pytest.mark.parametrize("offset", [10.0, 0.5], ids=["over_herm_tol", "under_herm_tol"])
def test_translation_certification_decides_the_blocks(rng, real, offset):
    """A prod-X symmetric rho off the translation by more than herm_tol
    keeps the two parity blocks P+-^T rho P+-, bit for bit those of the
    flip-only isometries; below herm_tol the 2n momentum blocks run."""
    n = 5
    full = (1 << n) - 1
    rho_matrix = translation_parity_rho(rng, n, 1 << n, real)
    shift = offset * POLICY.herm_tol  # |rho - T rho T^dagger| = shift; prod X and the trace kept
    for b, sign in ((1, 1.0), (full - 1, 1.0), (0, -1.0), (full, -1.0)):
        rho_matrix[b, b] += sign * shift
    rho = MixedState(n, rho_matrix)
    with eigh_sizes() as sizes:
        blocks = rho.sector_spectrum()
    if offset > 1.0:
        assert sizes == [1 << (n - 1)] * 2
        for chi, block in zip((1.0, -1.0), blocks):
            P, _, _ = flip_orbit_isometry(n, {0: 1.0, full: chi})
            w, v = np.linalg.eigh(P.T @ rho.matrix @ P)
            assert np.array_equal(block.isometry.toarray(), P.toarray())
            assert np.array_equal(block.values, w)
            assert np.array_equal(block.vectors, v)
    else:
        assert len(blocks) == 2 * n
        assert max(sizes) < 1 << (n - 1)
    for gen in (sum_z(n), staggered_z(n)):
        ref_q, ref_f = spectral_qfi_and_fn(*np.linalg.eigh(rho_matrix), gen, 6,
                                           POLICY.spectral_cutoff)
        assert abs(qfi_mixed(rho, gen).value - ref_q) <= 1e-10 * max(1.0, ref_q)
        assert np.max(np.abs(fn_sequence(rho, gen, 6) - ref_f)) <= 1e-10 * max(1.0, ref_q)


def test_translation_alone_gives_n_momentum_blocks(rng):
    """Off the product-of-X symmetry (on the two T-fixed states 0...0 and
    1...1) but on the translation's: one block per momentum k."""
    n = 5
    rho_matrix = translation_parity_rho(rng, n, 1 << n, False)
    rho_matrix[0, 0] += 5.0 * POLICY.herm_tol
    rho_matrix[-1, -1] -= 5.0 * POLICY.herm_tol
    rho = MixedState(n, rho_matrix)
    blocks = rho.sector_spectrum()
    assert [b.sector for b in blocks] == [(("translation", k, n),) for k in range(n)]
    ref_w, ref_v = np.linalg.eigh(rho_matrix)
    for name in ("sum_z", "staggered_z", "sum_x"):
        gen = SECTOR_GENERATORS[name](n)
        ref_q, ref_f = spectral_qfi_and_fn(ref_w, ref_v, gen, 6, POLICY.spectral_cutoff)
        assert abs(qfi_mixed(rho, gen).value - ref_q) <= 1e-10 * max(1.0, ref_q)
        assert np.max(np.abs(fn_sequence(rho, gen, 6) - ref_f)) <= 1e-10 * max(1.0, ref_q)


# (basis state, sign) pairs moved by 2 herm_tol, the trace kept: the
# T-fixed 0...0 and 1...1 break only the parity, 1 and its mirror 2^n - 2
# only the translation, 1 against 0...0 both
_BREAKS = {
    "both": (),
    "translation": ((0, 1.0), (-1, -1.0)),
    "parity": ((1, 1.0), (-2, 1.0), (0, -1.0), (-1, -1.0)),
    "none": ((1, 1.0), (0, -1.0)),
}


@pytest.mark.parametrize("real", [True, False], ids=["real_rho", "complex_rho"])
@pytest.mark.parametrize("kept", list(_BREAKS))
@pytest.mark.parametrize("n", [5, 8])
def test_diagonalize_certifies_the_gathered_group(rng, n, kept, real):
    """The group read off the constructor's one pass is the one the full
    permutation gathers certify, for each of the four outcomes; a rho off a
    symmetry by 2 herm_tol falls back to the blocks without it."""
    rho_matrix = translation_parity_rho(rng, n, 1 << n, real)  # full rank: stays PSD
    for b, sign in _BREAKS[kept]:
        rho_matrix[b, b] += sign * 2.0 * POLICY.herm_tol
    want = {"both": ("translation", "X" * n), "translation": ("translation",),
            "parity": ("X" * n,), "none": ()}[kept]
    assert gathered_group(rho_matrix, n) == want
    blocks = MixedState(n, rho_matrix).sector_spectrum()
    assert tuple(name for name, _, _ in blocks[0].sector) == want
    assert len(blocks) == {"both": 2 * n, "translation": n, "parity": 2, "none": 1}[kept]


@pytest.mark.parametrize("n", [6, 7])
def test_block_pairs_follow_the_generator_charges(rng, n):
    """Sum Z pairs (k, +) with (k, -): n pairs; Sum X keeps each of the 2n
    blocks; the in-plane spin does both; the staggered Z pairs (k, +-) with
    (k + pi, -+) on an even chain (n pairs) and every + block with every -
    block on an odd one; Z_0 + Z_0 Z_1 pairs all of them."""
    rho = MixedState(n, translation_parity_rho(rng, n, 3, True))
    want = {
        "sum_z": n,
        "sum_x": 2 * n,
        "in_plane": 3 * n,
        "staggered_z": n if n % 2 == 0 else n * n,
        "z0_plus_z0z1": n * (2 * n + 1),
    }
    for name, pairs in want.items():
        gen = SECTOR_GENERATORS[name](n)
        with pair_count() as count:
            got = qfi_mixed(rho, gen).value
        assert count[0] == pairs, name
        ref, _ = spectral_qfi_and_fn(*np.linalg.eigh(rho.matrix), gen, 0, POLICY.spectral_cutoff)
        assert abs(got - ref) <= 1e-10 * max(1.0, ref), name


def test_site_masked_channel_keeps_the_parity_blocks():
    """A bit flip on site 0 alone breaks the translation: the parity blocks
    run.  The same flip on every site keeps it: 2n momentum blocks."""
    n = 6
    pristine = MixedState.from_pure(ghz_state(n))
    for mask, want in (((0,), [1 << (n - 1)] * 2), (None, None)):
        rho = apply_channel(pristine, ChannelSpec(kind="bitflip_x", p=0.1, site_mask=mask))
        with eigh_sizes() as sizes:
            got = qfi_mixed(rho, sum_z(n)).value
        if want is None:  # k = 0..n/2 for each parity; the real rho reuses k for -k
            assert len(sizes) == 2 * (n // 2 + 1) and max(sizes) < 1 << (n - 1)
        else:
            assert sizes == want
        ref, _ = spectral_qfi_and_fn(*np.linalg.eigh(rho.matrix), sum_z(n), 0,
                                     POLICY.spectral_cutoff)
        assert abs(got - ref) <= 1e-10 * max(1.0, ref)


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


def test_sld_names_the_hermiticity_miss():
    rho = MixedState(2, np.diag([0.4, 0.3, 0.2, 0.1]))
    drho = np.zeros((4, 4), dtype=complex)
    drho[0, 1] = 0.5 * POLICY.herm_tol  # within herm_tol: accepted
    sld(rho, drho)
    drho[0, 1] = 1e-9
    with pytest.raises(ValueError, match=r"max \|drho - drho\^dagger\| 1\.000e-09 exceeds its "
                                         r"tolerance 1\.000e-10 \(herm_tol 1e-10\)"):
        sld(rho, drho)
    drho[0, 1] = np.nan  # NaN compares False with the tolerance: refused too
    with pytest.raises(ValueError, match=r"max \|drho - drho\^dagger\| nan exceeds .*herm_tol"):
        sld(rho, drho)


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
    cfi = classical_fisher(rho, sum_z(3), povm, [theta])[0]
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


@pytest.mark.parametrize("grid, bad", [
    ([np.nan], r"theta\[0\] = nan is not finite"),
    ([0.1, np.inf], r"theta\[1\] = inf is not finite"),
    ([0.1, 0.3, 0.2, np.nan], r"theta\[2\] = 0.2 does not exceed theta\[1\] = 0.3"),
    ([0.1, 0.1], r"theta\[1\] = 0.1 does not exceed"),
], ids=["nan", "inf", "decreasing", "repeated"])
def test_precision_curve_refuses_a_bad_grid_before_allocating(grid, bad):
    # a non-finite angle gave an all-NaN curve; a non-increasing grid ran the
    # whole curve before PrecisionCurve refused it
    import tracemalloc

    L = 12
    probe = ghz_state(L)
    par = PauliOperator(L, [(1.0, "X" * L)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=bad):
            precision_curve(probe, sum_z(L), par, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < probe.amplitudes.nbytes


def test_error_propagation_and_the_curve_record_refuse_non_finite_theta():
    par = PauliOperator(4, [(1.0, "X" * 4)])
    for theta in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="is not finite"):
            error_propagation(ghz_state(4), sum_z(4), par, theta)
    ones = np.ones(2)
    with pytest.raises(ValueError, match=r"theta\[1\] = nan is not finite"):
        metrology.PrecisionCurve(theta=np.array([0.1, np.nan]), signal=ones, variance=ones,
                                 delta_theta=ones)


@pytest.mark.parametrize("deriv, exact", [(np.nan, 0.5), (0.5, np.nan), (np.nan, np.nan)])
def test_delta_theta_refuses_a_nan_derivative(deriv, exact):
    with pytest.raises(ArithmeticError, match=r"exceeds its tolerance .*\(derivative_agree_tol"):
        metrology._delta_theta(0.1, 1.0, deriv, exact)


def test_error_propagation_commuting_observable_sentinel():
    # readout commuting with the generator carries no signal
    dth = error_propagation(ghz_state(4), sum_z(4), sum_z(4), 0.1)
    assert math.isinf(dth)


def test_error_propagation_derivative_routes_agree(critical_states):
    # the reported centered difference matches the commutator i<[A, G]>,
    # evaluated here on the evolved state independently of the library
    st = critical_states(8).state
    gen = sum_z(8)
    par = PauliOperator(8, [(1.0, "X" * 8)])
    for theta in (1e-3, 0.2):
        vec = evolve_phase(st, gen, theta).amplitudes
        avec, gvec = par @ vec, gen @ vec
        an = float(np.real(1j * (np.vdot(avec, gvec) - np.vdot(gvec, avec))))
        spread = math.sqrt(max(1.0 - np.vdot(vec, avec).real ** 2, 0.0))
        dth = error_propagation(st, gen, par, theta)
        assert abs(dth * abs(an) - spread) < 1e-6 * spread


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
    thetas = (1e-4, 0.02, 0.3)
    for theta, cfi in zip(thetas, classical_fisher(st, gen, povm, thetas)):
        dth = error_propagation(st, gen, par, theta)
        assert abs(cfi - dth**-2) < 1e-10 * cfi


def test_classical_fisher_theta_independent_measurement():
    st = ghz_state(3)
    gen = sum_z(3)
    eye = PauliOperator.identity(3, 0.5)
    povm = [eye, eye]  # completeness holds; probabilities never move
    cfi = classical_fisher(st, gen, povm, [0.1])
    assert abs(cfi[0]) < 1e-12


def _parity_povm(n):
    par = PauliOperator(n, [(1.0, "X" * n)])
    half = PauliOperator.identity(n, 0.5)
    return [half + 0.5 * par, half + (-0.5) * par]


def _spy_evolutions(monkeypatch) -> list:
    calls = []
    evolve = metrology._evolve

    def counted(gen, theta, base, out):
        calls.append(theta)
        return evolve(gen, theta, base, out)

    monkeypatch.setattr(metrology, "_evolve", counted)
    return calls


def test_classical_fisher_evolves_each_angle_once(monkeypatch):
    """One probe per angle: theta and theta +- fd_step, three calls."""
    calls = _spy_evolutions(monkeypatch)
    classical_fisher(ghz_state(3), sum_z(3), _parity_povm(3), [0.1])
    step = POLICY.fd_step
    assert sorted(calls) == [0.1 - step, 0.1, 0.1 + step]


def test_classical_fisher_completeness_check():
    st = ghz_state(2)
    with pytest.raises(ValueError, match="POVM effects do not sum to the identity"):
        classical_fisher(st, sum_z(2), [PauliOperator.identity(2, 0.4)], [0.0])


class _CountedEffect:
    """A dense effect that counts its products with a register vector."""

    def __init__(self, mat):
        self.mat, self.shape, self.calls = mat, mat.shape, 0

    def __matmul__(self, vec):
        self.calls += 1
        return self.mat @ vec


def test_classical_fisher_checks_the_povm_once_per_call(monkeypatch):
    # each effect meets the two completeness probes once per call and one
    # evolved probe per evolution: 3 per angle, every evolution spied
    calls = _spy_evolutions(monkeypatch)
    povm = [_CountedEffect(to_matrix(eff)) for eff in _parity_povm(3)]
    grid = [0.05, 0.1, 0.2, 0.4]
    classical_fisher(ghz_state(3), sum_z(3), povm, grid)
    assert len(calls) == 3 * len(grid)
    assert [eff.calls for eff in povm] == [2 + 3 * len(grid)] * 2


@pytest.mark.parametrize("where", ["effect", "generator"])
def test_classical_fisher_refuses_a_wrong_register_before_evolving(monkeypatch, where):
    calls = _spy_evolutions(monkeypatch)
    povm = _parity_povm(3)
    gen = sum_z(3)
    if where == "effect":
        povm[1] = to_matrix(_parity_povm(4)[1])
    else:
        gen = sum_z(4)
    with pytest.raises(ValueError, match="register size mismatch"):
        classical_fisher(ghz_state(3), gen, povm, [0.1, 0.2])
    assert calls == []


@pytest.mark.parametrize("grid, bad", [([0.1, math.nan], "is not finite"),
                                       ([0.2, 0.1], "must be strictly increasing")],
                         ids=["nan", "decreasing"])
def test_classical_fisher_refuses_a_bad_grid_before_evolving(monkeypatch, grid, bad):
    calls = _spy_evolutions(monkeypatch)
    with pytest.raises(ValueError, match=bad):
        classical_fisher(ghz_state(3), sum_z(3), _parity_povm(3), grid)
    assert calls == []


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


def _afm_readouts(mixed):
    """The L = 6 staggered critical probe, its generator and one readout of
    each form: a Pauli string, the reflection, and its CSR and dense forms."""
    L = 6
    probe = solve_model(ModelSpec(kind="tfim", L=L, J=-1.0, h=1.0)).state
    if mixed:
        probe = apply_channel(MixedState.from_pure(probe), ChannelSpec("dephase_z", p=0.05))
    refl = build_symmetry("reflection", L, bond_center=(L - 2) // 2)
    readouts = {
        "pauli": PauliOperator.string(L, {0: "X", 1: "Y"}),
        "symmetry": refl,
        "csr": refl.to_sparse(),
        "dense": refl.to_matrix(),
    }
    return probe, staggered_z(L), readouts


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@pytest.mark.parametrize("form", ["pauli", "symmetry", "csr", "dense"])
def test_precision_curve_is_pointwise_error_propagation(form, mixed):
    # one kernel: a curve cell is exactly the one-point error propagation
    probe, gen, readouts = _afm_readouts(mixed)
    obs = readouts[form]
    grid = [0.05, 0.2, 0.4]
    curve = precision_curve(probe, gen, obs, grid)
    assert np.all(np.isfinite(curve.delta_theta))
    for th, dth in zip(grid, curve.delta_theta):
        assert dth == error_propagation(probe, gen, obs, th)


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
@pytest.mark.parametrize("form", ["pauli", "symmetry", "csr", "dense"])
def test_error_propagation_rejects_mismatched_derivative(monkeypatch, form, mixed):
    # a 0.3 step puts the differenced derivative 17-94% off the commutator
    probe, gen, readouts = _afm_readouts(mixed)
    obs = readouts[form]
    assert math.isfinite(error_propagation(probe, gen, obs, 0.2))
    monkeypatch.setattr(metrology, "POLICY", replace(metrology.POLICY, fd_step=0.3))
    with pytest.raises(ArithmeticError, match=r"exceeds its tolerance .*\(derivative_agree_tol"):
        error_propagation(probe, gen, obs, 0.2)


def test_mixed_curve_factors_a_non_diagonal_generator_once(critical_states, monkeypatch):
    """A dephased probe under the X-sum imprinter: the curve evolves the
    probe's spectral block, so it calls no ``to_matrix`` and builds no
    ``MixedState``, whatever the readout (the agreement with the per-point
    loop is ``test_theta_loop_matches_the_general_loop_oracle[mixed-6]``)."""
    L = 6
    probe = apply_channel(MixedState.from_pure(critical_states(L).state),
                          ChannelSpec("dephase_z", p=0.05))
    gen = collective_spin(L, "X")
    grid = np.linspace(-0.3, 0.6, 4)
    cases = [staggered_z(L), PauliOperator.string(L, {0: "Z", 1: "Z"}),
             build_symmetry("reflection", L, bond_center=(L - 2) // 2)]
    spied = []
    for module in (qcore, metrology):
        real = module.to_matrix

        def spy(op, real=real):
            spied.append(op)
            return real(op)

        monkeypatch.setattr(module, "to_matrix", spy)
    built = qcore.MixedState.__post_init__

    def counted(self):
        spied.append(self)
        built(self)

    monkeypatch.setattr(qcore.MixedState, "__post_init__", counted)
    for obs in cases:
        curve = precision_curve(probe, gen, obs, grid)
        assert np.all(np.isfinite(curve.delta_theta)), obs
    assert spied == []


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


# -- one operator protocol: Pauli, CSR and dense forms agree ---------------

@st.composite
def hermitian_sums(draw):
    """(n, terms): one to five real-weighted Pauli strings on n <= 4 qubits."""
    n = draw(st.integers(1, 4))
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    return n, draw(st.lists(st.tuples(coeffs, words), min_size=1, max_size=5))


def _forms(op):
    return op, op.to_sparse(), to_matrix(op)


@given(hermitian_sums(), st.integers(0, 2**32 - 1))
def test_expectation_and_variance_agree_across_forms(case, seed):
    n, terms = case
    op = PauliOperator(n, terms)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    pure = PureState(n, v / np.linalg.norm(v))
    mixed = random_mixed(rng, n)
    m = to_matrix(op)
    scale = 1.0 + sum(abs(c) for c, _ in op.terms) ** 2
    for state in (pure, mixed):
        if isinstance(state, PureState):
            mv = m @ state.amplitudes
            mean = np.vdot(state.amplitudes, mv)
            second = np.vdot(mv, mv).real
        else:
            mean = np.trace(m @ state.matrix)
            second = np.trace(m @ m @ state.matrix).real
        for form in _forms(op):
            assert abs(expectation(state, form) - mean) < 1e-12 * scale
            assert abs(variance(state, form) - (second - mean.real**2)) < 1e-12 * scale


@pytest.mark.parametrize("mixed", [False, True])
def test_classical_fisher_agrees_across_forms(mixed):
    L = 4
    probe = spin_coherent_state(L)
    if mixed:
        probe = apply_channel(MixedState.from_pure(probe), ChannelSpec("dephase_z", p=0.05))
    gen = sum_z(L)
    half = PauliOperator.identity(L, 0.5)
    obs = PauliOperator.string(L, {0: "X", 2: "Y"})
    plus, minus = half + 0.5 * obs, half + (-0.5) * obs
    pauli, csr, dense = (list(pair) for pair in zip(_forms(plus), _forms(minus)))
    want = classical_fisher(probe, gen, pauli, [0.1, 0.3])
    assert np.all(want > 0.1)
    for povm in (csr, dense):
        got = classical_fisher(probe, gen, povm, [0.1, 0.3])
        assert np.all(abs(got - want) < 1e-9 * want)


# a mixed probe's grid form evolves its spectral block, the per-angle oracle
# a MixedState per angle: the two agree to 2.4e-11 relative (L = 4, dephased
# coherent state), the rounding of the differenced probabilities
MIXED_CFI_TOL = 1e-10


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_classical_fisher_matches_the_per_angle_oracle(mixed):
    # the grid form gives the one-angle form it replaced (kept in
    # oracles.per_angle_classical_fisher), for every POVM form, a diagonal
    # and an X-sum generator, and theta = 0 on the grid: bit for bit for a
    # pure probe, to MIXED_CFI_TOL relative (absolute below 1) for a mixed one
    from oracles import per_angle_classical_fisher

    L = 4
    probe = spin_coherent_state(L)
    if mixed:
        probe = apply_channel(MixedState.from_pure(probe), ChannelSpec("dephase_z", p=0.05))
    half = PauliOperator.identity(L, 0.5)
    obs = PauliOperator.string(L, {0: "X", 2: "Y"})
    povms = [list(pair) for pair in zip(_forms(half + 0.5 * obs), _forms(half + (-0.5) * obs))]
    grid = [-0.2, 0.0, 0.1, 0.3]
    for gen in (sum_z(L), collective_spin(L, "X")):
        for povm in povms:
            want = np.array([
                per_angle_classical_fisher(povm, lambda t: evolve_phase(probe, gen, t), th)
                for th in grid])
            got = classical_fisher(probe, gen, povm, grid)
            if mixed:
                assert np.all(np.abs(got - want) <= MIXED_CFI_TOL * np.maximum(np.abs(want), 1.0))
            else:
                assert np.array_equal(got, want), (gen, povm)


@pytest.mark.parametrize("mixed", [False, True])
def test_error_propagation_dense_and_sparse_readouts(mixed):
    """A matrix readout gets <A^2> - <A>^2 as its variance, like its Pauli form.

    The Pauli form differentiates by centered differences cross-checked
    against the commutator, the matrix forms by Richardson extrapolation, so
    those two agree to the ~1e-10 truncation error of the centered step;
    the CSR and dense forms share one route and agree to 1e-12.
    """
    L = 4
    probe = spin_coherent_state(L)
    if mixed:
        probe = apply_channel(MixedState.from_pure(probe), ChannelSpec("dephase_z", p=0.05))
    gen = sum_z(L)
    sx = PauliOperator(L, [(1.0, "I" * j + "X" + "I" * (L - 1 - j)) for j in range(L)])
    for theta in (0.1, 0.3):
        pauli = error_propagation(probe, gen, sx, theta)
        sparse = error_propagation(probe, gen, sx.to_sparse(), theta)
        dense = error_propagation(probe, gen, to_matrix(sx), theta)
        assert pauli > 0.1
        assert abs(sparse - dense) < 1e-12 * pauli
        assert abs(sparse - pauli) < 1e-9 * pauli


def _grouped_route_ops(n):
    z0 = PauliOperator.single(n, 0, "Z")
    z0z1 = PauliOperator.string(n, {0: "Z", 1: "Z"}) if n > 1 else PauliOperator.identity(n)
    return {"sum_x": collective_spin(n, "X"), "s_theta": in_plane_spin(n, 0.7), "z0_z0z1": z0 + z0z1}


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_mixed_variance_and_commutator_from_grouped_form(rng, n, cplx):
    # tr(rho O^2) and i tr(rho [A, G]) of Pauli sums from the grouped forms
    # agree with the op @ rho route, which the CSR form of the readout keeps,
    # and with the dense trace
    dim = 1 << n
    g = rng.standard_normal((dim, dim)) + (1j * rng.standard_normal((dim, dim)) if cplx else 0.0)
    m = g @ g.conj().T
    rho = MixedState(n, m / np.trace(m).real)
    ops = _grouped_route_ops(n)
    for name, obs in ops.items():
        scale = 1.0 + sum(abs(c) for c, _ in obs.terms) ** 2
        want = np.trace(to_matrix(obs) @ to_matrix(obs) @ rho.matrix)
        assert abs(qcore.trace_product(rho, obs, obs) - want) <= 1e-12 * scale, name
        assert abs(variance(rho, obs) - variance(rho, obs.to_sparse())) <= 1e-12 * scale, name
        for gen in ops.values():
            got = 1j * (qcore.trace_product(rho, obs, gen) - qcore.trace_product(rho, gen, obs))
            a, g = to_matrix(obs), to_matrix(gen)
            want = 1j * np.trace(rho.matrix @ (a @ g - g @ a))
            assert abs(got - want) <= 1e-12 * scale * (1.0 + sum(abs(c) for c, _ in gen.terms)), name


# -- one theta reader: a mixed probe is its weighted spectral ensemble -----

@st.composite
def reader_cases(draw):
    """(state, gen, obs, dense obs, theta) on n <= 5 qubits.

    The state is a random mixed state of any rank, or a weakly dephased GHZ
    probe read out through the product of X near theta = 0, nearly an
    eigenstate of it.  The generator is a Z-sum or an X-sum with random
    weights; the readout a Pauli string (+-1, an involution) or sum, or a
    Hermitian symmetry, in its own form, as CSR or dense.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    near = draw(st.booleans())
    n = draw(st.integers(2 if near else 1, 5))
    letter = draw(st.sampled_from("ZX"))
    gen = PauliOperator(n, [(float(w), qcore.pauli_word(n, {j: letter}))
                            for j, w in enumerate(rng.uniform(-1.0, 1.0, n))])
    if near:
        p = draw(st.floats(1e-9, 1e-3))
        state = apply_channel(MixedState.from_pure(ghz_state(n)), ChannelSpec("dephase_z", p=p))
        obs = draw(st.sampled_from([PauliOperator(n, [(1.0, "X" * n)]),
                                    build_symmetry("parity_x", n)]))
        theta = draw(st.sampled_from([0.0, 1e-7, -1e-5, 1e-3]))
    else:
        state = random_mixed(rng, n, draw(st.integers(1, 1 << n)))
        kinds = ["string", "sum"] + (["parity_x", "parity_z", "reflection"] if n > 1 else [])
        kind = draw(st.sampled_from(kinds))
        words = ["".join(rng.choice(list("IXYZ"), n)) for _ in range(3)]
        if kind == "string":
            obs = PauliOperator(n, [(float(rng.choice([-1.0, 1.0])), words[0])])
        elif kind == "sum":
            obs = PauliOperator(n, [(float(c), w) for c, w in zip(rng.uniform(-1.0, 1.0, 3), words)])
        else:
            obs = build_symmetry(kind, n, bond_center=0)
        theta = draw(st.floats(-1.0, 1.0))
    dense = to_matrix(obs) if isinstance(obs, PauliOperator) else obs.to_matrix()
    form = draw(st.sampled_from(["own", "csr", "dense"]))
    if form != "own":
        obs = dense if form == "dense" else sp.csr_matrix(dense)
    return state, gen, obs, dense, theta


@given(reader_cases())
def test_reader_matches_the_dense_mixed_formulas(case):
    # the theta reader on a mixed probe's block gives tr(rho A), tr(rho A^2)
    # - tr(rho A)^2 and i tr(rho [A, G]) of rho_theta = U rho U^dagger, and
    # for an involution its minus-branch probability (1 - tr(rho A)) / 2
    state, gen, obs, a, theta = case
    assert metrology._ensemble(state).flags.c_contiguous  # as ``out=`` buffers must be
    involution = metrology._is_involution(obs)
    read = metrology._reader(state, gen, obs, involution)
    signal, var, exact = read(theta, True)
    g = to_matrix(gen)
    w, v = np.linalg.eigh(g)
    u = (v * np.exp(1j * theta * w)) @ v.conj().T
    rho = u @ state.matrix @ u.conj().T
    want = np.trace(rho @ a).real
    scale = (1.0 + np.linalg.norm(a, 2)) ** 2 * (1.0 + np.linalg.norm(g, 2))
    assert abs(signal - want) <= 1e-12 * scale
    assert abs(var - (np.trace(rho @ a @ a).real - want * want)) <= 1e-12 * scale
    assert abs(exact - np.real(1j * np.trace(rho @ (a @ g - g @ a)))) <= 1e-12 * scale
    if involution:
        assert abs(read(theta, False) - 0.5 * (1.0 - want)) <= 1e-12 * scale
