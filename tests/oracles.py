"""Brute-force dense oracles, independent of the library internals.

Everything here is built from plain numpy Kronecker products so the test
expectations never share code with the implementation they check.  The
exceptions are kernels kept to pin a rewrite bit for bit: the (2,) * n flip
``apply_vec``, the gathered-factor exponential, the three-buffer bit flip,
the general theta loop of ``precision_curve`` (``general_precision_curve``),
which evolves a fresh state per call through the library's ``qcore``, the
one-angle ``classical_fisher`` (``per_angle_classical_fisher``), and the
symmetry bookkeeping on permutation arrays (the basis permutations of the
generators and of the ``build_symmetry`` kinds, their scatter action,
the disorder operator's site rotation,
COO-built matrix and matrix anticommutation check, the orbit isometry, the
whole-register phase vectors of the grouped form and the gathered group
average), and the rank-1 elimination of the fermion string minors.
"""
import math

import numpy as np
from functools import reduce

from critsense.metrology import PrecisionCurve
from critsense.policy import POLICY
from critsense.qcore import (
    PauliOperator,
    PureState,
    _rotate,
    evolve_phase,
    expectation,
    into_frame,
    trace_product,
    variance,
)
from critsense.symmetry import SymmetryOperator

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
LETTER = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_op(L, ops):
    """Dense operator with single-site matrices at the given sites."""
    return reduce(np.kron, [ops.get(j, I2) for j in range(L)])


def kron_word(word):
    return reduce(np.kron, [LETTER[c] for c in word])


def tfim_dense(L, J=1.0, h=1.0, periodic=True):
    H = np.zeros((2**L, 2**L), dtype=complex)
    for j in range(L if periodic else L - 1):
        H -= J * kron_op(L, {j: Z, (j + 1) % L: Z})
    for j in range(L):
        H -= h * kron_op(L, {j: X})
    return H


def xxz_dense(L, delta, periodic=True):
    H = np.zeros((2**L, 2**L), dtype=complex)
    for j in range(L if periodic else L - 1):
        k = (j + 1) % L
        H += kron_op(L, {j: X, k: X}) + kron_op(L, {j: Y, k: Y})
        H += delta * kron_op(L, {j: Z, k: Z})
    return H


def ground_vec(H, sector_op=None, want=1.0, degeneracy_tol=1e-8):
    """Lowest eigenvector, resolved inside a degenerate multiplet if asked."""
    w, v = np.linalg.eigh(H)
    members = np.where(w - w[0] < degeneracy_tol)[0]
    if sector_op is None or members.size == 1:
        return w[0], v[:, 0]
    basis = v[:, members]
    block = basis.conj().T @ sector_op @ basis
    wb, vb = np.linalg.eigh(0.5 * (block + block.conj().T))
    pick = int(np.argmin(np.abs(wb - want)))
    return w[0], basis @ vb[:, pick]


def sum_z_dense(L):
    return sum(kron_op(L, {j: Z}) for j in range(L))


def expect(vec, mat):
    return float(np.real(vec.conj() @ mat @ vec))


def rydberg_blockade_dense(L, omega, detuning):
    """Sorted hard-blockade configurations of the periodic chain and the dense
    Rydberg Hamiltonian between them (no V2).  Site j is bit L - 1 - j,
    occupied when set; no two neighbours are occupied, so the V1 bonds never
    contribute."""
    occ = lambda b, j: (b >> (L - 1 - j)) & 1
    states = [b for b in range(2**L)
              if not any(occ(b, j) and occ(b, (j + 1) % L) for j in range(L))]
    row = {b: i for i, b in enumerate(states)}
    H = np.zeros((len(states), len(states)))
    for i, b in enumerate(states):
        H[i, i] = -detuning * sum(occ(b, j) for j in range(L))
        for j in range(L):
            k = row.get(b ^ (1 << (L - 1 - j)))
            if k is not None:
                H[i, k] += 0.5 * omega
    return np.array(states), H


def diagonal_exponential(diag, scale, vec):
    """e^{scale D} vec for D = diag(diag), one exp per basis entry."""
    return np.exp(scale * diag) * vec


def diagonal_imprint(rho, diag, theta):
    """U rho U^dagger for U = e^{i theta D}, D = diag(diag), entry by entry."""
    u = np.exp(1j * theta * diag)
    return rho * np.outer(u, u.conj())


def _ring_shift(vec, n):
    """T vec for the translation T|b> = |(b >> 1) | ((b & 1) << (n - 1))>."""
    idx = np.arange(1 << n)
    out = np.empty_like(vec)
    out[(idx >> 1) | ((idx & 1) << (n - 1))] = vec
    return out


def sector_levels(H, flips, levels=8, degeneracy_tol=1e-8, translation=None):
    """The levels of the Hermitian H that reach the joint eigenspace of
    X-strings (and of the translation), lowest first: for each, its energy
    and an orthonormal basis of the level projected onto that space.

    ``flips`` lists (I/X letter string, eigenvalue +-1) pairs.  Each string
    acts as the permutation b -> b ^ mask (site 0 the most significant bit);
    ``translation``, when given, is the wanted eigenvalue +-1 of the ring
    translation T (``_ring_shift``).  The projector prod (I + eigenvalue X)/2,
    times sum_a translation^a T^a / n, is applied to the lowest ``levels``
    eigenvectors, from dense ``eigh`` (or ``eigsh`` of the whole register for
    a sparse H), and a level (the eigenvalues within ``degeneracy_tol`` of
    its first) reaches the space when its eigenvectors keep any weight.  A
    generator: it stops at the last of the ``levels`` eigenvalues."""
    import scipy.linalg as sla
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if sp.issparse(H):
        w, v = spla.eigsh(H, k=levels, which="SA")
        order = np.argsort(w)
        w, v = w[order], v[:, order]
    else:
        w, v = sla.eigh(H, subset_by_index=[0, levels - 1])
    idx = np.arange(H.shape[0])
    for word, want in flips:
        mask = int(word.translate(str.maketrans("IX", "01")), 2)
        v = 0.5 * (v + want * v[idx ^ mask])
    if translation is not None:
        n = idx.size.bit_length() - 1
        acc, cur = np.zeros_like(v), v
        for a in range(n):
            acc = acc + translation**a * cur
            cur = _ring_shift(cur, n)
        v = acc / n
    found = []
    for e in w:
        if any(abs(e - f) < degeneracy_tol for f in found):
            continue
        u, s, _ = np.linalg.svd(v[:, np.abs(w - e) < degeneracy_tol], full_matrices=False)
        if s[0] > 1e-6:
            found.append(e)
            yield float(e), u[:, s > 1e-6]


def sector_ground_space(H, flips, levels=8, degeneracy_tol=1e-8, translation=None):
    """Lowest level of the Hermitian H that reaches the joint eigenspace
    of X-strings (and of the translation), and an orthonormal basis of that
    level projected onto it: the first of ``sector_levels``."""
    for level in sector_levels(H, flips, levels, degeneracy_tol, translation):
        return level
    raise ValueError(f"none of the lowest {levels} levels reaches the sector")


def sector_gap(H, flips, translation=None, degeneracy_tol=1e-8):
    """E1 - E0 inside the joint eigenspace of ``sector_levels``, from the
    whole spectrum of the dense H: 0 when its lowest level holds several
    states of the space."""
    levels = sector_levels(H, flips, H.shape[0], degeneracy_tol, translation)
    e0, space = next(levels)
    return 0.0 if space.shape[1] > 1 else next(levels)[0] - e0


def sector_dimension(n, flips, translation=None):
    """Dimension of that joint eigenspace, by the character formula
    dim = sum_g chi(g) tr(U_g) / |G|, where the trace of a basis permutation
    counts its fixed points; the group is the products T^a prod X^f."""
    import itertools

    idx = np.arange(1 << n)
    masks = [int(word.translate(str.maketrans("IX", "01")), 2) for word, _ in flips]
    total, count = 0.0, 0
    img = idx
    for a in range(n if translation is not None else 1):
        for picks in itertools.product((0, 1), repeat=len(flips)):
            mask, chi = 0, (translation or 1.0) ** a
            for pick, m, (_, want) in zip(picks, masks, flips):
                if pick:
                    mask, chi = mask ^ m, chi * want
            total += chi * np.count_nonzero((img ^ mask) == idx)
            count += 1
        img = _ring_shift(img, n)
    return int(round(total / count))


def spectral_qfi_and_fn(w, v, gen, n_max, cutoff):
    """Spectral QFI and F_0..F_n as one sum over the whole register.

    ``w, v`` are an eigendecomposition of rho; ``gen`` is any operator with
    ``gen @ v`` (a dense or sparse matrix, or the library's operator).  With
    O_ij = <i|gen|j> and clipped eigenvalues,
    QFI = 2 sum_{li+lj>cutoff} (li-lj)^2/(li+lj) |O_ij|^2 and
    F_n = 2 sum (li-lj)^2 [sum_{l<=n} (1-li-lj)^l] |O_ij|^2.  The operations
    follow the full-register path the parity blocks replace, in its order,
    so that path reproduces both bit for bit.
    """
    w = np.clip(w, 0.0, None)
    m2 = np.abs(v.conj().T @ (gen @ v)) ** 2
    li = w[:, None]
    lj = w[None, :]
    ssum = li + lj
    weights = np.divide((li - lj) ** 2, ssum, out=np.zeros_like(ssum), where=ssum > cutoff)
    qfi = 2.0 * float(np.sum(weights * m2))
    diff2 = (li - lj) ** 2
    base = np.clip(1.0 - ssum, 0.0, 1.0)
    fn = np.empty(n_max + 1)
    power = np.ones_like(base)
    acc = np.zeros_like(base)
    for l in range(n_max + 1):
        acc = acc + power
        fn[l] = 2.0 * float(np.sum(diff2 * acc * m2))
        power = power * base
    return qfi, fn


def flip_orbit_isometry(n_qubits, group):
    """Orbit isometry of a group of X-string flips with a +-1 character.

    ``group`` maps each element, an XOR mask on the basis index, to its
    character chi(g) (the identity 0 maps to 1).  The action b -> b ^ g is
    free, so every orbit gives one column, sum_g chi(g)|s ^ g> / sqrt(|G|)
    with s the orbit minimum.  Returns ``(P, reps, sqrt(|G|))``: the
    (2^n, 2^n / |G|) CSR isometry and the sorted orbit minima, one per
    column.  This is the flip-only construction the general orbit
    isometry replaced; it pins the floats the pure-state sector solves read.
    """
    import math

    import scipy.sparse as sp

    idx = np.arange(1 << n_qubits, dtype=np.int64)
    rep = idx.copy()
    chi = np.ones(idx.size)
    for g, c in group.items():  # rep = min over the orbit, chi = chi(b ^ rep)
        other = idx ^ g
        lower = other < rep
        rep[lower] = other[lower]
        chi[lower] = c
    is_rep = rep == idx
    col = (np.cumsum(is_rep) - 1)[rep]
    scale = math.sqrt(len(group))
    P = sp.csr_matrix(
        (chi / scale, col, np.arange(idx.size + 1)), shape=(idx.size, idx.size // len(group))
    )
    return P, np.flatnonzero(is_rep), scale


def bitflip_sitewise(rho, p, sites):
    """Bit-flip channel one site at a time: X_j rho X_j flips the row bit and
    the column bit of site j, axes j and n + j of the (2,) * 2n view (site 0
    the most significant), and each site mixes rho with its flip by p."""
    n = int(np.log2(rho.shape[0]))
    out = np.array(rho)
    tens = out.reshape((2,) * (2 * n))
    for j in sites:
        tens[...] = (1.0 - p) * tens + p * np.flip(tens, axis=(j, n + j))
    return out


def flip_apply_vec(op, vec, out=None, form=None):
    """``PauliOperator.apply_vec`` by the (2,) * n flip route.

    Each flip-mask group of the operator's grouped form adds phase * vec,
    flipped with ``np.flip`` along the masked axes of the (2,) * n (+ (k,))
    tensor view; the first group is written as the product of the flipped
    factors plus the zero the sum starts from.  A single diagonal group is
    phase * vec.  This is the kernel the coalesced-view ``apply_vec`` must
    reproduce bit for bit; it reads only the grouped masks and each phase
    table broadcast over its view into one vector over the basis (or the
    phases of ``form``, a grouped form of the operator, in its place).
    """
    form = op._grouped() if form is None else form
    n = op.n_qubits
    vec = np.asarray(vec)
    dtype = np.result_type(vec.dtype, np.float64 if form.real else np.complex128)
    vectors = [p if np.isscalar(p) or p.size == 1 << n else np.broadcast_to(p, shape).reshape(-1)
               for p, (shape, _) in zip(form.phases, form.views)]
    if form.masks == (0,):
        phase = vectors[0]
        if vec.ndim == 2 and not np.isscalar(phase):
            phase = phase[:, None]
        return np.multiply(phase, vec, out=out, dtype=dtype)
    shape = (2,) * n + vec.shape[1:]
    phases = [p if np.isscalar(p) else p.reshape(shape[:n] + (1,) * (vec.ndim - 1))
              for p in vectors]
    vec_t = vec.reshape(shape)
    if out is None:
        out = np.empty(vec.shape, dtype=dtype)
    if not form.masks:
        out[...] = 0.0
    out_t = out.reshape(shape)
    for g, (phase, mask) in enumerate(zip(phases, form.masks)):
        axes = tuple(j for j in range(n) if mask >> (n - 1 - j) & 1)
        if g == 0:
            flipped = phase if np.isscalar(phase) else np.flip(phase, axis=axes)
            np.multiply(flipped, np.flip(vec_t, axis=axes), out=out_t)
            out += 0.0
        else:
            out_t += np.flip(phase * vec_t, axis=axes)
    return out


def gathered_exponential(gen, scale, vec, out=None):
    """``apply_exponential`` by gathering a 2^n factor array: the phase
    table of the generator's frame diagonal D exponentiated and taken over
    every basis state (its index broadcast over the register), then
    multiplied into ``vec`` rotated into the frame, and the product rotated
    back (``qcore.into_frame`` and ``qcore._rotate``, the frame's own
    rotation; a diagonal generator rotates nothing)."""
    rotations, diag = gen.frame()
    values, index = diag.phase_table()
    inverse = diag._register(index)
    factors = np.exp(scale * values)
    vec = into_frame(rotations, vec)
    if out is None:
        out = factors.take(inverse) * vec
    else:
        factors.take(inverse, out=out, mode="clip")
        np.multiply(out, vec, out=out)
    _rotate(out, rotations)
    return out


def bitflip_three_buffers(rho, p, sites):
    """The bit-flip kernel as it ran in three dim^2 buffers, kept to pin the
    one-buffer kernel bit for bit.

    K = kron_j [[1-p, p], [p, 1-p]] (I_2 off ``sites``) acts on the row index
    of M[a, d] = rho[a, a ^ d]: one GEMM with its factor on the high n//2
    sites over the whole matrix, one batched GEMM with the factor on the
    rest, on the float64 view of a complex matrix, then the gather back.
    ``rho`` is a C-contiguous float64 or complex128 matrix.
    """
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    flip = np.array([[1.0 - p, p], [p, 1.0 - p]])
    factors = [flip if j in set(sites) else np.eye(2) for j in range(n)]
    k_high = reduce(np.kron, factors[:n // 2], np.ones((1, 1)))
    k_low = reduce(np.kron, factors[n // 2:])
    xor = np.arange(dim)[:, None] ^ np.arange(dim)
    moved = np.take_along_axis(rho, xor, axis=1)
    out = np.empty_like(rho)
    shape = (k_high.shape[0], k_low.shape[0], -1)
    np.matmul(k_high, moved.view(np.float64).reshape(shape[0], -1),
              out=out.view(np.float64).reshape(shape[0], -1))
    np.matmul(k_low, out.view(np.float64).reshape(shape), out=moved.view(np.float64).reshape(shape))
    return np.take_along_axis(moved, xor, axis=1)


# -- the general theta loop, as precision_curve ran it before its one loop --


def _is_involution(obs) -> bool:
    """Observables with obs^2 = I: +-1-weighted single Pauli strings and the
    Hermitian symmetry permutations (unitary, so Hermitian means obs^2 = I)."""
    if isinstance(obs, PauliOperator):
        return (
            len(obs.terms) == 1
            and abs(obs.terms[0][0].imag) < 1e-15
            and abs(abs(obs.terms[0][0].real) - 1.0) < 1e-15
        )
    return isinstance(obs, SymmetryOperator) and obs.is_hermitian


def _branch_probs(state, obs):
    """(p_plus, p_minus) of the +-1 outcomes of an involutory observable.

    Branch norms avoid the catastrophic cancellation of 1 - <obs>^2 when the
    state is nearly an eigenstate, which the small-outcome Fisher weights
    amplify.  Mixed states are resolved over their spectral ensemble for the
    same reason.
    """
    if isinstance(state, PureState):
        vec = state.amplitudes
        ovec = obs @ vec
        plus = 0.5 * (vec + ovec)
        minus = 0.5 * (vec - ovec)
        return float(np.vdot(plus, plus).real), float(np.vdot(minus, minus).real)
    w, v = state.spectrum()
    keep = w > POLICY.spectral_cutoff  # noise-level weights carry O(1) branch
    w = w[keep] / np.sum(w[keep])      # norms and would swamp tiny outcomes
    v = v[:, keep]
    ov = obs @ v
    minus = 0.5 * (v - ov)
    p_minus = float(np.dot(w, np.sum(np.abs(minus) ** 2, axis=0)))
    plus = 0.5 * (v + ov)
    p_plus = float(np.dot(w, np.sum(np.abs(plus) ** 2, axis=0)))
    return p_plus, p_minus


def _variance_at(state, obs) -> float:
    if _is_involution(obs):
        p_plus, p_minus = _branch_probs(state, obs)
        total = p_plus + p_minus
        return 4.0 * p_plus * p_minus / (total * total)
    return variance(state, obs)


def _centered(state, gen, obs, theta: float, step: float) -> float:
    """Centered difference of <obs> across theta +- step.

    An involution differences only its minus-branch probability:
    d<A>/dtheta = -2 dp_minus/dtheta exactly (the normalization is imprint
    invariant), which keeps the quotient clean when the probe is nearly an
    A-eigenstate.
    """
    if _is_involution(obs):
        _, m_up = _branch_probs(evolve_phase(state, gen, theta + step), obs)
        _, m_dn = _branch_probs(evolve_phase(state, gen, theta - step), obs)
        return -(m_up - m_dn) / step
    up = expectation(evolve_phase(state, gen, theta + step), obs).real
    dn = expectation(evolve_phase(state, gen, theta - step), obs).real
    return (up - dn) / (2.0 * step)


def _reported_derivative(state, gen, obs, theta: float, step: float) -> float:
    """d<obs>/dtheta by centered differences for a Pauli-sum readout, by
    Richardson extrapolation of two centered steps for any other form."""
    coarse = _centered(state, gen, obs, theta, step)
    if isinstance(obs, PauliOperator):
        return coarse
    fine = _centered(state, gen, obs, theta, 0.5 * step)
    return (4.0 * fine - coarse) / 3.0


def _commutator_derivative(evolved, gen, obs) -> float:
    """Exact d<obs>/dtheta = i<[obs, gen]> on the already evolved state."""
    if isinstance(evolved, PureState):
        vec = evolved.amplitudes
        avec = obs @ vec
        gvec = gen @ vec
        # i(<psi|A G|psi> - <psi|G A|psi>)
        return float(np.real(1j * (np.vdot(avec, gvec) - np.vdot(gvec, avec))))
    if isinstance(obs, PauliOperator):  # i tr(rho [A, G]) from the grouped forms
        commutator = trace_product(evolved, obs, gen) - trace_product(evolved, gen, obs)
        return float(np.real(1j * commutator))
    g_rho = gen @ evolved.matrix  # (G rho)^dagger = rho G
    return float(np.real(1j * np.trace(obs @ (g_rho - g_rho.conj().T))))


def _delta_theta(theta: float, var: float, deriv: float, exact: float) -> float:
    """sqrt(var) / |deriv| (+inf below ``signal_floor``), once the reported
    derivative is within ``derivative_agree_tol`` of the commutator one."""
    miss = abs(exact - deriv)
    tol = POLICY.derivative_agree_tol * max(1.0, abs(exact))
    if miss > tol:
        raise ArithmeticError(
            f"derivative routes disagree at theta={theta!r}: reported {deriv!r}, "
            f"commutator {exact!r}; off by {miss:.3e}, over the tolerance {tol:.3e}"
        )
    return math.inf if abs(deriv) < POLICY.signal_floor else math.sqrt(var) / abs(deriv)


def general_precision_curve(state, gen, obs, theta_grid) -> PrecisionCurve:
    """``precision_curve`` by its general loop: a fresh evolved state per
    call (a mixed one a new ``MixedState``, diagonalized afresh for an
    involution's branch probabilities), the signal, variance and commutator
    derivative from the one at the grid angle, the reported derivative from
    up to four more."""
    thetas = np.asarray(theta_grid, dtype=float)
    sig = np.empty_like(thetas)
    var = np.empty_like(thetas)
    dth = np.empty_like(thetas)
    for i, th in enumerate(thetas):
        th = float(th)
        st = evolve_phase(state, gen, th)
        sig[i] = expectation(st, obs).real
        var[i] = max(_variance_at(st, obs), 0.0)
        deriv = _reported_derivative(state, gen, obs, th, POLICY.fd_step)
        exact = _commutator_derivative(st, gen, obs)
        dth[i] = _delta_theta(th, var[i], deriv, exact)
    return PrecisionCurve(theta=thetas, signal=sig, variance=var, delta_theta=dth)


def per_angle_classical_fisher(povm, state_family, theta: float) -> float:
    """``classical_fisher`` as it ran one angle per call: the probe family a
    callable, the POVM completeness checked on every call."""
    probe_state = state_family(theta)
    dim = 1 << probe_state.n_qubits
    rng = np.random.default_rng(np.random.Philox(7))
    for _ in range(2):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        total = np.zeros(dim, dtype=np.complex128)
        for eff in povm:
            total += eff @ vec
        POLICY.check("POVM effects do not sum to the identity: max |sum_k E_k v - v|",
                     float(np.max(np.abs(total - vec))), "herm_tol",
                     scale=float(np.linalg.norm(vec)), scaled_by="|v|")

    def probs(st) -> np.ndarray:
        return np.array([expectation(st, eff).real for eff in povm])

    step = POLICY.fd_step
    p = probs(probe_state)
    dp = (probs(state_family(theta + step)) - probs(state_family(theta - step))) / (2.0 * step)
    keep = p > POLICY.signal_floor
    return float(np.sum(dp[keep] ** 2 / p[keep]))


# -- the symmetry bookkeeping as it ran on permutation arrays ---------------


def permutation(n_qubits, generator):
    """g[b], the image of each basis state b under the generator ``generator``
    names (``qcore._flip_mask``): b ^ mask for an X-string, and for the
    translation T|b> = |(b >> 1) | ((b & 1) << (n-1))>, site j to j + 1."""
    from critsense.qcore import _flip_mask

    idx = np.arange(1 << n_qubits, dtype=np.int64)
    mask = _flip_mask(n_qubits, generator)
    if mask is None:
        return (idx >> 1) | ((idx & 1) << (n_qubits - 1))
    return idx ^ mask


def symmetry_arrays(kind, L, bond_center=None, boundary="periodic"):
    """(perm, phase) with A|b> = phase[b] |perm[b]> for a ``build_symmetry``
    kind, as int64 and complex128 arrays over the whole register (``phase``
    None for all ones); the reflection reads site 2j + 1 - i into site i, bit
    by bit."""
    dim = 1 << L
    idx = np.arange(dim, dtype=np.int64)
    if kind == "parity_x":
        return idx ^ (dim - 1), None
    if kind == "parity_z":
        return idx.copy(), (1.0 - 2.0 * (np.bitwise_count(idx) & 1)).astype(np.complex128)
    if kind == "translation":
        return permutation(L, "translation"), None
    j = bond_center
    site_map = [(2 * j + 1 - i) % L for i in range(L)]
    raw = [2 * j + 1 - i for i in range(L)]
    if boundary == "open" and all(0 <= r < L for r in raw):
        site_map = raw
    perm = np.zeros(dim, dtype=np.int64)
    for i, r in enumerate(site_map):
        perm |= ((idx >> (L - 1 - r)) & 1) << (L - 1 - i)
    return perm, None


def site_map_arrays(L, sites, flip, sign):
    """(perm, phase) of A|b> = (-1)^popcount(b & sign) |sigma(b) ^ flip>, sigma
    moving the bit of site j to site ``sites[j]``, over the whole register
    (``phase`` None when ``sign`` is 0)."""
    idx = np.arange(1 << L, dtype=np.int64)
    perm = np.full(idx.size, flip, dtype=np.int64)
    for j, k in enumerate(sites):
        perm ^= ((idx >> (L - 1 - j)) & 1) << (L - 1 - k)
    if not sign:
        return perm, None
    return perm, (1.0 - 2.0 * (np.bitwise_count(idx & sign) & 1)).astype(np.complex128)


def scatter_apply(perm, phase, vec):
    """out[perm] = phase * vec, into a new complex128 array of vec's shape."""
    out = np.empty(vec.shape, dtype=np.complex128)
    if phase is None:
        out[perm] = vec
    else:
        out[perm] = (phase if vec.ndim == 1 else phase[:, None]) * vec
    return out


def permutation_csr(perm, phase):
    """The CSR matrix of A|b> = phase[b] |perm[b]>, built from COO triplets."""
    import scipy.sparse as sp

    dim = perm.size
    idx = np.arange(dim, dtype=np.int64)
    data = np.ones(dim, dtype=np.complex128) if phase is None else phase
    return sp.csr_matrix((data, (perm, idx)), shape=(dim, dim))


def matrix_anticommutes(sym_csr, op):
    """True iff the max matrix entry of A O + O A is below ``POLICY.herm_tol``."""
    o = op.to_sparse()
    anti = sym_csr @ o + o @ sym_csr
    return anti.nnz == 0 or float(np.max(np.abs(anti.data))) < POLICY.herm_tol


def disorder_apply(L, j, mean_occupation, vec):
    """``subsys.DisorderOperator(L, j, mean_occupation).apply_vec(vec)`` on an
    int64 permutation: project site j, then scatter through the rotation of
    sites [0..j] to [j, 0, 1, .., j-1], bit j moved to position 0."""
    idx = np.arange(1 << L, dtype=np.int64)
    perm = idx & ~(((1 << (j + 1)) - 1) << (L - 1 - j))  # clear bits 0..j
    top = (idx >> (L - 1 - j)) & 1                        # old bit at site j
    rest = (idx >> (L - j)) & ((1 << j) - 1)              # old bits 0..j-1
    perm |= (top << (L - 1)) | (rest << (L - 1 - j))
    tens = vec.reshape(1 << j, 2, 1 << (L - 1 - j))
    out = np.zeros_like(tens)
    out[:, 0, :] = (math.sqrt(1.0 - mean_occupation) * tens[:, 0, :]
                    - math.sqrt(mean_occupation) * tens[:, 1, :])
    moved = np.empty_like(vec)
    moved[perm] = out.reshape(vec.shape)
    return moved


def _perm_order(perm):
    idx = np.arange(perm.size)
    order, img = 1, perm
    while not np.array_equal(img, idx):
        img, order = perm[img], order + 1
    return order


def _words(img, generators, orders, steps, phase=0):
    """(g b for every basis state b, its character phase) per word g = g_1^a_1 ... g_r^a_r."""
    if not generators:
        yield img, phase
        return
    for a in range(orders[0]):
        yield from _words(img, generators[1:], orders[1:], steps[1:], phase + a * steps[0])
        img = generators[0][img]


def permutation_orbit_isometry(n_qubits, generators, charges):
    """``qcore._orbit_isometry`` on int64 permutation arrays: ``generators``
    are the arrays g[b] (``permutation`` of each name), their orders
    found by composing them, and every word's image gathered through them.
    Kept to pin the index-arithmetic word walk bit for bit."""
    import scipy.sparse as sp

    idx = np.arange(1 << n_qubits, dtype=np.int64)
    orders = [_perm_order(g) for g in generators]
    period = math.lcm(*orders)
    steps = [m * (period // order) for m, order in zip(charges, orders)]
    rep = idx.copy()
    phase = np.zeros(idx.size, dtype=np.int64)  # chi(g) = exp(2 pi i phase / period), g rep = b
    allowed = np.ones(idx.size, dtype=bool)
    for img, p in _words(idx, list(generators), orders, steps):
        p %= period
        if p:  # the group is abelian: a word that fixes b fixes b's whole orbit
            allowed &= img != idx
        lower = img < rep
        rep[lower] = img[lower]
        phase[lower] = -p % period
    is_rep = (rep == idx) & allowed
    rows = np.flatnonzero(allowed)
    norm = np.sqrt(np.bincount(rep, minlength=idx.size).astype(np.float64))  # sqrt|O_r| at r
    phase = phase[rows]
    if np.all(2 * phase % period == 0):
        chi = np.where(phase == 0, 1.0, -1.0)
    else:
        chi = np.exp(2j * math.pi / period * phase)
    reps = np.flatnonzero(is_rep)
    col = (np.cumsum(is_rep) - 1)[rep[rows]]
    indptr = np.concatenate(([0], np.cumsum(allowed)))
    P = sp.csr_matrix(
        (chi / norm[rep[rows]], col, indptr), shape=(idx.size, reps.size)
    )
    return P, reps, norm[reps]


def register_group_terms(n_qubits, terms):
    """``qcore._group_terms`` with one +-1 vector over the whole register per
    Z term, (-1)^popcount(b & sign) from the basis index, added into the
    group's phase one term at a time, each phase kept as that full vector.
    The views are built site by site: a new axis wherever the flip mark or
    the touched mark (a Z or Y letter in some term of the group) changes.
    Kept to pin the phase tables bit for bit, broadcast over the register."""
    from critsense.qcore import _FLIP_LETTERS, _I_POWERS, _SIGN_LETTERS, _Grouped

    by_mask = {}
    for coeff, letters in terms:
        flip = int(letters.translate(_FLIP_LETTERS), 2)
        sign = int(letters.translate(_SIGN_LETTERS), 2)
        by_mask.setdefault(flip, []).append(
            (coeff * _I_POWERS[letters.count("Y") % 4], sign)
        )
    idx = None
    masks, phases, views = [], [], []
    real = True
    for flip in sorted(by_mask):
        group = by_mask[flip]
        if all(sign == 0 for _, sign in group):
            scalar = sum(c for c, _ in group)
            phase = scalar.real if scalar.imag == 0.0 else scalar
        else:
            if idx is None:
                idx = np.arange(1 << n_qubits, dtype=np.int64)
            re = np.zeros(idx.size)
            im = None
            for c, sign in group:
                s = 1.0 - 2.0 * (np.bitwise_count(idx & sign) & 1) if sign else 1.0
                re += c.real * s
                if c.imag != 0.0:
                    if im is None:
                        im = np.zeros(idx.size)
                    im += c.imag * s
            phase = re if im is None or not im.any() else re + 1j * im
            phase.setflags(write=False)
        real = real and not np.iscomplexobj(phase)
        masks.append(flip)
        phases.append(phase)
        touched = 0
        for _, sign in group:
            touched |= sign
        shape, slices, last = [], [], None
        for j in range(n_qubits):
            bit = n_qubits - 1 - j
            mark = (flip >> bit & 1, touched >> bit & 1)
            if mark == last:
                shape[-1] *= 2
            else:
                shape.append(2)
                slices.append(slice(None, None, -1 if mark[0] else 1))
                last = mark
        views.append((tuple(shape), tuple(slices)))
    return _Grouped(tuple(masks), tuple(phases), tuple(views), real)


def register_readers(op):
    """The readers of a Pauli sum as they ran on whole-register phase
    vectors (``register_group_terms``), with the same arithmetic, to pin
    the table-reading readers bit for bit: a dict of ``apply_vec``,
    ``to_sparse``, ``diagonal``, ``phase_table``, ``expectation`` (mixed)
    and ``trace_product`` (with ``op`` as both factors).  Each phase is
    read as one vector over the basis, a scalar as it is."""
    import scipy.sparse as sp

    n = op.n_qubits
    form = register_group_terms(n, op.terms)
    dim = 1 << n
    idx = np.arange(dim)

    def diagonal():
        phase = form.phases[0] if form.masks else 0.0
        return np.full(dim, phase) if np.isscalar(phase) else phase

    def phase_table():
        values, inverse = np.unique(diagonal(), return_inverse=True)
        return values, inverse.astype(np.min_scalar_type(values.size))

    def to_sparse(rows):
        dtype = np.float64 if form.real else np.complex128
        n_groups = len(form.masks)
        index_dtype = np.int32 if (dim + 1) * n_groups < 2**31 else np.int64
        rows = rows.astype(index_dtype)
        cols = np.empty((rows.size, n_groups), dtype=index_dtype)
        data = np.empty((rows.size, n_groups), dtype=dtype)
        for g, (mask, phase) in enumerate(zip(form.masks, form.phases)):
            np.bitwise_xor(rows, mask, out=cols[:, g])
            data[:, g] = phase if np.isscalar(phase) else phase[cols[:, g]]
        indptr = np.arange(rows.size + 1, dtype=index_dtype) * n_groups
        mat = sp.csr_matrix((data.reshape(-1), cols.reshape(-1), indptr), shape=(rows.size, dim))
        mat.eliminate_zeros()
        mat.sort_indices()
        return mat

    def expectation(rho):
        total = 0.0 + 0.0j
        for mask, phase in zip(form.masks, form.phases):
            total += np.sum(phase * rho[idx, idx ^ mask])
        return complex(total)

    def trace_product(rho):
        weights = {}
        for m1, phase_b in zip(form.masks, form.phases):
            moved = idx ^ m1
            for m2, phase_a in zip(form.masks, form.phases):
                term = phase_b * (phase_a if np.isscalar(phase_a) else phase_a[moved])
                weights[m1 ^ m2] = weights.get(m1 ^ m2, 0.0) + term
        total = 0.0 + 0.0j
        for mask, weight in weights.items():
            diag = rho[idx, idx ^ mask]
            total += weight * np.sum(diag) if np.isscalar(weight) else np.dot(weight, diag)
        return complex(total)

    return {
        "apply_vec": lambda vec, out=None: flip_apply_vec(op, vec, out=out, form=form),
        "to_sparse": to_sparse, "diagonal": diagonal, "phase_table": phase_table,
        "expectation": expectation, "trace_product": trace_product,
    }


def gathered_group_average(mat, group, orbit_reps):
    """The rows ``orbit_reps`` of the group average mean_g U_g mat U_g^dagger,
    as ``MixedState._diagonalize`` summed them: for every word g of the
    generators ``group`` names (the first outermost), mat[g r, g b] gathered
    through the int64 permutation arrays and added one word at a time."""
    n = mat.shape[0].bit_length() - 1
    perms = [permutation(n, name) for name in group]
    orders = [_perm_order(g) for g in perms]
    rows = np.zeros((orbit_reps.size, mat.shape[0]), dtype=mat.dtype)
    idx = np.arange(mat.shape[0], dtype=np.int64)
    for img, _ in _words(idx, perms, orders, [0] * len(orders)):
        rows += mat[img[orbit_reps]][:, img]
    rows /= math.prod(orders)
    return rows


def gathered_group(mat, n):
    """The symmetry group of the full-gather rule: on ``mat.real`` when every
    imaginary part is under ``POLICY.imag_cut``, each of the translation
    (from two sites on) and the product-of-X parity kept when max |mat - U
    mat U^dagger|, from a full permutation gather, is within
    ``POLICY.herm_tol``."""
    if np.iscomplexobj(mat) and np.max(np.abs(mat.imag)) < POLICY.imag_cut:
        mat = mat.real
    idx = np.arange(1 << n)
    shift = np.argsort((idx >> 1) | ((idx & 1) << (n - 1)))  # T mat T^dagger = mat[shift][:, shift]
    moved = {"translation": mat[shift][:, shift], "X" * n: mat[::-1, ::-1]}
    return tuple(name for name, image in moved.items()
                 if (n > 1 or name != "translation")
                 and np.max(np.abs(mat - image)) <= POLICY.herm_tol)


def eliminated_zz_correlators(sol, r_max):
    """``fermion.zz_correlators`` by unpivoted rank-1 elimination of the
    r_max x r_max string block T[a, b] = g(b - a + 1) in O(r_max^3): entry
    r - 1 is the running product of the first r pivots; a pivot that is not
    finite or is under ``POLICY.toeplitz_pivot_floor`` hands every r from it
    on to ``zz_correlator``'s ``slogdet``."""
    from critsense.fermion import zz_correlator

    offs = np.arange(r_max)
    t = sol.kernels(offs[None, :] - offs[:, None] + 1)
    pivots = np.empty(r_max)
    done = r_max
    for k in range(r_max):
        p = t[k, k]
        if not (math.isfinite(p) and abs(p) >= POLICY.toeplitz_pivot_floor):
            done = k
            break
        pivots[k] = p
        t[k + 1:, k + 1:] -= np.outer(t[k + 1:, k] / p, t[k, k + 1:])
    out = np.empty(r_max)
    out[:done] = np.cumprod(pivots[:done])
    for r in range(done + 1, r_max + 1):
        out[r - 1] = zz_correlator(sol, r)
    return out
