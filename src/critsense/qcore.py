"""Exact state and operator algebra for n-qubit registers.

Conventions, fixed globally for reproducible outputs:
  * site 0 is the most significant bit of the computational-basis index;
  * |0> is the Z = +1 eigenstate;
  * Pauli strings are stored as per-site letter strings over {I, X, Y, Z}.

One operator protocol: an observable is anything that supports ``op @ x``
on a state vector or on a (2^n, k) block of columns, with ``op.shape`` the
(2^n, 2^n) register size.  PauliOperator and the symmetry operators
implement it through ``apply_vec``; numpy arrays and scipy sparse matrices
already do.  ``expectation`` and ``variance`` take any such operator, and
only the operator classes know how they act on a vector.

A Pauli sum is evaluated through one grouped form, built lazily and cached
on the operator: its terms regrouped by X/Y flip mask m, so that P|b> =
sum_m phase_m[b] |b ^ m>.  A group's phase i^#Y (-1)^popcount(b & zy_mask)
depends only on the sites its terms touch with a Z or Y letter, and it is
kept as one table over those sites (one scalar when there are none), summed
term by term, about 2 * 2^touched work per group.  The table is laid out in
the group's coalesced register view: one axis per run of adjacent sites
that agree in both marks, flipped or not and touched or not, 2^len on the
touched runs and 1 elsewhere, the flipped runs reversed slices.  Every
reader broadcasts that one table.  ``apply_vec`` reads ``phase_m * vec`` at
b ^ m through the view; ``diagonal``, ``to_sparse``, the mixed-state
``expectation`` (the sum of phase_m[b] rho[b, b ^ m]) and
``trace_product`` (such sums over pairs of masks, and so the mixed-state
``variance``) materialize it over the register per call, which for a group
that touches every site is a view, not a copy.  A real operator yields a
real matrix: when every phase is real (the Ising, XXZ and Rydberg
Hamiltonians) ``to_sparse`` returns float64, so the ground solvers run
real-symmetric.

A diagonal operator also caches its phase table: the distinct diagonal
values and, per entry of its table, the index of its value (``np.unique``
with ``return_inverse``), in the same view layout.  A Z-sum imprinter on L
sites with one weight up to sign takes at most L + 1 values, so
``apply_exponential`` and the mixed-state imprint exponentiate the values,
e^{s d_b} = exp(s * values)[index[b]], instead of exponentiating all 2^n
entries.  ``apply_exponential`` broadcasts the factors over the view,
2^touched factors for 2^n amplitudes; the imprint materializes them over
the register.  Each entry is the same elementwise exp of the same float,
multiplied in the same operand order, so the result is bit for bit the
direct one.

Dense density matrices follow one dtype rule: real in, real out; complex only
when the data is.  A real matrix is kept as float64 and anything complex as
complex128, so real probes and real channels run in real arithmetic end to
end; an operation whose own factors are complex (a phase imprint, say)
returns complex128.

A density matrix is checked once, when built, in one pass over row tiles
(``_deviations``): max |rho - rho^dagger| within ``herm_tol``, and max
|rho - U rho U^dagger| for the translation T and the product-of-X parity
X; those within ``herm_tol`` form its abelian group, diagonalized one
character (one block) at a time: (k, +-) of T x X, 2n blocks of about
2^n / 2n states; k of T alone; +- of X alone, the two parity blocks of
2^(n-1) states; neither, one whole-register block, the full ``eigh``.  The sector isometries are
``_orbit_isometry``'s (orbit minima, stabilizers and orbit norms of any
abelian group of basis permutations; Sandvik, AIP Conf. Proc. 1297, 135
(2010), section 4), one character at a time, held in the one cache
``sector_isometry`` keyed by ``charge``'s generator names, which the
sector-block ground solves of ``models`` share.  The symmetry bookkeeping
is index arithmetic on the basis index and views of the register, with no
permutation array (``_orbit_isometry``, ``_group_average_rows``).  Momentum
blocks are complex, so the embedded eigenvectors of a T-symmetric rho are
complex even when rho is real.  The spectral kernels of ``metrology`` read
the blocks; ``spectrum()`` embeds them in the register, and the theta loop
of ``metrology`` reads a mixed probe as that embedded spectrum, the weighted
ensemble of its eigenvectors.  A phase imprint (``evolve_phase``) of a mixed
state is a new state: it carries no spectrum over.

All operations are pure functions of immutable inputs and safe for
concurrent read-only use.  The internal mutable state is lazy caches: the
spectral cache on MixedState, which holds the sector blocks and, once
``spectrum()`` asks for it, their full-register embedding, and which should
be populated once (call ``sector_spectrum()``, or ``spectrum()`` when the
embedded form is read too) before sharing across threads; and the grouped
form and phase table of a PauliOperator, which two threads may at worst
both build.  The sector isometries sit in an ``lru_cache``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .policy import POLICY

if TYPE_CHECKING:
    import scipy.sparse as sp

LETTERS = "IXYZ"


@lru_cache(maxsize=256)
def _string_action(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """Permutation and phase arrays of a Pauli string: P|b> = phase[b]|perm[b]>.

    Built one letter at a time; the per-string reference the grouped form of
    ``PauliOperator`` is tested against, not used on any numeric path.
    """
    n = len(letters)
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    flip = 0
    for j, c in enumerate(letters):
        if c in "XY":
            flip |= 1 << (n - 1 - j)
    perm = idx ^ flip
    phase = np.ones(dim, dtype=np.complex128)
    for j, c in enumerate(letters):
        if c == "I" or c == "X":
            continue
        b = (idx >> (n - 1 - j)) & 1
        sign = 1.0 - 2.0 * b
        if c == "Z":
            phase = phase * sign
        else:  # Y
            phase = phase * (1j * sign)
    return perm, phase


_FLIP_LETTERS = str.maketrans("IXYZ", "0110")
_SIGN_LETTERS = str.maketrans("IXYZ", "0011")
_I_POWERS = (1.0, 1j, -1.0, -1j)


def pauli_word(n_qubits: int, sites: dict[int, str]) -> str:
    """Letter string with the given {site: letter} entries, identity elsewhere."""
    word = ["I"] * n_qubits
    for site, letter in sites.items():
        if not 0 <= site < n_qubits:
            raise ValueError(f"site {site} outside register of {n_qubits} qubits")
        word[site] = letter
    return "".join(word)


def collective_spin(L: int, axis: str, half: bool = True) -> PauliOperator:
    """S_axis = (1/2) sum_j P_j (or the bare sum when half=False)."""
    coeff = 0.5 if half else 1.0
    return PauliOperator(L, [(coeff, pauli_word(L, {j: axis})) for j in range(L)])


def staggered_z(L: int) -> PauliOperator:
    """sum_j (-1)^j Z_j, the staggered magnetization."""
    return PauliOperator(L, [((-1.0) ** j, pauli_word(L, {j: "Z"})) for j in range(L)])


def parity_x_operator(n: int) -> PauliOperator:
    """The product-of-X parity X^(x n)."""
    return PauliOperator(n, [(1.0, "X" * n)])


def charge(op: "PauliOperator", generator: str) -> int | None:
    """q with g O g^dagger = exp(2 pi i q / N) O for the symmetry g of order
    N: 0, N / 2, or None when O is no +-multiple of its conjugate.

    ``generator`` is ``"translation"`` (T, site j to j + 1, order n) or an
    I/X letter string (an X-string, order 2), checked by ``_flip_mask``.
    The conjugate is ``_conjugate``'s, exact on the merged coefficients.
    """
    n = op.n_qubits
    mask = _flip_mask(n, generator)
    order = n if mask is None else 2
    shift = 1 if mask is None else 0  # T moves site j to j + 1
    moved = _conjugate(op, tuple((j + shift) % n for j in range(n)), flip=mask or 0)
    terms = {word: c for c, word in op.terms}
    if moved == terms:
        return 0
    if order % 2 == 0 and moved == {w: -c for w, c in terms.items()}:
        return order // 2
    return None


def _conjugate(op: "PauliOperator", sites: Sequence[int], flip: int = 0,
               sign: int = 0) -> dict[str, complex]:
    """{word: coefficient} of U O U^dagger, exactly, for U|b> =
    (-1)^popcount(b & sign) |sigma(b) ^ flip> with sigma moving site j to
    ``sites[j]``: Z^sign negates a word with an odd count of X/Y letters on
    ``sign``, sigma moves the letter at site j to ``sites[j]``, and X^flip
    negates the moved word with an odd count of Z/Y letters on ``flip``."""
    moved: dict[str, complex] = {}
    for c, word in op.terms:
        letters = [""] * len(word)
        for j, letter in enumerate(word):
            letters[sites[j]] = letter
        image = "".join(letters)
        odd = ((int(word.translate(_FLIP_LETTERS), 2) & sign).bit_count()
               + (int(image.translate(_SIGN_LETTERS), 2) & flip).bit_count()) % 2
        moved[image] = -c if odd else c
    return moved


def _flip_mask(n_qubits: int, generator: str) -> int | None:
    """The basis permutation a symmetry generator names: None for
    ``"translation"``, the flip mask b -> b ^ mask of an I/X string of
    ``n_qubits`` letters; ValueError naming any other word (a Z letter
    would be read as I, a short word as a string on the last sites)."""
    if generator == "translation":
        return None
    if len(generator) != n_qubits or set(generator) - {"I", "X"}:
        raise ValueError(f"symmetry generator {generator!r} is neither 'translation' "
                         f"nor an I/X string of {n_qubits} letters")
    return int(generator.translate(_FLIP_LETTERS), 2)


def _order(n_qubits: int, generator: str) -> int:
    """The order of the basis permutation ``generator`` names
    (``_flip_mask``): n for the translation, 2 for an X-string (1 for the
    identity string)."""
    mask = _flip_mask(n_qubits, generator)
    return n_qubits if mask is None else 2 if mask else 1


def _orbit_isometry(
    n_qubits: int, generators: Sequence[str], charges: Sequence[int]
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Orbit isometry of one character of an abelian group of basis permutations.

    ``generators`` name commuting basis permutations as ``charge`` takes
    them (``"translation"`` or an I/X string, ``_flip_mask``) and
    ``charges`` hold one integer per generator: its character is chi(g) =
    exp(2 pi i m / N) for a generator of order N (``_order``).  Every word
    g = g_1^a_1 ... g_r^a_r is visited once, the last generator innermost,
    by stepping one array of images g b in place, in the narrowest unsigned
    dtype that holds the basis index: a translation is (b >> 1) | ((b & 1)
    << (n-1)), a flip b ^ mask, and a generator's loop ends where it began,
    after N steps.  That gives each basis state its orbit minimum r and the
    character chi(g) of the word with g r = b, and marks the orbits a word
    with chi != 1 fixes: chi is not trivial on their stabilizer, so they
    leave the sector.  Each other orbit O_r gives one column, sum_{g r in
    O_r} chi(g)|g r> / sqrt(|O_r|) (Sandvik, AIP Conf. Proc. 1297, 135
    (2010), section 4), an eigenvector of each generator with eigenvalue
    chi(g)*.  The entries are real (float64) when every chi(g) used is +-1,
    complex otherwise.

    Returns ``(P, reps, norms)``: the (2^n, d) CSR isometry, the sorted
    orbit minima, one per column, and sqrt(|O_r|) per column, so that
    P^dagger v = norms * v[reps] for every v in the range of P.  A free
    action of XOR flips (every orbit of |G| states) has the columns
    sum_g chi(g)|r ^ g> / sqrt(|G|).
    """
    n = n_qubits
    dim = 1 << n
    masks = [_flip_mask(n, g) for g in generators]
    orders = [_order(n, g) for g in generators]
    period = math.lcm(*orders)
    steps = [m * (period // order) for m, order in zip(charges, orders)]
    idx = np.arange(dim, dtype=np.min_scalar_type(dim - 1))
    img = idx.copy()  # g b of the current word g
    low = np.empty_like(idx)  # the translation's wrapped bit
    rep = idx.copy()
    phase = np.zeros(dim, dtype=np.int64)  # chi(g) = exp(2 pi i phase / period), g rep = b
    allowed = np.ones(dim, dtype=bool)
    lower = np.empty(dim, dtype=bool)

    def step(mask):
        if mask is None:
            np.bitwise_and(img, 1, out=low)
            np.left_shift(low, n - 1, out=low)
            np.right_shift(img, 1, out=img)
            np.bitwise_or(img, low, out=img)
        else:
            np.bitwise_xor(img, mask, out=img)

    def words(level, p):  # the character phase of each word, img holding its g b
        if level == len(masks):
            yield p
            return
        for a in range(orders[level]):
            yield from words(level + 1, p + a * steps[level])
            step(masks[level])

    for p in words(0, 0):
        p %= period
        if p:  # the group is abelian: a word that fixes b fixes b's whole orbit
            allowed &= img != idx
        if any(steps):  # the trivial character keeps every phase 0
            np.less(img, rep, out=lower)
            np.copyto(phase, -p % period, where=lower)
        np.minimum(img, rep, out=rep)
    is_rep = (rep == idx) & allowed
    rows = np.flatnonzero(allowed)
    norm = np.sqrt(np.bincount(rep, minlength=dim).astype(np.float64))  # sqrt|O_r| at r
    phase = phase[rows]
    if np.all(2 * phase % period == 0):
        chi = np.where(phase == 0, 1.0, -1.0)
    else:
        chi = np.exp(2j * math.pi / period * phase)
    reps = np.flatnonzero(is_rep)
    col = (np.cumsum(is_rep) - 1)[rep[rows]]
    indptr = np.concatenate(([0], np.cumsum(allowed)))
    import scipy.sparse as sp  # loaded on first use
    P = sp.csr_matrix(
        (chi / norm[rep[rows]], col, indptr), shape=(dim, reps.size)
    )
    return P, reps, norm[reps]


@lru_cache(maxsize=128)
def sector_isometry(
    n_qubits: int, generators: tuple[str, ...], charges: tuple[int, ...]
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """``_orbit_isometry`` of one character of the group ``generators`` name.

    Each generator is ``"translation"`` or an I/X string, the names
    ``charge`` takes (checked by ``_flip_mask``), in the order their
    ``charges`` are given.  Cached per (n, generators, charges), so a
    ground solve's block and a mixed spectrum's block of the same character
    are one object; ``reps`` and ``norms`` are read-only, as threads share
    them.
    """
    P, reps, norms = _orbit_isometry(n_qubits, generators, charges)
    reps.setflags(write=False)
    norms.setflags(write=False)
    return P, reps, norms


def _runs(n_qubits: int, *marks: int) -> tuple[tuple[int, ...], tuple[tuple[bool, ...], ...]]:
    """The coalesced register view of site marks: the runs of adjacent
    sites on which every mask of ``marks`` agrees (site 0 the most
    significant), as one axis of 2^len per run, and, per mask, its mark on
    each run.

    A basis index reshaped to the returned shape is the run-by-run index,
    so a flip of every site of a run is a reversal of its axis
    (i ^ (2^k - 1) = 2^k - 1 - i), and a function of the sites one mask
    marks is constant along the axes it leaves unmarked.
    """
    shape: list[int] = []
    runs: list[tuple[bool, ...]] = []
    for j in range(n_qubits):
        mark = tuple(bool(m >> (n_qubits - 1 - j) & 1) for m in marks)
        if runs and runs[-1] == mark:
            shape[-1] *= 2
        else:
            shape.append(2)
            runs.append(mark)
    return tuple(shape), tuple(zip(*runs))


class _Grouped(NamedTuple):
    """Pauli sum regrouped by X/Y flip mask: P|b> = sum_m phase_m[b] |b ^ m>.

    ``views[g]`` is the coalesced register view of group g (``_runs`` of
    its flip mask ``masks[g]`` and of the sites its terms touch with a Z or
    Y letter): its shape and the slice tuple that reverses the flipped
    axes, so that ``x.reshape(shape)[flip]`` is x[b ^ m].  ``phases[g]`` is
    the group's phase as a read-only table in that view, 2^len on the
    touched axes and 1 elsewhere, so that ``np.broadcast_to(phase,
    shape).reshape(-1)`` is phase_m[b] over the basis; or a Python scalar
    when no term of the group carries a Z or Y letter.  ``real`` holds when
    every phase is real, i.e. when the operator's matrix is real.
    """

    masks: tuple[int, ...]
    phases: tuple
    views: tuple[tuple[tuple[int, ...], tuple[slice, ...]], ...]
    real: bool


def _sign_table(n_qubits: int, sign: int) -> np.ndarray:
    """(-1)^popcount(b & sign) as a (2,) * n broadcast table: axes of 2 on
    the sites of ``sign``, 1 elsewhere (site 0 the most significant), the
    same 1 - 2 * parity floats the basis-index formula gives."""
    shape = tuple(2 if sign >> (n_qubits - 1 - j) & 1 else 1 for j in range(n_qubits))
    parity = np.bitwise_count(np.arange(1 << sign.bit_count())) & 1
    return (1.0 - 2.0 * parity).reshape(shape)


def _accumulate(table: np.ndarray, term) -> np.ndarray:
    """table + term, broadcast: in place while the term's sites are among
    the table's, a new table over their union otherwise."""
    if np.broadcast_shapes(table.shape, np.shape(term)) == table.shape:
        table += term
        return table
    return table + term


def _group_terms(n_qubits: int, terms: Sequence[tuple[complex, str]]) -> _Grouped:
    """The grouped form of a Pauli sum (``_Grouped``).

    A group's phase is summed term by term on a broadcast table over the
    sites its terms have touched so far (``_sign_table``, ``_accumulate``),
    in term order, so each entry is the sum the whole-register formula
    gives, float for float, for about 2 * 2^touched work instead of one 2^n
    pass per term; the finished table, axes of 2 on the touched sites, is
    reshaped into the group's view.
    """
    # a string with flip mask f, sign mask s (Z and Y sites) and ny Y letters
    # acts as P|b> = i^ny (-1)^popcount(b & s) |b ^ f>
    by_mask: dict[int, list[tuple[complex, int]]] = {}
    for coeff, letters in terms:
        flip = int(letters.translate(_FLIP_LETTERS), 2)
        sign = int(letters.translate(_SIGN_LETTERS), 2)
        by_mask.setdefault(flip, []).append(
            (coeff * _I_POWERS[letters.count("Y") % 4], sign)
        )
    masks, phases, views = [], [], []
    real = True
    for flip in sorted(by_mask):
        group = by_mask[flip]
        touched = 0
        for _, sign in group:
            touched |= sign
        shape, (flipped, on) = _runs(n_qubits, flip, touched)
        if not touched:
            scalar = sum(c for c, _ in group)
            phase = scalar.real if scalar.imag == 0.0 else scalar
        else:
            re = np.zeros((1,) * n_qubits)
            im = None
            for c, sign in group:
                s = _sign_table(n_qubits, sign)
                re = _accumulate(re, c.real * s)
                if c.imag != 0.0:
                    if im is None:
                        im = np.zeros((1,) * n_qubits)
                    im = _accumulate(im, c.imag * s)
            phase = re if im is None or not im.any() else re + 1j * im
            phase = phase.reshape(tuple(size if t else 1 for size, t in zip(shape, on)))
            phase.setflags(write=False)
        real = real and not np.iscomplexobj(phase)
        masks.append(flip)
        phases.append(phase)
        views.append((shape, tuple(slice(None, None, -1 if f else 1) for f in flipped)))
    return _Grouped(tuple(masks), tuple(phases), tuple(views), real)


class PauliOperator:
    """Complex-weighted sum of Pauli strings on an n-qubit register.

    Terms with identical letter strings are merged; zero coefficients are
    dropped, and a non-finite one, which that test would drop too, raises
    ValueError.  The operator is Hermitian iff every merged coefficient is
    real (strings are linearly independent and individually Hermitian).

    The numeric paths (``apply_vec``, ``diagonal``, ``to_sparse`` and the
    mixed-state ``expectation``) share one grouped form, built on first use
    and cached: the terms regrouped by X/Y flip mask, one phase table (or
    scalar) per mask over the sites the mask's terms touch, laid out in the
    mask's coalesced register view (``_Grouped``).  A real operator yields
    a real matrix: ``to_sparse`` returns float64 when every phase is real
    (the Ising, XXZ and Rydberg Hamiltonians) and complex128 otherwise, and
    ``apply_vec`` keeps a real vector real under a real operator.

    A diagonal operator (I/Z letters only, ``is_diagonal``, fixed at
    construction) also caches its phase table on first use: its distinct
    diagonal values and each table entry's index into them, the form every
    diagonal exponential reads.  No other form of the diagonal is kept.
    """

    __slots__ = ("n_qubits", "terms", "is_diagonal", "_form", "_table")

    def __init__(self, n_qubits: int, terms: Iterable[tuple[complex, str]] = ()):
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        merged: dict[str, complex] = {}
        for coeff, letters in terms:
            if len(letters) != n_qubits:
                raise ValueError(
                    f"letter string {letters!r} does not match n_qubits={n_qubits}"
                )
            if any(c not in LETTERS for c in letters):
                raise ValueError(f"invalid Pauli letters {letters!r}")
            coeff = complex(coeff)
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise ValueError(f"coefficient {coeff!r} of {letters!r} is not finite")
            merged[letters] = merged.get(letters, 0.0) + coeff
        self.n_qubits = n_qubits
        self.terms = tuple(
            (c, s) for s, c in sorted(merged.items()) if abs(c) > 1e-15
        )
        self.is_diagonal = all(set(s) <= {"I", "Z"} for _, s in self.terms)
        self._form: _Grouped | None = None
        self._table: tuple[np.ndarray, np.ndarray] | None = None

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliOperator":
        return cls(n_qubits, [(coeff, "I" * n_qubits)])

    @classmethod
    def single(cls, n_qubits: int, site: int, letter: str, coeff: complex = 1.0) -> "PauliOperator":
        return cls.string(n_qubits, {site: letter}, coeff)

    @classmethod
    def string(cls, n_qubits: int, sites: dict[int, str], coeff: complex = 1.0) -> "PauliOperator":
        """One Pauli string from a {site: letter} mapping (identity elsewhere)."""
        return cls(n_qubits, [(coeff, pauli_word(n_qubits, sites))])

    # -- algebra -------------------------------------------------------
    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n_qubits != other.n_qubits:
            raise ValueError("register size mismatch")
        return PauliOperator(self.n_qubits, list(self.terms) + list(other.terms))

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliOperator":
        return PauliOperator(self.n_qubits, [(c * scalar, s) for c, s in self.terms])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = " + ".join(f"({c:g})*{s}" for c, s in self.terms[:6])
        more = "" if len(self.terms) <= 6 else f" + ... [{len(self.terms)} terms]"
        return f"PauliOperator({self.n_qubits}q: {body}{more})"

    @property
    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= POLICY.pauli_herm_tol for c, _ in self.terms)

    def _grouped(self) -> _Grouped:
        if self._form is None:
            self._form = _group_terms(self.n_qubits, self.terms)
        return self._form

    def _view_shape(self, g: int = 0) -> tuple[int, ...]:
        """The shape of group ``g``'s view (``_Grouped``); the whole
        register as one axis for the zero operator, which has no group."""
        form = self._grouped()
        return form.views[g][0] if form.masks else (1 << self.n_qubits,)

    def _register(self, table, g: int = 0):
        """``table``, laid out in group ``g``'s view, as one entry per basis
        state: a view when it spans every axis, a copy otherwise; a scalar
        is returned as it is."""
        if np.isscalar(table):
            return table
        return np.broadcast_to(table, self._view_shape(g)).reshape(-1)

    def _diagonal_phase(self):
        """The phase table (or scalar) of a diagonal operator's one group, 0.0
        for the zero operator; ValueError for an operator with X/Y letters."""
        if not self.is_diagonal:
            raise ValueError("operator has X/Y letters; not diagonal")
        form = self._grouped()
        return form.phases[0] if form.masks else 0.0

    def diagonal(self) -> np.ndarray:
        """Eigenvalue vector over the computational basis; requires I/Z letters only.

        Materialized from the phase table on each call, read-only, float64
        for a real operator and complex128 otherwise.
        """
        phase = self._diagonal_phase()
        d = np.full(1 << self.n_qubits, phase) if np.isscalar(phase) else self._register(phase)
        d.setflags(write=False)
        return d

    def phase_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, index)`` with ``values[index]`` the diagonal's phase
        table: broadcast over the register (``_register``), it is
        ``diagonal()``.

        ``values`` are the distinct diagonal entries: at most L + 1 for a
        sum of single-site Z terms on L sites with one weight up to sign,
        such as the imprinters.  ``index`` holds each table entry's index
        into them, in the smallest unsigned dtype that fits, laid out in the
        diagonal group's view: 2^len on the runs of sites a term has a Z
        on, 1 elsewhere.  Built once and cached, both read-only.
        """
        if self._table is None:
            phase = self._diagonal_phase()
            table = np.full(1, phase) if np.isscalar(phase) else phase
            values, index = np.unique(table, return_inverse=True)
            index = index.reshape(table.shape).astype(np.min_scalar_type(values.size))
            values.setflags(write=False)
            index.setflags(write=False)
            self._table = (values, index)
        return self._table

    @property
    def shape(self) -> tuple[int, int]:
        dim = 1 << self.n_qubits
        return dim, dim

    def apply_vec(self, vec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Linear action on a state vector or a (2^n, k) column block.

        Each flip-mask group adds ``phase * vec`` at b ^ m, read through the
        group's coalesced view (``_Grouped.views``): reversed slices of the
        flipped runs of sites, one axis per run (+ (k,)), the group's phase
        table broadcast over it; a real input stays real under a real
        operator.  An operator with a single, diagonal group returns
        ``phase * vec``, the product written straight into the result in its
        dtype.  Otherwise the first group is written straight into the
        result as the sum from zeros, 0 + phase * x, which for a scalar
        phase of +-1 is the one pass 0 + x or 0 - x with the same bits
        (signed zeros included); the later groups are added to it.  ``out``,
        a C-contiguous array of the result's shape and dtype that does not
        overlap ``vec``, receives the result: a single Pauli string then
        allocates nothing.
        """
        form = self._grouped()
        vec = np.asarray(vec)
        dtype = np.result_type(vec.dtype, np.float64 if form.real else np.complex128)
        cols = vec.shape[1:]
        if form.masks == (0,):
            phase = form.phases[0]
            if np.isscalar(phase):
                return np.multiply(phase, vec, out=out, dtype=dtype)
            if out is None:
                out = np.empty(vec.shape, dtype=dtype)
            shape = form.views[0][0]
            if cols:  # broadcast over the columns
                phase = phase.reshape(phase.shape + (1,) * len(cols))
            np.multiply(phase, vec.reshape(shape + cols), out=out.reshape(shape + cols),
                        dtype=dtype)
            return out
        if out is None:
            out = np.empty(vec.shape, dtype=dtype)
        if not form.masks:  # the zero operator
            out[...] = 0.0
        vec = np.ascontiguousarray(vec)  # one copy of a strided input, not one per group
        for g, (phase, (shape, flip)) in enumerate(zip(form.phases, form.views)):
            vec_t = vec.reshape(shape + cols)
            out_t = out.reshape(shape + cols)
            if cols and not np.isscalar(phase):
                phase = phase.reshape(phase.shape + (1,) * len(cols))
            if g > 0:
                out_t += (phase * vec_t)[flip]
            elif np.isscalar(phase) and phase in (1.0, -1.0):
                if phase > 0:
                    np.add(vec_t[flip], 0.0, out=out_t)
                else:
                    np.subtract(0.0, vec_t[flip], out=out_t)
            else:
                np.multiply(phase if np.isscalar(phase) else phase[flip], vec_t[flip], out=out_t)
                out += 0.0  # 0 + x, as a sum from zeros: -0.0 becomes +0.0
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply_vec(x)

    def to_sparse(self, rows: np.ndarray | None = None) -> sp.csr_matrix:
        """CSR matrix, float64 for a real operator and complex128 otherwise.

        Built in one pass: row r holds one entry per flip-mask group, at
        column r ^ mask, gathered from the group's phase table over the
        register (``_register``); exact zeros (a phase cancelling on some
        basis states) are dropped.  With ``rows``, sorted basis indices,
        only those rows are built: the (rows.size, 2^n) matrix
        ``to_sparse()[rows]``, entry for entry, without the whole
        register's.
        """
        POLICY.cap("qubits", self.n_qubits, "sparse_cap")
        form = self._grouped()
        dim = 1 << self.n_qubits
        dtype = np.float64 if form.real else np.complex128
        n_groups = len(form.masks)
        index_dtype = np.int32 if (dim + 1) * n_groups < 2**31 else np.int64
        idx = np.arange(dim, dtype=index_dtype) if rows is None else rows.astype(index_dtype)
        cols = np.empty((idx.size, n_groups), dtype=index_dtype)
        data = np.empty((idx.size, n_groups), dtype=dtype)
        for g, (mask, phase) in enumerate(zip(form.masks, form.phases)):
            # <r|P|r ^ mask> = phase[r ^ mask]
            np.bitwise_xor(idx, mask, out=cols[:, g])
            phase = self._register(phase, g)
            data[:, g] = phase if np.isscalar(phase) else phase[cols[:, g]]
        indptr = np.arange(idx.size + 1, dtype=index_dtype) * n_groups
        import scipy.sparse as sp  # loaded on first use
        mat = sp.csr_matrix((data.reshape(-1), cols.reshape(-1), indptr), shape=(idx.size, dim))
        mat.eliminate_zeros()
        mat.sort_indices()
        return mat


def to_matrix(op: PauliOperator) -> np.ndarray:
    """Dense matrix of a Pauli sum; refuses registers above the dense cap."""
    POLICY.cap("qubits", op.n_qubits, "dense_cap")
    return op.to_sparse().toarray()


_HERM_TILE = 128


def _deviations(
    mat: np.ndarray, translation: bool = False, parity: bool = False
) -> tuple[float, float | None, float | None]:
    """(max |mat - mat^dagger|, max |mat - T mat T^dagger|, max |mat - F mat
    F^dagger|) over bands of rows, in square tiles of views: T the
    translation (b = 2h + l to l 2^(n-1) + h, so a band's image rows are the
    rows T^-1 a, whose columns 2k.. hold, even and odd, its columns k.. and
    2^(n-1) + k..), F the product-of-X parity (mat[::-1, ::-1]; F D F = -D,
    so the upper half of the rows holds the maximum), each None unless asked
    for (both need dim = 2^n).  Hermiticity reads the upper block triangle.
    A symmetry's maximum is exact while within ``POLICY.herm_tol``; once
    over it, its remaining tiles are skipped.
    """
    dim = mat.shape[0]
    half = dim // 2
    b = max(1, min(_HERM_TILE, half))
    herm = 0.0
    dev_t = 0.0 if translation else None
    dev_x = 0.0 if parity else None
    flipped = mat[::-1, ::-1]
    for i in range(0, dim, b):  # np.maximum keeps a NaN, where max() may drop it
        rows = mat[i:i + b]
        for j in range(i, dim, b):
            mirror = mat[j:j + b, i:i + b].T
            herm = np.maximum(herm, np.max(np.abs(rows[:, j:j + b] - mirror.conj())))
        if translation and dev_t <= POLICY.herm_tol:
            l, h = divmod(i, half)
            source, target = mat[2 * h + l:2 * (h + b) + l:2], rows.reshape(b, 2, half)
            for k in range(0, half, b):
                image = source[:, 2 * k:2 * (k + b)].reshape(b, b, 2).transpose(0, 2, 1)
                dev_t = np.maximum(dev_t, np.max(np.abs(target[:, :, k:k + b] - image)))
        if parity and i < half and dev_x <= POLICY.herm_tol:
            for j in range(0, dim, b):
                tile = rows[:, j:j + b] - flipped[i:i + b, j:j + b]
                dev_x = np.maximum(dev_x, np.max(np.abs(tile)))
    return float(herm), *(None if dev is None else float(dev) for dev in (dev_t, dev_x))


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over the 2^n computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude length {amp.shape} does not match 2^{self.n_qubits}"
            )
        norm = float(np.linalg.norm(amp))
        POLICY.check(lambda: f"state norm {norm!r} deviates from 1: |norm - 1|",
                     abs(norm - 1.0), "norm_tol")
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def from_basis(cls, n_qubits: int, index: int) -> "PureState":
        amp = np.zeros(1 << n_qubits, dtype=np.complex128)
        amp[index] = 1.0
        return cls(n_qubits, amp)


def projector_amplitudes(state: PureState) -> np.ndarray:
    """psi's amplitudes as the dense |psi><psi| reads them: refused with
    ``CapacityError`` above ``POLICY.dense_cap``, before anything of the
    matrix's size is allocated, and real when they have no imaginary part."""
    POLICY.cap("qubits", state.n_qubits, "dense_cap")
    amp = state.amplitudes
    return np.ascontiguousarray(amp.real) if not amp.imag.any() else amp


def _group_average_rows(mat: np.ndarray, parity: bool, reps: np.ndarray) -> np.ndarray:
    """Rows ``reps`` of the group average mean_g U_g mat U_g^dagger over the
    group of the translation T, times the product-of-X parity F with
    ``parity``: the sum of mat[g r, g b] over the words g = T^a F^e, T
    outermost, one word at a time, divided by the group's order.

    The rows g r come from index arithmetic on ``reps``, (r >> a) | ((r &
    (2^a - 1)) << (n - a)) for T^a, then r ^ (2^n - 1) for F; the columns g
    b are views of the gathered rows: T^a is their (k, 2^a, 2^(n-a)) reshape
    transposed to (0, 2, 1), read into the (k, 2^(n-a), 2^a) view of the
    sum, and F reverses each reshaped axis, b ^ (2^n - 1) = 2^n - 1 - b.
    """
    dim = mat.shape[0]
    n = dim.bit_length() - 1
    k = reps.size
    rows = np.zeros((k, dim), dtype=mat.dtype)
    for a in range(n):
        moved = (reps >> a) | ((reps & ((1 << a) - 1)) << (n - a))
        view = rows.reshape(k, 1 << (n - a), 1 << a)
        for flip in (False, True) if parity else (False,):
            picked = mat[moved ^ (dim - 1) if flip else moved].reshape(k, 1 << a, 1 << (n - a))
            view += (picked[:, ::-1, ::-1] if flip else picked).transpose(0, 2, 1)
    rows /= n * (2 if parity else 1)
    return rows


class SectorBlock(NamedTuple):
    """Eigenpairs of one symmetry block P^dagger rho P of a density matrix.

    ``isometry`` is the (2^n, d) CSR matrix P, or None for the whole
    register (P = I); ``values`` ascend, and the columns of ``vectors`` are
    the eigenvectors in the block, so rho P v = w P v for each pair.
    ``sector`` labels the block by ``(generator, charge m, order N)``
    triples, chi(g) = exp(2 pi i m / N), ``generator`` a ``charge`` name
    (``"translation"``, ``"X" * n``); it is empty for the whole register.
    """

    isometry: sp.csr_matrix | None
    values: np.ndarray
    vectors: np.ndarray
    sector: tuple[tuple[str, int, int], ...] = ()


@dataclass
class MixedState:
    """Hermitian, PSD, unit-trace matrix with a lazily cached spectral decomposition.

    The matrix is stored as float64 when it is real and as complex128
    otherwise (real in, real out; complex only when the data is).

    The cache holds the sector spectrum (``sector_spectrum``): one block
    per character of the symmetry group rho is certified to commute with,
    out of the translation T and the product-of-X parity, else the whole
    register.  ``spectrum()`` embeds it in the full register, once, on
    demand; the embedded eigenvectors of momentum blocks are complex, also
    for a real rho.
    """

    n_qubits: int
    matrix: np.ndarray
    _blocks: tuple[SectorBlock, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _spectrum: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _group: tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_qubits
        if n < 1:
            raise ValueError("n_qubits must be >= 1")
        dim = 1 << n
        mat = np.asarray(self.matrix)
        mat = mat.astype(np.complex128 if np.iscomplexobj(mat) else np.float64, copy=False)
        if mat.shape != (dim, dim):
            raise ValueError("matrix shape does not match register size")
        herm, dev_t, dev_x = _deviations(mat, translation=n > 1, parity=True)
        POLICY.check("matrix not Hermitian: max deviation", herm, "herm_tol")
        tr = complex(np.trace(mat))
        POLICY.check(lambda: f"trace {tr!r} deviates from 1: |trace - 1|", abs(tr - 1.0),
                     "trace_tol")
        self.matrix = mat
        self._group = tuple(name for name, dev in (("translation", dev_t), ("X" * n, dev_x))
                            if dev is not None and dev <= POLICY.herm_tol)

    @classmethod
    def from_pure(cls, state: PureState) -> "MixedState":
        """|psi><psi|; real when the amplitudes have no imaginary part."""
        amp = projector_amplitudes(state)
        return cls(state.n_qubits, np.outer(amp, amp.conj()))

    def sector_spectrum(self) -> tuple[SectorBlock, ...]:
        """Eigenpairs of rho, one ``SectorBlock`` per symmetry sector; cached.

        The group is the one certified when rho was built (``_deviations``):
        the translation T (from two sites on) and the product-of-X parity F
        where max |rho - U rho U^dagger| is within ``POLICY.herm_tol``.  It
        is T x F, whose characters (k, +-) give 2n blocks of about 2^n / 2n
        states; T alone (n blocks); F alone, the two blocks P_+-^T rho P_+-
        of 2^(n-1) states.  The
        isometries are ``sector_isometry``'s, cached per character and
        shared with the ground solves.  A T block is read from the
        representative rows of the group average rho_bar = mean_g U_g rho
        U_g^dagger, summed one element g at a time (``_group_average_rows``),
        which maps each sector into itself:
        P^dagger rho P = P^dagger rho_bar P = norms * rho_bar[reps] P,
        Hermitized.  That is the exact projection of rho, so a rho off the
        symmetry by delta <= herm_tol moves the result at second order in
        delta, and it reads each entry of rho once, with no dim^2 copy.  For
        a real rho the block at -k is the complex conjugate of the one at k,
        so its eigenpairs are those at k, conjugated, not a second ``eigh``.
        A character without states gives no block.  A rho that passes
        neither check is one block spanning the whole register (P = I): one
        full ``eigh``.  The real-symmetric solver runs on real blocks: the
        parity blocks of a real-valued rho (a complex rho whose imaginary
        parts all stay below ``POLICY.imag_cut`` counts as real), and its T
        blocks at k = 0 and k = pi; the other momenta are complex Hermitian.
        A block eigenvalue below -``POLICY.psd_tol`` raises ValueError
        naming the minimum eigenvalue and the excess (``POLICY.check``).
        """
        if self._blocks is None:
            self._blocks = self._diagonalize()
        return self._blocks

    def _diagonalize(self) -> tuple[SectorBlock, ...]:
        mat = self.matrix
        if np.iscomplexobj(mat) and np.max(np.abs(mat.imag)) < POLICY.imag_cut:
            mat = mat.real
        n = self.n_qubits
        group = self._group
        orders = [_order(n, name) for name in group]
        sectors = []  # (label, P, reps, norms) of every character with states
        for charges in itertools.product(*(range(order) for order in orders)) if group else ():
            P, reps, norms = sector_isometry(n, group, charges)
            if reps.size:
                sectors.append((tuple(zip(group, charges, orders)), P, reps, norms))
        if not group:
            blocks = [SectorBlock(None, *np.linalg.eigh(mat))]
        elif group == ("X" * n,):  # the parity blocks of before, bit for bit
            blocks = [SectorBlock(P, *np.linalg.eigh(P.T @ mat @ P), label)
                      for label, P, _, _ in sectors]
        else:
            # the trivial character comes first and keeps every orbit, so its
            # reps are all the orbit minima
            orbit_reps = sectors[0][2]
            rows = _group_average_rows(mat, "X" * n in group, orbit_reps)
            done: dict[tuple, SectorBlock] = {}
            for label, P, reps, norms in sectors:
                mirror = done.get(tuple((name, -m % order, order) for name, m, order in label))
                if mirror is not None and not np.iscomplexobj(mat):
                    # a real rho: the block at -k is the complex conjugate of the one at k
                    done[label] = SectorBlock(P, mirror.values, mirror.vectors.conj(), label)
                else:
                    block = norms[:, None] * (rows[np.searchsorted(orbit_reps, reps)] @ P)
                    block = 0.5 * (block + block.conj().T)
                    done[label] = SectorBlock(P, *np.linalg.eigh(block), label)
            blocks = list(done.values())
        low = float(np.min([b.values.min() for b in blocks]))  # NaN propagates
        POLICY.check(lambda: f"matrix not PSD: min eigenvalue {low:.3e}; -min", -low, "psd_tol")
        return tuple(blocks)

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and full-register eigenvector columns; cached.

        The sector spectrum embedded in the register: each block's
        eigenvectors as P v, the blocks merged by eigenvalue (a stable sort,
        so ties keep the order of ``sector_spectrum``).  With one
        whole-register block this is that block itself.  A real-valued rho
        gives real eigenvectors on the whole register and in parity blocks;
        in momentum blocks they are complex.
        """
        if self._spectrum is None:
            blocks = self.sector_spectrum()
            if blocks[0].isometry is None:
                self._spectrum = (blocks[0].values, blocks[0].vectors)
            else:
                w = np.concatenate([b.values for b in blocks])
                order = np.argsort(w, kind="stable")
                column = np.argsort(order)  # merged position of each block eigenpair
                v = np.empty((w.size, w.size), dtype=np.result_type(*(b.vectors for b in blocks)))
                start = 0
                for b in blocks:
                    v[:, column[start:start + b.values.size]] = b.isometry @ b.vectors
                    start += b.values.size
                self._spectrum = (w[order], v)
        return self._spectrum


State = PureState | MixedState


def dephase_normalize(vec: np.ndarray, n_qubits: int | None = None) -> PureState:
    """Rescale to unit norm and fix the global phase deterministically.

    The amplitude of largest magnitude (lowest index on ties) is rotated to
    the positive real axis, so eigensolver output is reproducible bit-exactly.
    Raises on an (effectively) zero vector.
    """
    vec = np.asarray(vec, dtype=np.complex128)
    if n_qubits is None:
        n_qubits = int(round(np.log2(vec.size)))
    norm = np.linalg.norm(vec)
    POLICY.floor("cannot normalize a zero vector: norm", norm, "zero_state_tol")
    vec = vec / norm
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    return PureState(n_qubits, vec / phase)


def _check_register(state: State, op) -> None:
    dim = 1 << state.n_qubits
    if op.shape != (dim, dim):
        raise ValueError("register size mismatch")


def expectation(state: State, op) -> complex:
    """<psi|op|psi> or Tr(op rho), for any operator that supports ``op @ x``.

    A PauliOperator on a mixed state sums phase_m[b] rho[b, b ^ m] over its
    flip-mask groups, each phase table materialized over the register,
    instead of forming op @ rho.
    """
    _check_register(state, op)
    if isinstance(state, PureState):
        return complex(np.vdot(state.amplitudes, op @ state.amplitudes))
    rho = state.matrix
    if not isinstance(op, PauliOperator):
        return complex(np.trace(op @ rho))
    form = op._grouped()
    idx = np.arange(rho.shape[0])
    total = 0.0 + 0.0j
    for g, (mask, phase) in enumerate(zip(form.masks, form.phases)):
        total += np.sum(op._register(phase, g) * rho[idx, idx ^ mask])
    return complex(total)


def trace_product(rho: MixedState, a: PauliOperator, b: PauliOperator) -> complex:
    """tr(rho A B) of two Pauli sums from their grouped forms.

    B|c> = sum_m1 phaseB_m1[c] |c ^ m1> and then A give
    tr(rho A B) = sum_c sum_(m1, m2) rho[c, c ^ m1 ^ m2] phaseB_m1[c] phaseA_m2[c ^ m1]:
    the phase products are summed per joint mask m1 ^ m2 and each joint
    mask reads one generalized diagonal rho[c, c ^ m] of rho, so the cost is
    O(groups^2 * 2^n), with no dim^2 product formed.  The phase tables are
    materialized over the register once per call.
    """
    _check_register(rho, a)
    _check_register(rho, b)
    form_a, form_b = a._grouped(), b._grouped()
    idx = np.arange(1 << rho.n_qubits)
    phases_a = [a._register(phase, g) for g, phase in enumerate(form_a.phases)]
    weights: dict[int, np.ndarray | complex] = {}
    for g, (m1, phase_b) in enumerate(zip(form_b.masks, form_b.phases)):
        phase_b = b._register(phase_b, g)
        moved = idx ^ m1
        for m2, phase_a in zip(form_a.masks, phases_a):
            term = phase_b * (phase_a if np.isscalar(phase_a) else phase_a[moved])
            weights[m1 ^ m2] = weights.get(m1 ^ m2, 0.0) + term
    mat = rho.matrix
    total = 0.0 + 0.0j
    for mask, weight in weights.items():
        diag = mat[idx, idx ^ mask]
        total += weight * np.sum(diag) if np.isscalar(weight) else np.dot(weight, diag)
    return complex(total)


def variance(state: State, op) -> float:
    """<op^2> - <op>^2 for a Hermitian op, as the difference of the two
    moments: rounding can leave it slightly below zero, and nothing here
    clips it (``precision_curve`` clips each point at 0).

    Refuses an operator that declares ``is_hermitian`` False (a non-Hermitian
    Pauli sum, the translation); plain matrices are taken as given.  A Pauli
    sum on a mixed state reads tr(rho O^2) from ``trace_product``; any other
    operator forms op @ rho.
    """
    if not getattr(op, "is_hermitian", True):
        raise ValueError("variance requires a Hermitian operator")
    _check_register(state, op)
    if isinstance(state, PureState):
        ovec = op @ state.amplitudes
        mean = np.vdot(state.amplitudes, ovec).real
        second = np.vdot(ovec, ovec).real
    elif isinstance(op, PauliOperator):
        mean = expectation(state, op).real
        second = trace_product(state, op, op).real
    else:
        orho = op @ state.matrix
        mean = np.trace(orho).real
        second = np.trace(op @ orho).real
    return second - mean * mean


def evolve_phase(state: State, gen: PauliOperator, theta: float) -> State:
    """e^{i theta gen}|psi>, or U rho U^dagger with U = e^{i theta gen}, for a
    Hermitian generator.

    Diagonal generators (I/Z letters only) are applied as a pure phase, to a
    mixed state as rho * u u^dagger with u = e^{i theta diag}, u from the
    phase table.  The general case goes through a Krylov evaluation of the
    matrix exponential action (pure states) or the dense unitary from
    ``eigh(to_matrix(gen))`` (mixed states).  The norm is preserved to
    1e-12.  An imprinted mixed state is a new ``MixedState``, certified and
    diagonalized afresh.
    """
    if not gen.is_hermitian:
        raise ValueError("phase generator must be Hermitian")
    if gen.n_qubits != state.n_qubits:
        raise ValueError("register size mismatch")
    if theta == 0.0:
        return state
    if isinstance(state, MixedState):
        if gen.is_diagonal:
            values, index = gen.phase_table()
            u = gen._register(np.exp(1j * theta * values).take(index))
            return MixedState(state.n_qubits, state.matrix * np.outer(u, u.conj()))
        w, vv = np.linalg.eigh(to_matrix(gen))
        uu = (vv * np.exp(1j * theta * w)) @ vv.conj().T
        return MixedState(state.n_qubits, uu @ state.matrix @ uu.conj().T)
    amp = apply_exponential(gen, 1j * theta, state.amplitudes)
    if not gen.is_diagonal:
        amp = amp / np.linalg.norm(amp)
    return PureState(state.n_qubits, amp)


def apply_exponential(
    gen: PauliOperator, scale: complex, vec: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Raw action e^{scale * gen} vec, without any normalization.

    A diagonal generator exponentiates its phase table, one exp per
    distinct eigenvalue, gathers the factors into the table's layout
    (``phase_table``) and multiplies them, broadcast over the diagonal
    group's coalesced register view, into ``vec``: factor times amplitude,
    in that operand order, so the result is bit for bit ``np.exp(scale *
    gen.diagonal()) * vec`` with one register-sized array, the result.  Any
    other generator goes through a Krylov ``expm_multiply``.  ``out``, a C-contiguous
    complex array of ``vec``'s shape that does not overlap it, receives the
    result.
    """
    if gen.is_diagonal:
        values, index = gen.phase_table()
        shape = gen._view_shape()
        vec = np.asarray(vec)
        cols = vec.shape[1:]
        factors = np.exp(scale * values).take(index).reshape(index.shape + (1,) * len(cols))
        if out is None:
            out = np.empty(vec.shape, dtype=np.result_type(factors, vec))
        np.multiply(factors, vec.reshape(shape + cols), out=out.reshape(shape + cols))
        return out
    import scipy.sparse.linalg as spla  # loaded on first use
    result = spla.expm_multiply(scale * gen.to_sparse(), vec)
    if out is None:
        return result
    out[...] = result
    return out


def partial_trace(rho: MixedState, kept_sites: Sequence[int]) -> MixedState:
    """Reduced density matrix on ``kept_sites`` (order preserved)."""
    n = rho.n_qubits
    kept = list(kept_sites)
    if not kept:
        raise ValueError("kept_sites must name at least one site")
    if any(not 0 <= s < n for s in kept) or len(set(kept)) != len(kept):
        raise ValueError("kept_sites must be distinct sites of the register")
    traced = [s for s in range(n) if s not in kept]
    tens = rho.matrix.reshape([2] * (2 * n))
    # trace out highest-position axes first so earlier axis numbers stay valid
    for s in sorted(traced, reverse=True):
        tens = np.trace(tens, axis1=s, axis2=s + (tens.ndim // 2))
    k = len(kept)
    # axes are currently in increasing original-site order; restore caller order
    perm = [int(p) for p in np.argsort(np.argsort(kept))]
    tens = np.transpose(tens, axes=perm + [p + k for p in perm])
    return MixedState(k, tens.reshape(1 << k, 1 << k))
