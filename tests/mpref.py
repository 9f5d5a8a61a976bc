"""Extended-precision references for re-recording outputs, with mpmath.

A float64 re-record has to show that the new cells are closer to the truth
than the old ones.  The routines here take the float inputs a solve used
and evaluate the reported quantity at ``dps`` significant digits:

* ``block_matrix``: P^dagger H P of one real-character sector block (the
  ``qcore.sector_isometry`` the ground solve reads), from the exact
  ingredients of the float block (H's rows at the orbit minima, the +-1
  characters and the integer orbit sizes);
* ``lowest_eigenpair``: its lowest eigenpair, with ``mp.eigsy``;
* ``ray_distance``: the distance of a float state from that eigenvector,
  minimized over the global phase;
* ``toeplitz_minors``: the leading minors of the fermion string block,
  the <Z_0 Z_r> of ``fermion.zz_correlators``.

Run as a script (``PYTHONPATH=src python tests/mpref.py``), it compares the
critical Ising ground vectors at L = 8 and 10 from the sector-block solve
with those of a dense solve of the whole register, both against the
30-digit reference.  mp.eigsy of the 56-state L = 10 block takes seconds.
"""
from __future__ import annotations

import mpmath
import numpy as np


def block_matrix(H, P, reps, norms, dps: int = 30) -> mpmath.matrix:
    """P^dagger H P at ``dps`` digits for an orbit isometry ``(P, reps, norms)``
    of ``qcore.sector_isometry`` with real characters.

    The float block is diag(norms) H[reps] P.  Here P's entries are split
    into their characters chi = +-1 and the orbit sizes |O| = norms^2, so
    entry (r, s) is sqrt(|O_r| / |O_s|) sum_b H[reps_r, b] chi_s(b): the
    sums are of H's coefficients times +-1, exact in float64 for the Ising
    chain's coefficients +-1 and +-h with h a small dyadic number.
    """
    if np.iscomplexobj(P.data):
        raise ValueError("block_matrix needs real characters (k = 0 or pi)")
    sizes = np.rint(np.asarray(norms) ** 2).astype(np.int64)
    chi = P.copy()
    chi.data = np.sign(chi.data)
    sums = (H.to_sparse(reps) @ chi).toarray()
    with mpmath.workdps(dps):
        root = [mpmath.sqrt(int(size)) for size in sizes]
        out = mpmath.matrix(*sums.shape)
        for r, s in zip(*np.nonzero(sums)):
            out[r, s] = mpmath.mpmathify(sums[r, s]) * root[r] / root[s]
    return out


def lowest_eigenpair(block, dps: int = 30) -> tuple[mpmath.mpf, mpmath.matrix]:
    """Lowest eigenvalue of a real symmetric matrix (an mpmath matrix, or a
    numpy array whose float entries are taken as exact) and a unit
    eigenvector, from ``mp.eigsy``."""
    with mpmath.workdps(dps):
        mat = mpmath.matrix(block.tolist()) if isinstance(block, np.ndarray) else block
        evals, evecs = mpmath.eigsy(mat)
        low = min(range(len(evals)), key=lambda i: evals[i])
        return +evals[low], evecs[:, low]


def ray_distance(vec, ref, dps: int = 30) -> float:
    """min over phi of ||vec - e^{i phi} ref|| for a float vector ``vec`` and a
    unit mpmath vector ``ref``, both in the same coordinates; the float
    entries are taken as exact."""
    with mpmath.workdps(dps):
        v = [mpmath.mpmathify(complex(x)) for x in vec]
        overlap = mpmath.fsum(mpmath.conj(ref[i]) * v[i] for i in range(len(v)))
        phase = overlap / abs(overlap) if overlap else mpmath.mpf(1)
        return float(mpmath.sqrt(mpmath.fsum(abs(v[i] - phase * ref[i]) ** 2
                                             for i in range(len(v)))))


def toeplitz_minors(g, r: int, dps: int = 40) -> list[mpmath.mpf]:
    """The leading minors D_1..D_r of T[a, b] = g(b - a + 1), a, b < r, at
    ``dps`` digits, by unpivoted elimination; ``g`` maps an integer
    separation to its float kernel value (``FermionSolution.kernel``), taken
    as exact."""
    with mpmath.workdps(dps):
        t = [[mpmath.mpf(g(b - a + 1)) for b in range(r)] for a in range(r)]
        minors, det = [], mpmath.mpf(1)
        for k, row in enumerate(t):
            det *= row[k]
            minors.append(det)
            for below in t[k + 1:]:
                f = below[k] / row[k]
                for j in range(k + 1, r):
                    below[j] -= f * row[j]
        return minors


def block_coordinates(psi, P, reps, norms) -> tuple[np.ndarray, float]:
    """P^dagger psi = norms * psi[reps] of a full-register vector, and the norm
    of its part outside the range of P, ||psi - P P^dagger psi||."""
    coords = norms * psi[reps]
    return coords, float(np.linalg.norm(psi - P @ coords))


def _compare_ising(L: int, J: float, dps: int = 30) -> None:
    from critsense import ModelSpec, build_hamiltonian, ground_state, solve_model
    from critsense.qcore import sector_isometry

    spec = ModelSpec(kind="tfim", L=L, J=J)
    H = build_hamiltonian(spec)
    # solve_model's block: T at k = 0 and the product-of-X parity +1
    P, reps, norms = sector_isometry(L, ("translation", "X" * L), (0, 0))
    energy, ref = lowest_eigenpair(block_matrix(H, P, reps, norms, dps), dps)
    print(f"Ising L = {L}, J = {J:+g}: {reps.size}-state block, E0 = "
          f"{mpmath.nstr(energy, 20)}")
    for name, sol in (("sector block", solve_model(spec)), ("whole register", ground_state(H))):
        coords, outside = block_coordinates(sol.state.amplitudes, P, reps, norms)
        dist = ray_distance(coords, ref, dps)
        rel = float(abs((sol.energy - energy) / energy))
        print(f"  {name:>14}: |psi - ref| = {dist:.2e} in the block, "
              f"{outside:.2e} outside it; |E - E0|/|E0| = {rel:.2e}")


if __name__ == "__main__":
    for L, J in ((8, 1.0), (8, -1.0), (10, 1.0)):
        _compare_ising(L, J)
