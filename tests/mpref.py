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
  the <Z_0 Z_r> of ``fermion.zz_correlators``;
* ``theta_curve``: the signal, variance and derivative of a readout along a
  theta grid, from moments of the float probe summed exactly
  (``fractions.Fraction``), with the reported stencil and with the exact
  derivative.

Run as a script (``PYTHONPATH=src python tests/mpref.py``), it compares the
critical Ising ground vectors at L = 8 and 10 from the sector-block solve
with those of a dense solve of the whole register, both against the
30-digit reference.  mp.eigsy of the 56-state L = 10 block takes seconds.
With ``curves DIR [DIR ...]`` it instead prints, for each directory holding
``subsystem.csv`` and ``theta_curves.csv`` written from the goldens'
configs (``tests/golden/*.json``), the largest relative deviation of every
differenced column from the ``theta_curve`` stencil reference (about 20 s).
"""
from __future__ import annotations

from fractions import Fraction

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


def theta_curve(psi, gen, obs, thetas, step: float, richardson: bool, dps: int = 50) -> dict:
    """<obs> on e^{i theta gen} psi at ``dps`` digits along ``thetas``.

    ``psi``'s float amplitudes and the float diagonal of ``gen`` (I/Z
    letters only) are taken as exact, and so is ``obs @ v`` for a float
    vector v: right for a readout with one +-1 or +-i entry per row (a
    Pauli string, a symmetry permutation, or their CSR or dense forms).  The
    moments M_jk = <P_k psi|A|P_j psi> and N_jk = <A P_k psi|A P_j psi> over
    the distinct diagonal values v_j are summed exactly in ``Fraction``.
    Each angle, and each stencil point theta +- h formed in float64 as
    ``metrology.precision_curve`` forms it, then reads sum_jk e^{i theta
    (v_j - v_k)} M_jk at ``dps`` digits.

    Returns lists of mpf: ``signal``; ``variance``, (n^2 - s^2) / n^2 with
    n = ||psi||^2 for an involution (the branch-probability form) and
    <A^2> - s^2 otherwise; ``stencil``, the centered difference at ``step``
    (with ``richardson``, (4 D(step / 2) - D(step)) / 3, as the curve
    reports for a readout that is not a PauliOperator); ``exact``, the
    derivative sum_jk i (v_j - v_k) e^{i theta (v_j - v_k)} M_jk; and
    ``delta_theta`` and ``delta_theta_exact``, sqrt(variance) over each.
    """
    from critsense.metrology import _is_involution

    involution = _is_involution(obs)
    amp = np.asarray(psi.amplitudes, dtype=np.complex128)
    diagonal = np.asarray(gen.diagonal()).real
    values, inverse = np.unique(diagonal, return_inverse=True)

    def exact(z):
        return Fraction(float(z.real)), Fraction(float(z.imag))

    def dot(u, w):  # sum_b conj(u_b) w_b, exactly, as (re, im)
        re = im = Fraction(0)
        for b in np.flatnonzero((u != 0) & (w != 0)).tolist():
            (ur, ui), (wr, wi) = exact(u[b]), exact(w[b])
            re += ur * wr + ui * wi
            im += ur * wi - ui * wr
        return re, im

    size = values.size
    images = [np.asarray(obs @ np.where(inverse == j, amp, 0.0)) for j in range(size)]
    masked = [np.where(inverse == k, amp, 0.0) for k in range(size)]
    moments = [[dot(masked[k], images[j]) for k in range(size)] for j in range(size)]
    squares = None if involution else [[dot(images[k], images[j]) for k in range(size)]
                                       for j in range(size)]
    norm = dot(amp, amp)[0]
    with mpmath.workdps(dps):
        def mpc(pair):
            return mpmath.mpc(mpmath.mpf(pair[0].numerator) / pair[0].denominator,
                              mpmath.mpf(pair[1].numerator) / pair[1].denominator)

        pairs = [(mpmath.mpf(float(values[j])) - mpmath.mpf(float(values[k])), mpc(moments[j][k]),
                  None if squares is None else mpc(squares[j][k]))
                 for j in range(size) for k in range(size)]
        n = mpmath.mpf(norm.numerator) / norm.denominator

        def signal(theta):
            t = mpmath.mpf(float(theta))
            return mpmath.re(mpmath.fsum(mpmath.expj(t * d) * m for d, m, _ in pairs))

        def centered(theta, h):
            up, dn = float(theta) + h, float(theta) - h  # the float points the curve reads
            return (signal(up) - signal(dn)) / (2 * mpmath.mpf(h))

        out = {key: [] for key in ("signal", "variance", "stencil", "exact",
                                   "delta_theta", "delta_theta_exact")}
        for theta in thetas:
            t = mpmath.mpf(float(theta))
            s = signal(theta)
            if involution:
                var = (n * n - s * s) / (n * n)
            else:
                var = mpmath.re(mpmath.fsum(mpmath.expj(t * d) * q for d, _, q in pairs)) - s * s
            slope = centered(theta, step)
            if richardson:
                slope = (4 * centered(theta, 0.5 * step) - slope) / 3
            deriv = mpmath.re(mpmath.fsum(1j * d * mpmath.expj(t * d) * m for d, m, _ in pairs))
            root = mpmath.sqrt(max(var, mpmath.mpf(0)))
            for key, val in (("signal", s), ("variance", var), ("stencil", slope),
                             ("exact", deriv),
                             ("delta_theta", root / abs(slope) if slope else mpmath.inf),
                             ("delta_theta_exact", root / abs(deriv) if deriv else mpmath.inf)):
                out[key].append(+val)
        return out


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


def _golden_curves(dps: int = 50):
    """(scenario, observable, L_sub, state, gen, obs, richardson) of every
    precision curve in the subsystem and theta_curves goldens' configs."""
    from critsense import ModelSpec, solve_model
    from critsense.qcore import parity_x_operator
    from critsense.subsys import make_ising_protocol
    from critsense.symmetry import build_symmetry
    from critsense.xcli import _probe_state

    state = solve_model(ModelSpec(kind="tfim", L=10)).state
    for L_sub in (4, 6):
        proto = make_ising_protocol(10, L_sub)
        yield "subsystem", "subsystem_parity", str(L_sub), state, proto.imprinter, \
            proto.measurement, False
    fm, gen = _probe_state("critical_fm", 8)
    yield "theta_curves", "parity_x", "", fm, gen, parity_x_operator(8), False
    afm, gen = _probe_state("critical_afm", 8)
    yield "theta_curves", "reflection", "", afm, gen, \
        build_symmetry("reflection", 8, bond_center=3), True


def _compare_curves(dirs: list[str], dps: int = 50) -> None:
    """For each directory, the largest relative deviation of the value,
    variance (the CSV's 1 - value^2), delta_theta and window cells from the
    ``theta_curve`` stencil reference, with the reference's own distance
    from the exact derivative alongside."""
    import csv

    from critsense.metrology import PrecisionCurve
    from critsense.policy import POLICY
    from critsense.subsys import window_report

    tables = {}
    for d in dirs:
        for scenario in ("subsystem", "theta_curves"):
            with open(f"{d}/{scenario}.csv", newline="") as handle:
                tables[d, scenario] = list(csv.DictReader(handle))
    worst: dict = {}
    cells: dict = {}  # per column, each directory's misses cell by cell
    for scenario, observable, L_sub, state, gen, obs, richardson in _golden_curves(dps):
        def rows(d):
            return [r for r in tables[d, scenario]
                    if r["observable"] == observable and r["L_sub"] == L_sub]
        thetas = [float(r["theta"]) for r in rows(dirs[0])]
        ref = theta_curve(state, gen, obs, thetas, POLICY.fd_step, richardson, dps)
        want = {"value": ref["signal"], "variance": [1 - x * x for x in ref["signal"]],
                "delta_theta": ref["delta_theta"]}
        gap = max(abs(a / b - 1) for a, b in zip(ref["delta_theta_exact"], ref["delta_theta"]))
        print(f"{scenario} {observable} {L_sub}: stencil vs exact derivative, "
              f"largest relative gap in delta_theta {float(gap):.2e}")
        curve = PrecisionCurve(np.array(thetas), np.array([float(x) for x in ref["signal"]]),
                               np.array([float(x) for x in ref["variance"]]),
                               np.array([float(x) for x in ref["delta_theta"]]))
        windows = {}
        if scenario == "subsystem":
            rep = window_report(curve, int(L_sub))
            windows = {"window_theta_l": rep.theta_l, "window_theta_min": rep.theta_min,
                       "window_theta_r": rep.theta_r, "window_delta_min": rep.delta_theta_min}
        for d in dirs:
            for column, refs in want.items():
                misses = [float(abs(float(r[column]) - x) / abs(x)) for r, x in zip(rows(d), refs)]
                key = (scenario, observable, column, d)
                worst[key] = max(worst.get(key, 0.0), max(misses))
                cells.setdefault((scenario, observable, column), {}).setdefault(d, []).extend(misses)
            for r in tables[d, scenario]:
                if r["L_sub"] == L_sub and r["observable"] in windows:
                    x = windows[r["observable"]]
                    key = (scenario, "window", "value", d)
                    worst[key] = max(worst.get(key, 0.0), abs(float(r["value"]) - x) / abs(x))
    for (scenario, observable, column, d), miss in sorted(worst.items()):
        print(f"{scenario:12} {observable:16} {column:11} {d}: {miss:.2e}")
    if len(dirs) == 2:  # cell by cell: the second directory closer, equally close, farther
        for key, by_dir in sorted(cells.items()):
            first, second = by_dir[dirs[0]], by_dir[dirs[1]]
            tally = [sum(b < a for a, b in zip(first, second)), sum(b == a for a, b in zip(first, second)),
                     sum(b > a for a, b in zip(first, second))]
            print(" ".join(key), "cells closer/equal/farther in the second:", tally)


if __name__ == "__main__":
    import sys

    if sys.argv[1:2] == ["curves"]:
        _compare_curves(sys.argv[2:])
    else:
        for L, J in ((8, 1.0), (8, -1.0), (10, 1.0)):
            _compare_ising(L, J)
