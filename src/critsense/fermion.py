"""Free-fermion solver for the transverse-field Ising chain.

The chain H = -J sum Z_j Z_{j+1} - h sum X_j maps to quadratic Majorana
fermions A_j = (prod_{i<j} X_i) Z_j and B_j = (prod_{i<j} X_i) Y_j, with
X_j = i A_j B_j and Z_j Z_{j+1} = i B_j A_{j+1}.  The even fermion-parity
sector (spin parity prod X = +1, the ground sector) carries antiperiodic
momenta.  Order-parameter correlators follow from determinants of the
contraction kernel g(l) = <i B_0 A_l>:

    <Z_0 Z_r> = det[ g(b - a + 1) ]_{a,b = 0..r-1}.

These r x r blocks are the nested leading minors of one Toeplitz matrix
(the Barouch-McCoy structure, Phys. Rev. A 3, 786 (1971)), so a single
unpivoted Gaussian elimination of the r_max x r_max block yields every
<Z_0 Z_r>, r <= r_max, as a running product of its pivots, in O(r_max^3)
instead of one O(r^3) determinant per separation.  On a periodic chain
<Z_0 Z_r> = <Z_0 Z_{L-r}>, so the generator second moment needs only
r <= L/2: O((L/2)^3) in all, where per-separation determinants cost O(L^4).

Finite periodic chains use exact momentum sums (one FFT); open chains use a
real-space Schur decomposition of the Majorana coupling matrix; the
thermodynamic limit evaluates g by adaptive quadrature with oscillatory
weights.

Known limitation: parity-versus-angle curves (block parity after a phase
imprint) mix string and non-string operators into a non-Gaussian expectation,
so they are not computed here at large L; those curves are evaluated at
exact-diagonalization scale only.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.integrate import IntegrationWarning, quad

from .policy import POLICY, CapacityError, NumericPolicy

QUAD_TOL = 1e-10


class FermionError(RuntimeError):
    pass


@dataclass
class FermionSolution:
    """Ground-sector data of one quadratic chain.

    ``L`` is None in the thermodynamic limit.  ``kernel(l)`` returns the
    translation-invariant contraction g(l) = <i B_0 A_l> (periodic or
    thermodynamic); open chains expose position-resolved contractions through
    ``majorana_omega``, the real antisymmetric matrix with
    <gamma_m gamma_n> = delta_mn + i Omega_mn.
    """

    L: int | None
    J: float
    h: float
    boundary: str
    energy: float | None
    epsilon: np.ndarray | None = None   # single-particle energies (k > 0)
    _g_array: np.ndarray | None = field(default=None, repr=False)
    _g_cache: dict[int, float] = field(default_factory=dict, repr=False)
    _omega: np.ndarray | None = field(default=None, repr=False)

    def kernel(self, l: int) -> float:
        if self.boundary == "open":
            raise FermionError(
                "open-chain contractions are position dependent; use majorana_omega"
            )
        if self._g_array is not None:
            return float(self._g_array[l % (2 * self.L)])
        if l not in self._g_cache:
            self._g_cache[l] = _thermo_kernel(self.J, self.h, l)
        return self._g_cache[l]

    def kernels(self, ls: np.ndarray) -> np.ndarray:
        """g(l) over an integer array of separations, as a new array of its shape."""
        if self._g_array is not None:
            return self._g_array[np.asarray(ls) % (2 * self.L)]
        uniq, inv = np.unique(ls, return_inverse=True)
        vals = np.array([self.kernel(int(l)) for l in uniq])
        return vals[inv].reshape(np.shape(ls))

    @property
    def majorana_omega(self) -> np.ndarray:
        if self.L is None:
            raise FermionError("no finite Majorana matrix in the thermodynamic limit")
        if self._omega is None:
            n = self.L
            sites = np.arange(n)
            # <B_j A_l> = -i g(l - j)  =>  Omega[2j+1, 2l] = -g(l - j)
            g = self.kernels(sites[None, :] - sites[:, None])
            om = np.zeros((2 * n, 2 * n))
            om[1::2, 0::2] = -g
            om[0::2, 1::2] = g.T
            self._omega = om
        return self._omega


def _antiperiodic_momenta(L: int) -> np.ndarray:
    return np.array([(2 * m + 1) * math.pi / L for m in range(L // 2)])


def _mode_data(J: float, h: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(epsilon, 1 - 2 n_k, f_k) of the paired Bogoliubov ground state.

    Half-angle forms keep the k -> 0 gapless point stable at criticality, and
    the pairing amplitude is written without dividing by the (possibly
    vanishing) xi + epsilon combination.
    """
    sh = np.sin(0.5 * k)
    xi = 2.0 * (h - J) + 4.0 * J * sh * sh
    s = np.sin(k)
    eps = 2.0 * np.sqrt((h - J) ** 2 + 4.0 * h * J * sh * sh)
    denom = xi + eps
    scale = denom * denom + 4.0 * J * J * s * s
    with np.errstate(invalid="ignore", divide="ignore"):
        v2 = np.where(scale > 0.0, denom * denom / scale, 0.0)
        f = np.where(scale > 0.0, 2.0 * J * s * denom / scale, 0.0)
    return eps, 1.0 - 2.0 * v2, f


def solve_tfim_fermion(
    L: int | None,
    J: float = 1.0,
    h: float = 1.0,
    boundary: str = "periodic",
) -> FermionSolution:
    """Ground-sector solution; ``L=None`` selects the thermodynamic limit."""
    if J <= 0 or h <= 0:
        raise ValueError("fermion solver covers J > 0, h > 0")
    if L is None:
        return FermionSolution(L=None, J=J, h=h, boundary="periodic", energy=None)
    if L < 2:
        raise ValueError("L must be >= 2")
    if boundary == "periodic":
        if L % 2:
            raise FermionError("periodic momentum solver requires even L")
        k = _antiperiodic_momenta(L)
        eps, one_minus_2n, f = _mode_data(J, h, k)
        xi = 2.0 * (h - J * np.cos(k))
        energy = float(np.sum(-xi - eps)) + h * L
        # g(l) = (2/L) Re sum_k e^{ilk} (1 - 2n_k - 2i f_k) with k = (2m+1) pi / L:
        # a length-L inverse FFT over m times the half-step phase e^{i pi l / L}.
        # g inherits 2L-periodicity (and L-antiperiodicity) from the momenta.
        amp = np.zeros(L, dtype=complex)
        amp[: L // 2] = one_minus_2n - 2j * f
        lvals = np.arange(2 * L)
        g = 2.0 * np.real(
            np.exp(1j * math.pi * lvals / L) * np.fft.ifft(amp)[lvals % L]
        )
        return FermionSolution(
            L=L, J=J, h=h, boundary="periodic", energy=energy,
            epsilon=eps, _g_array=g,
        )
    # open chain: real-space Majorana quadratic form H = (i/4) gamma^T M gamma
    m = np.zeros((2 * L, 2 * L))
    for j in range(L):
        _add_pair(m, 2 * j, 2 * j + 1, -h)       # -h i A_j B_j
    for j in range(L - 1):
        _add_pair(m, 2 * j + 1, 2 * j + 2, -J)   # -J i B_j A_{j+1}
    omega, energy = _ground_covariance(m)
    sol = FermionSolution(L=L, J=J, h=h, boundary="open", energy=energy)
    sol._omega = omega
    return sol


def _add_pair(m: np.ndarray, a: int, b: int, coeff: float) -> None:
    m[a, b] += 2.0 * coeff
    m[b, a] -= 2.0 * coeff


def _ground_covariance(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Ground-state Omega and energy of H = (i/4) gamma^T M gamma."""
    s, q = sla.schur(m, output="real")
    n2 = m.shape[0]
    energy = 0.0
    tilde = np.zeros_like(m)
    for i in range(0, n2, 2):
        val = s[i, i + 1]
        if val < 0.0:
            q[:, [i, i + 1]] = q[:, [i + 1, i]]
            val = -val
        energy -= 0.5 * val
        tilde[i, i + 1] = 1.0
        tilde[i + 1, i] = -1.0
    return q @ tilde @ q.T, float(energy)


def _thermo_kernel(J: float, h: float, l: int) -> float:
    """g(l) by oscillatory-weight quadrature over (0, pi), target 1e-10."""

    def fc(k):
        # QUADPACK touches k = 0, where the Bogoliubov fraction is 0/0; the
        # limit is finite, so nudge off the endpoint
        _, one_minus_2n, _ = _mode_data(J, h, np.array([max(k, 1e-9)]))
        return float(one_minus_2n[0])

    def fs(k):
        _, _, f = _mode_data(J, h, np.array([max(k, 1e-9)]))
        return 2.0 * float(f[0])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if l == 0:
            c, _ = quad(fc, 0.0, math.pi, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
            return c / math.pi
        c, _ = quad(fc, 0.0, math.pi, weight="cos", wvar=abs(l),
                    epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
        sgn, _ = quad(fs, 0.0, math.pi, weight="sin", wvar=abs(l),
                      epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
    if l < 0:
        sgn = -sgn
    return (c + sgn) / math.pi


def zz_correlator(sol: FermionSolution, r: int, start: int | None = None) -> float:
    """<Z_start Z_{start+r}> from the r x r determinant of the string block."""
    if r < 1:
        raise ValueError("separation r must be >= 1")
    if sol.L is not None and r >= sol.L:
        raise ValueError(f"separation {r} out of range for L={sol.L}")
    if sol.boundary == "open":
        if start is None:
            start = (sol.L - r) // 2
        if start < 0 or start + r >= sol.L:
            raise ValueError("string leaves the open chain")
        om = sol.majorana_omega
        rows = [2 * (start + a) + 1 for a in range(r)]
        cols = [2 * (start + 1 + b) for b in range(r)]
        gmat = -om[np.ix_(rows, cols)]
    else:
        offs = np.arange(r)
        gmat = sol.kernels(offs[None, :] - offs[:, None] + 1)
    sign, logdet = np.linalg.slogdet(gmat)
    if sign == 0.0:
        return 0.0
    val = sign * math.exp(logdet)
    if not np.isfinite(val):
        cond = np.linalg.cond(gmat)
        raise FermionError(f"ill-conditioned string determinant (cond ~ {cond:.3e})")
    return float(val)


def string_block_bytes(r_max: int) -> int:
    """Peak bytes ``zz_correlators`` allocates for separations up to r_max.

    The r_max x r_max float64 Toeplitz block, plus the first rank-1 update's
    temporary of nearly the same size.
    """
    return 16 * r_max * r_max


def zz_correlators(
    sol: FermionSolution, r_max: int, policy: NumericPolicy = POLICY
) -> np.ndarray:
    """<Z_0 Z_r> for r = 1..r_max on a finite periodic chain, from one elimination.

    Entry r - 1 is the r x r leading minor of T[a, b] = g(b - a + 1), i.e. the
    product of the first r pivots of an unpivoted elimination of T.  A pivot
    that is not finite or has magnitude below ``policy.toeplitz_pivot_floor``
    ends the elimination, and every r from that pivot on falls back to the
    ``slogdet`` of its own block (``zz_correlator``).
    """
    if sol.L is None or sol.boundary != "periodic":
        raise FermionError("zz_correlators needs a finite periodic solution")
    if not 1 <= r_max < sol.L:
        raise ValueError(f"r_max {r_max} out of range for L={sol.L}")
    need = string_block_bytes(r_max)
    if need > policy.fermion_bytes_cap:
        raise CapacityError(
            f"string block for r_max={r_max} needs {need} bytes, "
            f"over the fermion byte cap {policy.fermion_bytes_cap}"
        )
    offs = np.arange(r_max)
    t = sol.kernels(offs[None, :] - offs[:, None] + 1)
    pivots = np.empty(r_max)
    done = r_max
    for k in range(r_max):
        p = t[k, k]
        # |g| <= 1, so the floor is relative to the scale of the block
        if not (math.isfinite(p) and abs(p) >= policy.toeplitz_pivot_floor):
            done = k
            break
        pivots[k] = p
        t[k + 1:, k + 1:] -= np.outer(t[k + 1:, k] / p, t[k, k + 1:])
    out = np.empty(r_max)
    out[:done] = np.cumprod(pivots[:done])
    for r in range(done + 1, r_max + 1):
        out[r - 1] = zz_correlator(sol, r)
    return out


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    r_squared: float
    window: tuple[float, float]

    def __post_init__(self):
        if not (0.0 <= self.r_squared <= 1.0 + 1e-12):
            raise ValueError("r_squared outside [0, 1]")
        if self.window[0] >= self.window[1]:
            raise ValueError("degenerate fit window")


def fit_power_law(
    xs: np.ndarray, ys: np.ndarray, window: tuple[float, float] | None = None
) -> PowerLawFit:
    """Least-squares exponent of y = c x^a on log-log axes inside the window."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if window is not None:
        keep = (xs >= window[0]) & (xs <= window[1])
        xs, ys = xs[keep], ys[keep]
    if xs.size < 3:
        raise ValueError("need at least three points to fit a power law")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("power-law fit requires positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ly - np.mean(ly)
    ss_tot = float(np.dot(total, total))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.dot(resid, resid)) / ss_tot
    return PowerLawFit(
        exponent=float(slope),
        prefactor=float(math.exp(intercept)),
        r_squared=min(max(r2, 0.0), 1.0),
        window=(float(xs.min()), float(xs.max())),
    )


def qfi_generator_second_moment(sol: FermionSolution) -> float:
    """<(sum Z)^2> = L + L sum_{r=1}^{L-1} <Z_0 Z_r> on a finite periodic chain.

    Reflection <Z_0 Z_r> = <Z_0 Z_{L-r}> folds the sum onto r <= L/2:
    L + L (2 sum_{r<L/2} C_r + C_{L/2}).  Equals Var(sum Z) because <Z>
    vanishes in the ground parity sector.
    """
    if sol.L is None or sol.boundary != "periodic":
        raise FermionError("second moment needs a finite periodic solution")
    L = sol.L
    corr = zz_correlators(sol, L // 2)
    return L + L * (2.0 * float(np.sum(corr[:-1])) + float(corr[-1]))


def qfi_scaling_tfim(
    L_list: list[int],
    at_criticality: bool = True,
    J: float = 1.0,
    h: float = 1.0,
) -> tuple[PowerLawFit, np.ndarray]:
    """Fisher-information scaling F_Q(L) = 4 <(sum Z)^2> and its log-log fit."""
    if at_criticality:
        J = h = 1.0
    ls = np.asarray(sorted(L_list), dtype=float)
    if ls.size < 3 or ls.max() / ls.min() < 8.0:
        raise ValueError("size list must span at least a decade with >= 3 points")
    values = []
    for L in ls:
        sol = solve_tfim_fermion(int(L), J=J, h=h)
        values.append(4.0 * qfi_generator_second_moment(sol))
    values = np.asarray(values)
    return fit_power_law(ls, values), values
