"""Experiment runner: validated configs, sweeps, fits, deterministic CSV.

Scenarios map to the library's headline measurements: ``qfi_scaling`` (probe
comparison vs system size), ``theta_curves`` (symmetry expectation values vs
imprint angle, with one ``classical_fisher`` curve of the translation
readout), ``channel_sweep`` (noisy Fisher information vs size), ``deformed``
(outcome-decoded ladder protocol), ``subsystem`` (restricted parity windows),
and ``hadamard`` (translation-readout Fisher information at ``theta0``).
Everything the CLI knows about a scenario (the config fields it reads, its
checks, its point tasks and its fit) is one entry of ``_SCENARIOS``.  The
config and CSV formats are declared here too: ``_FIELD_SHAPES`` is the JSON
a config may hold, its hash is taken over the fields of ``ExperimentConfig``
and the specs it holds, and the fields of ``ExperimentRecord`` are the columns.

Every scenario is a list of point tasks run through one thread pool; serial
is a pool of one worker.  For a fixed BLAS thread count the output bytes do
not depend on the pool size: fixed column set (schema version in every row),
17-significant-digit decimals, canonical row ordering, per-point seeds derived
from the global seed by a splitmix64 mix, and write-to-temp + atomic rename.
The BLAS thread count itself can move differenced columns in their last bits
(up to ~1e-10 relative between one and two OpenBLAS threads), so byte
comparisons pin it, e.g. ``OPENBLAS_NUM_THREADS=1``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import cached_property, partial

import numpy as np

from . import __version__
from .channels import (
    ChannelSpec,
    apply_channel,
    bitflip_qfi_formula,
)
from .fermion import (
    fit_power_law,
    qfi_generator_second_moment,
    solve_tfim_fermion,
    string_block_bytes,
)
from .deformed import (
    averaged_qfi,
    averaged_qfi_decoded,
    decoded_correlator,
    enumerate_outcomes,
    sample_outcomes,
    uniform_outcome_lro_check,
)
from .metrology import classical_fisher, precision_curve, qfi_mixed, qfi_pure
from .models import (
    ModelSpec,
    ghz_state,
    ladder_site,
    optimal_oat_twist,
    oat_squeezed_state,
    solve_model,
    spin_coherent_state,
)
from .policy import POLICY
from .qcore import (
    PauliOperator,
    PureState,
    collective_spin,
    evolve_phase,
    expectation,
    parity_x_operator,
    staggered_z,
)
from .subsys import make_ising_protocol, parity_theta_curve, window_report
from .symmetry import build_symmetry, hadamard_test, hadamard_test_povm

SCHEMA_VERSION = 1
PROBES = ("critical_fm", "critical_afm", "ghz", "spin_coherent", "oat")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message starts with the field."""


# The JSON shape of every settable config field: a type (int excludes bool,
# float takes any finite number), a one-element list for a non-empty list of
# that type, a dict of the keys an object may hold (any other key is refused),
# or a ``(shape, None)`` pair that also takes null.  An object holds only the
# keys a run reads: subsystem, the one reader of ``model``, runs the tfim kind.
_MODEL_SHAPE = {"kind": str, "L": int, "boundary": str, "J": float, "h": float}
_CHANNEL_SHAPE = {
    "kind": str, "p": (float, None), "chi": (float, None), "site_mask": ([int], None),
}
_FIELD_SHAPES = {
    "seed": int, "probes": [str], "L_list": [int], "L": int, "L_sub_list": [int],
    "model": (_MODEL_SHAPE, None), "channel": (_CHANNEL_SHAPE, None),
    "theta_lo": float, "theta_hi": float, "theta_points": int, "theta_spacing": str,
    "theta0": float, "beta_list": [float], "n_samples": int, "use_fermion_above": int,
}
_SHAPE_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false"}


def _fits(value, kind) -> bool:
    if kind is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is kind


def _typed(name: str, value, shape, what: str = ""):
    """``value`` checked against ``shape`` (see ``_FIELD_SHAPES``); lists come back as tuples."""
    if isinstance(shape, tuple):
        if value is None:
            return None
        shape = shape[0]
    if isinstance(shape, list):
        if type(value) is not list or not value:
            raise ConfigError(f"{name}: {what}must be a non-empty list, got {value!r}")
        bad = [v for v in value if not _fits(v, shape[0])]
        if bad:
            raise ConfigError(
                f"{name}: {what}entries must each be {_SHAPE_NAMES[shape[0]]}, got {bad[0]!r}"
            )
        return tuple(value)
    if isinstance(shape, dict):
        if type(value) is not dict:
            raise ConfigError(f"{name}: must be an object, got {value!r}")
        unknown = sorted(set(value) - set(shape))
        if unknown:
            raise ConfigError(f"{name}: unknown key(s) {unknown}")
        return {key: _typed(name, val, shape[key], f"{key} ") for key, val in value.items()}
    if not _fits(value, shape):
        raise ConfigError(f"{name}: {what}must be {_SHAPE_NAMES[shape]}, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    seed: int = 20260809
    probes: tuple[str, ...] = ("critical_fm",)
    L_list: tuple[int, ...] = (4, 6, 8, 10, 12)
    L: int = 10
    L_sub_list: tuple[int, ...] = (6, 8, 10)
    model: ModelSpec | None = None
    channel: ChannelSpec | None = None
    theta_lo: float = 1e-3
    theta_hi: float = 1.0
    theta_points: int = 256
    theta_spacing: str = "log"
    theta0: float = 1e-3
    beta_list: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0)
    n_samples: int = 10000
    use_fermion_above: int = 14

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """A validated config from its JSON object.

        Every key must be a field its scenario reads, in its JSON shape;
        fields left out keep their defaults.
        """
        data = dict(payload)
        name = data.pop("scenario", None)
        if name is None:
            raise ConfigError("scenario: required field is missing")
        if not isinstance(name, str) or name not in _SCENARIOS:
            raise ConfigError(f"scenario: must be one of {tuple(_SCENARIOS)}, got {name!r}")
        scenario = _SCENARIOS[name]
        for key in data:
            if key not in _FIELD_SHAPES:
                raise ConfigError(f"{key}: unknown config field")
            if key not in scenario.reads:
                raise ConfigError(f"{key}: not read by the {name} scenario")
        given = [key for key in scenario.exclusive if data.get(key) is not None]
        if len(given) > 1:
            raise ConfigError(f"{given[1]}: not read when {given[0]} is given")
        for key, value in data.items():
            data[key] = _typed(key, value, _FIELD_SHAPES[key])
        for key, spec_cls in (("model", ModelSpec), ("channel", ChannelSpec)):
            if data.get(key) is not None:
                try:
                    data[key] = spec_cls(**data[key])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{key}: {exc}") from exc
        cfg = cls(scenario=name, **data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Range checks on every field, then the scenario's own checks.

        A config with any exact-diagonalization point (every config but a
        qfi_scaling one without ``_ed_sizes``) then loads the exact path's
        stack: ``scipy.sparse.linalg``, and with it ``scipy.sparse`` and
        ``scipy.linalg``.  The library imports scipy only where it uses
        it, so this import decides when the load happens: here, in set-up,
        rather than inside the run, which then imports no module.
        A config whose every point takes the free-fermion path loads numpy
        alone.
        """
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed: must be a 64-bit unsigned integer")
        for probe in self.probes:
            if probe not in PROBES:
                raise ConfigError(f"probes: unknown probe {probe!r}; known: {PROBES}")
        for name in ("probes", "L_list", "L_sub_list", "beta_list"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name}: each entry may appear once; repeated: {repeated}")
        for name in ("L_list", "L_sub_list"):
            if min(getattr(self, name)) < 2:
                raise ConfigError(f"{name}: sizes must be >= 2")
        if self.L < 2:
            raise ConfigError("L: must be >= 2")
        if self.theta_lo <= 0:
            raise ConfigError("theta_lo: must be > 0")
        if self.theta_hi <= self.theta_lo:
            raise ConfigError("theta_hi: must be greater than theta_lo")
        if self.theta_points < 2:
            raise ConfigError("theta_points: need at least 2 points")
        if self.theta_spacing not in ("log", "linear"):
            raise ConfigError("theta_spacing: must be log or linear")
        if min(self.beta_list) < 0:
            raise ConfigError("beta_list: deformation strengths must be >= 0")
        if self.n_samples < 1:
            raise ConfigError("n_samples: must be positive")
        _SCENARIOS[self.scenario].check(self)
        if self.scenario != "qfi_scaling" or _ed_sizes(self):  # an exact point
            import scipy.sparse.linalg  # noqa: F401

    def to_canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @cached_property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode()).hexdigest()[:16]

    def theta_grid(self) -> np.ndarray:
        if self.theta_spacing == "log":
            return np.logspace(
                math.log10(self.theta_lo), math.log10(self.theta_hi), self.theta_points
            )
        return np.linspace(self.theta_lo, self.theta_hi, self.theta_points)


def _check_cap(name: str, L: int, dense: bool = False) -> None:
    """``L`` qubits fit the exact path: a dense density matrix or a ground solve."""
    field, path = (("dense_cap", "a dense density matrix") if dense
                   else ("sparse_cap", "exact diagonalization"))
    POLICY.cap("qubits", L, field,
               error=lambda msg: ConfigError(f"{name}: L={L} needs {path}: {msg}"))


def _check_even(name: str, sizes) -> None:
    odd = [l for l in sizes if l % 2]
    if odd:
        raise ConfigError(f"{name}: the staggered probe needs even sizes; got {odd}")


@dataclass(kw_only=True)
class ExperimentRecord:
    """One CSV row; the fields are the columns, in order.  ``run`` stamps
    ``scenario``, ``seed`` and ``config_hash`` on every row."""

    schema_version: int = SCHEMA_VERSION
    scenario: str = ""
    probe: str = ""
    model_kind: str = ""
    boundary: str = ""
    L: int | None = None
    L_sub: int | None = None
    channel_kind: str = ""
    p: float | None = None
    chi: float | None = None
    theta: float | None = None
    beta: float | None = None
    observable: str
    value: float
    variance: float | None = None
    delta_theta: float | None = None
    qfi: float | None = None
    fit_exponent: float | None = None
    fit_r2: float | None = None
    point_seed: int | None = None
    seed: int | None = None
    config_hash: str = ""
    code_version: str = __version__

    def row(self) -> list[str]:
        return [_fmt(getattr(self, c)) for c in COLUMNS]


COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


def _fmt(val) -> str:
    if val is None:
        return ""
    if isinstance(val, float):
        if math.isinf(val):
            return "inf"
        return f"{val:.17g}"
    return str(val)


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def point_seed(global_seed: int, index: int) -> int:
    return splitmix64(global_seed ^ splitmix64(index))


def _probe_state(probe: str, L: int) -> tuple[PureState, PauliOperator]:
    if probe == "ghz":
        return ghz_state(L), collective_spin(L, "Z", half=False)
    if probe == "spin_coherent":
        return spin_coherent_state(L), collective_spin(L, "Z", half=False)
    if probe == "oat":
        t_star, _, gen = optimal_oat_twist(L)
        return oat_squeezed_state(L, t_star), gen
    if probe == "critical_fm":
        sol = solve_model(ModelSpec(kind="tfim", L=L, J=1.0, h=1.0))
        return sol.state, collective_spin(L, "Z", half=False)
    if probe == "critical_afm":
        sol = solve_model(ModelSpec(kind="tfim", L=L, J=-1.0, h=1.0))
        return sol.state, staggered_z(L)
    raise ConfigError(f"probes: unknown probe {probe!r}")


# -- scenarios -------------------------------------------------------
#
# Each scenario turns a config into a list of zero-argument point tasks, each
# returning its rows.  A task builds its own probe state or density matrix, so
# nothing large outlives it; a solve shared by several tasks runs once, before
# them.  ``run`` stamps the run-level columns on every row.  Each scenario's
# check refuses, before any work, a config its tasks cannot run.

Task = Callable[[], list[ExperimentRecord]]


def _curve_rows(curve, observable: str, **labels) -> list[ExperimentRecord]:
    """One row per grid point of a two-outcome (+-1) precision curve."""
    return [
        ExperimentRecord(
            theta=float(th), observable=observable, value=float(val),
            variance=max(1 - val * val, 0.0), delta_theta=float(dth), **labels,
        )
        for th, val, dth in zip(curve.theta, curve.signal, curve.delta_theta)
    ]


def _qfi_scaling_check(cfg: ExperimentConfig) -> None:
    if "critical_afm" in cfg.probes:
        _check_even("L_list", cfg.L_list)
    fermion_sizes = [l for l in cfg.L_list if l > cfg.use_fermion_above]
    if "critical_fm" in cfg.probes and fermion_sizes:
        odd = [l for l in fermion_sizes if l % 2]
        if odd:
            raise ConfigError(
                f"L_list: sizes above use_fermion_above={cfg.use_fermion_above} take the "
                f"periodic free-fermion path, which needs even L; got {odd}"
            )
        # the recursion holds O(L) floats, but a pivot under the floor hands
        # the larger separations to slogdet blocks of up to (L/2) x (L/2)
        L = max(fermion_sizes)
        POLICY.cap("bytes of string-block work", string_block_bytes(L // 2),
                   "fermion_bytes_cap", error=lambda msg: ConfigError(f"L_list: L={L}: {msg}"))
    ed_sizes = _ed_sizes(cfg)
    if ed_sizes:
        _check_cap("L_list", max(ed_sizes))


def _ed_sizes(cfg: ExperimentConfig) -> list[int]:
    """The sizes of a qfi_scaling config with a point off the free-fermion
    path: every (probe, size) point but critical_fm above use_fermion_above
    goes through exact diagonalization."""
    fermion_only = set(cfg.probes) == {"critical_fm"}
    return [l for l in cfg.L_list if not fermion_only or l <= cfg.use_fermion_above]


def _qfi_scaling_tasks(cfg: ExperimentConfig) -> list[Task]:
    def point(probe: str, L: int) -> list[ExperimentRecord]:
        if probe == "critical_fm" and L > cfg.use_fermion_above:
            fq = 4.0 * qfi_generator_second_moment(solve_tfim_fermion(L))
        else:
            fq = qfi_pure(*_probe_state(probe, L))
        return [ExperimentRecord(
            probe=probe, model_kind="tfim" if "critical" in probe else "",
            L=L, observable="qfi_pure", value=fq, qfi=fq,
        )]

    return [partial(point, probe, L) for probe in cfg.probes for L in cfg.L_list]


def _theta_curves_check(cfg: ExperimentConfig) -> None:
    _check_cap("L", cfg.L)
    if cfg.L % 2:
        raise ConfigError("L: the staggered probe needs an even size")


def _theta_curves_tasks(cfg: ExperimentConfig) -> list[Task]:
    L = cfg.L
    grid = cfg.theta_grid()

    def parity() -> list[ExperimentRecord]:
        # internal-symmetry probe: product-of-X parity on the uniform-coupling chain
        fm, gen = _probe_state("critical_fm", L)
        curve = precision_curve(fm, gen, parity_x_operator(L), grid)
        return _curve_rows(curve, "parity_x", probe="critical_fm", model_kind="tfim", L=L)

    def spatial() -> list[ExperimentRecord]:
        # spatial-symmetry probes on the staggered chain
        afm, gen = _probe_state("critical_afm", L)
        refl = build_symmetry("reflection", L, bond_center=(L - 2) // 2)
        trans = build_symmetry("translation", L)
        curve = precision_curve(afm, gen, refl, grid)
        records = _curve_rows(curve, "reflection", probe="critical_afm", model_kind="tfim", L=L)
        cfis = classical_fisher(afm, gen, hadamard_test_povm(trans), grid).tolist()
        for th, cfi in zip(grid, cfis):
            ht = hadamard_test(evolve_phase(afm, gen, float(th)), trans)
            records.append(ExperimentRecord(
                probe="critical_afm", model_kind="tfim", L=L,
                theta=float(th), observable="translation_re", value=ht.re_value,
                delta_theta=cfi ** -0.5 if cfi > 0 else math.inf,
            ))
        return records

    return [parity, spatial]


def _channel_sweep_check(cfg: ExperimentConfig) -> None:
    chan = cfg.channel
    if chan is None:
        raise ConfigError("channel: required for the channel_sweep scenario")
    mask = chan.site_mask or ()
    outside = [j for j in mask if not 0 <= j < min(cfg.L_list)]
    if outside:
        raise ConfigError(
            f"channel: site_mask sites {outside} are outside the {min(cfg.L_list)}-site chain"
        )
    if "critical_afm" in cfg.probes:
        _check_even("L_list", cfg.L_list)
    _check_cap("L_list", max(cfg.L_list), dense=True)


def _channel_sweep_tasks(cfg: ExperimentConfig) -> list[Task]:
    chan = cfg.channel

    def point(probe: str, L: int) -> list[ExperimentRecord]:
        state, gen = _probe_state(probe, L)
        rho = apply_channel(state, chan)
        fq = qfi_mixed(rho, gen).value
        row = partial(ExperimentRecord, probe=probe, L=L, channel_kind=chan.kind, p=chan.p)
        records = [row(chi=chan.chi, observable="qfi_mixed", value=fq, qfi=fq)]
        uniform = chan.site_mask is None or set(chan.site_mask) >= set(range(L))
        if chan.kind == "bitflip_x" and uniform:  # the formula holds for a uniform flip only
            second = float(np.real(expectation(state, gen)) ** 2)
            second = qfi_pure(state, gen) / 4.0 + second  # <O^2>
            formula = bitflip_qfi_formula(L, chan.p, second)
            records.append(row(observable="qfi_bitflip_formula", value=formula, qfi=formula))
        return records

    return [partial(point, probe, L) for probe in cfg.probes for L in cfg.L_list]


def _deformed_check(cfg: ExperimentConfig) -> None:
    if cfg.L > 7:
        raise ConfigError("L: ladder rungs capped at 7 in exact outcome mode")


def _deformed_tasks(cfg: ExperimentConfig) -> list[Task]:
    def ladder() -> list[ExperimentRecord]:
        L = cfg.L
        sol = solve_model(ModelSpec(kind="cluster_ladder", L=L))
        ops = [PauliOperator.single(2 * L, ladder_site(j, 1, L), "X") for j in range(1, L + 1)]
        ens = enumerate_outcomes(sol.state, ops)
        pseed = point_seed(cfg.seed, 0)
        samples = sample_outcomes(sol.state, ops, seed=pseed, n_samples=cfg.n_samples)
        mean, stderr = decoded_correlator(ens, L, 1, L, samples=samples)
        lro = uniform_outcome_lro_check(sol.state, L, list(cfg.beta_list))
        row = partial(ExperimentRecord, model_kind="cluster_ladder", L=L)
        return [
            row(observable="decoded_corr_exact", value=decoded_correlator(ens, L, 1, L),
                point_seed=pseed),
            row(observable="decoded_corr_sampled", value=mean, variance=stderr**2,
                point_seed=pseed),
            row(observable="averaged_qfi", value=averaged_qfi(ens, L),
                qfi=averaged_qfi_decoded(ens, L)),
        ] + [
            row(beta=b, observable="uniform_lro", value=v)
            for b, v in zip(lro.beta_grid, lro.long_range_value)
        ]

    return [ladder]


def _subsystem_check(cfg: ExperimentConfig) -> None:
    if cfg.model is not None and cfg.model.kind != "tfim":
        raise ConfigError("model: the subsystem scenario runs on the tfim kind")
    name, L = ("L", cfg.L) if cfg.model is None else ("model", cfg.model.L)
    _check_cap(name, L)
    outside = [l for l in cfg.L_sub_list if l > L]
    if outside:
        raise ConfigError(f"L_sub_list: blocks {outside} do not fit in the {L}-site chain")
    if cfg.theta_points < 200:
        raise ConfigError("theta_points: window extraction needs >= 200 points")


def _subsystem_tasks(cfg: ExperimentConfig) -> list[Task]:
    spec = cfg.model if cfg.model is not None else ModelSpec(kind="tfim", L=cfg.L)
    L = spec.L
    state = solve_model(spec).state  # shared by every block
    grid = cfg.theta_grid()

    def block(L_sub: int) -> list[ExperimentRecord]:
        curve = parity_theta_curve(state, make_ising_protocol(L, L_sub), grid)
        labels = dict(probe="critical_fm", model_kind="tfim", L=L, L_sub=L_sub)
        records = _curve_rows(curve, "subsystem_parity", **labels)
        rep = window_report(curve, L_sub)
        for name, val in (
            ("window_theta_l", rep.theta_l), ("window_theta_min", rep.theta_min),
            ("window_theta_r", rep.theta_r), ("window_delta_min", rep.delta_theta_min),
            ("window_sql", rep.sql_reference),
        ):
            if val is not None:
                records.append(ExperimentRecord(observable=name, value=float(val), **labels))
        return records

    return [partial(block, L_sub) for L_sub in cfg.L_sub_list]


def _hadamard_check(cfg: ExperimentConfig) -> None:
    _check_even("L_list", cfg.L_list)
    _check_cap("L_list", max(cfg.L_list))


def _hadamard_tasks(cfg: ExperimentConfig) -> list[Task]:
    def point(L: int) -> list[ExperimentRecord]:
        state, gen = _probe_state("critical_afm", L)
        povm = hadamard_test_povm(build_symmetry("translation", L))
        cfi = float(classical_fisher(state, gen, povm, [cfg.theta0])[0])
        return [ExperimentRecord(
            probe="critical_afm", model_kind="tfim", L=L,
            theta=cfg.theta0, observable="translation_cfi", value=cfi,
        )]

    return [partial(point, L) for L in cfg.L_list]


@dataclass(frozen=True)
class Scenario:
    """Everything the CLI knows about one scenario.

    ``reads`` names the config fields the scenario reads; ``from_dict``
    refuses any other.  ``fit`` is the (point observable, fit observable)
    pair of its per-probe power-law fit, if it has one.  ``exclusive``
    names fields a config may not give together: once the first is given,
    the others are not read.
    """

    reads: tuple[str, ...]
    check: Callable[[ExperimentConfig], None]
    tasks: Callable[[ExperimentConfig], list[Task]]
    fit: tuple[str, str] | None = None
    exclusive: tuple[str, ...] = ()


_THETA_GRID = ("theta_lo", "theta_hi", "theta_points", "theta_spacing")

_SCENARIOS = {
    "qfi_scaling": Scenario(
        ("seed", "probes", "L_list", "use_fermion_above"),
        _qfi_scaling_check, _qfi_scaling_tasks, fit=("qfi_pure", "qfi_vs_L_fit"),
    ),
    "theta_curves": Scenario(("seed", "L", *_THETA_GRID), _theta_curves_check, _theta_curves_tasks),
    "channel_sweep": Scenario(
        ("seed", "probes", "L_list", "channel"), _channel_sweep_check, _channel_sweep_tasks,
    ),
    "deformed": Scenario(
        ("seed", "L", "beta_list", "n_samples"), _deformed_check, _deformed_tasks,
    ),
    "subsystem": Scenario(
        ("seed", "L", "model", "L_sub_list", *_THETA_GRID), _subsystem_check, _subsystem_tasks,
        exclusive=("model", "L"),
    ),
    "hadamard": Scenario(
        ("seed", "L_list", "theta0"), _hadamard_check, _hadamard_tasks,
        fit=("translation_cfi", "cfi_vs_L_fit"),
    ),
}


def run(cfg: ExperimentConfig, threads: int = 1) -> list[ExperimentRecord]:
    """Execute one scenario; rows come back in canonical deterministic order.

    The point tasks run through one pool of ``threads`` workers (serial is a
    pool of one) and their rows are sorted, so scheduling never shows.  The
    power-law fit rows are computed once, from the point rows.
    """
    tasks = _SCENARIOS[cfg.scenario].tasks(cfg)
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        records = [rec for rows in pool.map(lambda task: task(), tasks) for rec in rows]
    finally:
        pool.shutdown(cancel_futures=True)  # a failed task stops the queued ones
    records += _fit_rows(cfg, records)
    for rec in records:
        rec.scenario, rec.seed, rec.config_hash = cfg.scenario, cfg.seed, cfg.config_hash
    return sorted(records, key=_sort_key)


def _fit_rows(cfg: ExperimentConfig, records: list[ExperimentRecord]) -> list[ExperimentRecord]:
    """One log-log power-law fit per probe of the point rows, in ascending L."""
    fit_of = _SCENARIOS[cfg.scenario].fit
    if fit_of is None:
        return []
    y_name, fit_name = fit_of
    points = [r.probe for r in records if r.observable == y_name]
    rows = []
    for probe in dict.fromkeys(points):
        if points.count(probe) < 3:
            continue
        f = fit(records, y_name, probe)
        rows.append(ExperimentRecord(
            probe=probe, observable=fit_name, value=f.exponent,
            fit_exponent=f.exponent, fit_r2=f.r_squared,
        ))
    return rows


def _sort_key(rec: ExperimentRecord):
    return (
        rec.scenario, rec.probe, rec.observable,
        rec.L if rec.L is not None else -1,
        rec.L_sub if rec.L_sub is not None else -1,
        rec.theta if rec.theta is not None else -math.inf,
        rec.beta if rec.beta is not None else -math.inf,
        rec.p if rec.p is not None else -math.inf,
    )


def fit(records: list[ExperimentRecord], observable: str, probe: str | None = None):
    """Log-log power-law fit of ``value`` vs ``L`` over matching records."""
    pts = sorted(
        (r.L, r.value)
        for r in records
        if r.observable == observable and (probe is None or r.probe == probe)
        and r.L is not None
    )
    if len(pts) < 3:
        raise ValueError("need at least three matching records to fit")
    return fit_power_law(np.array([p[0] for p in pts], float), np.array([p[1] for p in pts]))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".critsense-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_csv(records: list[ExperimentRecord], path: str) -> None:
    """Write the flat record table; header row first, atomic replace."""
    lines = [",".join(COLUMNS)]
    for rec in records:
        lines.append(",".join(rec.row()))
    _atomic_write(path, "\n".join(lines) + "\n")


def emit_plotdata(records: list[ExperimentRecord], path: str) -> None:
    """Long-format (figure, series, x, y) table plus a gnuplot script stub."""
    lines = ["figure,series,x,y"]
    for rec in records:
        if rec.theta is not None:
            x = rec.theta
        elif rec.beta is not None:
            x = rec.beta
        elif rec.L is not None:
            x = rec.L
        else:
            continue
        series = "/".join(s for s in (rec.probe, rec.observable) if s)
        lines.append(f"{rec.scenario},{series},{_fmt(float(x))},{_fmt(rec.value)}")
    _atomic_write(path, "\n".join(lines) + "\n")
    stem, _ = os.path.splitext(path)
    script = (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set logscale xy\n"
        f"plot '{os.path.basename(path)}' using 3:4 with points\n"
    )
    _atomic_write(stem + ".gp", script)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="critsense",
        description="Critical-chain interferometric sensing experiments",
    )
    parser.add_argument("scenario", choices=tuple(_SCENARIOS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    # the flag wins over the environment; either must name at least one thread
    threads, source = args.threads, "--threads"
    if threads is None:
        source = "CRITSENSE_THREADS"
        try:
            threads = int(os.environ.get(source, "1"))
        except ValueError:
            print(f"config error: {source} must be an integer", file=sys.stderr)
            return 2
    if threads < 1:
        print(f"config error: {source} must be >= 1, got {threads}", file=sys.stderr)
        return 2

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ConfigError("config: must be a JSON object")
        if payload.get("scenario", args.scenario) != args.scenario:
            raise ConfigError("scenario: config disagrees with the command line")
        payload["scenario"] = args.scenario
        if args.seed is not None:
            payload["seed"] = args.seed
        cfg = ExperimentConfig.from_dict(payload)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        records = run(cfg, threads=threads)
        os.makedirs(args.out, exist_ok=True)
        emit_csv(records, os.path.join(args.out, f"{cfg.scenario}.csv"))
        emit_plotdata(records, os.path.join(args.out, f"{cfg.scenario}_plot.csv"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError, RuntimeError, ValueError) as exc:
        print(f"numeric failure: {type(exc).__module__}.{type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
