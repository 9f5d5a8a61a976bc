"""Experiment runner: validated configs, sweeps, fits, deterministic CSV.

Scenarios map to the library's headline measurements: ``qfi_scaling`` (probe
comparison vs system size), ``theta_curves`` (symmetry expectation values vs
imprint angle), ``channel_sweep`` (noisy Fisher information vs size),
``deformed`` (outcome-decoded ladder protocol), ``subsystem`` (restricted
parity windows), and ``hadamard`` (translation-readout Fisher information).

Outputs are bit-reproducible: fixed column set (schema version in every row),
17-significant-digit decimals, canonical row ordering, per-point seeds derived
from the global seed by a splitmix64 mix, and write-to-temp + atomic rename.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .channels import ChannelSpec, apply_channel, bitflip_qfi_formula
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
from .metrology import classical_fisher, error_propagation, qfi_mixed, qfi_pure
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
from .qcore import MixedState, PauliOperator, PureState, evolve_phase, expectation
from .subsys import default_theta_grid, make_ising_protocol, parity_theta_curve, window_report
from .symmetry import build_symmetry, hadamard_test, hadamard_test_povm

SCHEMA_VERSION = 1
SCENARIOS = ("qfi_scaling", "theta_curves", "channel_sweep", "deformed", "subsystem", "hadamard")
PROBES = ("critical", "critical_fm", "critical_afm", "ghz", "spin_coherent", "oat")
FERMION_PROBES = ("critical", "critical_fm")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


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
        data = dict(payload)
        if "probe" in data:  # singular form is an accepted alias
            if "probes" in data:
                raise ConfigError("probe: give either probe or probes, not both")
            data["probes"] = [data.pop("probe")]
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        if "scenario" not in data:
            raise ConfigError("scenario: required field is missing")
        if data["scenario"] not in SCENARIOS:
            raise ConfigError(f"scenario: must be one of {SCENARIOS}")
        for key in ("probes", "L_list", "L_sub_list", "beta_list"):
            if key in data:
                data[key] = tuple(data[key])
        if "model" in data and data["model"] is not None:
            try:
                data["model"] = ModelSpec.from_dict(data["model"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"model: {exc}") from exc
        if "channel" in data and data["channel"] is not None:
            try:
                data["channel"] = ChannelSpec.from_dict(data["channel"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"channel: {exc}") from exc
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed: must be a 64-bit unsigned integer")
        for probe in self.probes:
            if probe not in PROBES:
                raise ConfigError(f"probes: unknown probe {probe!r}")
        if any(l < 2 for l in self.L_list):
            raise ConfigError("L_list: sizes must be >= 2")
        if self.L < 2:
            raise ConfigError("L: must be >= 2")
        if any(l < 2 for l in self.L_sub_list):
            raise ConfigError("L_sub_list: sizes must be >= 2")
        if not (0 < self.theta_lo < self.theta_hi):
            raise ConfigError("theta_lo/theta_hi: need 0 < lo < hi")
        if self.theta_points < 2:
            raise ConfigError("theta_points: need at least 2 points")
        if self.theta_spacing not in ("log", "linear"):
            raise ConfigError("theta_spacing: must be log or linear")
        if self.n_samples < 1:
            raise ConfigError("n_samples: must be positive")
        if self.scenario == "channel_sweep" and self.channel is None:
            raise ConfigError("channel: required for the channel_sweep scenario")
        staggered = self.scenario == "hadamard" or "critical_afm" in self.probes
        if staggered and any(l % 2 for l in self.L_list):
            raise ConfigError("L_list: the staggered probe needs even sizes")
        if self.scenario == "qfi_scaling" and any(p in FERMION_PROBES for p in self.probes):
            fermion_sizes = [l for l in self.L_list if l > self.use_fermion_above]
            odd = [l for l in fermion_sizes if l % 2]
            if odd:
                raise ConfigError(
                    f"L_list: sizes above use_fermion_above={self.use_fermion_above} take the "
                    f"periodic free-fermion path, which needs even L; got {odd}"
                )
            if fermion_sizes:
                # qfi_generator_second_moment eliminates one (L/2) x (L/2) string block
                need = string_block_bytes(max(fermion_sizes) // 2)
                if need > POLICY.fermion_bytes_cap:
                    raise ConfigError(
                        f"L_list: L={max(fermion_sizes)} needs {need} bytes of string-block "
                        f"work, over the fermion byte cap {POLICY.fermion_bytes_cap}"
                    )
        if self.scenario in ("qfi_scaling", "channel_sweep", "hadamard"):
            # every size goes through exact diagonalization, except qfi_scaling
            # sizes above use_fermion_above when all probes are fermion probes
            fermion_only = self.scenario == "qfi_scaling" and all(
                p in FERMION_PROBES for p in self.probes
            )
            ed_sizes = [l for l in self.L_list if not fermion_only or l <= self.use_fermion_above]
            if self.scenario == "channel_sweep":
                cap, path = POLICY.dense_cap, "a dense density matrix"
            else:
                cap, path = POLICY.sparse_cap, "exact diagonalization"
            if ed_sizes and max(ed_sizes) > cap:
                raise ConfigError(
                    f"L_list: L={max(ed_sizes)} needs {path}, over its cap of {cap} qubits"
                )
        if self.scenario == "subsystem" and self.theta_points < 200:
            raise ConfigError("theta_points: window extraction needs >= 200 points")
        if self.scenario == "deformed" and self.L > 7:
            raise ConfigError("L: ladder rungs capped at 7 in exact outcome mode")

    def to_canonical_json(self) -> str:
        payload = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, ModelSpec):
                val = val.to_dict()
            elif isinstance(val, ChannelSpec):
                val = val.to_dict()
            elif isinstance(val, tuple):
                val = list(val)
            payload[f.name] = val
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode()).hexdigest()[:16]

    def theta_grid(self) -> np.ndarray:
        if self.theta_spacing == "log":
            return np.logspace(
                math.log10(self.theta_lo), math.log10(self.theta_hi), self.theta_points
            )
        return np.linspace(self.theta_lo, self.theta_hi, self.theta_points)


COLUMNS = (
    "schema_version", "scenario", "probe", "model_kind", "boundary", "L", "L_sub",
    "channel_kind", "p", "chi", "theta", "beta", "observable", "value",
    "variance", "delta_theta", "qfi", "fit_exponent", "fit_r2",
    "point_seed", "seed", "config_hash", "code_version",
)


@dataclass
class ExperimentRecord:
    scenario: str
    observable: str
    value: float
    seed: int
    config_hash: str
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
    variance: float | None = None
    delta_theta: float | None = None
    qfi: float | None = None
    fit_exponent: float | None = None
    fit_r2: float | None = None
    point_seed: int | None = None
    schema_version: int = SCHEMA_VERSION
    code_version: str = __version__

    def row(self) -> list[str]:
        return [_fmt(getattr(self, c)) for c in COLUMNS]


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


def _sum_z(L: int) -> PauliOperator:
    return PauliOperator(L, [(1.0, "I" * j + "Z" + "I" * (L - 1 - j)) for j in range(L)])


def _staggered_z(L: int) -> PauliOperator:
    return PauliOperator(
        L, [((-1.0) ** j, "I" * j + "Z" + "I" * (L - 1 - j)) for j in range(L)]
    )


def _probe_state(probe: str, L: int) -> tuple[PureState, PauliOperator]:
    if probe == "ghz":
        return ghz_state(L), _sum_z(L)
    if probe == "spin_coherent":
        return spin_coherent_state(L), _sum_z(L)
    if probe == "oat":
        t_star, _, gen = optimal_oat_twist(L)
        return oat_squeezed_state(L, t_star), gen
    if probe in ("critical", "critical_fm"):
        sol = solve_model(ModelSpec(kind="tfim", L=L, J=1.0, h=1.0))
        return sol.state, _sum_z(L)
    if probe == "critical_afm":
        if L % 2:
            raise ConfigError("L_list: the staggered probe needs even sizes")
        sol = solve_model(ModelSpec(kind="tfim", L=L, J=-1.0, h=1.0))
        return sol.state, _staggered_z(L)
    raise ConfigError(f"probes: unknown probe {probe!r}")


# -- scenarios -------------------------------------------------------

def _run_qfi_scaling(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    records = []
    for probe in cfg.probes:
        values = []
        for L in cfg.L_list:
            if probe in FERMION_PROBES and L > cfg.use_fermion_above:
                fq = 4.0 * qfi_generator_second_moment(solve_tfim_fermion(L))
            else:
                state, gen = _probe_state(probe, L)
                fq = qfi_pure(state, gen)
            values.append(fq)
            records.append(ExperimentRecord(
                scenario=cfg.scenario, probe=probe, model_kind="tfim" if "critical" in probe else "",
                L=L, observable="qfi_pure", value=fq, qfi=fq,
                seed=cfg.seed, config_hash=cfg.config_hash,
            ))
        if len(cfg.L_list) >= 3:
            fit = fit_power_law(np.array(cfg.L_list, float), np.array(values))
            records.append(ExperimentRecord(
                scenario=cfg.scenario, probe=probe, observable="qfi_vs_L_fit",
                value=fit.exponent, fit_exponent=fit.exponent, fit_r2=fit.r_squared,
                seed=cfg.seed, config_hash=cfg.config_hash,
            ))
    return records


def _run_theta_curves(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    L = cfg.L
    grid = cfg.theta_grid()
    records = []
    # internal-symmetry probe: product-of-X parity on the uniform-coupling chain
    fm, gen_fm = _probe_state("critical_fm", L)
    par = build_symmetry("parity_x", L)
    for th in grid:
        st = evolve_phase(fm, gen_fm, float(th))
        val = float(np.real(np.vdot(st.amplitudes, par.apply_vec(st.amplitudes))))
        records.append(ExperimentRecord(
            scenario=cfg.scenario, probe="critical_fm", model_kind="tfim", L=L,
            theta=float(th), observable="parity_x", value=val,
            variance=max(1 - val * val, 0.0),
            delta_theta=error_propagation(fm, gen_fm, par_as_pauli(L), float(th)),
            seed=cfg.seed, config_hash=cfg.config_hash,
        ))
    # spatial-symmetry probes on the staggered chain
    afm, gen_afm = _probe_state("critical_afm", L)
    refl = build_symmetry("reflection", L, bond_center=(L - 2) // 2)
    trans = build_symmetry("translation", L)
    t0 = hadamard_test(afm, trans)
    sign = 1.0 if t0.re_value >= 0 else -1.0  # measured translation eigenvalue
    povm = hadamard_test_povm(trans)
    for th in grid:
        st = evolve_phase(afm, gen_afm, float(th))
        rv = float(np.real(np.vdot(st.amplitudes, refl.apply_vec(st.amplitudes))))
        records.append(ExperimentRecord(
            scenario=cfg.scenario, probe="critical_afm", model_kind="tfim", L=L,
            theta=float(th), observable="reflection", value=rv,
            variance=max(1 - rv * rv, 0.0),
            delta_theta=error_propagation(afm, gen_afm, refl, float(th)),
            seed=cfg.seed, config_hash=cfg.config_hash,
        ))
        ht = hadamard_test(st, trans)
        cfi = classical_fisher(povm, lambda t: evolve_phase(afm, gen_afm, t), float(th))
        records.append(ExperimentRecord(
            scenario=cfg.scenario, probe="critical_afm", model_kind="tfim", L=L,
            theta=float(th), observable="translation_re", value=sign * ht.re_value,
            delta_theta=cfi ** -0.5 if cfi > 0 else math.inf,
            seed=cfg.seed, config_hash=cfg.config_hash,
        ))
    return records


def par_as_pauli(L: int) -> PauliOperator:
    return PauliOperator(L, [(1.0, "X" * L)])


def _run_channel_sweep(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    chan = cfg.channel
    records = []
    for probe in cfg.probes:
        for L in cfg.L_list:
            state, gen = _probe_state(probe, L)
            rho = apply_channel(MixedState.from_pure(state), chan)
            report = qfi_mixed(rho, gen)
            rec = ExperimentRecord(
                scenario=cfg.scenario, probe=probe, L=L,
                channel_kind=chan.kind, p=chan.p, chi=chan.chi,
                observable="qfi_mixed", value=report.value, qfi=report.value,
                seed=cfg.seed, config_hash=cfg.config_hash,
            )
            records.append(rec)
            if chan.kind == "bitflip_x":
                second = float(np.real(expectation(state, gen)) ** 2)
                second = qfi_pure(state, gen) / 4.0 + second  # <O^2>
                formula = bitflip_qfi_formula(L, chan.p, second)
                records.append(ExperimentRecord(
                    scenario=cfg.scenario, probe=probe, L=L,
                    channel_kind=chan.kind, p=chan.p,
                    observable="qfi_bitflip_formula", value=formula, qfi=formula,
                    seed=cfg.seed, config_hash=cfg.config_hash,
                ))
    return records


def _run_deformed(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    L = cfg.L
    sol = solve_model(ModelSpec(kind="cluster_ladder", L=L))
    ops = [PauliOperator.single(2 * L, ladder_site(j, 1, L), "X") for j in range(1, L + 1)]
    ens = enumerate_outcomes(sol.state, ops)
    pseed = point_seed(cfg.seed, 0)
    samples = sample_outcomes(sol.state, ops, seed=pseed, n_samples=cfg.n_samples)
    records = []
    exact = decoded_correlator(ens, L, 1, L)
    mean, stderr = decoded_correlator(ens, L, 1, L, samples=samples)
    records.append(ExperimentRecord(
        scenario=cfg.scenario, model_kind="cluster_ladder", L=L,
        observable="decoded_corr_exact", value=exact, point_seed=pseed,
        seed=cfg.seed, config_hash=cfg.config_hash,
    ))
    records.append(ExperimentRecord(
        scenario=cfg.scenario, model_kind="cluster_ladder", L=L,
        observable="decoded_corr_sampled", value=mean, variance=stderr**2,
        point_seed=pseed, seed=cfg.seed, config_hash=cfg.config_hash,
    ))
    records.append(ExperimentRecord(
        scenario=cfg.scenario, model_kind="cluster_ladder", L=L,
        observable="averaged_qfi", value=averaged_qfi(ens, L),
        qfi=averaged_qfi_decoded(ens, L),
        seed=cfg.seed, config_hash=cfg.config_hash,
    ))
    lro = uniform_outcome_lro_check(sol.state, L, list(cfg.beta_list))
    for b, v in zip(lro.beta_grid, lro.long_range_value):
        records.append(ExperimentRecord(
            scenario=cfg.scenario, model_kind="cluster_ladder", L=L, beta=b,
            observable="uniform_lro", value=v,
            seed=cfg.seed, config_hash=cfg.config_hash,
        ))
    return records


def _run_subsystem(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    spec = cfg.model if cfg.model is not None else ModelSpec(kind="tfim", L=cfg.L)
    if spec.kind != "tfim":
        raise ConfigError("model: the subsystem scenario runs on the tfim kind")
    L = spec.L
    sol = solve_model(spec)
    grid = default_theta_grid(cfg.theta_points, cfg.theta_lo, cfg.theta_hi)
    records = []
    for L_sub in cfg.L_sub_list:
        proto = make_ising_protocol(L, L_sub)
        curve = parity_theta_curve(sol.state, proto, grid)
        for th, sig, var, dth in zip(curve.theta, curve.signal, curve.variance, curve.delta_theta):
            records.append(ExperimentRecord(
                scenario=cfg.scenario, probe="critical_fm", model_kind="tfim",
                L=L, L_sub=L_sub, theta=float(th), observable="subsystem_parity",
                value=float(sig), variance=float(var), delta_theta=float(dth),
                seed=cfg.seed, config_hash=cfg.config_hash,
            ))
        rep = window_report(curve, L_sub)
        for name, val in (
            ("window_theta_l", rep.theta_l), ("window_theta_min", rep.theta_min),
            ("window_theta_r", rep.theta_r), ("window_delta_min", rep.delta_theta_min),
            ("window_sql", rep.sql_reference),
        ):
            if val is not None:
                records.append(ExperimentRecord(
                    scenario=cfg.scenario, probe="critical_fm", model_kind="tfim",
                    L=L, L_sub=L_sub, observable=name, value=float(val),
                    seed=cfg.seed, config_hash=cfg.config_hash,
                ))
    return records


def _run_hadamard(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    records = []
    values = []
    for L in cfg.L_list:
        state, gen = _probe_state("critical_afm", L)
        trans = build_symmetry("translation", L)
        povm = hadamard_test_povm(trans)
        cfi = classical_fisher(povm, lambda th: evolve_phase(state, gen, th), cfg.theta0)
        values.append(cfi)
        records.append(ExperimentRecord(
            scenario=cfg.scenario, probe="critical_afm", model_kind="tfim", L=L,
            theta=cfg.theta0, observable="translation_cfi", value=cfi,
            seed=cfg.seed, config_hash=cfg.config_hash,
        ))
    if len(cfg.L_list) >= 3:
        fit = fit_power_law(np.array(cfg.L_list, float), np.array(values))
        records.append(ExperimentRecord(
            scenario=cfg.scenario, probe="critical_afm", observable="cfi_vs_L_fit",
            value=fit.exponent, fit_exponent=fit.exponent, fit_r2=fit.r_squared,
            seed=cfg.seed, config_hash=cfg.config_hash,
        ))
    return records


_SCENARIO_RUNNERS = {
    "qfi_scaling": _run_qfi_scaling,
    "theta_curves": _run_theta_curves,
    "channel_sweep": _run_channel_sweep,
    "deformed": _run_deformed,
    "subsystem": _run_subsystem,
    "hadamard": _run_hadamard,
}


def run(cfg: ExperimentConfig, threads: int = 1) -> list[ExperimentRecord]:
    """Execute one scenario; rows come back in canonical deterministic order.

    Sweep points run concurrently when ``threads`` exceeds one; ordering never
    depends on scheduling because rows are sorted before returning.
    """
    runner = _SCENARIO_RUNNERS[cfg.scenario]
    if threads > 1 and cfg.scenario in ("qfi_scaling", "channel_sweep", "hadamard"):
        # split by probe x size through configs with singleton lists
        tasks = []
        for probe in cfg.probes:
            for L in cfg.L_list:
                sub = ExperimentConfig(**{
                    **{f.name: getattr(cfg, f.name) for f in fields(ExperimentConfig)},
                    "probes": (probe,), "L_list": (L,),
                })
                tasks.append(sub)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda c: _SCENARIO_RUNNERS[c.scenario](c), tasks))
        records = [r for chunk in chunks for r in chunk]
        # per-chunk fits are meaningless; recompute whole-sweep fit rows
        records = [r for r in records if not r.observable.endswith("_fit")]
        records += _fit_rows(cfg, records)
    else:
        records = runner(cfg)
    for rec in records:
        rec.config_hash = cfg.config_hash
        rec.seed = cfg.seed
    return sorted(records, key=_sort_key)


def _fit_rows(cfg: ExperimentConfig, records: list[ExperimentRecord]) -> list[ExperimentRecord]:
    rows = []
    if len(cfg.L_list) < 3:
        return rows
    y_name = {"qfi_scaling": "qfi_pure", "hadamard": "translation_cfi"}.get(cfg.scenario)
    if y_name is None:
        return rows
    for probe in cfg.probes:
        pts = sorted(
            (r.L, r.value) for r in records if r.probe == probe and r.observable == y_name
        )
        if len(pts) < 3:
            continue
        fit = fit_power_law(np.array([p[0] for p in pts], float), np.array([p[1] for p in pts]))
        rows.append(ExperimentRecord(
            scenario=cfg.scenario, probe=probe,
            observable=("qfi_vs_L_fit" if cfg.scenario == "qfi_scaling" else "cfi_vs_L_fit"),
            value=fit.exponent, fit_exponent=fit.exponent, fit_r2=fit.r_squared,
            seed=cfg.seed, config_hash=cfg.config_hash,
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
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    threads = args.threads
    env_threads = os.environ.get("CRITSENSE_THREADS")
    if env_threads is not None:
        try:
            threads = int(env_threads)
        except ValueError:
            print("config error: CRITSENSE_THREADS must be an integer", file=sys.stderr)
            return 2
    if threads is None:
        threads = 1

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
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
