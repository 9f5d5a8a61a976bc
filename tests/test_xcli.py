import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import critsense

from critsense.xcli import (
    COLUMNS,
    ConfigError,
    ExperimentConfig,
    emit_csv,
    emit_plotdata,
    fit,
    main,
    point_seed,
    run,
    splitmix64,
)


def make_cfg(**over):
    payload = {"scenario": "qfi_scaling", "probes": ["ghz", "spin_coherent"],
               "L_list": [4, 6, 8], "seed": 5}
    payload.update(over)
    return ExperimentConfig.from_dict(payload)


def test_config_unknown_field():
    with pytest.raises(ConfigError, match="unknown config field"):
        ExperimentConfig.from_dict({"scenario": "qfi_scaling", "bogus": 1})


def test_config_missing_scenario():
    with pytest.raises(ConfigError, match="scenario"):
        ExperimentConfig.from_dict({})


def test_config_validation_names_fields():
    with pytest.raises(ConfigError, match="L_list"):
        make_cfg(L_list=[1, 4])
    with pytest.raises(ConfigError, match="probes"):
        make_cfg(probes=["nope"])
    with pytest.raises(ConfigError, match="theta_points"):
        make_cfg(theta_points=1)
    with pytest.raises(ConfigError, match="channel"):
        ExperimentConfig.from_dict({"scenario": "channel_sweep"})
    with pytest.raises(ConfigError, match="model"):
        ExperimentConfig.from_dict({"scenario": "qfi_scaling", "model": {"kind": "bad", "L": 4}})
    with pytest.raises(ConfigError, match="ladder rungs"):
        ExperimentConfig.from_dict({"scenario": "deformed", "L": 10})


def test_config_hash_computed_once(monkeypatch):
    cfg = make_cfg()
    first = cfg.config_hash
    assert first == hashlib.sha256(cfg.to_canonical_json().encode()).hexdigest()[:16]

    def reserialize(self):
        raise AssertionError("config re-serialized for its hash")

    monkeypatch.setattr(ExperimentConfig, "to_canonical_json", reserialize)
    assert cfg.config_hash == first


def test_config_hash_stable_and_sensitive():
    a = make_cfg()
    b = make_cfg()
    c = make_cfg(seed=6)
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash


def test_splitmix_point_seeds_distinct():
    seeds = {point_seed(5, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert splitmix64(0) != 0


def test_run_qfi_scaling_ordering():
    records = run(make_cfg(probes=["ghz", "critical_fm", "spin_coherent"], L_list=[4, 6, 8, 10]))
    fits = {r.probe: r.value for r in records if r.observable == "qfi_vs_L_fit"}
    assert fits["ghz"] > fits["critical_fm"] > fits["spin_coherent"]
    assert fits["ghz"] == pytest.approx(2.0, abs=1e-9)
    assert fits["spin_coherent"] == pytest.approx(1.0, abs=1e-9)


_THREAD_CASES = [
    # (config, fit rows)
    ({"scenario": "qfi_scaling", "probes": ["ghz", "critical_fm", "spin_coherent"],
      "L_list": [4, 6, 8]}, 3),
    ({"scenario": "qfi_scaling", "probes": ["ghz", "critical_fm", "spin_coherent"],
      "L_list": [8, 4, 6]}, 3),
    ({"scenario": "hadamard", "L_list": [4, 6, 8]}, 1),
    ({"scenario": "hadamard", "L_list": [8, 4, 6]}, 1),
    ({"scenario": "channel_sweep", "probes": ["ghz", "critical_fm"], "L_list": [4, 6, 8],
      "channel": {"kind": "bitflip_x", "p": 0.1}}, 0),
    ({"scenario": "channel_sweep", "probes": ["ghz", "critical_fm"], "L_list": [8, 4, 6],
      "channel": {"kind": "bitflip_x", "p": 0.1}}, 0),
    ({"scenario": "theta_curves", "L": 6, "theta_lo": 0.05, "theta_hi": 0.4,
      "theta_points": 5, "theta_spacing": "linear"}, 0),
    ({"scenario": "subsystem", "L": 8, "L_sub_list": [4, 6], "theta_points": 200}, 0),
    ({"scenario": "deformed", "L": 4, "n_samples": 200, "beta_list": [0.0, 0.5]}, 0),
]


def test_run_threaded_matches_serial():
    # every scenario runs its point tasks through one pool; the pool size
    # changes neither the rows nor their order, and no row comes out twice.
    # A short switch interval interleaves the workers inside the lazy
    # operator caches they share.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for payload, n_fits in _THREAD_CASES:
            cfg = ExperimentConfig.from_dict({"seed": 5, **payload})
            serial = run(cfg, threads=1)
            rows = [r.row() for r in serial]
            assert len({tuple(row) for row in rows}) == len(rows), payload
            assert sum(r.observable.endswith("_fit") for r in serial) == n_fits, payload
            for threads in (2, 3):
                threaded = run(cfg, threads=threads)
                assert [r.row() for r in threaded] == rows, (payload, threads)
    finally:
        sys.setswitchinterval(interval)


def test_channel_sweep_formula_column():
    cfg = ExperimentConfig.from_dict({
        "scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4, 6],
        "channel": {"kind": "bitflip_x", "p": 0.3},
    })
    records = run(cfg)
    mixed = {r.L: r.value for r in records if r.observable == "qfi_mixed"}
    formula = {r.L: r.value for r in records if r.observable == "qfi_bitflip_formula"}
    for L in (4, 6):
        assert abs(mixed[L] - formula[L]) < 1e-8 * formula[L]

    # the formula is the QFI after a flip on every site; a flip on part of the
    # chain gives another qfi_mixed, which it does not describe
    def rows(mask):
        cfg = ExperimentConfig.from_dict({
            "scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4, 6],
            "channel": {"kind": "bitflip_x", "p": 0.1, "site_mask": mask},
        })
        return {(r.L, r.observable): r.value for r in run(cfg)}

    uniform = rows(None)
    one_site = rows([0])
    assert set(one_site) == {(4, "qfi_mixed"), (6, "qfi_mixed")}
    assert abs(one_site[4, "qfi_mixed"] - 59.2) < 1e-9
    whole_of_4 = rows([0, 1, 2, 3])
    assert set(whole_of_4) == {(4, "qfi_mixed"), (4, "qfi_bitflip_formula"), (6, "qfi_mixed")}
    assert whole_of_4[4, "qfi_bitflip_formula"] == uniform[4, "qfi_bitflip_formula"]
    assert abs(whole_of_4[4, "qfi_mixed"] - uniform[4, "qfi_bitflip_formula"]) < 1e-9


def test_fit_helper():
    records = run(make_cfg(probes=["ghz"], L_list=[4, 6, 8, 10]))
    f = fit(records, "qfi_pure", probe="ghz")
    assert f.exponent == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(ValueError):
        fit(records, "missing")


def test_emit_csv_deterministic(tmp_path):
    records = run(make_cfg())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, str(p1))
    emit_csv(run(make_cfg()), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(COLUMNS)
    assert header.split(",")[0] == "schema_version"


def test_emit_plotdata(tmp_path):
    records = run(make_cfg())
    path = tmp_path / "plot.csv"
    emit_plotdata(records, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "figure,series,x,y"
    assert len(lines) > 1
    assert (tmp_path / "plot.gp").exists()


def test_records_embed_seed_and_hash():
    cfg = make_cfg()
    for rec in run(cfg):
        assert rec.seed == 5
        assert rec.config_hash == cfg.config_hash
        assert rec.schema_version == 1


def test_main_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "scenario": "qfi_scaling", "probes": ["ghz"], "L_list": [4, 6, 8], "seed": 9,
    }))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["qfi_scaling", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["qfi_scaling", "--config", str(cfg_path), "--out", str(out2)]) == 0
    a = (out1 / "qfi_scaling.csv").read_bytes()
    b = (out2 / "qfi_scaling.csv").read_bytes()
    assert a == b


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "qfi_scaling", "L_list": [1]}))
    assert main(["qfi_scaling", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "L_list" in capsys.readouterr().err
    mismatch = tmp_path / "mm.json"
    mismatch.write_text(json.dumps({"scenario": "hadamard"}))
    assert main(["qfi_scaling", "--config", str(mismatch), "--out", str(tmp_path / "x")]) == 2
    missing = tmp_path / "nope.json"
    assert main(["qfi_scaling", "--config", str(missing), "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    not_object = tmp_path / "list.json"
    not_object.write_text("[1]")
    assert main(["qfi_scaling", "--config", str(not_object), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: config:")


def test_main_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    import dataclasses

    import critsense.xcli as xc
    import numpy as np

    def boom(cfg):
        raise np.linalg.LinAlgError("eigensolver did not converge")

    entry = dataclasses.replace(xc._SCENARIOS["qfi_scaling"], tasks=boom)
    monkeypatch.setitem(xc._SCENARIOS, "qfi_scaling", entry)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "qfi_scaling", "probes": ["ghz"], "L_list": [4, 6, 8]}))
    assert main(["qfi_scaling", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_staggered_probe_needs_even_sizes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "hadamard", "L_list": [5, 7, 9]}))
    assert main(["hadamard", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(ConfigError, match="even sizes"):
        ExperimentConfig.from_dict(
            {"scenario": "qfi_scaling", "probes": ["critical_afm"], "L_list": [4, 5]}
        )


@pytest.mark.parametrize("sizes", [[16, 33, 64], [16, 64, 1 << 20]])
def test_fermion_path_sizes_rejected_before_work(tmp_path, capsys, sizes):
    # odd L has no periodic free-fermion solution; 2^20 sites is over the byte cap
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "qfi_scaling", "probes": ["critical_fm"],
                                    "L_list": sizes}))
    out = tmp_path / "o"
    assert main(["qfi_scaling", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "L_list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, field", [
    # exact diagonalization above the sparse cap
    ({"scenario": "qfi_scaling", "probes": ["critical_afm"], "L_list": [22, 24, 48]}, "L_list"),
    ({"scenario": "qfi_scaling", "probes": ["critical_fm"], "L_list": [16, 22, 64],
      "use_fermion_above": 30}, "L_list"),
    # a density matrix above the dense cap
    ({"scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4, 15],
      "channel": {"kind": "bitflip_x", "p": 0.1}}, "L_list"),
    # single-chain scenarios: the chain size, its parity and its blocks
    ({"scenario": "theta_curves", "L": 21}, "L"),
    ({"scenario": "theta_curves", "L": 22}, "L"),
    ({"scenario": "theta_curves", "L": 9, "theta_points": 8}, "L"),
    ({"scenario": "subsystem", "L": 21, "L_sub_list": [4]}, "L"),
    ({"scenario": "subsystem", "model": {"kind": "tfim", "L": 22}, "L_sub_list": [4]}, "model"),
    ({"scenario": "subsystem", "L": 10, "L_sub_list": [4, 12]}, "L_sub_list"),
    ({"scenario": "subsystem", "model": {"kind": "tfim", "L": 8}, "L_sub_list": [4, 10]},
     "L_sub_list"),
    ({"scenario": "subsystem", "model": {"kind": "xxz", "L": 8}, "L_sub_list": [4]}, "model"),
], ids=["afm_over_sparse_cap", "critical_below_fermion_switch", "channel_over_dense_cap",
        "theta_curves_over_sparse_cap", "theta_curves_even_over_sparse_cap",
        "theta_curves_odd", "subsystem_over_sparse_cap", "subsystem_model_over_sparse_cap",
        "subsystem_block_too_long", "subsystem_block_longer_than_model",
        "subsystem_model_kind"])
def test_exact_path_sizes_rejected_before_work(tmp_path, capsys, payload, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert main([payload["scenario"], "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match=f"^{field}:"):
        ExperimentConfig.from_dict(payload)


def test_fermion_path_sizes_skip_the_exact_path_cap():
    # sizes above use_fermion_above never reach exact diagonalization
    cfg = ExperimentConfig.from_dict(
        {"scenario": "qfi_scaling", "probes": ["critical_fm"], "L_list": [8, 64, 768]}
    )
    assert cfg.L_list == (8, 64, 768)


# -- the scenario table: each scenario accepts exactly the fields it reads ---

_READS = {
    "qfi_scaling": {"seed", "probes", "L_list", "use_fermion_above"},
    "theta_curves": {"seed", "L", "theta_lo", "theta_hi", "theta_points", "theta_spacing"},
    "channel_sweep": {"seed", "probes", "L_list", "channel"},
    "deformed": {"seed", "L", "beta_list", "n_samples"},
    "subsystem": {"seed", "L", "model", "L_sub_list",
                  "theta_lo", "theta_hi", "theta_points", "theta_spacing"},
    "hadamard": {"seed", "L_list", "theta0"},
}


def test_scenario_table_lists_the_fields_each_scenario_reads():
    import dataclasses

    import critsense.xcli as xc

    assert {name: set(entry.reads) for name, entry in xc._SCENARIOS.items()} == _READS
    assert sum(len(reads) for reads in _READS.values()) == 29
    settable = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"scenario"}
    assert set(xc._FIELD_SHAPES) == settable == set().union(*_READS.values())


def test_config_object_keys_are_fields_of_their_spec():
    import dataclasses

    import critsense.xcli as xc
    from critsense import ChannelSpec, ModelSpec

    for shape, spec in ((xc._MODEL_SHAPE, ModelSpec), (xc._CHANNEL_SHAPE, ChannelSpec)):
        assert set(shape) <= {f.name for f in dataclasses.fields(spec)}


_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


@pytest.mark.parametrize("name, config_hash", [
    ("ed_ground", "c0c5624597a0c0e3"), ("fermion_chain", "e40435be26325baa"),
    ("mixed_noise", "225b082723b46516"), ("theta_sweep", "52e56ca1851ed77e"),
])
def test_benchmark_workload_config_hashes(name, config_hash):
    # the hash every row of a workload carries; no golden pins a qfi_scaling one
    payload = json.loads((_WORKLOADS / f"{name}.json").read_text())
    assert ExperimentConfig.from_dict(payload).config_hash == config_hash


_BITFLIP = {"kind": "bitflip_x", "p": 0.1}
# ModelSpec fields of the xxz and rydberg kinds, which no scenario runs
_UNREAD_MODEL_KEYS = [("delta", 0.0), ("omega", 1.0), ("detuning", 0.0), ("v1", 50.0),
                      ("v2", 0.0)]


@pytest.mark.parametrize("payload, field", [
    # a field the scenario does not read
    ({"scenario": "hadamard", "probes": ["ghz"], "L_list": [4, 6, 8]}, "probes"),
    ({"scenario": "hadamard", "probes": ["ghz", "spin_coherent"], "L_list": [4, 6, 8]},
     "probes"),
    ({"scenario": "subsystem", "probes": ["critical_afm"], "L": 8, "L_sub_list": [4]},
     "probes"),
    ({"scenario": "subsystem", "L_list": [5], "L": 8, "L_sub_list": [4]}, "L_list"),
    ({"scenario": "subsystem", "L": 8, "model": {"kind": "tfim", "L": 10},
      "L_sub_list": [4]}, "L"),
    # one name per thing
    ({"scenario": "qfi_scaling", "probe": "ghz", "L_list": [4, 6, 8]}, "probe"),
    ({"scenario": "qfi_scaling", "probes": ["critical"], "L_list": [4, 6, 8]}, "probes"),
    # the wrong JSON type
    ({"scenario": "qfi_scaling", "probes": "ghz", "L_list": [4, 6, 8]}, "probes"),
    ({"scenario": "theta_curves", "L": "ten"}, "L"),
    ({"scenario": "qfi_scaling", "probes": ["ghz"], "L_list": 5}, "L_list"),
    ({"scenario": "qfi_scaling", "probes": ["ghz"], "L_list": [4.0, 6, 8]}, "L_list"),
    ({"scenario": "theta_curves", "L": 6, "theta_points": 2.5}, "theta_points"),
    ({"scenario": "qfi_scaling", "probes": ["ghz"], "L_list": [4, 6, 8], "seed": True}, "seed"),
    ({"scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4], "channel": [1]},
     "channel"),
    # a spec key that is not a field, or that no run reads
    ({"scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4],
      "channel": {**_BITFLIP, "probability": 0.1}}, "channel"),
    ({"scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4],
      "channel": {**_BITFLIP, "after_imprint": True}}, "channel"),
    ({"scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4],
      "channel": {**_BITFLIP, "after_imprint": False}}, "channel"),
    ({"scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4],
      "channel": {**_BITFLIP, "t": 1.0}}, "channel"),
    *[({"scenario": "subsystem", "model": {"kind": "tfim", "L": 8, key: value},
        "L_sub_list": [4]}, "model") for key, value in _UNREAD_MODEL_KEYS],
    ({"scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4, 6],
      "channel": {**_BITFLIP, "site_mask": [0, 5]}}, "channel"),
    ({"scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4],
      "channel": {**_BITFLIP, "site_mask": [0, 0]}}, "channel"),
    # out of range: refused up front, not as a numeric failure at run time
    ({"scenario": "deformed", "L": 4, "beta_list": [-1.0]}, "beta_list"),
    ({"scenario": "deformed", "L": 4, "beta_list": [0.5, math.inf]}, "beta_list"),
    # a repeated entry would run, and weigh in the fits, twice
    ({"scenario": "qfi_scaling", "probes": ["ghz", "ghz"], "L_list": [4, 6]}, "probes"),
    ({"scenario": "qfi_scaling", "probes": ["ghz"], "L_list": [4, 4, 6]}, "L_list"),
    ({"scenario": "subsystem", "L": 8, "L_sub_list": [4, 6, 4], "theta_points": 200},
     "L_sub_list"),
    ({"scenario": "deformed", "L": 4, "beta_list": [0.5, 0.5]}, "beta_list"),
    ({"scenario": "deformed", "L": 4, "beta_list": [1, 1.0]}, "beta_list"),
], ids=["hadamard_probes", "hadamard_two_probes", "subsystem_probes", "subsystem_L_list",
        "subsystem_L_and_model", "probe_alias", "critical_alias", "probes_string",
        "L_string", "L_list_int", "L_list_float_entry", "theta_points_float", "seed_bool",
        "channel_list", "channel_unknown_key", "channel_after_imprint",
        "channel_after_imprint_false", "channel_t",
        *[f"model_{key}" for key, _ in _UNREAD_MODEL_KEYS],
        "channel_site_outside", "channel_site_repeated", "beta_negative", "beta_infinite",
        "probes_repeated", "L_list_repeated", "L_sub_list_repeated", "beta_list_repeated",
        "beta_list_int_float"])
def test_configs_refused_naming_the_field(tmp_path, capsys, payload, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert main([payload["scenario"], "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")
    assert not out.exists()
    with pytest.raises(ConfigError, match=f"^{field}:"):
        ExperimentConfig.from_dict(payload)


def test_subsystem_honours_linear_theta_spacing():
    cfg = ExperimentConfig.from_dict({
        "scenario": "subsystem", "L": 8, "L_sub_list": [4], "theta_points": 200,
        "theta_lo": 0.02, "theta_hi": 0.9, "theta_spacing": "linear",
    })
    theta = [r.theta for r in run(cfg) if r.observable == "subsystem_parity"]
    assert theta == np.linspace(0.02, 0.9, 200).tolist()


# A small valid payload of every scenario, a valid value of every field, and
# per field the values of the wrong JSON type and the values out of range.
_BASE = {
    "qfi_scaling": {"probes": ["ghz"], "L_list": [4, 6, 8]},
    "theta_curves": {"L": 6, "theta_points": 5},
    "channel_sweep": {"probes": ["ghz"], "L_list": [4], "channel": _BITFLIP},
    "deformed": {"L": 4, "n_samples": 10},
    "subsystem": {"L": 8, "L_sub_list": [4], "theta_points": 200},
    "hadamard": {"L_list": [4, 6, 8]},
}
_VALID = {
    "seed": 5, "probes": ["ghz"], "L_list": [4, 6, 8], "L": 6, "L_sub_list": [4],
    "model": {"kind": "tfim", "L": 8}, "channel": _BITFLIP, "theta_lo": 0.01,
    "theta_hi": 0.5, "theta_points": 200, "theta_spacing": "linear", "theta0": 0.01,
    "beta_list": [0.0, 0.5], "n_samples": 100, "use_fermion_above": 14,
    "probe": "ghz", "critical": True, "bogus": 1,
}
_NUMBER_WRONG = ["0.1", True, None, [0.1], math.nan, math.inf, -math.inf]
_WRONG_TYPE = {
    "seed": ["5", 5.0, True, None, [5]],
    "probes": ["ghz", 5, [], [1], None],
    "L_list": [5, "4", [], [4.0, 6, 8], [True, 4], None],
    "L": ["ten", 6.0, True, None, [6]],
    "L_sub_list": [4, [4.0], [], ["4"], None],
    "model": [[1], "tfim", 3, {"kind": "tfim", "L": 8.0}, {"kind": "tfim", "L": 8, "J": "1"},
              {"kind": "tfim", "L": 8, "bogus": 1}],
    "channel": [[1], "bitflip_x", 3, {"kind": 1, "p": 0.1}, {**_BITFLIP, "p": "0.1"},
                {**_BITFLIP, "bogus": 1}, {**_BITFLIP, "after_imprint": 1},
                {**_BITFLIP, "site_mask": [0.5]}],
    "theta_lo": _NUMBER_WRONG, "theta_hi": _NUMBER_WRONG, "theta0": _NUMBER_WRONG,
    "theta_points": [2.5, "5", True, None],
    "theta_spacing": [1, None, ["log"]],
    "beta_list": [0.5, ["0.5"], [True], [], [math.nan], [math.inf], None],
    "n_samples": [10.0, "10", True, None],
    "use_fermion_above": [14.5, "14", True, None],
}
_OUT_OF_RANGE = {
    "seed": [-1, 2**64],
    "probes": [["nope"], ["critical"], ["ghz", "critical_fm", "Ghz"]],
    "L_list": [[1], [0, 4], [4, 1 << 20]],
    "L": [1, 0, -3, 99],
    "L_sub_list": [[1], [4, 99]],
    "model": [{"kind": "xxz", "L": 8}, {"kind": "tfim", "L": 99},
              {"kind": "tfim", "L": 8, "h": 0.0}, {"kind": "tfim", "L": 8, "boundary": "twisted"}],
    "channel": [None, {**_BITFLIP, "p": 1.5}, {"kind": "nope", "p": 0.1},
                {"kind": "global_dephase"}, {"p": 0.1}, {**_BITFLIP, "after_imprint": True},
                {**_BITFLIP, "site_mask": [7]}],
    "theta_lo": [0.0, -1.0],
    "theta_hi": [1e-4, 0.0, -1.0],
    "theta_points": [1, 0, -5],
    "theta_spacing": ["cubic", "LOG"],
    "beta_list": [[-1.0], [0.5, -0.25]],
    "n_samples": [0, -1],
}
_REPEATED = {
    "probes": [["ghz", "ghz"], ["ghz", "spin_coherent", "ghz"]],
    "L_list": [[4, 4], [4, 6, 4]],
    "L_sub_list": [[4, 4], [2, 4, 2]],
    "beta_list": [[0.5, 0.5], [0, 0.5, 0.0]],
    "channel": [{**_BITFLIP, "site_mask": [0, 0]}, {**_BITFLIP, "site_mask": [2, 0, 3, 2]}],
}


@st.composite
def _bad_payloads(draw):
    """(field, payload): a small valid payload with one field unread, mistyped, out of
    range or repeating an entry."""
    scenario = draw(st.sampled_from(sorted(_BASE)))
    payload = {"scenario": scenario, **_BASE[scenario]}
    hows = ["unread", "type", "range"] + (["repeat"] if _READS[scenario] & set(_REPEATED) else [])
    how = draw(st.sampled_from(hows))
    if how == "unread":
        field = draw(st.sampled_from(sorted(set(_VALID) - _READS[scenario])))
        value = _VALID[field]
    elif how == "repeat":
        field = draw(st.sampled_from(sorted(_READS[scenario] & set(_REPEATED))))
        value = draw(st.sampled_from(_REPEATED[field]))
    else:
        table = _WRONG_TYPE if how == "type" else _OUT_OF_RANGE
        field = draw(st.sampled_from(sorted(_READS[scenario] & set(table))))
        value = draw(st.sampled_from(table[field]))
    if field == "model":
        payload.pop("L", None)  # a model sets the chain size itself
    payload[field] = value
    return field, payload


@given(_bad_payloads())
def test_config_fuzz_refused_before_work(case):
    field, payload = case
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value).startswith(f"{field}:"), str(info.value)
    # refused before any work: less than one 2^13-entry float64 register array
    assert peak < 1 << 16, (peak, payload)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "cfg.json", Path(tmp) / "o"
        cfg_path.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([payload["scenario"], "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert err.getvalue().startswith(f"config error: {field}:"), err.getvalue()
        assert not out.exists()


def test_main_env_thread_override(tmp_path, monkeypatch, capsys):
    import critsense.xcli as xc

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "qfi_scaling", "probes": ["ghz"], "L_list": [4, 6, 8]}))
    seen = []
    real_run = xc.run

    def spy(cfg, threads=1):
        seen.append(threads)
        return real_run(cfg, threads=threads)

    monkeypatch.setattr(xc, "run", spy)
    argv = ["qfi_scaling", "--config", str(cfg_path), "--out", str(tmp_path / "t")]
    monkeypatch.delenv("CRITSENSE_THREADS", raising=False)
    assert main(argv) == 0
    monkeypatch.setenv("CRITSENSE_THREADS", "2")
    assert main(argv) == 0
    # the flag wins over the environment, an invalid one included
    assert main(argv + ["--threads", "1"]) == 0
    monkeypatch.setenv("CRITSENSE_THREADS", "no")
    assert main(argv + ["--threads", "1"]) == 0
    assert seen == [1, 2, 1, 1]
    capsys.readouterr()
    assert main(argv) == 2
    assert "CRITSENSE_THREADS" in capsys.readouterr().err
    # fewer than one thread is refused, naming where the count came from
    for value in ("0", "-2"):
        monkeypatch.setenv("CRITSENSE_THREADS", value)
        assert main(argv) == 2
        assert "CRITSENSE_THREADS must be >= 1" in capsys.readouterr().err
        monkeypatch.setenv("CRITSENSE_THREADS", "2")
        assert main(argv + ["--threads", value]) == 2
        assert "--threads must be >= 1" in capsys.readouterr().err
    assert seen == [1, 2, 1, 1]


def test_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "qfi_scaling", "probes": ["ghz"], "L_list": [4, 6, 8], "seed": 1}))
    out = tmp_path / "o"
    assert main(["qfi_scaling", "--config", str(cfg_path), "--out", str(out), "--seed", "42"]) == 0
    text = (out / "qfi_scaling.csv").read_text()
    assert ",42," in text


def test_float_format_17_sig_digits(tmp_path):
    records = run(make_cfg(probes=["critical_fm"], L_list=[4, 6, 8]))
    path = tmp_path / "f.csv"
    emit_csv(records, str(path))
    row = path.read_text().splitlines()[1].split(",")
    value = row[COLUMNS.index("value")]
    assert float(value) == float(f"{float(value):.17g}")
    assert "." in value


def test_theta_curves_scenario_runs():
    cfg = ExperimentConfig.from_dict({
        "scenario": "theta_curves", "L": 6,
        "theta_lo": 0.05, "theta_hi": 0.4, "theta_points": 5,
        "theta_spacing": "linear",
    })
    records = run(cfg)
    names = {r.observable for r in records}
    assert {"parity_x", "reflection", "translation_re"} <= names
    for r in records:
        if r.observable == "translation_re" and r.theta == 0.05:
            assert r.value <= 1.0


@pytest.mark.parametrize("L, lanczos", [(10, False), (16, True)], ids=["dense", "lanczos"])
def test_critical_afm_probe_is_translation_even(monkeypatch, L, lanczos):
    # theta_curves reports Re<T> of the critical_afm probe with no sign: the
    # probe is solved in the T = +1 block, at a dense and a Lanczos size
    import critsense.models as models

    calls = []
    original = models._lowest_levels

    def counted(mat):
        calls.append(mat.shape)
        return original(mat)

    monkeypatch.setattr(models, "_lowest_levels", counted)
    sol = models.solve_model(models.ModelSpec(kind="tfim", L=L, J=-1.0, h=1.0))
    assert bool(calls) == lanczos
    assert abs(sol.sector_labels["translation_re"] - 1.0) < 1e-10


def test_subsystem_scenario_runs():
    cfg = ExperimentConfig.from_dict({
        "scenario": "subsystem", "L": 8, "L_sub_list": [4],
        "theta_points": 200,
    })
    records = run(cfg)
    names = {r.observable for r in records}
    assert "subsystem_parity" in names
    assert "window_theta_min" in names


def test_deformed_scenario_runs():
    cfg = ExperimentConfig.from_dict({
        "scenario": "deformed", "L": 4, "n_samples": 500,
        "beta_list": [0.0, 0.5, 1.0],
    })
    records = run(cfg)
    by_name = {}
    for r in records:
        by_name.setdefault(r.observable, []).append(r)
    assert abs(by_name["averaged_qfi"][0].value - by_name["averaged_qfi"][0].qfi) < 1e-9
    lro = sorted((r.beta, r.value) for r in by_name["uniform_lro"])
    assert all(b >= a - 1e-10 for (_, a), (_, b) in zip(lro, lro[1:]))


@pytest.mark.slow
def test_qfi_scaling_full_probe_comparison():
    # the four-way resource comparison over even sizes up to 14
    cfg = ExperimentConfig.from_dict({
        "scenario": "qfi_scaling",
        "probes": ["ghz", "critical_fm", "critical_afm", "spin_coherent"],
        "L_list": [4, 6, 8, 10, 12, 14],
    })
    records = run(cfg)
    fits = {r.probe: r.value for r in records if r.observable == "qfi_vs_L_fit"}
    assert fits["ghz"] > fits["critical_fm"] > fits["spin_coherent"]
    assert fits["ghz"] > fits["critical_afm"] > fits["spin_coherent"]


def test_hadamard_scenario_runs():
    cfg = ExperimentConfig.from_dict({
        "scenario": "hadamard", "L_list": [4, 6, 8], "theta0": 1e-3,
    })
    records = run(cfg)
    fit_rows = [r for r in records if r.observable == "cfi_vs_L_fit"]
    assert len(fit_rows) == 1
    assert 1.4 < fit_rows[0].value < 2.0


# -- golden outputs of the scenarios the benchmark does not run -----------

GOLDEN = Path(__file__).parent / "golden"
_VALUE_COLUMNS = {"value", "variance", "delta_theta", "qfi", "fit_exponent", "fit_r2"}
# goldens whose value cells are reproduced as exact strings, so a change of the
# exponent path cannot drift inside the tolerance; channel_sweep differs from
# its golden by ~1e-16 in two cells and keeps the tolerance
_EXACT_GOLDENS = {"theta_curves", "hadamard", "deformed", "subsystem"}


@pytest.mark.parametrize(
    "scenario", ["theta_curves", "hadamard", "deformed", "channel_sweep", "subsystem"]
)
def test_golden_outputs(tmp_path, scenario):
    """The CLI reproduces ``tests/golden/<scenario>.csv`` (recorded with one
    BLAS thread): every row and label cell exactly, every value cell to
    1e-12 relative plus 1e-15 absolute, or exactly as a string for the
    scenarios in ``_EXACT_GOLDENS``.

    The child process pins BLAS to one thread, as the benchmark does: a
    threaded eigh moves the L = 8 ground state in its last bits, which the
    differenced reflection rows of theta_curves amplify to ~1e-10.
    """
    subprocess.run(
        [sys.executable, "-m", "critsense.xcli", scenario,
         "--config", str(GOLDEN / f"{scenario}.json"), "--out", str(tmp_path)],
        env=_child_env(), check=True, timeout=300,
    )
    with open(GOLDEN / f"{scenario}.csv", newline="") as handle:
        want = list(csv.reader(handle))
    with open(tmp_path / f"{scenario}.csv", newline="") as handle:
        got = list(csv.reader(handle))
    header = want[0]
    assert got[0] == header
    assert len(got) == len(want)
    for g_row, w_row in zip(got[1:], want[1:]):
        for name, g, w in zip(header, g_row, w_row):
            if name in _VALUE_COLUMNS and w not in ("", "inf") and scenario not in _EXACT_GOLDENS:
                assert abs(float(g) - float(w)) <= 1e-12 * abs(float(w)) + 1e-15, (name, w_row)
            else:
                assert g == w, (name, w_row)


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this critsense,
    with BLAS pinned to one thread and the CLI's thread count unset."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("CRITSENSE_THREADS", None)
    src = str(Path(critsense.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


_FERMION_ONLY = {"scenario": "qfi_scaling", "probes": ["critical_fm"], "L_list": [64, 128, 256]}


def test_cli_import_leaves_quadrature_unloaded(tmp_path):
    """Importing the package or the CLI loads no scipy module, so
    ``scipy.integrate`` (and the ``scipy.optimize`` it pulls in) loads on
    first use of a quadrature; and a fermion-only qfi_scaling run, whose
    every point takes the free-fermion path, runs with scipy blocked and
    writes the bytes of an unblocked run."""
    code = ("import sys, critsense; a = sorted(m for m in sys.modules if m.startswith('scipy')); "
            "import critsense.xcli; b = sorted(m for m in sys.modules if m.startswith('scipy')); "
            "print(a, b)")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                         timeout=120, capture_output=True, text=True)
    assert out.stdout.strip() == "[] []"

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_FERMION_ONLY))
    blocked = ("import sys; sys.modules['scipy'] = None; from critsense import xcli; "
               "sys.exit(xcli.main(sys.argv[1:]))")
    for name, argv in (("blocked", ["-c", blocked]), ("plain", ["-m", "critsense.xcli"])):
        subprocess.run(
            [sys.executable, *argv, "qfi_scaling", "--config", str(cfg_path),
             "--out", str(tmp_path / name)],
            env=_child_env(), check=True, timeout=120,
        )
    for name in ("qfi_scaling.csv", "qfi_scaling_plot.csv", "qfi_scaling_plot.gp"):
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


# Runs ``xcli.main`` with ``from_dict`` hooked where the benchmark ends its
# set-up, and prints the exit code and the modules the run imported after it.
_SPLIT_PROBE = """
import sys
from critsense import xcli

from_dict = xcli.ExperimentConfig.from_dict
validated = set()

def hooked(cls, payload):
    cfg = from_dict(payload)
    validated.update(sys.modules)
    return cfg

xcli.ExperimentConfig.from_dict = classmethod(hooked)
code = xcli.main(sys.argv[1:])
print(code, sorted(set(sys.modules) - validated))
"""


@pytest.mark.parametrize("payload", [
    _FERMION_ONLY,
    {"scenario": "qfi_scaling", "probes": ["critical_fm", "critical_afm", "ghz"],
     "L_list": [4, 8, 12]},
    {"scenario": "theta_curves", "L": 6, "theta_points": 8},
    {"scenario": "channel_sweep", "probes": ["critical_fm", "ghz"], "L_list": [4, 6],
     "channel": {"kind": "bitflip_x", "p": 0.1}},
    {"scenario": "deformed", "L": 3, "n_samples": 50},
    {"scenario": "subsystem", "L": 8, "L_sub_list": [4], "theta_points": 200},
    {"scenario": "hadamard", "L_list": [4, 6]},
], ids=["qfi_scaling-fermion", "qfi_scaling-exact", "theta_curves", "channel_sweep",
        "deformed", "subsystem", "hadamard"])
def test_cli_run_imports_no_module_after_validation(tmp_path, payload):
    """Whatever a run needs is imported by the time ``from_dict`` returns,
    so import time counts as set-up and never inside the run: validation
    loads the exact path's scipy stack for every config with an exact
    point (the qfi_scaling-exact config reaches the Lanczos solver at
    L = 12), and the fermion-only run needs nothing beyond the import of
    the CLI."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    out = subprocess.run(
        [sys.executable, "-c", _SPLIT_PROBE, payload["scenario"], "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        env=_child_env(), check=True, timeout=120, capture_output=True, text=True,
    )
    assert out.stdout.strip() == "0 []", out.stderr
