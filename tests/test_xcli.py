import json

import pytest

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


def test_run_threaded_matches_serial():
    cfg = make_cfg(L_list=[4, 6, 8])
    serial = run(cfg, threads=1)
    threaded = run(cfg, threads=3)
    assert [r.row() for r in serial] == [r.row() for r in threaded]


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


def test_main_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    import critsense.xcli as xc
    import numpy as np

    def boom(cfg):
        raise np.linalg.LinAlgError("eigensolver did not converge")

    monkeypatch.setitem(xc._SCENARIO_RUNNERS, "qfi_scaling", boom)
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
    cfg_path.write_text(json.dumps({"scenario": "qfi_scaling", "probes": ["critical"],
                                    "L_list": sizes}))
    out = tmp_path / "o"
    assert main(["qfi_scaling", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "L_list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload", [
    # exact diagonalization above the sparse cap
    {"scenario": "qfi_scaling", "probes": ["critical_afm"], "L_list": [22, 24, 48]},
    {"scenario": "qfi_scaling", "probes": ["critical"], "L_list": [16, 22, 64],
     "use_fermion_above": 30},
    # a density matrix above the dense cap
    {"scenario": "channel_sweep", "probes": ["ghz"], "L_list": [4, 15],
     "channel": {"kind": "bitflip_x", "p": 0.1}},
], ids=["afm_over_sparse_cap", "critical_below_fermion_switch", "channel_over_dense_cap"])
def test_exact_path_sizes_rejected_before_work(tmp_path, capsys, payload):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert main([payload["scenario"], "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "L_list" in capsys.readouterr().err
    assert not out.exists()


def test_fermion_path_sizes_skip_the_exact_path_cap():
    # sizes above use_fermion_above never reach exact diagonalization
    cfg = ExperimentConfig.from_dict(
        {"scenario": "qfi_scaling", "probes": ["critical"], "L_list": [8, 64, 768]}
    )
    assert cfg.L_list == (8, 64, 768)


def test_main_env_thread_override(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "qfi_scaling", "probes": ["ghz"], "L_list": [4, 6, 8]}))
    monkeypatch.setenv("CRITSENSE_THREADS", "2")
    assert main(["qfi_scaling", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 0
    monkeypatch.setenv("CRITSENSE_THREADS", "no")
    assert main(["qfi_scaling", "--config", str(cfg_path), "--out", str(tmp_path / "t")]) == 2


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
