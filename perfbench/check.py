"""Correctness check of one CLI run against the reference outputs.

A run passes when its row set equals the reference row set, every numeric
column is within ``REL_TOL`` of the reference, and the workload's physics
invariants hold at the acceptance-gate tolerances.  The ``seed``,
``config_hash`` and ``code_version`` columns are ignored: the first two
follow ``--seed``.

Byte identity is reported separately from pass/fail: the flat CSV with the
seed-dependent columns blanked and the plot table must equal the reference
byte for byte.
"""
from __future__ import annotations

import csv
import io
import math
from pathlib import Path

IGNORED = ("seed", "config_hash", "code_version")
EXACT = ("schema_version", "scenario", "probe", "model_kind", "boundary", "L", "L_sub",
         "channel_kind", "observable", "point_seed")
REL_TOL = 1e-8  # criteria 5 and 7 of the acceptance gate

GATE_ABS_TOL = 1e-10  # criterion 1: GHZ and spin-coherent QFI
FIT_TARGET, FIT_TOL = 1.75, 0.05  # criterion 2: critical QFI exponent
WINDOW_ROWS = ("window_delta_min", "window_sql", "window_theta_min")


def read_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(text: str) -> float | None:
    return None if text == "" else float(text)


def compare_rows(rows: list[dict], ref: list[dict]) -> list[str]:
    """Row set and numeric columns against the reference rows."""
    if len(rows) != len(ref):
        return [f"row count {len(rows)} != reference {len(ref)}"]
    errors = []
    for i, (got, want) in enumerate(zip(rows, ref)):
        if set(got) != set(want):
            return [f"columns {sorted(got)} != reference {sorted(want)}"]
        key = [want[c] for c in EXACT]
        if [got[c] for c in EXACT] != key:
            errors.append(f"row {i}: key {[got[c] for c in EXACT]} != reference {key}")
            continue
        for col in want:
            if col in IGNORED or col in EXACT:
                continue
            a, b = _num(got[col]), _num(want[col])
            if a is None or b is None or math.isinf(a) or math.isinf(b):
                ok = a == b
            else:
                ok = abs(a - b) <= REL_TOL * max(1.0, abs(b))
            if not ok:
                errors.append(f"row {i} ({want['observable']}): {col}={got[col]} "
                              f"vs reference {want[col]}")
    return errors


def _by(rows: list[dict], observable: str) -> dict:
    return {(r["probe"], int(r["L"])): float(r["value"])
            for r in rows if r["observable"] == observable and r["L"]}


def invariants(workload: str, rows: list[dict], config: dict) -> list[str]:
    """Physics invariants each workload must satisfy on its own."""
    errors = []
    if workload == "ed_ground":
        qfi = _by(rows, "qfi_pure")
        for probe, want in (("ghz", lambda L: 4.0 * L * L), ("spin_coherent", lambda L: 4.0 * L)):
            for L in config["L_list"]:
                got = qfi.get((probe, L))
                if got is None or abs(got - want(L)) >= GATE_ABS_TOL:
                    errors.append(f"{probe} QFI at L={L} is {got}, want {want(L)}")
    elif workload == "mixed_noise":
        mixed, formula = _by(rows, "qfi_mixed"), _by(rows, "qfi_bitflip_formula")
        for probe in config["probes"]:
            for L in config["L_list"]:
                a, b = mixed.get((probe, L)), formula.get((probe, L))
                if a is None or b is None or abs(a - b) >= REL_TOL * max(1.0, b):
                    errors.append(f"{probe} L={L}: qfi_mixed {a} != bit-flip formula {b}")
    elif workload == "fermion_chain":
        fits = [float(r["fit_exponent"]) for r in rows if r["observable"] == "qfi_vs_L_fit"]
        if len(fits) != 1 or abs(fits[0] - FIT_TARGET) >= FIT_TOL:
            errors.append(f"fit exponent {fits} outside {FIT_TARGET} +- {FIT_TOL}")
    elif workload == "theta_sweep":
        for L_sub in config["L_sub_list"]:
            have = {r["observable"] for r in rows if r["L_sub"] == str(L_sub)}
            missing = [name for name in WINDOW_ROWS if name not in have]
            if missing:
                errors.append(f"L_sub={L_sub}: missing window rows {missing}")
    else:
        raise ValueError(f"no invariants defined for workload {workload!r}")
    return errors


def _mask(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    drop = [header.index(c) for c in ("seed", "config_hash")]
    for row in rows[1:]:
        for j in drop:
            row[j] = ""
    return "\n".join(",".join(r) for r in rows)


def check_outputs(workload: str, scenario: str, config: dict, out_dir: Path,
                  ref_dir: Path) -> tuple[list[str], bool]:
    """(errors, byte_identical) for the files one CLI run wrote."""
    csv_path = out_dir / f"{scenario}.csv"
    plot_path = out_dir / f"{scenario}_plot.csv"
    missing = [p.name for p in (csv_path, plot_path, out_dir / f"{scenario}_plot.gp")
               if not p.is_file()]
    if missing:
        return [f"missing outputs {missing}"], False
    text, plot = csv_path.read_text(), plot_path.read_text()
    ref_text = (ref_dir / f"{workload}.csv").read_text()
    ref_plot = (ref_dir / f"{workload}_plot.csv").read_text()
    rows = read_rows(text)
    try:
        errors = compare_rows(rows, read_rows(ref_text)) + invariants(workload, rows, config)
        identical = _mask(text) == _mask(ref_text) and plot == ref_plot
    except (KeyError, ValueError, IndexError) as exc:  # a malformed CSV fails the run
        errors, identical = [f"unreadable output: {exc!r}"], False
    lines, ref_lines = plot.count("\n"), ref_plot.count("\n")
    if lines != ref_lines:
        errors.append(f"plot table has {lines} lines, reference {ref_lines}")
    return errors, identical
