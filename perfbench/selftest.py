"""Self-test of the benchmark's correctness check: it must be able to fail.

    python3 perfbench/selftest.py

1. Each workload's reference outputs pass the check unchanged.
2. One reference value of magnitude >= 0.1, perturbed by a relative 1e-6
   (at least 10x the tolerance), fails it.
3. One perturbed invariant per workload is named by the invariant check and
   fails the run; so does a truncated output file.
4. Through the real launch path, one ``fermion_chain`` CLI run against a
   perturbed reference, and one against a perturbed fit-exponent target,
   are each counted as a failed run.
5. ``BENCHMARK.json`` lists exactly the workloads and metrics ``run.py``
   reports.

Exits 0 when every step behaves as stated.
"""
from __future__ import annotations

import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import check
import run


def _edit(text: str, pick, change) -> str:
    """Apply ``change`` to the first row where ``pick(row)`` holds."""
    rows = list(csv.DictReader(io.StringIO(text)))
    header = text.splitlines()[0].split(",")
    for i, row in enumerate(rows):
        if pick(row):
            new = change(row)
            if new is None:
                del rows[i]
            else:
                rows[i] = new
            break
    else:
        raise LookupError("no row to perturb")
    lines = [",".join(header)] + [",".join(r[c] for c in header) for r in rows]
    return "\n".join(lines) + "\n"


def _scale(col: str, factor: float = 1.0, shift: float = 0.0):
    def change(row):
        row[col] = f"{float(row[col]) * factor + shift:.17g}"
        return row
    return change


# workload -> (row picker, change) that breaks exactly that workload's invariant
INVARIANT_BREAKS = {
    "ed_ground": (lambda r: r["probe"] == "ghz" and r["L"] == "16", _scale("value", shift=1e-9)),
    "mixed_noise": (lambda r: r["observable"] == "qfi_bitflip_formula",
                    _scale("value", factor=1 + 3e-8)),
    "fermion_chain": (lambda r: r["observable"] == "qfi_vs_L_fit",
                      _scale("fit_exponent", shift=0.06)),
    "theta_sweep": (lambda r: r["observable"] == "window_sql" and r["L_sub"] == "6",
                    lambda r: None),
}


def _fake_run(dst: Path, workload: str, scenario: str, text: str, ref_dir: Path) -> Path:
    if dst.exists():
        shutil.rmtree(dst)
    dst.mkdir(parents=True)
    (dst / f"{scenario}.csv").write_text(text)
    shutil.copy(ref_dir / f"{workload}_plot.csv", dst / f"{scenario}_plot.csv")
    (dst / f"{scenario}_plot.gp").write_text("")
    return dst


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    ref = run.HERE / "reference"
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        tmp = Path(tmp)
        for workload in run.WORKLOADS:
            config = json.loads((run.HERE / "workloads" / f"{workload}.json").read_text())
            scenario = config["scenario"]
            text = (ref / f"{workload}.csv").read_text()
            out = _fake_run(tmp / "out", workload, scenario, text, ref)
            errors, identical = check.check_outputs(workload, scenario, config, out, ref)
            expect(not errors and identical, f"{workload}: reference output passes")

            bad_ref = tmp / "ref"
            shutil.copytree(ref, bad_ref, dirs_exist_ok=True)
            (bad_ref / f"{workload}.csv").write_text(
                _edit(text, lambda r: r["value"] not in ("", "inf") and abs(float(r["value"])) >= 0.1,
                      _scale("value", factor=1 + 1e-6)))
            errors, _ = check.check_outputs(workload, scenario, config, out, bad_ref)
            expect(bool(errors), f"{workload}: perturbed reference value fails: {errors[:1]}")

            pick, change = INVARIANT_BREAKS[workload]
            broken = _edit(text, pick, change)
            named = check.invariants(workload, check.read_rows(broken), config)
            out = _fake_run(tmp / "out", workload, scenario, broken, ref)
            errors, _ = check.check_outputs(workload, scenario, config, out, ref)
            expect(bool(named) and bool(errors),
                   f"{workload}: perturbed invariant fails: {named[:1]}")

            out = _fake_run(tmp / "out", workload, scenario, text[: len(text) // 2], ref)
            errors, identical = check.check_outputs(workload, scenario, config, out, ref)
            expect(bool(errors) and not identical, f"{workload}: truncated output fails")

        # real CLI runs through the benchmark's launch path
        bench = run.Bench("fermion_chain", seed=7, seconds=60, trace=False)
        bench.tmp = tmp / "runs"
        bad_ref = tmp / "ref"
        shutil.copytree(ref, bad_ref, dirs_exist_ok=True)
        text = (ref / "fermion_chain.csv").read_text()
        (bad_ref / "fermion_chain.csv").write_text(
            _edit(text, lambda r: r["L"] == "256", _scale("value", factor=1 + 1e-6)))
        bench.ref_dir = bad_ref
        result = bench.launch("full")
        expect(result["exit"] == 0 and bool(result["errors"]),
               f"CLI run vs perturbed reference counted failed: {result['errors'][:1]}")
        bench.ref_dir = ref
        saved = check.FIT_TARGET
        check.FIT_TARGET = saved + 0.1
        try:
            result = bench.launch("full")
        finally:
            check.FIT_TARGET = saved
        expect(result["exit"] == 0 and bool(result["errors"]),
               f"CLI run vs perturbed fit invariant counted failed: {result['errors'][:1]}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.WORKLOADS")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end metrics match run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer metrics match run.PER_LAYER")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
