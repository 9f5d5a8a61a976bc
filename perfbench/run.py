"""End-to-end benchmark of the ``critsense`` CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each workload is a fixed CLI config in
``perfbench/workloads``; ``--seed`` is passed through to the CLI's ``--seed``.
Every run is one child interpreter (``child.py``) running one CLI
invocation, one at a time, with ``--threads 1`` and the BLAS pool pinned to
``BLAS_THREADS``.  Every run's CSVs are checked against
``perfbench/reference`` (see ``check.py``); a run that exits non-zero or
fails the check counts in ``failed``.

``--trace 0`` alternates full runs with set-up-only runs for ``--seconds``
(at least two full runs) and reports the end-to-end metrics:

* ``setup_s``: launch of the child until the config is validated (median
  over full and set-up-only runs);
* ``run_s``: validated config until both CSVs and the ``.gp`` stub are
  written (median over full runs);
* ``peak_rss_mib``: the child's peak resident set, from ``wait4`` rusage.

``--trace 1`` alternates untraced and traced full runs and reports the
per-layer metrics of ``tracer.py`` (medians over the traced runs), the
layer split of ``run_s`` and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A summary with quartiles, sample
counts and the environment goes to ``perfbench/_out``, with the spans of
traced runs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import check_outputs
from tracer import LAYERS, SPAN_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

BLAS_THREADS = 1  # two OpenBLAS threads spin on this code without lowering wall time
CLI_THREADS = 1
MIN_SETUP_SAMPLES = 5
MIN_FULL_RUNS = 2
DEADLINE_S = 170.0  # the whole benchmark ends within this, killing a stuck child

# One CLI config per workload in perfbench/workloads; why each was chosen is
# recorded in BENCHMARK.json.
WORKLOADS = ("ed_ground", "theta_sweep", "mixed_noise", "fermion_chain")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB"}

PER_LAYER = {"xcli.import_s": "s"}
PER_LAYER.update({
    name: "count" if name.endswith("_calls") else "s" for name in SPAN_METRICS
})
PER_LAYER.update({
    "xcli.rows": "count", "models.dense_solves": "count", "models.lanczos_solves": "count",
    "qcore.to_sparse_nnz": "count", "qcore.string_applications": "count",
    "qcore.string_cache_hit_ratio": "ratio", "qcore.string_cache_lookups": "count",
    "qcore.eigh_work": "count", "channels.bytes_computed": "B", "fermion.det_work": "count",
    "subsys.theta_points": "count", "proc.cpu_s": "s",
})
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.incl_s"] = "s"
PER_LAYER.update({"trace.run_s": "s", "trace.overhead_s": "s"})

# The layer(s) that should hold most of run_s, as a union of top-level spans.
DOMINANT = {
    "ed_ground": ("models.incl_s",),
    "theta_sweep": ("subsys.incl_s",),
    "mixed_noise": ("channels.apply_channel_s", "metrology.qfi_mixed_self_s",
                    "qcore.spectrum_s", "qcore.mixed_init_s"),
    "fermion_chain": ("fermion.incl_s",),
}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.config_path = HERE / "workloads" / f"{workload}.json"
        self.ref_dir = HERE / "reference"
        self.config = json.loads(self.config_path.read_text())
        self.scenario = self.config["scenario"]
        self.t_begin = time.monotonic()
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.runs: list[dict] = []
        self.env = {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
            "cli_threads": CLI_THREADS,
            "git_commit": git_commit(),
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
        }
        self.child_env = dict(os.environ)
        self.child_env.pop("CRITSENSE_THREADS", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.child_env[var] = str(self.env["blas_threads"])

    def launch(self, kind: str) -> dict:
        """One child run; kind is "full", "setup" or "traced"."""
        k = len(self.runs)
        run_dir = self.tmp / f"run-{k}"
        run_dir.mkdir(parents=True)
        result_path = run_dir / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--scenario", self.scenario, "--config", str(self.config_path),
               "--out", str(run_dir / "out"), "--seed", str(self.seed),
               "--threads", str(CLI_THREADS), "--result", str(result_path)]
        if kind == "traced":
            cmd.append("--trace")
        if kind == "setup":
            cmd.append("--setup-only")
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.t_begin))
        with open(run_dir / "stderr.txt", "wb") as err:
            t_launch = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.child_env, stdout=subprocess.DEVNULL,
                                    stderr=err, cwd=str(ROOT))
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - t_launch
        run = {"kind": kind, "run_id": f"{self.workload}-{self.seed}-{k}", "wall_s": wall,
               "exit": proc.returncode, "errors": [], "identical": None}
        try:
            res = json.loads(result_path.read_text())
        except (OSError, ValueError):
            res = {}
        if proc.returncode != 0 or "t_validated" not in res:
            tail = (run_dir / "stderr.txt").read_text(errors="replace")[-400:]
            run["errors"].append(f"exit {proc.returncode}: {tail.strip()}")
        else:
            run["setup_s"] = res["t_validated"] - t_launch
            run["peak_rss_mib"] = usage.ru_maxrss / 1024.0
            run["cpu_s"] = usage.ru_utime + usage.ru_stime
            run["import_s"] = res["t_imported"] - res["t_start"]
            self.env.update(res["env"])
            if kind != "setup":
                run["run_s"] = res["t_done"] - res["t_validated"]
                run["errors"], run["identical"] = check_outputs(
                    self.workload, self.scenario, self.config, run_dir / "out", self.ref_dir)
            if kind == "traced":
                run["layers"] = res["layers"]
                run["spans"] = res["spans"]
        shutil.rmtree(run_dir)
        self.runs.append(run)
        return run

    def remaining(self) -> float:
        return self.seconds - (time.monotonic() - self.t_begin)

    def overdue(self) -> bool:
        return time.monotonic() - self.t_begin > DEADLINE_S - 10.0

    def measure(self) -> None:
        """Repeat (full, setup) or (full, traced) pairs while another pair, and
        the set-up runs still owed after it, fit in ``seconds``; untraced runs
        then fill the rest with set-up runs.

        Untraced runs make at least ``MIN_FULL_RUNS`` full runs, so that
        ``run_s`` is always the same statistic, also when a slow spell would
        fit only one full run of the longest workload."""
        self.launch("setup")  # warm-up: page cache and bytecode; not a sample
        pair = ("full", "traced") if self.trace else ("full", "setup")
        min_pairs = 1 if self.trace else MIN_FULL_RUNS
        pairs = 0
        while not self.overdue():
            for kind in pair:
                self.launch(kind)
            pairs += 1
            wall = {kind: max(r["wall_s"] for r in self.runs if r["kind"] == kind)
                    for kind in ("setup",) + pair}
            need = sum(wall[kind] for kind in pair)
            if not self.trace:
                # every run after the warm-up yields one set-up sample
                owed = MIN_SETUP_SAMPLES - (len(self.runs) - 1 + len(pair))
                need += max(owed, 0) * wall["setup"]
            if pairs >= min_pairs and self.remaining() < need:
                break
        if not self.trace:
            while not self.overdue() and (self.remaining() >= wall["setup"]
                                          or len(self.runs) - 1 < MIN_SETUP_SAMPLES):
                self.launch("setup")

    def samples(self, key: str, kinds=("full", "setup")) -> list[float]:
        # the warm-up run (index 0) is never a sample
        return [r[key] for r in self.runs[1:] if r["kind"] in kinds and key in r]


def layer_metrics(bench: Bench) -> dict:
    traced = [r for r in bench.runs if r["kind"] == "traced" and "layers" in r]
    untraced = bench.samples("run_s", kinds=("full",))
    traced_run = [r["run_s"] for r in traced]
    out = {}
    for name in PER_LAYER:
        if name == "xcli.import_s":
            values = [r["import_s"] for r in traced]
        elif name == "proc.cpu_s":
            values = [r["cpu_s"] for r in traced]
        elif name == "trace.run_s":
            values = traced_run
        elif name == "trace.overhead_s":
            values = [statistics.median(traced_run) - statistics.median(untraced)]
        else:
            values = [r["layers"][name] for r in traced]
        out[name] = statistics.median(values)
    return out


def report_layers(bench: Bench, metrics: dict) -> list[str]:
    run_s = metrics["trace.run_s"]
    lines = [f"layer split of traced run_s = {run_s:.4f} s",
             f"  {'layer':<10} {'self_s':>9} {'self%':>7} {'incl_s':>9} {'incl%':>7}"]
    covered = 0.0
    for layer in LAYERS:
        self_s, incl_s = metrics[f"{layer}.self_s"], metrics[f"{layer}.incl_s"]
        covered += self_s
        lines.append(f"  {layer:<10} {self_s:9.4f} {100 * self_s / run_s:6.1f}% "
                     f"{incl_s:9.4f} {100 * incl_s / run_s:6.1f}%")
    lines.append(f"  {'(outside)':<10} {run_s - covered:9.4f} "
                 f"{100 * (run_s - covered) / run_s:6.1f}%")
    dominant = sum(metrics[m] for m in DOMINANT[bench.workload])
    lines.append(f"dominant {'+'.join(DOMINANT[bench.workload])}: "
                 f"{100 * dominant / run_s:.1f}% of run_s")
    lines.append(f"tracing overhead: traced run_s - untraced run_s = "
                 f"{metrics['trace.overhead_s']:+.4f} s (medians of "
                 f"{len(bench.samples('run_s', kinds=('traced',)))} traced and "
                 f"{len(bench.samples('run_s', kinds=('full',)))} untraced runs)")
    return lines


def write_out(bench: Bench, summary: dict) -> None:
    stem = f"{bench.workload}-seed{bench.seed}-trace{int(bench.trace)}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1))
    if bench.trace:
        spans = [{"run": r["run_id"], "id": i, "name": s[0], "start": s[1], "end": s[2],
                  "parent": s[3]}
                 for r in bench.runs if "spans" in r for i, s in enumerate(r["spans"])]
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be between 1 and 120")
    if not (SRC / "critsense" / "xcli.py").is_file():
        print(f"error: {SRC / 'critsense'} not found; run from a critsense checkout",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        bench.measure()
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)

    full = [r for r in bench.runs if r["kind"] != "setup"]
    attempted = len(bench.runs)
    failed = sum(1 for r in bench.runs if r["errors"])
    print(f"perfbench {bench.workload} seed={bench.seed} trace={int(bench.trace)} "
          f"seconds={bench.seconds}")
    print("env " + json.dumps(bench.env, sort_keys=True))
    for r in bench.runs:
        for err in r["errors"][:5]:
            print(f"FAIL {r['run_id']} ({r['kind']}): {err}")
    print(f"runs attempted={attempted} failed={failed} fail_frac={failed / attempted:.4f}; "
          f"byte-identical to reference: {sum(1 for r in full if r['identical'])}/{len(full)} "
          f"full runs")

    if bench.trace:
        if not any("layers" in r for r in bench.runs) or not bench.samples("run_s", ("full",)):
            print("error: no successful traced and untraced run", file=sys.stderr)
            return 1
        metrics = layer_metrics(bench)
        units = PER_LAYER
        lines = report_layers(bench, metrics)
    else:
        series = {
            "setup_s": bench.samples("setup_s"),
            "run_s": bench.samples("run_s", kinds=("full",)),
            "peak_rss_mib": bench.samples("peak_rss_mib", kinds=("full",)),
        }
        if not all(series.values()):
            print("error: no successful run to measure", file=sys.stderr)
            return 1
        metrics, lines = {}, []
        for name, values in series.items():
            q1, med, q3 = quartiles(values)
            metrics[name] = med
            lines.append(f"{name:<13} median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                         f"n={len(values)} {END_TO_END[name]}")
        units = END_TO_END
    print("\n".join(lines))
    write_out(bench, {
        "env": bench.env, "metrics": metrics, "report": lines,
        "runs": [{k: v for k, v in r.items() if k not in ("spans", "layers")}
                 for r in bench.runs],
    })
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
