"""The benchmark's traced child still runs against the library.

``perfbench/tracer.py`` wraps library functions by name, reads the string
cache of ``qcore._string_action`` and reads ``ground_state``'s first argument.
A rename or a signature change there breaks only traced benchmark runs, so two
small traced runs, a ``qfi_scaling`` ground-state run and a ``subsystem`` theta
loop, are part of the test suite.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import critsense

ROOT = Path(__file__).resolve().parents[1]


def _traced_run(tmp_path, config):
    """The report of one traced child run of ``config``, after checking
    that the child exited with code 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    result = tmp_path / "result.json"
    # no bytecode cache written into perfbench/
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("CRITSENSE_THREADS", None)
    src = Path(critsense.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--src", str(src),
         "--scenario", config["scenario"], "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--seed", "1", "--threads", "1", "--result", str(result), "--trace"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["code"] == 0
    return report


def test_traced_child_reports_layers(tmp_path):
    config = {"scenario": "qfi_scaling", "probes": ["ghz", "critical_fm"], "L_list": [4, 6, 8]}
    report = _traced_run(tmp_path, config)
    layers = report["layers"]
    assert layers["models.solve_model_calls"] == 3
    assert layers["models.dense_solves"] == 3
    assert layers["xcli.rows"] > 0


def test_traced_child_runs_the_theta_loop(tmp_path):
    # the theta loop reads the wrapped PauliOperator methods and the
    # phase-table pull-through of subsys.parity_theta_curve
    config = {"scenario": "subsystem", "L": 8, "L_sub_list": [2, 4], "theta_points": 200}
    report = _traced_run(tmp_path, config)
    layers = report["layers"]
    assert layers["subsys.parity_theta_curve_calls"] == 2
    assert layers["subsys.theta_points"] == 400
