"""The benchmark's traced child still runs against the library.

``perfbench/tracer.py`` wraps library functions by name, reads the string
cache of ``qcore._string_action`` and reads ``ground_state``'s first argument.
A rename or a signature change there breaks only traced benchmark runs, so one
small traced run is part of the test suite.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import critsense

ROOT = Path(__file__).resolve().parents[1]


def test_traced_child_reports_layers(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenario": "qfi_scaling", "probes": ["ghz", "critical_fm"], "L_list": [4, 6, 8]}
    ))
    result = tmp_path / "result.json"
    # no bytecode cache written into perfbench/
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("CRITSENSE_THREADS", None)
    src = Path(critsense.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--src", str(src),
         "--scenario", "qfi_scaling", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--seed", "1", "--threads", "1", "--result", str(result), "--trace"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["code"] == 0
    layers = report["layers"]
    assert layers["models.solve_model_calls"] == 3
    assert layers["models.dense_solves"] == 3
    assert layers["xcli.rows"] > 0
