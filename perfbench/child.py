"""One benchmark run: the ``critsense`` CLI in a fresh interpreter.

The parent starts this script once per run.  It imports ``critsense.xcli``,
hooks ``ExperimentConfig.from_dict`` to timestamp the end of config
validation, and calls ``xcli.main`` with the CLI arguments.  Timestamps come
from ``time.monotonic`` (CLOCK_MONOTONIC, shared with the parent), so the
parent can measure set-up from the moment it launched this process.

With ``--trace`` the layers are wrapped by :mod:`tracer` first; with
``--setup-only`` the run stops right after validation.  The result, with the
CLI's exit code, goes to ``--result`` as JSON.  The exit code of this script is
the CLI's.
"""
import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402


class SetupDone(Exception):
    """Raised out of ``xcli.main`` to end a set-up-only run after validation."""


def _blas_info(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return {"name": "unknown", "version": "unknown"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--threads", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from critsense import xcli

    t_imported = time.monotonic()
    result = {"t_start": T_START, "t_imported": t_imported}
    tracer = None
    if args.trace:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()

    cfg_cls = xcli.ExperimentConfig
    from_dict = cfg_cls.from_dict  # bound to the class (traced when tracing)

    def timed_from_dict(cls, payload):
        cfg = from_dict(payload)
        result["t_validated"] = time.monotonic()
        if args.setup_only:
            raise SetupDone
        return cfg

    cfg_cls.from_dict = classmethod(timed_from_dict)
    argv = [args.scenario, "--config", args.config, "--out", args.out,
            "--seed", args.seed, "--threads", args.threads]
    try:
        code = xcli.main(argv)
    except SetupDone:
        code = 0
    result["t_done"] = time.monotonic()
    result["code"] = code

    import numpy as np
    import scipy

    result["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(np),
        "critsense": getattr(sys.modules.get("critsense"), "__version__", "unknown"),
    }
    if tracer is not None:
        from critsense import qcore
        from tracer import summarize

        info = qcore._string_action.cache_info()
        layers = summarize(tracer.spans, tracer.counters, result.get("t_validated", 0.0))
        lookups = info.hits + info.misses
        layers["qcore.string_cache_lookups"] = lookups
        layers["qcore.string_cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        result["layers"] = layers
        result["spans"] = tracer.spans
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
