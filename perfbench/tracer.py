"""Span tracing of the critsense layers, installed from outside the package.

A traced child process calls :func:`install` after importing
``critsense.xcli``.  It wraps the public functions of each layer module, plus
the few methods listed in ``METHODS``, and rebinds every name in every
``critsense`` module that pointed at the original.  The rebinding matters
because ``xcli``, ``metrology`` and ``subsys`` import library functions with
``from .x import y``.

Each call records one span ``(name, start, end, parent)``; spans stay in
memory until the child writes them out.  Functions that run ~1e6 times per
run (``FermionSolution.kernel``) are not wrapped: their work is derived
from call arguments instead (see ``BEFORE``).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("xcli", "models", "qcore", "metrology", "channels", "fermion", "subsys")

METHODS = {
    "xcli": {"ExperimentConfig": ("from_dict",)},
    "qcore": {
        "PauliOperator": ("diagonal", "apply_vec", "to_sparse"),
        "MixedState": ("__init__", "from_pure", "spectrum"),
    },
}

# ``xcli.main`` spans both set-up and run; the child times those two phases
# itself, so a span around the whole entry point would only blur the split.
SKIP = frozenset({"xcli.main"})


def _channel_bytes(args, kwargs):
    rho, spec = args[0], args[1]
    dim = 1 << rho.n_qubits
    if spec.kind == "global_dephase":
        passes = 41  # Gauss-Hermite nodes of apply_channel_matrix
    else:
        passes = len(spec.site_mask) if spec.site_mask is not None else rho.n_qubits
    return dim * dim * 16 * passes


# Work counted from the arguments before each call: span name -> list of
# (counter, amount(args, kwargs)).
BEFORE = {
    # ground_state diagonalizes densely up to 2^10 basis states, Lanczos above
    "models.ground_state": [
        ("models.dense_solves", lambda a, k: int(a[0].n_qubits <= 10)),
        ("models.lanczos_solves", lambda a, k: int(a[0].n_qubits > 10)),
    ],
    "qcore.PauliOperator.apply_vec": [
        ("qcore.string_applications", lambda a, k: len(a[0].terms)),
    ],
    "qcore.MixedState.spectrum": [
        ("qcore.eigh_work", lambda a, k: (1 << a[0].n_qubits) ** 3 if a[0]._spectrum is None else 0),
    ],
    "channels.apply_channel": [("channels.bytes_computed", _channel_bytes)],
    "fermion.zz_correlator": [("fermion.det_work", lambda a, k: (a[1] if len(a) > 1 else k["r"]) ** 3)],
    "subsys.parity_theta_curve": [
        ("subsys.theta_points", lambda a, k: len(a[2] if len(a) > 2 else k["theta_grid"])),
    ],
}

# Work counted from the result after each call.
AFTER = {
    "qcore.PauliOperator.to_sparse": [("qcore.to_sparse_nnz", lambda r: r.nnz)],
    "xcli.run": [("xcli.rows", len)],
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def _count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        before, after = BEFORE.get(name, ()), AFTER.get(name, ())
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key, amount in before:
                self._count(key, amount(args, kwargs))
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid][1], spans[sid][2] = start, end
            for key, amount in after:
                self._count(key, amount(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer and rebind the wrapped names in all critsense modules."""
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"critsense.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replaced[obj] = self.wrap(obj, name)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(raw.__func__, name)))
                    else:
                        setattr(cls, meth, self.wrap(raw, name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "critsense" and not mod_name.startswith("critsense."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])


# -- turning spans into per-layer metrics ---------------------------------

# metric -> (kind, span names).  "incl" sums the durations of spans in the
# group that have no ancestor in the group; "self" sums durations minus the
# time covered by child spans; "calls" counts spans.
SPAN_METRICS = {
    "xcli.validate_s": ("incl", ("xcli.ExperimentConfig.from_dict",)),
    "xcli.run_s": ("incl", ("xcli.run",)),
    "xcli.emit_s": ("incl", ("xcli.emit_csv", "xcli.emit_plotdata")),
    "models.solve_model_s": ("incl", ("models.solve_model",)),
    "models.solve_model_calls": ("calls", ("models.solve_model",)),
    "models.build_hamiltonian_s": ("incl", ("models.build_hamiltonian",)),
    "models.ground_state_self_s": ("self", ("models.ground_state",)),
    "qcore.to_sparse_s": ("incl", ("qcore.PauliOperator.to_sparse",)),
    "qcore.to_sparse_calls": ("calls", ("qcore.PauliOperator.to_sparse",)),
    "qcore.apply_vec_s": ("incl", ("qcore.PauliOperator.apply_vec",)),
    "qcore.apply_vec_calls": ("calls", ("qcore.PauliOperator.apply_vec",)),
    "qcore.diagonal_s": ("incl", ("qcore.PauliOperator.diagonal",)),
    "qcore.diagonal_calls": ("calls", ("qcore.PauliOperator.diagonal",)),
    "qcore.evolve_phase_s": ("incl", ("qcore.evolve_phase",)),
    "qcore.evolve_phase_calls": ("calls", ("qcore.evolve_phase",)),
    "qcore.apply_exponential_s": ("incl", ("qcore.apply_exponential",)),
    "qcore.apply_exponential_calls": ("calls", ("qcore.apply_exponential",)),
    "qcore.mixed_init_s": ("incl", ("qcore.MixedState.__init__", "qcore.MixedState.from_pure")),
    "qcore.spectrum_s": ("incl", ("qcore.MixedState.spectrum",)),
    "qcore.spectrum_calls": ("calls", ("qcore.MixedState.spectrum",)),
    "metrology.qfi_pure_s": ("incl", ("metrology.qfi_pure",)),
    "metrology.qfi_pure_calls": ("calls", ("metrology.qfi_pure",)),
    "metrology.qfi_mixed_self_s": ("self", ("metrology.qfi_mixed",)),
    "metrology.qfi_mixed_calls": ("calls", ("metrology.qfi_mixed",)),
    "metrology.error_propagation_s": ("incl", ("metrology.error_propagation",)),
    "metrology.error_propagation_calls": ("calls", ("metrology.error_propagation",)),
    "channels.apply_channel_s": ("incl", ("channels.apply_channel",)),
    "channels.apply_channel_calls": ("calls", ("channels.apply_channel",)),
    "fermion.solve_s": ("incl", ("fermion.solve_tfim_fermion",)),
    "fermion.second_moment_s": ("incl", ("fermion.qfi_generator_second_moment",)),
    "fermion.zz_correlator_s": ("incl", ("fermion.zz_correlator",)),
    "fermion.zz_correlator_calls": ("calls", ("fermion.zz_correlator",)),
    "subsys.parity_theta_curve_s": ("incl", ("subsys.parity_theta_curve",)),
    "subsys.parity_theta_curve_calls": ("calls", ("subsys.parity_theta_curve",)),
    "subsys.window_report_s": ("incl", ("subsys.window_report",)),
}

COUNTERS = (
    "xcli.rows", "models.dense_solves", "models.lanczos_solves", "qcore.to_sparse_nnz",
    "qcore.string_applications", "qcore.eigh_work", "channels.bytes_computed",
    "fermion.det_work", "subsys.theta_points",
)


def summarize(spans: list[list], counters: dict, window_start: float) -> dict:
    """Per-layer metrics of one traced run.

    ``<layer>.self_s`` and ``<layer>.incl_s`` only count spans that start
    at or after ``window_start`` (the end of config validation), so they
    split the run phase; ``incl_s`` sums the spans with no ancestor in the
    same layer.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def has_ancestor(i: int, pred) -> bool:
        p = spans[i][3]
        while p >= 0:
            if pred(spans[p][0]):
                return True
            p = spans[p][3]
        return False

    out = {}
    for metric, (kind, names) in SPAN_METRICS.items():
        group = set(names)
        idx = [i for i in range(n) if spans[i][0] in group]
        if kind == "calls":
            out[metric] = len(idx)
        elif kind == "self":
            out[metric] = sum(spans[i][2] - spans[i][1] - child_time[i] for i in idx)
        else:
            out[metric] = sum(spans[i][2] - spans[i][1] for i in idx
                              if not has_ancestor(i, group.__contains__))
    for key in COUNTERS:
        out[key] = counters.get(key, 0)
    for layer in LAYERS:
        in_layer = lambda name, prefix=layer + ".": name.startswith(prefix)
        self_s = incl_s = 0.0
        for i, (name, start, end, _) in enumerate(spans):
            if start < window_start or not in_layer(name):
                continue
            self_s += end - start - child_time[i]
            if not has_ancestor(i, in_layer):
                incl_s += end - start
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.incl_s"] = incl_s
    return out
