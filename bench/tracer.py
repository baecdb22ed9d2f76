"""Call tracing of the cosetkernel package, applied from outside it.

`Tracer.install` replaces each named function with a wrapper in every
cosetkernel module namespace that holds it (so `from .statevector import
apply_cz` in `group` is traced too), and `uninstall` puts the originals back.
A named function that no longer exists is skipped and reports 0 calls.

Each call appends one span [name, start, end, parent index] to `spans`; self
time is a span's duration minus the durations of its direct children.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "cosetkernel"

# module -> functions traced and reported one by one
NAMED = {
    "statevector": ("apply_single_qubit", "apply_cz", "haar_random_su2"),
    "group": ("prepare_fiducial", "apply", "compose", "from_euler"),
    "dataset": ("generate", "split"),
    "kernel": ("feature_states", "kernel_matrix", "alpha_matrix",
               "offdiag_stats", "cross_coset_values", "export_heatmap"),
    "noise": ("sample_fiducial_offsets", "sample_element_perturbation",
              "perturbation_element", "bounds_for"),
    "cli": ("count_envelope_violations",),
    "experiment": ("run_experiment", "run_trial", "build_trial_kernel",
                   "export_report"),
}

# modules whose public functions are traced and reported as one layer
GROUPED = ("theory",)

ROOT = "cli.main"


def layer_names():
    """Every span name a trace can report, the root first."""
    names = [ROOT]
    for module, functions in NAMED.items():
        names += [f"{module}.{f}" for f in functions]
    return names + list(GROUPED)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


def _targets():
    """(span name, module, function name) for every traced function that
    exists in the loaded package."""
    found = []
    for module, functions in NAMED.items():
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        for f in functions:
            if mod is not None and callable(getattr(mod, f, None)):
                found.append((f"{module}.{f}", mod, f))
    for module in GROUPED:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        for f, fn in (vars(mod).items() if mod else ()):
            if (inspect.isfunction(fn) and not f.startswith("_")
                    and fn.__module__ == mod.__name__):
                found.append((module, mod, f))
    return found


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.counters = defaultdict(int)

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; used for the root span and by wrappers."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook:
                hook(self.counters, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self):
        modules = _package_modules()
        for name, mod, f in _targets():
            original = getattr(mod, f)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches = []

    def summary(self):
        """Per span name: calls and self seconds."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, children):
            calls[name] += 1
            self_s[name] += end - start - child
        return dict(calls), dict(self_s)


def _feature_state_bytes(counters, bound, result):
    counters["kernel.feature_states.bytes"] += getattr(result, "nbytes", 0)


def _gram_flops(counters, bound, result):
    """8 real flops per complex multiply-add of the P x 2^N by 2^N x P Gram
    product."""
    n = bound.arguments.get("n_qubits")
    size = getattr(result, "size", None)
    if isinstance(n, int) and isinstance(size, int):
        counters["kernel.gram.flops"] += 8 * size * size * 2**n


_HOOKS = {
    "kernel.feature_states": _feature_state_bytes,
    "kernel.kernel_matrix": _gram_flops,
}
