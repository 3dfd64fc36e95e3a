"""Spans around the calls into ``lagp``'s public functions.

``install`` wraps each traced function and rebinds the wrapper under every
name that refers to the original in any loaded ``lagp`` module. Modules
import each other's functions with ``from .kernel import ...``, so
patching the defining module alone would miss most calls. ``uninstall``
restores the originals, so timed rounds run the program untouched.

A span is (name, start, end, parent index, counts). Spans stay in memory
and are written out once, when the run ends.
"""

import contextlib
import json
import os
import sys
import time
from collections import defaultdict


def _entries(result, args):
    return {"entries": int(result.size)}


def _block_entries(result, args):
    counter = getattr(sys.modules["lagp.kernel"], "fast_path_counter", None)
    out = {"entries": int(result.values.size)}
    if counter is not None:
        out["peak_aux_floats"] = int(counter.peak)
    return out


def _jittered(result, args):
    return {"jittered": int(getattr(result, "jitter", 0.0) > 0.0)}


def _rhs_cols(result, args):
    b = args[1]
    return {"rhs_cols": 1 if getattr(b, "ndim", 1) == 1 else int(b.shape[1])}


def _saved_bytes(result, args):
    return {"bytes": os.path.getsize(args[0])}


# (module, function, counter); a counter maps (result, args) to the work
# counts of one call
TARGETS = (
    ("kernel", "kernel_block_fast", _block_entries),
    ("kernel", "kernel_diag_blocks", None),
    ("kernel", "kernel_input_gradient_multi", _entries),
    ("kernel", "jacobian", None),
    ("linalg", "cholesky", _jittered),
    ("linalg", "solve_psd", _rhs_cols),
    ("linalg", "sym_eig", None),
    ("nn", "forward", None),
    ("nn", "train_map", None),
    ("lla", "lambda_of", None),
    ("lla", "grid_search_hyperparameters", None),
    ("lla", "fit_exact", None),
    ("lla", "fit_diag", None),
    ("lla", "fit_last_layer", None),
    ("lla", "predict_exact_batch", None),
    ("lla", "predict_diag_batch", None),
    ("lla", "predict_last_layer_batch", None),
    ("ella", "ella_fit", None),
    ("ella", "ella_predict_batch", None),
    ("valla", "fit_valla", None),
    ("valla", "objective_gradient", None),
    ("valla", "kl_dual", None),
    ("valla", "valla_predict_batch", None),
    ("metrics", "predictive_class_probs", None),
    ("serialize", "save_state", _saved_bytes),
    ("serialize", "load_state", None),
    ("data", "load_idx_images", None),
)
# counts that report the largest value of one call instead of the sum
PEAK_COUNTS = ("peak_aux_floats",)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around the block; yields its index in ``spans``."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index, counts=None):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = counts

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            index = self._open(name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(result, args)
                return result
            finally:
                self._close(index, counts)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import lagp.cli  # noqa: F401  imports every module a command reaches

        modules = [m for n, m in list(sys.modules.items()) if n == "lagp" or n.startswith("lagp.")]
        for module_name, func_name, counter in TARGETS:
            original = getattr(sys.modules[f"lagp.{module_name}"], func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, counts in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent}
                if counts:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")


def layer_stats(spans, root):
    """Per-layer totals over the spans below span ``root``.

    Returns {"<module>.<function>.<stat>": value} with stats calls, s
    (inclusive), self_s (inclusive minus the time of child spans) and the
    work counts, plus kernel_block_fast calls per VaLLA gradient step.
    """
    below = set()
    child_time = defaultdict(float)
    in_step = set()
    for i in range(root + 1, len(spans)):
        name, start, end, parent, _ = spans[i]
        if parent != root and parent not in below:
            continue
        below.add(i)
        child_time[parent] += end - start
        if name == "valla.objective_gradient" or parent in in_step:
            in_step.add(i)
    stats = defaultdict(float)
    for i in sorted(below):
        name, start, end, parent, counts = spans[i]
        if name.startswith("bench."):
            continue
        stats[f"{name}.calls"] += 1
        stats[f"{name}.s"] += end - start
        stats[f"{name}.self_s"] += end - start - child_time[i]
        for key, value in (counts or {}).items():
            if key in PEAK_COUNTS:
                stats[f"{name}.{key}"] = max(stats[f"{name}.{key}"], value)
            else:
                stats[f"{name}.{key}"] += value
    steps = stats.get("valla.objective_gradient.calls", 0)
    block_calls = sum(1 for i in in_step if spans[i][0] == "kernel.kernel_block_fast")
    stats["kernel.kernel_block_fast.calls_per_valla_step"] = block_calls / steps if steps else 0.0
    return dict(stats)


def self_time_total(stats):
    return sum(v for k, v in stats.items() if k.endswith(".self_s"))
