"""Spans and counters recorded from outside the program.

The tracer wraps public functions of the ``occreid`` modules for the
duration of one traced phase (a set-up or a timed job) and restores the
originals afterwards. A module that did ``from .model import train`` holds
its own binding, so every ``occreid`` module namespace that binds the
original function object gets the wrapper; otherwise calls made through
that binding would go around the span.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, value]``
and written out when the benchmark ends. ``value`` carries the one
per-call statistic a function has: batch rows, file bytes or the
(input, output) size pair of a resize. Tiny hot functions get call
counters instead of spans, because a span costs more than their body.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _forward_rows(args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 1, "batch"))
    return 1 if len(shape) == 3 else int(shape[0])


def _built_rows(args, kwargs, result):
    return len(result[0])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _resize_shape(args, kwargs, result):
    img = _arg(args, kwargs, 0, "img")
    return (img.width, img.height, _arg(args, kwargs, 1, "w"), _arg(args, kwargs, 2, "h"))


# (module, function) -> per-call statistic kept in the span's value slot
SPANNED = {
    ("model", "forward"): _forward_rows,
    ("model", "backward"): None,
    ("model", "sgd_step"): None,
    ("model", "train"): None,
    ("model", "preprocess_image"): None,
    ("model", "extract_features"): None,
    ("imaging", "jittered_center_crop"): None,
    ("imaging", "resize"): _resize_shape,
    ("imaging", "load_image"): _file_bytes,
    ("imaging", "save_image"): _saved_bytes,
    ("occsim", "build_occlusion_set"): _built_rows,
    ("dataset", "scan_dataset"): None,
    ("dataset", "make_probe_gallery"): None,
    ("dataset", "generate_synthetic_dataset"): None,
    ("evaluate", "evaluate"): None,
    ("evaluate", "cmc_curve"): None,
    ("saliency", "saliency_map"): None,
    ("saliency", "map_from_feature_maps"): None,
    ("saliency", "binarize"): None,
    ("saliency", "detection_precision"): None,
    ("pipeline", "prepare_experiment"): None,
    ("pipeline", "train_model"): None,
    ("pipeline", "evaluate_model"): None,
    ("pipeline", "run_ablation"): None,
    ("pipeline", "run_eval"): None,
    ("pipeline", "run_simulate"): None,
    ("pipeline", "run_saliency"): None,
}

# Called millions of times per job; a span would dominate their cost.
COUNTED = (("evaluate", "l2_distance"), ("evaluate", "rank_identities"))

PACKAGE = "occreid"


def _resolve(targets):
    """(name, original function) for each target present; names of the rest."""
    found, absent = [], []
    for mod_name, fn_name in targets:
        try:
            fn = vars(importlib.import_module(f"{PACKAGE}.{mod_name}")).get(fn_name)
        except ModuleNotFoundError:
            fn = None
        if callable(fn):
            found.append((f"{mod_name}.{fn_name}", fn))
        else:
            absent.append(f"{mod_name}.{fn_name}")
    return found, absent


class Trace:
    """Spans and counters of one traced phase."""

    def __init__(self, label: str):
        self.label = label
        self.spans: list = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, stat):
        spans = self.spans

        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if stat is not None:
                rec[4] = stat(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def to_json(self) -> dict:
        return {"label": self.label, "spans": self.spans, "counters": dict(self.counts)}


class Patch:
    """Context manager that routes every ``occreid`` binding of each target
    through the trace's wrappers, and puts the originals back on exit."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self._undo: list = []
        found_spans, self.absent = _resolve(SPANNED)
        found_counts, absent_counts = _resolve(COUNTED)
        self.absent += absent_counts
        stats = {f"{m}.{f}": s for (m, f), s in SPANNED.items()}
        wrap = [(fn, trace.span(name, fn, stats[name])) for name, fn in found_spans]
        wrap += [(fn, trace.counter(name, fn)) for name, fn in found_counts]
        self._wrappers = {id(fn): (fn, wrapper) for fn, wrapper in wrap}

    def __enter__(self):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            namespace = vars(mod)
            for attr, value in list(namespace.items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    self._undo.append((namespace, attr, value))
        return self.trace

    def __exit__(self, *exc):
        for namespace, attr, value in reversed(self._undo):
            namespace[attr] = value
        self._undo.clear()
        return False


def _self_times(spans) -> list:
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start - child[i]) / 1e9 for i, (_, start, end, _, _) in enumerate(spans)]


def _under(spans, i: int, ancestor: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def phase_stats(trace: Trace) -> dict:
    """Per-function calls, self seconds and value aggregates of one phase.

    ``test_rows`` counts forward rows made outside ``model.train``: the
    rows spent extracting features or maps from test images.
    """
    spans = trace.spans
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    totals: Counter = Counter()
    distinct: defaultdict = defaultdict(set)
    test_rows = 0
    for i, ((name, _, _, _, value), own_s) in enumerate(zip(spans, _self_times(spans))):
        calls[name] += 1
        self_s[name] += own_s
        if isinstance(value, tuple):
            distinct[name].add(value)
        elif value is not None:
            totals[name] += value
            if name == "model.forward" and not _under(spans, i, "model.train"):
                test_rows += value
    calls.update(trace.counts)
    return {
        "calls": calls,
        "self_s": self_s,
        "totals": totals,
        "distinct": {k: len(v) for k, v in distinct.items()},
        "test_rows": test_rows,
    }


def median_of(per_job: list, pick) -> float:
    return statistics.median(pick(stats) for stats in per_job)
