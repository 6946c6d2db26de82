"""Outside-in tracing of spfft's modules for the traced benchmark run.

The tracer replaces spfft's public functions with timing wrappers in the
namespace of every module that looks them up (the consuming module), and
wraps the methods of ``CountingSpectrumAccessor``.  Nothing inside
``src/spfft`` changes: a call that one module makes to another, or to a
public function of its own, becomes a span.  ``dft_core`` is not a
consumer, so the forward FFT inside ``fft_inverse`` stays part of the
inverse's self time.

A span records its name, start, end, parent span, op id and thread.
Span stacks are thread-local, so the experiment's worker threads trace
correctly; a span opened on a thread with an empty stack gets, as its
parent, the innermost span open on the thread that runs the op (for the
experiment's workers, run_experiment).  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: Public functions traced, by defining module.  A name that a later
#: version of spfft no longer has is listed in Tracer.absent and simply
#: yields no metric.
TRACED = {
    "dft_core": ("fft_forward", "fft_inverse"),
    "sparse_exact": (
        "reconstruct_exact",
        "find_support_start",
        "_window_argmax",
        "select_odd_sample",
        "resolve_shift",
        "window_spectrum_sample",
        "window_energies",
    ),
    "sparse_noisy": (
        "reconstruct_noisy",
        "estimate_support_start",
        "offset_periodization",
        "refine_support",
        "average_support_values",
    ),
    "signal_lab": ("gen_sparse_signal", "add_noise", "oracle_inverse", "error_l2_over_n"),
    "spf1": ("read_vector_file", "write_vector_file"),
    "experiment": ("run_experiment", "run_trial"),
    "cli": ("main",),
}

#: Modules whose namespaces are patched (dft_core's internals stay whole).
CONSUMERS = ("sparse_exact", "sparse_noisy", "signal_lab", "spf1", "experiment", "cli")

LAYERS = ("dft_core", "sparse_exact", "sparse_noisy", "signal_lab", "spf1", "experiment", "cli")


def _length(args, result, before):
    return len(args[0])


def _votes_stable(args, result, before):
    return float(result.votes_stable)


def _file_mib(args, result, before):
    return (16 + 16 * len(result[0])) / 2**20


def _read_counts(args, result, before):
    # (indices requested, new distinct indices)
    return (int(np.size(args[1])), args[0].read_count - before)


#: Extra value a span records: name -> (before-hook, measure).
MEASURES = {
    "dft_core.fft_forward": (None, _length),
    "dft_core.fft_inverse": (None, _length),
    "sparse_noisy.average_support_values": (None, _length),
    "sparse_noisy.reconstruct_noisy": (None, _votes_stable),
    "spf1.read_vector_file": (None, _file_mib),
    "dft_core.accessor.read": (lambda args: args[0].read_count, _read_counts),
}


class Tracer:
    """Collects spans from wrapped spfft functions while installed."""

    def __init__(self):
        self.spans = []  # (id, parent, op, name, start_ns, end_ns, thread, value)
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._op_stack = []
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        before_hook, measure = MEASURES.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            op_stack = tracer._op_stack
            parent = stack[-1] if stack else (op_stack[-1] if op_stack else None)
            op = tracer._op
            before = before_hook(args) if before_hook else None
            stack.append(sid)
            value = end = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter_ns()
                if measure is not None:
                    value = measure(args, result, before)
                return result
            finally:
                if end is None:
                    end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, op, name, start, end, threading.get_ident(), value)
                )

        return traced

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every traced name where its consumers look it up."""
        consumers = [importlib.import_module(f"spfft.{c}") for c in CONSUMERS]
        for modname, names in TRACED.items():
            module = importlib.import_module(f"spfft.{modname}")
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    self.absent.append(f"{modname}.{fname}")
                    continue
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for consumer in consumers:
                    for attr, value in list(vars(consumer).items()):
                        if value is original:
                            self._patch(consumer, attr, wrapper)
        accessor = importlib.import_module("spfft.dft_core").CountingSpectrumAccessor
        for method, name in (
            ("__init__", "dft_core.accessor.init"),
            ("read", "dft_core.accessor.read"),
            ("read_all", "dft_core.accessor.read_all"),
        ):
            original = getattr(accessor, method, None)
            if original is None:
                self.absent.append(name)
                continue
            self._patch(accessor, method, self._wrap(name, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self, op_id):
        """Root span of one benchmark op; spans inside it carry op_id."""
        stack = self._stack()
        sid = next(self._ids)
        self._op, self._op_stack = op_id, stack
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, None, op_id, "op", start, end, threading.get_ident(), None))

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "thread", "value")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(spans, ops: int, workers: int) -> dict[str, float]:
    """Per-op means of every traced name, plus the derived layer ratios.

    A span's self time is its duration minus the time during which at
    least one of its children ran.  Children on other threads (the
    experiment's pool) count too, so run_experiment's wait for its
    workers is not self time, and the self times of all spans add up to
    the busy thread time.
    """
    children = defaultdict(list)
    for _sid, parent, _op, _name, start, end, _thread, _value in spans:
        if parent is not None:
            children[parent].append((start, end))
    child_ns = {sid: _covered_ns(iv) for sid, iv in children.items()}
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    values = defaultdict(list)
    for sid, _parent, _op, name, start, end, _thread, value in spans:
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - child_ns.get(sid, 0)
        if value is not None:
            values[name].append(value)

    ops = max(ops, 1)
    out = {}
    for name in calls:
        if name == "op":
            continue
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.self_ms"] = self_ns[name] / 1e6 / ops
        out[f"{name}.total_ms"] = total_ns[name] / 1e6 / ops

    out["dft_core.accessor.init_ms"] = total_ns["dft_core.accessor.init"] / 1e6 / ops
    out["dft_core.accessor.read_all.calls"] = calls["dft_core.accessor.read_all"] / ops
    reads = values["dft_core.accessor.read"]
    requested = sum(r for r, _ in reads)
    distinct = sum(d for _, d in reads)
    out["dft_core.accessor.distinct_reads"] = distinct / ops
    out["dft_core.accessor.requested_per_distinct"] = requested / distinct if distinct else 0.0
    for fft in ("fft_forward", "fft_inverse"):
        out[f"dft_core.{fft}.points"] = sum(values[f"dft_core.{fft}"]) / ops
    out["spf1.read_vector_file.mib"] = sum(values["spf1.read_vector_file"]) / ops
    stable = values["sparse_noisy.reconstruct_noisy"]
    if stable:
        out["sparse_noisy.votes_stable_frac"] = sum(stable) / len(stable)
    computed = calls["sparse_noisy.offset_periodization"]
    if computed:
        out["sparse_noisy.vectors_averaged_per_computed"] = (
            sum(values["sparse_noisy.average_support_values"]) / computed
        )
    if total_ns["experiment.run_experiment"]:
        out["experiment.pool_efficiency"] = total_ns["experiment.run_trial"] / (
            total_ns["experiment.run_experiment"] * workers
        )

    # Share of the busy thread time inside spfft that each layer's own code
    # took.  The op root's self time (input preparation, output checks) is
    # benchmark work and stays out.
    all_self = sum(ns for name, ns in self_ns.items() if name != "op") or 1
    for layer in LAYERS:
        own = sum(ns for name, ns in self_ns.items() if name.startswith(layer + "."))
        out[f"{layer}.self_pct"] = 100.0 * own / all_self
    return out
