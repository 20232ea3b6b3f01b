"""Out-of-process-boundary tracer for uapkit's layers.

The tracer wraps the public functions of each uapkit module from outside and
rebinds every name that points at an original function, in every uapkit
module. uapkit's modules bind imported names (`from .encoder import
encode_batch`), so patching only the defining module would miss most calls.

Each wrapped call records one span: name, start, end, parent span,
operation id, thread and the work it did. Spans stay in memory until `write_spans`. Work
counters (rows, bytes, RNG values) are taken from the call arguments at the
same boundary. Counters and spans are updated under one lock, because
`cli._metrics_pair` runs two evaluations on a thread pool.

Layer self time is wall time: at each instant, the interval is shared
equally among the spans that are running and have no running child. Self
times of all spans therefore sum to the wall time covered by root spans,
also while two threads run in parallel. An unwrapped (private) function
counts toward the layer of its nearest wrapped caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import threading
import time
from array import array
from collections import defaultdict

LAYERS = ("encoder", "retrieval", "attack", "core", "datagen", "rng",
          "tensor_io", "cli")

# bulk methods of the portable RNG; per-value methods stay unwrapped because
# a span per value would cost more than the generation it measures
RNG_METHODS = ("fill_uniform", "fill_gaussian")

# functions the per-layer counters read; a missing one is reported as absent
EXPECTED = {
    "encoder": ("encode_batch", "forward_with_cache", "backward_from_cache"),
    "retrieval": ("indicator", "select_nonmatching_topk", "recall_at_k"),
    "attack": ("run_attack", "evaluate_metrics"),
    "core": (),
    "datagen": ("generate", "load"),
    "rng": tuple(f"Lcg.{m}" for m in RNG_METHODS),
    "tensor_io": ("read_tensor", "write_tensor", "sha256_file"),
    "cli": ("main",),
}

# tensor_io functions and the byte counter each file's size goes to
IO_COUNTERS = {
    "tensor_io.read_tensor": "tensor_io.bytes_read",
    "tensor_io.write_tensor": "tensor_io.bytes_written",
    "tensor_io.sha256_file": "tensor_io.bytes_hashed",
}

FIELDS = ("span_id", "parent_id", "name_idx", "start_ns", "end_ns", "op_id",
          "thread_idx", "work")
_WIDTH = len(FIELDS)


def _rows(args, index):
    try:
        return int(len(args[index]))
    except (IndexError, TypeError):
        return 0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _work(name: str, args: tuple, kwargs: dict) -> tuple[str, int] | None:
    """(counter, amount) of work a finished call did, read from its arguments."""
    if name in ("encoder.encode_batch", "encoder.forward_with_cache"):
        return f"{name}.rows", _rows(args, 1)
    if name == "encoder.backward_from_cache":
        us = kwargs.get("us", args[2] if len(args) > 2 else ())
        return f"{name}.rows", int(len(us))
    if name in ("rng.Lcg.fill_uniform", "rng.Lcg.fill_gaussian"):
        return "rng.values", int(args[1] if len(args) > 1 else kwargs["n"])
    if name in IO_COUNTERS:
        return IO_COUNTERS[name], _file_size(args[0] if args else kwargs.get("path"))
    return None


class Tracer:
    """Installs span-recording wrappers on uapkit and aggregates the spans."""

    def __init__(self, package: str = "uapkit"):
        self.package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._names: list[str] = []
        self._spans = array("q")
        self._next_id = 0
        self._thread_count = 0
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self.found: dict[str, dict] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer module that exists."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.found[layer] = {"present": False, "wrapped": [],
                                     "absent": list(EXPECTED[layer])}
        originals = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            wrapped = []
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
                wrapped.append(name)
            if layer == "rng" and hasattr(mod, "Lcg"):
                for meth in RNG_METHODS:
                    fn = getattr(mod.Lcg, meth, None)
                    if fn is not None:
                        self._patch(mod.Lcg, meth, self._wrap(fn, f"rng.Lcg.{meth}"))
                        wrapped.append(f"Lcg.{meth}")
            self.found[layer] = {
                "present": True, "wrapped": wrapped,
                "absent": [n for n in EXPECTED[layer] if n not in wrapped]}
        # rebind each name where its caller looks it up
        pkg = importlib.import_module(self.package)
        for mod in [pkg, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _patch(self, target, name, replacement) -> None:
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, replacement)

    def _wrap(self, fn, name: str):
        idx = len(self._names)
        self._names.append(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack, thread = tracer._thread_state()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            if stack:
                parent = stack[-1]
            elif tracer._main_stack and stack is not tracer._main_stack:
                # a worker thread: the span waiting on it is its parent
                parent = tracer._main_stack[-1]
            else:
                parent = -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer._record((span_id, parent, idx, start, end, tracer.op_id, thread),
                               _work(name, args, kwargs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _thread_state(self) -> tuple[list[int], int]:
        """This thread's span stack and index; an index is never reused."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            with self._lock:
                local.index = self._thread_count
                self._thread_count += 1
            if threading.current_thread() is threading.main_thread():
                self._main_stack = local.stack
        return local.stack, local.index

    def _record(self, span: tuple, work) -> None:
        amount = 0 if work is None else work[1]
        with self._lock:
            self._spans.extend((*span, amount))
            if work is not None:
                self.counts[work[0]] += amount

    # -- aggregation -------------------------------------------------------

    def spans(self) -> list[tuple]:
        s = self._spans
        return [tuple(s[i:i + _WIDTH]) for i in range(0, len(s), _WIDTH)]

    def name_of(self, idx: int) -> str:
        return self._names[idx]

    def self_times(self, spans: list[tuple]) -> dict[int, float]:
        """Self time in seconds per span id (see the module docstring)."""
        events = []
        parent = {}
        for sid, par, _, start, end, *_ in spans:
            parent[sid] = par
            events.append((start, 1, sid))
            events.append((end, 0, sid))
        events.sort()
        running_children = defaultdict(int)
        running = set()
        leaves = set()
        self_ns = defaultdict(float)
        prev = None
        for t, kind, sid in events:
            if leaves and t > prev:
                share = (t - prev) / len(leaves)
                for leaf in leaves:
                    self_ns[leaf] += share
            prev = t
            par = parent[sid]
            if kind == 1:
                running.add(sid)
                leaves.add(sid)
                if par in running:
                    running_children[par] += 1
                    leaves.discard(par)
            else:
                running.discard(sid)
                leaves.discard(sid)
                if par in running:
                    running_children[par] -= 1
                    if running_children[par] == 0:
                        leaves.add(par)
        return {sid: ns / 1e9 for sid, ns in self_ns.items()}

    def summary(self) -> dict:
        """Per-function calls and inclusive time, per-layer self time, counts."""
        spans = self.spans()
        self_s = self.self_times(spans)
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        roots = 0.0
        for sid, par, idx, start, end, *_ in spans:
            name = self._names[idx]
            calls[name] += 1
            inclusive[name] += (end - start) / 1e9
            layer_self[name.split(".", 1)[0]] += self_s.get(sid, 0.0)
            if par == -1:
                roots += (end - start) / 1e9
        return {"calls": dict(calls), "inclusive_s": dict(inclusive),
                "layer_self_s": layer_self, "root_s": roots,
                "counts": dict(self.counts), "spans": len(spans)}

    def calls_within(self, ancestor: str) -> dict[str, list[int]]:
        """[calls, work] per function, counting spans (transitively) inside
        spans named ancestor."""
        spans = self.spans()
        by_id = {s[0]: s for s in spans}
        out = defaultdict(lambda: [0, 0])
        for s in spans:
            par = s[1]
            while par in by_id:
                if self._names[by_id[par][2]] == ancestor:
                    entry = out[self._names[s[2]]]
                    entry[0] += 1
                    entry[1] += s[7]
                    break
                par = by_id[par][1]
        return dict(out)

    def write_spans(self, path) -> None:
        """Write the spans as JSON columns (times in ns from the first span)."""
        cols = [list(c) for c in zip(*self.spans())] or [[] for _ in FIELDS]
        t0 = min(cols[3], default=0)
        cols[3] = [v - t0 for v in cols[3]]
        cols[4] = [v - t0 for v in cols[4]]
        with open(path, "w") as fh:
            json.dump({"names": self._names, **dict(zip(FIELDS, cols))}, fh,
                      separators=(",", ":"))
