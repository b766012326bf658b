"""In-memory spans around the public functions of xstates' layers.

``install`` rebinds every public function and method of the eight layer
modules to a wrapper: the module attribute, each ``from .x import y`` copy
in another xstates module, and each re-export in ``xstates/__init__``.  A
wrapper records (name, start, end, parent) while the tracer is active.
Methods that cost about as much as a span are counted instead.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("pauli", "linalg", "model", "algebra", "simplex", "witness",
          "channels", "cli")

# Cheap per-call methods: a span would cost more than the call itself.
COUNT_ONLY = {"pauli.PauliString.__mul__", "pauli.PauliString.commutes",
              "pauli.PauliString.axis_on", "pauli.AxisFrame.image"}

def _materialize_bytes(p, *args, **kwargs):
    return 16 * 4 ** p.n


def _eigen_dim3(h, *args, **kwargs):
    return np.shape(h)[0] ** 3


def _lifted_bytes(rho, ch, qubits, n, *args, **kwargs):
    return len(ch.kraus) * 16 * 4 ** n * len(qubits)


# Work counts computed from the arguments of a call, labelled as computed.
WORK = {
    "model.materialize": ("model.materialize.bytes", _materialize_bytes),
    "linalg.hermitian_eigen": ("linalg.hermitian_eigen.dim3_sum", _eigen_dim3),
    "channels.apply_channel": ("channels.apply_channel.lifted_bytes", _lifted_bytes),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list = []       # (name_id, start_ns, end_ns, parent index)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self.active = False
        self._undo: list = []

    # ---- recording --------------------------------------------------------
    def span(self, name: str, fn, work=None):
        """Wrap ``fn`` so that each call records a span named ``name``."""
        name_id = self._name_id.setdefault(name, len(self._name_id))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if work is not None:
                self.work[work[0]] += work[1](*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, clock(), parent)
                stack.pop()
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        short = name.split(".")
        key = f"{short[0]}.{short[-1]}"
        return self.span(key, fn, WORK.get(key))

    # ---- patching ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"xstates.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "xstates" or mod_name.startswith("xstates.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced and not attr.startswith("__"):
                    self._set(mod, attr, val, replaced[id(val)])

    def _wrap_class(self, layer: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name != "__mul__":   # Pauli product
                continue
            full = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(full, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(full, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(full, raw)
            else:
                continue
            self._set(cls, name, raw, new)

    def _set(self, owner, attr, old, new) -> None:
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # ---- analysis ---------------------------------------------------------
    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, durations, self times) in seconds, one row per span.

        Spans nest properly in one thread, so the part of a span that its
        children cover is the sum of its direct children's durations.
        """
        if not self.spans:
            empty = np.zeros(0)
            return empty.astype(int), empty, empty
        arr = np.array(self.spans, dtype=np.int64)
        dur = (arr[:, 2] - arr[:, 1]) * 1e-9
        child = np.zeros(len(arr))
        has_parent = arr[:, 3] >= 0
        np.add.at(child, arr[has_parent, 3], dur[has_parent])
        return arr[:, 0], dur, dur - child

    def top_level_seconds(self) -> float:
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        top = arr[arr[:, 3] < 0]
        return float((top[:, 2] - top[:, 1]).sum() * 1e-9)

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV: index,parent,name,start_ns,end_ns."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.names[nid]},{start},{end}\n")
