"""Spans around the package's layer functions, recorded from outside the package.

A layer function is wrapped under every name it is reachable by: each loaded
``sparsehawkes`` module attribute that is the function object itself, so
``from .scan import batch_sequence_stats`` in another module is wrapped too.
Methods are wrapped on their class.  A function that no longer exists is
skipped and listed in ``missing``, so the trace keeps working as the package
changes.  The process is single-threaded where spans are recorded (forked
training workers record nothing), so open spans form one stack.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

PACKAGE = "sparsehawkes"


def _scan_events(args, kwargs):
    seqs = args[1] if len(args) > 1 else kwargs["seqs"]
    if hasattr(seqs, "sequences"):
        seqs = seqs.sequences
    return {"scan.events": sum(len(s) for s in seqs)}


def _rows_touched(args, kwargs):
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    return {"train.rows_touched": len(grads.entities)}


def _checkpoint_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"data_io.checkpoint_bytes": os.path.getsize(path)}


# (module, attribute path, span name, counter hook run before the call,
#  counter hook run after it)
LAYERS = [
    ("data_io", "read_cascade_file", "data_io.read_cascade_file", None, None),
    ("data_io", "write_checkpoint", "data_io.write_checkpoint", None, _checkpoint_bytes),
    ("data_io", "read_checkpoint_full", "data_io.read_checkpoint_full", None, None),
    ("model", "Dataset.__init__", "model.Dataset", None, None),
    ("model", "Dataset.flat_events", "model.flat_events", None, None),
    ("model", "Dataset.slot_tables", "model.slot_tables", None, None),
    ("scan", "batch_sequence_stats", "scan.batch_sequence_stats", _scan_events, None),
    ("lazy", "lazy_sequence_gradients", "lazy.lazy_sequence_gradients", None, None),
    ("lazy", "update_u_hat", "lazy.update_u_hat", None, None),
    ("lazy", "build_caches", "lazy.build_caches", None, None),
    ("lazy", "accumulate_lazy_gradient", "lazy.accumulate_lazy_gradient", None, None),
    ("lazy", "lazy_log_likelihood", "lazy.lazy_log_likelihood", None, None),
    ("train", "adam_step", "train.adam_step", _rows_touched, None),
    ("train", "init_params", "train.init_params", None, None),
    ("train", "train", "train.train", None, None),
    ("train", "train_parallel", "train.train_parallel", None, None),
    ("dense", "dense_gradient", "dense.dense_gradient", None, None),
    ("cli", "main", "cli.main", None, None),
]


class Tracer:
    """Records ``(name, parent, start, end)`` spans and named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                counts.update(before(args, kwargs))
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = time.perf_counter()
                stack.pop()
                counts[name + ".calls"] += 1
                if after is not None:
                    counts.update(after(args, kwargs))

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module_name, path, name, before, after in LAYERS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(fn, name, before, after)
            if outer:
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, wrapped)

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> Counter:
        """Seconds per span name, each span less the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, _, start, end), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[code[n], p, s, e] for n, p, s, e in self.spans],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
