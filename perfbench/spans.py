"""In-memory span tracing around the calls between gelfond modules.

Nothing in the package is instrumented.  A traced run swaps selected
module-level bindings (for example ``gelfond.certify.sturmian_balance``, the
name through which certify calls into circle) for timing wrappers and puts
the originals back when it ends.

Two kinds of boundary are recorded:

* spans: one record per call, ``[name, start, end, parent, item, leaf_s,
  aux]``, for calls that are few per item (a certificate, a balance
  integral, an enumeration);
* leaves: calls made tens of thousands of times per item (``_f``,
  ``_tau_pairs``, ``build_cycle``).  They get a call count and a time total,
  and their time is charged to the span that was open when they ran.  A
  record per call would cost more memory than the run itself.

A span's self time is its duration minus the spans and leaf time inside it,
so for every item the self times of all its spans plus its leaf times add up
to the item span's duration.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, ITEM, LEAF_S, AUX = range(7)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class NullTracer:
    """Untraced run: the same interface, no records."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def item(self, item_id):
        yield


class Tracer:
    """Span and leaf records for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.current_item = None
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self._restore: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, 0.0, 0.0, parent, self.current_item, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self.stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def item(self, item_id):
        """Root span of one benchmark item; spans inside carry its id."""
        self.current_item = item_id
        rec = self._open("bench.item")
        try:
            yield
        finally:
            self._close(rec)
            self.current_item = None

    def span_wrapper(self, name, fn, on_exit=None, aux=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            if aux is not None:
                rec[AUX] = aux()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if on_exit is not None:
                on_exit(rec, out)
            return out

        return wrapper

    def leaf_wrapper(self, name, fn, on_exit=None):
        tracer = self
        calls, total = self.leaf_calls, self.leaf_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[name] += 1
                total[name] += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][LEAF_S] += dt
            if on_exit is not None:
                on_exit(args, out)
            return out

        return wrapper

    # -- installing -------------------------------------------------------

    def patch(self, module, attr, wrapper_factory, name, **kwargs):
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, wrapper_factory(name, original, **kwargs))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- reading ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like self.spans."""
        out = [rec[END] - rec[START] - rec[LEAF_S] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                out[rec[PARENT]] -= rec[END] - rec[START]
        return out

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, rec in enumerate(self.spans):
            if rec[PARENT] >= 0:
                kids[rec[PARENT]].append(i)
        return kids

    def dump(self, path: str) -> None:
        """Write every span and leaf total as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "item", "leaf_s"],
                "spans": [rec[:AUX] for rec in self.spans],
                "leaves": {k: {"calls": self.leaf_calls[k],
                               "s": self.leaf_s[k]}
                           for k in sorted(self.leaf_calls)},
            }, fh)
