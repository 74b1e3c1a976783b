"""Span tracer that times calls into a library's layers from outside it.

The tracer swaps timing wrappers in for the module and class attributes
through which the layers call each other. Python looks those attributes up at
call time, so a wrapper also sees calls made from inside the module that
defines the function. Nothing in the library itself is changed, and
`uninstall` puts every original back.

Each wrapped call is a span: (id, layer, start, end, parent id, run id).
Spans are kept in memory and written out by `save_spans` at the end. A
layer's self time is its span's duration minus the time its direct child
spans cover; calls run on one thread and nest, so the children never
overlap and that cover is the sum of their durations. Layers called
hundreds of thousands of times (`keep_spans=False`) still take part in the
self-time accounting of their parents but only add to their layer's count
and time totals, which bounds memory.
"""
from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0


class Tracer:
    """Collects spans and per-layer totals for the wrapped attributes."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.layer_names: list[str] = []
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def wrap(self, module, dotted: str, layer: str, keep_spans: bool = True,
             work=None, rebind_in=()) -> bool:
        """Replace `module.<dotted>` with a timing wrapper for `layer`.

        `dotted` may name a class attribute ("Class.method"). Every module in
        `rebind_in` that holds the same function object under the same name
        (a `from x import f` binding or a re-export) gets the wrapper too.
        `work(result)` returns a work count added to the layer's total.
        Returns False, and records the attribute as absent, when it no longer
        exists.
        """
        owner = module
        parts = dotted.split(".")
        try:
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
        except AttributeError:
            self.absent.append(f"{module.__name__}.{dotted}")
            self.stats.setdefault(layer, LayerStats())
            return False
        wrapper = self._make_wrapper(original, layer, keep_spans, work)
        self._set(owner, parts[-1], wrapper)
        if len(parts) == 1:
            for other in rebind_in:
                if other is not module and \
                        other.__dict__.get(parts[-1]) is original:
                    self._set(other, parts[-1], wrapper)
        return True

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- recording --------------------------------------------------------

    def call(self, original, layer: str, args, kwargs):
        """Run the wrapped function; a subclass may add work here."""
        return original(*args, **kwargs)

    def _make_wrapper(self, original, layer, keep_spans, work):
        if layer not in self.stats:
            self.stats[layer] = LayerStats()
            self.layer_names.append(layer)
        stats = self.stats[layer]
        layer_id = self.layer_names.index(layer)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        call = self.call
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = -1
            if keep_spans:
                span_id = tracer._next_span
                tracer._next_span += 1
            parent = _parent_span(stack)
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = call(original, layer, args, kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep_spans:
                    spans.append((span_id, layer_id, frame[0], end, parent,
                                  tracer.run_id))
            if work is not None:
                stats.work += work(result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- output -----------------------------------------------------------

    def save_spans(self, path) -> None:
        """Write the kept spans as a compressed .npz (one array per field)."""
        import numpy as np

        arr = np.array(self.spans, dtype=np.float64).reshape(-1, 6)
        np.savez_compressed(
            path, span_id=arr[:, 0].astype(np.int64),
            layer_id=arr[:, 1].astype(np.int32), start=arr[:, 2],
            end=arr[:, 3], parent=arr[:, 4].astype(np.int64),
            run_id=arr[:, 5].astype(np.int32),
            layer_names=np.array(self.layer_names))


def _parent_span(stack) -> int:
    for frame in reversed(stack):
        if frame[2] >= 0:
            return frame[2]
    return -1
