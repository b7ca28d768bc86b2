"""In-memory span tracer for the traced (--trace 1) benchmark run.

The tracer wraps sivcav's public functions by replacing their module
attributes, so calls made inside the package through those names are seen
too; nothing under src/ changes. Each span records its name, start, end,
parent span and operation id. Spans stay in memory and are written out once,
when the run ends. Counts are taken at the same boundaries.

A layer's self time is its spans' duration minus the time covered by their
direct child spans. Hot leaf functions (``g2_model``, ``lorentzian_peak``)
are counted but not spanned: their time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op id)
        self.counts = defaultdict(float)
        self.op_id = None
        self._stack = []
        self._saved = []

    # --- wrappers ---------------------------------------------------------------

    def spanned(self, name, fn, after=None):
        """Wrap fn in a span; ``after(counts, args, kwargs, result)`` adds
        counts from the call once it has returned."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # --- results -------------------------------------------------------------------

    def times(self):
        """(self time, inclusive time) summed per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        total = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            own[name] += end - start - child[i]
            total[name] += end - start
        return own, total

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("# index,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op}\n")
