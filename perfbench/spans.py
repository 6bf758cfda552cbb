"""Spans and counts around the package's public functions, recorded from
the benchmark's own files.

Each wrapper replaces a function at the name its caller looks it up by
(``lcfrs.recognizer.pi_copy`` is what ``recognizer._run`` calls), records a
span (name, start, end, parent) and runs an optional hook on the arguments
and result to count work.  Spans stay in memory and are written out when
the run ends.  A layer's self time is its span's duration minus the time its
child spans cover.  A wrapped name that no longer exists is reported as
absent; only the traced run looks these names up.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(int)
        self.absent = []
        self._stack = []
        self._undo = []
        self.active = False

    # -- recording -------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        if self.active:
            self.counts[name] += amount

    def peak(self, name, value):
        if self.active:
            self.maxima[name] = max(self.maxima[name], value)

    # -- wrapping --------------------------------------------------------

    def wrap(self, target: str, name: str, hook=None) -> None:
        """Wrap ``module.attr`` or ``module.obj.attr`` (``target``) in a
        span named ``name``; ``hook(tracer, args, result)`` counts work."""
        modname, _, rest = target.partition(":")
        try:
            owner = importlib.import_module(modname)
            *path, attr = rest.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(target.replace(":", "."))
            return
        if not callable(fn):
            self.absent.append(target.replace(":", "."))
            return
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if hook is not None and tracer.active:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def totals(self):
        """{name: (calls, total seconds, self seconds)}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        """One JSON object per span, then the counts and absent names."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), "maxima": dict(self.maxima),
                                 "absent": self.absent}) + "\n")
