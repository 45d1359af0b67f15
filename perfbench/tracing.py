"""Spans recorded by the benchmark around calls into sqsplit.

The program itself carries no tracing.  In a traced run the benchmark
replaces public functions with wrappers at the place the caller looks
the name up (for example ``sqsplit.cli.moments``, which is what
``sqsplit.cli`` calls), records one span per call, and restores the
originals afterwards.  Only the standard library is imported here, so a
fresh interpreter can load this module before timing ``import sqsplit``.
"""

import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder: (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self.results = {}
        self._stack = []

    def reset(self):
        self.spans = []
        self.results = {}
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn):
        """fn wrapped in a span; the first call of each name is kept as
        (fn, args, kwargs, result) so metrics can read counts off it."""

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.results.setdefault(name, (fn, args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patched(self, targets):
        """Replace (module, attribute, span name) targets with wrappers."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def fired(self, name):
        return any(s[0] == name for s in self.spans)

    def count(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def total(self, *names):
        """Summed duration of every span with one of the given names,
        or None when none of them fired."""
        found = [s[2] - s[1] for s in self.spans if s[0] in names]
        return sum(found) if found else None

    def self_time(self, name):
        """Duration of the named spans minus their direct children."""
        if not self.fired(name):
            return None
        own = 0.0
        for i, (n, start, end, _) in enumerate(self.spans):
            if n != name:
                continue
            children = sum(s[2] - s[1] for s in self.spans if s[3] == i)
            own += (end - start) - children
        return own

    def dump(self):
        return {"spans": self.spans}

    @classmethod
    def load(cls, payload):
        tracer = cls()
        tracer.spans = [list(s) for s in payload["spans"]]
        return tracer
