"""
Spans around the program's public functions, installed from outside.

``Tracer.patch`` replaces a module function or a class method with a
wrapper and ``Tracer.restore`` puts every original back. Spans are kept
in memory as one running total per name: calls, total time and self
time, where self time leaves out the time of the spans opened inside
it. A call made while the innermost open span belongs to the same
group is passed through untimed: the stacking model's forests are
themselves classifiers, and their calls inside a stacking step belong
to that step.
"""

from __future__ import annotations

import functools
import time


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans = {}
        self.counts = {}
        self._open = []          # [group, child seconds] per open span
        self._patches = []

    def _timed(self, name, fn, group):
        span = self.spans.setdefault(name, Span())
        stack = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == group:
                return fn(*args, **kwargs)
            frame = [group, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - frame[1]
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attribute, name, group=None):
        """Time calls of ``owner.attribute`` as span ``name``."""
        original = getattr(owner, attribute)
        setattr(owner, attribute,
                self._timed(name, original, group or name))
        self._patches.append((owner, attribute, original))

    def count(self, owner, attribute, name):
        """Count every call of ``owner.attribute``, nested or not."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self._counted(name, original))
        self._patches.append((owner, attribute, original))

    def restore(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
