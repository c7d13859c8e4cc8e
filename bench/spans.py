"""In-memory spans around the benchmark's calls into lexbeam.

A span is ``[name, start, end, parent, record, calls, inner_s]``: the
layer call it times, its ``perf_counter`` interval, the index of the
enclosing span (or -1), the record id, and the number and total time of
scorer calls made inside it. Scorer calls come from the decoder, not
from the benchmark, and number up to about a hundred thousand per
pass, so they are folded into counters on the enclosing span rather than
kept as spans of their own. Spans stay in memory and are written out
once, after the timed passes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

NAME, START, END, PARENT, RECORD, CALLS, INNER = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, record=None):
        parent = self._open[-1] if self._open else -1
        entry = [name, perf_counter(), 0.0, parent, record, 0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(entry)
        try:
            yield entry
        finally:
            entry[END] = perf_counter()
            self._open.pop()

    def add_call(self, seconds: float) -> None:
        if self._open:
            entry = self.spans[self._open[-1]]
            entry[CALLS] += 1
            entry[INNER] += seconds

    def wrap_scorer(self, scorer):
        return TimedScorer(scorer, self)

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "record", "scorer_calls", "scorer_s")
        with open(path, "w", encoding="utf-8") as fp:
            for entry in self.spans:
                fp.write(json.dumps(dict(zip(keys, entry))) + "\n")


class NullTracer:
    """Tracing off: no spans, no clock reads, the scorer passed through."""

    def span(self, name: str, record=None):
        return nullcontext()

    def wrap_scorer(self, scorer):
        return scorer


class TimedScorer:
    """Forwards every attribute of the wrapped scorer and times every
    public method call.

    Attributes are looked up on the wrapped object, so ``hasattr`` and
    ``isinstance`` answer as they would for the scorer itself, and a
    decoder that chooses a scorer method by what the scorer offers takes
    the same path with tracing on and off.
    """

    __slots__ = ("_target", "_tracer", "_timed")

    def __init__(self, target, tracer: Tracer):
        self._target = target
        self._tracer = tracer
        self._timed: dict = {}

    @property
    def __class__(self):
        return type(self._target)

    def __getattr__(self, name: str):
        timed = self._timed.get(name)
        if timed is not None:
            return timed
        value = getattr(self._target, name)
        if name.startswith("_") or not callable(value):
            return value
        add_call = self._tracer.add_call

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return value(*args, **kwargs)
            finally:
                add_call(perf_counter() - t0)

        self._timed[name] = timed
        return timed
