"""In-memory spans around gazecast's public calls, and their self times.

Tracing works from outside the library: while ``Tracer.instrument`` is
active, every public function of the given modules is replaced, in each
module namespace that binds it, by a wrapper that records one span (name,
start, end, parent) per call. Calls that the library makes to its own
public functions (``lstm_train`` -> ``loss_and_grad``, ``opkf_predict_multi``
-> ``compute_velocity``) therefore show up as child spans. The original
functions are restored on exit.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import NamedTuple

# called once per sample; a span each would cost more than the work it times
PER_SAMPLE_FUNCTIONS = frozenset({"kalman_predict", "kalman_update"})


def label(fn) -> str:
    """Span name of a library function: ``module.function``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    samples: int  # n_samples of a recording passed first, else 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, samples: int = 0):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id so children sort after
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, samples)

    def _wrap(self, fn):
        name = label(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            samples = getattr(args[0], "n_samples", 0) if args else 0
            with self.span(name, samples if isinstance(samples, int) else 0):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def instrument(self, modules):
        """Record a span for every public gazecast function call inside."""
        saved = []
        try:
            for mod in modules:
                for attr, fn in list(vars(mod).items()):
                    if (
                        inspect.isfunction(fn)
                        and not attr.startswith("_")
                        and attr not in PER_SAMPLE_FUNCTIONS
                        and fn.__module__.startswith("gazecast.")
                    ):
                        saved.append((mod, attr, fn))
                        setattr(mod, attr, self._wrap(fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (calls are sequential), so their
    durations add up.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


class LayerTotals(NamedTuple):
    calls: int
    total_s: float  # inclusive
    self_s: float
    samples: int


def totals(spans, parent_name: str | None = None) -> dict[str, LayerTotals]:
    """Per span name: call count, inclusive and self seconds, samples.

    With ``parent_name`` only spans whose direct parent has that name count.
    """
    selfs = self_times(spans)
    acc: dict[str, list] = {}
    for s, own in zip(spans, selfs):
        if parent_name is not None and (s.parent is None or spans[s.parent].name != parent_name):
            continue
        row = acc.setdefault(s.name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += own
        row[3] += s.samples
    return {k: LayerTotals(*v) for k, v in acc.items()}
