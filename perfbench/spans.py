"""In-memory span recording for the benchmark's traced runs.

A span is one call into a layer: its name, start and end (monotonic
nanoseconds), the span that caused it, and the request it belongs to.
Spans are recorded from the benchmark's own files by wrapping public
functions of each layer (:func:`instrument`); the library itself is not
edited.  Spans stay in memory and are written out when the run ends.

A span opened on a thread with no open span of its own (the service's
background flush loop, say) takes the open request root as its parent,
so a request's spans form one tree across threads.
"""

from __future__ import annotations

import contextlib
import threading
import time

__all__ = [
    "Span",
    "Tracer",
    "call",
    "instrument",
    "instrumented",
    "percentile",
    "self_times",
]


class Span:
    __slots__ = ("name", "start_ns", "end_ns", "parent", "request", "attrs")

    def __init__(self, name: str, parent: int, request: int):
        self.name = name
        self.parent = parent
        self.request = request
        self.start_ns = 0
        self.end_ns = 0
        self.attrs: dict | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": self.parent,
            "request": self.request,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = -1
        self._request = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            request = self.spans[parent].request
        else:
            parent, request = self._root, self._request
        span = Span(name, parent, request)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start_ns = time.perf_counter_ns()
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        self._stack().pop()
        return span

    def open_root(self, name: str, request: int) -> int:
        """Open the root span of one request; spans opened while it is
        open (on any thread) belong to ``request``."""
        self._request = request
        index = self.open(name)
        self._root = index
        return index

    def close_root(self, index: int) -> Span:
        span = self.close(index)
        self._root = -1
        return span

    def current_name(self) -> str | None:
        stack = self._stack()
        return self.spans[stack[-1]].name if stack else None

    def wrap(self, fn, name: str, *, attrs=None, only_under: str | None = None):
        """``fn`` recording one span per call.  ``attrs(args, result)``
        may return a dict stored on the span; ``only_under`` records
        only calls made while a span of that name is innermost."""
        tracer = self

        def traced(*args, **kwargs):
            if only_under is not None and tracer.current_name() != only_under:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def call(tracer: Tracer | None, name: str, fn, *args,
         request: int | None = None):
    """``fn(*args)``, inside a span when ``tracer`` is given; with
    ``request`` the span is that request's root."""
    if tracer is None:
        return fn(*args)
    if request is None:
        index = tracer.open(name)
        try:
            return fn(*args)
        finally:
            tracer.close(index)
    index = tracer.open_root(name, request)
    try:
        return fn(*args)
    finally:
        tracer.close_root(index)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval that its
    child spans cover (children clipped to the parent, overlaps merged)."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start_ns, span.start_ns),
             min(spans[c].end_ns, span.end_ns))
            for c in children.get(index, ())
        )
        covered = 0
        cur_start = cur_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.duration_ns - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` percent of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    rank = -(-q * len(ordered) // 100)  # ceil(q * n / 100)
    return float(ordered[max(0, int(rank) - 1)])


def _rows(args, result) -> dict:
    return {"rows": int(len(args[1]))}


def _batch(args, result) -> dict:
    return {"size": len(result)}


def _hit(args, result) -> dict:
    return {"hit": result is not None}


def _solved(args, result) -> dict:
    return {"solved": sum(i is not None for i in result.interpretations)}


def _rounds(args, result) -> dict:
    return {
        "k": len(result),
        "pairs": sum(r.n_pairs for r in result),
        "certified": sum(r.n_certified for r in result),
    }


def _engine(args, result) -> dict:
    return {"k": len(result)}


def instrument(tracer: Tracer):
    """Wrap one public entry point of every in-process layer; returns a
    function that restores the originals.

    ============================  =====================  ===============
    wrapped                       span                   layer
    ============================  =====================  ===============
    InterpretationService         service.interpret      serving.service
    .interpret
    InterpretationService.flush   service.flush          serving.service
    RegionCache.lookup / insert   cache.lookup / insert  serving.cache
    L2ReaderCache.lookup          store.lookup           serving.store
    PredictionAPI.predict_proba   api.predict            api
    sample_hypercube              sampling.draw          core.sampling
    interpret_batch               rounds.interpret       core.batch
    run_solve_rounds_batched      rounds.solve           core.rounds
    build_interpretation          rounds.build           core.rounds
    solve_pair_systems_stacked    engine.solve           core.engine
    backend eigvalsh / solve /    engine.eigvalsh /      core.engine
    matmul / lstsq                linsolve / matmul /
                                  lstsq
    ============================  =====================  ===============

    The backend kernels are recorded only when called from the engine.
    """
    from repro.api import PredictionAPI
    from repro.core import batch as core_batch
    from repro.core import engine as core_engine
    from repro.core.backend import resolve_backend
    from repro.core.batch import BatchOpenAPIInterpreter
    from repro.serving import InterpretationService, L2ReaderCache, RegionCache

    targets = [
        (InterpretationService, "interpret", "service.interpret", None, None),
        (InterpretationService, "flush", "service.flush", _batch, None),
        (RegionCache, "lookup", "cache.lookup", _hit, None),
        (RegionCache, "insert", "cache.insert", None, None),
        (L2ReaderCache, "lookup", "store.lookup", _hit, None),
        (PredictionAPI, "predict_proba", "api.predict", _rows, None),
        (BatchOpenAPIInterpreter, "interpret_batch", "rounds.interpret",
         _solved, None),
        (core_batch, "sample_hypercube", "sampling.draw", None, None),
        (core_batch, "run_solve_rounds_batched", "rounds.solve",
         _rounds, None),
        (core_batch, "build_interpretation", "rounds.build", None, None),
        (core_engine, "solve_pair_systems_stacked", "engine.solve",
         _engine, None),
    ]
    backend = resolve_backend(None)
    for method, span in (
        ("eigvalsh", "engine.eigvalsh"),
        ("solve", "engine.linsolve"),
        ("matmul", "engine.matmul"),
        ("lstsq", "engine.lstsq"),
    ):
        targets.append((backend, method, span, None, "engine.solve"))

    saved = []
    for owner, attr, span, attrs, only_under in targets:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        saved.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, tracer.wrap(
            original, span, attrs=attrs, only_under=only_under
        ))

    def restore() -> None:
        for owner, attr, had_own, original in reversed(saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return restore


@contextlib.contextmanager
def instrumented(tracer: Tracer | None):
    """The layers instrumented for the ``with`` block (nothing when
    ``tracer`` is ``None``)."""
    if tracer is None:
        yield
        return
    restore = instrument(tracer)
    try:
        yield
    finally:
        restore()
