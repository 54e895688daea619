"""The two workloads of the repository benchmark.

Every workload builds its model with the library's fixed recipe
(:func:`~repro.serving.worker.train_worker_model` with seed 0) and
makes its requests from the workload seed alone.  Every ok answer is
checked against the white-box ground truth of the same model
(:func:`~repro.models.openbox.ground_truth_decision_features`); a wrong
answer counts as a failed request.

``gateway-l2``
    A 2-worker :class:`~repro.serving.Gateway` in its own process
    (:mod:`fleet`), driven by one closed-loop client over drifting-Zipf
    repeats of more region-distinct anchors than a worker's L1 holds,
    so the shared L2 serves a large share of the requests.  The client
    and the fleet share one CPU (:func:`pin_to_one_cpu`).
``image-batch``
    ``interpret_many`` over synthetic-fashion test images on a started
    in-process service.

The traced run (``trace=True``) reports per-layer numbers instead.  For
the in-process workload it wraps each layer's public entry points
(:func:`spans.instrument`) around a replay of one batch.  Layers inside
the worker processes cannot be wrapped from outside, so for the gateway
workload the traced run first drives the fleet exactly like the
untraced run and reads its ``/stats`` counters, then replays the same
stream in-process through services built the way
``repro.serving.worker.main`` builds a worker, over the L2 directory
the fleet's writer filled.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import PredictionAPI
from repro.models.openbox import ground_truth_decision_features
from repro.serving import (
    GatewayClient,
    InterpretationService,
    L2ReaderCache,
    drifting_zipf_workload,
)
from repro.serving.worker import (
    distinct_region_anchors,
    interpretation_payload,
    train_worker_model,
)

import spans as spanlib
from fleet import L1_ENTRIES, N_WORKERS, FleetProcess, vm_hwm_mib

WORKLOADS = ("gateway-l2", "image-batch")

#: The model recipe seed; fixed, so every seed runs the same model.
MODEL_SEED = 0
#: Set-ups per untraced run; ``setup_s`` is their median.  An
#: ``image-batch`` set-up is a 1-second model training, so it takes
#: more of them to steady the median.
GATEWAY_SETUP_REPS = 3
IMAGE_SETUP_REPS = 7
#: ``gateway-l2`` anchor candidates, from the head of the credit test
#: split.  Picking anchors costs time quadratic in this number.
N_CANDIDATES = 128
#: Requests between two rotations of the ``gateway-l2`` stream's
#: popularity ranking.
DRIFT_INTERVAL = 1_000
#: Untimed ``gateway-l2`` requests after the anchors' first pass, so
#: each worker's L1 holds the stream's hot set when timing starts.
WARM_REQUESTS = 200
#: Seconds the warm-up waits for the gateway's writer to harvest every
#: anchor's region.
HARVEST_TIMEOUT_S = 60.0
#: Timed ``gateway-l2`` requests its traced run replays in-process.
L2_REPLAY = 2_000
#: How many synthetic-fashion test images every ``image-batch`` batch
#: interprets, in seed order, as one ``interpret_many`` call.  The set
#: is fixed, so the seed only orders it: per-image cost ranges over
#: about 2x (6 to 12 shrink rounds), and a lock-step batch costs more
#: the more its members' round counts differ.  Other images for every
#: seed spread throughput by 13% over three seeds, above a third of its
#: 0.25 bound.
IMAGE_BATCH = 8
#: Ground-truth tolerance on decision features.
GT_RTOL = 1e-6
GT_ATOL = 1e-6
#: Stated tolerance: the self times of a traced request's layer spans
#: (every span of the request but its root) sum to its client-observed
#: latency within this many percent (median over requests).
RECONCILE_TOL_PCT = 5.0


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def credit_anchors() -> tuple[object, np.ndarray]:
    """The credit-scoring model and its anchors: those of the first
    ``N_CANDIDATES`` instances of the recipe's test split that
    :func:`distinct_region_anchors` keeps, so each anchor has exactly
    one servable answer from any tier."""
    _data, test, model = train_worker_model("credit-scoring", MODEL_SEED)
    anchors = distinct_region_anchors(
        PredictionAPI(model), test.X[:N_CANDIDATES], seed=MODEL_SEED
    )
    return model, anchors


def l2_stream(anchors: np.ndarray, seed: int, n: int) -> np.ndarray:
    """Drifting-Zipf repeats of ``anchors`` drawn with the workload seed."""
    return drifting_zipf_workload(
        anchors, n, drift_interval=DRIFT_INTERVAL,
        seed=np.random.default_rng([0x12C4, seed]),
    )


def image_order(seed: int) -> np.ndarray:
    return np.random.default_rng([0x1A6E, seed]).permutation(IMAGE_BATCH)


# ---------------------------------------------------------------------- #
# Outcomes and correctness
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """One request as the client saw it."""

    index: int
    latency_s: float
    ok: bool
    code: str | None = None
    target: int = -1
    features: np.ndarray | None = None
    n_queries: int = 0
    from_cache: bool = False
    wrong: bool = False


def outcome_from_body(index: int, latency_s: float, body: dict) -> Outcome:
    if not body.get("ok"):
        return Outcome(index, latency_s, False,
                       code=body.get("error", {}).get("code", "unknown"))
    result = body["result"]
    return Outcome(
        index, latency_s, True,
        target=int(result["target_class"]),
        features=np.asarray(result["decision_features"], dtype=np.float64),
        n_queries=int(body.get("n_queries", 0)),
        from_cache=bool(body.get("served_from_cache")),
    )


def outcome_from_response(index: int, latency_s: float, response) -> Outcome:
    if not response.ok:
        return Outcome(index, latency_s, False, code=response.error.code)
    interp = response.interpretation
    return Outcome(
        index, latency_s, True,
        target=int(interp.target_class),
        features=np.asarray(interp.decision_features, dtype=np.float64),
        n_queries=int(response.n_queries),
        from_cache=bool(response.served_from_cache),
    )


class GroundTruth:
    """White-box decision features of the in-process model, memoized
    per ``(instance, class)``."""

    def __init__(self, model):
        self.model = model
        self._memo: dict[tuple[bytes, int], np.ndarray] = {}

    def expected(self, x0: np.ndarray, target: int) -> np.ndarray:
        key = (x0.tobytes(), target)
        gt = self._memo.get(key)
        if gt is None:
            gt = ground_truth_decision_features(self.model, x0, target)
            self._memo[key] = gt
        return gt

    def matches(self, x0: np.ndarray, target: int, features) -> bool:
        expected = self.expected(x0, target)
        return bool(
            features is not None
            and np.shape(features) == expected.shape
            and np.allclose(features, expected, rtol=GT_RTOL, atol=GT_ATOL)
        )

    def mark(self, outcomes: list[Outcome], stream: np.ndarray) -> int:
        """Flag every ok outcome whose answer fails the check; returns
        the number flagged."""
        wrong = 0
        for o in outcomes:
            if o.ok and not self.matches(stream[o.index], o.target, o.features):
                o.wrong = True
                wrong += 1
        return wrong


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #
@dataclass
class RunResult:
    outcomes: list[Outcome] = field(default_factory=list)
    elapsed_s: float = 0.0
    api_rows: int = 0
    setup_s: list[float] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    checks: dict[str, bool] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    #: Extra numbers for the raw record only.
    notes: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok or o.wrong)

    @property
    def wrong(self) -> int:
        return sum(1 for o in self.outcomes if o.wrong)

    def end_to_end(self) -> dict[str, float]:
        good = self.attempted - self.failed
        latencies_ms = [o.latency_s * 1e3 for o in self.outcomes]
        return {
            "throughput_rps": good / self.elapsed_s,
            "latency_p50_ms": spanlib.percentile(latencies_ms, 50),
            "latency_p95_ms": spanlib.percentile(latencies_ms, 95),
            "api_queries_per_interp": self.api_rows / max(1, good),
            "ok_ratio": good / max(1, self.attempted),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": self.peak_rss_mib,
        }


def _self_rss_mib() -> float:
    return vm_hwm_mib(os.getpid())


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p50(values) -> float:
    return spanlib.percentile(values, 50) if values else 0.0


# ---------------------------------------------------------------------- #
# The gateway workload
# ---------------------------------------------------------------------- #
class GatewaySetup:
    """One set-up of ``gateway-l2``: a fresh fleet over an empty L2
    directory, warmed.  Every anchor is sent once, so the fleet solves
    it and the gateway's writer harvests its region into the L2; then
    the first ``WARM_REQUESTS`` of the stream fill the workers' L1."""

    def __init__(self, anchors: np.ndarray, stream: np.ndarray,
                 l2_dir: Path):
        self.l2_dir = l2_dir
        self.fleet = FleetProcess(self.l2_dir).start()
        self.client = GatewayClient("127.0.0.1", self.fleet.port)
        try:
            self._warm(anchors, stream[:WARM_REQUESTS])
        except BaseException:
            self.close()
            raise

    def _warm(self, anchors: np.ndarray, warm: np.ndarray) -> None:
        for x0 in anchors:
            self._expect_ok(self.client.interpret(x0))
        deadline = time.monotonic() + HARVEST_TIMEOUT_S
        while True:
            stats = self.client.stats()
            harvested = stats["harvested"] + stats["harvest_duplicates"]
            if harvested >= len(anchors):
                break
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"the gateway's writer harvested {stats['harvested']} "
                    f"of {len(anchors)} anchor regions"
                )
            time.sleep(0.01)
        for x0 in warm:
            self._expect_ok(self.client.interpret(x0))

    @staticmethod
    def _expect_ok(body: dict) -> None:
        if not body.get("ok"):
            raise RuntimeError(f"warm-up request failed: {body.get('error')}")

    def close(self) -> None:
        self.client.close()
        self.fleet.stop()


def fleet_counters(stats: dict) -> dict:
    """The /stats numbers the benchmark reads, summed over live workers."""
    live = [w for w in stats["per_worker"] if w.get("alive")]
    p50s = [w["service"]["p50_latency_s"] for w in live
            if w["service"]["p50_latency_s"] is not None]
    return {
        "n_ok": stats["n_ok"],
        "shed": stats["n_shed"],
        "worker_lost": stats["n_worker_lost"],
        "queue_depth_peak": stats["queue_depth_peak"],
        "harvested": stats["harvested"],
        "harvest_duplicates": stats["harvest_duplicates"],
        "publishes": stats["writer_epoch"],
        "max_epoch_lag": stats["max_epoch_lag"],
        "api_rows": sum(w["service"]["n_queries"] for w in live),
        "refreshes": sum(w["tier"]["refreshes"] for w in live),
        "l2_hits": sum(w["tier"]["l2_hits"] for w in live),
        "l2_misses": sum(w["tier"]["l2_misses"] for w in live),
        "index_fallbacks": sum(
            w["tier"]["l1"]["index_fallbacks"] for w in live
        ),
        "worker_p50_ms": 1e3 * _median(p50s),
    }


def drive_gateway(port: int, stream: np.ndarray, seconds: float
                  ) -> tuple[list[Outcome], float]:
    """Closed loop from one client on one connection: each request goes
    out when the reply to the last one is in, until ``seconds`` pass."""
    client = GatewayClient("127.0.0.1", port)
    outcomes: list[Outcome] = []
    try:
        start = time.perf_counter()
        deadline = start + seconds
        for i, x0 in enumerate(stream):
            t0 = time.perf_counter()
            if t0 >= deadline:
                return outcomes, t0 - start
            body = client.interpret(x0)
            outcomes.append(outcome_from_body(i, time.perf_counter() - t0, body))
    finally:
        client.close()
    raise RuntimeError("request stream exhausted")


def pin_to_one_cpu() -> None:
    """Confine this process, and the processes it starts from now on, to
    the lowest CPU it may run on.  With one request in flight only one
    of the client, the gateway and a worker runs at a time, and on a
    small VM waking a process on another, idle CPU can cost more than
    the request itself."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_gateway(seed: int, seconds: float, trace: bool,
                workdir: Path) -> RunResult:
    result = RunResult()
    pin_to_one_cpu()
    model, anchors = credit_anchors()
    stream = l2_stream(anchors, seed, WARM_REQUESTS + int(seconds * 2_000))
    measured = stream[WARM_REQUESTS:]
    fresh_dirs = (workdir / f"l2-{rep}" for rep in itertools.count())
    setup = _repeat_setup(
        lambda: GatewaySetup(anchors, stream, next(fresh_dirs)),
        1 if trace else GATEWAY_SETUP_REPS, result,
    )
    try:
        before = fleet_counters(setup.client.stats())
        outcomes, elapsed = drive_gateway(setup.fleet.port, measured, seconds)
        after = fleet_counters(setup.client.stats())
        result.peak_rss_mib = setup.fleet.peak_rss_mib()
    finally:
        setup.close()
    result.outcomes, result.elapsed_s = outcomes, elapsed
    result.notes = {"anchors": len(anchors), "fleet_before": before,
                    "fleet_after": after}
    delta = {k: after[k] - before[k] for k in after}
    result.api_rows = delta["api_rows"]
    result.checks = {
        "client ok count equals gateway n_ok":
            delta["n_ok"] == sum(o.ok for o in outcomes),
        "API meter delta equals summed response n_queries":
            delta["api_rows"] == sum(o.n_queries for o in outcomes),
    }
    GroundTruth(model).mark(outcomes, measured)
    if trace:
        client_p50 = _p50([o.latency_s * 1e3 for o in outcomes])
        # The writer works during the warm-up only, so its counters
        # are the fleet's totals; the rest cover the timed window.
        result.layer = {
            "gateway.outside_worker_ms_p50":
                client_p50 - after["worker_p50_ms"],
            "gateway.queue_depth_peak": after["queue_depth_peak"],
            "gateway.shed": delta["shed"],
            "gateway.worker_lost": delta["worker_lost"],
            "cache.index_fallbacks": delta["index_fallbacks"],
            "store.refreshes": delta["refreshes"],
            "store.l2_hits": delta["l2_hits"],
            "store.l2_misses": delta["l2_misses"],
            "store.harvested": after["harvested"],
            "store.harvest_duplicates": after["harvest_duplicates"],
            "store.publishes": after["publishes"],
            "store.max_epoch_lag": after["max_epoch_lag"],
        }
        replayed = _traced_replay(
            result,
            lambda tracer: replay_fleet_in_process(
                model, setup.l2_dir, stream[:WARM_REQUESTS],
                measured[:L2_REPLAY], tracer,
            ),
        )
        truth = GroundTruth(model)
        result.checks["replayed answers match the ground truth"] = all(
            o.ok and truth.matches(measured[o.index], o.target, o.features)
            for o in replayed
        )
    return result


def _worker_reply(response) -> bytes:
    """The worker's reply line (``worker.main``'s encoding of a request
    served from a cache, as every timed ``gateway-l2`` request is)."""
    out = {"ok": response.ok,
           "served_from_cache": bool(response.served_from_cache),
           "n_queries": int(response.n_queries)}
    if response.ok:
        out["result"] = interpretation_payload(response.interpretation)
    return json.dumps(out).encode() + b"\n"


def replay_fleet_in_process(model, l2_dir: Path, warm: np.ndarray,
                            stream: np.ndarray, tracer: spanlib.Tracer | None
                            ) -> tuple[list[Outcome], float, list[float]]:
    """Replay ``stream`` round-robin over ``N_WORKERS`` worker replicas,
    each built the way ``worker.main`` builds a worker: an un-started
    service over a private L1 of ``L1_ENTRIES`` and a read-only view of
    the fleet's L2 directory.  ``warm`` goes first, untimed and
    untraced.  Returns ``(outcomes, elapsed_s, per-request
    latencies)``."""
    api = PredictionAPI(model)
    tiers: list[L2ReaderCache] = []
    try:
        services = []
        for _ in range(N_WORKERS):
            tiers.append(L2ReaderCache(l2_dir, max_entries=L1_ENTRIES))
            services.append(InterpretationService(
                api, cache=tiers[-1], seed=MODEL_SEED, per_instance_seed=True
            ))

        def serve(i: int, x0, tracer):
            response = services[i % N_WORKERS].interpret(x0)
            spanlib.call(tracer, "worker.encode", _worker_reply, response)
            return response

        for i, x0 in enumerate(warm):
            serve(i, x0, None)
        outcomes = []
        with spanlib.instrumented(tracer):
            start = time.perf_counter()
            for i, x0 in enumerate(stream):
                t0 = time.perf_counter()
                response = spanlib.call(
                    tracer, "request", serve, len(warm) + i, x0, tracer,
                    request=i,
                )
                outcomes.append(outcome_from_response(
                    i, time.perf_counter() - t0, response
                ))
            elapsed = time.perf_counter() - start
    finally:
        for tier in tiers:
            tier.close()
    return outcomes, elapsed, [o.latency_s for o in outcomes]


# ---------------------------------------------------------------------- #
# In-process workloads
# ---------------------------------------------------------------------- #
def _service(api: PredictionAPI) -> InterpretationService:
    service = InterpretationService(
        api, seed=MODEL_SEED, per_instance_seed=True
    )
    service.start()
    return service


def _repeat_setup(make, reps: int, result: "RunResult"):
    """Run ``make()`` ``reps`` times, timing each; returns the last."""
    setup = None
    for _ in range(reps):
        if setup is not None:
            setup.close()
        t0 = time.perf_counter()
        setup = make()
        result.setup_s.append(time.perf_counter() - t0)
    return setup


def _traced_replay(result: RunResult, replay) -> list[Outcome]:
    """Run ``replay(tracer)`` -> ``(outcomes, elapsed_s, per-request
    latencies)`` untraced, then traced; fill the per-layer metrics and
    the overhead of tracing, and return both runs' outcomes."""
    first, untraced, _ = replay(None)
    tracer = spanlib.Tracer()
    second, traced, latencies = replay(tracer)
    result.layer.update(layer_metrics(tracer.spans, latencies))
    result.layer["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    result.spans = tracer.spans
    return first + second


def _in_process_checks(result: RunResult, service_ok: int) -> dict[str, bool]:
    return {
        "client ok count equals service n_ok":
            service_ok == sum(o.ok for o in result.outcomes),
        "API meter delta equals summed response n_queries":
            result.api_rows == sum(o.n_queries for o in result.outcomes),
    }


class ImageSetup:
    """One set-up of ``image-batch``: model and image order (each batch
    starts its own service)."""

    def __init__(self, seed: int):
        _data, test, self.model = train_worker_model(
            "synthetic-fashion", MODEL_SEED
        )
        self.images = test.X[:IMAGE_BATCH][image_order(seed)]
        self.api = PredictionAPI(self.model)

    def close(self) -> None:
        """Nothing outlives a batch."""


def _image_batches(setup: ImageSetup, seconds: float | None,
                   tracer: spanlib.Tracer | None
                   ) -> tuple[list[Outcome], float, list[float], int]:
    """``interpret_many`` over the image set, batch after batch until
    ``seconds`` have passed (one batch when ``None``).  Every batch runs
    on a freshly started service, so none is served from an earlier
    batch's cache.  Returns ``(outcomes, elapsed_s, per-batch latencies,
    services' summed n_ok)``; each batch is one traced request."""
    outcomes: list[Outcome] = []
    latencies: list[float] = []
    served_ok = 0
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    batch = 0
    while True:
        service = _service(setup.api)
        try:
            t0 = time.perf_counter()
            responses = spanlib.call(
                tracer, "request", service.interpret_many, setup.images,
                request=batch,
            )
            latencies.append(time.perf_counter() - t0)
            served_ok += service.stats().n_ok
        finally:
            service.stop()
        outcomes.extend(
            outcome_from_response(j, response.latency_s, response)
            for j, response in enumerate(responses)
        )
        batch += 1
        if deadline is None or time.perf_counter() >= deadline:
            break
    return outcomes, time.perf_counter() - start, latencies, served_ok


def run_images(seed: int, seconds: float, trace: bool) -> RunResult:
    result = RunResult()
    setup = _repeat_setup(
        lambda: ImageSetup(seed), 1 if trace else IMAGE_SETUP_REPS, result
    )
    rows0 = setup.api.query_count
    if trace:
        served = []

        def replay(tracer):
            with spanlib.instrumented(tracer):
                outcomes, elapsed, latencies, ok = _image_batches(
                    setup, None, tracer
                )
            served.append(ok)
            return outcomes, elapsed, latencies

        outcomes = _traced_replay(result, replay)
        served_ok = sum(served)
    else:
        outcomes, result.elapsed_s, _, served_ok = _image_batches(
            setup, seconds, None
        )
    result.api_rows = setup.api.query_count - rows0
    result.outcomes = outcomes
    result.peak_rss_mib = _self_rss_mib()
    result.checks = _in_process_checks(result, served_ok)
    GroundTruth(setup.model).mark(outcomes, setup.images)
    return result


# ---------------------------------------------------------------------- #
# Per-layer metrics from spans
# ---------------------------------------------------------------------- #
#: Every per-layer metric; a layer that does no work on a workload
#: reports 0.
LAYER_METRICS = (
    "gateway.outside_worker_ms_p50", "gateway.queue_depth_peak",
    "gateway.shed", "gateway.worker_lost", "worker.encode_us",
    "service.queue_wait_ms_p50", "service.batch_size_mean",
    "cache.lookup_us_p50", "cache.lookups", "cache.hit_ratio",
    "cache.index_fallbacks", "store.l2_lookup_ms_p50", "store.refreshes",
    "store.l2_hits", "store.l2_misses", "store.harvested",
    "store.harvest_duplicates", "store.publishes", "store.max_epoch_lag",
    "api.rows", "api.trips", "api.rows_per_trip", "api.predict_ms",
    "sampling.ms", "rounds.per_interp", "rounds.certified_ratio",
    "engine.solve_ms", "engine.instances_per_call", "engine.eigvalsh_ms",
    "engine.linsolve_ms", "engine.matmul_ms", "engine.lstsq_fallbacks",
    "trace.overhead_pct", "trace.reconcile_err_pct",
)


def layer_metrics(spans: list[spanlib.Span], latencies_s: list[float]) -> dict:
    """Per-layer numbers of one traced replay.  ``latencies_s[r]`` is the
    client-observed latency of request ``r``."""
    selfs = spanlib.self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def named(name):
        return [spans[i] for i in by_name.get(name, ())]

    def self_ms(name) -> float:
        return sum(selfs[i] for i in by_name.get(name, ())) / 1e6

    def root_of(index: int) -> spanlib.Span:
        while spans[index].parent >= 0:
            index = spans[index].parent
        return spans[index]

    flushes = [i for i in by_name.get("service.flush", ())
               if spans[i].attrs and spans[i].attrs["size"] > 0]
    lookups = named("cache.lookup")
    hits = sum(1 for s in lookups if s.attrs and s.attrs["hit"])
    # The reader tier's own time on an L1 miss: refresh, L2 scan, read
    # and promotion.
    l1_of = {spans[i].parent: spans[i] for i in by_name.get("cache.lookup", ())}
    l2_ms = [
        (spans[i].duration_ns - l1_of[i].duration_ns) / 1e6
        for i in by_name.get("store.lookup", ())
        if i in l1_of and not l1_of[i].attrs["hit"]
    ]
    predicts = named("api.predict")
    rows = sum(s.attrs["rows"] for s in predicts)
    rounds = named("rounds.solve")
    pairs = sum(s.attrs["pairs"] for s in rounds)
    solved = sum(s.attrs["solved"] for s in named("rounds.interpret"))
    engine = named("engine.solve")

    # The root's own self time is the request's unattributed time, so it
    # is left out: what is summed is the time the layer spans account for.
    per_request: dict[int, int] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            per_request[span.request] = (
                per_request.get(span.request, 0) + selfs[index]
            )
    reconcile = [
        abs(per_request.get(r, 0) / 1e9 - latency) / latency * 100.0
        for r, latency in enumerate(latencies_s)
    ]

    return {
        "worker.encode_us": _p50([s.duration_ns / 1e3
                                  for s in named("worker.encode")]),
        "service.queue_wait_ms_p50": _p50([
            (spans[i].start_ns - root_of(i).start_ns) / 1e6 for i in flushes
        ]),
        "service.batch_size_mean": (
            _mean([spans[i].attrs["size"] for i in flushes])
        ),
        "cache.lookup_us_p50": _p50([s.duration_ns / 1e3 for s in lookups]),
        "cache.lookups": len(lookups),
        "cache.hit_ratio": hits / len(lookups) if lookups else 0.0,
        "store.l2_lookup_ms_p50": _p50(l2_ms),
        "api.rows": rows,
        "api.trips": len(predicts),
        "api.rows_per_trip": rows / len(predicts) if predicts else 0.0,
        "api.predict_ms": self_ms("api.predict"),
        "sampling.ms": self_ms("sampling.draw"),
        "rounds.per_interp": (
            sum(s.attrs["k"] for s in rounds) / solved if solved else 0.0
        ),
        "rounds.certified_ratio": (
            sum(s.attrs["certified"] for s in rounds) / pairs if pairs else 0.0
        ),
        "engine.solve_ms": self_ms("engine.solve"),
        "engine.instances_per_call": _mean([s.attrs["k"] for s in engine]),
        "engine.eigvalsh_ms": self_ms("engine.eigvalsh"),
        "engine.linsolve_ms": self_ms("engine.linsolve"),
        "engine.matmul_ms": self_ms("engine.matmul"),
        "engine.lstsq_fallbacks": len(by_name.get("engine.lstsq", ())),
        "trace.reconcile_err_pct": _median(reconcile),
    }


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> RunResult:
    if workload == "gateway-l2":
        result = run_gateway(seed, seconds, trace, workdir)
    elif workload == "image-batch":
        result = run_images(seed, seconds, trace)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if trace:
        layer = {name: 0.0 for name in LAYER_METRICS}
        layer.update(result.layer)
        result.layer = layer
        result.checks["span self times reconcile with latency"] = (
            layer["trace.reconcile_err_pct"] <= RECONCILE_TOL_PCT
        )
    return result
