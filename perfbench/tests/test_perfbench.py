"""Tests of the benchmark's own machinery: percentiles, span self
times, the ground-truth check, seeded request streams, and the metric
names against ``BENCHMARK.json``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=-1, request=0):
    span = spans.Span(name, parent, request)
    span.start_ns, span.end_ns = start, end
    return span


# ---------------------------------------------------------------------- #
# Percentiles
# ---------------------------------------------------------------------- #
def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 99) == 99
    assert spans.percentile(values, 100) == 100
    assert spans.percentile(values, 0) == 1
    # 10 samples: p99 is the maximum, p50 the 5th smallest.
    ten = [float(v) for v in range(10)]
    assert spans.percentile(ten, 99) == 9.0
    assert spans.percentile(ten, 50) == 4.0
    assert spans.percentile([7.5], 99) == 7.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        spans.percentile([], 50)
    with pytest.raises(ValueError):
        spans.percentile([1.0], 101)


# ---------------------------------------------------------------------- #
# Span self time
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_the_union_of_children_clipped_to_parent():
    recorded = [
        _span("root", 0, 100),
        _span("a", 10, 30, parent=0),
        _span("b", 20, 50, parent=0),     # overlaps a
        _span("c", 90, 120, parent=0),    # runs past the parent's end
        _span("a.child", 12, 18, parent=1),
    ]
    selfs = spans.self_times(recorded)
    # root: 100 - [10, 50] - [90, 100] = 50
    assert selfs == [50, 14, 30, 30, 6]


def test_self_times_of_a_request_sum_to_its_root():
    recorded = [
        _span("request", 0, 1_000),
        _span("service.flush", 100, 900, parent=0),
        _span("cache.lookup", 150, 400, parent=1),
        _span("api.predict", 400, 700, parent=1),
    ]
    assert sum(spans.self_times(recorded)) == 1_000


def test_spans_on_other_threads_parent_to_the_open_root():
    tracer = spans.Tracer()
    root = tracer.open_root("request", 7)

    def work():
        inner = tracer.open("service.flush")
        tracer.close(tracer.open("cache.lookup"))
        tracer.close(inner)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close_root(root)
    names = [(s.name, s.parent, s.request) for s in tracer.spans]
    assert names == [
        ("request", -1, 7),
        ("service.flush", 0, 7),
        ("cache.lookup", 1, 7),
    ]


def test_reconciliation_leaves_out_the_root_self_time():
    recorded = [
        _span("request", 0, 1_000),
        _span("worker.encode", 100, 900, parent=0),
        _span("sampling.draw", 400, 700, parent=1),
        _span("worker.encode", 0, 5_000, request=1),  # another request
    ]
    latency_s = [1_000e-9]
    metrics = workloads.layer_metrics(recorded, latency_s)
    # The layer spans cover 800 of the request's 1,000 ns.
    assert metrics["trace.reconcile_err_pct"] == pytest.approx(20.0)
    # A request no layer span covers is wholly unaccounted for.
    bare = workloads.layer_metrics(recorded[:1], latency_s)
    assert bare["trace.reconcile_err_pct"] == pytest.approx(100.0)


def test_instrument_restores_every_wrapped_function():
    from repro.core import batch as core_batch
    from repro.core.backend import resolve_backend
    from repro.serving import RegionCache

    lookup = RegionCache.lookup
    draw = core_batch.sample_hypercube
    backend = resolve_backend(None)
    with spans.instrumented(spans.Tracer()):
        assert RegionCache.lookup is not lookup
        assert "eigvalsh" in vars(backend)
    assert RegionCache.lookup is lookup
    assert core_batch.sample_hypercube is draw
    assert "eigvalsh" not in vars(backend)


# ---------------------------------------------------------------------- #
# Ground truth
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_model():
    from repro.serving.worker import train_worker_model

    _data, test, model = train_worker_model(
        "blobs", 0, train_size=120, epochs=25, hidden=(8,)
    )
    return test, model


def test_ground_truth_check_flags_a_perturbed_decision_feature_vector(
    tiny_model,
):
    from repro.api import PredictionAPI
    from repro.serving import InterpretationService

    test, model = tiny_model
    service = InterpretationService(
        PredictionAPI(model), seed=0, per_instance_seed=True
    )
    x0 = test.X[0]
    response = service.interpret(x0)
    assert response.ok
    outcome = workloads.outcome_from_response(0, 0.001, response)
    truth = workloads.GroundTruth(model)
    assert truth.matches(x0, outcome.target, outcome.features)

    perturbed = outcome.features.copy()
    perturbed[0] += 1e-3
    assert not truth.matches(x0, outcome.target, perturbed)
    bad = workloads.Outcome(0, 0.001, True, target=outcome.target,
                            features=perturbed)
    assert truth.mark([outcome, bad], test.X[:1]) == 1
    assert not outcome.wrong and bad.wrong

    result = workloads.RunResult(outcomes=[outcome, bad], elapsed_s=1.0,
                                 api_rows=2, setup_s=[1.0])
    assert (result.attempted, result.failed, result.wrong) == (2, 1, 1)
    assert result.end_to_end()["ok_ratio"] == 0.5


# ---------------------------------------------------------------------- #
# Seeded inputs
# ---------------------------------------------------------------------- #
def test_a_fixed_seed_reproduces_byte_identical_request_streams():
    anchors = np.arange(40.0).reshape(20, 2)
    stream = workloads.l2_stream(anchors, 3, 500)
    assert stream.tobytes() == workloads.l2_stream(anchors, 3, 500).tobytes()
    assert stream.tobytes() != workloads.l2_stream(anchors, 4, 500).tobytes()
    # Exact repeats of the anchors, and more of them than an L1 holds.
    rows = {row.tobytes() for row in stream}
    assert rows <= {row.tobytes() for row in anchors}
    assert len(rows) > workloads.L1_ENTRIES

    order = workloads.image_order(3)
    assert order.tobytes() == workloads.image_order(3).tobytes()
    assert sorted(order) == list(range(workloads.IMAGE_BATCH))


# ---------------------------------------------------------------------- #
# BENCHMARK.json and the command line
# ---------------------------------------------------------------------- #
def test_metric_names_match_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.LAYER_METRICS)
    result = workloads.RunResult(
        outcomes=[workloads.Outcome(0, 0.001, True)], elapsed_s=1.0,
        setup_s=[1.0],
    )
    assert set(result.end_to_end()) == {m["name"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "image-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
