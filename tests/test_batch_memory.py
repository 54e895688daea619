"""What a lock-step batch run keeps alive.

A round works on one ``(k, d+2, d)`` points buffer.  Once an instance
certifies, its answer holds private copies of its own rows, so neither a
response nor a :class:`~repro.serving.RegionCache` entry keeps a round's
stacks alive, and the cache's ``resident_bytes`` counts what it holds.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.api import PredictionAPI
from repro.core import BatchOpenAPIInterpreter
from repro.data import make_blobs
from repro.models import ReLUNetwork
from repro.serving import RegionCache

K, D = 8, 128

#: A round's intended working set, in ``(k, d+2, d+1)`` float64 stacks:
#: the points buffer, the API input (one contiguous copy of the sample
#: rows), the engine's design and its Gram stack — each at most one
#: stack.  Everything else a round allocates (probabilities, targets,
#: one instance's sampling offsets, the answers' own sample blocks, which
#: are copied out after the design and Gram are freed) stays below the
#: slack this leaves.
WORKING_SET_STACKS = 4


@pytest.fixture(scope="module")
def wide_api_and_batch():
    data = make_blobs(40, n_features=D, n_classes=3, separation=4.0, seed=5)
    api = PredictionAPI(ReLUNetwork([D, 16, 3], seed=5))
    return api, data.X[:K]


def _arrays(interpretation) -> list[np.ndarray]:
    return [
        interpretation.x0,
        interpretation.samples,
        *(est.weights for est in interpretation.pair_estimates.values()),
    ]


def _base(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_batch_answers_and_cache_entries_hold_no_round_stack(
    wide_api_and_batch,
):
    api, X = wide_api_and_batch
    result = BatchOpenAPIInterpreter(
        seed=0, per_instance_seed=True
    ).interpret_batch(api, X)
    assert result.n_failed == 0
    interpretations = result.interpretations
    # Several instances certify in the same round, which is where a
    # shared stack would show.
    assert len({i.iterations for i in interpretations}) < K

    # Disjoint rows of one stack do not overlap, so besides the overlap
    # check no two answers may hang off the same base array either.
    for a, b in itertools.combinations(interpretations, 2):
        for u, v in itertools.product(_arrays(a), _arrays(b)):
            assert not np.shares_memory(u, v), "two answers overlap"
            assert _base(u) is not _base(v), "two answers share a base"

    cache = RegionCache(max_entries=64)
    for interpretation in interpretations:
        cache.insert(interpretation)
    bases = {}
    for entry in cache._entries.values():
        arrays = [
            entry.x0,
            entry.decision_features,
            *(est.weights for est in entry.pair_estimates.values()),
        ]
        for array in arrays:
            base = _base(array)
            bases[id(base)] = base.nbytes
    stats = cache.stats()
    assert stats.size == K
    assert sum(bases.values()) <= stats.resident_bytes


def test_round_working_set_bounds_the_traced_peak(wide_api_and_batch):
    api, X = wide_api_and_batch
    stack_bytes = K * (D + 2) * (D + 1) * 8
    interpreter = BatchOpenAPIInterpreter(seed=0, per_instance_seed=True)
    tracemalloc.start()
    try:
        result = interpreter.interpret_batch(api, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_failed == 0
    assert result.rounds > 1
    assert peak <= WORKING_SET_STACKS * stack_bytes, (
        f"traced peak {peak / stack_bytes:.2f} stacks"
    )
