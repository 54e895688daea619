"""Backend conformance suite: every importable backend, one contract.

Three layers of pinning, from adapter to end-to-end:

* **Adapter contracts** — each :class:`ArrayBackend` method satisfies
  the numpy semantics the hot layers rely on (transfer round-trip,
  batched solve/eigvalsh, rank-revealing lstsq, argpartition's
  partial-order guarantee), parameterized over
  :func:`available_backends` so a GPU host automatically extends the
  matrix to cupy/torch.
* **Engine gates** — the acceptance rule accelerated backends must
  meet: weights agree with the pre-engine reference loop to
  :data:`MAX_ENGINE_WEIGHT_DIFF` and the consistency-certificate
  verdicts are *identical* (the certificate is the cross-backend
  exactness oracle).  The stub backend is additionally held to full
  bitwise equality with numpy — it computes with the same calls.
* **Paired equivalence** — the numpy backend's composed kernels are
  pinned bitwise against the inline pre-seam numpy expressions they
  replaced, so the refactor provably did not change the numpy path; the
  serving tiers are then pinned stub-vs-numpy end-to-end (cache, store,
  index), which exercises the seam discipline on the real call graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OpenAPIInterpreter
from repro.core.backend import (
    NumpyBackend,
    StubBackend,
    available_backends,
    pack_sign_bits,
    resolve_backend,
)
from repro.core.engine import (
    MAX_ENGINE_WEIGHT_DIFF,
    _bench_problem,
    reference_solve_all_pairs,
    solve_pair_systems_stacked,
)
from repro.exceptions import ValidationError
from repro.serving import RegionCache
from repro.serving.index import RegionSignIndex, hyperplane_bank
from repro.serving.store import TieredRegionStore

BACKENDS = available_backends()


@pytest.fixture(params=BACKENDS)
def be(request):
    return resolve_backend(request.param)


def _exact(be) -> bool:
    """Whether this backend promises bitwise numpy results."""
    return be.name in ("numpy", "stub")


def _assert_matches(be, got_host: np.ndarray, expected: np.ndarray):
    if _exact(be):
        assert np.array_equal(got_host, expected)
    else:
        np.testing.assert_allclose(got_host, expected, rtol=1e-10, atol=1e-12)


class TestAdapterContracts:
    def test_transfer_round_trip(self, be):
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.array_equal(be.to_host(be.asarray(x)), x)

    def test_matmul_and_transposes(self, be):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=(5, 4, 2))
        got = be.to_host(be.matmul(be.asarray(a), be.asarray(b)))
        _assert_matches(be, got, np.matmul(a, b))
        got_bT = be.to_host(be.bT(be.asarray(a)))
        assert np.array_equal(got_bT, np.swapaxes(a, -1, -2))
        m = rng.normal(size=(6, 3))
        got_bT2 = be.to_host(be.bT2(be.asarray(m)))
        assert np.array_equal(got_bT2, m.T)

    def test_einsum(self, be):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=(4, 5))
        got = be.to_host(
            be.einsum("bij,bj->bi", be.asarray(a), be.asarray(b))
        )
        _assert_matches(be, got, np.einsum("bij,bj->bi", a, b))

    def test_batched_solve(self, be):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 4, 4)) + 4.0 * np.eye(4)
        rhs = rng.normal(size=(6, 4, 1))
        got = be.to_host(be.solve(be.asarray(a), be.asarray(rhs)))
        _assert_matches(be, got, np.linalg.solve(a, rhs))

    def test_solve_raises_backend_linalg_error(self, be):
        singular = np.zeros((2, 3, 3))
        with pytest.raises(be.linalg_error):
            be.to_host(
                be.solve(
                    be.asarray(singular), be.asarray(np.ones((2, 3, 1)))
                )
            )

    def test_batched_eigvalsh_ascending(self, be):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 4, 4))
        sym = a @ np.swapaxes(a, -1, -2)
        got = be.to_host(be.eigvalsh(be.asarray(sym)))
        _assert_matches(be, got, np.linalg.eigvalsh(sym))
        assert (np.diff(got, axis=-1) >= -1e-12).all()

    def test_lstsq_rank_revealing(self, be):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 3))
        a = np.hstack([a, a[:, :1]])  # rank 3 out of 4 columns
        rhs = rng.normal(size=8)
        solution, rank, sv = be.lstsq(be.asarray(a), be.asarray(rhs))
        assert isinstance(rank, int) and rank == 3
        assert isinstance(sv, np.ndarray) and sv.dtype == np.float64
        ref, _, ref_rank, ref_sv = np.linalg.lstsq(a, rhs, rcond=None)
        assert ref_rank == 3
        _assert_matches(be, be.to_host(solution), ref)
        np.testing.assert_allclose(sv, ref_sv, rtol=1e-10)

    def test_argpartition_contract(self, be):
        rng = np.random.default_rng(6)
        a = rng.permutation(64).astype(np.float64)
        kth = 7
        order = be.to_host(be.argpartition(be.asarray(a), kth))
        head = set(a[order[: kth + 1]].tolist())
        assert head == set(np.sort(a)[: kth + 1].tolist())


class TestComposedKernels:
    """Composed kernels vs the inline numpy expressions they replaced."""

    def _stacks(self, m=9, P=4, d=5, seed=7):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(m, P, d)),
            rng.normal(size=(m, P)),
            rng.normal(size=(m, d)),
            rng.normal(size=d),
            rng.normal(size=P),
        )

    def test_affine_claims(self, be):
        W, b, _, x0, _ = self._stacks()
        m, P, d = W.shape
        got = be.to_host(
            be.affine_claims(be.asarray(W), be.asarray(b), be.asarray(x0))
        )
        expected = (W.reshape(m * P, d) @ x0).reshape(m, P) + b
        _assert_matches(be, got, expected)

    def test_membership_scan(self, be):
        W, b, X0, x0, actual = self._stacks()
        m, P, d = W.shape
        errors, dists = be.membership_scan(
            be.asarray(W), be.asarray(b), be.asarray(X0),
            be.asarray(x0), be.asarray(actual),
        )
        claims = (W.reshape(m * P, d) @ x0).reshape(m, P) + b
        _assert_matches(be, errors, np.abs(claims - actual).max(axis=1))
        _assert_matches(be, dists, ((X0 - x0) ** 2).sum(axis=1))

    def test_nearest_k(self, be):
        _, _, X0, x0, _ = self._stacks(m=32)
        k = 5
        got = be.nearest_k(be.asarray(X0), be.asarray(x0), k)
        dists = ((X0 - x0) ** 2).sum(axis=1)
        assert set(got.tolist()) == set(
            np.argpartition(dists, k - 1)[:k].tolist()
        )

    def test_sign_codes(self, be):
        rng = np.random.default_rng(8)
        bank = hyperplane_bank(5, 12)
        X = rng.normal(size=(16, 5))
        bank_dev = be.asarray(bank)
        expected = pack_sign_bits(X @ bank.T >= 0.0)
        got = be.sign_codes(be.asarray(X), bank_dev)
        assert np.array_equal(got, expected)
        for i in range(4):
            assert be.sign_code(bank_dev, be.asarray(X[i])) == int(expected[i])


class TestStubSeamDiscipline:
    """The stub refuses host arrays: the seam cannot be bypassed silently."""

    def test_adapters_reject_untagged_arrays(self):
        stub = StubBackend()
        host = np.ones((3, 3))
        calls = [
            lambda: stub.to_host(host),
            lambda: stub.matmul(host, host),
            lambda: stub.bT(host),
            lambda: stub.bT2(host),
            lambda: stub.einsum("ij->ji", host),
            lambda: stub.solve(host, np.ones(3)),
            lambda: stub.eigvalsh(host),
            lambda: stub.lstsq(host, np.ones(3)),
            lambda: stub.argpartition(np.ones(4), 1),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="untagged host array"):
                call()

    def test_tagged_arrays_flow_through(self):
        stub = StubBackend()
        dev = stub.asarray(np.eye(3))
        assert np.array_equal(stub.to_host(stub.matmul(dev, dev)), np.eye(3))

    def test_mixed_operands_rejected(self):
        stub = StubBackend()
        dev = stub.asarray(np.eye(3))
        with pytest.raises(ValidationError):
            stub.matmul(dev, np.eye(3))


class TestEngineGates:
    """The acceptance rule any backend must pass to serve the engine."""

    def test_weights_and_certificates_match_reference(self, be):
        points, probs, classes, centers = _bench_problem(6, 8, 5, 4, 11)
        engine = solve_pair_systems_stacked(
            points, probs, classes, centers=centers, backend=be
        )
        for b_idx in range(len(engine)):
            reference = reference_solve_all_pairs(
                points[b_idx], probs[b_idx], int(classes[b_idx]),
                center=centers[b_idx],
            )
            assert engine[b_idx].keys() == reference.keys()
            for pair, ref in reference.items():
                diff = np.abs(
                    engine[b_idx][pair].result.weights - ref.result.weights
                ).max()
                assert diff <= MAX_ENGINE_WEIGHT_DIFF
                assert engine[b_idx][pair].certified == ref.certified

    def test_stub_is_bitwise_numpy(self):
        points, probs, classes, centers = _bench_problem(5, 7, 4, 3, 12)
        via_numpy = solve_pair_systems_stacked(
            points, probs, classes, centers=centers, backend=NumpyBackend()
        )
        via_stub = solve_pair_systems_stacked(
            points, probs, classes, centers=centers, backend=StubBackend()
        )
        for eng_np, eng_stub in zip(via_numpy, via_stub):
            assert eng_np.keys() == eng_stub.keys()
            for pair in eng_np:
                assert np.array_equal(
                    eng_np[pair].result.weights,
                    eng_stub[pair].result.weights,
                )
                assert type(eng_stub[pair].result.weights) is np.ndarray
                assert eng_np[pair].certified == eng_stub[pair].certified


class TestServingTierEquivalence:
    """Stub-vs-numpy end-to-end through the real serving call graphs."""

    @pytest.mark.parametrize("region_index", [False, True])
    def test_region_cache(self, relu_api, blobs3, region_index):
        interps = [
            OpenAPIInterpreter(seed=0).interpret(relu_api, x)
            for x in blobs3.X[:4]
        ]
        caches = {
            name: RegionCache(region_index=region_index, backend=name)
            for name in ("numpy", "stub")
        }
        for cache in caches.values():
            for interp in interps:
                cache.insert(interp)
        for x in blobs3.X[:8]:
            y = relu_api.predict_proba(x)
            target = int(np.argmax(y))
            hits = {
                name: cache.lookup(x, y, target)
                for name, cache in caches.items()
            }
            assert (hits["numpy"] is None) == (hits["stub"] is None)
            if hits["numpy"] is not None:
                assert np.array_equal(
                    hits["numpy"].decision_features,
                    hits["stub"].decision_features,
                )

    def test_tiered_store(self, relu_api, blobs3, tmp_path):
        interps = [
            OpenAPIInterpreter(seed=0).interpret(relu_api, x)
            for x in blobs3.X[:4]
        ]
        stores = {
            name: TieredRegionStore(
                directory=tmp_path / name,
                max_entries=2,  # force L2 demotions so the disk scan runs
                fsync=False,
                backend=name,
            )
            for name in ("numpy", "stub")
        }
        for store in stores.values():
            for interp in interps:
                store.insert(interp)
        for x in blobs3.X[:8]:
            y = relu_api.predict_proba(x)
            target = int(np.argmax(y))
            hits = {
                name: store.lookup(x, y, target)
                for name, store in stores.items()
            }
            assert (hits["numpy"] is None) == (hits["stub"] is None)
            if hits["numpy"] is not None:
                assert np.array_equal(
                    hits["numpy"].decision_features,
                    hits["stub"].decision_features,
                )

    def test_sign_index(self):
        rng = np.random.default_rng(13)
        anchors = rng.normal(size=(64, 6))
        queries = rng.normal(size=(16, 6))
        indexes = {
            name: RegionSignIndex(d=6, bits=10, backend=name)
            for name in ("numpy", "stub")
        }
        for index in indexes.values():
            index.add_batch(range(len(anchors)), anchors)
        for x in queries:
            assert indexes["numpy"].code(x) == indexes["stub"].code(x)
            assert indexes["numpy"].shortlist(x, 8) == indexes[
                "stub"
            ].shortlist(x, 8)
        assert np.array_equal(
            indexes["numpy"].codes(queries), indexes["stub"].codes(queries)
        )
