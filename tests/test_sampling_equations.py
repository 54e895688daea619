"""Tests for hypercube sampling (Lemma 1) and the equation systems."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equations import (
    build_pair_system,
    log_odds,
    pairwise_log_odds_targets,
    solve_all_pairs,
)
from repro.core.sampling import HypercubeSampler, sample_hypercube
from repro.core.types import Attribution
from repro.exceptions import ValidationError
from repro.utils.linalg import affine_design_matrix, is_full_rank


class TestSampleHypercube:
    def test_inside_cube(self):
        rng = np.random.default_rng(0)
        center = np.array([0.5, -1.0, 2.0])
        pts = sample_hypercube(center, 0.25, 100, rng)
        assert pts.shape == (100, 3)
        assert np.all(np.abs(pts - center) <= 0.25)

    def test_clip_box(self):
        rng = np.random.default_rng(1)
        pts = sample_hypercube(np.array([0.0, 1.0]), 0.5, 50, rng, clip_box=(0, 1))
        assert pts.min() >= 0.0 and pts.max() <= 1.0

    def test_validations(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValidationError):
            sample_hypercube(np.zeros(2), 0.0, 5, rng)
        with pytest.raises(ValidationError):
            sample_hypercube(np.zeros(2), 1.0, 0, rng)
        with pytest.raises(ValidationError):
            sample_hypercube(np.zeros(2), 1.0, 5, rng, clip_box=(1.0, 0.0))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), d=st.integers(1, 10))
    def test_property_lemma1_full_rank(self, seed, d):
        """Lemma 1: the (d+1)x(d+1) coefficient matrix is full rank w.p. 1."""
        rng = np.random.default_rng(seed)
        center = rng.normal(size=d)
        pts = sample_hypercube(center, 0.5, d + 1, rng)
        A = affine_design_matrix(pts)
        assert is_full_rank(A)

    def test_sampler_draw(self):
        sampler = HypercubeSampler(seed=0)
        pts = sampler.draw(np.zeros(4), 1.0, 10)
        assert pts.shape == (10, 4)

    def test_sampler_reproducible(self):
        a = HypercubeSampler(seed=3).draw(np.zeros(2), 1.0, 5)
        b = HypercubeSampler(seed=3).draw(np.zeros(2), 1.0, 5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("clip_box", [None, (0.0, 0.6)])
    def test_draw_into_out_is_bitwise_the_returned_draw(self, clip_box):
        center = np.array([0.1, 0.5, 0.9])
        fresh = HypercubeSampler(seed=4, clip_box=clip_box).draw(center, 0.3, 5)
        buffer = np.full((2, 5, 3), np.nan)
        got = HypercubeSampler(seed=4, clip_box=clip_box).draw(
            center, 0.3, 5, out=buffer[1]
        )
        assert np.shares_memory(got, buffer[1])
        np.testing.assert_array_equal(buffer[1], fresh)
        assert np.isnan(buffer[0]).all()

    def test_draw_into_misshaped_out_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError, match="out must be"):
            sample_hypercube(np.zeros(3), 1.0, 4, rng, out=np.empty((4, 2)))
        with pytest.raises(ValidationError, match="out must be"):
            sample_hypercube(
                np.zeros(3), 1.0, 4, rng, out=np.empty((4, 3), np.float32)
            )

    def test_axis_pairs_layout(self):
        sampler = HypercubeSampler(seed=0)
        center = np.array([1.0, 2.0])
        pts = sampler.draw_axis_pairs(center, 0.1)
        assert pts.shape == (4, 2)
        np.testing.assert_allclose(pts[0], [1.1, 2.0])
        np.testing.assert_allclose(pts[1], [0.9, 2.0])
        np.testing.assert_allclose(pts[2], [1.0, 2.1])
        np.testing.assert_allclose(pts[3], [1.0, 1.9])

    def test_axis_pairs_clip_collapse_rejected(self):
        """Regression: clip_box used to silently clip ``x + h e_i`` and
        ``x − h e_i`` onto the same box face, producing duplicate rows
        (a degenerate perturbation set with 0/0 finite differences)."""
        sampler = HypercubeSampler(seed=0, clip_box=(0.0, 1.0))
        # Axis 0 sits 0.2 past the upper face with h=0.1: both ±h points
        # clip to 1.0.  Axis 2 sits below the lower face: both clip to 0.
        center = np.array([1.2, 0.5, -0.3])
        with pytest.raises(ValidationError) as excinfo:
            sampler.draw_axis_pairs(center, 0.1)
        message = str(excinfo.value)
        assert "0, 2" in message
        assert "1," not in message.replace("[0, 2]", "")

    def test_axis_pairs_one_sided_clip_is_fine(self):
        """Clipping only one of the pair keeps the rows distinct."""
        sampler = HypercubeSampler(seed=0, clip_box=(0.0, 1.0))
        pts = sampler.draw_axis_pairs(np.array([0.95, 0.5]), 0.1)
        np.testing.assert_allclose(pts[0], [1.0, 0.5])  # clipped
        np.testing.assert_allclose(pts[1], [0.85, 0.5])
        assert not np.array_equal(pts[0], pts[1])

    def test_axis_pairs_invalid_clip_box_rejected(self):
        sampler = HypercubeSampler(seed=0, clip_box=(1.0, 0.0))
        with pytest.raises(ValidationError):
            sampler.draw_axis_pairs(np.array([0.5, 0.5]), 0.1)


class TestLogOdds:
    def test_single_vector(self):
        y = np.array([0.6, 0.3, 0.1])
        assert log_odds(y, 0, 1) == pytest.approx(np.log(2.0))

    def test_batch(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]])
        out = log_odds(probs, 0, 1)
        np.testing.assert_allclose(out, [0.0, np.log(9.0)])

    def test_floor_prevents_infinities(self):
        y = np.array([1.0, 0.0])
        val = log_odds(y, 0, 1, floor=1e-10)
        assert np.isfinite(val)

    def test_validations(self):
        y = np.array([0.5, 0.5])
        with pytest.raises(ValidationError):
            log_odds(y, 0, 0)
        with pytest.raises(ValidationError):
            log_odds(y, 0, 5)
        with pytest.raises(ValidationError):
            log_odds(y, 0, 1, floor=0.0)

    def test_pairwise_targets(self):
        probs = np.array([[0.5, 0.3, 0.2]])
        targets, pairs = pairwise_log_odds_targets(probs, 1)
        assert pairs == [(1, 0), (1, 2)]
        np.testing.assert_allclose(
            targets[0], [np.log(0.3 / 0.5), np.log(0.3 / 0.2)]
        )

    def test_build_pair_system(self):
        pts = np.ones((2, 3))
        probs = np.array([[0.5, 0.5], [0.4, 0.6]])
        out_pts, targets = build_pair_system(pts, probs, 0, 1)
        assert out_pts.shape == (2, 3)
        assert targets.shape == (2,)


class TestSolveAllPairs:
    @staticmethod
    def _linear_setup(seed=0, d=4, C=3, n=None):
        """Exact softmax-linear data: points, probs, and the true (W, b)."""
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(d, C))
        b = rng.normal(size=C)
        n = n if n is not None else d + 2
        pts = rng.uniform(-1, 1, size=(n, d))
        logits = pts @ W + b
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        return pts, probs, W, b

    def test_recovers_core_parameters(self):
        pts, probs, W, b = self._linear_setup()
        sols = solve_all_pairs(pts, probs, 0)
        for (c, cp), sol in sols.items():
            np.testing.assert_allclose(
                sol.result.weights, W[:, c] - W[:, cp], atol=1e-9
            )
            assert sol.result.intercept == pytest.approx(
                float(b[c] - b[cp]), abs=1e-9
            )
            assert sol.certified

    def test_pair_keys_complete(self):
        pts, probs, _, _ = self._linear_setup(C=4)
        sols = solve_all_pairs(pts, probs, 2)
        assert set(sols) == {(2, 0), (2, 1), (2, 3)}

    def test_certificate_fails_for_mixed_regions(self):
        """Mixing rows from two different linear maps must not certify."""
        pts, probs, W, b = self._linear_setup(seed=1)
        pts2, probs2, _, _ = self._linear_setup(seed=2)
        mixed_probs = probs.copy()
        mixed_probs[-1] = probs2[-1]
        sols = solve_all_pairs(pts, mixed_probs, 0)
        assert not all(s.certified for s in sols.values())

    def test_determined_system_not_certified(self):
        pts, probs, _, _ = self._linear_setup(n=5, d=4)
        sols = solve_all_pairs(pts, probs, 0, check_certificate=False)
        assert all(not s.certified for s in sols.values())

    def test_center_improves_nothing_on_easy_data(self):
        pts, probs, W, _ = self._linear_setup(seed=3)
        with_center = solve_all_pairs(pts, probs, 0, center=pts[0])
        without = solve_all_pairs(pts, probs, 0)
        for pair in with_center:
            np.testing.assert_allclose(
                with_center[pair].result.weights,
                without[pair].result.weights,
                atol=1e-8,
            )

    def test_validations(self):
        pts, probs, _, _ = self._linear_setup()
        with pytest.raises(ValidationError):
            solve_all_pairs(pts[:, 0], probs, 0)
        with pytest.raises(ValidationError):
            solve_all_pairs(pts, probs[:-1], 0)
        with pytest.raises(ValidationError):
            solve_all_pairs(pts[:3], probs[:3], 0)  # under-determined
        with pytest.raises(ValidationError):
            solve_all_pairs(pts, probs, 0, center=np.zeros(2))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000), d=st.integers(2, 6), C=st.integers(2, 5))
    def test_property_exact_recovery_single_region(self, seed, d, C):
        """Theorem 2's consistent case: exact recovery with certificates."""
        pts, probs, W, b = self._linear_setup(seed=seed, d=d, C=C)
        sols = solve_all_pairs(pts, probs, 0)
        for (c, cp), sol in sols.items():
            assert sol.certified
            np.testing.assert_allclose(
                sol.result.weights, W[:, c] - W[:, cp], atol=1e-6
            )


class TestAttributionType:
    def test_top_features_ordering(self):
        att = Attribution(values=np.array([0.1, -5.0, 2.0]))
        np.testing.assert_array_equal(att.top_features(2), [1, 2])
        np.testing.assert_array_equal(att.top_features(10), [1, 2, 0])

    def test_top_features_validation(self):
        att = Attribution(values=np.ones(3))
        with pytest.raises(ValidationError):
            att.top_features(0)

    def test_samples_shape_validated(self):
        with pytest.raises(ValidationError):
            Attribution(values=np.ones(3), samples=np.ones((2, 4)))

    def test_values_must_be_1d(self):
        with pytest.raises(ValidationError):
            Attribution(values=np.ones((2, 2)))
