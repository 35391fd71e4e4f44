"""Tests for the one stopping rule: Lemma 3.6's empirical-Bernstein bound.

The estimators stop sampling through :func:`run_adaptive_sampling`, which
doubles the batch size and stops once every monitored diagonal estimate
satisfies ``err_u <= eps * (estimate_u - err_u)`` (line 17 of Algorithm 2),
with ``err_u`` from :meth:`ForestAccumulator.diag_half_widths` over the
accumulator's running (weighted) moments.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.centrality.estimators import (
    ForestAccumulator,
    SamplingConfig,
    batched_diag_estimates,
    run_adaptive_sampling,
)
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.obs import tracing
from repro.sampling import ForestBatch, sample_forest_batch_vectorized

# The triangle 0-1-2 rooted at {0} has three spanning trees.  Its BFS path
# system sends 1 and 2 straight to 0 (height τ = 1), and the per-forest
# Lemma 3.3 diagonal values (c_1, c_2) are (1, 1), (1, 0) and (0, 1).
TRIANGLE = Graph(3, [(0, 1), (0, 2), (1, 2)])
STAR_TREE = [-1, 0, 0]  # (c_1, c_2) = (1, 1)
TREE_VIA_1 = [-1, 0, 1]  # (1, 0)
TREE_VIA_2 = [-1, 2, 0]  # (0, 1)


def _sampling_rounds(accumulator, config):
    """Forests drawn per sampler call, and the diagnostics of one run."""
    tracer = tracing.enable_tracing()
    try:
        diagnostics = run_adaptive_sampling(accumulator, config)
    finally:
        tracing.disable_tracing()
    rounds = [s["attrs"]["forests"] for s in tracer.spans()
              if s["name"] == "sampling.lockstep"]
    return rounds, diagnostics


class TestEmpiricalBernstein:
    def test_formula(self):
        accumulator = ForestAccumulator(TRIANGLE, [0], seed=0)
        assert accumulator.tau == 1
        batch = ForestBatch(parent=[STAR_TREE, TREE_VIA_1, TREE_VIA_2, STAR_TREE],
                            roots=[0])
        accumulator.add_batch(batch)
        # c_1 = (1, 1, 0, 1) and c_2 = (1, 0, 1, 1): mean 3/4, variance
        # E[c^2] - mean^2 = 3/4 - 9/16 = 3/16, over r = 4 samples.
        np.testing.assert_allclose(accumulator.diag_estimates(), [0.0, 0.75, 0.75])
        np.testing.assert_allclose(accumulator.diag_variances(), [0.0, 3 / 16, 3 / 16])
        delta = 0.05
        log_term = math.log(3 / delta)
        interior = math.sqrt(2 * (3 / 16) * log_term / 4) + 3 * 1 * log_term / 4
        root = 3 * 1 * log_term / 4
        np.testing.assert_allclose(accumulator.diag_half_widths(delta),
                                   [root, interior, interior])
        assert interior == pytest.approx(3.690311, abs=1e-6)

    def test_zero_variance_still_positive(self):
        # A tree has one spanning tree: every forest is the same, so the
        # empirical variance is zero and only the range term remains.
        tree = generators.path_graph(3)
        accumulator = ForestAccumulator(tree, [0], seed=0)
        accumulator.add_samples(8)
        assert np.all(accumulator.diag_variances() == 0.0)
        widths = accumulator.diag_half_widths(0.1)
        np.testing.assert_allclose(widths, 3 * 2 * math.log(30) / 8)
        assert np.all(widths > 0)

    def test_invalid_inputs(self):
        accumulator = ForestAccumulator(TRIANGLE, [0], seed=0)
        accumulator.add_samples(4)
        for delta in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(InvalidParameterError):
                accumulator.diag_half_widths(delta)


class TestStreamingMoments:
    """The accumulator's running sums are the rule's streaming moments."""

    def test_mean_and_variance_match_numpy(self, karate):
        accumulator = ForestAccumulator(karate, [0, 33], seed=0)
        batch = sample_forest_batch_vectorized(karate, [0, 33], 200, seed=1)
        accumulator.add_batch(batch)
        values = batched_diag_estimates(batch.parent, accumulator._path)
        assert accumulator.count == 200
        np.testing.assert_allclose(accumulator.diag_estimates(), values.mean(axis=0))
        np.testing.assert_allclose(accumulator.diag_variances(), values.var(axis=0),
                                   atol=1e-10)

    def test_incremental_equals_batch(self, karate):
        batch = sample_forest_batch_vectorized(karate, [0], 12, seed=2)
        whole = ForestAccumulator(karate, [0], seed=0)
        whole.add_batch(batch)
        pieces = ForestAccumulator(karate, [0], seed=0)
        for index in range(batch.batch_size):
            pieces.add_batch(batch.select([index]))
        assert pieces.count == whole.count
        np.testing.assert_allclose(pieces.diag_estimates(), whole.diag_estimates())
        np.testing.assert_allclose(pieces.diag_variances(), whole.diag_variances(),
                                   atol=1e-12)

    def test_variance_requires_samples(self, karate):
        accumulator = ForestAccumulator(karate, [0], seed=0)
        with pytest.raises(InvalidParameterError):
            accumulator.diag_variances()
        with pytest.raises(InvalidParameterError):
            accumulator.diag_half_widths(0.1)


class TestAdaptiveSampler:
    """:func:`run_adaptive_sampling` is the adaptive sampler."""

    def test_batches_double_and_respect_cap(self, karate):
        config = SamplingConfig(eps=0.01, max_samples=64, initial_batch=16)
        accumulator = ForestAccumulator(karate, [0], seed=0)
        rounds, diagnostics = _sampling_rounds(accumulator, config)
        assert rounds == [16, 32, 16]
        assert diagnostics == {"samples": 64.0, "stopped_early": 0.0, "cap": 64.0}

    def test_stops_on_low_variance_stream(self):
        # Star rooted at its centre: every estimate is exactly 1 with zero
        # variance, so the rule fires once 3 τ ln(3/δ) / r <= 1/3.
        star = generators.star_graph(6)
        config = SamplingConfig(eps=0.5)
        accumulator = ForestAccumulator(star, [0], seed=0)
        rounds, diagnostics = _sampling_rounds(accumulator, config)
        assert rounds == [16, 32]
        assert diagnostics["stopped_early"] == 1.0
        assert diagnostics["samples"] == 48 < diagnostics["cap"]

    def test_does_not_stop_before_min_samples(self):
        star = generators.star_graph(6)
        config = SamplingConfig(eps=0.5, min_samples=64)
        accumulator = ForestAccumulator(star, [0], seed=0)
        rounds, diagnostics = _sampling_rounds(accumulator, config)
        # Without the floor the rule fires at 48 forests (see above).
        assert rounds == [16, 32, 64]
        assert diagnostics["stopped_early"] == 1.0
        assert diagnostics["samples"] >= config.min_samples

    def test_high_variance_keeps_sampling(self, karate):
        config = SamplingConfig(eps=0.01, max_samples=64)
        accumulator = ForestAccumulator(karate, [0], seed=0)
        diagnostics = run_adaptive_sampling(accumulator, config)
        assert diagnostics["samples"] == 64
        assert diagnostics["stopped_early"] == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            SamplingConfig(eps=0.0)
        with pytest.raises(InvalidParameterError):
            SamplingConfig(delta=2.0)
        with pytest.raises(InvalidParameterError):
            SamplingConfig(max_samples=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bernstein_bound_monotone_in_count(seed):
    # Folding the same forests twice keeps the variance and doubles r, so
    # no half-width may grow.
    graph = generators.barabasi_albert(20, 2, seed=seed % 7)
    batch = sample_forest_batch_vectorized(graph, [0], 8, seed=seed)
    accumulator = ForestAccumulator(graph, [0], seed=0)
    accumulator.add_batch(batch)
    larger = accumulator.diag_half_widths(0.1)
    accumulator.add_batch(batch)
    smaller = accumulator.diag_half_widths(0.1)
    assert np.all(smaller <= larger + 1e-12)
