"""Tests for the sharded resistance backend (repro.distributed)."""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.distributed import ShardedResistanceBackend, partition_rows
from repro.distributed.backend import FULL_REFRESH_UPDATES, INNER_REFRESH_UPDATES
from repro.dynamic import DynamicCFCM, DynamicGraph, poisson_traffic, replay_events
from repro.exceptions import InvalidParameterError
from repro.graph import generators
from repro.linalg import DenseResistanceBackend, make_resistance_backend
from repro.obs.tracing import disable_tracing, enable_tracing
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.service import AsyncCFCMService
from repro.utils.faultpoints import clear_gate, install_gate


def grid(rows=6, cols=8):
    return DynamicGraph(generators.grid_graph(rows, cols))


def sharded(graph, shards, inner="auto", **kwargs):
    return DynamicCFCM(graph, backend="sharded",
                       backend_options={"shards": shards, "inner": inner},
                       **kwargs)


def backend_of(engine, group):
    return engine.tracker(group).backend


def separator_nodes(engine, group):
    """Stable ids of the separator rows of ``group``'s sharded tracker."""
    tracker = engine.tracker(group)
    return {int(tracker.kept[r]) for r in tracker.backend.partition.separator}


def part_nodes(engine, group, part):
    tracker = engine.tracker(group)
    return [int(tracker.kept[r]) for r in tracker.backend.partition.parts[part]]


def dense_reference(graph, group):
    """From-scratch grounded inverse of the current graph state."""
    lap = graph.laplacian_dense()
    grounded = set(graph.compact_nodes(group))
    keep = [i for i in range(graph.n) if i not in grounded]
    inverse = np.linalg.inv(lap[np.ix_(keep, keep)])
    return inverse, {c: i for i, c in enumerate(keep)}


def assert_matches_reference(engine, graph, group, atol=1e-8):
    inverse, position = dense_reference(graph, group)
    cfcc_ref = graph.n / np.trace(inverse)
    assert engine.evaluate_exact(group) == pytest.approx(cfcc_ref, abs=atol)
    tracker = engine.tracker(group)
    grounded = set(group)
    for node in (int(x) for x in graph.node_ids()):
        if node in grounded:
            assert tracker.resistance_to_group(node) == 0.0
            continue
        ref = inverse[position[graph.compact_index(node)],
                      position[graph.compact_index(node)]]
        assert tracker.resistance_to_group(node) == pytest.approx(ref, abs=atol)


def assert_partition_invariant(backend):
    """Every neighbour of an interior row is in its part or the separator."""
    matrix, part = backend._matrix, backend.partition
    owner = np.full(matrix.shape[0], -1)
    for index, rows in enumerate(part.parts):
        owner[rows] = index
    coo = matrix.tocoo()
    both = (owner[coo.row] >= 0) & (owner[coo.col] >= 0)
    assert np.all(owner[coo.row][both] == owner[coo.col][both])
    assert np.all(owner[part.separator] == -1)


def grid_laplacian(rows=6, cols=8):
    return grid(rows, cols).laplacian_sparse()


class TestPartition:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_interior_coupling_invariant(self, shards):
        backend = ShardedResistanceBackend(shards=shards)
        backend.factorize(grid_laplacian()[1:, 1:])
        assert_partition_invariant(backend)
        part = backend.partition
        rows = np.concatenate(part.parts + (part.separator,))
        assert sorted(rows) == list(range(backend.n))

    def test_parts_balanced_and_separator_small(self):
        matrix = grid_laplacian(10, 10)
        part = partition_rows(matrix, 4)
        assert min(p.size for p in part.parts) > 0
        # Homes (pre-promotion) are what the BFS balances; the greedy cover
        # then bites unevenly into boundary-heavy parts.
        homes = np.bincount(part.home, minlength=4)
        assert homes.max() <= 2 * homes.min()
        assert 0 < part.separator.size < matrix.shape[0] // 2

    def test_invalid_arguments(self):
        matrix = grid_laplacian(2, 2)
        with pytest.raises(InvalidParameterError):
            partition_rows(matrix, 5)
        with pytest.raises(InvalidParameterError):
            partition_rows(matrix, 0)

    def test_describe(self):
        info = partition_rows(grid_laplacian(), 3).describe()
        assert info["shards"] == 3
        assert len(info["interior_sizes"]) == 3

    def test_disconnected_pattern_is_partitioned(self):
        # Grounding can split a graph: the middle of a path leaves two halves.
        lap = DynamicGraph(generators.path_graph(7)).laplacian_sparse()
        keep = [0, 1, 2, 4, 5, 6]
        part = partition_rows(lap[keep][:, keep], 3)
        assert sorted(np.concatenate(part.parts + (part.separator,))) == list(range(6))


class TestShardedCorrectness:
    """Stitched answers match the dense reference to 1e-8."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_mixed_churn_matches_reference(self, backend, shards):
        graph = grid()
        group = [0, 27]
        engine = sharded(graph, shards, inner=backend, seed=7)
        assert_matches_reference(engine, graph, group)
        assert {b.backend.name for b in backend_of(engine, group)._blocks} == {backend}

        sep = separator_nodes(engine, group)
        edges = list(graph.edges())
        interior = [e for e in edges if e[0] not in sep and e[1] not in sep]
        boundary = [e for e in edges if (e[0] in sep) != (e[1] in sep)]
        through = [e for e in edges if e[0] in sep and e[1] in sep]
        # Mixed churn touching every triple class the backend routes,
        # including interior-separator reweights and removals.
        for i, (u, v) in enumerate(interior[:5]):
            graph.update_weight(u, v, 1.0 + 0.3 * (i + 1))
        for i, (u, v) in enumerate(boundary[:5]):
            graph.update_weight(u, v, 2.0 + 0.2 * i)
        for u, v in through[:2]:
            graph.update_weight(u, v, 1.7)
        assert_matches_reference(engine, graph, group)

        removed = next((u, v) for u, v in interior[5:]
                       if graph.degree(u) > 1 and graph.degree(v) > 1)
        graph.remove_edge(*removed)
        graph.add_edge(*removed, 0.5)
        assert_matches_reference(engine, graph, group)
        # Everything above was folded, never refactorised.
        assert engine.tracker(group).stats.refreshes == 0

    def test_cross_shard_insertion_rebuilds_and_matches(self):
        graph = grid()
        engine = sharded(graph, 2, seed=11)
        engine.evaluate_exact([0])
        u = part_nodes(engine, [0], 0)[0]
        v = part_nodes(engine, [0], 1)[-1]
        assert not graph.has_edge(u, v)
        graph.add_edge(u, v, 1.0)
        assert_matches_reference(engine, graph, [0])
        assert backend_of(engine, [0]).rebuilds == 1
        assert_partition_invariant(backend_of(engine, [0]))

    def test_node_churn_grows_and_shrinks_separator(self):
        graph = grid()
        engine = sharded(graph, 3, seed=5)
        group = [4]
        assert_matches_reference(engine, graph, group)

        # A hub wired into several parts forces a re-partition whose
        # separator covers every cut pair around it; answers stay exact
        # through the tracker refactorisation.
        spread = [part_nodes(engine, group, p)[0] for p in range(3)]
        joined = graph.add_node(edges=[(n, 1.0) for n in spread]).node
        assert_matches_reference(engine, graph, group)
        assert engine.tracker(group).stats.refreshes == 1
        assert_partition_invariant(engine.tracker(group).backend)

        graph.remove_node(joined)
        assert_matches_reference(engine, graph, group)
        assert engine.tracker(group).stats.refreshes == 2

    def test_group_containing_separator_nodes(self):
        graph = grid()
        engine = sharded(graph, 3, seed=2)
        separator_node = min(separator_nodes(engine, [1]))
        group = [separator_node, 1]
        assert_matches_reference(engine, graph, group)
        for u, v in list(graph.edges())[::9]:
            graph.update_weight(u, v, 1.4)
        assert_matches_reference(engine, graph, group)

    def test_matches_single_tracker_engine(self):
        group = [0, 33]
        engine = sharded(grid(), 3, seed=1)
        single = DynamicCFCM(grid(), seed=1)
        assert engine.evaluate_exact(group) == pytest.approx(
            single.evaluate_exact(group), abs=1e-9)

    def test_backend_protocol_surface_matches_dense(self):
        graph = grid()
        matrix = graph.laplacian_sparse()[1:, 1:]
        backend = ShardedResistanceBackend(shards=3, inner="dense")
        backend.factorize(matrix)
        inverse = np.linalg.inv(matrix.toarray())
        rhs = np.random.default_rng(0).standard_normal((matrix.shape[0], 3))
        np.testing.assert_allclose(backend.solve_many(rhs), inverse @ rhs, atol=1e-10)
        np.testing.assert_allclose(backend.column(5), inverse[:, 5], atol=1e-10)
        np.testing.assert_allclose(backend.diagonal("exact"), np.diag(inverse),
                                   atol=1e-10)
        assert backend.trace("exact") == pytest.approx(np.trace(inverse), abs=1e-9)
        # Sketched coupling terms are unbiased Hutchinson estimates.
        for block in backend._blocks:
            block.backend.probe_count = 2000
        assert backend.trace("sketch") == pytest.approx(np.trace(inverse), rel=0.05)


class TestShardedEdgeCases:
    def test_auto_never_selects_sharded(self):
        for n, m in ((10, 20), (5000, 10000), (5000, 100000)):
            assert make_resistance_backend("auto", n=n, m=m).name != "sharded"

    def test_grounding_that_splits_the_graph(self):
        graph = DynamicGraph(generators.path_graph(30))
        engine = sharded(graph, 3, seed=0)
        assert_matches_reference(engine, graph, [15])
        graph.update_weight(3, 4, 2.0)
        graph.update_weight(20, 21, 0.5)
        assert_matches_reference(engine, graph, [15])

    def test_single_shard_has_no_separator(self):
        graph = grid()
        engine = sharded(graph, 1, seed=0)
        engine.evaluate_exact([0])
        assert backend_of(engine, [0]).partition.separator.size == 0
        for u, v in list(graph.edges())[::4]:
            graph.update_weight(u, v, 1.5)
        assert_matches_reference(engine, graph, [0])

    def test_inner_rank_cap_refactorises_block_alone(self):
        graph = grid(10, 10)
        engine = sharded(graph, 2, inner="sparse", seed=0)
        group = [0]
        engine.evaluate_exact(group)
        sep = separator_nodes(engine, group)
        interior = [e for e in graph.edges() if e[0] not in sep and e[1] not in sep]
        # More interior reweights than the sparse inner backend's rank cap.
        for step in range(3):
            for u, v in interior:
                graph.update_weight(u, v, 1.0 + 0.1 * ((u + v + step) % 5))
            assert_matches_reference(engine, graph, group)
        assert engine.tracker(group).stats.refreshes == 0
        blocks = backend_of(engine, group)._blocks
        assert max(block.backend._factor_count for block in blocks) > 1

    def test_backend_sets_its_own_refresh_budget(self):
        graph = grid(10, 10)
        engine = sharded(graph, 2, inner="dense", seed=0)
        group = [0]
        engine.evaluate_exact(group)
        tracker = engine.tracker(group)
        assert tracker.refresh_budget == FULL_REFRESH_UPDATES
        # Far more reweights than the engine's refresh_interval (64): the
        # tracker never refactorises, each dense inner block refreshes alone.
        edges = list(graph.edges())
        for step in range(4):
            for u, v in edges:
                graph.update_weight(u, v, 1.0 + 0.1 * ((u + v + step) % 5))
            engine.evaluate_exact(group)
        assert tracker.stats.refreshes == 0
        assert all(len(block.pending) <= INNER_REFRESH_UPDATES
                   for block in tracker.backend._blocks)
        assert_matches_reference(engine, graph, group)

    def test_triples_are_validated(self):
        backend = ShardedResistanceBackend(shards=2)
        backend.factorize(grid_laplacian()[1:, 1:])
        with pytest.raises(InvalidParameterError):
            backend.apply_triples([(0, 99, 1.0)])
        with pytest.raises(InvalidParameterError):
            backend.apply_triples([(3, 3, 1.0)])
        epoch = backend.epoch
        backend.apply_triples([(3, 4, 0.0)])  # zero deltas are no-ops
        assert backend.epoch == epoch

    def test_dynamic_experiment_runs_sharded(self):
        from repro.experiments.dynamic import run_dynamic

        rows = run_dynamic(quick=True, shards=3, ratios=((1, 1),), verbose=False)
        assert rows[0]["shards"] == 3 and rows[0]["engine_seconds"] > 0


class TestQueriesAndEstimator:
    def test_query_agrees_with_single_engine(self):
        graph = grid()
        engine = sharded(graph, 3, seed=4)
        single = DynamicCFCM(grid(), seed=4)
        got = engine.query(3, method="exact")
        want = single.query(3, method="exact")
        assert list(got.group) == list(want.group)
        # Version-keyed cache: a repeat is a hit, a mutation a miss.
        engine.query(3, method="exact")
        assert engine.stats.query_hits == 1
        graph.add_edge(0, 9, 1.0)
        engine.query(3, method="exact")
        assert engine.stats.query_misses == 2

    def test_forest_estimate_uses_global_pool(self):
        graph = grid()
        engine = sharded(graph, 3, seed=6, pool_size=32)
        group = [0, 20]
        exact = engine.evaluate_exact(group)
        estimate = engine.evaluate_forest(group)
        assert estimate == pytest.approx(exact, rel=0.15)
        # One engine-wide pool per root set: no per-shard pools to merge.
        health = engine.pool_health()
        assert list(health) == ["0,20"]
        assert 0.0 < health["0,20"]["ess"] <= 32.0

    def test_weighted_graph_rejects_sampling_paths(self):
        graph = grid()
        graph.update_weight(0, 1, 2.0)
        engine = sharded(graph, 2, seed=3)
        with pytest.raises(InvalidParameterError):
            engine.evaluate_forest([0])
        with pytest.raises(InvalidParameterError):
            engine.query(2)
        # evaluate_exact stays available on weighted graphs.
        assert engine.evaluate_exact([0]) > 0.0

    def test_evaluate_dispatch(self):
        engine = sharded(grid(), 2, seed=8)
        assert engine.evaluate([0], mode="exact") == engine.evaluate_exact([0])
        assert engine.evaluate([0], mode="forest") == pytest.approx(
            engine.evaluate_forest([0]))
        with pytest.raises(InvalidParameterError):
            engine.evaluate([0], mode="telepathy")

    def test_constructor_validation(self):
        with pytest.raises(InvalidParameterError):
            ShardedResistanceBackend(shards=0)
        with pytest.raises(InvalidParameterError):
            ShardedResistanceBackend(inner="gpu")
        with pytest.raises(InvalidParameterError):
            sharded(grid(), 0).evaluate_exact([0])
        # The engine knobs of the former sharded engine are gone.
        with pytest.raises(TypeError):
            make_resistance_backend("sharded", options={"coupling": "exact"})

    def test_describe_and_pending(self):
        graph = grid()
        engine = sharded(graph, 2, seed=1)
        engine.evaluate_exact([0])
        info = backend_of(engine, [0]).describe()
        assert info["shards"] == 2 and info["inner"] == ["dense", "dense"]
        graph.add_edge(0, 9, 1.0)
        assert engine.pending_events == 1
        engine.sync()
        assert engine.pending_events == 0


class TestShardedObservability:
    def test_metrics_and_spans_emitted(self):
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
        tracer = enable_tracing()
        try:
            graph = grid()
            engine = sharded(graph, 3, seed=2)
            engine.evaluate_exact([0])
            for u, v in list(graph.edges())[::6]:
                graph.update_weight(u, v, 1.5)
            engine.evaluate_exact([0])
            assert obs.REGISTRY.get("repro_shard_count").value() == 3.0
            assert obs.REGISTRY.get("repro_shard_separator_nodes").value() > 0
            stitch = obs.REGISTRY.get("repro_shard_stitch_seconds")
            assert stitch is not None and stitch.series()
            names = {span["name"] for span in tracer.spans()}
            assert "schur_stitch" in names
        finally:
            disable_tracing()
            obs.REGISTRY.reset()
            obs.REGISTRY.disable()

    def test_rebuild_counter_tracks_structural_events(self):
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
        try:
            graph = grid()
            engine = sharded(graph, 2, seed=2)
            engine.evaluate_exact([0])
            # Node events refactorise through the tracker, like every backend
            # without incremental node updates.
            graph.add_node(edges=[(0, 1.0), (1, 1.0)])
            engine.evaluate_exact([0])
            assert engine.tracker([0]).stats.refreshes == 1
            # A cross-interior insertion re-partitions inside the backend.
            u = part_nodes(engine, [0], 0)[0]
            v = part_nodes(engine, [0], 1)[-1]
            graph.add_edge(u, v, 1.0)
            engine.evaluate_exact([0])
            assert backend_of(engine, [0]).rebuilds == 1
            assert obs.REGISTRY.get("repro_shard_rebuilds_total").value() >= 1.0
        finally:
            obs.REGISTRY.reset()
            obs.REGISTRY.disable()


class TestShardedEngineContract:
    """Checkpoint, watchdog, failover and service mode come with the engine."""

    def test_checkpoint_restore_replay_is_bit_equal(self, tmp_path):
        graph = grid()
        group = [0, 27]
        engine = sharded(graph, 3, inner="sparse", seed=4, pool_size=8)
        engine.evaluate_exact(group)
        for u, v in list(graph.edges())[::7]:
            graph.update_weight(u, v, 1.5)
        engine.evaluate_exact(group)  # folded, not refactorised
        path = str(tmp_path / "sharded.npz")
        engine.checkpoint(path)

        # Crash-and-restore replays the same post-checkpoint journal: edge
        # events exercise the low-rank fold, the node join a refactorisation.
        def edges(g):
            g.update_weight(3, 4, 2.5)
            g.update_weight(20, 21, 1.7)
            g.add_edge(0, 9, 1.0)

        def node(g):
            g.add_node(edges=[(10, 1.0), (40, 1.0)])

        restored = DynamicCFCM.restore(path)
        assert restored.backend == "sharded"
        assert restored.evaluate_exact(group) == engine.evaluate_exact(group)
        for step in (edges, node):
            step(graph)
            step(restored.graph)
            assert restored.evaluate_exact(group) == engine.evaluate_exact(group)
            live, again = engine.tracker(group), restored.tracker(group)
            assert again.stats.refreshes == live.stats.refreshes
            for probe in (5, 20, 47):
                assert again.resistance_to_group(probe) == live.resistance_to_group(probe)

    def test_failed_burst_mid_fold_is_repaired_by_refactorisation(self):
        graph = grid()
        group = [0]
        engine = sharded(graph, 3, inner="dense", seed=1)
        engine.evaluate_exact(group)
        tracker = engine.tracker(group)
        blocks = tracker.backend._blocks
        sep = separator_nodes(engine, group)
        picks = []
        for part in (0, len(blocks) - 1):
            nodes = set(part_nodes(engine, group, part)) - set(group)
            picks.append(next((u, v) for u, v in graph.edges()
                              if u in nodes and v in nodes and not {u, v} & sep))
        first, last = blocks[0].backend, blocks[-1].backend
        first_epoch = first.epoch

        class FailLastShard:
            """Fault gate: the last shard's inner update fails."""

            def check(self, site, subject=None, **labels):
                if site == "backend.apply" and subject is last:
                    raise InvalidParameterError("injected inner failure")

        gate = FailLastShard()
        install_gate(gate)
        try:
            for u, v in picks:
                graph.update_weight(u, v, 2.0)
            engine.evaluate_exact(group)
        finally:
            clear_gate(gate)
        assert first.epoch > first_epoch  # the first shard had committed
        assert tracker.stats.singular_refreshes == 1
        assert tracker.backend._blocks[0].backend is not first
        assert_matches_reference(engine, graph, group)

    def test_watchdog_probes_sharded_backend(self):
        graph = grid()
        engine = sharded(graph, 3, seed=1, watchdog_interval=1)
        engine.evaluate_exact([0])
        graph.update_weight(3, 4, 2.0)
        engine.evaluate_exact([0])
        tracker = engine.tracker([0])
        assert tracker.watchdog.probes > 0
        assert tracker.verify(repair=False) < 1e-8

    def test_factorization_failure_fails_over_to_dense(self):
        graph = grid()
        engine = sharded(graph, 3, inner="sparse", seed=1)
        plan = FaultPlan(
            rules=(FaultRule("backend.factorize", probability=1.0, limit=1),), seed=0,
        )
        with FaultInjector(plan) as injector:
            value = engine.evaluate_exact([0])
        assert injector.total_injected == 1
        tracker = engine.tracker([0])
        assert isinstance(tracker.backend, DenseResistanceBackend)
        assert tracker.stats.failovers == 1
        assert_matches_reference(engine, graph, [0])
        assert value == engine.evaluate_exact([0])

    def test_service_mode_matches_synchronous_engine(self):
        base = generators.grid_graph(6, 8)
        group = (0, 1, 2)
        options = {"shards": 3}

        async def scenario():
            async with AsyncCFCMService(base, seed=7, workers=2, backend="sharded",
                                        backend_options=options) as service:
                report = await poisson_traffic(
                    service, 40, rng=5, query_fraction=0.0,
                    monitor_group=group, k=3, method="exact",
                )
                final = await service.evaluate(group, mode="exact")
                return report, final

        report, final = asyncio.run(scenario())
        assert report.updates_applied > 0
        observations = list(report.eval_observations)
        observations.append((final.version, float(final.result)))
        for version, value in observations:
            replayed = replay_events(base, report.events, upto_version=version)
            expected = DynamicCFCM(replayed, seed=0).evaluate_exact(group)
            assert value == pytest.approx(expected, abs=1e-8, rel=1e-8)
