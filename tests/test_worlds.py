"""Tests for the repro.worlds scenario-sweep harness."""

import json

import numpy as np
import pytest

from repro import obs
from repro.exceptions import InvalidParameterError
from repro.worlds import (
    ChurnSpec,
    EstimatorSpec,
    LATENCY_SOURCE,
    TrafficSpec,
    WorldSampler,
    WorldSpec,
    gate_rows,
    run_world,
    smoke_specs,
    sweep,
)


def make_spec(**overrides):
    base = dict(
        topology="k_regular", n=48,
        churn=ChurnSpec(regime="mixed", events=8),
        traffic=TrafficSpec(mix="mixed"),
        backend="dense",
        estimator=EstimatorSpec(pool_size=12, max_samples=24,
                                forest_tolerance=0.6),
        seed=5,
    )
    base.update(overrides)
    return WorldSpec(**base)


class TestWorldSpec:
    def test_json_round_trip(self):
        spec = make_spec()
        clone = WorldSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.name == spec.name

    def test_dict_round_trip_preserves_nested_specs(self):
        spec = make_spec(
            churn=ChurnSpec(regime="reweight_storm", events=6, intensity=1.5),
            params={"m": 3}, topology="power_law",
        )
        payload = json.loads(spec.to_json())
        clone = WorldSpec.from_dict(payload)
        assert clone.churn.intensity == 1.5
        assert clone.params == {"m": 3}
        assert clone == spec

    def test_name_encodes_axes(self):
        name = make_spec().name
        for token in ("k_regular", "n48", "mixed", "dense", "s5"):
            assert token in name

    def test_validate_rejects_unknown_axes(self):
        with pytest.raises(InvalidParameterError):
            make_spec(topology="hypercube").validate()
        with pytest.raises(InvalidParameterError):
            make_spec(churn=ChurnSpec(regime="meteor", events=4)).validate()
        with pytest.raises(InvalidParameterError):
            make_spec(backend="gpu").validate()

    def test_build_graph_deterministic(self):
        first = make_spec().build_graph()
        second = make_spec().build_graph()
        assert first.n == second.n
        assert list(first.edges()) == list(second.edges())

    def test_sharded_axis_round_trips_and_names(self):
        spec = make_spec(mode="sharded", shards=3)
        clone = WorldSpec.from_json(spec.to_json())
        assert clone == spec
        assert "sharded3" in spec.name
        # Non-sharded names keep their historical shape.
        assert "shard" not in make_spec().name

    def test_sharded_validation(self):
        from repro.worlds.spec import FaultSpec

        with pytest.raises(InvalidParameterError):
            make_spec(mode="sharded", shards=0).validate()
        # Sharded worlds take fault regimes like every other mode.
        spec = make_spec(mode="sharded", faults=FaultSpec(regime="chaos"))
        assert spec.validate() is spec


class TestWorldSampler:
    def test_fixed_seed_replays_identically(self):
        batch_a = WorldSampler(events=8, seed=3).sample(6)
        batch_b = WorldSampler(events=8, seed=3).sample(6)
        assert batch_a == batch_b

    def test_child_seeds_differ_across_worlds(self):
        batch = WorldSampler(events=8, seed=3).sample(6)
        assert len({spec.seed for spec in batch}) > 1

    def test_sampled_specs_validate(self):
        for spec in WorldSampler(events=8, seed=1).sample(8):
            spec.validate()

    def test_unknown_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            WorldSampler(topologies=("moebius",))


class TestRunWorld:
    @pytest.mark.slow
    def test_k_regular_world_within_tolerance(self):
        row = run_world(make_spec())
        assert row["accuracy_ok"] and row["ess_ok"]
        assert row["exact_rel_error"] <= 1e-6
        assert row["forest_rel_error"] <= 0.6
        assert row["events_applied"] > 0
        assert row["latency_source"] == LATENCY_SOURCE
        assert gate_rows([row]) == []

    @pytest.mark.slow
    def test_ring_world_exercises_scalar_finish(self):
        # The cycle graph is popping-hostile: the lockstep sampler falls
        # back to its scalar-finish path, which this world keeps covered.
        row = run_world(make_spec(
            topology="ring", n=32,
            churn=ChurnSpec(regime="none", events=0),
            traffic=TrafficSpec(mix="read_heavy"), backend="auto", seed=9,
        ))
        assert row["accuracy_ok"] and row["ess_ok"]
        assert row["events_applied"] == 0

    @pytest.mark.slow
    def test_same_spec_reproduces_row(self):
        first = run_world(make_spec())
        second = run_world(make_spec())
        assert first["forest_value"] == second["forest_value"]
        assert first["exact_value"] == second["exact_value"]
        assert first["events_applied"] == second["events_applied"]

    @pytest.mark.slow
    def test_registry_state_restored(self):
        assert not obs.REGISTRY.enabled
        run_world(make_spec(churn=ChurnSpec(regime="none", events=0)))
        assert not obs.REGISTRY.enabled

    @pytest.mark.slow
    def test_percentiles_come_from_registry(self, monkeypatch):
        # The sweep must read latency from the obs registry, not local
        # timers: a sentinel planted in Histogram.percentile has to surface
        # verbatim (seconds -> ms) in every latency field of the row.
        from repro.obs.metrics import Histogram

        monkeypatch.setattr(Histogram, "percentile",
                            lambda self, q, **labels: 0.123)
        row = run_world(make_spec(churn=ChurnSpec(regime="none", events=0)))
        for field in ("p50_exact_ms", "p95_exact_ms", "p99_exact_ms",
                      "p50_forest_ms", "p95_forest_ms", "p99_forest_ms"):
            assert row[field] == pytest.approx(123.0)

    @pytest.mark.slow
    def test_sharded_world_matches_reference(self):
        row = run_world(make_spec(
            topology="lattice", n=36, mode="sharded", shards=3,
            churn=ChurnSpec(regime="reweight_storm", events=6,
                            intensity=1.5), seed=21,
        ))
        assert row["accuracy_ok"] and row["ess_ok"]
        assert row["shards"] == 3
        assert row["events_applied"] > 0

    @pytest.mark.slow
    def test_reweight_storm_restores_unit_weights(self):
        row = run_world(make_spec(
            topology="expander",
            churn=ChurnSpec(regime="reweight_storm", events=6, intensity=1.5),
            traffic=TrafficSpec(mix="write_heavy"), seed=14,
        ))
        # Post-storm the graph must be unit-weighted again, so the final
        # pooled-forest read happened and carries a real error figure.
        assert row["forest_value"] is not None
        assert row["forests_reweighted"] > 0
        assert row["accuracy_ok"]


class TestSweepGates:
    @pytest.mark.slow
    def test_sweep_runs_multiple_worlds(self):
        specs = [make_spec(), make_spec(topology="ring", n=32, seed=9,
                                        churn=ChurnSpec(regime="none",
                                                        events=0))]
        rows = sweep(specs)
        assert [row["world"] for row in rows] == [s.name for s in specs]

    def test_gate_rows_reports_failures(self):
        row = {
            "world": "w", "accuracy_ok": False, "ess_ok": False,
            "exact_rel_error": 0.5, "exact_tolerance": 1e-6,
            "forest_rel_error": 2.0, "forest_tolerance": 0.5,
            "min_pool_ess": 1.0, "ess_gate": 6.0,
        }
        failures = gate_rows([row])
        assert len(failures) == 2
        assert "accuracy gate" in failures[0]
        assert "ESS gate" in failures[1]

    def test_smoke_specs_cover_the_cross(self):
        specs = smoke_specs()
        assert len(specs) >= 6
        assert len({spec.topology for spec in specs}) >= 4
        assert len({spec.churn.regime for spec in specs}) >= 4
        assert len({spec.backend for spec in specs}) >= 2
        assert any(spec.mode == "service" for spec in specs)
        assert any(spec.mode == "sharded" for spec in specs)
        for spec in specs:
            spec.validate()


class TestArtifacts:
    def test_write_worlds_artifacts(self, tmp_path, capsys):
        from repro.worlds import write_worlds_artifacts

        rows = [{"world": "w1", "topology": "ring", "n": 8, "m": 8,
                 "exact_rel_error": 0.0, "forest_rel_error": 0.1,
                 "accuracy_ok": True, "ess_ok": True,
                 "min_pool_ess": np.float64(12.0)}]
        json_path = tmp_path / "WORLDS_test.json"
        csv_path = tmp_path / "WORLDS_test.csv"
        write_worlds_artifacts(rows, str(json_path), str(csv_path),
                               label="worlds_test")
        payload = json.loads(json_path.read_text())
        assert payload["benchmark"] == "worlds_test"
        assert payload["rows"][0]["world"] == "w1"
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("world,topology,n,m")
