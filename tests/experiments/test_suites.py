"""Tests for the named cross-mobility scenario suites."""

import dataclasses

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.common import Effort
from repro.experiments.suites import (
    CROSS_MOBILITY_MODELS,
    SUITES,
    available_suites,
    build_suite,
    suite_description,
)
#: Small enough that a whole-suite smoke run finishes in seconds.
TINY_EFFORT = Effort(runs=1, sim_time=15.0, message_count=2)

TINY_BASE = {"n_nodes": 10, "active_nodes": 5}


class TestSuiteCatalogue:
    def test_expected_suites_present(self):
        assert {
            "paper-table1",
            "cross-mobility",
            "sparse-dtn",
            "convoy",
            "urban-grid",
        } <= set(available_suites())

    def test_descriptions_exist(self):
        for name in available_suites():
            assert suite_description(name)

    def test_every_suite_builds_and_expands(self):
        for name in available_suites():
            spec = build_suite(name, seed=3, replicates=2)
            assert spec.total_tasks() > 0
            assert spec.replicates == 2
            assert all(s.seed == 3 for s in spec.scenarios())

    def test_cross_mobility_covers_four_models(self):
        assert len(CROSS_MOBILITY_MODELS) >= 4
        assert {m.model for m in CROSS_MOBILITY_MODELS} >= {
            "random_waypoint",
            "gauss_markov",
            "rpgm",
            "manhattan",
        }
        spec = build_suite("cross-mobility")
        (field, values), = spec.grid
        assert field == "mobility"
        assert values == CROSS_MOBILITY_MODELS

    def test_effort_scales_the_base_scenario(self):
        spec = build_suite("convoy", effort=TINY_EFFORT)
        assert spec.base.sim_time == TINY_EFFORT.sim_time
        assert spec.base.message_count == TINY_EFFORT.message_count

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            build_suite("does-not-exist")

    def test_base_overrides_patch_the_scenario(self):
        spec = build_suite(
            "urban-grid", effort=TINY_EFFORT, base_overrides=TINY_BASE
        )
        assert spec.base.n_nodes == 10
        assert spec.base.active_nodes == 5

    def test_builders_are_deterministic(self):
        for name in SUITES:
            assert build_suite(name, seed=7) == build_suite(name, seed=7)


class TestSuiteExecution:
    def test_cross_mobility_suite_runs_parallel_identical_to_serial(self):
        """Acceptance: a suite sweeping 4 movement models executes, and
        parallel runs are bit-identical to serial."""
        spec = build_suite(
            "cross-mobility",
            replicates=1,
            effort=TINY_EFFORT,
            base_overrides=TINY_BASE,
        )
        spec = dataclasses.replace(spec, protocols=("glr", "epidemic"))
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=4)
        assert len(serial.metrics) == 4 * 2  # 4 models x 2 protocols
        for cell in serial.metrics:
            for s, p in zip(serial.metrics[cell], parallel.metrics[cell]):
                assert dataclasses.asdict(s) == dataclasses.asdict(p)

    def test_convoy_suite_resumes_from_stream(self, tmp_path):
        spec = build_suite(
            "convoy",
            replicates=1,
            effort=TINY_EFFORT,
            base_overrides=TINY_BASE,
        )
        stream = tmp_path / "convoy.jsonl"
        cold = run_campaign(spec, stream_path=stream)
        resumed = run_campaign(spec, stream_path=stream)
        assert cold.stream_hits == 0
        assert resumed.stream_hits == spec.total_tasks()
        for cell in cold.metrics:
            for a, b in zip(cold.metrics[cell], resumed.metrics[cell]):
                assert dataclasses.asdict(a) == dataclasses.asdict(b)


class TestMobilityXProtocolSuite:
    def test_present_and_described(self):
        assert "mobility-x-protocol" in available_suites()
        assert suite_description("mobility-x-protocol")

    def test_sweeps_protocol_configs_and_mobility_jointly(self):
        from repro.experiments.protocols import ProtocolConfig

        spec = build_suite("mobility-x-protocol", replicates=2)
        (field, values), = spec.grid
        assert field == "mobility"
        assert len(values) >= 2
        assert all(isinstance(p, ProtocolConfig) for p in spec.protocols)
        swept_fields = {
            name for p in spec.protocols for name, _ in p.params
        }
        assert {"custody", "check_interval"} <= swept_fields

    def test_runs_end_to_end_with_stream(self, tmp_path):
        spec = build_suite(
            "mobility-x-protocol",
            replicates=1,
            effort=TINY_EFFORT,
            base_overrides=TINY_BASE,
        )
        stream = tmp_path / "suite.jsonl"
        result = run_campaign(spec, workers=2, stream_path=stream)
        assert len(result.metrics) == len(spec.scenarios()) * len(
            spec.protocols
        )
        labels = {protocol for _, protocol in result.metrics}
        assert "glr(custody=False)" in labels
        assert "glr(check_interval=1.8)" in labels
        resumed = run_campaign(spec, workers=2, stream_path=stream)
        assert resumed.stream_hits == spec.total_tasks()
        assert resumed.render() == result.render()
