"""Task identity pins: literal task keys and spec hashes.

Every metrics stream records its tasks under :func:`task_key` and opens
with a :func:`campaign_spec_hash` header, so a change that re-derives
either one — a renamed payload field, a different canonical form, a
bumped ``CACHE_FORMAT`` — silently turns every existing stream into a
stranger that resumes nothing.  The metric pins in
``test_table1_pins.py`` cannot see that; these literals can.  Update
them only together with a deliberate ``CACHE_FORMAT`` bump.
"""

from __future__ import annotations

from repro.core.protocol import GLRConfig
from repro.experiments.campaign import (
    CACHE_FORMAT,
    CampaignSpec,
    ReplicateTask,
    campaign_spec_hash,
    task_key,
)
from repro.experiments.protocols import ProtocolConfig
from repro.experiments.scenarios import PAPER_TABLE1, Scenario
from repro.mobility.base import Region
from repro.mobility.registry import MobilityConfig


def test_cache_format_is_unchanged():
    assert CACHE_FORMAT == 3


def test_table1_glr_task_key():
    task = ReplicateTask(PAPER_TABLE1, "glr", 0)
    assert task_key(task) == (
        "c803587b7b76de11d73a69ca4449d96dcc2d7b341271572aa2ca62f42a7d3921"
    )


def test_table1_glr_variant_task_keys():
    variant = ReplicateTask(
        PAPER_TABLE1, "glr", 0,
        protocol_config=ProtocolConfig.of("glr", custody=False),
    )
    assert task_key(variant) == (
        "be6e8236d5f813cd957c80a94842b41bbf1c095d4524c70bd1a4964f1bb618b0"
    )
    # The per-protocol config slot the figure drivers still use.
    driver = ReplicateTask(
        PAPER_TABLE1, "glr", 0, glr_config=GLRConfig(check_interval=0.6)
    )
    assert task_key(driver) == (
        "b098aca405041ff4153cfae7dac9ee85f8407e7e26639898a8108846c1c2f528"
    )


def test_engine_adversary_and_buffer_task_key():
    task = ReplicateTask(
        Scenario(engine="vectorized", adversary="blackhole:0.2"),
        "epidemic",
        1,
        buffer_limit=5,
    )
    assert task_key(task) == (
        "f4402d15da011145cdca35b51b5f42e2de681d3cde0df6b19004eff6673780d3"
    )


def test_trace_task_key_pins_content_not_path(tmp_path):
    trace = tmp_path / "anywhere" / "t.ns2"
    trace.parent.mkdir()
    trace.write_text(
        "$node_(0) set X_ 10.0\n$node_(0) set Y_ 10.0\n"
        "$node_(1) set X_ 20.0\n$node_(1) set Y_ 20.0\n"
    )
    scenario = Scenario(
        name="traced",
        n_nodes=2,
        active_nodes=2,
        region=Region(100.0, 100.0),
        message_count=1,
        sim_time=10.0,
        mobility=MobilityConfig.of("trace", path=str(trace)),
    )
    assert task_key(ReplicateTask(scenario, "glr", 0)) == (
        "032a1e213251294b1c70165b6f967cf00e852b722b0216da6322f73f7d4d9d09"
    )


def test_small_campaign_spec_hash():
    spec = CampaignSpec(
        name="pin",
        base=PAPER_TABLE1.but(sim_time=30.0, message_count=4),
        grid=(
            ("radius", (50.0, 100.0)),
            ("mobility", (MobilityConfig.of("random_waypoint"),
                          MobilityConfig.of("gauss_markov"))),
        ),
        protocols=(
            "glr",
            ProtocolConfig.of("glr", custody=False),
            "epidemic",
        ),
        replicates=2,
    )
    assert campaign_spec_hash(spec) == (
        "4c206c6084666ba4bd7e4c88c449571b39113704e735c5967309236d886e47cb"
    )
