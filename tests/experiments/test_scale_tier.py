"""The cluster-scale tier: preset, map sizing, streaming assembly.

The ``production_scale`` preset must keep the paper's ratios, every
preset must get a map whose dense column covers its key space, and the
streaming dataset path must be an exact drop-in: the streamed placement
is compared key for key against the materialised-profile placement the
figure presets use.
"""

import random

import pytest

from repro.errors import ConfigError
from repro.experiments import (
    bench_scale,
    build_system,
    medium_scale,
    production_scale,
)
from repro.experiments.config import config_from_dict, config_to_dict
from repro.routing import PartitionMap
from repro.workload.dataset import (
    choose_distributed_type_ids,
    choose_distributed_types,
    initial_placement,
    place_unprofiled_keys,
)
from repro.workload.generator import (
    PAPER_TUPLE_COUNT,
    PAPER_UNIFORM_TYPES,
    PAPER_ZIPF_TYPES,
    build_profile,
    iter_profile_types,
)


class TestProductionPreset:
    def test_keeps_paper_type_ratios(self):
        uniform = production_scale(
            distribution="uniform", tuple_count=1_000_000
        )
        zipf = production_scale(distribution="zipf", tuple_count=1_000_000)
        assert uniform.workload.distinct_types == (
            1_000_000 * PAPER_UNIFORM_TYPES // PAPER_TUPLE_COUNT
        )
        assert zipf.workload.distinct_types == (
            1_000_000 * PAPER_ZIPF_TYPES // PAPER_TUPLE_COUNT
        )

    def test_scales_admission_with_cluster(self):
        assert production_scale(node_count=100).runtime.max_concurrent == 2_000
        assert production_scale(node_count=500).runtime.max_concurrent == 10_000
        assert production_scale(node_count=500).cluster.node_count == 500

    def test_validation(self):
        with pytest.raises(ConfigError, match="at least one node"):
            production_scale(node_count=0)
        with pytest.raises(ConfigError, match="500k tuples"):
            production_scale(tuple_count=100_000)

    def test_round_trips_through_dict(self):
        config = production_scale(node_count=250, tuple_count=1_500_000)
        document = config_to_dict(config)
        assert config_from_dict(document) == config
        # A document saved before a field was retired names it in a
        # ConfigError, at any nesting level — not a bare TypeError.
        document["runtime"]["storage_tier"] = "auto"
        with pytest.raises(ConfigError, match="runtime.*storage_tier"):
            config_from_dict(document)
        with pytest.raises(ConfigError, match="experiment.*bogus, zzz"):
            config_from_dict({**config_to_dict(config), "zzz": 1, "bogus": 2})


def test_every_preset_gets_a_map_sized_to_its_key_space():
    for config in (
        bench_scale(), medium_scale(),
        production_scale(node_count=8, tuple_count=500_000),
    ):
        live_map = build_system(config).store.live_map
        assert live_map.capacity == config.workload.tuple_count
        assert len(live_map) == config.workload.tuple_count
        assert not live_map._replicas  # single-replica, all in the column


class TestStreamingAssembly:
    """The streaming path must equal the materialised path bit for bit."""

    CONFIG = bench_scale(alpha=0.6).workload
    PARTITIONS = list(range(5))

    def test_streamed_types_match_built_profile(self):
        streamed = list(iter_profile_types(self.CONFIG))
        assert streamed == build_profile(self.CONFIG).types

    def test_distributed_id_selection_matches_profile_selection(self):
        profile = build_profile(self.CONFIG)
        from_profile = choose_distributed_types(
            profile, 0.6, random.Random(42)
        )
        from_count = choose_distributed_type_ids(
            len(profile.types), 0.6, random.Random(42)
        )
        assert from_count == from_profile
        assert choose_distributed_type_ids(
            10, 1.0, random.Random(0)
        ) == set(range(10))

    def test_streamed_placement_matches_profile_placement(self):
        profile = build_profile(self.CONFIG)
        distributed = choose_distributed_types(profile, 0.6, random.Random(1))
        reference = initial_placement(profile, self.PARTITIONS, distributed)
        place_unprofiled_keys(
            reference, self.CONFIG.tuple_count, self.PARTITIONS
        )
        streamed = initial_placement(
            iter_profile_types(self.CONFIG),
            self.PARTITIONS,
            distributed,
            pmap=PartitionMap(self.CONFIG.tuple_count),
        )
        place_unprofiled_keys(
            streamed, self.CONFIG.tuple_count, self.PARTITIONS
        )
        assert len(streamed) == len(reference) == self.CONFIG.tuple_count
        for key in range(self.CONFIG.tuple_count):
            assert streamed.replicas_of(key) == reference.replicas_of(key)

    def test_initial_placement_requires_empty_map(self):
        used = PartitionMap(16)
        used.assign(0, 0)
        with pytest.raises(ConfigError, match="empty partition map"):
            initial_placement(
                iter_profile_types(self.CONFIG),
                self.PARTITIONS,
                set(),
                pmap=used,
            )
