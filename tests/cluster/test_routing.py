"""Unit tests of the routing policies against stub replicas."""

from __future__ import annotations

import pytest

from repro.api.errors import FrontendError
from repro.cluster import (ROUTES, ClusterConfig, LeastLoadedPolicy,
                           PrefixAffinityPolicy, RoundRobinPolicy, Router,
                           build_routing_policy)
from repro.cluster.routing import SPILL_FACTOR, SPILL_SLACK_TOKENS, routable


class Stub:
    """Minimal duck-typed replica the policies route over."""

    def __init__(self, index, load=0.0, pool="unified",
                 draining=False, retired=False):
        self.index = index
        self.load_score = load
        self.pool = pool
        self.draining = draining
        self.retired = retired


class TestRoundRobin:
    def test_cycles_in_order(self):
        policy = RoundRobinPolicy()
        replicas = [Stub(0), Stub(1), Stub(2)]
        picks = [policy.select(replicas, [1, 2]).index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_ignores_load(self):
        policy = RoundRobinPolicy()
        replicas = [Stub(0, load=1e9), Stub(1, load=0.0)]
        assert policy.select(replicas, []).index == 0


class TestLeastLoaded:
    def test_picks_smallest_backlog(self):
        policy = LeastLoadedPolicy()
        replicas = [Stub(0, load=30.0), Stub(1, load=10.0), Stub(2, load=20.0)]
        assert policy.select(replicas, []).index == 1

    def test_ties_break_on_index(self):
        policy = LeastLoadedPolicy()
        replicas = [Stub(1, load=5.0), Stub(0, load=5.0)]
        assert policy.select(replicas, []).index == 0


class TestPrefixAffinity:
    def test_prefix_key_covers_only_leading_block(self):
        policy = PrefixAffinityPolicy(block_tokens=4)
        assert (policy.prefix_key([1, 2, 3, 4, 5])
                == policy.prefix_key([1, 2, 3, 4, 99]))
        assert (policy.prefix_key([1, 2, 3, 4])
                != policy.prefix_key([1, 2, 3, 5]))

    def test_first_touch_goes_least_loaded_then_sticks(self):
        policy = PrefixAffinityPolicy(block_tokens=4)
        replicas = [Stub(0, load=50.0), Stub(1, load=10.0), Stub(2, load=20.0)]
        tokens = [7, 8, 9, 10]
        first = policy.select(replicas, tokens)
        assert first.index == 1  # new key follows the load
        assert policy.hits == 0
        # The key now sticks to replica 1 even when it is no longer the
        # coldest.
        replicas[1].load_score = 30.0
        second = policy.select(replicas, tokens)
        assert second.index == 1
        assert policy.hits == 1

    def test_spill_repins_to_coldest(self):
        policy = PrefixAffinityPolicy(block_tokens=4)
        replicas = [Stub(0, load=10.0), Stub(1, load=10.0)]
        tokens = [3, 3, 3, 3]
        assert policy.select(replicas, tokens).index == 0
        # Overload the sticky target far past the guard threshold,
        # 2 * (10 + 128) = 276.
        replicas[0].load_score = 1000.0
        spilled = policy.select(replicas, tokens)
        assert spilled.index == 1
        assert policy.spills == 1
        # The spill re-pinned the key: the next request follows it
        # without spilling again.
        assert policy.select(replicas, tokens).index == 1
        assert policy.spills == 1
        assert policy.hits == 1

    def test_slack_prevents_spill_on_near_empty_cluster(self):
        policy = PrefixAffinityPolicy(block_tokens=4)
        replicas = [Stub(0, load=100.0), Stub(1, load=0.0)]
        tokens = [5, 5, 5, 5]
        policy.select(replicas, tokens)  # pins to 1 (coldest)
        replicas[1].load_score = 200.0   # busy, but under 2*(100+128)
        assert policy.select(replicas, tokens).index == 1

    def test_spill_threshold_is_factor_times_coldest_plus_slack(self):
        assert (SPILL_FACTOR, SPILL_SLACK_TOKENS) == (2.0, 128)
        policy = PrefixAffinityPolicy(block_tokens=4)
        replicas = [Stub(0, load=0.0), Stub(1, load=50.0)]
        tokens = [6, 6, 6, 6]
        policy.select(replicas, tokens)  # pins to 0 (coldest)
        replicas[0].load_score = 2 * (50 + 128)     # at the threshold: stays
        assert policy.select(replicas, tokens).index == 0
        replicas[0].load_score = 2 * (50 + 128) + 1  # above it: spills
        assert policy.select(replicas, tokens).index == 1
        assert (policy.hits, policy.spills) == (1, 1)

    def test_pin_to_vanished_replica_falls_back(self):
        policy = PrefixAffinityPolicy(block_tokens=4)
        tokens = [9, 9, 9, 9]
        policy.select([Stub(0), Stub(1, load=5.0)], tokens)  # pins to 0
        # Replica 0 retired: only 1 remains routable.
        choice = policy.select([Stub(1, load=5.0)], tokens)
        assert choice.index == 1
        assert policy.select([Stub(1, load=5.0)], tokens).index == 1


class TestRouterAndFactory:
    def test_factory_builds_each_route(self):
        assert isinstance(build_routing_policy("rr"), RoundRobinPolicy)
        assert isinstance(build_routing_policy("least-loaded"),
                          LeastLoadedPolicy)
        affinity = build_routing_policy("affinity", block_tokens=8)
        assert isinstance(affinity, PrefixAffinityPolicy)
        assert affinity.block_tokens == 8
        with pytest.raises(ValueError):
            build_routing_policy("nope")

    def test_router_counts_decisions(self):
        router = Router(RoundRobinPolicy())
        replicas = [Stub(0), Stub(1)]
        for _ in range(5):
            router.route(replicas, [1])
        stats = router.stats()
        assert stats["route"] == "rr"
        assert stats["n_decisions"] == 5
        assert stats["decisions"] == {"0": 3, "1": 2}

    def test_router_rejects_empty_candidates(self):
        with pytest.raises(ValueError):
            Router(RoundRobinPolicy()).route([], [1])

    def test_affinity_stats_surface_hits_and_spills(self):
        router = Router(PrefixAffinityPolicy(block_tokens=2))
        replicas = [Stub(0), Stub(1)]
        router.route(replicas, [1, 1])
        router.route(replicas, [1, 1])
        stats = router.stats()
        assert stats["affinity_hits"] == 1
        assert stats["affinity_spills"] == 0

    def test_routable_filters_pool_and_lifecycle(self):
        replicas = [
            Stub(0, pool="prefill"),
            Stub(1, pool="decode"),
            Stub(2, pool="decode", draining=True),
            Stub(3, pool="decode", retired=True),
            Stub(4, pool="decode"),
        ]
        assert [r.index for r in routable(replicas, "decode")] == [1, 4]
        assert [r.index for r in routable(replicas, "prefill")] == [0]


class TestClusterConfigValidation:
    def test_routes_constant_matches_policies(self):
        assert ROUTES == ("rr", "least-loaded", "affinity")

    def test_rejects_bad_shapes(self):
        with pytest.raises(FrontendError):
            ClusterConfig(n_replicas=0)
        with pytest.raises(FrontendError):
            ClusterConfig(route="hash")
        with pytest.raises(FrontendError):
            ClusterConfig(n_replicas=1, disaggregate=True)
        with pytest.raises(FrontendError):
            ClusterConfig(n_replicas=3, disaggregate=True,
                          n_prefill_replicas=3)
        with pytest.raises(FrontendError):
            ClusterConfig(autoscale=True, n_replicas=2,
                          scale_up_queue_depth=2, scale_down_queue_depth=2)
        with pytest.raises(FrontendError):
            ClusterConfig(autoscale=True, n_replicas=4, max_replicas=2)

    def test_pool_sizing_properties(self):
        config = ClusterConfig(n_replicas=4, disaggregate=True,
                               n_prefill_replicas=1)
        assert config.n_decode_replicas == 3
        assert config.scaled_pool_size == 3
        assert config.resolved_max_replicas == 6
        capped = ClusterConfig(n_replicas=2, autoscale=True, max_replicas=5)
        assert capped.resolved_max_replicas == 5
