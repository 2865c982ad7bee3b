"""One RegistryDiff, one bus call, every derived cache retired (regression).

Before the cache runtime, a registry mutation fanned out to three separate
invalidation call-sites: memo keys through ``invalidate``, statistics and
shard stores through ``discard_plan_statistics``, and nothing at all for
partitions or fragment tokens. These tests pin the unified contract: a
single mutation produces one tag set (:func:`invalidation_tags` plus
:meth:`retire_version_tags`) and one ``CacheRegistry.invalidate_tags``
call, after which *no* enrolled cache still holds an entry derived from
the retired version's fact sets.
"""

from __future__ import annotations

import asyncio

from repro.cache import cache_registry
from repro.confidence.engine.memo import shared_memo
from repro.model import fact
from repro.plan.cache import shared_plan_cache
from repro.plan.statistics import cached_statistics
from repro.queries import identity_view, parse_rule
from repro.service import MediatorService, RequestStatus, SchedulerConfig
from repro.service.registry import invalidation_tags
from repro.shard.executor import _FRAGMENT_TOKENS, _token_entry
from repro.shard.partition import _PARTITIONS
from repro.sources import SourceDescriptor

from tests.conftest import make_example51_collection

DOMAIN = ["a", "b", "c", "d"]
QUERY = parse_rule("ans(x) <- R(x)")
R_A = fact("R", "a")


def run(coroutine):
    return asyncio.run(coroutine)


def extra_source():
    return SourceDescriptor(
        identity_view("V3", "R", 1), [fact("V3", "d")], "1/2", "1/2",
        name="S3",
    )


class TestSingleDiffClearsEverything:
    def test_one_mutation_retires_all_derived_entries(self):
        registry = cache_registry()
        # The plan cache is keyed by query, not by fact set: a plan cached
        # by an earlier test would skip profiling this snapshot's certain
        # core, so start from a miss to warm every layer below.
        shared_plan_cache().clear()

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(shards=2),
            ) as service:
                # Warm every derived layer from the version-0 snapshot.
                response = await service.answer(QUERY)
                assert response.status is RequestStatus.OK
                await service.confidence([R_A])
                old = service.registry.snapshot()
                store = service.scheduler._stores[(old.version, frozenset())]
                core = store.certain_db.core()
                executor = store.executor
                fragments = executor.sharded.built_fragments()
                partition_key = (executor.sharded.union_core(),
                                 executor.sharded.spec)
                # Serial execution never mints tokens; mint them here the
                # way the process path would, so the bus has work to do.
                for f in fragments:
                    _token_entry(f)
                # The warm state this test is about: every layer primed.
                assert cached_statistics(core) is not None
                assert fragments and all(
                    f in _FRAGMENT_TOKENS for f in fragments
                )
                assert _PARTITIONS.peek(partition_key) is not None
                before_invalidations = registry.stats()["invalidations"]

                diff = service.register_source(extra_source())

                memo_tags = invalidation_tags(old, diff)
                removed = service.scheduler.metrics.counter(
                    "memo_entries_invalidated"
                ).value
                return (
                    core, fragments, partition_key, memo_tags,
                    before_invalidations, removed,
                )

        core, fragments, partition_key, memo_tags, before, removed = run(
            scenario()
        )

        # Memo entries for the retired spec: gone, via the same bus call —
        # and there were warm entries to remove (non-vacuous).
        assert memo_tags
        assert removed >= 1
        assert not any(key in shared_memo() for key in memo_tags)
        # Fact-set-derived entries for the retired certain core: gone.
        assert cached_statistics(core) is None
        assert not any(f in _FRAGMENT_TOKENS for f in fragments)
        for f in fragments:
            assert cached_statistics(f) is None
        # Partition layouts tagged with the retired cores: gone.
        assert _PARTITIONS.peek(partition_key) is None
        assert _PARTITIONS.invalidate_tags([core, *fragments]) == 0
        # And it was the bus that did it, not per-cache clears.
        assert cache_registry().stats()["invalidations"] > before

    def test_unrelated_entries_survive_the_diff(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(shards=2),
            ) as service:
                first = await service.answer(QUERY)
                service.register_source(extra_source())
                # Re-warm under version 1: the new snapshot's derived state
                # is built fresh and must be found warm afterwards — the
                # diff retires only the *old* version's entries.
                second = await service.answer(QUERY)
                new = service.registry.snapshot()
                executor = service.scheduler._stores[
                    (new.version, frozenset())
                ].executor
                partition_key = (executor.sharded.union_core(),
                                 executor.sharded.spec)
                assert first.status is second.status is RequestStatus.OK
                return partition_key

        partition_key = run(scenario())
        # fresh snapshot's partition layout untouched by the earlier diff
        assert _PARTITIONS.peek(partition_key) is not None

    def test_bus_counts_surface_in_service_stats(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(shards=2),
            ) as service:
                await service.answer(QUERY)
                await service.confidence([R_A])
                service.register_source(extra_source())
                return service.stats()

        stats = run(scenario())
        counters = stats["metrics"]["counters"]
        assert counters.get("registry_mutations", 0) == 1
        assert counters.get("cache_entries_invalidated", 0) >= 1
        # The unified tree carries the same story per cache.
        leaves = stats["cache"]["caches"]
        total = sum(leaf["invalidations"] for leaf in leaves.values())
        assert stats["cache"]["invalidations"] == total >= 1
