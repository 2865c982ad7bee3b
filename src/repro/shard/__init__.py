"""``repro.shard``: partitioned fact stores with scatter-gather execution.

The layer between the plan IR and the interned store (ROADMAP's sharding
axis). A database is hash-partitioned into per-relation shards keyed by a
chosen argument position (:mod:`repro.shard.partition`), wrapped in a
:class:`ShardedDatabase` facade (:mod:`repro.shard.store`); the partition
planner (:mod:`repro.shard.planner`) decides which fragments a query must
touch — pruning all but one shard when a pushed-down constant fixes the
partition key, choosing broadcast vs repartition for joins from the
statistics catalog's cardinalities — and the :class:`ShardExecutor`
(:mod:`repro.shard.executor`) scatters compiled-plan execution across the
fragments, serially or over the engine's process pool, merging answers as
interned ID rows and boxing each distinct answer once, in one canonical
total order (:mod:`repro.shard.merge`).

The paper's per-source guarantee structure is what justifies the layer:
completeness and soundness metadata attach to *parts* of the data, so
reasoning about which partitions can affect an answer is semantically
grounded (cf. the mediated setting of Mendelzon & Mihaila §1.1).

Equivalence contract: for every conjunctive query and every partition spec,
sharded evaluation returns exactly the single-store plan answers (which in
turn equal the backtracking oracle) — property-tested over random queries,
partition keys, and shard counts including one.
"""

from repro.shard.executor import (
    ShardExecutor,
    clear_worker_stores,
    evaluate_fragment,
    evaluate_sharded,
    reset_shard_stats,
    shard_stats,
    worker_store_count,
)
from repro.shard.merge import (
    canonical_answer_key,
    canonical_order,
    decode_rows,
    merge_rows,
)
from repro.shard.partition import (
    MAX_PARTITIONS,
    PartitionSpec,
    bucket_of_fact,
    clear_partitions,
    partition_facts,
    stable_bucket,
)
from repro.shard.planner import ShardPlan, explain_shards, plan_shards
from repro.shard.store import ShardedDatabase

__all__ = [
    "MAX_PARTITIONS",
    "PartitionSpec",
    "ShardExecutor",
    "ShardPlan",
    "ShardedDatabase",
    "bucket_of_fact",
    "canonical_answer_key",
    "canonical_order",
    "clear_partitions",
    "clear_worker_stores",
    "decode_rows",
    "evaluate_fragment",
    "evaluate_sharded",
    "explain_shards",
    "merge_rows",
    "partition_facts",
    "plan_shards",
    "reset_shard_stats",
    "shard_stats",
    "stable_bucket",
    "worker_store_count",
]
