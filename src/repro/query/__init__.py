"""Query workloads, the §5.2 preparation stage and the scatter-gather
executor that services prepared queries."""

from repro.query.executor import PreparedQuery, QueryResult, StorageManager
from repro.query.scatter import ShardedPrepared, scatter_execute
from repro.query.scheduler import (
    coalesce_lbns,
    effective_policy,
    merge_plan_runs,
    slice_plan,
)
from repro.query.workload import (
    BeamQuery,
    RangeQuery,
    random_beam,
    random_range_cube,
    range_for_selectivity,
)

__all__ = [
    "BeamQuery",
    "PreparedQuery",
    "QueryResult",
    "RangeQuery",
    "ShardedPrepared",
    "StorageManager",
    "coalesce_lbns",
    "effective_policy",
    "merge_plan_runs",
    "random_beam",
    "random_range_cube",
    "range_for_selectivity",
    "scatter_execute",
    "slice_plan",
]
