"""kgflow: flowline workflow engine and cost-aware cloud scheduler for KGC."""

__version__ = "0.1.0"

from .flowline import (  # noqa: F401
    Flowline,
    FlowlineError,
    NetParams,
    TaskNode,
    TaskProfile,
    ValidationReport,
    apply_partition,
    ideal_time,
    makespan,
    n_slices,
    validate,
)
