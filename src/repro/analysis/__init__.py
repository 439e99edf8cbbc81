"""Analysis tools: exhaustive classification, counting and experiment tables.

These are the routines the paper-figure tests and ``examples/`` print
their tables from: classify every schedule of a small system into the paper's classes
(serial / conflict-serializable / SR / WSR / correct), compute fixpoint
sizes and the Section 6 delay-free probability ``|P| / |H|``, compare
locking policies, and format everything as plain-text tables.
"""

from repro.analysis.hierarchy import (
    HierarchyRow,
    ScheduleClassCounts,
    classify_all_schedules,
    fixpoint_hierarchy,
    hierarchy_table,
)
from repro.analysis.counting import (
    delay_free_probability,
    scheduler_delay_statistics,
    expected_displacement,
)
from repro.analysis.locking_analysis import (
    LockingPolicyReport,
    compare_locking_policies,
    locking_report_table,
)
from repro.analysis.mvsg import (
    MVHistory,
    explain_mvsg_cycle,
    multiversion_serialization_graph,
    one_copy_serializable,
)
from repro.analysis.reporting import format_table

__all__ = [
    "MVHistory",
    "explain_mvsg_cycle",
    "multiversion_serialization_graph",
    "one_copy_serializable",
    "HierarchyRow",
    "ScheduleClassCounts",
    "classify_all_schedules",
    "fixpoint_hierarchy",
    "hierarchy_table",
    "delay_free_probability",
    "scheduler_delay_statistics",
    "expected_displacement",
    "LockingPolicyReport",
    "compare_locking_policies",
    "locking_report_table",
    "format_table",
]
