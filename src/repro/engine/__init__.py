"""An executable multi-user concurrency-control engine.

The paper's performance claims are about delays imposed on interactively
arriving requests (Section 6): scheduling time + waiting time + execution
time.  This subpackage provides the measurement substrate for those
claims — a versioned key-value store, online concurrency-control
protocols (serial execution, strict two-phase locking, serialization
graph testing, basic timestamp ordering, and optimistic validation in the
style of Kung & Robinson), a workload generator family including the
paper's banking example, and a discrete-event simulator that decomposes
transaction latency exactly as Section 6 does.

The protocols are *online* schedulers: they see one request at a time and
must grant, delay, or reject (abort) it, in contrast with the static,
whole-history schedulers of :mod:`repro.core.schedulers`.  The test suite
cross-checks them against the static theory: every history of committed
operations they produce is conflict-serializable.

Both front-ends (untimed executor, timed simulator) drive the shared
:mod:`repro.engine.kernel`, which owns session state and the event-driven
wait index that wakes blocked requests from commit/abort notifications
instead of polling them on a timer.  Storage can be sharded into
independent conflict domains (:class:`ShardedDataStore`), and every layer
records into a pluggable :class:`~repro.engine.metrics.Metrics` registry.

Since ISSUE 2 the engine is also *multi-version*: per-key version chains
(:class:`MultiVersionDataStore`, sharded as
:class:`ShardedMultiVersionDataStore`) back two additional protocols —
multi-version timestamp ordering (:class:`MultiVersionTimestampOrdering`)
and snapshot isolation (:class:`SnapshotIsolation`, with a
``serializable=True`` SSI knob) — whose readers never block or abort.
Declared-read-only transactions ride the kernel's snapshot fast path,
and committed multi-version histories are certified one-copy
serializable by the MVSG checker in :mod:`repro.analysis.mvsg`.
"""

from repro.engine.storage import DataStore, ShardedDataStore, Version
from repro.engine.mvstore import (
    MultiVersionDataStore,
    ShardedMultiVersionDataStore,
    VersionRecord,
    VersionedRead,
    ensure_multiversion,
)
from repro.engine.metrics import Counter, Histogram, Metrics
from repro.engine.faults import FaultEvent, FaultPlan, FaultSpec
from repro.engine.kernel import EngineKernel, RunQueue, Session, StepKind, StepResult
from repro.engine.parallel import ParallelShardRunner
from repro.engine.operations import (
    Operation,
    OperationKind,
    TransactionSpec,
    read_op,
    write_op,
    update_op,
)
from repro.engine.protocols.base import (
    ConcurrencyControl,
    Decision,
    DecisionKind,
    SerialProtocol,
)
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.protocols.timestamp_ordering import TimestampOrdering
from repro.engine.protocols.sgt import SerializationGraphTesting
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.mvto import MultiVersionTimestampOrdering
from repro.engine.protocols.snapshot_isolation import SnapshotIsolation
from repro.engine.protocols.registry import (
    PROTOCOL_ENTRIES,
    PROTOCOL_FACTORIES,
    ProtocolEntry,
    get_entry,
    protocol_names,
)
from repro.engine.runtime import (
    TransactionExecutor,
    ExecutionResult,
    ShardedExecutionResult,
    run_batch,
    run_sharded_batch,
)
from repro.engine.simulator import (
    Simulator,
    SimulationConfig,
    SimulationReport,
    LatencyBreakdown,
)
from repro.engine.workloads import (
    WorkloadConfig,
    banking_workload,
    uniform_workload,
    hotspot_workload,
    zipfian_workload,
    readonly_heavy_workload,
    zipfian_hotspot_workload,
    hotspot_queue_workload,
    read_mostly_workload,
    partitioned_workload,
    long_scan_workload,
    analytical_workload,
    zipfian_hotspot_generator,
    read_mostly_generator,
    partitioned_generator,
    long_scan_generator,
    analytical_generator,
    partition_of,
)

__all__ = [
    "DataStore",
    "ShardedDataStore",
    "Version",
    "MultiVersionDataStore",
    "ShardedMultiVersionDataStore",
    "VersionRecord",
    "VersionedRead",
    "ensure_multiversion",
    "Counter",
    "Histogram",
    "Metrics",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "PROTOCOL_ENTRIES",
    "PROTOCOL_FACTORIES",
    "ProtocolEntry",
    "get_entry",
    "protocol_names",
    "EngineKernel",
    "RunQueue",
    "ParallelShardRunner",
    "Session",
    "StepKind",
    "StepResult",
    "Operation",
    "OperationKind",
    "TransactionSpec",
    "read_op",
    "write_op",
    "update_op",
    "ConcurrencyControl",
    "Decision",
    "DecisionKind",
    "SerialProtocol",
    "StrictTwoPhaseLocking",
    "TimestampOrdering",
    "SerializationGraphTesting",
    "OptimisticConcurrencyControl",
    "MultiVersionTimestampOrdering",
    "SnapshotIsolation",
    "TransactionExecutor",
    "ExecutionResult",
    "ShardedExecutionResult",
    "run_batch",
    "run_sharded_batch",
    "Simulator",
    "SimulationConfig",
    "SimulationReport",
    "LatencyBreakdown",
    "WorkloadConfig",
    "banking_workload",
    "uniform_workload",
    "hotspot_workload",
    "zipfian_workload",
    "readonly_heavy_workload",
    "zipfian_hotspot_workload",
    "hotspot_queue_workload",
    "read_mostly_workload",
    "partitioned_workload",
    "long_scan_workload",
    "analytical_workload",
    "zipfian_hotspot_generator",
    "read_mostly_generator",
    "partitioned_generator",
    "long_scan_generator",
    "analytical_generator",
    "partition_of",
]
