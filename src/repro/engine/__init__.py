"""An executable multi-user concurrency-control engine.

The paper's performance claims are about delays imposed on interactively
arriving requests (Section 6): scheduling time + waiting time + execution
time.  This subpackage provides the measurement substrate for those
claims — a versioned key-value store, online concurrency-control
protocols (registered in
:data:`repro.engine.protocols.registry.PROTOCOL_ENTRIES`), a workload generator family including the
paper's banking example, and a discrete-event simulator that decomposes
transaction latency exactly as Section 6 does.

The protocols are *online* schedulers: they see one request at a time and
must grant, delay, or reject (abort) it, in contrast with the static,
whole-history schedulers of :mod:`repro.core.schedulers`.  The test suite
cross-checks them against the static theory: every history of committed
operations they produce is conflict-serializable.

Both front-ends (untimed executor, timed simulator) drive the shared
:mod:`repro.engine.kernel`, which owns session state and the event-driven
wait index that wakes blocked requests when their blockers commit or
abort instead of polling them on a timer.  Storage can be sharded into
independent conflict domains
(:class:`repro.engine.storage.ShardedDataStore`), and every layer
records into a pluggable :class:`repro.engine.metrics.Metrics` registry.

The engine is also *multi-version*: per-key version chains
(:class:`repro.engine.mvstore.MultiVersionDataStore`, sharded as
:class:`repro.engine.mvstore.ShardedMultiVersionDataStore`) back
multi-version timestamp ordering
(:class:`repro.engine.protocols.mvto.MultiVersionTimestampOrdering`) and
snapshot isolation
(:class:`repro.engine.protocols.snapshot_isolation.SnapshotIsolation`,
with a ``serializable=True`` SSI knob), whose readers never block or
abort.  Declared-read-only transactions ride the kernel's snapshot fast
path, and committed multi-version histories are certified one-copy
serializable by the MVSG checker in :mod:`repro.analysis.mvsg`.

The front ends are :func:`repro.engine.runtime.run_batch` /
:func:`repro.engine.runtime.run_sharded_batch` (untimed),
:class:`repro.engine.simulator.Simulator` (timed) and
:class:`repro.engine.parallel.ParallelShardRunner` (process-parallel
shards); workloads come from :mod:`repro.engine.workloads`.
"""
