"""Multi-user engine simulation (Section 6): scheduling, waiting and execution time.

Drives the banking workload through five online concurrency-control
protocols — serial execution, strict two-phase locking, serialization
graph testing, timestamp ordering and optimistic validation — under the
discrete-event simulator, and prints the latency decomposition the paper
uses to argue about scheduler performance: the richer the set of request
streams a scheduler passes without delay, the smaller the waiting
component and the larger the delay-free fraction.

Run with::

    python examples/engine_simulation.py
"""

from repro.engine.protocols.base import SerialProtocol
from repro.engine.protocols.occ import OptimisticConcurrencyControl
from repro.engine.protocols.sgt import SerializationGraphTesting
from repro.engine.protocols.timestamp_ordering import TimestampOrdering
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.simulator import SimulationConfig, compare_protocols
from repro.engine.workloads import banking_generator
from repro.analysis.reporting import format_table

PROTOCOLS = {
    "serial": SerialProtocol,
    "strict-2pl": StrictTwoPhaseLocking,
    "sgt": SerializationGraphTesting,
    "timestamp": TimestampOrdering,
    "occ": OptimisticConcurrencyControl,
}


def main() -> None:
    initial, generate = banking_generator(num_accounts=24, audit_probability=0.05)
    config = SimulationConfig(num_clients=8, duration=600, seed=11, abort_backoff=4.0)
    print(
        f"Simulating {config.num_clients} client terminals for {config.duration} time units "
        f"on {len(initial) - 2} accounts (banking workload)..."
    )
    reports = compare_protocols(PROTOCOLS, initial, generate, config)

    rows = []
    for name, report in reports.items():
        b = report.mean_breakdown
        rows.append(
            (
                name,
                report.committed,
                f"{report.throughput:.3f}",
                f"{report.mean_response_time:.2f}",
                f"{b.scheduling:.2f}",
                f"{b.waiting:.2f}",
                f"{b.execution:.2f}",
                f"{report.delay_free_fraction:.1%}",
                f"{report.abort_rate:.1%}",
                "yes" if report.committed_serializable else "NO",
            )
        )
    print()
    print(
        format_table(
            [
                "protocol",
                "commits",
                "throughput",
                "response",
                "sched",
                "wait",
                "exec",
                "delay-free",
                "abort-rate",
                "serializable",
            ],
            rows,
        )
    )
    print()
    print("Reading the table with the paper's glasses: every protocol preserves")
    print("consistency (committed histories serializable), but the serial scheduler")
    print("pays for its minimal information with waiting time, while the protocols")
    print("that use syntactic information (locks, conflict graphs, timestamps,")
    print("validation) pass far more requests without delay.")


if __name__ == "__main__":
    main()
