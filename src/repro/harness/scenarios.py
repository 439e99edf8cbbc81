"""The seeded scenario fuzzer: adversarial workloads with oracles attached.

A :class:`Scenario` is a *self-judging* workload: a concrete batch of
transaction programs plus the invariants that any conforming execution
of them must preserve.  The fuzzer (:func:`build_scenario`) derives one
deterministically from a seed, drawing shapes that are known to pry
open protocol windows:

* **write-skew cliques** — the canonical local-vs-global gap: every
  per-key state looks fine while the global history is not one-copy
  serializable (plain SI admits it; everything stronger must not);
* **read-only audits racing transfers** — consistent-snapshot checks:
  a committed audit must observe the conserved total, never a torn one;
* **long scans over hot keys** — declared-read-only scans riding the
  kernel fast path while increments hammer the same keys (exercises
  snapshot leases and GC under fire);
* **skewed multi-key RMWs** — lost-update bait on zipf-hot keys;
* **uniform mixes** — the engine's stock workload, for baseline drift.

Roughly half of all seeds also carry a :class:`~repro.engine.faults.
FaultSpec`, so forced client aborts, delayed commits/validations and
key-biased stalls are injected — deterministically — into the same
scenarios; every invariant must hold regardless.

Invariants carry a **level**: ``"si"`` invariants (conservation, audit
totals, lost-update freedom) bind every registered protocol including
plain snapshot isolation, while ``"serializable"`` invariants (the
write-skew guard) bind only protocols whose guarantee promises a
serializable order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dist.recovery import CRASH_POINTS, CrashSpec
from repro.dist.replication import REPL_CRASH_POINTS, ReplicaCrashSpec
from repro.engine.faults import FaultSpec, NetworkFaultSpec, PartitionWindow
from repro.engine.operations import (
    Operation,
    SymbolTransform,
    TransactionSpec,
    increment_op,
    read_op,
    update_op,
)
from repro.engine.workloads import (
    WorkloadConfig,
    _zipf_chooser,
    banking_transfer,
    cross_shard_transfer_workload,
    uniform_workload,
)
from repro.harness.recorder import RunContext

#: invariant levels, weakest binding first
SI_LEVEL = "si"
SERIALIZABLE_LEVEL = "serializable"


@dataclass(frozen=True)
class Invariant:
    """One post-run check: returns ``None`` if satisfied, else a detail."""

    name: str
    level: str
    check: Callable[[RunContext], Optional[str]]

    def __post_init__(self) -> None:
        if self.level not in (SI_LEVEL, SERIALIZABLE_LEVEL):
            raise ValueError(f"unknown invariant level {self.level!r}")


@dataclass(frozen=True)
class Scenario:
    """A seeded adversarial workload plus its conformance invariants."""

    name: str
    seed: int
    initial_data: Dict[str, Any]
    specs: Tuple[TransactionSpec, ...]
    invariants: Tuple[Invariant, ...]
    fault_spec: Optional[FaultSpec] = None

    def generator(self) -> Callable[[random.Random], TransactionSpec]:
        """The scenario as a simulator workload: cycle the spec list.

        Each call returns a fresh cycling closure, so two simulators
        over the same scenario replay the same transaction sequence.
        """
        specs = self.specs
        state = {"next": 0}

        def generate(rng: random.Random) -> TransactionSpec:
            index = state["next"]
            state["next"] = (index + 1) % len(specs)
            return specs[index]

        return generate

    def describe(self) -> str:
        """Pretty-print the transaction programs, one per line."""
        lines = []
        for index, spec in enumerate(self.specs):
            ops = " ".join(str(op) for op in spec.operations)
            suffix = " [read-only]" if spec.is_read_only else ""
            lines.append(f"  [{index}] {spec.name}: {ops}{suffix}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# shared invariants
# ----------------------------------------------------------------------


def counter_consistency(keys: Sequence[str]) -> Invariant:
    """Lost-update detection for increment-only scenarios.

    Valid only when **every** write in the scenario is a ``+1``
    increment: the final value of each key must equal its initial value
    plus the number of committed increment operations on it.  A lost
    update (two increments racing, one overwritten) shows up as a final
    value below the committed count.
    """

    def check(ctx: RunContext) -> Optional[str]:
        expected: Dict[str, Any] = {key: ctx.initial_data[key] for key in keys}
        for commit in ctx.commits:
            for op in commit.spec.operations:
                if op.writes and op.key in expected:
                    expected[op.key] += 1
        lost = {
            key: (ctx.final_snapshot[key], expected[key])
            for key in keys
            if ctx.final_snapshot[key] != expected[key]
        }
        if lost:
            detail = ", ".join(
                f"{key}: final={final} expected={want}"
                for key, (final, want) in sorted(lost.items())
            )
            return f"lost/spurious updates: {detail}"
        return None

    return Invariant("counter-consistency", SI_LEVEL, check)


def conservation(keys: Sequence[str]) -> Invariant:
    """The sum over ``keys`` is conserved (transfers move, never mint)."""

    def check(ctx: RunContext) -> Optional[str]:
        initial_total = sum(ctx.initial_data[key] for key in keys)
        final_total = sum(ctx.final_snapshot[key] for key in keys)
        if final_total != initial_total:
            return f"total drifted: initial={initial_total} final={final_total}"
        return None

    return Invariant("conservation", SI_LEVEL, check)


def audit_totals(audit_name: str, keys: Sequence[str]) -> Invariant:
    """Every committed audit observed the conserved total.

    This is the per-key-fine/globally-broken detector: an audit that
    reads mid-transfer sees a total off by the in-flight amount even
    though each individual balance is plausible.
    """

    def check(ctx: RunContext) -> Optional[str]:
        expected = sum(ctx.initial_data[key] for key in keys)
        for commit in ctx.commits_named(audit_name):
            observed = sum(commit.reads[key] for key in keys)
            if observed != expected:
                return (
                    f"audit T{commit.txn_id} observed total {observed}, "
                    f"expected {expected} (reads: {commit.reads!r})"
                )
        return None

    return Invariant("audit-totals", SI_LEVEL, check)


def write_skew_guard(clique: Sequence[str]) -> Invariant:
    """At least one member of an on-call clique stays on call.

    Serial executions can never empty the clique (each leaver re-checks
    that another member remains); only a write-skew interleaving can.
    Bound at the ``serializable`` level — plain SI admits this by design.
    """

    def check(ctx: RunContext) -> Optional[str]:
        total = sum(ctx.final_snapshot[key] for key in clique)
        if total < 1:
            values = {key: ctx.final_snapshot[key] for key in clique}
            return f"clique emptied by write skew: {values!r}"
        return None

    return Invariant(f"write-skew-guard[{clique[0]}..]", SERIALIZABLE_LEVEL, check)


# ----------------------------------------------------------------------
# scenario families
# ----------------------------------------------------------------------


class StandDownTransform(SymbolTransform):
    """An on-call member leaves (0) only if another member of ``clique``
    is still on call (its value as read is at least 1); otherwise it
    stays as read."""

    __slots__ = ("own", "clique")
    symbol = "stand-down"

    def __init__(self, own: str, clique: Sequence[str]) -> None:
        self.own = own
        self.clique = tuple(clique)

    def __call__(self, reads: Mapping[str, Any]) -> Any:
        others = sum(reads[key] for key in self.clique) - reads[self.own]
        return 0 if others >= 1 else reads[self.own]

    def __str__(self) -> str:
        return f"stand-down unless alone in {' '.join(self.clique)}"


def _transfers_vs_audits(rng: random.Random, size: int) -> Tuple[Dict[str, Any], List[TransactionSpec], List[Invariant]]:
    """Read-only audits racing conditional transfers over few accounts."""
    num_accounts = rng.randrange(4, 8)
    accounts = [f"acct{i}" for i in range(num_accounts)]
    initial = {name: 100 for name in accounts}
    specs: List[TransactionSpec] = []
    for _ in range(size):
        if rng.random() < 0.35:
            specs.append(
                TransactionSpec(
                    [read_op(name) for name in accounts],
                    name="audit-ro",
                    read_only=True,
                )
            )
            continue
        source, target = rng.sample(accounts, 2)
        amount = rng.randrange(5, 40)
        specs.append(banking_transfer(source, target, amount))
    invariants = [conservation(accounts), audit_totals("audit-ro", accounts)]
    return initial, specs, invariants


def _write_skew_cliques(rng: random.Random, size: int) -> Tuple[Dict[str, Any], List[TransactionSpec], List[Invariant]]:
    """On-call cliques: each member may stand down only if others remain."""
    num_cliques = rng.randrange(1, 3)
    clique_size = rng.randrange(2, 4)
    initial: Dict[str, Any] = {}
    cliques: List[List[str]] = []
    for c in range(num_cliques):
        keys = [f"oncall{c}:{i}" for i in range(clique_size)]
        cliques.append(keys)
        for key in keys:
            initial[key] = 1
    specs: List[TransactionSpec] = []
    invariants: List[Invariant] = [write_skew_guard(keys) for keys in cliques]
    for _ in range(size):
        keys = cliques[rng.randrange(num_cliques)]
        if rng.random() < 0.2:
            specs.append(
                TransactionSpec(
                    [read_op(key) for key in keys], name="ws-audit", read_only=True
                )
            )
            continue
        own = keys[rng.randrange(len(keys))]
        specs.append(
            TransactionSpec(
                [read_op(key) for key in keys]
                + [update_op(own, StandDownTransform(own, keys))],
                name="stand-down",
            )
        )
    return initial, specs, invariants


def _hot_scan_increments(rng: random.Random, size: int) -> Tuple[Dict[str, Any], List[TransactionSpec], List[Invariant]]:
    """Long declared-read-only scans racing zipf-hot increments."""
    num_keys = rng.randrange(8, 14)
    keys = [f"k{i}" for i in range(num_keys)]
    initial = {key: 0 for key in keys}
    choose = _zipf_chooser(keys, theta=1.1)
    scan_length = min(num_keys, rng.randrange(6, 10))
    specs: List[TransactionSpec] = []
    for _ in range(size):
        if rng.random() < 0.4:
            start = rng.randrange(num_keys)
            specs.append(
                TransactionSpec(
                    [read_op(keys[(start + i) % num_keys]) for i in range(scan_length)],
                    name="hot-scan",
                    read_only=True,
                )
            )
        else:
            ops: List[Operation] = []
            for _ in range(rng.randrange(2, 5)):
                key = choose(rng)
                ops.append(increment_op(key))
            specs.append(TransactionSpec(ops, name="hot-rmw"))
    return initial, specs, [counter_consistency(keys)]


def _skewed_rmw(rng: random.Random, size: int) -> Tuple[Dict[str, Any], List[TransactionSpec], List[Invariant]]:
    """Multi-key read-modify-writes concentrated on a zipf hot set."""
    num_keys = rng.randrange(6, 12)
    keys = [f"k{i}" for i in range(num_keys)]
    initial = {key: 0 for key in keys}
    choose = _zipf_chooser(keys, theta=1.3)
    specs: List[TransactionSpec] = []
    for _ in range(size):
        touched: List[str] = []
        for _ in range(rng.randrange(2, 5)):
            key = choose(rng)
            if key not in touched:
                touched.append(key)
        ops: List[Operation] = []
        for key in touched:
            ops.append(increment_op(key))
        specs.append(TransactionSpec(ops, name="skewed-rmw"))
    return initial, specs, [counter_consistency(keys)]


def _uniform_mix(rng: random.Random, size: int) -> Tuple[Dict[str, Any], List[TransactionSpec], List[Invariant]]:
    """The engine's stock uniform mix (all writes are +1 increments)."""
    config = WorkloadConfig(
        num_keys=rng.randrange(6, 16),
        operations_per_transaction=rng.randrange(2, 5),
        read_fraction=rng.choice([0.3, 0.5, 0.7]),
    )
    initial, specs = uniform_workload(
        num_transactions=size, config=config, seed=rng.randrange(1 << 30)
    )
    return initial, specs, [counter_consistency(list(initial))]


_FAMILIES: Dict[str, Callable[[random.Random, int], Tuple[Dict[str, Any], List[TransactionSpec], List[Invariant]]]] = {
    "transfers-vs-audits": _transfers_vs_audits,
    "write-skew": _write_skew_cliques,
    "hot-scan": _hot_scan_increments,
    "skewed-rmw": _skewed_rmw,
    "uniform-mix": _uniform_mix,
}


def scenario_families() -> Tuple[str, ...]:
    """The fuzzer's scenario family names."""
    return tuple(_FAMILIES)


def build_scenario(
    seed: int,
    quick: bool = False,
    family: Optional[str] = None,
    with_faults: Optional[bool] = None,
) -> Scenario:
    """Derive a scenario deterministically from ``seed``.

    ``family`` pins the shape (default: seed-chosen); ``with_faults``
    pins fault injection (default: roughly half of all seeds inject).
    Both draws are consumed from the RNG stream whether or not they are
    pinned, so pinning a seed's *natural* choices reproduces the exact
    scenario — that is what makes a counterexample's replay command
    (``--family X --faults on``) byte-faithful.
    """
    rng = random.Random(seed)
    names = list(_FAMILIES)
    drawn_family = names[rng.randrange(len(names))]
    chosen = family if family is not None else drawn_family
    if chosen not in _FAMILIES:
        known = ", ".join(_FAMILIES)
        raise ValueError(f"unknown scenario family {chosen!r}; known: {known}")
    size = rng.randrange(10, 16) if quick else rng.randrange(18, 28)
    initial, specs, invariants = _FAMILIES[chosen](rng, size)

    drawn_inject = rng.random() < 0.5
    inject = drawn_inject if with_faults is None else with_faults
    fault_spec: Optional[FaultSpec] = None
    if inject:
        keys = sorted(initial)
        biased = frozenset(rng.sample(keys, max(1, len(keys) // 4)))
        fault_spec = FaultSpec(
            abort_probability=rng.uniform(0.0, 0.04),
            stall_probability=rng.uniform(0.0, 0.06),
            commit_stall_probability=rng.uniform(0.0, 0.06),
            biased_keys=biased,
            max_injections=64,
            seed=rng.randrange(1 << 30),
        )

    return Scenario(
        name=chosen,
        seed=seed,
        initial_data=initial,
        specs=tuple(specs),
        invariants=tuple(invariants),
        fault_spec=fault_spec,
    )


# ----------------------------------------------------------------------
# distributed scenarios: cross-shard 2PC cells (repro.dist)
# ----------------------------------------------------------------------

#: the chaos plans the distributed conformance matrix sweeps
DIST_PLANS = ("none", "loss", "crash", "partition")


@dataclass(frozen=True)
class DistScenario:
    """A seeded cross-shard workload plus its chaos configuration.

    The distributed sibling of :class:`Scenario`: the specs span shards
    (so they exercise the 2PC path), and instead of an engine
    ``FaultSpec`` it carries the network-level chaos — a
    :class:`~repro.engine.faults.NetworkFaultSpec`, coordinator
    :class:`~repro.dist.recovery.CrashSpec` injections, and (when
    ``replicas > 1``) replica-level
    :class:`~repro.dist.replication.ReplicaCrashSpec` injections.
    Oracles live in :func:`repro.harness.oracles.evaluate_dist_run`
    rather than as per-scenario invariants: every distributed run is
    judged by the same five chaos oracles (conservation, atomicity,
    replay consistency, orphan locks, abort taxonomy), plus the four
    replication oracles when the shards are replica groups.
    """

    name: str
    seed: int
    plan: str
    initial_data: Dict[str, Any]
    specs: Tuple[TransactionSpec, ...]
    num_shards: int
    network_faults: Optional[Any] = None
    crash_specs: Tuple[Any, ...] = ()
    replicas: int = 1
    replica_crashes: Tuple[Any, ...] = ()

    def describe(self) -> str:
        lines = [
            f"  shards={self.num_shards} replicas={self.replicas} "
            f"plan={self.plan} faults={self.network_faults!r} "
            f"crashes={list(self.crash_specs)} "
            f"replica-crashes={list(self.replica_crashes)}"
        ]
        for index, spec in enumerate(self.specs):
            ops = " ".join(str(op) for op in spec.operations)
            lines.append(f"  [{index}] {spec.name}: {ops}")
        return "\n".join(lines)


def build_dist_scenario(
    seed: int, plan: str = "none", quick: bool = False, replicas: int = 1
) -> DistScenario:
    """Derive one distributed chaos cell deterministically from a seed.

    ``plan`` picks the chaos family: ``"none"`` is the faultless
    baseline, ``"loss"`` adds seeded message loss + duplication (and on
    some seeds a partition window), ``"crash"`` injects one or two
    coordinator crashes at seed-chosen :data:`~repro.dist.recovery.
    CRASH_POINTS` transitions, and ``"partition"`` opens a partition
    window around a shard.  Everything — topology size, batch size,
    fault probabilities, crash transitions — is drawn from one
    ``random.Random(seed)``, so a cell is replayed exactly by its
    ``(seed, plan, quick, replicas)`` tuple.

    ``replicas > 1`` turns every shard into a Paxos replica group and
    re-aims the chaos at the replication layer: the ``crash`` plan adds
    leader crashes at :data:`~repro.dist.replication.REPL_CRASH_POINTS`
    transitions, and the ``partition`` plan isolates a seed-chosen
    subset of one shard's replicas (sometimes the minority, sometimes
    the majority-with-a-quorum side).  Replication-specific draws come
    from a *forked* RNG so the workload and the unreplicated chaos are
    byte-identical to the ``replicas=1`` cell of the same seed.
    """
    if plan not in DIST_PLANS:
        raise ValueError(f"plan must be one of {DIST_PLANS}, got {plan!r}")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    rng = random.Random(seed * 9176 + 11)
    num_shards = rng.choice((2, 3, 4))
    accounts_per_shard = 3 if quick else rng.choice((3, 4, 5))
    num_transactions = (6 if quick else rng.choice((10, 14, 18)))
    initial, specs = cross_shard_transfer_workload(
        num_shards=num_shards,
        accounts_per_shard=accounts_per_shard,
        num_transactions=num_transactions,
        cross_fraction=0.8,
        seed=rng.randrange(1 << 30),
    )
    # replication chaos draws come from a fork so the primary stream
    # (and with it every replicas=1 cell) stays byte-identical
    repl_rng = random.Random(seed * 7919 + 101)
    network_faults = None
    crash_specs: Tuple[Any, ...] = ()
    replica_crashes: Tuple[Any, ...] = ()
    if plan == "loss":
        partitions = ()
        if rng.random() < 0.4:
            start = rng.uniform(0.0, 20.0)
            shard = f"shard{rng.randrange(num_shards)}"
            if replicas > 1:
                # the unreplicated node name does not exist in a
                # replicated topology — isolate one of its replicas
                shard = f"{shard}.r{repl_rng.randrange(replicas)}"
            partitions = (
                PartitionWindow(start, start + rng.uniform(5.0, 15.0), frozenset({shard})),
            )
        network_faults = NetworkFaultSpec(
            loss_probability=rng.uniform(0.05, 0.2),
            duplicate_probability=rng.uniform(0.0, 0.1),
            partitions=partitions,
            seed=rng.randrange(1 << 30),
        )
    elif plan == "crash":
        count = 1 + (rng.random() < 0.3)
        picked = set()
        specs_list = []
        for _ in range(count):
            transition = rng.choice(CRASH_POINTS)
            txn_index = rng.randrange(num_transactions)
            if (transition, txn_index) in picked:
                continue
            picked.add((transition, txn_index))
            specs_list.append(
                CrashSpec(transition, txn_index=txn_index, restart_delay=rng.uniform(2.0, 10.0))
            )
        crash_specs = tuple(specs_list)
        if replicas > 1:
            # the replicated crash plan aims at shard leaders too: one or
            # two leader crashes at 2PC-visible replication transitions
            repl_count = 1 + (repl_rng.random() < 0.5)
            repl_picked = set()
            repl_list = []
            for _ in range(repl_count):
                shard = f"shard{repl_rng.randrange(num_shards)}"
                transition = repl_rng.choice(REPL_CRASH_POINTS)
                txn_index = repl_rng.randrange(max(1, num_transactions // 2))
                if (shard, transition) in repl_picked:
                    continue
                repl_picked.add((shard, transition))
                repl_list.append(
                    ReplicaCrashSpec(
                        shard=shard,
                        transition=transition,
                        txn_index=txn_index,
                        restart_delay=repl_rng.uniform(8.0, 16.0),
                    )
                )
            replica_crashes = tuple(repl_list)
    elif plan == "partition":
        start = rng.uniform(5.0, 25.0)
        duration = rng.uniform(15.0, 40.0)
        shard_index = rng.randrange(num_shards)
        if replicas > 1:
            # isolate a seed-chosen subset of one shard's replicas —
            # sometimes the minority (group keeps quorum), sometimes
            # everything but one (the survivor must shed, not hang)
            cut = repl_rng.randrange(1, replicas)
            members = repl_rng.sample(range(replicas), cut)
            isolated = frozenset(
                f"shard{shard_index}.r{member}" for member in sorted(members)
            )
        else:
            isolated = frozenset({f"shard{shard_index}"})
        network_faults = NetworkFaultSpec(
            partitions=(PartitionWindow(start, start + duration, isolated),),
        )
    return DistScenario(
        name=f"cross-shard-transfers/{plan}",
        seed=seed,
        plan=plan,
        initial_data=initial,
        specs=tuple(specs),
        num_shards=num_shards,
        network_faults=network_faults,
        crash_specs=crash_specs,
        replicas=replicas,
        replica_crashes=replica_crashes,
    )
