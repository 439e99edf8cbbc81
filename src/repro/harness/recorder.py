"""The history recorder: capture the committed history once per run.

The engine's front-ends report aggregates (counts, rates, snapshots),
which is enough for throughput tables but not for oracles: the invariants the
harness checks — audit totals, lost-update counting — need to know
*which* transaction programs committed and *what each one read* on its
committed attempt.  The recorder hooks the kernel's ``commit_sink``
notification, which fires exactly once per successful commit (normal
and read-only fast path alike) while the committed attempt's spec and
read buffer are still attached to the session, and snapshots both.

The executor retains its sessions so this could be scraped after the
fact, but the simulator *reuses* one session per client terminal — by
the time a run finishes, every earlier transaction's reads are gone.
Recording at the commit notification is the only point where both modes
expose the same information, which is what lets one oracle stack serve
the whole differential matrix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from repro.engine.kernel import EngineKernel, Session
from repro.engine.operations import TransactionSpec


class CommittedTransaction:
    """One committed attempt: the program that ran and what it read."""

    __slots__ = ("spec", "txn_id", "session_id", "attempts", "reads")

    def __init__(
        self,
        spec: TransactionSpec,
        txn_id: int,
        session_id: int,
        attempts: int,
        reads: Dict[str, Any],
    ) -> None:
        self.spec = spec
        self.txn_id = txn_id
        self.session_id = session_id
        self.attempts = attempts
        self.reads = reads

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return (
            f"CommittedTransaction({self.name!r}, txn={self.txn_id}, "
            f"attempts={self.attempts}, reads={self.reads!r})"
        )


@dataclass
class RunContext:
    """Everything an invariant check may look at after one run."""

    initial_data: Mapping[str, Any]
    final_snapshot: Mapping[str, Any]
    commits: List[CommittedTransaction]

    def commits_named(self, name: str) -> List[CommittedTransaction]:
        return [commit for commit in self.commits if commit.name == name]


class HistoryRecorder:
    """Collect :class:`CommittedTransaction` records via the kernel hook."""

    def __init__(self) -> None:
        self.commits: List[CommittedTransaction] = []

    def attach(self, kernel: EngineKernel) -> "HistoryRecorder":
        kernel.commit_sink = self._on_commit
        return self

    def _on_commit(self, session: Session) -> None:
        self.commits.append(
            CommittedTransaction(
                spec=session.spec,
                txn_id=session.txn_id,
                session_id=session.session_id,
                attempts=session.attempts,
                reads=dict(session.reads),
            )
        )

    def context(
        self,
        initial_data: Mapping[str, Any],
        final_snapshot: Mapping[str, Any],
    ) -> RunContext:
        return RunContext(
            initial_data=initial_data,
            final_snapshot=final_snapshot,
            commits=self.commits,
        )

    def digest(self, final_snapshot: Mapping[str, Any]) -> str:
        """A replay fingerprint of the committed history.

        Two runs of the same (scenario seed, engine seed, fault seed)
        cell must produce the same digest — the harness's byte-identical
        replay guarantee.  Built with :mod:`hashlib` rather than
        ``hash()`` so the fingerprint is stable across interpreter runs
        (PYTHONHASHSEED does not leak in).
        """
        parts: List[str] = []
        for commit in self.commits:
            reads = ",".join(f"{k}={commit.reads[k]!r}" for k in sorted(commit.reads))
            parts.append(f"{commit.name}#{commit.session_id}@{commit.attempts}({reads})")
        parts.append("|".join(f"{k}={final_snapshot[k]!r}" for k in sorted(final_snapshot)))
        return hashlib.sha256(";".join(parts).encode()).hexdigest()
