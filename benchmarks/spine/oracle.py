"""The benchmark's oracle and its failure accounting.

The oracle is a brute-force dense pass (``q . v_i + b_i`` over every
item, then :func:`repro.core.topk.top_k_rows`) over the probe users,
computed in set-up from the benchmark's own copy of the item factors.
Exact workloads must serve those pages byte for byte; approximate ones
must serve the *same* page every time a user repeats and are scored by
recall against the oracle.

Every operation of every phase is counted as sent / ok / failed; a
refused, timed-out, malformed or wrong answer is a failure, and so is a
shared-memory segment or worker process left behind.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from fixtures import Fixture
from repro.core.topk import top_k_rows
from repro.eval.recall import recall_vs_reference

_SHM_DIR = Path("/dev/shm")
#: Probe rows scored per dense block (keeps the 1M-item oracle at
#: ~130 MB instead of half a gigabyte of scores).
_ORACLE_ROWS = 16


def brute_force_pages(
    fixture: Fixture, users: np.ndarray, k: int
) -> np.ndarray:
    """Exact top-*k* pages of *users* by scoring the whole catalog."""
    queries = fixture.model.query_matrix(users)
    pages = []
    for start in range(0, len(users), _ORACLE_ROWS):
        block = slice(start, start + _ORACLE_ROWS)
        dense = queries[block] @ fixture.effective.T + fixture.bias[None, :]
        if fixture.history_log is not None:
            for row, user in enumerate(users[block]):
                purchased = fixture.history_log.user_items(int(user))
                dense[row, purchased] = -np.inf
        pages.append(top_k_rows(dense, k))
    return np.concatenate(pages)


@dataclass
class PhaseCount:
    """Operations of one phase: sent = ok + failed."""

    sent: int = 0
    ok: int = 0
    failed: int = 0


#: One answered (or failed) operation: the user asked for and the items
#: returned, ``None`` when the operation raised, timed out or was refused.
Answer = Tuple[int, Optional[Sequence[int]]]


@dataclass
class Tally:
    """Checks answers against the oracle and counts failures per phase.

    Checking runs after a phase's clock has stopped, so it costs the
    measured path nothing.
    """

    probes: np.ndarray
    pages: np.ndarray
    exact: bool
    k: int
    phases: Dict[str, PhaseCount] = field(default_factory=dict)
    #: Probe-user pages compared with the oracle / found identical.
    checked: int = 0
    matched: int = 0
    notes: List[str] = field(default_factory=list)
    _expected: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    _first_seen: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._expected = {
            int(user): tuple(int(i) for i in page[page >= 0])
            for user, page in zip(self.probes, self.pages)
        }

    def phase(self, name: str) -> PhaseCount:
        return self.phases.setdefault(name, PhaseCount())

    def record(self, phase: str, answers: Iterable[Answer]) -> List[bool]:
        """Count *answers* into *phase*; returns each one's verdict."""
        count = self.phase(phase)
        verdicts = [
            items is not None and self._is_correct(int(user), items)
            for user, items in answers
        ]
        count.sent += len(verdicts)
        count.ok += sum(verdicts)
        count.failed += len(verdicts) - sum(verdicts)
        return verdicts

    def fail(self, phase: str, note: str, n: int = 1) -> None:
        """Count *n* failed operations that produced no answer to check."""
        count = self.phase(phase)
        count.sent += n
        count.failed += n
        self.notes.append(f"{phase}: {note}")

    def passed(self, phase: str, n: int = 1) -> None:
        """Count *n* operations whose outputs were checked elsewhere."""
        count = self.phase(phase)
        count.sent += n
        count.ok += n

    def _is_correct(self, user: int, items: Sequence[int]) -> bool:
        page = tuple(int(i) for i in items)
        if len(page) != self.k or len(set(page)) != self.k or min(page) < 0:
            self.notes.append(f"user {user}: malformed page {page}")
            return False
        if self.exact:
            expected = self._expected.get(user)
            if expected is None:
                return True
            self.checked += 1
            if page != expected:
                self.notes.append(
                    f"user {user}: served {page}, oracle {expected}"
                )
                return False
            self.matched += 1
            return True
        # Approximate retrieval promises the same bytes on every repeat.
        first = self._first_seen.setdefault(user, page)
        if page != first:
            self.notes.append(f"user {user}: page changed between calls")
            return False
        return True

    @property
    def attempted(self) -> int:
        return sum(count.sent for count in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(count.failed for count in self.phases.values())

    def served_recall(self) -> float:
        """Recall of the pages served to probe users against the oracle."""
        seen = [int(user) in self._first_seen for user in self.probes]
        served = [self._first_seen[int(user)] for user in self.probes[seen]]
        return recall_vs_reference(np.asarray(served), self.pages[seen])

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        return {name: asdict(count) for name, count in self.phases.items()}


def shm_segments() -> Set[str]:
    """Names currently present in ``/dev/shm`` (empty where it is absent)."""
    if not _SHM_DIR.is_dir():
        return set()
    return set(os.listdir(_SHM_DIR))


def child_pids() -> List[int]:
    """Direct children of this process, zombies included (from ``/proc``)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else []:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we were looking
        # "pid (comm) state ppid ...": comm may hold spaces and brackets.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Runs on every path out of the benchmark.  Fleet workers are already
    joined by ``ShardRouter.close``; what remains after a clean run is
    :mod:`multiprocessing`'s shared-memory resource tracker, which
    otherwise outlives its parent by a moment (it exits only once it
    sees the parent's end of its pipe closed).
    """
    for worker in multiprocessing.active_children():
        worker.terminate()
        worker.join(timeout=5.0)
        if worker.is_alive():
            worker.kill()
            worker.join()
    from multiprocessing import resource_tracker

    # Closes the tracker's pipe and waits for it: a clean exit, so it
    # still unlinks any segment a failed run left registered.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def count_leaks(tally: Tally, segments_before: Set[str]) -> None:
    """Fail the run for segments or worker processes still around."""
    leaked = sorted(shm_segments() - segments_before)
    workers = multiprocessing.active_children()
    if leaked:
        tally.fail("teardown", f"leaked shm segments {leaked}", len(leaked))
    if workers:
        tally.fail(
            "teardown", f"unreaped workers {[w.name for w in workers]}",
            len(workers),
        )
    if not leaked and not workers:
        tally.passed("teardown")
