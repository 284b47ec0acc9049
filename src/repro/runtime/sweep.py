"""Long-lived worker-process lifecycle.

:class:`WorkerProcess` owns one child process together with an inbox
queue the parent keeps feeding, a monotonic heartbeat the parent can
age-check, and a :meth:`~WorkerProcess.respawn` that replaces a dead
incarnation in place (fresh process, fresh inbox).  The sharded serving
tier (:mod:`repro.serve.sharded`) builds its dispatcher/worker discipline
— heartbeats, dead-worker detection, orphaned-request requeue — on it.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Callable, Optional, Tuple

__all__ = ["WorkerProcess"]


class WorkerProcess:
    """One long-lived, respawnable worker process with mailbox + heartbeat.

    Parameters
    ----------
    target:
        Module-level callable run in the child as ``target(inbox, outbox,
        heartbeat, *args)`` (module-level so spawn platforms can pickle
        it).  It should consume messages from ``inbox`` in a loop, reply
        on ``outbox``, and store ``time.monotonic()`` into
        ``heartbeat.value`` periodically — ideally from a side thread, so
        a long-running job does not read as a dead worker.
    args:
        Extra positional arguments appended after ``(inbox, outbox,
        heartbeat)``.  Only things that must *survive* a respawn belong
        here; the mailboxes and heartbeat are recreated fresh by every
        :meth:`start`.
    ctx:
        ``multiprocessing`` context (platform default when omitted: fork
        on Linux, spawn on macOS / Windows).
    clock:
        Monotonic time source for spawn timestamps and heartbeat aging
        (injectable so staleness logic can be tested without sleeping;
        the child process keeps writing real ``time.monotonic`` beats
        regardless, so only use a fake clock with workers that share it).

    Both mailboxes are private to one incarnation *by design*, not
    convenience: a queue is only as healthy as the processes that touch
    its locks, and a worker SIGKILL-ed mid-``put`` dies holding the
    queue's write lock — poisoning it for every other writer, forever.
    Sharing one result queue across workers would let a single crash hang
    the whole tier (on a loaded box the feeder thread reliably still
    holds the lock when a kill lands right after a reply).  Per-worker
    queues confine the damage: the poisoned pair is abandoned with the
    dead incarnation and the fresh one starts with clean locks.
    """

    def __init__(
        self,
        target: Callable[..., None],
        args: Tuple = (),
        name: Optional[str] = None,
        ctx=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._ctx = ctx if ctx is not None else multiprocessing.get_context()
        self._target = target
        self._args = tuple(args)
        self._clock = clock
        self.name = name
        self.generation = 0  # how many times this slot has been (re)spawned
        self.started_at = 0.0
        self.inbox = None
        self.outbox = None
        self.heartbeat = None
        self._process = None

    def start(self) -> "WorkerProcess":
        """Spawn the worker with fresh mailboxes and heartbeat."""
        if self.is_alive():
            raise RuntimeError(f"worker {self.name or ''} already running")
        self.inbox = self._ctx.Queue()
        self.outbox = self._ctx.Queue()
        self.heartbeat = self._ctx.Value("d", 0.0)
        self._process = self._ctx.Process(
            target=self._target,
            args=(self.inbox, self.outbox, self.heartbeat) + self._args,
            name=self.name,
            daemon=True,  # a crashed parent must not leave workers behind
        )
        self._process.start()
        self.generation += 1
        self.started_at = self._clock()
        return self

    def send(self, message) -> None:
        """Enqueue one (picklable) message on the worker's inbox."""
        if self.inbox is None:
            raise RuntimeError("worker not started")
        self.inbox.put(message)

    def receive(self, timeout: Optional[float] = None):
        """Pop one reply from this incarnation's outbox.

        Raises :class:`queue.Empty` on timeout (``timeout=None`` returns
        immediately if nothing is queued — a non-blocking poll).
        """
        if self.outbox is None:
            raise RuntimeError("worker not started")
        if timeout is None:
            return self.outbox.get_nowait()
        return self.outbox.get(timeout=timeout)

    def is_alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def heartbeat_age(self, now: Optional[float] = None) -> float:
        """Seconds since the worker's last sign of life.

        The spawn instant counts as a beat, so a freshly (re)started
        worker that has not reached its loop yet is never mistaken for a
        stale one; ``inf`` before the first :meth:`start`.
        """
        beat = float(self.heartbeat.value) if self.heartbeat is not None else 0.0
        beat = max(beat, self.started_at)
        if beat <= 0.0:
            return float("inf")
        now = self._clock() if now is None else now
        return max(0.0, now - beat)

    def respawn(self) -> "WorkerProcess":
        """Replace a dead (or hung) incarnation in place.

        The old process is killed outright and both mailboxes are
        abandoned with it — messages queued to (or replies pending from)
        the dead incarnation are *lost*, and requeueing them onto the
        fresh one is deliberately the caller's job (only the caller knows
        which were already answered).
        """
        self.kill()
        return self.start()

    def stop(self, message=("stop",), timeout: float = 5.0) -> None:
        """Graceful shutdown: send ``message``, join, kill on overrun."""
        if self._process is None:
            return
        if self._process.is_alive():
            try:
                self.send(message)
            except (OSError, ValueError):  # inbox already torn down
                pass
            self._process.join(timeout)
        self.kill()

    def kill(self) -> None:
        """Hard-stop the worker (SIGKILL) and reap it."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
        if self._process is not None:
            self._process.join()
        for mailbox in (self.inbox, self.outbox):
            if mailbox is not None:
                # Drop the mailbox without joining its feeder thread: the
                # other end is gone, so unflushed messages never drain.
                mailbox.close()
                mailbox.cancel_join_thread()
        self.inbox = None
        self.outbox = None
