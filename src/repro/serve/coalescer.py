"""In-flight request coalescing keyed by content fingerprints.

The serve deployment sees bursts of duplicate work: a dashboard refresh
fans the same Fig. 8 spec out to every panel, CI re-posts the experiment
it just posted.  The two-tier persistent cache already makes the *second*
evaluation cheap -- but only once the first has finished.  The coalescer
closes the in-flight window: requests whose
:func:`~repro.serve.protocol.run_coalesce_key` match while a computation
is still running *join* that computation instead of starting another, so
N identical simultaneous requests cost exactly one evaluation.

Correctness hinges on two properties:

* **joining is safe** because the key is content-addressed over design /
  workload fingerprints and resolved sampling options -- equal keys imply
  bitwise-identical results (see ``protocol.py``);
* **joiners cannot hurt each other**: every waiter awaits the shared
  task through :func:`asyncio.shield`, so a disconnecting client cancels
  only its own wait -- the computation keeps running for the remaining
  waiters (and for the cache).  Only when the *owner* explicitly aborts
  (server shutdown past the drain deadline) is the task itself cancelled.

Progress events fan out the same way: while a stream is subscribed, the
computation publishes ``(done, total)`` ticks from the evaluation thread
via ``loop.call_soon_threadsafe`` and every streaming waiter subscribes
its own queue, so one run drives any number of progress streams (and a
unary-only run never wakes the loop for a tick).
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Iterator

#: A progress/status event published to streaming subscribers.
Event = dict


class Computation:
    """One shared in-flight evaluation: a task plus its subscribers."""

    def __init__(self, key: str, loop: asyncio.AbstractEventLoop) -> None:
        self.key = key
        self.created = time.monotonic()
        self.waiters = 0
        self._loop = loop
        self._subscribers: set[asyncio.Queue] = set()
        self.task: asyncio.Task | None = None  # set by the coalescer

    # -- progress fan-out ---------------------------------------------

    def subscribe(self) -> asyncio.Queue:
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        self._subscribers.discard(queue)

    def publish(self, event: Event) -> None:
        """Deliver an event to every subscriber (event-loop thread only)."""
        for queue in list(self._subscribers):
            queue.put_nowait(event)

    def publish_threadsafe(self, event: Event) -> None:
        """Deliver an event from an evaluation thread."""
        self._loop.call_soon_threadsafe(self.publish, event)

    def progress_callback(self) -> Callable[[int, int], None]:
        """A ``(done, total)`` callback publishing to stream subscribers."""

        def progress(done: int, total: int) -> None:
            if self._subscribers:
                self.publish_threadsafe(
                    {"event": "progress", "done": done, "total": total}
                )

        return progress


class RequestCoalescer:
    """Share one computation among all identically-keyed in-flight requests."""

    def __init__(self) -> None:
        self._in_flight: dict[str, Computation] = {}

    def __len__(self) -> int:
        return len(self._in_flight)

    def __iter__(self) -> Iterator[Computation]:
        return iter(self._in_flight.values())

    def join(
        self,
        key: str,
        start: Callable[[Computation], Awaitable[object]],
    ) -> tuple[Computation, bool]:
        """Join the in-flight computation for ``key``, starting it if new.

        ``start`` is called exactly once per key while in flight -- with
        the fresh :class:`Computation`, whose progress callback it should
        thread into the evaluation -- and must return an awaitable of the
        result.  Returns ``(computation, coalesced)`` where ``coalesced``
        is ``True`` when an existing computation was joined.

        Must be called from the event-loop thread (the server's request
        handlers are coroutines, so this holds by construction; no lock
        is needed because the loop serializes us).
        """
        existing = self._in_flight.get(key)
        if existing is not None:
            existing.waiters += 1
            return existing, True

        loop = asyncio.get_running_loop()
        computation = Computation(key, loop)
        computation.waiters = 1
        computation.task = loop.create_task(start(computation))
        self._in_flight[key] = computation
        computation.task.add_done_callback(
            lambda _task: self._finish(key, computation)
        )
        return computation, False

    def _finish(self, key: str, computation: Computation) -> None:
        if self._in_flight.get(key) is computation:
            del self._in_flight[key]
        task = computation.task
        assert task is not None
        if task.cancelled():
            computation.publish({"event": "cancelled"})
        elif task.exception() is not None:
            computation.publish(
                {"event": "error", "message": str(task.exception())}
            )
        else:
            computation.publish({"event": "done"})

    async def wait(self, computation: Computation) -> object:
        """Await the shared result without endangering other waiters.

        ``asyncio.shield`` decouples this waiter's cancellation (client
        disconnect, timeout) from the shared task: our own await raises
        ``CancelledError`` but the computation -- and everyone else
        waiting on it -- continues unharmed.
        """
        task = computation.task
        assert task is not None
        try:
            return await asyncio.shield(task)
        finally:
            computation.waiters -= 1

    async def drain(self, timeout: float | None = None) -> bool:
        """Wait for all in-flight computations (graceful shutdown).

        Returns ``True`` when everything finished inside ``timeout``;
        on ``False`` the stragglers were cancelled.
        """
        tasks = [c.task for c in self._in_flight.values() if c.task is not None]
        if not tasks:
            return True
        done, pending = await asyncio.wait(tasks, timeout=timeout)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        return not pending
