"""Load generation from one thread, timed from each request's due time.

``repro.serving.loadgen`` times open-loop requests from the actual send,
which hides a stalled generator, and runs its closed loop with one thread
per client.  Here one generator thread drives both shapes:

* :func:`open_loop` sends on a fixed schedule; latency is measured from
  the time a request was due, and how late each send was is recorded;
* :func:`closed_loop` keeps a fixed number of requests outstanding; future
  callbacks only signal a semaphore, and the generator thread submits the
  next request.

Completion callbacks run on the scheduler's pump thread, so they do no more
than stamp the clock.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, List, Optional, Tuple

from harness import BenchmarkError, now
from repro.exceptions import ServingOverloadError

#: A generator that cannot submit or hear back for this long has stalled.
STALL_TIMEOUT_S = 60.0


class RequestLog:
    """Per-request timestamps and futures, indexed in submission order.

    A request the scheduler refused (overload) keeps ``None`` as its future.
    """

    def __init__(self) -> None:
        self.phase: List[str] = []
        self.query: List[int] = []
        self.due: List[float] = []
        self.sent: List[float] = []
        self.done: List[float] = []
        self.futures: List[Optional[Future]] = []

    def __len__(self) -> int:
        return len(self.sent)

    def indices(self, phase: str) -> List[int]:
        return [i for i, name in enumerate(self.phase) if name == phase]

    def _stamp(self, position: int) -> Callable[[Future], None]:
        done = self.done

        def on_done(_future: Future) -> None:
            done[position] = now()

        return on_done

    def submit(
        self,
        submit: Callable[..., Future],
        phase: str,
        pick: Callable[[int], Tuple[Any, int, int]],
        due: float,
        on_done: Optional[Callable[[Future], None]] = None,
    ) -> None:
        """Send request number ``len(self)``; overload rejections are logged."""
        position = len(self.sent)
        row, k, query_index = pick(position)
        self.phase.append(phase)
        self.query.append(query_index)
        self.due.append(due)
        self.done.append(float("nan"))
        self.sent.append(now())
        try:
            future = submit(row, k=k)
        except ServingOverloadError:
            self.futures.append(None)
            self.done[position] = now()
            if on_done is not None:
                on_done(Future())
            return
        self.futures.append(future)
        future.add_done_callback(self._stamp(position))
        if on_done is not None:
            future.add_done_callback(on_done)

    def wait_all(self) -> None:
        for future in self.futures:
            if future is not None:
                future.exception(STALL_TIMEOUT_S)


def open_loop(
    submit: Callable[..., Future],
    log: RequestLog,
    phase: str,
    pick: Callable[[int], Tuple[Any, int, int]],
    rate_qps: float,
    duration_s: float,
) -> float:
    """Send at ``rate_qps`` for ``duration_s``; returns the phase's start.

    A send that falls behind schedule goes out at once (never skipped), so
    a generator stall shows up as lateness and as latency of the requests
    that were due during it.
    """
    interval = 1.0 / rate_qps
    start = now() + interval
    count = int(duration_s * rate_qps)
    for i in range(count):
        due = start + i * interval
        wait = due - now()
        if wait > 0:
            time.sleep(wait)
        log.submit(submit, phase, pick, due)
    log.wait_all()
    return start


def closed_loop(
    submit: Callable[..., Future],
    log: RequestLog,
    phase: str,
    pick: Callable[[int], Tuple[Any, int, int]],
    outstanding: int,
    duration_s: float,
) -> Tuple[float, float]:
    """Keep ``outstanding`` requests in flight for ``duration_s``.

    Returns the phase's ``(start, end)``; requests still in flight at the
    end complete before this returns.
    """
    completions = threading.Semaphore(0)

    def release(_future: Future) -> None:
        completions.release()

    start = now()
    end = start + duration_s
    for _ in range(outstanding):
        log.submit(submit, phase, pick, now(), on_done=release)
    while True:
        if not completions.acquire(timeout=STALL_TIMEOUT_S):
            raise BenchmarkError(f"closed loop stalled in phase {phase!r}")
        if now() >= end:
            break
        log.submit(submit, phase, pick, now(), on_done=release)
    log.wait_all()
    return start, end
