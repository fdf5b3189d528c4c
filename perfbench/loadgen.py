"""Closed-loop load generator: one thread, a fixed number of requests outstanding.

A closed loop sends its next request only after an earlier one completes,
so a slower system receives less load.  Each request is timed from just
before ``submit()`` to the return of ``result()``.  Completion is noticed
through the handle's done callback, so a request that finishes ahead of an
older one is not charged the older one's wait.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field

#: no completion for this long ends an episode; the rest count as timed out
RESULT_TIMEOUT_SECONDS = 120.0


@dataclass
class Sample:
    """One completed request."""

    item: object
    start: float
    end: float
    report: object


@dataclass
class Episode:
    """What one closed-loop pass over a fixed request list produced."""

    samples: list[Sample] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    shed: int = 0
    timeouts: int = 0
    #: first submit to last completion, seconds
    started: float = 0.0
    finished: float = 0.0
    #: stack state read at the end of the serving window
    channel_messages: int = 0
    cache_delta: dict = field(default_factory=dict)
    conservation_gap: int = 0

    @property
    def wall_seconds(self) -> float:
        return self.finished - self.started


def closed_loop(submit, items, *, outstanding: int, burst: bool = False) -> Episode:
    """Serve ``items`` through ``submit`` keeping ``outstanding`` in flight.

    ``submit(item)`` returns a handle with ``add_done_callback`` and
    ``result``.  With ``burst`` the loop refills only once every request in
    flight has completed (a client that submits a burst and waits for all
    of it); otherwise it refills one request per completion.  A submission
    refused with ``OverloadedError`` counts as shed; any other typed error
    ``submit()`` raises (``FleetUnavailable`` and the like) or ``result()``
    raises counts as failed.  No completion within
    ``RESULT_TIMEOUT_SECONDS`` ends the episode with the rest timed out.
    """
    # Imported here: the serving stack must come from the checkout's source,
    # which the caller puts on the path after importing this module.
    from repro.errors import OverloadedError, PrimerError

    done: queue.SimpleQueue = queue.SimpleQueue()
    episode = Episode()
    pending = iter(items)
    in_flight = 0

    def launch() -> bool:
        nonlocal in_flight
        item = next(pending, None)
        if item is None:
            return False
        episode.attempted += 1
        start = time.perf_counter()
        try:
            handle = submit(item)
        except OverloadedError:
            episode.shed += 1
            return True
        except PrimerError:
            episode.failed += 1
            return True
        in_flight += 1
        handle.add_done_callback(lambda h, item=item, start=start: done.put((item, start, h)))
        return True

    episode.started = time.perf_counter()
    while in_flight < outstanding and launch():
        pass
    while in_flight:
        try:
            item, start, handle = done.get(timeout=RESULT_TIMEOUT_SECONDS)
        except queue.Empty:
            episode.timeouts += in_flight
            break
        in_flight -= 1
        try:
            report = handle.result()
        except Exception:  # noqa: BLE001 - every failed request counts, whatever its type
            episode.failed += 1
        else:
            episode.samples.append(Sample(item, start, time.perf_counter(), report))
        if not burst or in_flight == 0:
            while in_flight < outstanding and launch():
                pass
    episode.finished = max(
        [sample.end for sample in episode.samples], default=time.perf_counter()
    )
    return episode
