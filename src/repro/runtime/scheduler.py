"""Request queue, batch formation and pluggable scheduling policies.

The serving layer accepts many independent private-inference requests and
groups *compatible* ones -- same model, same protocol variant, same request
kind -- into batches so that they can share the expensive cryptographic
state: one engine (keys, offline HGS/FHGS pre-processing, cached NTT
contexts) per compatibility key, and, for linear requests, shared ciphertext
slot space via the tokens-first layout.

*Which* compatible batch forms next is decided by a
:class:`SchedulingPolicy`:

``fifo`` (:class:`FifoPolicy`, the default)
    The head of the queue defines the next batch's key and the batch fills
    with the oldest compatible requests -- exactly the original hardcoded
    behaviour.
``edf`` (:class:`DeadlinePolicy`)
    Earliest-deadline-first across keys: the most urgent queued request
    picks the key.  Requests without a deadline sort last.
``size`` (:class:`SizeAwarePolicy`)
    Slot-packing for linear batches: the head's key is kept, but the batch
    is filled first-fit with the oldest same-key requests whose rows still
    fit one ciphertext's slot capacity, so a chunk seldom splits.

Every policy is bound by one hard fairness invariant, *enforced by the
scheduler itself*: the batch must consist of requests of a single key, it
must contain the oldest queued request of that key (the per-key head is
never starved), and requests within the batch run in arrival order.  Under
FIFO and EDF per-key service order is additionally strictly
first-come-first-served; the size-aware policy may serve a small, younger
request ahead of a same-key request that did not fit the remaining slot
capacity, but never ahead of the per-key head.
"""

from __future__ import annotations

import abc
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Any

from ..errors import ProtocolError

__all__ = [
    "BatchKey",
    "InferenceRequest",
    "Batch",
    "SchedulingPolicy",
    "FifoPolicy",
    "DeadlinePolicy",
    "SizeAwarePolicy",
    "BatchScheduler",
]


@dataclass(frozen=True)
class BatchKey:
    """Compatibility key: requests sharing a key may share a batch."""

    kind: str      #: ``"inference"`` (full Primer run) or ``"linear"`` (X @ W)
    model: str     #: registered model or weight-matrix name
    variant: str   #: Primer variant name ("" for linear requests)


@dataclass
class InferenceRequest:
    """One queued serving request.

    ``payload`` is the token-id vector for ``kind == "inference"`` and the
    token-by-feature input matrix for ``kind == "linear"``.  ``deadline`` is
    an absolute completion target on the ``submitted_at`` clock (or any
    consistent virtual clock in tests); only :class:`DeadlinePolicy` reads
    it.
    """

    request_id: str
    key: BatchKey
    payload: Any
    submitted_at: float = field(default_factory=time.perf_counter)
    sequence: int = 0
    deadline: float | None = None


@dataclass
class Batch:
    """A group of compatible requests scheduled to run together."""

    batch_id: int
    key: BatchKey
    requests: list[InferenceRequest]

    def __len__(self) -> int:
        return len(self.requests)


class SchedulingPolicy(abc.ABC):
    """Decides which compatible requests form the next batch.

    ``select`` receives the queue in arrival order and must return a
    non-empty subset of it sharing a single :class:`BatchKey` that includes
    the oldest queued request of that key.  The scheduler validates the
    invariant and orders the batch by arrival, so a policy cannot break
    per-key FIFO fairness even by returning requests out of order.
    """

    #: short name used in stats/demo output
    name: str = "policy"

    @abc.abstractmethod
    def select(
        self, queue: Sequence[InferenceRequest], max_batch_size: int
    ) -> list[InferenceRequest]:
        """Pick the requests of the next batch from the queued requests."""

    @staticmethod
    def same_key_oldest_first(
        queue: Sequence[InferenceRequest], key: BatchKey
    ) -> list[InferenceRequest]:
        """All queued requests of ``key``, oldest first."""
        return [request for request in queue if request.key == key]


class FifoPolicy(SchedulingPolicy):
    """The original behaviour: head of the queue defines the batch."""

    name = "fifo"

    def select(
        self, queue: Sequence[InferenceRequest], max_batch_size: int
    ) -> list[InferenceRequest]:
        key = queue[0].key
        return self.same_key_oldest_first(queue, key)[:max_batch_size]


class DeadlinePolicy(SchedulingPolicy):
    """Earliest-deadline-first across keys.

    The most urgent queued request (smallest ``deadline``; ties and
    deadline-free requests fall back to arrival order) chooses the batch
    key; the batch then fills with the oldest requests of that key, so the
    urgent request is served as soon as per-key FIFO fairness allows.
    """

    name = "edf"

    def select(
        self, queue: Sequence[InferenceRequest], max_batch_size: int
    ) -> list[InferenceRequest]:
        urgent = min(
            queue,
            key=lambda r: (
                r.deadline if r.deadline is not None else float("inf"),
                r.sequence,
            ),
        )
        return self.same_key_oldest_first(queue, urgent.key)[:max_batch_size]


class SizeAwarePolicy(SchedulingPolicy):
    """Slot-packing batch fill for linear requests.

    The head's key is kept (so the global head is served next, like FIFO),
    but a *linear* batch is filled first-fit in arrival order with requests
    whose row counts still fit in ``slot_count`` ciphertext slots: a request
    too large for the remaining capacity is skipped (it keeps its queue
    position and leads a later batch) in favour of older-first smaller ones,
    so a shared-slot chunk seldom splits.  Inference batches fall back to
    FIFO fill, as does everything when ``slot_count`` is None.
    """

    name = "size"

    def __init__(self, slot_count: int | None = None) -> None:
        if slot_count is not None and slot_count < 1:
            raise ProtocolError("slot_count must be positive")
        self.slot_count = slot_count

    def select(
        self, queue: Sequence[InferenceRequest], max_batch_size: int
    ) -> list[InferenceRequest]:
        key = queue[0].key
        candidates = self.same_key_oldest_first(queue, key)
        if key.kind != "linear" or self.slot_count is None:
            return candidates[:max_batch_size]
        taken: list[InferenceRequest] = [candidates[0]]  # per-key head, always
        remaining = self.slot_count - int(candidates[0].payload.shape[0])
        for request in candidates[1:]:
            if len(taken) >= max_batch_size:
                break
            rows = int(request.payload.shape[0])
            if rows <= remaining:
                taken.append(request)
                remaining -= rows
        return taken


class BatchScheduler:
    """Queue that groups compatible requests into bounded batches.

    The batching *policy* is pluggable (see :class:`SchedulingPolicy`);
    the fairness invariant -- single-key batches, per-key FIFO order, the
    per-key head always included -- is validated here so every policy
    honours it.

    The queue is guarded by one internal lock shared by :meth:`submit` and
    :meth:`next_batch`, so submission is safe *while a drain is in flight*.
    (Historically ``next_batch`` rebound ``self._queue`` to a filtered
    deque; a concurrent ``submit`` could append to the abandoned deque and
    the request vanished from both the drain and every later
    ``pending_count`` -- the race the async front door's continuous drain
    loop would hit constantly.)
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        *,
        policy: SchedulingPolicy | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ProtocolError("max_batch_size must be at least 1")
        self.max_batch_size = max_batch_size
        self.policy = policy if policy is not None else FifoPolicy()
        self._queue: deque[InferenceRequest] = deque()  # guarded_by: _lock
        self._sequence = itertools.count()
        self._batch_ids = itertools.count()
        self._closed = False  # guarded_by: _lock
        self._gate: Callable[[BatchKey], bool] | None = None  # guarded_by: _lock
        #: guards the queue; reentrant so ``drain`` can call ``next_batch``
        self._lock = threading.RLock()

    def submit(self, request: InferenceRequest) -> InferenceRequest:
        """Enqueue a request, stamping its arrival order.

        Raises :class:`~repro.errors.ProtocolError` after :meth:`close` --
        a closed scheduler still *forms* batches (the shutdown flush) but
        silently enqueueing new work nobody will drain would drop it.
        """
        with self._lock:
            if self._closed:
                raise ProtocolError("the scheduler is closed to new submissions")
            request.sequence = next(self._sequence)
            self._queue.append(request)
        return request

    def requeue(self, request: InferenceRequest) -> InferenceRequest:
        """Put an already-admitted request back at the head of the queue.

        The retry path: the request keeps its original id, sequence stamp
        and ``submitted_at`` clock (attribution and the per-request timeout
        budget span attempts), and re-enters at the *front* so its original
        arrival order is preserved -- with its old sequence it is again the
        oldest of its key, which the fairness invariant then serves first.
        Deliberately exempt from the closed check: a retried request was
        admitted before ``close()`` and is part of the shutdown flush.
        """
        with self._lock:
            self._queue.appendleft(request)
        return request

    def set_batch_id_base(self, base: int) -> None:
        """Start batch-id numbering at ``base`` (before any batch is formed).

        The fleet router hands each replica a disjoint id range so that the
        batch ids inside the :class:`~repro.runtime.executor.RequestReport`\\ s
        it aggregates stay globally unique -- ``summarize()`` counts batches
        by distinct id.  Renumbering *after* a batch exists would let ids
        collide within one replica, so that is rejected.
        """
        if base < 0:
            raise ProtocolError("batch id base must be non-negative")
        with self._lock:
            first_unused = next(self._batch_ids)
            if first_unused != 0:
                raise ProtocolError(
                    "batch ids were already assigned; the base must be set "
                    "before the first batch is formed"
                )
            self._batch_ids = itertools.count(base)

    def set_gate(self, gate: Callable[[BatchKey], bool] | None) -> None:
        """Form batches only of keys ``gate`` accepts (``None`` accepts all).

        The drain loop gates out keys that already have a batch in flight or
        whose shard worker is busy.  Gated requests keep their queue
        position, and ``gate`` runs under the queue lock.
        """
        with self._lock:
            self._gate = gate

    def close(self) -> None:
        """Refuse new submissions (batch formation keeps working).  Idempotent."""
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # -- observability -------------------------------------------------------
    def pending(self) -> int:
        """Number of queued (not yet batched) requests."""
        with self._lock:
            return len(self._queue)

    def pending_count(self) -> int:
        """Alias of :meth:`pending`, the name the serving stats use."""
        return self.pending()

    def pending_keys(self) -> list[BatchKey]:
        """Distinct compatibility keys still queued, in arrival order."""
        seen: list[BatchKey] = []
        with self._lock:
            for request in self._queue:
                if request.key not in seen:
                    seen.append(request.key)
        return seen

    def queue_depths(self) -> dict[BatchKey, int]:
        """Queued request count per compatibility key, in arrival order."""
        depths: dict[BatchKey, int] = {}
        with self._lock:
            for request in self._queue:
                depths[request.key] = depths.get(request.key, 0) + 1
        return depths

    def max_queue_wait(self, now: float | None = None) -> float:
        """Longest time any queued request has been waiting, in seconds."""
        with self._lock:
            if not self._queue:
                return 0.0
            now = time.perf_counter() if now is None else now
            return max(now - request.submitted_at for request in self._queue)

    # -- batch formation -----------------------------------------------------
    def next_batch(self) -> Batch | None:
        """Form the next batch according to the scheduling policy.

        Requests with other keys keep their queue position, so an
        incompatible burst cannot push an older request backwards.  Only
        requests the gate (see :meth:`set_gate`) accepts are offered to the
        policy; ``None`` means nothing is formable.
        """
        with self._lock:
            gate = self._gate
            queue = tuple(r for r in self._queue if gate is None or gate(r.key))
            if not queue:
                return None
            taken = self.policy.select(queue, self.max_batch_size)
            self._validate_selection_locked(queue, taken)
            # Arrival order within the batch, regardless of selection order.
            taken = sorted(taken, key=lambda r: r.sequence)
            chosen = {id(request) for request in taken}
            self._queue = deque(r for r in self._queue if id(r) not in chosen)
            return Batch(
                batch_id=next(self._batch_ids), key=taken[0].key, requests=taken
            )

    def _validate_selection_locked(
        self, queue: tuple[InferenceRequest, ...], taken: list[InferenceRequest]
    ) -> None:
        policy = type(self.policy).__name__
        if not taken:
            raise ProtocolError(f"{policy} selected an empty batch")
        if len(taken) > self.max_batch_size:
            raise ProtocolError(
                f"{policy} selected {len(taken)} requests, over the "
                f"max batch size {self.max_batch_size}"
            )
        queued = {id(request) for request in queue}
        if any(id(request) not in queued for request in taken):
            raise ProtocolError(f"{policy} selected requests not in the queue")
        key = taken[0].key
        if any(request.key != key for request in taken):
            raise ProtocolError(f"{policy} mixed compatibility keys in one batch")
        oldest = min((r for r in queue if r.key == key), key=lambda r: r.sequence)
        if all(request is not oldest for request in taken):
            raise ProtocolError(
                f"{policy} starved the per-key head request {oldest.request_id!r}"
            )

    def drain(self) -> list[Batch]:
        """Form batches until the queue is empty.

        The whole drain happens under the queue lock: a submission that
        races it either lands before the snapshot (and is drained) or after
        it (and is counted by the next ``pending_count``) -- never neither.
        """
        with self._lock:
            batches = []
            while True:
                batch = self.next_batch()
                if batch is None:
                    return batches
                batches.append(batch)
