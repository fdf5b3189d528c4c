"""Operation accounting shared by the HE backends and the cost model.

Every homomorphic operation executed by either backend (exact BFV or the
functional simulator) is recorded here.  The latency and communication models
in :mod:`repro.costmodel` convert these counts into seconds and bytes using
per-operation constants calibrated against the paper's Table II.

The serving runtime multiplexes many inference requests over one shared
backend, so the tracker additionally supports *per-request attribution*: when
a request id is set (see :meth:`OperationTracker.set_request` /
:meth:`OperationTracker.attribute`), every recorded operation is charged both
to the global multiset and to that request's own counter.  Operations
recorded with no request set (key generation, shared offline pre-processing)
stay unattributed, so ``sum(per-request) + unattributed == totals`` always
holds -- the invariant the serving tests assert.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Iterator

__all__ = ["OperationTracker", "NTT_FORWARD", "NTT_INVERSE"]

#: Operation names under which NTT domain crossings are recorded.  Both HE
#: backends charge one count per *limb polynomial* transformed (a ciphertext
#: is two polynomials of ``params.limb_count`` RNS limbs each, and a
#: double-CRT scheme runs one NTT per limb), so the counters are directly
#: comparable to the closed forms in
#: :func:`repro.he.packing.bsgs_transform_count` (which scale by the same
#: ``limbs`` factor) and between the exact backend (which executes the
#: transforms) and the simulator (which models the transforms the deployed
#: scheme would execute).
NTT_FORWARD = "ntt_forward"
NTT_INVERSE = "ntt_inverse"


@dataclass
class OperationTracker:
    """Counts cryptographic operations and bytes moved.

    The tracker is deliberately dumb: it is a named multiset (plus one
    multiset per serving request).  Interpretation (which operations dominate
    latency, what a ciphertext costs on the wire) lives in
    :mod:`repro.costmodel`.
    """

    counts: Counter = field(default_factory=Counter)
    bytes_moved: int = 0
    request_counts: dict[str, Counter] = field(default_factory=dict)
    request_bytes: dict[str, int] = field(default_factory=dict)
    #: per-phase attribution ("offline"/"online"), set by the protocol engine
    phase_counts: dict[str, Counter] = field(default_factory=dict)
    #: per-worker attribution ("worker-0", ...), set by the serving executor
    worker_counts: dict[str, Counter] = field(default_factory=dict)
    _current_request: str | None = field(default=None, repr=False)
    _current_phase: str | None = field(default=None, repr=False)
    _current_worker: str | None = field(default=None, repr=False)

    def record(self, operation: str, *, count: int = 1, bytes_moved: int = 0) -> None:
        """Record ``count`` occurrences of ``operation``."""
        self.counts[operation] += count
        self.bytes_moved += bytes_moved
        # ``get`` before creating: ``setdefault(key, Counter())`` would build
        # a throwaway Counter on every one of the hot path's many calls.
        request = self._current_request
        if request is not None:
            per_request = self.request_counts.get(request)
            if per_request is None:
                per_request = self.request_counts[request] = Counter()
            per_request[operation] += count
            self.request_bytes[request] = self.request_bytes.get(request, 0) + bytes_moved
        phase = self._current_phase
        if phase is not None:
            per_phase = self.phase_counts.get(phase)
            if per_phase is None:
                per_phase = self.phase_counts[phase] = Counter()
            per_phase[operation] += count
        worker = self._current_worker
        if worker is not None:
            per_worker = self.worker_counts.get(worker)
            if per_worker is None:
                per_worker = self.worker_counts[worker] = Counter()
            per_worker[operation] += count

    def count(self, operation: str) -> int:
        """Number of recorded occurrences of ``operation``."""
        return self.counts.get(operation, 0)

    # -- NTT transform accounting ------------------------------------------
    def record_transforms(self, *, forward: int = 0, inverse: int = 0) -> None:
        """Charge NTT domain crossings (per transformed polynomial).

        Flows through :meth:`record`, so transforms inherit the active
        request/phase/worker attribution like every other operation -- the
        evaluation-domain residency win is attributable per request and per
        phase from the same counters.
        """
        if forward:
            self.record(NTT_FORWARD, count=forward)
        if inverse:
            self.record(NTT_INVERSE, count=inverse)

    def transform_counts(self, *, phase: str | None = None) -> dict[str, int]:
        """Forward/inverse transform counts, totals or for one phase."""
        source = self.phase_counts.get(phase, Counter()) if phase else self.counts
        return {
            NTT_FORWARD: source.get(NTT_FORWARD, 0),
            NTT_INVERSE: source.get(NTT_INVERSE, 0),
        }

    def transforms(self, *, phase: str | None = None) -> int:
        """Total NTT transforms (forward + inverse), optionally per phase."""
        return sum(self.transform_counts(phase=phase).values())

    # -- per-request attribution -------------------------------------------
    def set_request(self, request_id: str | None) -> None:
        """Attribute subsequent operations to ``request_id`` (None to stop)."""
        self._current_request = request_id

    @contextmanager
    def attribute(self, request_id: str) -> Iterator[None]:
        """Scope-style request attribution; restores the previous id on exit."""
        previous = self._current_request
        self._current_request = request_id
        try:
            yield
        finally:
            self._current_request = previous

    def request_snapshot(self, request_id: str) -> dict[str, int]:
        """Plain-dict copy of one request's operation counts."""
        return dict(self.request_counts.get(request_id, Counter()))

    # -- per-phase / per-worker attribution --------------------------------
    def set_phase(self, phase: str | None) -> None:
        """Attribute subsequent operations to a protocol phase (None to stop).

        The phase is a plain string (``"offline"`` / ``"online"``) so this
        module stays free of protocol-layer imports; the engine passes
        ``Phase.X.value``.
        """
        self._current_phase = phase

    def set_worker(self, worker: str | None) -> None:
        """Attribute subsequent operations to a serving worker (None to stop)."""
        self._current_worker = worker

    def phase_snapshot(self, phase: str) -> dict[str, int]:
        """Plain-dict copy of one phase's operation counts."""
        return dict(self.phase_counts.get(phase, Counter()))

    def worker_snapshot(self, worker: str) -> dict[str, int]:
        """Plain-dict copy of one worker's operation counts."""
        return dict(self.worker_counts.get(worker, Counter()))

    def workers(self) -> list[str]:
        """Worker ids that have operations attributed to them."""
        return list(self.worker_counts)

    def requests(self) -> list[str]:
        """Request ids that have operations attributed to them."""
        return list(self.request_counts)

    def unattributed(self) -> dict[str, int]:
        """Counts not charged to any request (keygen, shared pre-processing)."""
        shared = Counter(self.counts)
        for per_request in self.request_counts.values():
            shared.subtract(per_request)
        return {op: count for op, count in shared.items() if count}

    # -- bookkeeping ---------------------------------------------------------
    def merge(self, other: OperationTracker) -> None:
        """Fold another tracker's counts into this one."""
        self.counts.update(other.counts)
        self.bytes_moved += other.bytes_moved
        for request_id, per_request in other.request_counts.items():
            self.request_counts.setdefault(request_id, Counter()).update(per_request)
            self.request_bytes[request_id] = (
                self.request_bytes.get(request_id, 0)
                + other.request_bytes.get(request_id, 0)
            )
        for phase, per_phase in other.phase_counts.items():
            self.phase_counts.setdefault(phase, Counter()).update(per_phase)
        for worker, per_worker in other.worker_counts.items():
            self.worker_counts.setdefault(worker, Counter()).update(per_worker)

    def reset(self) -> None:
        """Clear all recorded counts."""
        self.counts.clear()
        self.bytes_moved = 0
        self.request_counts.clear()
        self.request_bytes.clear()
        self.phase_counts.clear()
        self.worker_counts.clear()

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the counts (stable for assertions/reports)."""
        return dict(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OperationTracker({parts}, bytes={self.bytes_moved})"
