"""The execution layer behind the batch-serving runtime.

This module is the execution half of the serving runtime, split along the
paper's own offline/online axis:

* :class:`EngineCache` -- one prepared
  :class:`~repro.protocols.primer.PrivateTransformerInference` engine per
  ``(model, variant)`` key.  Engines are built through the explicit
  ``prepare()`` → :class:`~repro.protocols.plan.OfflinePlan` → ``install()``
  split, so the whole offline phase is a schedulable artifact that can be
  produced on a background worker.
* :class:`EngineShardMap` -- a stable key → worker assignment (least-loaded,
  first-seen), so distinct ``(model, variant)`` keys run on distinct
  workers and one hot model cannot block another's traffic.
* :class:`BatchExecutor` -- runs one batch (full-inference or shared-slot
  linear) with per-request channel/tracker attribution.
* :class:`PipelinedExecutor` -- the one drain loop every serving path runs:
  ``ServingRuntime.run_pending()`` flushes it inline (the serial
  reference), ``run_pending_pipelined()`` flushes it on the shard workers,
  and the async front door runs it continuously.  It forms batches under
  the scheduling policy, runs each on its key's shard worker, builds the
  engines of cold keys queued behind a busy worker on a background
  thread, and routes every failure through one classifier (serial
  re-run, retry, or typed failure).  Every engine is confined to one
  worker at a time (its backend, tracker, channel and sharing state are
  never touched by two threads), linear batches serialise on the shared
  linear backend's lock, and per-key FIFO order is preserved because a
  key never has two batches in flight.
"""

from __future__ import annotations

import ctypes
import functools
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from ..errors import EngineQuarantined, ProtocolError, ShapeError, TransientFault
from ..he.backend import HEBackend
from ..he.bsgs import BSGSMatmulPlan, bsgs_geometry, prepare_bsgs_plan
from ..he.matmul import bsgs_kernel_fits, encrypted_batch_matmul
from ..he.simulated import SimulatedHEBackend
from ..nn.transformer import TransformerEncoder
from ..protocols.channel import Channel, NetworkModel, Phase
from ..protocols.formats import protocol_he_parameters
from ..protocols.planstore import PlanStore
from ..protocols.primer import PrimerVariant, PrivateTransformerInference
from .faults import (
    SITE_ENGINE_BUILD,
    SITE_OFFLINE_PREPARE,
    SITE_ONLINE_EXECUTE,
    SITE_WORKER_SHARD,
    CircuitBreaker,
    RetryPolicy,
    maybe_inject,
)
from .scheduler import Batch, BatchKey, BatchScheduler, InferenceRequest

__all__ = [
    "RequestReport",
    "EngineEntry",
    "EngineCache",
    "EngineCacheStats",
    "EngineShardMap",
    "LinearServingPath",
    "BatchExecutor",
    "PipelinedExecutor",
    "STEP_LINEAR",
]

#: step label used for the linear serving path's wire accounting
STEP_LINEAR = "linear_serving"

#: bound on cached NTT-form BSGS plans in :class:`LinearServingPath` -- one
#: per (bank, chunk geometry); enough for every steady-state workload mix
#: while keeping a long-lived server's pre-transformed masks finite.
_BSGS_PLAN_CACHE_SIZE = 32


def _prepare_plan_remote(model, variant, seed, network, slot_sharing):
    """Worker-process entry point: produce one engine's offline artifact.

    Runs in a separate process so the offline phase -- GIL-bound simulated-HE
    exchanges plus, under a realized :class:`NetworkModel`, the wire time of
    its many rounds -- genuinely overlaps with the parent's online execution.
    Returns the :class:`~repro.protocols.plan.OfflinePlan` plus the offline
    accounting (channel messages, tracker) recorded while producing it, so
    the parent can merge the cost of the remote preparation into the engine
    it installs the plan on -- no HE operation or byte goes unaccounted.
    """
    engine = PrivateTransformerInference(
        model, variant, seed=seed, network=network, slot_sharing=slot_sharing
    )
    plan = engine.prepare()
    return plan, engine.channel.messages, engine.tracker


@functools.cache
def _malloc_trim() -> Callable[[int], int] | None:
    """The C library's ``malloc_trim`` (glibc), or None where it has none."""
    try:
        return getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):
        return None


@dataclass
class RequestReport:
    """Per-request outcome with latency and communication breakdowns."""

    request_id: str
    kind: str
    model: str
    variant: str
    batch_id: int
    batch_size: int
    result: np.ndarray
    prediction: int | None
    queue_seconds: float
    latency_seconds: float
    online_bytes: int
    online_rounds: int
    offline_bytes: int
    he_operations: dict[str, int]
    #: slot-sharing groups (linear chunks, FHGS-shared inference batches)
    #: execute as one unit, so ``he_operations`` / ``latency_seconds`` are
    #: joint figures for the whole group, not per-request sums -- every
    #: request in the group genuinely completes at the same instant, which
    #: is why latency percentiles over one such batch coincide.
    shared_slot_batch: bool = False
    #: worker that executed the batch ("worker-0", ...; None on serial drains)
    worker: str | None = None
    #: absolute completion target and whether it was met (None = no deadline)
    deadline: float | None = None
    deadline_met: bool | None = None
    #: executions this request took (>1 only after transient-fault retries)
    attempts: int = 1
    #: whether the request succeeded only after at least one retry
    retried: bool = False
    #: whether the request was served along a degradation rung (e.g. its
    #: shard batch re-executed serially after a worker-shard fault)
    degraded: bool = False

    def summary(self) -> dict[str, float | int | str]:
        return {
            "request": self.request_id,
            "model": self.model,
            "variant": self.variant,
            "batch": self.batch_id,
            "batch_size": self.batch_size,
            "latency_ms": self.latency_seconds * 1e3,
            "queue_ms": self.queue_seconds * 1e3,
            "online_kilobytes": self.online_bytes / 1e3,
            "he_operations": sum(self.he_operations.values()),
        }


@dataclass
class EngineEntry:
    """A cached engine plus how long its offline plan took to produce."""

    engine: PrivateTransformerInference
    build_seconds: float
    prepare_seconds: float
    #: approximate footprint of the engine's offline plan (the eviction
    #: budget's weight for this entry)
    plan_bytes: int = 0
    #: True when the offline phase was skipped entirely because the plan
    #: came out of the persistent :class:`~repro.protocols.planstore.PlanStore`
    warm_start: bool = False


@dataclass(frozen=True)
class EngineCacheStats:
    """Point-in-time counters of the engine cache's lifecycle activity.

    ``warm_starts + cold_builds + remote_builds`` equals the total number
    of engine builds: warm starts installed a plan from the persistent
    store, cold builds ran the offline phase in this process, remote builds
    adopted a plan prepared in a worker process (:meth:`EngineCache.adopt_plan_future`).

    The fault-tolerance counters track the degradation ladder:
    ``build_failures`` counts failed build attempts (each feeds the key's
    circuit breaker), ``quarantine_rejections`` counts requests refused
    while a key's breaker was open, ``probe_builds`` counts half-open
    probe builds after the cooldown, and ``prepare_fallbacks`` counts
    remote preparations that failed and degraded to a local build.
    """

    entries: int
    plan_bytes: int
    evictions: int
    invalidations: int
    warm_starts: int
    cold_builds: int
    remote_builds: int
    build_failures: int = 0
    quarantine_rejections: int = 0
    probe_builds: int = 0
    prepare_fallbacks: int = 0


class EngineShardMap:
    """Stable assignment of compatibility keys to shard workers.

    Keys are assigned least-loaded on first sight and keep their worker for
    the lifetime of the map, so distinct ``(model, variant)`` keys spread
    across distinct workers (until there are more keys than workers) and an
    engine is only ever driven by one worker thread.
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ProtocolError("num_workers must be at least 1")
        self.num_workers = num_workers
        self._assignments: dict[BatchKey, int] = {}  # guarded_by: _lock
        self._loads = [0] * num_workers  # guarded_by: _lock
        self._lock = threading.Lock()

    def worker_for(self, key: BatchKey) -> int:
        with self._lock:
            worker = self._assignments.get(key)
            if worker is None:
                worker = min(range(self.num_workers), key=lambda w: self._loads[w])
                self._assignments[key] = worker
                self._loads[worker] += 1
            return worker


class EngineCache:
    """Bounded prepared-engine cache keyed by ``(model, variant)``.

    Construction goes through the explicit plan split -- ``prepare()``
    produces the :class:`~repro.protocols.plan.OfflinePlan`, ``install()``
    adopts it -- and is guarded per key, so a prefetch on the prepare pool
    and a cache-miss on a shard worker cannot build the same engine twice.

    Three lifecycle mechanisms compose on top of that:

    * **Plan persistence** -- with a :class:`PlanStore`, a cold build first
      tries to *warm-start* from a stored plan (the whole offline HE
      exchange is skipped; the tracker records zero offline operations) and
      persists freshly prepared plans for the next process.
    * **LRU eviction** -- ``max_entries`` / ``max_bytes`` bound the cache;
      inserting over budget evicts least-recently-used entries.  Eviction
      only drops the cache's reference: a batch already executing on an
      evicted engine finishes unharmed, and the next request rebuilds (or
      warm-starts) the engine.
    * **Generation fencing** -- every build snapshots a per-key generation
      counter and re-checks it at insert time, so a build that was in
      flight when :meth:`invalidate_model` ran discards its stale engine
      and rebuilds against the current model instead of silently
      re-inserting weights that were replaced under it.
    """

    def __init__(
        self,
        models: dict[str, TransformerEncoder],
        variants: dict[str, PrimerVariant],
        backend_factory: Callable[[], HEBackend] | None,
        seed: int,
        network: NetworkModel | None = None,
        slot_sharing: int = 1,
        plan_store: PlanStore | None = None,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        breaker_threshold: int = 2,
        breaker_cooldown_seconds: float = 30.0,
        breaker_clock: Callable[[], float] | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ProtocolError("max_entries must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise ProtocolError("max_bytes must be positive")
        self._models = models
        self._variants = variants
        self._backend_factory = backend_factory
        self._seed = seed
        self._network = network
        self._slot_sharing = max(1, slot_sharing)
        self._plan_store = plan_store
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        #: insertion/recency-ordered: the first entry is the eviction victim
        self._entries: OrderedDict[BatchKey, EngineEntry] = OrderedDict()  # guarded_by: _mutex
        self._pending_plans: dict[BatchKey, Future] = {}  # guarded_by: _mutex
        self._locks: dict[BatchKey, threading.Lock] = {}  # guarded_by: _mutex
        self._generations: dict[BatchKey, int] = {}  # guarded_by: _mutex
        self._plan_bytes = 0  # guarded_by: _mutex
        self._evictions = 0  # guarded_by: _mutex
        self._invalidations = 0  # guarded_by: _mutex
        self._warm_starts = 0  # guarded_by: _mutex
        self._cold_builds = 0  # guarded_by: _mutex
        self._remote_builds = 0  # guarded_by: _mutex
        self._build_failures = 0  # guarded_by: _mutex
        self._quarantine_rejections = 0  # guarded_by: _mutex
        self._probe_builds = 0  # guarded_by: _mutex
        self._prepare_fallbacks = 0  # guarded_by: _mutex
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown_seconds
        self._breaker_clock = breaker_clock if breaker_clock is not None else time.monotonic
        self._breakers: dict[BatchKey, CircuitBreaker] = {}  # guarded_by: _mutex
        self._mutex = threading.Lock()

    @property
    def supports_remote_prepare(self) -> bool:
        """Remote (process) preparation needs the default picklable backend."""
        return self._backend_factory is None

    @property
    def plan_store(self) -> PlanStore | None:
        return self._plan_store

    def _key_lock(self, key: BatchKey) -> threading.Lock:
        with self._mutex:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock

    def breaker_for(self, key: BatchKey) -> CircuitBreaker:
        """The circuit breaker guarding ``key``'s engine builds."""
        with self._mutex:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = self._breakers[key] = CircuitBreaker(
                    failure_threshold=self._breaker_threshold,
                    cooldown_seconds=self._breaker_cooldown,
                    clock=self._breaker_clock,
                )
            return breaker

    def entry(self, key: BatchKey) -> EngineEntry:
        """The cached entry for ``key``, building (prepare+install) if needed.

        If a remote plan preparation is pending for ``key`` (see
        :meth:`adopt_plan_future`), the build waits for that plan and
        installs it instead of re-running the offline phase locally.  A
        build whose model was invalidated mid-flight is discarded and
        re-run against the current model (see the class docstring).

        Builds are circuit-broken per key: a transient build fault is
        retried once in place; repeated failures open the breaker and
        :class:`~repro.errors.EngineQuarantined` (with a retry hint) is
        raised until the cooldown admits a half-open probe build.
        """
        with self._key_lock(key):
            while True:
                with self._mutex:
                    entry = self._entries.get(key)
                    if entry is not None:
                        self._entries.move_to_end(key)
                        return entry
                    generation = self._generations.setdefault(key, 0)
                    pending = self._pending_plans.pop(key, None)
                entry = self._guarded_build(key, generation, pending)
                if self._insert(key, generation, entry):
                    return entry
                # invalidate_model ran while this build was in flight: the
                # engine embeds the replaced model's weights.  Loop and
                # rebuild against the model registered *now*.

    def _guarded_build(self, key: BatchKey, generation: int, pending) -> EngineEntry:
        """One breaker-guarded build attempt chain for ``key``.

        Degradation rungs, in order: an open breaker rejects with
        :class:`~repro.errors.EngineQuarantined`; a failed *remote* plan
        adoption degrades to a local build; a retryable build fault gets
        exactly one in-place rebuild; any further failure records into the
        breaker (opening it at the threshold) and propagates.
        """
        breaker = self.breaker_for(key)
        if not breaker.allow():
            with self._mutex:
                self._quarantine_rejections += 1
            raise EngineQuarantined(
                f"engine builds for ({key.model!r}, {key.variant!r}) are "
                f"quarantined after repeated build failures",
                retry_after_seconds=breaker.retry_after_seconds(),
            )
        if breaker.state == CircuitBreaker.HALF_OPEN:
            with self._mutex:
                self._probe_builds += 1
        try:
            entry = self._build_once(key, generation, pending)
        except Exception as first:  # noqa: BLE001 - classified below
            breaker.record_failure()
            with self._mutex:
                self._build_failures += 1
            if not getattr(first, "retryable", False) or not breaker.allow():
                raise
            try:
                entry = self._build(key, generation)
            except Exception:
                breaker.record_failure()
                with self._mutex:
                    self._build_failures += 1
                raise
        breaker.record_success()
        return entry

    def _build_once(self, key: BatchKey, generation: int, pending) -> EngineEntry:
        """Build via the pending remote plan when one exists, else locally.

        A remote preparation that failed (or whose adoption is hit by the
        ``offline_prepare`` fault site) is not fatal: the build degrades to
        a local ``prepare()`` and the fallback is counted.
        """
        if pending is not None:
            try:
                maybe_inject(SITE_OFFLINE_PREPARE, f"{key.model}/{key.variant}")
                payload = pending.result()
            except Exception:  # noqa: BLE001 - remote prepare degrades to local
                with self._mutex:
                    self._prepare_fallbacks += 1
            else:
                return self._build_from_plan(key, generation, *payload)
        return self._build(key, generation)

    def _insert(self, key: BatchKey, generation: int, entry: EngineEntry) -> bool:
        """Insert a finished build unless its generation was fenced off."""
        with self._mutex:
            if self._generations.get(key, 0) != generation:
                return False
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._plan_bytes += entry.plan_bytes
            self._evict_over_budget_locked(protect=key)
            return True

    def _evict_over_budget_locked(self, protect: BatchKey) -> None:
        """Evict LRU entries until the budgets hold (``protect`` stays).

        The just-inserted entry is never the victim -- even if it alone
        exceeds ``max_bytes`` -- because evicting it would make the cache
        thrash on every request for that key.
        """
        def over_budget() -> bool:
            if self._max_entries is not None and len(self._entries) > self._max_entries:
                return True
            if self._max_bytes is not None and self._plan_bytes > self._max_bytes:
                return True
            return False

        while over_budget():
            victim = next(iter(self._entries))
            if victim == protect:
                break
            self._remove_locked(victim)
            self._evictions += 1

    def _remove_locked(self, key: BatchKey) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._plan_bytes -= entry.plan_bytes

    def adopt_plan_future(self, key: BatchKey, future: Future) -> None:
        """Register an in-flight remote preparation of ``key``'s offline plan."""
        with self._mutex:
            if key not in self._entries:
                self._pending_plans[key] = future

    def _engine_skeleton(self, key: BatchKey) -> PrivateTransformerInference:
        if key.model not in self._models:
            raise ProtocolError(f"unknown model {key.model!r}")
        model = self._models[key.model]
        variant = self._variants[key.variant]
        backend = self._backend_factory() if self._backend_factory else None
        return PrivateTransformerInference(
            model, variant, backend=backend, seed=self._seed,
            network=self._network, slot_sharing=self._slot_sharing,
        )

    def _store_key(self, key: BatchKey, engine: PrivateTransformerInference):
        """The plan-store key of ``key``'s build, or None when persistence is off.

        Persistence rides on the same gate as remote preparation: the
        default (picklable, backend-independent) simulated backend.  A
        custom ``backend_factory`` may produce handles a revived plan
        cannot serve, so those builds stay cold.  The key fingerprints the
        *engine's own* model -- not whatever ``self._models`` currently maps
        the name to, which a concurrent ``register_model`` may have
        replaced mid-build -- and uses the *effective* slot sharing the
        engine clamped to (plans prepared at different sharing levels pack
        different tilings).
        """
        if self._plan_store is None or not self.supports_remote_prepare:
            return None
        return self._plan_store.key_for(
            engine.model, key.variant, self._seed, engine.slot_sharing
        )

    def _persist_plan(self, key: BatchKey, generation: int, store_key, plan) -> None:
        """Write ``plan`` to the store unless the build was fenced off.

        A remotely prepared plan embeds the model captured at *prefetch*
        time; if ``invalidate_model`` ran since this build snapshotted its
        generation, the engine skeleton (and thus the fingerprint) may
        belong to the replacement model while the plan belongs to the old
        one -- persisting it would poison the store and let the forced
        rebuild warm-start from exactly the stale plan the fence rejected.
        """
        if store_key is None:
            return
        with self._mutex:
            if self._generations.get(key, 0) != generation:
                return
        self._plan_store.store(store_key, plan)

    def _build_from_plan(
        self, key, generation, plan, offline_messages, offline_tracker
    ) -> EngineEntry:
        """Adopt a remotely prepared plan, merging its offline accounting."""
        start = time.perf_counter()
        engine = self._engine_skeleton(key)
        engine.install(plan)
        # The offline exchanges happened in the worker process; fold their
        # traffic and operation counts into this engine's books so the
        # accounting invariants (per-phase, totals) hold as if prepared here.
        engine.channel.merge(offline_messages)
        engine.tracker.merge(offline_tracker)
        # Remotely prepared plans warm future processes too.
        self._persist_plan(key, generation, self._store_key(key, engine), plan)
        end = time.perf_counter()
        with self._mutex:
            self._remote_builds += 1
        return EngineEntry(
            engine=engine, build_seconds=end - start, prepare_seconds=0.0,
            plan_bytes=plan.approx_nbytes(),
        )

    def _build(self, key: BatchKey, generation: int) -> EngineEntry:
        maybe_inject(SITE_ENGINE_BUILD, f"{key.model}/{key.variant}")
        start = time.perf_counter()
        engine = self._engine_skeleton(key)
        store_key = self._store_key(key, engine)
        plan = None
        if store_key is not None:
            plan = self._plan_store.load(store_key)
            if plan is not None:
                try:
                    engine.install(plan)
                except (ProtocolError, ShapeError):
                    # A stored plan that no longer fits this engine (e.g.
                    # produced by an older layout of the same fingerprint)
                    # is just a miss; fall through to the cold build.
                    plan = None
        warm = plan is not None
        prepare_seconds = 0.0
        if not warm:
            prepare_start = time.perf_counter()
            plan = engine.prepare()
            engine.install(plan)
            prepare_seconds = time.perf_counter() - prepare_start
            self._persist_plan(key, generation, store_key, plan)
        end = time.perf_counter()
        with self._mutex:
            if warm:
                self._warm_starts += 1
            else:
                self._cold_builds += 1
        return EngineEntry(
            engine=engine,
            build_seconds=end - start,
            prepare_seconds=prepare_seconds,
            plan_bytes=plan.approx_nbytes(),
            warm_start=warm,
        )

    def remote_prepare_args(self, key: BatchKey):
        """The picklable engine-construction arguments for a worker process."""
        if key.model not in self._models:
            raise ProtocolError(f"unknown model {key.model!r}")
        return (
            self._models[key.model],
            self._variants[key.variant],
            self._seed,
            self._network,
            self._slot_sharing,
        )

    def prefetch(self, key: BatchKey, pool: ThreadPoolExecutor) -> Future[EngineEntry]:
        """Schedule the offline preparation of ``key``'s engine on ``pool``."""
        return pool.submit(self.entry, key)

    def invalidate_model(self, name: str) -> None:
        """Drop cached engines built for an older model under ``name``.

        In-flight remote plan preparations for the old model are discarded
        too -- installing a plan whose offline shares embed the replaced
        model's weights onto an engine built from the new model would
        produce silently wrong results (mask shapes alone would match).
        Builds *currently in flight* are fenced by bumping the per-key
        generation: their insert is rejected and they rebuild against the
        current model (see :meth:`entry`).
        """
        with self._mutex:
            for key in [k for k in self._entries if k.model == name]:
                self._remove_locked(key)
                self._invalidations += 1
            for key in [k for k in self._pending_plans if k.model == name]:
                del self._pending_plans[key]
            for key in self._generations:
                if key.model == name:
                    self._generations[key] += 1

    def evict(self, key: BatchKey) -> bool:
        """Explicitly drop one cached entry; returns whether it existed."""
        with self._mutex:
            existed = key in self._entries
            if existed:
                self._remove_locked(key)
                self._evictions += 1
            return existed

    def cached_keys(self) -> list[BatchKey]:
        """Cached keys, least-recently-used first."""
        with self._mutex:
            return list(self._entries)

    def stats(self) -> EngineCacheStats:
        """Lifecycle counters (entries, bytes, evictions, warm starts...)."""
        with self._mutex:
            return EngineCacheStats(
                entries=len(self._entries),
                plan_bytes=self._plan_bytes,
                evictions=self._evictions,
                invalidations=self._invalidations,
                warm_starts=self._warm_starts,
                cold_builds=self._cold_builds,
                remote_builds=self._remote_builds,
                build_failures=self._build_failures,
                quarantine_rejections=self._quarantine_rejections,
                probe_builds=self._probe_builds,
                prepare_fallbacks=self._prepare_fallbacks,
            )


class LinearServingPath:
    """Shared state of the slot-sharing linear path.

    One backend and one accounting channel serve every weight bank, so in a
    multi-worker drain linear batches serialise on :attr:`lock` -- the HE
    win of the linear path is slot sharing, not thread parallelism.

    The path additionally caches one :class:`~repro.he.bsgs.BSGSMatmulPlan`
    per ``(bank, geometry)``: the weight bank's generalized diagonals,
    pre-transformed into NTT form once (the plan-time forward transforms
    stay unattributed, like any shared pre-processing) and reused by every
    batch whose chunk geometry matches -- the online diagonal
    multiply-accumulate is then transform-free on the evaluation-resident
    backend.  Replacing a bank invalidates its plans
    (:meth:`replace_bank`), mirroring the engine cache's model
    invalidation.
    """

    def __init__(
        self,
        weight_banks: dict[str, np.ndarray],
        backend_factory: Callable[[], HEBackend] | None,
        network: NetworkModel | None = None,
    ) -> None:
        self.weight_banks = weight_banks
        self._backend_factory = backend_factory
        self._backend: HEBackend | None = None
        self.channel = Channel()
        if network is not None:
            self.channel.network = network
            self.channel.realize_network = True
        self.lock = threading.Lock()
        #: (bank name, BSGSGeometry) -> plan; guarded by :attr:`lock`.
        #: LRU-bounded: chunk geometry varies with the batch's total row
        #: count, so a long-lived server with diverse workloads would
        #: otherwise accumulate plans without limit.
        self._bsgs_plans: OrderedDict[tuple, BSGSMatmulPlan] = OrderedDict()  # guarded_by: lock

    def backend(self) -> HEBackend:
        if self._backend is None:
            if self._backend_factory is not None:
                self._backend = self._backend_factory()
            else:
                self._backend = SimulatedHEBackend(protocol_he_parameters())
        return self._backend

    def bsgs_plan_locked(self, name: str, weights: np.ndarray, geometry) -> BSGSMatmulPlan:
        """The cached NTT-form diagonal plan for ``(name, geometry)``.

        Must be called with :attr:`lock` held (batch execution already
        holds it).  A miss builds the plan -- charging its one-off forward
        transforms outside any request attribution -- and caches it for
        every later batch of the same chunk geometry.
        """
        key = (name, geometry)
        plan = self._bsgs_plans.get(key)
        if plan is None:
            plan = self._bsgs_plans[key] = prepare_bsgs_plan(
                self.backend(), weights, geometry
            )
        self._bsgs_plans.move_to_end(key)
        while len(self._bsgs_plans) > _BSGS_PLAN_CACHE_SIZE:
            self._bsgs_plans.popitem(last=False)
        return plan

    def replace_bank(self, name: str, weights: np.ndarray) -> None:
        """Install a new weight bank and drop its stale plans atomically.

        Batch execution reads the bank *and* resolves its plan under
        :attr:`lock`, so swapping the bank and invalidating the plans in
        one critical section guarantees no batch ever pairs the new bank
        with diagonals pre-transformed from the old one (or vice versa) --
        the same-shape replacement case where the geometry key alone could
        not tell the two apart.
        """
        with self.lock:
            self.weight_banks[name] = weights
            for key in [k for k in self._bsgs_plans if k[0] == name]:
                del self._bsgs_plans[key]


class BatchExecutor:
    """Runs one batch at a time with full per-request attribution."""

    def __init__(self, engines: EngineCache, linear: LinearServingPath) -> None:
        self.engines = engines
        self.linear = linear

    def execute(self, batch: Batch, *, worker: str | None = None) -> list[RequestReport]:
        """Run one batch; ``worker`` tags the attribution in sharded drains."""
        maybe_inject(SITE_ONLINE_EXECUTE, f"batch-{batch.batch_id}")
        if batch.key.kind == "inference":
            return self._run_inference_batch(batch, worker)
        return self._run_linear_batch(batch, worker)

    # -- full-inference batches ---------------------------------------------
    def _run_inference_batch(self, batch: Batch, worker: str | None) -> list[RequestReport]:
        entry = self.engines.entry(batch.key)
        engine = entry.engine
        if len(batch.requests) > 1 and getattr(engine, "slot_sharing", 1) > 1:
            # The engine's FHGS modules can pack this batch's cross terms
            # block-diagonally into shared ciphertext slots: run the batch
            # through the engine as one unit.
            return self._run_shared_inference_batch(batch, engine, worker)
        reports: list[RequestReport] = []
        engine.tracker.set_worker(worker)
        engine.channel.set_worker(worker)
        try:
            for request in batch.requests:
                start = time.perf_counter()
                engine.tracker.set_request(request.request_id)
                engine.channel.set_request(request.request_id)
                try:
                    result = engine.run(request.payload)
                finally:
                    engine.tracker.set_request(None)
                    engine.channel.set_request(None)
                end = time.perf_counter()
                reports.append(
                    RequestReport(
                        request_id=request.request_id,
                        kind="inference",
                        model=batch.key.model,
                        variant=batch.key.variant,
                        batch_id=batch.batch_id,
                        batch_size=len(batch),
                        result=result.logits,
                        prediction=result.prediction,
                        queue_seconds=start - request.submitted_at,
                        latency_seconds=end - start,
                        online_bytes=engine.channel.total_bytes(
                            Phase.ONLINE, request=request.request_id
                        ),
                        online_rounds=engine.channel.round_count(
                            Phase.ONLINE, request=request.request_id
                        ),
                        offline_bytes=engine.channel.total_bytes(
                            Phase.OFFLINE, request=request.request_id
                        ),
                        he_operations=engine.tracker.request_snapshot(request.request_id),
                        worker=worker,
                        deadline=request.deadline,
                        deadline_met=(
                            None if request.deadline is None else end <= request.deadline
                        ),
                    )
                )
        finally:
            engine.tracker.set_worker(None)
            engine.channel.set_worker(None)
        return reports

    def _run_shared_inference_batch(
        self, batch: Batch, engine, worker: str | None
    ) -> list[RequestReport]:
        """Run one inference batch through the FHGS slot-sharing path.

        The batch's requests execute as one unit (``engine.run_batch``), so
        cross-term ciphertexts, HE operations and latency are *joint*
        figures for the whole group -- reported per request with
        ``shared_slot_batch=True``, exactly like the linear path's chunks.
        """
        tag = f"batch-{batch.batch_id}-shared"
        engine.tracker.set_worker(worker)
        engine.channel.set_worker(worker)
        start = time.perf_counter()
        try:
            with engine.tracker.attribute(tag):
                engine.channel.set_request(tag)
                try:
                    results = engine.run_batch(
                        [request.payload for request in batch.requests]
                    )
                finally:
                    engine.channel.set_request(None)
        finally:
            engine.tracker.set_worker(None)
            engine.channel.set_worker(None)
        end = time.perf_counter()
        ops = engine.tracker.request_snapshot(tag)
        online_bytes = engine.channel.total_bytes(Phase.ONLINE, request=tag)
        online_rounds = engine.channel.round_count(Phase.ONLINE, request=tag)
        offline_bytes = engine.channel.total_bytes(Phase.OFFLINE, request=tag)
        return [
            RequestReport(
                request_id=request.request_id,
                kind="inference",
                model=batch.key.model,
                variant=batch.key.variant,
                batch_id=batch.batch_id,
                batch_size=len(batch),
                result=result.logits,
                prediction=result.prediction,
                queue_seconds=start - request.submitted_at,
                latency_seconds=end - start,
                online_bytes=online_bytes,
                online_rounds=online_rounds,
                offline_bytes=offline_bytes,
                he_operations=dict(ops),
                shared_slot_batch=True,
                worker=worker,
                deadline=request.deadline,
                deadline_met=(
                    None if request.deadline is None else end <= request.deadline
                ),
            )
            for request, result in zip(batch.requests, results, strict=True)
        ]

    # -- shared-slot linear batches -----------------------------------------
    def _run_linear_batch(self, batch: Batch, worker: str | None) -> list[RequestReport]:
        """Run a slot-sharing linear batch, chunked to the ciphertext capacity."""
        with self.linear.lock:
            backend = self.linear.backend()
            weights = self.linear.weight_banks.get(batch.key.model)
            if weights is None:
                raise ProtocolError(f"unknown weight bank {batch.key.model!r}")
            for request in batch.requests:
                # Banks can be replaced between submit and execution; the
                # shape contract is re-checked at batch time (see
                # ServingRuntime.register_weights).
                if request.payload.shape[1] != weights.shape[0]:
                    raise ProtocolError(
                        f"request {request.request_id!r} of shape "
                        f"{request.payload.shape} no longer matches weight bank "
                        f"{batch.key.model!r} of shape {weights.shape}"
                    )
            reports: list[RequestReport] = []
            slot_count = backend.slot_count
            chunk: list[InferenceRequest] = []
            chunk_index = 0
            rows = 0
            for request in [*batch.requests, None]:  # None flushes the last chunk
                if request is not None and rows + request.payload.shape[0] <= slot_count:
                    chunk.append(request)
                    rows += request.payload.shape[0]
                    continue
                if chunk:
                    reports.extend(
                        self._run_linear_chunk(
                            batch, chunk_index, chunk, backend, weights, worker
                        )
                    )
                    chunk_index += 1
                if request is not None:
                    # Per-request capacity was validated at submit time.
                    chunk = [request]
                    rows = request.payload.shape[0]
            return reports

    def _run_linear_chunk(
        self,
        batch: Batch,
        chunk_index: int,
        chunk: list[InferenceRequest],
        backend: HEBackend,
        weights: np.ndarray,
        worker: str | None,
    ) -> list[RequestReport]:
        # One tag per slot-sharing chunk: a batch may split into several
        # chunks, and reusing one tag would double-count earlier chunks'
        # operations in later chunks' reports.
        tag = f"batch-{batch.batch_id}-chunk-{chunk_index}"
        channel = self.linear.channel
        backend.tracker.set_worker(worker)
        channel.set_worker(worker)
        total_rows = sum(request.payload.shape[0] for request in chunk)
        # Rotation-minimal BSGS diagonals when the backend supports slot-wise
        # products (the simulator; chunking already caps rows at the slot
        # count); the column kernel otherwise (exact BFV).
        use_bsgs = bsgs_kernel_fits(
            backend, total_rows, weights.shape[0], weights.shape[1]
        )
        bsgs_plan = None
        if use_bsgs:
            # NTT-form diagonal masks are prepared once per (bank, geometry)
            # and shared by every request of every matching batch; building
            # them before the request attribution starts keeps the plan-time
            # transforms unattributed, like other shared pre-processing.
            geometry = bsgs_geometry(
                total_rows, weights.shape[0], weights.shape[1], backend.slot_count
            )
            bsgs_plan = self.linear.bsgs_plan_locked(batch.key.model, weights, geometry)
        start = time.perf_counter()
        try:
            with backend.tracker.attribute(tag):
                results = encrypted_batch_matmul(
                    backend, [request.payload for request in chunk], weights,
                    kernel="bsgs" if use_bsgs else "columns",
                    bsgs_plan=bsgs_plan,
                )
            end = time.perf_counter()
            ops = backend.tracker.request_snapshot(tag)
            # Wire accounting: the column kernel ships one ciphertext per
            # input feature and one per output column; BSGS packs the input
            # into its block geometry and the whole result into a single
            # ciphertext.
            if use_bsgs:
                input_cts, result_cts = geometry.num_ciphertexts, geometry.out_groups
            else:
                input_cts, result_cts = weights.shape[0], weights.shape[1]
            channel.set_request(tag)
            channel.send(
                "client", "server", input_cts * backend.ciphertext_bytes,
                description="Enc(stacked inputs)", step=STEP_LINEAR, phase=Phase.ONLINE,
            )
            channel.send(
                "server", "client", result_cts * backend.ciphertext_bytes,
                description="Enc(stacked results)", step=STEP_LINEAR, phase=Phase.ONLINE,
            )
            channel.set_request(None)
        finally:
            backend.tracker.set_worker(None)
            channel.set_worker(None)
        online_bytes = channel.total_bytes(Phase.ONLINE, request=tag)
        return [
            RequestReport(
                request_id=request.request_id,
                kind="linear",
                model=batch.key.model,
                variant="",
                batch_id=batch.batch_id,
                batch_size=len(chunk),
                result=result,
                prediction=None,
                queue_seconds=start - request.submitted_at,
                latency_seconds=end - start,
                online_bytes=online_bytes,
                online_rounds=2,
                offline_bytes=0,
                he_operations=dict(ops),
                shared_slot_batch=True,
                worker=worker,
                deadline=request.deadline,
                deadline_met=(
                    None if request.deadline is None else end <= request.deadline
                ),
            )
            for request, result in zip(chunk, results, strict=True)
        ]


class PipelinedExecutor:
    """The one drain loop behind every serving path.

    :meth:`run` forms batches under the scheduling policy and runs each on
    its key's :class:`EngineShardMap` worker.  A batch is formed only when
    that worker is free and its key has no batch in flight, so per-key FIFO
    order holds and no engine is driven by two threads at once -- which is
    why every drain is bit-identical to the serial one.  While a worker is
    busy, the engines of cold keys queued behind it are built on a
    background thread (the overlap the paper's offline/online split
    allows); a cold key that reaches an idle worker builds inline.  Not in
    a process: replicas are daemonic processes, which may not start one.

    One classifier handles every failed batch: a ``worker_shard`` fault
    re-runs the batch serially (``worker=None``) with its reports marked
    ``degraded``; a retryable error under a
    :class:`~repro.runtime.faults.RetryPolicy` requeues the requests after
    the policy's backoff; anything else fails the batch's requests.
    """

    #: wake-up period of an idle loop; also catches submissions that do
    #: not notify the loop (direct ``runtime.submit`` behind a front door)
    _POLL_SECONDS = 0.05

    def __init__(self, base: BatchExecutor, *, num_workers: int = 2) -> None:
        if num_workers < 1:
            raise ProtocolError("num_workers must be at least 1")
        self.base = base
        self.num_workers = num_workers
        self.shard_map = EngineShardMap(num_workers)
        #: batches re-run serially after a worker-shard fault
        self.serial_fallbacks = 0  # guarded_by: _lock
        self._lock = threading.Lock()

    def run(
        self,
        scheduler: BatchScheduler,
        on_complete: Callable[[list[RequestReport]], None],
        *,
        shards: bool = True,
        serving: Callable[[], bool] | None = None,
        on_fail: Callable[[list[InferenceRequest], Exception, dict[str, int]], None]
        | None = None,
        wakeup: threading.Condition | None = None,
        retry_policy: RetryPolicy | None = None,
        linger_seconds: float = 0.0,
    ) -> list[RequestReport]:
        """Drain ``scheduler``; ``on_complete`` gets each batch's reports.

        ``shards=False`` runs every batch inline on the calling thread with
        ``worker=None`` -- the serial reference.  Without ``serving`` the
        loop *flushes*: it returns the reports in batch-formation order once
        the queue is empty, and stops forming batches at the first failure,
        which it re-raises.  With ``serving`` (called under ``wakeup``, which
        submitters notify) it waits for submissions until ``serving()`` turns
        false and the queue is empty, hands failures to ``on_fail(requests,
        error, attempts by request id)`` and may linger for a batch to fill.
        """
        cond = wakeup if wakeup is not None else threading.Condition()
        busy: set[int | None] = set()  # workers running a batch
        inflight: set[BatchKey] = set()  # keys with a batch in flight
        prefetched: set[BatchKey] = set()  # cold keys being prepared, not yet formed
        attempts: dict[str, int] = {}
        completed: list[RequestReport] = []
        errors: list[Exception] = []
        shard_pool = prepare_pool = None
        if shards:
            shard_pool = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="shard"
            )
            prepare_pool = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="offline-prepare"
            )

        def formable(key: BatchKey) -> bool:
            return key not in inflight and (
                shard_pool is None or self.shard_map.worker_for(key) not in busy
            )

        def cold_keys_behind_busy_workers() -> list[BatchKey]:
            waiting = [
                key for key in scheduler.pending_keys()
                if key.kind == "inference" and key not in inflight
                and key not in prefetched and self.shard_map.worker_for(key) in busy
            ]
            cached = set(self.base.engines.cached_keys()) if waiting else set()
            return [key for key in waiting if key not in cached]

        def fail_or_retry(batch: Batch, exc: Exception) -> None:
            # Requeued requests keep their ids, sequence stamps and arrival
            # order, so the key's next batch serves them first.  The backoff
            # runs on this batch's worker while its key is still in flight.
            now = time.perf_counter()
            with cond:
                counts = {r.request_id: attempts.pop(r.request_id, 1) for r in batch.requests}
            retry = []
            if retry_policy is not None and retry_policy.retryable(exc):
                retry = [
                    r for r in batch.requests
                    if counts[r.request_id] < retry_policy.max_attempts
                    and retry_policy.budget_remaining(r.submitted_at, now) > 0
                ]
            if retry:
                time.sleep(max(
                    retry_policy.backoff_for(r.request_id, counts[r.request_id])
                    for r in retry
                ))
                with cond:
                    attempts.update((r.request_id, counts[r.request_id] + 1) for r in retry)
                for request in reversed(retry):  # appendleft keeps arrival order
                    scheduler.requeue(request)
            retried = {r.request_id for r in retry}
            failed = [r for r in batch.requests if r.request_id not in retried]
            if failed and on_fail is not None:
                on_fail(failed, exc, counts)
            elif failed:
                with cond:
                    errors.append(exc)

        def execute(batch: Batch, worker: int | None) -> None:
            label = None if worker is None else f"worker-{worker}"
            try:
                try:
                    reports = self._execute(batch, label)
                except Exception as exc:  # noqa: BLE001 - classified below
                    fail_or_retry(batch, exc)
                    return
                with cond:
                    counts = [attempts.pop(r.request_id, 1) for r in reports]
                for report, count in zip(reports, counts, strict=True):
                    report.attempts = count
                    report.retried = count > 1
                on_complete(reports)
                if serving is None:
                    with cond:
                        completed.extend(reports)
            except Exception as exc:  # noqa: BLE001 - a callback failed: stop the loop
                with cond:
                    errors.append(exc)
            finally:
                with cond:
                    busy.discard(worker)
                    inflight.discard(batch.key)
                    cond.notify_all()

        def linger() -> None:
            deadline = time.perf_counter() + linger_seconds
            while (remaining := deadline - time.perf_counter()) > 0:
                with cond:
                    depths = scheduler.queue_depths()
                    if not serving() or not depths or (
                        max(depths.values()) >= scheduler.max_batch_size
                    ):
                        return
                    cond.wait(timeout=min(remaining, self._POLL_SECONDS))

        scheduler.set_gate(formable)
        try:
            while True:
                with cond:
                    # ``errors`` holds a flush's first failure, or anything
                    # that escaped a callback: stop forming, let in-flight
                    # batches finish, then re-raise.
                    stopping = bool(errors) or scheduler.pending() == 0 and (
                        serving is None or not serving()
                    )
                    if stopping and not inflight:
                        break
                    ready = not errors and any(
                        formable(key) for key in scheduler.pending_keys()
                    )
                    cold = []
                    if prepare_pool is not None and not stopping:
                        cold = cold_keys_behind_busy_workers()
                        prefetched.update(cold)
                    if not ready and not cold:
                        cond.wait(timeout=self._POLL_SECONDS)
                        continue
                # A failed background build is recorded by the key's circuit
                # breaker; the key's own batch then builds inline and
                # reports the error, so these futures are not read.
                for key in cold:
                    self.base.engines.prefetch(key, prepare_pool)
                if not ready:
                    continue
                if serving is not None and linger_seconds > 0:
                    linger()
                with cond:
                    batch = scheduler.next_batch()
                    if batch is None:
                        continue
                    worker = None if shard_pool is None else self.shard_map.worker_for(batch.key)
                    busy.add(worker)
                    inflight.add(batch.key)
                    # Once formed, the key may leave the cache again (LRU
                    # eviction, invalidation) and be prepared anew later.
                    prefetched.discard(batch.key)
                if shard_pool is None:
                    execute(batch, None)
                else:
                    shard_pool.submit(execute, batch, worker)
        finally:
            for pool in (shard_pool, prepare_pool):
                if pool is not None:
                    pool.shutdown(wait=True)
            scheduler.set_gate(None)
            # glibc keeps the freed pages of an exited thread's malloc arena
            # until another thread takes the arena.  Shard threads live for
            # one run, so hand their pages back once they have exited.
            if shards and _malloc_trim() is not None:
                _malloc_trim()(0)
        if errors:
            raise errors[0]
        return sorted(completed, key=lambda report: report.batch_id)

    def _execute(self, batch: Batch, label: str | None) -> list[RequestReport]:
        """Run one batch; a worker-shard fault re-runs it serially, degraded."""
        if label is not None:
            try:
                maybe_inject(SITE_WORKER_SHARD, label)
            except TransientFault:
                reports = self.base.execute(batch, worker=None)
                for report in reports:
                    report.degraded = True
                with self._lock:
                    self.serial_fallbacks += 1
                return reports
        return self.base.execute(batch, worker=label)
