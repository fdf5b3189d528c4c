"""Traced run: wrap each layer's public functions from outside the program.

The tracer replaces public methods of the serving stack's layers with
timing wrappers for the length of a traced episode and restores them
afterwards; nothing in ``src/`` changes.  Layer boundaries that matter per
request or per batch (submit, batch execution, engine builds, the protocol
steps, wire sends) are recorded as spans -- name, start, end, parent span
and a request or batch id -- kept in memory and written out when the run
ends.  Hot inner calls (HE operations, NTTs, tracker records, channel
sends) are only counted and timed in aggregate, so tracing them does not
grow memory with the number of ciphertext operations.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.he.backend import ExactBFVBackend
from repro.he.ntt import NTTContext
from repro.he.rns import RNSPolynomialRing
from repro.he.simulated import SimulatedHEBackend
from repro.he.tracker import OperationTracker
from repro.protocols.channel import Channel
from repro.protocols.fhgs import FHGSMatmul
from repro.protocols.hgs import HGSLinearLayer
from repro.protocols.nonlinear import GCNonlinearEvaluator
from repro.protocols.primer import PrivateTransformerInference
from repro.runtime import fleet, net
from repro.runtime.executor import BatchExecutor, EngineCache
from repro.runtime.frontdoor import AsyncServingRuntime
from repro.runtime.scheduler import BatchScheduler

HE_OPS = (
    "mul_plain", "add", "rotate", "fused_mul_accumulate",
    "linear_combine_batch", "encrypt_batch", "decrypt_batch",
)
NONLINEAR_METHODS = ("softmax", "gelu", "tanh", "layer_norm", "relu", "truncate")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # -1 for a top-level span of its thread
    tag: object = None


def _builds(stats) -> int:
    return stats.cold_builds + stats.warm_starts + stats.remote_builds


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no {attr!r}")


class Tracer:
    """Spans and counters over the wrapped layer functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: name -> [calls, nanoseconds or bytes]
        self.counters: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0])
        #: counter deltas accumulated over the serving windows only
        self.serve_counters: defaultdict[str, list[int]] = defaultdict(lambda: [0, 0])
        #: (start_ns, end_ns) of every serving window
        self.windows: list[tuple[int, int]] = []
        #: (serving window index, request id) -> seconds its batch spent
        #: building an engine; every stack restarts its request ids
        self.build_seconds: dict[tuple[int, str], float] = {}
        self._snapshot: dict[str, list[int]] = {}
        self._window_start = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- serving windows ------------------------------------------------------
    def begin_serving(self) -> None:
        self._snapshot = {name: list(value) for name, value in self.counters.items()}
        self._window_start = time.perf_counter_ns()

    def end_serving(self) -> None:
        self.windows.append((self._window_start, time.perf_counter_ns()))
        for name, value in list(self.counters.items()):
            before = self._snapshot.get(name, (0, 0))
            total = self.serve_counters[name]
            total[0] += value[0] - before[0]
            total[1] += value[1] - before[1]

    def in_serving(self, span: Span) -> bool:
        return any(start <= span.start and span.end <= end for start, end in self.windows)

    # -- span recording --------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, tag=None):
        """Record one span; yields the :class:`Span` so callers may rename or tag it."""
        stack = self._stack()
        record = Span(next(self._ids), name, 0, 0, stack[-1] if stack else -1, tag)
        stack.append(record.id)
        record.start = time.perf_counter_ns()
        try:
            yield record
        finally:
            record.end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(record)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                tag = s.tag if isinstance(s.tag, (int, str)) or s.tag is None else str(s.tag)
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": s.parent, "tag": tag,
                }) + "\n")

    # -- wrappers -------------------------------------------------------------
    def _spanned(self, name_of, tag_of=None):
        tracer = self

        def factory(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name_of(args, kwargs)) as record:
                    result = fn(*args, **kwargs)
                    if tag_of is not None:
                        record.tag = tag_of(args, result)
                    return result
            return wrapper
        return factory

    def _timed(self, name: str):
        counter = self.counters[name]

        def factory(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counter[0] += 1
                    counter[1] += time.perf_counter_ns() - start
            return wrapper
        return factory

    def _counted(self, name: str):
        counter = self.counters[name]

        def factory(fn):
            def wrapper(*args, **kwargs):
                counter[0] += 1
                return fn(*args, **kwargs)
            return wrapper
        return factory

    def _entry(self, fn):
        """``EngineCache.entry``: a hit or a build, charged to the running batch."""
        tracer = self

        def entry(cache, key):
            before = _builds(cache.stats())
            with tracer.span("engine_cache.hit", tag=f"{key.model}/{key.variant}") as record:
                result = fn(cache, key)
                if _builds(cache.stats()) > before:
                    record.name = "engine_cache.build"
            if record.name == "engine_cache.build":
                pending = getattr(tracer._local, "batch_build", None)
                if pending is not None:
                    tracer._local.batch_build = pending + (record.end - record.start) / 1e9
            return result
        return entry

    def _execute(self, fn):
        """``BatchExecutor.execute``: one span per batch, engine-build time per request."""
        tracer = self

        def execute(executor, batch, **kwargs):
            tracer._local.batch_build = 0.0
            try:
                with tracer.span("executor.execute", tag=batch.batch_id):
                    return fn(executor, batch, **kwargs)
            finally:
                build = tracer._local.batch_build
                tracer._local.batch_build = None
                # A stack's set-up and its serving window share the index of
                # the window, which has not been appended yet.
                window = len(tracer.windows)
                for request in batch.requests:
                    tracer.build_seconds[window, request.request_id] = build
        return execute

    def _next_batch(self, fn):
        counter = self.counters["scheduler.batches"]

        def next_batch(scheduler):
            batch = fn(scheduler)
            if batch is not None:
                counter[0] += 1
                counter[1] += len(batch.requests)
            return batch
        return next_batch

    def _channel_send(self, fn):
        counters = self.counters

        def send(channel, *args, **kwargs):
            result = fn(channel, *args, **kwargs)
            message = channel.messages[-1]
            counter = counters[f"channel.{message.phase.value}.{message.step}"]
            counter[0] += 1
            counter[1] += message.num_bytes
            return result
        return send

    def _nonlinear(self, fn):
        default = inspect.signature(fn).parameters["step"].default
        return self._spanned(lambda args, kwargs: "step." + kwargs.get("step", default))(fn)

    def _locked_counter(self, name: str, measure):
        counter, lock = self.counters[name], self._lock

        def factory(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                amount = measure(result)
                if amount is not None:
                    with lock:
                        counter[0] += 1
                        counter[1] += amount
                return result
            return wrapper
        return factory

    # -- installation ---------------------------------------------------------
    def _patch(self, owner, attr: str, factory) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = factory(original)
        self._patches.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            return
        submit = self._spanned(
            lambda args, kwargs: "frontdoor.submit", lambda args, handle: handle.request_id
        )
        for owner, attr in ((AsyncServingRuntime, "submit"),
                            (AsyncServingRuntime, "submit_linear"),
                            (fleet.FleetRouter, "submit")):
            self._patch(owner, attr, submit)
        self._patch(BatchScheduler, "next_batch", self._next_batch)
        self._patch(BatchExecutor, "execute", self._execute)
        self._patch(EngineCache, "entry", self._entry)
        for attr in ("prepare", "install", "run_batch"):
            self._patch(PrivateTransformerInference, attr,
                        self._spanned(lambda args, kwargs, attr=attr: f"primer.{attr}"))
        step = self._spanned(lambda args, kwargs: f"step.{args[0].step}")
        self._patch(HGSLinearLayer, "online_batch", step)
        self._patch(FHGSMatmul, "online_batch", step)
        for attr in NONLINEAR_METHODS:
            self._patch(GCNonlinearEvaluator, attr, self._nonlinear)
        self._patch(Channel, "send", self._channel_send)
        patched = set()
        for backend in (SimulatedHEBackend, ExactBFVBackend):
            for op in HE_OPS:
                owner = _defining_class(backend, op)
                if (owner, op) not in patched:
                    patched.add((owner, op))
                    self._patch(owner, op, self._timed(f"he.{op}"))
        # Single-modulus rings transform through NTTContext, double-CRT rings
        # through RNSPolynomialRing's stacked call; neither calls the other.
        for owner in (NTTContext, RNSPolynomialRing):
            self._patch(owner, "forward_batch", self._timed("ntt.forward_batch"))
            self._patch(owner, "inverse_batch", self._timed("ntt.inverse_batch"))
        self._patch(OperationTracker, "record", self._counted("tracker.record"))
        send = self._spanned(lambda args, kwargs: "net.send_frame")
        self._patch(net, "send_frame", send)
        self._patch(fleet, "send_frame", send)
        self._patch(net, "encode_frame", self._locked_counter("net.bytes_sent", len))
        frames_recv = self._locked_counter(
            "net.frames_recv", lambda frame: None if frame is None else 0
        )
        self._patch(net, "recv_frame", frames_recv)
        self._patch(fleet, "recv_frame", frames_recv)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Restore the original functions for a moment (e.g. while forking)."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
