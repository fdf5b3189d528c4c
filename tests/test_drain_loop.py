"""The one drain loop behind the front door and both synchronous drains.

:class:`~repro.runtime.executor.PipelinedExecutor.run` forms batches under
the scheduling policy, runs each on its key's shard worker, builds the
engines of cold keys queued behind a busy worker on a background thread,
and classifies every failure.  These tests pin what the front door gains
from it: shard workers, the worker-shard degradation rung, and background
engine builds -- all bit-identical to the serial ``run_pending()`` -- and
that the loop runs inside a forked (daemonic) replica process.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ProtocolError, ShapeError, TransientFault
from repro.nn import BERT_BASE, TransformerEncoder, scaled_config
from repro.protocols import PRIMER_FPC
from repro.runtime import (
    AsyncServingRuntime,
    BatchKey,
    BatchScheduler,
    FaultPlan,
    FaultRule,
    FleetRouter,
    InferenceRequest,
    PipelinedExecutor,
    RequestReport,
    RetryPolicy,
    ServingRuntime,
    fault_scope,
    spawn_replica_process,
)
from repro.runtime.faults import SITE_WORKER_SHARD, fault_seed_from_env

SEED = fault_seed_from_env()


@pytest.fixture(scope="module")
def two_models() -> dict[str, TransformerEncoder]:
    config = scaled_config(
        BERT_BASE, embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1
    )
    return {
        "tiny-a": TransformerEncoder.initialise(config, seed=3),
        "tiny-b": TransformerEncoder.initialise(config, seed=7),
    }


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(17)
    return [("tiny-a" if i % 2 == 0 else "tiny-b", rng.integers(0, 40, size=6)) for i in range(6)]


def _serial_reports(models, workload, **kwargs):
    runtime = ServingRuntime(models, seed=21, **kwargs)
    ids = [runtime.submit(model, tokens) for model, tokens in workload]
    runtime.run_pending()
    return [runtime.result(rid) for rid in ids]


class TestFrontDoorShards:
    def test_two_models_run_on_two_shard_workers(self, two_models, workload):
        """The door's reports carry shard labels, one worker per model, and
        match a serial drain in logits, online bytes, rounds and HE ops."""
        # Single-request batches: the per-request accounting of a batch
        # does not then depend on when the door happened to form it.
        expected = _serial_reports(two_models, workload, max_batch_size=1)
        with AsyncServingRuntime(two_models, max_batch_size=1, seed=21) as door:
            handles = [door.submit(model, tokens) for model, tokens in workload]
            reports = [handle.result(timeout=120) for handle in handles]
        assert {r.worker for r in reports} == {"worker-0", "worker-1"}
        by_model = {}
        for report in reports:
            by_model.setdefault(report.model, set()).add(report.worker)
        assert all(len(workers) == 1 for workers in by_model.values())
        for served, serial in zip(reports, expected, strict=True):
            assert served.request_id == serial.request_id
            assert np.array_equal(served.result, serial.result)
            assert served.online_bytes == serial.online_bytes
            assert served.online_rounds == serial.online_rounds
            assert served.he_operations == serial.he_operations

    def test_worker_shard_fault_degrades_the_batch(self, two_models, workload):
        """A shard fault inside the door re-runs its batch serially: the
        reports are marked degraded, none fail, and conservation closes."""
        expected = {r.request_id: r.result for r in _serial_reports(two_models, workload)}
        plan = FaultPlan(rules=(FaultRule(site=SITE_WORKER_SHARD, fires=(1,)),), seed=SEED)
        with fault_scope(plan) as injector:
            with AsyncServingRuntime(two_models, seed=21) as door:
                handles = [door.submit(model, tokens) for model, tokens in workload]
            errors = [handle.exception(timeout=120) for handle in handles]
        assert injector.fired_count(SITE_WORKER_SHARD) == 1
        assert errors == [None] * len(handles)  # submitted == completed
        reports = [handle.result(timeout=1) for handle in handles]
        degraded = [r for r in reports if r.degraded]
        assert degraded and all(r.worker is None for r in degraded)
        assert door.runtime.pipeline.serial_fallbacks == 1
        for report in reports:
            assert np.array_equal(report.result, expected[report.request_id])

    def test_cold_key_behind_a_busy_worker_builds_in_the_background(
        self, two_models, workload
    ):
        """With one shard worker, a cold key queued behind a running batch
        has its engine built while that batch still runs -- again after the
        key has left the cache."""
        runtime = ServingRuntime(two_models, seed=21, num_workers=1)
        first_key, second_key = (
            BatchKey(kind="inference", model=model, variant=PRIMER_FPC.name)
            for model, _ in workload[:2]
        )
        release = threading.Event()
        running = threading.Event()
        original = runtime.executor.execute

        def gated(batch, **kwargs):
            if batch.key == first_key:
                running.set()
                assert release.wait(timeout=60)
            return original(batch, **kwargs)

        def built_while_worker_busy(key) -> bool:
            deadline = time.monotonic() + 60
            while key not in runtime.engine_cache.cached_keys():
                if time.monotonic() > deadline:
                    return False
                time.sleep(0.01)
            return True

        runtime.executor.execute = gated
        expected = _serial_reports(two_models, workload[:2])
        with AsyncServingRuntime(runtime=runtime) as door:
            for round_ in range(2):
                running.clear()
                release.clear()
                first = door.submit(*workload[0])
                assert running.wait(timeout=60)
                second = door.submit(*workload[1])  # the other model: cold, queued
                try:
                    assert built_while_worker_busy(second_key), f"round {round_}"
                finally:
                    release.set()
                reports = [first.result(timeout=120), second.result(timeout=120)]
                for served, serial in zip(reports, expected, strict=True):
                    assert np.array_equal(served.result, serial.result)
                assert runtime.engine_cache.evict(second_key)
        assert runtime.engine_cache.stats().cold_builds == 3  # first once, second twice

    def test_forked_replica_with_more_keys_than_workers(self, two_models, workload, tmp_path):
        """A replica is a daemonic process, which may not start children:
        its loop's background builds must not need any.  Two cold models on
        one shard worker, under concurrent load, all complete."""
        expected = {
            model: result
            for (model, _), result in zip(
                workload[:2],
                [r.result for r in _serial_reports(two_models, workload[:2], max_batch_size=1)],
                strict=True,
            )
        }
        replica = spawn_replica_process(
            two_models, name="rep-one-worker", fleet_dir=tmp_path / "fleet",
            max_batch_size=1, seed=21, num_workers=1,
        )
        try:
            with FleetRouter([replica], start_health_monitor=False) as router:
                handles = [
                    (model, router.submit(model, tokens))
                    for model, tokens in workload[:2] * 3
                ]
                for model, handle in handles:
                    assert np.array_equal(handle.result(timeout=120).result, expected[model])
                assert router.conservation()["gap"] == 0
            assert replica.alive
        finally:
            replica.kill()
            replica.join(timeout=10)


class TestSchedulerGate:
    def test_gated_keys_keep_their_position(self):
        scheduler = BatchScheduler(max_batch_size=4)
        a = BatchKey(kind="inference", model="a", variant=PRIMER_FPC.name)
        b = BatchKey(kind="inference", model="b", variant=PRIMER_FPC.name)
        for index, key in enumerate([a, b, a, b]):
            scheduler.submit(InferenceRequest(request_id=f"r{index}", key=key, payload=None))
        scheduler.set_gate(lambda key: key == b)
        batch = scheduler.next_batch()
        assert batch.key == b
        assert [r.request_id for r in batch.requests] == ["r1", "r3"]
        assert scheduler.next_batch() is None  # only gated requests remain
        scheduler.set_gate(None)
        assert [r.request_id for r in scheduler.next_batch().requests] == ["r0", "r2"]


# -- the loop itself, over a stub batch executor ------------------------------
# These pin the loop's formation and failure-classification rules without
# building engines: the stub stands in for ``BatchExecutor`` and records how
# each batch was run.


class _StubEngines:
    def cached_keys(self) -> list[BatchKey]:
        return []


class _StubBase:
    """A ``BatchExecutor`` stand-in; ``behaviour(batch, worker)`` may raise."""

    def __init__(self, behaviour=None) -> None:
        self.engines = _StubEngines()
        self.behaviour = behaviour
        self.runs: list[tuple[int, str | None, list[str]]] = []
        self._lock = threading.Lock()

    def execute(self, batch, *, worker=None):
        if self.behaviour is not None:
            self.behaviour(batch, worker)
        with self._lock:
            self.runs.append((batch.batch_id, worker, [r.request_id for r in batch.requests]))
        return [
            RequestReport(
                request_id=r.request_id, kind=batch.key.kind, model=batch.key.model,
                variant=batch.key.variant, batch_id=batch.batch_id,
                batch_size=len(batch), result=np.zeros(1), prediction=None,
                queue_seconds=0.0, latency_seconds=0.0, online_bytes=0,
                online_rounds=0, offline_bytes=0, he_operations={}, worker=worker,
            )
            for r in batch.requests
        ]


def _linear_key(name: str) -> BatchKey:
    return BatchKey(kind="linear", model=name, variant="")


def _queue(pattern: str, max_batch_size: int = 1) -> BatchScheduler:
    """A scheduler holding one request per character (the key's name)."""
    scheduler = BatchScheduler(max_batch_size=max_batch_size)
    for index, name in enumerate(pattern):
        scheduler.submit(
            InferenceRequest(request_id=f"{name}{index}", key=_linear_key(name), payload=None)
        )
    return scheduler


class TestDrainLoopRules:
    def test_num_workers_must_be_positive(self):
        with pytest.raises(ProtocolError):
            PipelinedExecutor(_StubBase(), num_workers=0)

    def test_serial_flush_runs_inline_without_worker_labels(self):
        base = _StubBase()
        caller = threading.current_thread()
        threads = set()
        base.behaviour = lambda batch, worker: threads.add(threading.current_thread())
        reports = PipelinedExecutor(base).run(_queue("abab"), lambda _: None, shards=False)
        assert threads == {caller}
        assert [r.request_id for r in reports] == ["a0", "b1", "a2", "b3"]
        assert {r.worker for r in reports} == {None}

    def test_sharded_flush_labels_workers_in_formation_order(self):
        base = _StubBase()
        reports = PipelinedExecutor(base, num_workers=2).run(_queue("abab"), lambda _: None)
        assert [r.batch_id for r in reports] == sorted(r.batch_id for r in reports)
        workers = {r.model: {x.worker for x in reports if x.model == r.model} for r in reports}
        assert workers == {"a": {"worker-0"}, "b": {"worker-1"}}

    def test_a_key_never_has_two_batches_in_flight(self):
        """With more workers than keys, one key's batches still run one at a
        time and in arrival order."""
        running = []
        overlap = []
        lock = threading.Lock()

        def behaviour(batch, worker):
            with lock:
                overlap.append(batch.key in running)
                running.append(batch.key)
            time.sleep(0.005)
            with lock:
                running.remove(batch.key)

        base = _StubBase(behaviour)
        reports = PipelinedExecutor(base, num_workers=3).run(_queue("aaaaaa"), lambda _: None)
        assert not any(overlap)
        assert [r.request_id for r in reports] == [f"a{i}" for i in range(6)]

    def test_stress_many_keys_on_more_workers_than_cores(self):
        """Eight shard workers, twelve keys, a tiny switch interval: every
        request is served exactly once, per key in arrival order, and no
        key ever has two batches in flight."""
        running: set[BatchKey] = set()
        overlap = []
        lock = threading.Lock()

        def behaviour(batch, worker):
            with lock:
                overlap.append(batch.key in running)
                running.add(batch.key)
            time.sleep(0.0005)
            with lock:
                running.discard(batch.key)

        pattern = "abcdefghijkl" * 20
        base = _StubBase(behaviour)
        result = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            loop = threading.Thread(
                target=lambda: result.setdefault(
                    "reports",
                    PipelinedExecutor(base, num_workers=8).run(
                        _queue(pattern, max_batch_size=3), lambda _: None
                    ),
                )
            )
            loop.start()
            loop.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not loop.is_alive()
        reports = result["reports"]
        assert not any(overlap)
        assert sorted(r.request_id for r in reports) == sorted(
            f"{name}{index}" for index, name in enumerate(pattern)
        )
        for name in set(pattern):
            served = [r for r in sorted(reports, key=lambda r: r.batch_id) if r.model == name]
            indices = [int(r.request_id[1:]) for r in served]
            assert indices == sorted(indices)

    def test_distinct_keys_run_concurrently(self):
        """Two keys on two shard workers are in flight at the same time."""
        barrier = threading.Barrier(2, timeout=30)
        base = _StubBase(lambda batch, worker: barrier.wait())
        reports = PipelinedExecutor(base, num_workers=2).run(_queue("ab"), lambda _: None)
        assert {r.worker for r in reports} == {"worker-0", "worker-1"}

    def test_flush_reraises_the_first_error_and_stops_forming(self):
        def behaviour(batch, worker):
            if batch.requests[0].request_id == "a1":
                raise ShapeError("bad payload")

        base = _StubBase(behaviour)
        scheduler = _queue("aaaa")
        with pytest.raises(ShapeError, match="bad payload"):
            PipelinedExecutor(base).run(scheduler, lambda _: None, shards=False)
        assert [run[2] for run in base.runs] == [["a0"]]
        assert scheduler.pending_count() == 2  # nothing formed after the failure

    def test_retryable_error_is_requeued_then_served(self):
        failures = {"a1": 1}

        def behaviour(batch, worker):
            rid = batch.requests[0].request_id
            if failures.get(rid):
                failures[rid] -= 1
                raise TransientFault("blip", site="test")

        base = _StubBase(behaviour)
        policy = RetryPolicy(max_attempts=3, backoff_seconds=0.0, jitter=0.0)
        reports = PipelinedExecutor(base).run(
            _queue("aaa"), lambda _: None, shards=False, retry_policy=policy
        )
        assert [r.request_id for r in reports] == ["a0", "a1", "a2"]
        assert [(r.attempts, r.retried) for r in reports] == [(1, False), (2, True), (1, False)]

    def test_exhausted_retries_go_to_on_fail_with_attempt_counts(self):
        def behaviour(batch, worker):
            raise TransientFault("always", site="test")

        failed = []
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.0, jitter=0.0)
        reports = PipelinedExecutor(_StubBase(behaviour)).run(
            _queue("a"), lambda _: None, shards=False, retry_policy=policy,
            on_fail=lambda requests, exc, counts: failed.append(
                ([r.request_id for r in requests], type(exc), counts)
            ),
        )
        assert reports == []
        assert failed == [(["a0"], TransientFault, {"a0": 2})]

    def test_non_retryable_error_fails_without_retry(self):
        calls = []

        def behaviour(batch, worker):
            calls.append(batch.batch_id)
            raise ShapeError("wrong shape")

        failed = []
        policy = RetryPolicy(max_attempts=5, backoff_seconds=0.0, jitter=0.0)
        PipelinedExecutor(_StubBase(behaviour)).run(
            _queue("a"), lambda _: None, shards=False, retry_policy=policy,
            on_fail=lambda requests, exc, counts: failed.append(counts),
        )
        assert len(calls) == 1
        assert failed == [{"a0": 1}]

    def test_worker_shard_fault_reruns_the_batch_serially(self):
        base = _StubBase()
        executor = PipelinedExecutor(base, num_workers=2)
        plan = FaultPlan(rules=(FaultRule(site=SITE_WORKER_SHARD, fires=(1,)),), seed=SEED)
        with fault_scope(plan):
            reports = executor.run(_queue("ab"), lambda _: None)
        degraded = [r for r in reports if r.degraded]
        assert len(degraded) == 1 and degraded[0].worker is None
        assert executor.serial_fallbacks == 1
        assert sorted(r.request_id for r in reports) == ["a0", "b1"]

    def test_serving_loop_waits_for_submissions_until_stopped(self):
        scheduler = BatchScheduler(max_batch_size=1)
        wakeup = threading.Condition()
        state = {"serving": True}
        completed = []
        executor = PipelinedExecutor(_StubBase(), num_workers=2)
        loop = threading.Thread(
            target=executor.run,
            args=(scheduler, completed.extend),
            kwargs={"serving": lambda: state["serving"], "wakeup": wakeup},
        )
        loop.start()
        try:
            time.sleep(0.1)  # idle: the loop must wait, not return
            assert loop.is_alive()
            with wakeup:
                scheduler.submit(
                    InferenceRequest(request_id="late", key=_linear_key("a"), payload=None)
                )
                wakeup.notify_all()
        finally:
            with wakeup:
                state["serving"] = False
                wakeup.notify_all()
            loop.join(timeout=30)
        assert not loop.is_alive()
        assert [r.request_id for r in completed] == ["late"]

    def test_a_failing_completion_callback_stops_the_loop(self):
        """An error escaping a callback is not lost on a shard thread: the
        loop forms nothing more and re-raises it, flushing or serving."""
        def on_complete(reports):
            raise RuntimeError("callback broke")

        scheduler = _queue("aab")
        with pytest.raises(RuntimeError, match="callback broke"):
            PipelinedExecutor(_StubBase(), num_workers=1).run(scheduler, on_complete)
        assert scheduler.pending_count() == 2

        scheduler = _queue("ab")
        with pytest.raises(RuntimeError, match="callback broke"):
            PipelinedExecutor(_StubBase(), num_workers=2).run(
                scheduler, on_complete, serving=lambda: True
            )
