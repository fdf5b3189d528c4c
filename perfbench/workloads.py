"""The four serving workloads: stacks, generated inputs and correctness checks.

Every workload drives the public serving API -- ``AsyncServingRuntime`` or
``FleetRouter`` -- and hands it only token ids or matrices generated from
the run's seed.  ``setup()`` brings a stack from nothing to its start state
(engines built, weights registered, replica spawned, keys pinned); the
benchmark times it as ``setup_s``.  An *episode* serves exactly
``requests`` requests on one fresh stack, so every episode serves the same
history (see NOTES.md, "Uptime decay").
"""

from __future__ import annotations

import shutil
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.he import ExactBFVBackend, rns_serving_parameters
from repro.nn import BERT_BASE, TransformerEncoder, scaled_config
from repro.protocols.accounting import count_operations
from repro.protocols.formats import protocol_he_parameters
from repro.protocols.planstore import PlanStore
from repro.protocols.primer import (
    PRIMER_F,
    PRIMER_FPC,
    TABLE2_STEPS,
    PrivateTransformerInference,
)
from repro.runtime import AsyncServingRuntime, FleetRouter, spawn_replica_process


def _inference_model(seed: int, *, embed_dim, num_heads, seq_len, vocab_size, num_blocks):
    config = scaled_config(
        BERT_BASE, embed_dim=embed_dim, num_heads=num_heads, seq_len=seq_len,
        vocab_size=vocab_size, num_blocks=num_blocks,
    )
    return TransformerEncoder.initialise(config, seed=seed)


class _DoorStack:
    """An in-process ``AsyncServingRuntime`` as a benchmark stack."""

    def __init__(self, door: AsyncServingRuntime) -> None:
        self.door = door

    def submit(self, item):
        if item[0] == "linear":
            return self.door.submit_linear(item[1], item[2])
        model, variant, tokens = item
        return self.door.submit(model, tokens, variant=variant)

    def engine_cache(self):
        return self.door.runtime.engine_cache

    def channel_messages(self) -> int:
        """Messages held by the serving engines' channels (and the linear path's)."""
        cache = self.engine_cache()
        held = sum(len(cache.entry(key).engine.channel.messages) for key in cache.cached_keys())
        return held + len(self.door.runtime.executor.linear.channel.messages)

    def conservation_gap(self) -> int:
        return 0

    def close(self) -> None:
        self.door.close()


class _FleetStack:
    """A ``FleetRouter`` over one forked replica as a benchmark stack."""

    def __init__(self, replica, router: FleetRouter) -> None:
        self.replica = replica
        self.router = router

    def submit(self, item):
        model, variant, tokens = item
        return self.router.submit(model, tokens, variant=variant)

    def engine_cache(self):
        return None  # lives in the replica process

    def channel_messages(self) -> int:
        return 0  # the serving engines live in the replica process

    def conservation_gap(self) -> int:
        return self.router.conservation()["gap"]

    def close(self) -> None:
        try:
            self.router.close()
        finally:
            self.replica.terminate()
            self.replica.join(timeout=60)
            if self.replica.alive:
                self.replica.kill()
                self.replica.join(timeout=10)


class Workload:
    """Base: a workload generates items, builds stacks and checks outputs."""

    name = ""
    #: completed requests per episode (the run length unit)
    requests = 0
    #: set-up plus one episode on a 2-vCPU x86 host when the benchmark was
    #: defined; converts ``--seconds`` into a whole number of episodes
    episode_seconds = 1.0
    outstanding = 1
    #: set-ups timed per run at least; extra ones follow the episodes.  A
    #: set-up of about 0.1 s varies by a third from one to the next, so
    #: workloads with one that cheap time many.
    min_setups = 3
    #: refill only once every in-flight request completed
    burst = False
    #: whether peak memory includes reaped child processes (replicas)
    child_processes = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def prime(self) -> None:
        """Untimed one-off preparation shared by every setup of a run."""

    def items(self, episode: int) -> list:
        raise NotImplementedError

    def setup(self, tracer=None):
        raise NotImplementedError

    def check(self, samples) -> list[str]:
        raise NotImplementedError

    def closed_form(self, item) -> dict[str, tuple[float, float]]:
        """Closed-form online ``(bytes, rounds)`` per Table II step for one item."""
        return {}

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class _InferenceWorkload(Workload):
    """Shared item generation and reference check of full-inference workloads."""

    def __init__(self, seed: int, workdir: Path, models: dict[str, TransformerEncoder]) -> None:
        super().__init__(seed, workdir)
        self.models = models
        self._closed_forms: dict = {}

    def _tokens(self, rng, model: str) -> np.ndarray:
        config = self.models[model].config
        return rng.integers(0, config.vocab_size, size=config.seq_len)

    def check(self, samples) -> list[str]:
        """Re-run one seeded request per (model, variant) on a fresh engine.

        The fresh engine is built outside any timed window with its own
        keys and offline phase; its logits must be bit-identical to the
        served ones.
        """
        by_key: dict[tuple[str, str], list] = {}
        for sample in samples:
            model, variant, _ = sample.item
            by_key.setdefault((model, variant.name), []).append(sample)
        rng = self.rng(10**6)
        errors = []
        for (model, _), group in sorted(by_key.items()):
            sample = group[int(rng.integers(len(group)))]
            _, variant, tokens = sample.item
            engine = PrivateTransformerInference(self.models[model], variant)
            engine.offline()
            expected = engine.run(tokens).logits
            if not np.array_equal(sample.report.result, expected):
                errors.append(
                    f"{self.name}: logits of {model}/{variant.name} differ from a "
                    "fresh engine's"
                )
        if not by_key:
            errors.append(f"{self.name}: no request completed")
        return errors

    def closed_form(self, item) -> dict[str, tuple[float, float]]:
        model, variant, _ = item
        key = (model, variant.name)
        if key not in self._closed_forms:
            params = protocol_he_parameters()
            account = count_operations(
                self.models[model].config, variant,
                slots=params.slot_count, ciphertext_bytes=params.ciphertext_bytes,
                limbs=params.limb_count,
            )
            self._closed_forms[key] = {
                step: (account.steps[step].online.bytes_sent, account.steps[step].online.rounds)
                for step in TABLE2_STEPS
            }
        return self._closed_forms[key]


class WarmInfer(_InferenceWorkload):
    name = "warm-infer"
    requests = 24
    episode_seconds = 19.0
    outstanding = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, {"bert-d64": _inference_model(
            3, embed_dim=64, num_heads=4, seq_len=30, vocab_size=64, num_blocks=2
        )})

    def items(self, episode):
        rng = self.rng(episode)
        return [("bert-d64", PRIMER_FPC, self._tokens(rng, "bert-d64"))
                for _ in range(self.requests)]

    def setup(self, tracer=None):
        door = AsyncServingRuntime(self.models, max_batch_size=4)
        door.runtime.engine_for("bert-d64", PRIMER_FPC)
        return _DoorStack(door)


class ModelChurn(_InferenceWorkload):
    name = "model-churn"
    requests = 16
    episode_seconds = 8.5
    outstanding = 4
    burst = True
    KEYS = (("churn-a", PRIMER_FPC), ("churn-a", PRIMER_F),
            ("churn-b", PRIMER_FPC), ("churn-b", PRIMER_F))

    def __init__(self, seed, workdir):
        shape = dict(embed_dim=32, num_heads=4, seq_len=30, vocab_size=64, num_blocks=2)
        super().__init__(seed, workdir, {
            "churn-a": _inference_model(3, **shape),
            "churn-b": _inference_model(4, **shape),
        })

    def items(self, episode):
        # The setup fills the cache with the first two keys; the cycle
        # starts at the third, so every burst misses.
        rng = self.rng(episode)
        items = []
        for burst in range(self.requests // self.outstanding):
            model, variant = self.KEYS[(burst + 2) % len(self.KEYS)]
            items.extend(
                (model, variant, self._tokens(rng, model)) for _ in range(self.outstanding)
            )
        return items

    def setup(self, tracer=None):
        door = AsyncServingRuntime(self.models, max_batch_size=4, engine_cache_entries=2)
        for model, variant in self.KEYS[:2]:
            door.runtime.engine_for(model, variant)
        return _DoorStack(door)


class ExactLinear(Workload):
    name = "exact-linear"
    requests = 160
    episode_seconds = 2.5
    min_setups = 15
    # Twice max_batch_size: a full batch is always queued when one finishes.
    outstanding = 16
    ROWS, FEATURES, OUTPUTS = 8, 16, 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.weights = np.random.default_rng(7).integers(0, 7, size=(self.FEATURES, self.OUTPUTS))
        self.params = rns_serving_parameters(4096, 6)

    def _matrix(self, rng) -> np.ndarray:
        return rng.integers(0, 100, size=(self.ROWS, self.FEATURES))

    def items(self, episode):
        rng = self.rng(episode)
        return [("linear", "proj", self._matrix(rng)) for _ in range(self.requests)]

    def setup(self, tracer=None):
        backend = ExactBFVBackend(self.params, seed=5)
        door = AsyncServingRuntime(backend_factory=lambda: backend, max_batch_size=8)
        door.runtime.register_weights("proj", self.weights)
        # One request brings the kernel tier, NTT tables and diagonal plans
        # to their warm state; every episode serves the same one first.
        warm = np.random.default_rng(99).integers(0, 100, size=(self.ROWS, self.FEATURES))
        door.submit_linear("proj", warm).result(timeout=120)
        return _DoorStack(door)

    def check(self, samples) -> list[str]:
        t = self.params.plaintext_modulus
        wrong = sum(
            not np.array_equal(s.report.result, (s.item[2] @ self.weights) % t)
            for s in samples
        )
        errors = [f"{self.name}: {wrong} results differ from (X @ W) mod t"] if wrong else []
        if not samples:
            errors.append(f"{self.name}: no request completed")
        return errors


class FleetTiny(_InferenceWorkload):
    name = "fleet-tiny"
    requests = 800
    episode_seconds = 6.5
    min_setups = 15
    # Twice the replica's default max_batch_size of 8 per model: a full
    # batch of each model is always queued when one finishes.
    outstanding = 32
    child_processes = True

    def __init__(self, seed, workdir):
        shape = dict(embed_dim=16, num_heads=2, seq_len=6, vocab_size=40, num_blocks=1)
        super().__init__(seed, workdir, {
            "tiny-a": _inference_model(3, **shape),
            "tiny-b": _inference_model(7, **shape),
        })
        self.plan_dir = workdir / "plans"
        self._spawned = 0

    def items(self, episode):
        rng = self.rng(episode)
        names = sorted(self.models)
        return [
            (names[i % 2], PRIMER_FPC, self._tokens(rng, names[i % 2]))
            for i in range(self.requests)
        ]

    def _stack(self, tracer=None) -> _FleetStack:
        # The replica is forked; the tracer's wrappers stay out of it.
        with tracer.paused() if tracer is not None else nullcontext():
            replica = spawn_replica_process(
                self.models, name=f"replica-{self._spawned}",
                plan_store=PlanStore(self.plan_dir),
            )
        self._spawned += 1
        try:
            router = FleetRouter([replica])
            pin = np.random.default_rng(98)
            for model in sorted(self.models):
                router.submit(model, self._tokens(pin, model)).result(timeout=120)
        except BaseException:
            replica.kill()
            replica.join(timeout=10)
            raise
        return _FleetStack(replica, router)

    def prime(self) -> None:
        """Fill the plan store so every timed setup warm-starts alike."""
        self._stack().close()

    def setup(self, tracer=None):
        return self._stack(tracer)


WORKLOADS = {w.name: w for w in (WarmInfer, ModelChurn, ExactLinear, FleetTiny)}
