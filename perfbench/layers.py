"""Per-layer metrics of a traced run, computed from the tracer's spans and counters.

Figures marked ``/req`` are divided by the requests the traced episodes
completed; spans and counters are taken from the serving windows only,
except engine builds and the offline phase (``engine_cache.build_ms``,
``primer.prepare_ms``, ``primer.install_ms``,
``primer.offline_bytes_per_build``), which count wherever the build ran --
inside a serving window on ``model-churn``, in setup elsewhere.
"""

from __future__ import annotations

from repro.protocols.primer import TABLE2_STEPS

from summary import he_operations_per_request, median
from tracing import HE_OPS

TRACKER_OPS = (
    "he_mul_plain", "he_add", "he_add_plain", "he_rotate",
    "encrypt", "decrypt", "ntt_forward", "ntt_inverse",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _covered_ns(intervals, windows) -> int:
    """Nanoseconds of ``windows`` covered by the union of ``intervals``."""
    covered = 0
    for win_start, win_end in windows:
        clipped = sorted(
            (max(start, win_start), min(end, win_end))
            for start, end in intervals
            if end > win_start and start < win_end
        )
        cursor = win_start
        for start, end in clipped:
            if end > cursor:
                covered += end - max(start, cursor)
                cursor = end
    return covered


def layer_metrics(tracer, workload, episodes, *, traced_rps, untraced_rps):
    """Every per-layer metric of the traced episodes, by name."""
    samples = [s for e in episodes for s in e.samples]
    completed = max(1, len(samples))
    serving = [s for s in tracer.spans if tracer.in_serving(s)]
    counters = tracer.serve_counters
    window_ns = sum(end - start for start, end in tracer.windows)
    by_name: dict[str, list] = {}
    for span in serving:
        by_name.setdefault(span.name, []).append(span)
    all_by_name: dict[str, list] = {}
    for span in tracer.spans:
        all_by_name.setdefault(span.name, []).append(span)

    def ms(spans) -> list[float]:
        return [(s.end - s.start) / 1e6 for s in spans]

    reports = [s.report for s in samples]
    queue_raw = [r.queue_seconds * 1e3 for r in reports]
    # The traced episodes served one window each, in order.
    queue = [
        (s.report.queue_seconds - tracer.build_seconds.get((window, s.report.request_id), 0.0))
        * 1e3
        for window, episode in enumerate(episodes)
        for s in episode.samples
    ]
    batches, batched = counters["scheduler.batches"]
    entries = len(by_name.get("engine_cache.hit", ())) + len(by_name.get("engine_cache.build", ()))
    hits = len(by_name.get("engine_cache.hit", ()))
    offline_bytes = sum(
        v[1] for k, v in tracer.counters.items() if k.startswith("channel.offline.")
    )
    prepares = len(all_by_name.get("primer.prepare", ()))
    m = {
        "frontdoor.submit_us": median(d * 1e3 for d in ms(by_name.get("frontdoor.submit", ()))),
        "frontdoor.queue_ms": median(queue),
        "frontdoor.queue_raw_ms": median(queue_raw),
        "frontdoor.retries": sum(r.attempts - 1 for r in reports),
        "frontdoor.shed": sum(e.shed for e in episodes),
        "scheduler.batches": batches,
        "scheduler.batch_size_mean": _ratio(batched, batches),
        "executor.execute_ms": median(ms(by_name.get("executor.execute", ()))),
        "executor.busy_frac": _ratio(
            sum(s.end - s.start for s in by_name.get("executor.execute", ())), window_ns
        ),
        "engine_cache.hits": hits,
        "engine_cache.cold_builds": sum(e.cache_delta.get("cold_builds", 0) for e in episodes),
        "engine_cache.evictions": sum(e.cache_delta.get("evictions", 0) for e in episodes),
        "engine_cache.hit_ratio": _ratio(hits, entries),
        "engine_cache.build_ms": median(ms(all_by_name.get("engine_cache.build", ()))),
        "primer.prepare_ms": median(ms(all_by_name.get("primer.prepare", ()))),
        "primer.install_ms": median(ms(all_by_name.get("primer.install", ()))),
        "primer.run_batch_ms": median(ms(by_name.get("primer.run_batch", ()))),
        "primer.offline_bytes_per_build": _ratio(offline_bytes, prepares),
    }

    closed = {step: [0.0, 0.0] for step in TABLE2_STEPS}
    for sample in samples:
        for step, (nbytes, rounds) in workload.closed_form(sample.item).items():
            closed[step][0] += nbytes
            closed[step][1] += rounds
    for step in TABLE2_STEPS:
        online_ms = sum(ms(by_name.get(f"step.{step}", ()))) / completed
        rounds, nbytes = counters[f"channel.online.{step}"]
        nbytes, rounds = nbytes / completed, rounds / completed
        closed_bytes, closed_rounds = (v / completed for v in closed[step])
        m[f"step.{step}.online_ms"] = online_ms
        m[f"step.{step}.online_bytes"] = nbytes
        m[f"step.{step}.online_rounds"] = rounds
        m[f"step.{step}.closed_form_bytes"] = closed_bytes
        m[f"step.{step}.closed_form_rounds"] = closed_rounds
        m[f"step.{step}.bytes_ratio"] = _ratio(nbytes, closed_bytes)
        m[f"step.{step}.rounds_ratio"] = _ratio(rounds, closed_rounds)

    for op in HE_OPS:
        calls, ns = counters[f"he.{op}"]
        m[f"he.{op}.calls"] = calls / completed
        m[f"he.{op}.ms"] = ns / 1e6 / completed
    for name, value in he_operations_per_request(reports, TRACKER_OPS).items():
        m[f"he.ops.{name}"] = value
    m["tracker.record_calls"] = counters["tracker.record"][0] / completed
    for kind in ("forward_batch", "inverse_batch"):
        calls, ns = counters[f"ntt.{kind}"]
        m[f"ntt.{kind}.calls"] = calls / completed
        m[f"ntt.{kind}.ms"] = ns / 1e6 / completed
    m["channel.messages"] = median(e.channel_messages for e in episodes)

    sends = by_name.get("net.send_frame", ())
    m["net.frames_sent"] = len(sends) / completed
    m["net.bytes_sent"] = counters["net.bytes_sent"][1] / completed
    m["net.send_us"] = median(d * 1e3 for d in ms(sends))
    m["net.frames_recv"] = counters["net.frames_recv"][0] / completed
    m["fleet.overhead_ms"] = median(
        ((s.end - s.start) - s.report.queue_seconds - s.report.latency_seconds) * 1e3
        for s in samples
    )
    m["fleet.conservation_gap"] = sum(e.conservation_gap for e in episodes)

    top_level = [(s.start, s.end) for s in serving if s.parent == -1]
    run_batch_ns = sum(s.end - s.start for s in by_name.get("primer.run_batch", ()))
    names_by_id = {s.id: s.name for s in serving}
    # Outermost step spans only: a step nested in another is already covered.
    step_ns = sum(
        s.end - s.start for s in serving
        if s.name.startswith("step.")
        and not names_by_id.get(s.parent, "").startswith("step.")
    )
    m["trace.rps_ratio"] = _ratio(traced_rps, untraced_rps)
    m["trace.coverage"] = _ratio(_covered_ns(top_level, tracer.windows), window_ns)
    m["trace.step_coverage"] = _ratio(step_ns, run_batch_ns)
    m["trace.spans"] = len(tracer.spans)
    return m

