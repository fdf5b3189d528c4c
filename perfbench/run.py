"""End-to-end serving benchmark: submit -> result latency and throughput.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload warm-infer --seed 1 --seconds 25 --trace 0

Workloads: ``warm-infer``, ``model-churn``, ``exact-linear``, ``fleet-tiny``
(see NOTES.md for what each one stresses and why).  A run builds a fresh
stack per *episode* and serves a fixed number of requests closed-loop on
it; ``--seconds`` becomes a whole number of episodes through each
workload's nominal episode length.  With ``--trace 0`` the last line of
standard output is one JSON object carrying every end-to-end metric; with
``--trace 1`` it carries every per-layer metric from the traced episodes,
which alternate with untraced ones so the tracing overhead is measured in
the same run.  Any failed correctness check
prints ``"correct": false`` and exits 1; a checkout without the serving
stack's source, or an active fault injector, exits non-zero before running.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

# Neither module imports the serving stack, which must come from this checkout.
from loadgen import closed_loop
from summary import (
    completed_fraction, late_over_early, median, online_cost_per_request, tail,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _prepare_environment() -> Path:
    """Point temp files into the checkout and import the stack from its ``src``."""
    if os.environ.get("REPRO_FAULT_SEED"):
        raise SystemExit("refusing to benchmark with REPRO_FAULT_SEED set")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no serving stack source at {src}")
    workspace = ROOT / ".perfbench"
    (workspace / "tmp").mkdir(parents=True, exist_ok=True)
    # The compiled kernel tier caches its shared library under the temp dir.
    os.environ["TMPDIR"] = str(workspace / "tmp")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")
    from repro.runtime import active_injector

    if active_injector() is not None:
        raise SystemExit("refusing to benchmark with a fault injector active")
    return workspace


def _declared_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json declares in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _peak_rss_mb(with_children: bool) -> float:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024


def _serve_episode(workload, index: int, tracer):
    """Build one stack, serve one episode on it, tear it down."""
    start = time.perf_counter()
    stack = workload.setup(tracer)
    setup_seconds = time.perf_counter() - start
    try:
        cache = stack.engine_cache()
        before = dataclasses.asdict(cache.stats()) if cache is not None else {}
        if tracer is not None:
            tracer.begin_serving()
        episode = closed_loop(
            stack.submit, workload.items(index), outstanding=workload.outstanding,
            burst=workload.burst,
        )
        if tracer is not None:
            tracer.end_serving()
        if cache is not None:
            after = dataclasses.asdict(cache.stats())
            episode.cache_delta = {key: after[key] - before[key] for key in after}
        episode.channel_messages = stack.channel_messages()
        episode.conservation_gap = stack.conservation_gap()
    finally:
        _teardown(stack)
    return setup_seconds, episode


def _teardown(stack) -> None:
    """Close a stack and collect its reference cycles before the next one.

    Engines hold reference cycles, so without a collection here an old
    stack's engines can still be resident while the next stack builds its
    own, depending on when the collector happens to run: peak memory then
    read 144 or 210 MB on the same ``model-churn`` run.
    """
    stack.close()
    gc.collect()


def _end_to_end(episodes, setups, peak_mb):
    samples = [s for e in episodes for s in e.samples]
    latencies = [(s.end - s.start) * 1e3 for s in samples]
    percentile, tail_ms = tail(latencies)
    per_req_bytes, per_req_rounds = online_cost_per_request([s.report for s in samples])
    values = {
        "setup_s": median(setups),
        "throughput_rps": len(samples) / sum(e.wall_seconds for e in episodes),
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail_ms,
        "completed_frac": completed_fraction(
            sum(e.attempted for e in episodes), sum(e.failed for e in episodes),
            sum(e.shed for e in episodes), sum(e.timeouts for e in episodes),
        ),
        "online_bytes_per_req": per_req_bytes,
        "online_rounds_per_req": per_req_rounds,
        "peak_rss_mb": peak_mb,
        "late_over_early": median(
            late_over_early(e.started, [s.end for s in e.samples]) for e in episodes
        ),
    }
    notes = {
        "latency_tail_percentile": round(percentile, 2),
        "latency_samples": len(latencies),
        "setup_samples_s": [round(s, 4) for s in setups],
    }
    return values, notes


def run(workload, seconds: float, trace: bool, workspace: Path):
    from layers import layer_metrics
    from tracing import Tracer

    workload.prime()
    tracer = Tracer() if trace else None
    setups, plain, traced = [], [], []
    # A whole number of episodes, so every run of a workload -- on any
    # commit -- serves the same requests and pools the same sample count.
    count = max(1, round(seconds / workload.episode_seconds))
    for index in range(max(2, count) if trace else count):
        tracing = trace and index % 2 == 1
        if tracing:
            tracer.install()
        try:
            setup_seconds, episode = _serve_episode(
                workload, index, tracer if tracing else None
            )
        finally:
            if tracing:
                tracer.uninstall()
        (traced if tracing else plain).append(episode)
        if not tracing:
            setups.append(setup_seconds)
    peak_mb = _peak_rss_mb(workload.child_processes)
    episodes = plain + traced
    if not trace:
        while len(setups) < workload.min_setups:
            start = time.perf_counter()
            stack = workload.setup()
            setups.append(time.perf_counter() - start)
            _teardown(stack)

    samples = [s for e in episodes for s in e.samples]
    errors = workload.check(samples)
    gap = sum(e.conservation_gap for e in episodes)
    if gap:
        errors.append(f"{workload.name}: conservation gap {gap} (requests lost or doubled)")
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.failed + e.shed + e.timeouts for e in episodes)

    from repro.he import kernels

    notes = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "kernel_tier": kernels.active_tier_name(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "episodes": len(episodes),
        "requests_per_episode": workload.requests,
        "outstanding": workload.outstanding,
        "errors": errors,
    }
    if trace:
        def rps(group):
            return sum(len(e.samples) for e in group) / sum(e.wall_seconds for e in group)

        values = layer_metrics(
            tracer, workload, traced, traced_rps=rps(traced), untraced_rps=rps(plain)
        )
        spans_path = workspace / f"spans-{workload.name}-seed{workload.seed}.jsonl"
        tracer.write_spans(spans_path)
        notes["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values, extra = _end_to_end(plain, setups, peak_mb)
        notes.update(extra)
    units = _declared_units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics computed but not in BENCHMARK.json: {sorted(set(values) - set(units))}; "
            f"declared but not computed: {sorted(set(units) - set(values))}"
        )
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    return notes, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workspace = _prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, workspace / f"{args.workload}-{os.getpid()}")
    try:
        notes, result = run(workload, args.seconds, bool(args.trace), workspace)
    finally:
        workload.cleanup()
    for name, metric in result["metrics"].items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"notes": notes}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
