"""Metric arithmetic of the benchmark, kept free of any serving import.

Every function here takes plain numbers or report-like objects (anything
with the :class:`repro.runtime.RequestReport` attributes it reads), so the
benchmark's own tests can drive it with synthetic reports.
"""

from __future__ import annotations

import statistics

#: a tail percentile needs at least this many samples strictly beyond it
TAIL_SAMPLES_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with >=10 samples beyond it.

    With ``n`` samples sorted ascending, the sample at index ``n - 11`` has
    exactly ten samples above it, so it sits at percentile
    ``100 * (n - 10) / n``.  Fewer than eleven samples have no such
    percentile; that is an error of the caller's run length.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        raise ValueError(
            f"{n} samples: a tail percentile needs more than "
            f"{TAIL_SAMPLES_BEYOND}"
        )
    index = n - TAIL_SAMPLES_BEYOND - 1
    return 100.0 * (index + 1) / n, float(ordered[index])


def per_request_share(report, value: float) -> float:
    """One report's share of a figure that may be joint for its batch.

    A ``shared_slot_batch`` report carries the joint bytes, rounds and HE
    operations of every request that shared its ciphertext slots
    (``batch_size`` of them), so each such report contributes
    ``1 / batch_size`` of the figure and the batch is counted once.
    """
    if report.shared_slot_batch:
        return value / max(1, report.batch_size)
    return float(value)


def online_cost_per_request(reports) -> tuple[float, float]:
    """``(online bytes, online rounds)`` per completed request, batches counted once."""
    if not reports:
        return 0.0, 0.0
    total_bytes = sum(per_request_share(r, r.online_bytes) for r in reports)
    total_rounds = sum(per_request_share(r, r.online_rounds) for r in reports)
    return total_bytes / len(reports), total_rounds / len(reports)


def he_operations_per_request(reports, names) -> dict[str, float]:
    """Tracker operation counts per completed request, batches counted once."""
    totals = dict.fromkeys(names, 0.0)
    for report in reports:
        for name in names:
            totals[name] += per_request_share(report, report.he_operations.get(name, 0))
    count = max(1, len(reports))
    return {name: total / count for name, total in totals.items()}


def late_over_early(start: float, completions) -> float:
    """Throughput over the later half of completions ÷ over the earlier half.

    ``completions`` are the completion timestamps of one episode and
    ``start`` the moment its first request was submitted.  The earlier
    half runs from ``start`` to the middle completion, the later half from
    there to the last one; 1.0 means the episode served at a steady rate.
    """
    times = sorted(completions)
    n = len(times)
    if n < 2:
        raise ValueError("late_over_early needs at least two completions")
    half = n // 2
    early_seconds = times[half - 1] - start
    late_seconds = times[-1] - times[half - 1]
    if early_seconds <= 0 or late_seconds <= 0:
        raise ValueError("completions must be strictly after the start and spread in time")
    return ((n - half) / late_seconds) / (half / early_seconds)


def completed_fraction(attempted: int, failed: int, shed: int, timeouts: int) -> float:
    """Share of attempted requests that completed: typed failures, shed and timeouts miss."""
    if attempted <= 0:
        raise ValueError("no request was attempted")
    return (attempted - failed - shed - timeouts) / attempted

