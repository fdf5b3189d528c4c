"""BENCHMARK.json is well formed and names the workloads the benchmark runs.

Metric names are read from BENCHMARK.json by ``run.py``, which refuses to
print a result whose computed metrics differ from the declared ones.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_metric_names_are_valid_and_unique():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert len(SPEC["per_layer"]) <= 128


def test_bounds():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_episodes_leave_enough_samples_for_a_tail():
    # latency_tail_ms needs more than ten samples from a single episode.
    assert all(w.requests > 10 for w in WORKLOADS.values())
