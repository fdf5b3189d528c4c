"""The closed loop's accounting of completed, shed and failed requests."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from loadgen import closed_loop  # noqa: E402
from repro.errors import FleetUnavailable, OverloadedError, RequestFailed  # noqa: E402


class _Handle:
    """A request that has already finished, with a report or an error."""

    def __init__(self, outcome) -> None:
        self.outcome = outcome

    def add_done_callback(self, callback) -> None:
        callback(self)

    def result(self):
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


def _submit(item):
    kind, value = item
    if kind == "shed":
        raise OverloadedError("queue full")
    if kind == "unavailable":
        raise FleetUnavailable("no replica")
    if kind == "fails":
        return _Handle(RequestFailed("boom", request_id=value))
    return _Handle(value)


def test_submit_and_result_errors_are_counted_not_raised():
    items = [("ok", 1), ("shed", 0), ("unavailable", 0), ("fails", "req-3"),
             ("ok", 2), ("unavailable", 0), ("ok", 3)]
    episode = closed_loop(_submit, items, outstanding=2)
    assert episode.attempted == 7
    assert episode.shed == 1
    assert episode.failed == 3
    assert episode.timeouts == 0
    assert sorted(s.report for s in episode.samples) == [1, 2, 3]


def test_every_submission_refused():
    episode = closed_loop(_submit, [("unavailable", 0)] * 3, outstanding=2, burst=True)
    assert (episode.attempted, episode.failed, episode.samples) == (3, 3, [])


def test_untyped_submit_errors_propagate():
    def broken(item):
        raise KeyError(item)

    # A bug in submit() is not a failed request.
    with pytest.raises(KeyError):
        closed_loop(broken, [1], outstanding=1)
