"""``repro.control`` — the event journal and the loop contract, once.

:class:`~repro.supervisor.Supervisor` and :class:`~repro.tuning.Tuner`
are both a :class:`~repro.control.ControlLoop`; every lifecycle promise
(background ticks, idempotent ``start()``, a failing tick journalled and
survived, ``started`` / ``stopped`` in the journal, ``close()`` detaching
the index back-pointer) is asserted here against each of them, so the
two cannot drift apart again.  What a pass *does* stays in
``test_supervisor*.py`` and ``test_tuning.py``.
"""

from __future__ import annotations

import threading
import time
import types

import pytest

from repro import obs
from repro.cluster import ShardedIndex
from repro.control import ControlLoop, EventJournal, read_journal
from repro.obs.flight import FlightRecorder
from repro.obs.trace import QueryTrace
from repro.replication import ReplicatedIndex, replicate
from repro.supervisor import Supervisor
from repro.tuning import Tuner


class FakeClock:
    def __init__(self, now: float = 500.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


class TestEventJournal:
    def test_file_round_trip_and_tail(self, tmp_path):
        clock = FakeClock(100.0)
        path = str(tmp_path / "events.jsonl")
        journal = EventJournal(path=path, clock=clock)
        for i in range(257):
            clock.now += 1.0
            journal.record("tick", shard=i, detail={"n": i})
        journal.close()
        # The deque is bounded; the file holds everything.
        assert len(journal) == 256
        assert [e["shard"] for e in journal.tail(2)] == [255, 256]
        events = read_journal(path)
        assert len(events) == 257
        assert events[0]["ts"] == pytest.approx(101.0)
        assert events[-1]["detail"] == {"n": 256}
        assert read_journal(path, limit=2) == events[-2:]

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        journal = EventJournal(path=path, clock=FakeClock())
        journal.record("a")
        journal.record("b")
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "torn", "ts"')  # crash mid-append
        events = read_journal(path)
        assert [e["event"] for e in events] == ["a", "b"]
        assert read_journal(str(tmp_path / "missing.jsonl")) == []

    def test_memory_only_journal(self):
        journal = EventJournal(clock=FakeClock())
        journal.record("x", replica=7)
        assert journal.tail()[0]["replica"] == 7
        journal.close()

    @pytest.mark.parametrize("reader", ["tail", "read_journal", "flight"])
    def test_zero_means_no_entries(self, reader, tmp_path):
        """``[-0:]`` is the whole list; asking for 0 entries must give 0."""
        if reader == "flight":
            flight = FlightRecorder()
            for i in range(5):
                traced = types.SimpleNamespace(
                    request_id=f"r{i}", compdists=0, page_accesses=0,
                    trace=QueryTrace("knn"),
                )
                flight.observe("knn", traced)
            newest = flight.tail
        else:
            path = str(tmp_path / "events.jsonl")
            journal = EventJournal(path=path, clock=FakeClock())
            for i in range(5):
                journal.record("tick", shard=i)
            journal.close()
            if reader == "tail":
                newest = journal.tail
            else:

                def newest(n):
                    return read_journal(path, limit=n)

        assert newest(0) == []
        assert len(newest(2)) == 2
        assert len(newest(99)) == 5


@pytest.fixture(params=[Supervisor, Tuner], ids=["supervisor", "tuner"])
def loop(request, tmp_path, small_words, edit):
    """A fast-ticking loop of each kind over a small healthy index."""
    cluster = ShardedIndex.build(
        small_words[:120], edit, shards=2, num_pivots=3, seed=11
    )
    if request.param is Supervisor:
        directory = str(tmp_path / "cluster")
        cluster.save(directory)
        replicate(directory, edit, replicas=1)
        index = ReplicatedIndex.open(
            directory, edit, wal_fsync=False,
            heartbeat_timeout=4.0, clock=FakeClock(),
        )
        made = Supervisor(index, scrub_interval=None, tick_interval=0.01)
    else:
        index = cluster
        made = Tuner(index, tick_interval=0.01)
    try:
        yield made
    finally:
        made.close()
        index.close()


def fail_first_pass(loop: ControlLoop) -> None:
    """Make the loop's first pass raise; later passes run for real."""
    real_pass = loop._pass
    calls = {"n": 0}

    def flaky(now):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("boom")
        return real_pass(now)

    loop._pass = flaky


class TestLoopContract:
    def test_is_a_control_loop_attached_to_its_index(self, loop):
        assert isinstance(loop, ControlLoop)
        assert getattr(loop.index, loop.name) is loop
        assert not loop.running
        assert loop.status()["running"] is False

    def test_tick_feeds_the_tally_and_the_obs_counter(self, loop, obs_enabled):
        assert isinstance(loop.tick(), dict)
        loop.tick()
        assert loop.ticks == 2
        assert loop.status()["ticks"] == 2
        assert loop._bundle().ticks.value == 2

    def test_background_ticks_advance_and_stop(self, loop):
        loop.start()
        assert wait_until(lambda: loop.ticks >= 3)
        assert loop.running
        assert loop.status()["running"] is True
        loop.stop()
        assert not loop.running
        ticked = loop.ticks
        time.sleep(0.06)
        assert loop.ticks == ticked

    def test_start_twice_is_one_thread(self, loop):
        loop.start()
        thread = loop._thread
        loop.start()  # idempotent
        assert loop._thread is thread
        named = [
            t for t in threading.enumerate()
            if t.name == f"repro-{loop.name}" and t.is_alive()
        ]
        assert named == [thread]
        assert thread.daemon
        loop.stop()
        loop.stop()  # idempotent too
        assert not thread.is_alive()
        stops = [e for e in loop.events(50) if e["event"] == "stopped"]
        assert len(stops) == 1

    def test_failing_tick_is_journalled_and_the_next_one_runs(self, loop):
        fail_first_pass(loop)
        loop.start()
        assert wait_until(lambda: loop.ticks >= 3)
        assert loop.running  # the loop survived the failing tick
        loop.stop()
        errors = [e for e in loop.events(50) if e["event"] == "tick-error"]
        assert len(errors) == 1 and "boom" in errors[0]["detail"]

    def test_unwritable_journal_does_not_kill_the_loop(self, loop):
        fail_first_pass(loop)
        real_record = loop.journal.record

        def record(event, **fields):
            if event == "tick-error":
                raise OSError("disk full")
            return real_record(event, **fields)

        loop.journal.record = record
        loop.start()
        assert wait_until(lambda: loop.ticks >= 3)
        assert loop.running
        loop.stop()

    def test_started_and_stopped_are_journalled(self, loop):
        loop.start()
        loop.stop()
        events = loop.events(50)
        kinds = [e["event"] for e in events]
        assert kinds.index("started") < kinds.index("stopped")
        started = events[kinds.index("started")]
        assert started["v"] == 1
        assert started["detail"] == {"tick_interval": 0.01}

    def test_close_detaches_and_later_records_do_not_raise(self, loop):
        index = loop.index
        loop.start()
        loop.close()
        assert not loop.running
        assert getattr(index, loop.name) is None
        loop.journal.record("late")  # memory-only after close, never raises
        assert loop.events(1)[0]["event"] == "late"
        loop.close()  # idempotent

    def test_close_leaves_a_successor_attached(self, loop):
        successor = object()
        setattr(loop.index, loop.name, successor)
        loop.close()
        assert getattr(loop.index, loop.name) is successor
        setattr(loop.index, loop.name, None)

    def test_context_manager_closes(self, loop):
        with loop as entered:
            assert entered is loop
            loop.start()
        assert not loop.running
        assert getattr(loop.index, loop.name) is None
