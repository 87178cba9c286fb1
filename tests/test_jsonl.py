"""``repro.obs.jsonl`` — the one appender, the one numbered-file creator
and the one reader under every record file the stack leaves behind.

Each bug here is one a crash or a second process used to cause: a
restart glued its first line onto a torn tail (hiding every later
record), a second process overwrote the first one's numbered files, and
mid-file damage was answered with a silent prefix for one file kind and
an error for the other.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.control import EventJournal, read_journal
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    SnapshotWriter,
    parse_text,
    read_flight,
    read_jsonl,
)
from repro.obs.trace import QueryTrace


class _Ctx:
    """A finished traced query's context."""

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self.compdists = 3
        self.page_accesses = 1
        self.epoch = None
        self.trace = QueryTrace("knn")
        self.trace.finish(self)


def _journal_run(directory, names):
    journal = EventJournal(path=os.path.join(directory, "events.jsonl"))
    for name in names:
        journal.record(name)
    journal.close()
    return [e["event"] for e in read_journal(journal.path)]


def _slow_run(directory, names):
    flight = FlightRecorder(directory, slow_ms=0.0)
    for name in names:
        flight.observe(name, elapsed=0.001)
    flight.close()
    return [e["kind"] for e in read_jsonl(os.path.join(directory, "slow.jsonl"))]


@pytest.mark.parametrize("run", [_journal_run, _slow_run], ids=["journal", "slow"])
def test_restart_after_a_torn_append_keeps_every_record(run, tmp_path):
    directory = str(tmp_path)
    assert run(directory, ["started", "promoted"]) == ["started", "promoted"]
    (name,) = os.listdir(directory)
    with open(os.path.join(directory, name), "a", encoding="utf-8") as fh:
        fh.write('{"event": "torn", "ts"')  # the process died mid-append
    after = run(directory, ["started", "rejoined", "stopped"])
    assert after == ["started", "promoted", "started", "rejoined", "stopped"]


def test_a_torn_tail_with_no_newline_at_all_is_cut_to_empty(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"event": "to' + "x" * 5000)  # longer than one read chunk
    assert _journal_run(str(tmp_path), ["started"]) == ["started"]


def test_two_recorders_never_overwrite_each_others_dumps(tmp_path):
    directory = str(tmp_path)
    paths = []
    for run in ("run-1", "run-2"):
        flight = FlightRecorder(directory)
        flight.observe("knn", _Ctx(run))
        paths.append(flight.trigger("manual", force=True))
        flight.close()
    assert [os.path.basename(p) for p in paths] == [
        "flight-0001-manual.jsonl",
        "flight-0002-manual.jsonl",
    ]
    for path, run in zip(paths, ("run-1", "run-2")):
        _, (entry,) = read_flight(path)
        assert entry["request_id"] == run


def test_two_snapshot_writers_continue_one_sequence(tmp_path):
    directory = str(tmp_path)
    for run in ("run-1", "run-2"):
        SnapshotWriter(directory, registry=MetricsRegistry()).write(event=run)
    names = sorted(os.listdir(directory))
    assert names == ["metrics-0001-run-1.prom", "metrics-0002-run-2.prom"]
    for name in names:
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            assert parse_text(fh.read()) == {}


def _damage_line_3(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) >= 4
    lines[2] = "garbage\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _dump(directory):
    flight = FlightRecorder(directory)
    for i in range(4):
        flight.observe("knn", _Ctx(f"r{i}"))
    return flight.trigger("manual", force=True)


def _slow_log(directory):
    flight = FlightRecorder(directory, slow_ms=0.0)
    for i in range(4):
        flight.observe("knn", _Ctx(f"r{i}"), elapsed=0.001)
    flight.close()
    return os.path.join(directory, "slow.jsonl")


@pytest.mark.parametrize("make", [_dump, _slow_log], ids=["dump", "slow"])
def test_trace_file_refuses_mid_file_damage_naming_the_line(
    make, tmp_path, capsys
):
    path = make(str(tmp_path))
    main(["trace", "--file", path])  # intact: renders, exits 0
    assert "request_id=r3" in capsys.readouterr().out
    _damage_line_3(path)
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--file", path])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err == f"trace: {path}:3: malformed JSONL line\n"

