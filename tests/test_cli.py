"""Smoke tests for the demo CLI (python -m repro.cli)."""

import os
import re

import pytest

from repro.core.persist import load_tree
from repro.distance import EditDistance
from repro.net import serve_in_thread
from repro.service import QueryEngine
from tests.conftest import run_cli


@pytest.mark.slow
class TestCli:
    def test_info(self):
        result = run_cli("info", "--dataset", "words", "--size", "300")
        assert result.returncode == 0, result.stderr
        assert "intrinsic dim" in result.stdout

    def test_range(self):
        result = run_cli(
            "query", "--dataset", "words", "--size", "300", "--mode", "range",
            "--query", "defoliate", "--radius", "2",
        )
        assert result.returncode == 0, result.stderr
        assert "RQ(q, O, 2)" in result.stdout
        assert "spent" in result.stdout

    def test_knn(self):
        result = run_cli(
            "query", "--dataset", "color", "--size", "300", "--mode", "knn",
            "--k", "4",
        )
        assert result.returncode == 0, result.stderr
        assert "kNN(q, 4)" in result.stdout

    def test_join(self):
        result = run_cli(
            "join", "--dataset", "words", "--size", "300",
            "--epsilon-percent", "4",
        )
        assert result.returncode == 0, result.stderr
        assert "pairs" in result.stdout

    def test_compare(self):
        result = run_cli(
            "compare", "--dataset", "color", "--size", "300", "--k", "4"
        )
        assert result.returncode == 0, result.stderr
        for method in ("SPB-tree", "M-tree", "OmniR-tree", "M-Index"):
            assert method in result.stdout

    def test_query_complete(self):
        result = run_cli(
            "query", "--dataset", "words", "--size", "300",
            "--mode", "knn", "--k", "3",
        )
        assert result.returncode == 0, result.stderr
        assert "kNN(q, 3)" in result.stdout
        assert "status    : complete" in result.stdout
        assert "spent" in result.stdout

    def test_query_partial_on_budget(self):
        result = run_cli(
            "query", "--dataset", "words", "--size", "300",
            "--mode", "knn", "--k", "8", "--max-compdists", "10",
        )
        assert result.returncode == 0, result.stderr
        assert "PARTIAL" in result.stdout
        assert "compdists budget exceeded" in result.stdout

    def test_query_strict_exits_nonzero(self):
        result = run_cli(
            "query", "--dataset", "words", "--size", "300",
            "--mode", "range", "--radius", "3",
            "--max-compdists", "10", "--strict",
        )
        assert result.returncode == 1
        assert "query aborted (strict)" in result.stderr

    def test_serve(self):
        result = run_cli(
            "serve", "--dataset", "words", "--size", "300",
            "--num-queries", "9", "--workers", "2", "--queue-size", "4",
        )
        assert result.returncode == 0, result.stderr
        assert "served 9 operations" in result.stdout
        assert "failures  : 0" in result.stdout

    def test_serve_with_mutations(self):
        result = run_cli(
            "serve", "--dataset", "words", "--size", "300",
            "--num-queries", "6", "--mutations", "4", "--workers", "2",
            "--queue-size", "4",
        )
        assert result.returncode == 0, result.stderr
        assert "served 10 operations" in result.stdout
        assert "mutations : 4" in result.stdout
        assert "failures  : 0" in result.stdout


#: Where ``build`` puts an index's RAF page file: a tree directory's own,
#: or (``--shards 2``) the first shard's.
LAYOUTS = {
    "tree": ((), "raf.1.pages"),
    "cluster": (("--shards", "2"), "shard-0/raf.1.pages"),
}


@pytest.mark.slow
class TestCliVerifySalvage:
    """Satellite: verify/salvage must exit non-zero with a one-line
    stderr summary when the index — a tree or a cluster — is damaged."""

    def _build_index(self, tmp_path, layout):
        out = str(tmp_path / "idx")
        result = run_cli(
            "build", "--dataset", "words", "--size", "300", "--out", out,
            *LAYOUTS[layout][0],
        )
        assert result.returncode == 0, result.stderr
        return out

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_verify_ok(self, tmp_path, layout):
        out = self._build_index(tmp_path, layout)
        result = run_cli("verify", "--dir", out)
        assert result.returncode == 0, result.stderr
        summary = [line for line in result.stderr.splitlines() if line]
        assert len(summary) == 1
        assert summary[0].startswith("verify: OK — ")
        assert "buffer hit-rate" in summary[0]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_verify_detects_corruption(self, tmp_path, layout):
        out = self._build_index(tmp_path, layout)
        raf = tmp_path / "idx" / LAYOUTS[layout][1]
        data = bytearray(raf.read_bytes())
        data[600] ^= 0xFF  # one flipped byte in a stored object page
        raf.write_bytes(bytes(data))
        result = run_cli("verify", "--dir", out)
        assert result.returncode == 1
        summary = [line for line in result.stderr.splitlines() if line]
        assert len(summary) == 1
        assert summary[0].startswith("verify: FAILED — ")

    def test_salvage_failure_is_one_stderr_line(self, tmp_path):
        missing = str(tmp_path / "nope")
        result = run_cli("salvage", "--dir", missing, "--metric", "edit")
        assert result.returncode == 1
        summary = [line for line in result.stderr.splitlines() if line]
        assert len(summary) == 1
        assert summary[0].startswith("salvage: FAILED — ")


@pytest.mark.slow
class TestCliIncrementalWrites:
    """The write-path subcommands: insert, delete, log-stats, checkpoint."""

    def test_insert_delete_checkpoint_cycle(self, tmp_path):
        d = str(tmp_path / "idx")
        result = run_cli(
            "build", "--dataset", "words", "--size", "200", "--out", d
        )
        assert result.returncode == 0, result.stderr

        result = run_cli("insert", "--dir", d, "--object", "zzyzx")
        assert result.returncode == 0, result.stderr
        assert "inserted 'zzyzx'" in result.stdout
        assert "201 objects" in result.stdout

        result = run_cli("log-stats", "--dir", d)
        assert result.returncode == 0, result.stderr
        assert "1 inserts, 0 deletes" in result.stdout
        assert "generation 1" in result.stdout

        result = run_cli("delete", "--dir", d, "--object", "zzyzx")
        assert result.returncode == 0, result.stderr
        assert "200 objects" in result.stdout

        result = run_cli("checkpoint", "--dir", d)
        assert result.returncode == 0, result.stderr
        assert "folded 2 WAL records into generation 2" in result.stdout

        result = run_cli("log-stats", "--dir", d)
        assert "0 inserts, 0 deletes" in result.stdout
        assert "generation 2" in result.stdout

        # The folded index still audits clean.
        result = run_cli("verify", "--dir", d)
        assert result.returncode == 0, result.stderr

    def test_delete_missing_object_exits_nonzero(self, tmp_path):
        d = str(tmp_path / "idx")
        assert run_cli(
            "build", "--dataset", "words", "--size", "120", "--out", d
        ).returncode == 0
        result = run_cli("delete", "--dir", d, "--object", "nonexistentword")
        assert result.returncode == 1
        assert "not found" in result.stderr

    def test_log_stats_without_wal(self, tmp_path):
        d = str(tmp_path / "idx")
        assert run_cli(
            "build", "--dataset", "words", "--size", "120", "--out", d
        ).returncode == 0
        result = run_cli("log-stats", "--dir", d)
        assert result.returncode == 0, result.stderr
        assert "no write-ahead log" in result.stdout


@pytest.mark.slow
class TestCliTuning:
    """The tuner's two operator surfaces: ``serve --autotune``, and the
    ``tuning-events.jsonl`` tail ``shard-status`` prints."""

    def test_shard_status_tails_the_tuning_journal(self, tmp_path):
        d = str(tmp_path / "cluster")
        assert run_cli(
            "build", "--dataset", "words", "--size", "300",
            "--shards", "2", "--out", d,
        ).returncode == 0
        # A journal an older build wrote, with kinds this one no longer
        # emits (per-query traversal, policy, calibrated), still reads and
        # prints beside the pivot-drift kind it does emit.
        with open(os.path.join(d, "tuning-events.jsonl"), "w") as fh:
            fh.write(
                '{"v": 1, "ts": 7.4, "event": "pivot-drift", "detail": '
                '{"baseline": 0.9, "precision": 0.7, "drift": 0.2222}, '
                '"request_id": "r1"}\n'
                '{"v": 1, "ts": 7.5, "event": "traversal", "detail": '
                '{"traversal": "greedy", "k": 4, "bucket": "k<=8", '
                '"explored": true, "compdists": 31, "page_accesses": 6, '
                '"elapsed_ms": 0.4}}\n'
                '{"v": 1, "ts": 7.6, "event": "policy", "detail": '
                '{"bucket": "k<=8", "traversal": "incremental"}}\n'
                '{"v": 1, "ts": 7.7, "event": "calibrated", "detail": '
                '{"edc_scale": 1.1, "epa_scale": 0.9, "error_edc": 0.2, '
                '"error_epa": 0.1, "observations": 8}}\n'
            )

        status = run_cli("shard-status", "--dir", d, "--events", "0")
        assert status.returncode == 0, status.stderr
        assert "policy" not in status.stdout
        # --events 0 means no event tail, not the whole journal.
        assert "tuning events" not in status.stdout
        assert "  [" not in status.stdout

        status = run_cli("shard-status", "--dir", d, "--events", "3")
        assert status.returncode == 0, status.stderr
        assert "tuning events (last 3):" in status.stdout
        assert "pivot-drift" not in status.stdout
        assert "[7.5] traversal detail={'traversal': 'greedy'" in status.stdout
        assert "[7.6] policy detail={'bucket': 'k<=8'" in status.stdout
        assert "[7.7] calibrated detail={'edc_scale': 1.1" in status.stdout

    def test_serve_autotune(self):
        result = run_cli(
            "serve", "--dataset", "words", "--size", "300", "--shards", "2",
            "--autotune", "--tune-interval", "0.1", "--num-queries", "40",
        )
        assert result.returncode == 0, result.stderr
        assert "served 40 operations" in result.stdout
        assert "failures  : 0" in result.stdout
        tuner = [
            line for line in result.stdout.splitlines()
            if line.startswith("tuner     :")
        ]
        assert len(tuner) == 1
        assert "pivot checks" in tuner[0] and "pivot rebuilds" in tuner[0]
        assert "calibrations" not in tuner[0]
        assert "advised" not in tuner[0] and "policy" not in tuner[0]
        assert "buffer" not in tuner[0] and "rebalance" not in tuner[0]


@pytest.mark.slow
class TestCliWire:
    """``query --connect`` against a live server answers what ``query
    --dir`` answers on the directory the server was opened from."""

    def test_wire_answers_equal_the_directory_answers(self, tmp_path):
        d = str(tmp_path / "idx")
        built = run_cli(
            "build", "--dataset", "words", "--size", "300", "--out", d
        )
        assert built.returncode == 0, built.stderr
        engine = QueryEngine(
            load_tree(d, EditDistance()), workers=2, trace_queries=True
        ).start()
        handle = serve_in_thread(engine, "127.0.0.1", 0)
        try:
            wire = ["--connect", f"127.0.0.1:{handle.port}"]
            ask = ["--query", "slocheeated", "--radius", "2", "--k", "4"]
            for mode in ("range", "knn", "count"):
                local = run_cli("query", "--dir", d, "--mode", mode, *ask)
                remote = run_cli("query", *wire, "--mode", mode, *ask)
                assert local.returncode == remote.returncode == 0, remote.stderr
                # The answer is everything before the status line.
                answer = local.stdout.split("status    :")[0]
                assert answer and remote.stdout.split("status    :")[0] == answer
                assert "status    : complete" in remote.stdout

            traced = run_cli("query", *wire, "--mode", "knn", *ask, "--trace")
            assert traced.returncode == 0, traced.stderr
            assert "trace knn (complete)" in traced.stdout
            # Reconciled: the spans' sums are the root span's own totals.
            lines = traced.stdout.splitlines()
            (root,) = [line for line in lines if line.startswith("  knn ")]
            (attributed,) = [
                line for line in lines if line.startswith("  attributed:")
            ]
            cd, pa = re.findall(r"\d+", attributed)
            assert f"compdists={cd} " in root and f"pa={pa} " in root
        finally:
            handle.stop(2.0)
            engine.stop()
