"""``benchmarks/series.py`` — the JSON series the standalone benchmark
scripts append their records to."""

from benchmarks.series import append_series


def test_append_series_accumulates(tmp_path):
    path = str(tmp_path / "BENCH_series.json")
    append_series(path, {"completed": 1}, meta={"mode": "test"})
    doc = append_series(path, {"completed": 2})
    assert len(doc["series"]) == 2
    assert doc["series"][0]["mode"] == "test"
    assert all("ts" in entry for entry in doc["series"])
