"""Smoke test of the benchmark itself, at ``--quick`` scale.

Run explicitly: ``python -m pytest bench/ -q`` (tier-1's ``testpaths``
does not include it).
"""

from __future__ import annotations

import json
import re
import shutil

import pytest

from bench import ROOT, harness, report, run
from bench.trace import Tracer
from bench.workloads import QUICK, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_every_contract_name_is_printed_once_with_a_unit(capsys):
    contract = report.load_contract()
    seen: dict[tuple[str, str], str] = {}
    for trace in ("0", "1"):
        assert run.main(["--seed", "3", "--quick", "--seconds", "0.5", "--trace", trace]) == 0
    for line in capsys.readouterr().out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in WORKLOADS:
            workload, metric, value, unit = parts
            assert (workload, metric) not in seen, f"{workload} {metric} printed twice"
            float(value)
            seen[workload, metric] = unit
    metrics = contract["end_to_end"] + contract["per_layer"] + [report.FAILED_FRAC]
    assert {w["name"] for w in contract["workloads"]} == set(WORKLOADS)
    for workload in WORKLOADS:
        assert NAME.match(workload)
        for spec in metrics:
            assert NAME.match(spec["name"])
            assert seen.get((workload, spec["name"])) == spec["unit"]


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_the_last_line_is_the_result_the_driver_reads(capsys, trace, kind):
    argv = ["--workload", "words-write", "--seed", "3", "--seconds", "0.5", "--trace", trace]
    assert run.main(argv + ["--quick"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = report.load_contract()[kind]
    assert list(result["metrics"]) == [spec["name"] for spec in specs]
    for spec in specs:
        cell = result["metrics"][spec["name"]]
        assert set(cell) == {"value", "unit"} and cell["unit"] == spec["unit"]
        assert isinstance(cell["value"], float)


def _counts(seed: int) -> tuple[float, float, float]:
    result = harness.run_e2e(WORKLOADS["words-write"], seed, 0.3, QUICK, ROOT)
    assert result.correct, result.detail["notes"]
    m = result.metrics
    return m["compdists_per_op"], m["pa_per_op"], m["space_amp"]


def test_counts_repeat_exactly_for_a_seed_and_move_with_it():
    first = _counts(5)
    assert _counts(5) == first
    other = _counts(6)
    assert all(a != b for a, b in zip(first, other))


def test_a_wrong_answer_raises_failed_frac(monkeypatch):
    class Forgetful(harness.LinearScan):
        def range_query(self, query, radius):
            return super().range_query(query, radius) + ["no-such-word"]

    workload = WORKLOADS["words-range"]
    honest = harness.run_e2e(workload, 4, 0.3, QUICK, ROOT)
    assert honest.metrics["failed_frac"] == 0.0 and honest.detail["checked"] > 0
    monkeypatch.setattr(harness, "LinearScan", Forgetful)
    fooled = harness.run_e2e(workload, 4, 0.3, QUICK, ROOT)
    assert fooled.metrics["failed_frac"] > 0.0 and not fooled.correct


@pytest.mark.parametrize("name", ["words-knn", "words-write"])
def test_shims_leave_the_paper_counters_bit_identical(name):
    workload = WORKLOADS[name]
    corpus, metric = workload.corpus(QUICK)
    ops = workload.make_ops(9, corpus, metric, QUICK, 1.0)
    workdir = harness.make_workdir(ROOT, "smoke-shims")

    def counters(tracer):
        """Counters after the same 80 ops on a freshly set-up index."""
        deployment, _, _ = harness.set_up(workload, corpus, metric, workdir, 1)
        try:
            if tracer is not None:
                tracer.install(deployment)
            harness.run_window(
                deployment.targets(), ops, [0], 60.0, 80, False,
                workload.calib_ops, tracer,
            )
            if tracer is not None:
                tracer.uninstall()
                tree = deployment.tree
                assert "encode" not in vars(tree.curve)
                assert "read" not in vars(tree.raf)
                assert type(tree.distance.metric) is type(metric)
            return deployment.counters()
        finally:
            deployment.close()
            shutil.rmtree(deployment.directory, ignore_errors=True)

    try:
        plain = counters(None)
        tracer = Tracer()
        assert counters(tracer) == plain
        assert tracer.totals()["calls"]["distance:call"] == plain[0]
        assert counters(None) == plain
    finally:
        harness.remove_workdir(workdir)
