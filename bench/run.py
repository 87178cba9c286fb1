"""The benchmark's one command.

    python3 bench/run.py --seed S [--workload W] [--trace 0|1] [--seconds T]
                         [--quick] [--out F] [--repeat N]
    python3 bench/run.py --compare A.json B.json

runs every workload (or one) and prints, per workload, one row per metric
— ``workload metric value unit`` — and then the result line: one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
(the default) is the end-to-end run; ``--trace 1`` is the separate traced
run that yields the per-layer metrics.  The driver of BENCHMARK.json calls
this with ``--workload W --seed N --seconds S --trace 0|1`` and reads the
last line.

A run of all workloads at full scale appends its row to
``bench/results/BENCH_e2e.json`` (``BENCH_layers.json`` with ``--trace 1``).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
# Run as a script, sys.path[0] is bench/ and its module names (trace, ...)
# would shadow the standard library's; import through the package instead.
sys.path = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
sys.path.insert(0, _ROOT)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of the op lists")
    parser.add_argument("--seconds", type=float, help="length of the timed window")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: make the traced run (per-layer metrics) instead of the end-to-end run",
    )
    parser.add_argument("--quick", action="store_true", help="smoke-test scale")
    parser.add_argument("--out", help="write this run's results to a JSON file")
    parser.add_argument("--repeat", type=int, help="run the set N times and check agreement")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    args = parser.parse_args(argv)
    if args.repeat and args.trace:
        parser.error("--repeat checks the end-to-end run; leave --trace 1 out")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print("bench: no src/repro next to bench/: nothing to measure", file=sys.stderr)
        return 2

    from bench import report
    from bench.harness import run_e2e
    from bench.layers import run_traced
    from bench.workloads import FULL, QUICK, WORKLOADS

    contract = report.load_contract()
    if args.compare:
        return report.compare(*args.compare, contract)
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    scale = QUICK if args.quick else FULL
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.quick else float(contract["run_seconds"])
    )
    full_run = not (args.workload or args.quick)
    names = [args.workload] if args.workload else list(WORKLOADS)
    specs = contract["per_layer"] if args.trace else contract["end_to_end"]

    sets, ladder, status = [], {}, 0
    for _ in range(args.repeat or 1):
        cells = {}
        for name in names:
            if args.trace:
                spans = os.path.join(report.RESULTS_DIR, "spans", f"{name}.json")
                result = run_traced(
                    WORKLOADS[name], args.seed, seconds, scale, _ROOT,
                    [spec["name"] for spec in specs],
                    spans_out=spans if full_run else None,
                )
                ladder.update(result.detail["ladder_rungs_ms"])
            else:
                result = run_e2e(WORKLOADS[name], args.seed, seconds, scale, _ROOT)
            report.print_result(result, specs)
            cells[name] = result.metrics
            status |= not result.correct
        sets.append(cells)
    medians, spreads = report.medians_and_spreads(sets)
    if args.repeat:
        status |= report.repeat_summary(sets, contract)
    row = report.trajectory_row(args.seed, seconds, medians, scale=scale.name)
    if args.trace:
        row.update(spans="bench/results/spans/", ladder_rungs_ms=ladder)
    if args.out:
        report.write_json(args.out, dict(row, spreads=spreads))
    if full_run:
        report.append_row(report.LAYERS_FILE if args.trace else report.E2E_FILE, row)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
