"""Printing, trajectory files, ``--compare`` and ``--repeat``.

The benchmark's contract — metric names, units, directions and regression
bounds — is read from ``BENCHMARK.json``; nothing here repeats it, except
``failed_frac``, which the contract carries as its ``failed`` count (a
metric that is 0 on a healthy commit cannot have a relative bound).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from typing import Any, Optional

from bench import ROOT

RESULTS_DIR = os.path.join(ROOT, "bench", "results")
E2E_FILE = os.path.join(RESULTS_DIR, "BENCH_e2e.json")
LAYERS_FILE = os.path.join(RESULTS_DIR, "BENCH_layers.json")

#: failed_frac: lower is better and any rise at all is a regression.
FAILED_FRAC = {"name": "failed_frac", "unit": "ratio", "better": "lower", "bound": 0.0}


#: Runs of one seed see the same ops, so their counts are held tighter than
#: the contract's bounds, which must also cover the draw of another seed:
#: read at the count cut they repeat exactly with one client; with two,
#: how the clients' ops interleave moves them a little (six runs of one
#: seed: compdists within 1.3 %, PA 0.3 %, space 0.01 %).
TWO_CLIENT_COUNT_BOUNDS = {"compdists_per_op": 0.02, "pa_per_op": 0.02, "space_amp": 0.01}


def same_seed_spec(spec: dict, workload: str) -> dict:
    """``spec`` with the bound that holds between two runs of one seed."""
    if spec["name"] not in TWO_CLIENT_COUNT_BOUNDS:
        return spec
    exact = workload != "cluster-net"
    return dict(spec, bound=0.0 if exact else TWO_CLIENT_COUNT_BOUNDS[spec["name"]])


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def e2e_specs(contract: dict) -> list[dict]:
    """The end-to-end metrics a human run reports: the contract's + failed_frac."""
    return list(contract["end_to_end"]) + [FAILED_FRAC]


def print_result(result: Any, specs: list[dict]) -> None:
    """One run of one workload: a ``workload metric value unit`` row per
    metric in contract order, the notes, then the result line the driver
    reads — ``specs`` are the contract's metrics of this kind of run."""
    name, metrics = result.workload, result.metrics
    rows = [(spec["name"], metrics[spec["name"]], spec["unit"]) for spec in specs]
    if FAILED_FRAC["name"] in metrics:  # the end-to-end run
        rows.append((FAILED_FRAC["name"], metrics[FAILED_FRAC["name"]], FAILED_FRAC["unit"]))
        rows.append(("ops", result.attempted, "count"))
    for metric, value, unit in rows:
        print(f"{name:<12} {metric:<38} {value:>14.6g} {unit}")
    for note in result.detail["notes"]:
        print(f"note: {note}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
            for spec in specs
        },
    }), flush=True)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def append_row(path: str, row: dict) -> None:
    """Append ``row`` to the trajectory at ``path`` (tmp + rename)."""
    doc: dict[str, Any] = {"rows": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["rows"].append(row)
    write_json(path, doc)


def write_json(path: str, doc: Any) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def trajectory_row(seed: int, seconds: float, cells: dict[str, dict], **extra: Any) -> dict:
    return {
        "commit": git_commit(), "seed": seed, "seconds": seconds,
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": cells, **extra,
    }


# ----------------------------------------------------------------- compare


def worse_by(spec: dict, base: float, other: float) -> Optional[float]:
    """By what share of ``base`` is ``other`` worse (negative = better);
    None when the base is 0 and a share cannot be formed."""
    if base == 0:
        return None
    delta = (other - base) / abs(base)
    return delta if spec["better"] == "lower" else -delta


def verdict(spec: dict, base: float, other: float, spread: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one cell.

    ``spread`` is the run-to-run spread of the cell as a share of its
    median (0 when the files hold single runs): inside a spread wider
    than the bound a difference cannot be called either way.
    """
    if spec["bound"] == 0.0:  # failed_frac, and counts that repeat exactly
        return "ok" if other <= base else "worse"
    share = worse_by(spec, base, other)
    if share is None:
        return "ok" if other == base else "unresolved"
    if spread > spec["bound"]:
        return "unresolved"
    return "worse" if share > spec["bound"] else "ok"


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """Print one row per (metric, workload); exit status 1 if any is worse."""
    with open(path_a, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        doc_b = json.load(fh)
    a, b = doc_a["workloads"], doc_b["workloads"]
    same_seed = doc_a["seed"] == doc_b["seed"]
    status = 0
    print(f"{'workload':<12} {'metric':<18} {'A':>12} {'B':>12} {'B/A':>8} "
          f"{'bound':>6}  verdict")
    for contract_spec in e2e_specs(contract):
        for workload in a:
            if workload not in b:
                continue
            spec = same_seed_spec(contract_spec, workload) if same_seed else contract_spec
            va, vb = a[workload][spec["name"]], b[workload][spec["name"]]
            ratio = f"{vb / va:8.3f}" if va else "     n/a"
            spread = max(
                doc.get("spreads", {}).get(workload, {}).get(spec["name"], 0.0)
                for doc in (doc_a, doc_b)
            )
            word = verdict(spec, va, vb, spread)
            status |= word == "worse"
            print(f"{workload:<12} {spec['name']:<18} {va:>12.5g} {vb:>12.5g} "
                  f"{ratio} {spec['bound']:>6.2f}  {word}  (base A={va:.5g})")
    return status


def cell_quartiles(sets: list[dict[str, dict]], workload: str, metric: str) -> tuple:
    values = [cells[workload][metric] for cells in sets]
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def medians_and_spreads(sets: list[dict[str, dict]]) -> tuple[dict, dict]:
    """Per cell: the median over the sets, and the quartile distance as a
    share of it — what ``--out`` stores after ``--repeat``."""
    medians: dict[str, dict] = {}
    spreads: dict[str, dict] = {}
    for workload, cells in sets[0].items():
        for metric in cells:
            q1, med, q3 = cell_quartiles(sets, workload, metric)
            medians.setdefault(workload, {})[metric] = med
            spreads.setdefault(workload, {})[metric] = (q3 - q1) / med if med else 0.0
    return medians, spreads


def repeat_summary(sets: list[dict[str, dict]], contract: dict) -> int:
    """Median and quartiles per cell over repeated sets of the same code;
    exit status 1 if any two sets disagree by more than the cell's bound."""
    status = 0
    print(f"{'workload':<12} {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'max gap':>8} {'bound':>6}  verdict")
    for contract_spec in e2e_specs(contract):
        for workload in sets[0]:
            spec = same_seed_spec(contract_spec, workload)
            values = [s[workload][spec["name"]] for s in sets]
            q1, med, q3 = cell_quartiles(sets, workload, spec["name"])
            lo, hi = min(values), max(values)
            # the worst ordered pair: the better value as base
            base, other = (lo, hi) if spec["better"] == "lower" else (hi, lo)
            gap = worse_by(spec, base, other) if base else abs(other - base)
            agree = gap <= spec["bound"]
            status |= not agree
            print(f"{workload:<12} {spec['name']:<18} {q1:>12.5g} {med:>12.5g} "
                  f"{q3:>12.5g} {gap:>8.3f} {spec['bound']:>6.2f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
    return status
