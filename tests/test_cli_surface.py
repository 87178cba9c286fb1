"""The operator surface, pinned: every flag of every subcommand, the exit
contract, and ``--query`` parsing on vector datasets.

``golden/cli_surface.json`` was recorded at the commit before ``cli.py``'s
parser became a table (PR 18, ``1a01d17``, with ``build_parser()`` extracted
from ``main()`` as a pure move): per subcommand, every action's option
strings, dest, type, default, choices, ``required`` bit and nargs.  The one
subcommand deleted along with that rewrite (the network load generator) is
left out of the recording.  Help text is not pinned.  A change that *means* to move the surface re-records with
``PYTHONPATH=src python -m tests.test_cli_surface``.
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

from repro import cli
from tests.conftest import run_cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_surface.json")


def walk(parser: argparse.ArgumentParser) -> dict:
    """``{subcommand: [[option_strings, dest, type, default, choices,
    required, nargs], ...]}`` — JSON-ready, actions sorted by dest."""
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    surface = {}
    for name, command in sub.choices.items():
        surface[name] = sorted(
            [
                list(a.option_strings),
                a.dest,
                getattr(a.type, "__name__", None),
                a.default,
                None if a.choices is None else list(a.choices),
                a.required,
                a.nargs,
            ]
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        )
    return surface


def test_every_flag_of_every_subcommand_is_the_recorded_one():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    surface = walk(cli.build_parser())
    assert sorted(surface) == sorted(golden)
    for name in golden:
        assert surface[name] == golden[name], name


#: Bad input -> (argv after the subcommand).  Every subcommand that takes
#: ``--dir`` gets a directory that does not exist.  A case named after a
#: subcommand that ``query`` / ``verify`` replaced runs the replacement.
_MISSING = ["--dir", "/nonexistent/index", "--metric", "edit"]
_SMALL = ["--dataset", "words", "--size", "60"]
_WIRE = ["query", "--connect", "127.0.0.1:1", "--query", "x"]
BAD_INPUT = {
    "range-negative-radius": [
        "query", *_SMALL, "--shards", "2", "--mode", "range", "--radius", "-1"
    ],
    "knn-k-zero": ["query", *_SMALL, "--shards", "2", "--k", "0"],
    "query-negative-radius": [
        "query", *_SMALL, "--mode", "range", "--radius", "-1"
    ],
    "query-k-zero": ["query", *_SMALL, "--k", "0"],
    "net-query-dead-port": _WIRE,
    "trace-dead-port": [*_WIRE, "--trace"],
    "net-query-bad-hostport": ["query", "--connect", "nowhere", "--query", "x"],
    "query": ["query", "--dir", "/nonexistent/index"],
    "query-dead-port": [*_WIRE, "--mode", "count", "--radius", "1"],
    "query-bad-hostport": ["query", "--connect", "nowhere"],
    "query-dir-and-connect": [
        "query", "--dir", "/nonexistent/index", "--connect", "127.0.0.1:1"
    ],
    "query-connect-without-radius": [*_WIRE, "--mode", "range"],
    "verify-unknown-metric": [
        "verify", "--dir", "/nonexistent/index", "--metric", "wavelet"
    ],
    "insert": ["insert", *_MISSING, "--object", "x"],
    "delete": ["delete", *_MISSING, "--object", "x"],
    "checkpoint": ["checkpoint", *_MISSING],
    "log-stats": ["log-stats", "--dir", "/nonexistent/index"],
    "verify": ["verify", *_MISSING],
    "salvage": ["salvage", *_MISSING],
    "shard-query": ["query", *_MISSING],
    "shard-rebalance": ["shard-rebalance", *_MISSING],
    "shard-verify": ["verify", "--dir", "/nonexistent/index"],
    "replicate": ["replicate", *_MISSING],
    "shard-failover": ["shard-failover", *_MISSING, "--shard", "0"],
    "scrub": ["scrub", *_MISSING],
    "serve": ["serve", *_MISSING],
    "shard-status": ["shard-status", *_MISSING],
}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_is_one_stderr_line_and_exit_1(case):
    argv = BAD_INPUT[case]
    out = run_cli(*argv)
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr + out.stdout
    lines = [line for line in out.stderr.splitlines() if line]
    assert len(lines) == 1, out.stderr
    assert lines[0].startswith(f"{argv[0]}: ")


def test_every_dir_subcommand_has_a_bad_input_case():
    surface = walk(cli.build_parser())
    takes_dir = {
        name for name, actions in surface.items()
        if any(a[1] == "dir" for a in actions)
    }
    assert takes_dir <= set(BAD_INPUT)


@pytest.mark.slow
class TestVectorQuery:
    """``--query`` is parsed by the index's serializer, so a vector dataset
    takes comma-separated numbers whether ``query`` builds the index or
    loads it."""

    QUERY = ",".join(["0.0625"] * 16)
    COLOR = ["--dataset", "color", "--size", "150", "--query", QUERY]

    def test_range(self):
        out = run_cli("query", *self.COLOR, "--mode", "range", "--radius", "0.1")
        assert out.returncode == 0, out.stderr
        assert "RQ(q, O, 0.1)" in out.stdout

    def test_knn(self):
        out = run_cli("query", *self.COLOR, "--mode", "knn", "--k", "3")
        assert out.returncode == 0, out.stderr
        assert "kNN(q, 3)" in out.stdout

    def test_query(self):
        out = run_cli("query", *self.COLOR, "--mode", "count", "--radius", "0.1")
        assert out.returncode == 0, out.stderr
        assert "|RQ(q, O, 0.1)| >= " in out.stdout

    def test_trace(self):
        out = run_cli("query", *self.COLOR, "--mode", "knn", "--k", "3", "--trace")
        assert out.returncode == 0, out.stderr
        assert "trace knn (complete)" in out.stdout

    def test_shard_query(self, tmp_path):
        d = str(tmp_path / "cluster")
        built = run_cli(
            "build", "--dataset", "color", "--size", "150",
            "--shards", "2", "--out", d,
        )
        assert built.returncode == 0, built.stderr
        out = run_cli("query", "--dir", d, "--query", self.QUERY, "--k", "3")
        assert out.returncode == 0, out.stderr
        assert "kNN(q, 3) -> 3 neighbours" in out.stdout

    def test_a_literal_the_serializer_rejects_is_a_clean_error(self):
        out = run_cli(
            "query", "--dataset", "color", "--size", "150", "--mode", "range",
            "--query", "red",
        )
        assert out.returncode == 1
        assert out.stderr.startswith("query: cannot parse 'red'")
        assert "Traceback" not in out.stderr


if __name__ == "__main__":
    rows = [  # one action per line, so a moved flag is a one-line diff
        f" {json.dumps(name)}: [\n"
        + ",\n".join(f"  {json.dumps(action)}" for action in actions)
        + "\n ]"
        for name, actions in sorted(walk(cli.build_parser()).items())
    ]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"recorded {GOLDEN}")
