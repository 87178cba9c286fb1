"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

# Allow running the tests without installing the package.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np
import pytest

from repro import obs
from repro.distance import EditDistance, EuclideanDistance
from repro.datasets import generate_words


@pytest.fixture()
def obs_enabled():
    """Process-wide instruments on for one test, from a clean registry
    (absolute-value asserts must not see an earlier test's counts)."""
    obs.get_registry().reset()
    obs.enable()
    try:
        yield
    finally:
        obs.disable()


@pytest.fixture(scope="session")
def small_vectors() -> list[np.ndarray]:
    """400 clustered 4-d vectors (deterministic)."""
    rng = np.random.default_rng(1234)
    centers = rng.normal(size=(5, 4))
    out = []
    for i in range(400):
        out.append(centers[i % 5] + rng.normal(scale=0.3, size=4))
    return out


@pytest.fixture(scope="session")
def small_words() -> list[str]:
    """400 pseudo-English words (deterministic)."""
    return generate_words(400, seed=99)


@pytest.fixture(scope="session")
def l2() -> EuclideanDistance:
    return EuclideanDistance()


@pytest.fixture(scope="session")
def edit() -> EditDistance:
    return EditDistance()


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m repro.cli <args>`` in a fresh process, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        timeout=240,
    )


def replicated_cluster(directory: str, *replicate_flags: str, size: int = 200) -> None:
    """``build --shards 2`` a words cluster into ``directory``, then
    ``replicate`` it (one follower per shard unless the flags say more)."""
    for argv in (
        ("build", "--dataset", "words", "--size", str(size), "--shards", "2"),
        ("replicate", "--replicas", "1", *replicate_flags),
    ):
        flag = "--out" if argv[0] == "build" else "--dir"
        out = run_cli(*argv, flag, directory)
        assert out.returncode == 0, out.stderr


def digests(directory: str) -> dict[str, str]:
    """sha256 of every file under ``directory``, by relative path."""
    out = {}
    for root, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            out[os.path.relpath(path, directory).replace(os.sep, "/")] = digest
    return dict(sorted(out.items()))
