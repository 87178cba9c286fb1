"""Anti-entropy primitives: WAL prefix comparison and page spot-checks.

Replication's correctness story rests on one invariant — a follower's
durable log is a **byte-identical prefix** of its primary's log within
one base generation — and on page checksums holding at rest.  Nothing
re-checked either after the fact.  These helpers do, cheaply and
without locks of their own:

* :func:`compare_wal_prefix` reads both logs' *on-disk* bytes and
  compares the follower's committed prefix against the primary's.
  Generation mismatches are not divergence (the rejoin path owns
  those); a short or differing prefix is.
* :func:`spot_check_pages` verifies a budgeted window of pages *at
  rest* (each page's stored CRC32 against its bytes) through a
  rotating cursor, so successive passes sweep the whole store without
  ever paying a full scan at once.  Verification never counts page
  accesses — it inspects the store, it does not execute a query.

The caller (the supervisor) owns the locking discipline and the
quarantine/rebuild lifecycle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class ScrubFinding:
    """One divergent or corrupt state the scrubber found."""

    shard: int
    replica: Optional[int]
    kind: str  # wal-diverged | wal-truncated | page | verify | primary-*
    detail: str
    repaired: bool = False

    def __str__(self) -> str:
        who = (
            f"shard {self.shard}"
            if self.replica is None
            else f"shard {self.shard} replica {self.replica}"
        )
        state = "repaired" if self.repaired else "UNREPAIRED"
        return f"{who}: {self.kind} ({self.detail}) [{state}]"


@dataclass
class ScrubReport:
    """Aggregate outcome of one scrub pass."""

    shards: "list[int]" = field(default_factory=list)
    wal_bytes_compared: int = 0
    pages_checked: int = 0
    findings: "list[ScrubFinding]" = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the pass found nothing wrong at all."""
        return not self.findings

    def unrepaired(self) -> "list[ScrubFinding]":
        return [f for f in self.findings if not f.repaired]

    @property
    def ok(self) -> bool:
        """True when every finding (if any) was repaired in-pass."""
        return not self.unrepaired()

    def summary(self) -> str:
        state = (
            "clean"
            if self.clean
            else f"{len(self.findings)} finding(s), "
            f"{len(self.unrepaired())} unrepaired"
        )
        return (
            f"scrubbed {len(self.shards)} shard(s): "
            f"{self.wal_bytes_compared} WAL bytes compared, "
            f"{self.pages_checked} pages checked, {state}"
        )


def compare_wal_prefix(pwal, rep) -> "tuple[Optional[tuple[str, str]], int]":
    """Compare a follower's durable WAL prefix against the primary's.

    Returns ``((kind, detail), bytes_compared)`` where the first item is
    ``None`` when the prefix is sound.  Both logs are read from *disk*:
    the in-memory committed length says what the follower claims to hold
    durably, and the file must back that claim byte for byte.

    Stale positions (generation mismatch, demoted ex-primary tail) are
    reported as ``None`` — they are a *rejoin* concern, handled by the
    snapshot resync path, not byte divergence.
    """
    fwal = rep.wal
    if pwal is None or pwal.header is None or fwal.header is None:
        return None, 0
    if fwal.header.base_generation != pwal.header.base_generation:
        return None, 0
    committed = fwal.size_in_bytes
    if committed > pwal.size_in_bytes:
        return None, 0
    if committed == 0:
        return None, 0
    try:
        disk_size = os.path.getsize(fwal.path)
    except OSError:
        return ("wal-truncated", "log file missing on disk"), 0
    if disk_size < committed:
        return (
            "wal-truncated",
            f"on-disk log holds {disk_size} bytes, "
            f"{committed} committed bytes claimed",
        ), 0
    try:
        with open(fwal.path, "rb") as fh:
            fdata = fh.read(committed)
        with open(pwal.path, "rb") as fh:
            pdata = fh.read(committed)
    except OSError as exc:
        return ("wal-truncated", f"log unreadable: {exc}"), 0
    if len(fdata) < committed:
        return (
            "wal-truncated",
            f"short read: {len(fdata)} of {committed} committed bytes",
        ), 0
    if len(pdata) < committed:
        # The *primary's* disk is short of its own committed position —
        # that is the primary scrub's finding, not follower divergence.
        return None, 0
    if fdata != pdata:
        first = next(
            i for i, (a, b) in enumerate(zip(fdata, pdata)) if a != b
        )
        return (
            "wal-diverged",
            f"first divergent byte at offset {first} of {committed}",
        ), committed
    return None, committed


def spot_check_pages(
    tree, budget: Optional[int], cursor: int
) -> "tuple[list[str], int, int]":
    """Verify up to ``budget`` pages of a tree at rest.

    Walks the tree's page files (B+-tree nodes, then the RAF) as one
    concatenated page space starting at ``cursor``, wrapping around.
    ``budget=None`` checks every page.  Returns
    ``(bad_page_labels, pages_checked, next_cursor)``; the caller feeds
    ``next_cursor`` back on the next pass so the window rotates.  A
    negative budget is a ``ValueError``.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"page budget must be >= 0, got {budget}")
    pagefiles = [("btree", tree.btree.pagefile)]
    if tree.raf is not None:
        pagefiles.append(("raf", tree.raf.pagefile))
    total = sum(pf.num_pages for _, pf in pagefiles)
    if total == 0:
        return [], 0, 0
    n = total if budget is None else min(budget, total)
    bad: "list[str]" = []
    for step in range(n):
        idx = (cursor + step) % total
        for name, pf in pagefiles:
            if idx < pf.num_pages:
                if not pf.verify_page(idx):
                    bad.append(f"{name} page {idx}")
                break
            idx -= pf.num_pages
    return bad, n, (cursor + n) % total
