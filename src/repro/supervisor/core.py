"""The self-healing control loop: failover, rejoin, anti-entropy.

One :class:`Supervisor` watches one :class:`~repro.cluster.ShardedIndex`
with replica sets.  Each tick it reads every replica set's health (a
member is healthy unless something marked it down) and drives three
repairs, all built on primitives the cluster already trusts:

* **Automatic failover** — a primary unhealthy past a *grace period*
  triggers the crash-safe ``failover()``.  A *single-flight* flag stops
  reentrant promotions and a per-shard *cooldown* stops a flapping
  member from causing a promotion storm: at most one promotion per
  cooldown window, no matter how often health flaps inside it.
* **Rejoin and rebuild** — a healthy follower whose log is stale (the
  demoted ex-primary's generation-fenced WAL, or a snapshot from
  before a checkpoint) is re-admitted, and a quarantined one rebuilt,
  through one snapshot ``resync()`` path, restoring the replication
  factor instead of leaving the set degraded.  Healthy followers that
  merely lag are pumped via ``ship()``.  A member taken out by a plain
  ``mark_down`` is left alone until someone marks it up.
* **Anti-entropy scrub** — a rate-limited pass (one shard per
  interval, rotating) compares each follower's durable WAL byte-prefix
  against the primary's and spot-verifies a budgeted window of page
  checksums at rest.  A divergent or corrupt follower is *quarantined*
  in its replica set (down — the read router stops choosing it
  immediately), rebuilt by snapshot resync, and only then marked up
  again: it never serves a divergent read between detection and
  repair.  A corrupt *primary* cannot be rebuilt in place; it is
  quarantined and the shard fast-tracked through the failover path,
  after which the repair pass rebuilds it as a follower.  A follower a
  failed ship quarantined takes the same rebuild.

The lifecycle is :class:`repro.control.ControlLoop`'s.  Grace and
cooldown are counted in ticks (two and eight); the clock that measures
them, stamps the journal and times MTTR is the supervisor's own and
injectable (defaulting to ``time.monotonic``), so every test drives time
deterministically.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.cluster import ShardedIndex
from repro.control import ControlLoop
from repro.obs import instruments as _instruments
from repro.obs import registry as _obsreg
from repro.obs.flight import FlightRecorder
from repro.obs.ids import new_trace_id
from repro.replication.replicaset import (
    PrimaryDownError,
    ReplicationError,
)
from repro.storage.wal import scan_wal
from repro.supervisor.scrub import (
    ScrubFinding,
    ScrubReport,
    compare_wal_prefix,
    spot_check_pages,
)

#: Journal filename inside a supervised cluster directory.
SUPERVISOR_JOURNAL = "supervisor-events.jsonl"

#: Shard liveness states (the supervisor's view of a shard, not a
#: replica set's health marks on its members).
HEALTHY = "healthy"
SUSPECTED = "suspected"


class _ShardState:
    """Per-shard control-loop bookkeeping."""

    __slots__ = (
        "state",
        "suspected_at",
        "fast_track",
        "cooldown_until",
        "promoting",
        "suppressed_logged",
        "promotions",
    )

    def __init__(self) -> None:
        self.state = HEALTHY
        self.suspected_at: Optional[float] = None
        self.fast_track = False
        self.cooldown_until = float("-inf")
        self.promoting = False
        self.suppressed_logged = False
        self.promotions = 0


class Supervisor(ControlLoop):
    """Background repair loop over a cluster with replica sets."""

    name = "supervisor"
    _bundle = staticmethod(_instruments.supervisor)

    def __init__(
        self,
        index: ShardedIndex,
        scrub_interval: Optional[float] = 60.0,
        scrub_pages: Optional[int] = 64,
        tick_interval: float = 1.25,
        clock: Optional[Any] = None,
        journal_path: Optional[str] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        #: Optional anomaly flight recorder: failovers, quarantines and
        #: scrub divergences trigger a dump of the recent-trace ring so
        #: the requests degraded *by* the anomaly are captured with it.
        self.flight = flight
        if tick_interval <= 0:
            raise ValueError("tick_interval must be > 0")
        #: How long a primary stays merely *suspected* before promotion:
        #: two ticks, so detect-to-promote stays within grace + two ticks.
        self.grace = 2.0 * tick_interval
        #: Minimum spacing between promotions of one shard: eight ticks.
        self.cooldown = 8.0 * tick_interval
        #: Seconds between background scrub passes (None disables).
        self.scrub_interval = scrub_interval
        #: Pages spot-verified per member per background pass.
        self.scrub_pages = scrub_pages
        if scrub_pages is not None and scrub_pages < 0:
            raise ValueError(f"scrub_pages must be >= 0, got {scrub_pages}")
        self._states: dict[int, _ShardState] = {}
        self._page_cursors: dict[tuple[int, int], int] = {}
        self._last_scrub: Optional[float] = None
        self._scrub_cursor = 0
        # Correlation id for the scrub currently running under the lock;
        # divergence/quarantine events it records inherit this id.
        self._request_id: Optional[str] = None
        # Plain tallies mirror the obs counters so status() works with
        # observability disabled.
        self.promotions = 0
        self.rejoins = 0
        self.repairs = 0
        self.quarantines = 0
        self.scrub_passes = 0
        # Last: this publishes ``index.supervisor``, which the net health
        # op reads from another thread.
        super().__init__(
            index, tick_interval, clock or time.monotonic, journal_path
        )

    # -------------------------------------------------------------- the pass

    def _pass(self, now: float) -> dict:
        """One ``tick()``: per shard, liveness or repair; then maybe scrub."""
        actions: dict = {
            "promoted": [],
            "rejoined": [],
            "repaired": [],
            "suppressed": [],
            "scrubbed": None,
        }
        for sid, rset in sorted(self.index._sets.items()):
            st = self._state(sid)
            if rset.healthy(rset.primary.replica_id):
                if st.state == SUSPECTED:
                    st.state = HEALTHY
                    st.suspected_at = None
                    st.fast_track = False
                    st.suppressed_logged = False
                    self.journal.record(
                        "primary-recovered",
                        shard=sid,
                        replica=rset.primary.replica_id,
                    )
                self._repair_pass(sid, rset, actions)
            else:
                self._liveness_pass(sid, rset, st, now, actions)
        self._maybe_scrub(now, actions)
        return actions

    def _state(self, sid: int) -> _ShardState:
        st = self._states.get(sid)
        if st is None:
            st = self._states[sid] = _ShardState()
        return st

    # -------------------------------------------------------- failover logic

    def _liveness_pass(
        self, sid: int, rset: Any, st: _ShardState, now: float, actions: dict
    ) -> None:
        if st.state != SUSPECTED:
            st.state = SUSPECTED
            st.suspected_at = now
            self.journal.record(
                "primary-suspected",
                shard=sid,
                replica=rset.primary.replica_id,
            )
        assert st.suspected_at is not None
        if not st.fast_track and now - st.suspected_at < self.grace:
            return
        if now < st.cooldown_until:
            # Promotion storm guard: a shard that flaps back down right
            # after a promotion waits the cooldown out.
            actions["suppressed"].append(sid)
            if not st.suppressed_logged:
                st.suppressed_logged = True
                self.journal.record(
                    "promotion-suppressed",
                    shard=sid,
                    detail={"cooldown_until": round(st.cooldown_until, 6)},
                )
            return
        if st.promoting:
            return  # single-flight: a promotion is already running
        st.promoting = True
        # One correlation id ties the failover's journal events and its
        # flight dump together.  The index's failover signature is left
        # alone here — tests substitute doubles for it.
        rid = new_trace_id()
        try:
            info = self.index.failover(sid)
        except ReplicationError as exc:
            self.journal.record(
                "promotion-blocked",
                shard=sid,
                detail=str(exc),
                request_id=rid,
            )
            return
        finally:
            st.promoting = False
        mttr = now - st.suspected_at
        st.state = HEALTHY
        st.suspected_at = None
        st.fast_track = False
        st.suppressed_logged = False
        st.cooldown_until = now + self.cooldown
        st.promotions += 1
        self.promotions += 1
        if _obsreg.ENABLED:
            inst = _instruments.supervisor()
            inst.promotions.labels(shard=str(sid)).inc()
            inst.mttr_seconds.observe(mttr)
        self.journal.record(
            "promoted",
            shard=sid,
            replica=info["promoted"],
            detail={
                "demoted": info["demoted"],
                "generation": info["generation"],
                "mttr": round(mttr, 6),
            },
            request_id=rid,
        )
        if self.flight is not None:
            self.flight.trigger(
                "failover",
                detail={
                    "shard": sid,
                    "promoted": info["promoted"],
                    "demoted": info["demoted"],
                    "generation": info["generation"],
                    "request_id": rid,
                },
            )
        actions["promoted"].append(sid)

    # --------------------------------------------------------- rejoin/repair

    def _repair_pass(self, sid: int, rset: Any, actions: dict) -> None:
        """Re-admit stale members and rebuild quarantined ones.

        Runs only while the shard's primary is healthy (resync copies
        *from* it).  Members that are down and not quarantined are left
        alone — whoever marked them down marks them up again.
        """
        for rep in list(rset.followers):
            if self._needs_resync(rset, rep):
                done = self._rebuild(sid, rset, rep)
                if done is not None:
                    actions[done].append((sid, rep.replica_id))
        # Same-generation catch-up for followers that merely lag.
        try:
            if any(
                rset.healthy(r.replica_id) and rset.lag(r.replica_id) > 0
                for r in rset.followers
            ):
                with self.index._lock.read():
                    rset.ship()
        except PrimaryDownError:
            pass

    @staticmethod
    def _needs_resync(rset: Any, rep: Any) -> bool:
        """Quarantined, or healthy on a log that no longer splices."""
        rid = rep.replica_id
        return rid in rset.quarantined() or (
            rset.healthy(rid) and rset.is_stale(rep)
        )

    def _rebuild(self, sid: int, rset: Any, rep: Any) -> Optional[str]:
        """Re-sync one follower from the primary's snapshot if it still
        needs it; ``"repaired"``, ``"rejoined"`` or None.

        The need is judged again under the write lock: a writer's ship
        may have re-synced a stale follower since the caller looked.  A
        quarantined follower comes back (its quarantine lifted) only
        once the copy is in place, so it never serves a read before.
        """
        rid = rep.replica_id
        try:
            with self.index._lock.write():
                if not self._needs_resync(rset, rep):
                    return None
                repair = rid in rset.quarantined()
                rset.resync(rep)
                rset.mark_up(rid)
        except (OSError, ReplicationError) as exc:
            self.journal.record(
                "repair-failed", shard=sid, replica=rid, detail=str(exc)
            )
            return None
        if repair:
            self.repairs += 1
            if _obsreg.ENABLED:
                _instruments.supervisor().repairs.inc()
            self.journal.record("rebuilt", shard=sid, replica=rid)
            return "repaired"
        self.rejoins += 1
        if _obsreg.ENABLED:
            _instruments.supervisor().rejoins.labels(shard=str(sid)).inc()
        self.journal.record("rejoined", shard=sid, replica=rid)
        return "rejoined"

    # ---------------------------------------------------------------- scrub

    def _maybe_scrub(self, now: float, actions: dict) -> None:
        if self.scrub_interval is None:
            return
        if (
            self._last_scrub is not None
            and now - self._last_scrub < self.scrub_interval
        ):
            return
        sids = sorted(self.index._sets)
        if not sids:
            return
        self._last_scrub = now
        sid = sids[self._scrub_cursor % len(sids)]
        self._scrub_cursor += 1
        self._scrub([sid], self.scrub_pages, False)
        actions["scrubbed"] = sid

    def scrub(
        self,
        shard_id: Optional[int] = None,
        pages: Optional[int] = None,
        deep: bool = False,
        request_id: Optional[str] = None,
    ) -> ScrubReport:
        """One full anti-entropy pass; returns what it found and fixed.

        ``pages=None`` checks every page (the CLI default); the
        background loop passes its per-tick budget instead.  ``deep``
        additionally runs the full structural ``verify()`` on every
        member tree.  ``request_id`` (minted when absent) correlates the
        journal events this pass records.
        """
        with self._lock:
            if shard_id is not None:
                sids = [shard_id]
            else:
                sids = sorted(s.shard_id for s in self.index.shards)
            return self._scrub(sids, pages, deep, request_id=request_id)

    def _scrub(
        self,
        sids: "list[int]",
        pages: Optional[int],
        deep: bool,
        request_id: Optional[str] = None,
    ) -> ScrubReport:
        self._request_id = request_id if request_id is not None else new_trace_id()
        try:
            return self._scrub_locked(sids, pages, deep)
        finally:
            self._request_id = None

    def _scrub_locked(
        self, sids: "list[int]", pages: Optional[int], deep: bool
    ) -> ScrubReport:
        report = ScrubReport(shards=list(sids))
        inst = _instruments.supervisor() if _obsreg.ENABLED else None
        for sid in sids:
            rset = self.index._sets.get(sid)
            if rset is None:
                # Unreplicated shard: page checks only, nothing to rebuild.
                shard = self.index._shard_by_id(sid)
                bad = self._check_member_pages(
                    sid, -1, shard.tree, pages, deep, report
                )
                for detail in bad:
                    finding = ScrubFinding(sid, None, "primary-page", detail)
                    self._note_divergence(finding, report)
                continue
            self._scrub_primary(sid, rset, pages, deep, report)
            for rep in list(rset.followers):
                if not rset.healthy(rep.replica_id):
                    continue
                if rset.is_stale(rep):
                    continue  # the rejoin path owns stale members
                finding = self._scrub_follower(sid, rset, rep, pages, deep, report)
                if finding is not None:
                    # Quarantine first (the selector stops choosing the
                    # member at once), rebuild second.
                    self._note_divergence(finding, report)
                    self._quarantine(
                        rset, rep.replica_id, finding.kind, finding.detail
                    )
                    finding.repaired = self._rebuild(sid, rset, rep) is not None
        self.scrub_passes += 1
        if inst is not None:
            inst.scrub_passes.inc()
            inst.scrub_wal_bytes.inc(report.wal_bytes_compared)
            inst.scrub_pages.inc(report.pages_checked)
        self.journal.record(
            "scrub-pass",
            detail={
                "shards": list(sids),
                "wal_bytes": report.wal_bytes_compared,
                "pages": report.pages_checked,
                "findings": len(report.findings),
            },
            request_id=self._request_id,
        )
        return report

    def _scrub_primary(
        self,
        sid: int,
        rset: Any,
        pages: Optional[int],
        deep: bool,
        report: ScrubReport,
    ) -> None:
        rep = rset.primary
        if not rset.healthy(rep.replica_id):
            return
        problems: "list[tuple[str, str]]" = []
        for detail in self._check_member_pages(
            sid, rep.replica_id, rep.tree, pages, deep, report
        ):
            problems.append(("primary-page", detail))
        pwal = rep.tree.wal
        if pwal is not None and pwal.header is not None:
            committed = pwal.size_in_bytes
            _, _, valid_end, _ = scan_wal(pwal.path)
            if valid_end < committed:
                problems.append(
                    (
                        "primary-wal",
                        f"on-disk log valid to byte {valid_end}, "
                        f"{committed} committed bytes claimed",
                    )
                )
        if not problems:
            return
        # A corrupt primary cannot be rebuilt in place: quarantine it and
        # fast-track the shard through the normal promotion path; the
        # repair pass then rebuilds the ex-primary as a follower.
        for kind, detail in problems:
            self._note_divergence(
                ScrubFinding(sid, rep.replica_id, kind, detail), report
            )
        st = self._state(sid)
        if st.state != SUSPECTED:
            st.state = SUSPECTED
            st.suspected_at = self.clock()
        st.fast_track = True
        self._quarantine(rset, rep.replica_id, problems[0][0], problems[0][1])

    def _scrub_follower(
        self,
        sid: int,
        rset: Any,
        rep: Any,
        pages: Optional[int],
        deep: bool,
        report: ScrubReport,
    ) -> Optional[ScrubFinding]:
        problem, compared = compare_wal_prefix(rset.primary.tree.wal, rep)
        report.wal_bytes_compared += compared
        if problem is not None:
            return ScrubFinding(sid, rep.replica_id, problem[0], problem[1])
        bad = self._check_member_pages(
            sid, rep.replica_id, rep.tree, pages, deep, report
        )
        if bad:
            return ScrubFinding(sid, rep.replica_id, "page", bad[0])
        return None

    def _check_member_pages(
        self,
        sid: int,
        rid: int,
        tree: Any,
        pages: Optional[int],
        deep: bool,
        report: ScrubReport,
    ) -> "list[str]":
        """Spot-verify one member's pages; returns problem descriptions.

        Holds the tree's epoch read lock so no writer mutates a page
        between its payload and checksum updates mid-verification.
        """
        key = (sid, rid)
        with tree._epoch_lock.read():
            bad, checked, cursor = spot_check_pages(
                tree, pages, self._page_cursors.get(key, 0)
            )
            self._page_cursors[key] = cursor
            report.pages_checked += checked
            if deep:
                vreport = tree.verify(check_objects=False)
                if not vreport.ok:
                    bad = bad + [
                        f"verify: {err}" for err in vreport.errors[:3]
                    ]
        return bad

    def _note_divergence(
        self, finding: ScrubFinding, report: ScrubReport
    ) -> None:
        report.findings.append(finding)
        if _obsreg.ENABLED:
            _instruments.supervisor().divergences.labels(
                kind=finding.kind
            ).inc()
        self.journal.record(
            "divergence",
            shard=finding.shard,
            replica=finding.replica,
            detail={"kind": finding.kind, "detail": finding.detail},
            request_id=self._request_id,
        )
        if self.flight is not None:
            self.flight.trigger(
                "divergence",
                detail={
                    "shard": finding.shard,
                    "replica": finding.replica,
                    "kind": finding.kind,
                    "request_id": self._request_id,
                },
            )

    def _quarantine(self, rset: Any, rid: int, kind: str, detail: str) -> None:
        sid = rset.shard_id
        rset.quarantine(rid)
        self.quarantines += 1
        if _obsreg.ENABLED:
            _instruments.supervisor().quarantines.labels(shard=str(sid)).inc()
        self.journal.record(
            "quarantined",
            shard=sid,
            replica=rid,
            detail={"kind": kind, "detail": detail},
            request_id=self._request_id,
        )
        if self.flight is not None:
            self.flight.trigger(
                "quarantine",
                detail={
                    "shard": sid,
                    "replica": rid,
                    "kind": kind,
                    "request_id": self._request_id,
                },
            )

    # --------------------------------------------------------------- surface

    def quarantined(self, shard_id: int) -> "list[int]":
        rset = self.index._sets.get(shard_id)
        return rset.quarantined() if rset is not None else []

    def shard_state(self, shard_id: int) -> str:
        """Compact state label: quarantine > suspected > cooldown > healthy."""
        with self._lock:
            if self.quarantined(shard_id):
                return "quarantine"
            st = self._states.get(shard_id)
            if st is None:
                return HEALTHY
            if st.state == SUSPECTED:
                return SUSPECTED
            if self.clock() < st.cooldown_until:
                return "cooldown"
            return HEALTHY

    def status(self) -> dict:
        """Operator-facing snapshot of the control loop."""
        with self._lock:
            shards = {}
            for sid in sorted(self.index._sets):
                st = self._states.get(sid, _ShardState())
                shards[sid] = {
                    "state": self.shard_state(sid),
                    "suspected_at": st.suspected_at,
                    "cooldown_until": (
                        st.cooldown_until
                        if st.cooldown_until != float("-inf")
                        else None
                    ),
                    "promotions": st.promotions,
                    "quarantined": self.quarantined(sid),
                }
            return {
                "running": self.running,
                "grace": self.grace,
                "cooldown": self.cooldown,
                "scrub_interval": self.scrub_interval,
                "ticks": self.ticks,
                "promotions": self.promotions,
                "rejoins": self.rejoins,
                "repairs": self.repairs,
                "quarantines": self.quarantines,
                "scrub_passes": self.scrub_passes,
                "shards": shards,
            }

    def health_summary(self) -> dict:
        """The supervisor block of the net ``health`` op (string keys:
        this nests into a JSON wire response)."""
        with self._lock:
            return {
                "running": self.running,
                "ticks": self.ticks,
                "promotions": self.promotions,
                "rejoins": self.rejoins,
                "repairs": self.repairs,
                "scrub_passes": self.scrub_passes,
                "shards": {
                    str(sid): self.shard_state(sid)
                    for sid in sorted(self.index._sets)
                },
            }
