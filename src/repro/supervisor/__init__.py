"""Self-healing control loop over the replicated cluster primitives.

The supervisor turns the manual fault-tolerance toolkit (each replica
set's health marks, crash-safe ``failover()``, snapshot ``resync()``,
page/WAL verification) into an operator-free background loop: automatic
failover with grace/cooldown guards, zombie-rejoin of demoted
ex-primaries, and a rate-limited anti-entropy scrub that quarantines
and rebuilds divergent replicas.  The loop's lifecycle and its journal
are :mod:`repro.control`'s; the journal names stay importable from here.
"""

from repro.control import EventJournal, read_journal
from repro.supervisor.core import SUPERVISOR_JOURNAL, Supervisor
from repro.supervisor.scrub import ScrubFinding, ScrubReport

__all__ = [
    "SUPERVISOR_JOURNAL",
    "EventJournal",
    "ScrubFinding",
    "ScrubReport",
    "Supervisor",
    "read_journal",
]
