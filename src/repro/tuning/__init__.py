"""Cost-model-driven self-tuning: the EDC/EPA loop, closed online.

The paper's cost models (eqs. 1–8) predict query cost from the union
distance distribution; ``repro.core.costmodel`` implements them but the
serving stack never consumed them.  This package does:

* :class:`OnlineCalibrator` — fits the models' per-deployment constants
  from observed (prediction, outcome) pairs and tracks prediction error;
* :class:`Tuner` — the background :class:`repro.control.ControlLoop`
  that recalibrates and schedules (optionally runs) a guarded pivot
  re-selection when HFI's objective drifts.  Those two — cost models,
  pivot set — are what it maintains; the kNN traversal is the caller's
  ``traversal=`` argument, and buffer, queue and shard layout stay the
  operator's.

Nothing here runs unless explicitly constructed: with tuning disabled
the query path and its counters are bit-identical to the untuned build.
"""

from repro.tuning.calibrate import OnlineCalibrator
from repro.tuning.core import TUNING_JOURNAL, Tuner

__all__ = [
    "TUNING_JOURNAL",
    "OnlineCalibrator",
    "Tuner",
]
