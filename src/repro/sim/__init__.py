"""Common components of the cycle-level simulation: activity counters,
the trace recorder and the interconnect model.  Off-chip transfers go
straight to :class:`~repro.fpga.hbm.MemorySystemModel`, one call each.

There is no event kernel here.  The one thing that was ever simulated as
communicating processes — the read–compute–write pipeline — is a pair of
recurrences in :mod:`repro.accel.pipeline`; these components keep no
clock of their own and are told the cycle by their caller.
"""

from .interconnect import InterconnectModel
from .stats import RunCounters
from .trace import Trace, TraceEvent

__all__ = [
    "InterconnectModel",
    "RunCounters",
    "Trace",
    "TraceEvent",
]
