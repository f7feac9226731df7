"""Common components of the cycle-level simulation: the off-chip memory
port, activity counters, the trace recorder and the interconnect model.

There is no event kernel here.  The one thing that was ever simulated as
communicating processes — the read–compute–write pipeline — is a pair of
recurrences in :mod:`repro.accel.pipeline`; these components keep no
clock of their own and are told the cycle by their caller.
"""

from .interconnect import InterconnectModel
from .memory import MemoryBudget, MemoryPort
from .stats import RunCounters
from .trace import Trace, TraceEvent

__all__ = [
    "InterconnectModel",
    "MemoryBudget",
    "MemoryPort",
    "RunCounters",
    "Trace",
    "TraceEvent",
]
