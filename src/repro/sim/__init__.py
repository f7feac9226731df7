"""Common components of the cycle-level simulation: activity counters
and the interconnect model.  Off-chip transfers go straight to
:class:`~repro.fpga.hbm.MemorySystemModel`, one call each.  A traced
run's intervals are :class:`~repro.obs.tracer.Span` objects on the
``cycles`` clock, which :class:`~repro.accel.pipeline.PipelineExecutor`
records itself.

There is no event kernel here.  The one thing that was ever simulated as
communicating processes — the read–compute–write pipeline — is a pair of
recurrences in :mod:`repro.accel.pipeline`; these components keep no
clock of their own and are told the cycle by their caller.
"""

from .interconnect import InterconnectModel
from .stats import RunCounters

__all__ = [
    "InterconnectModel",
    "RunCounters",
]
