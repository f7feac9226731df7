"""Continuous-batching serving layer over the simulated accelerator.

This package turns the one-request-at-a-time :class:`repro.SpeedLLM`
stack into a multi-tenant serving engine: requests are queued, admitted
under a KV-memory budget, and decoded together in batched accelerator
steps that stream each weight tile once for the whole batch.  Clients
talk to it through the typed frontend in :mod:`repro.api`
(:class:`~repro.api.SamplingParams` in, streaming
:class:`~repro.api.RequestOutput` increments out).  See
``docs/ARCHITECTURE.md`` for the end-to-end request lifecycle.
"""

from .engine import AsyncServingEngine, ServingEngine
from .metrics import RequestMetrics, ServeReport, StepTotals
from .policy import (
    POLICIES,
    FairnessPolicy,
    FIFOPolicy,
    PriorityPolicy,
    SchedulingPolicy,
    build_policy,
)
from .request import Request, RequestQueue, RequestState
from .scheduler import Scheduler, SchedulerConfig

__all__ = [
    "AsyncServingEngine",
    "ServingEngine",
    "RequestMetrics",
    "ServeReport",
    "StepTotals",
    "Request",
    "RequestQueue",
    "RequestState",
    "Scheduler",
    "SchedulerConfig",
    "SchedulingPolicy",
    "FIFOPolicy",
    "PriorityPolicy",
    "FairnessPolicy",
    "POLICIES",
    "build_policy",
]
