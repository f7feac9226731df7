"""The execution backend: where a scheduler's step plan actually runs.

One class, :class:`ExecutionBackend` (see :mod:`repro.backend.base` and
``docs/ARCHITECTURE.md``, "Execution backends"): the tensor-parallel
degree changes step *timing* and KV *capacity*, never a token.
"""

from .base import BackendStep, ExecutionBackend

# Not a second class: the name benchmarks/perf/trace.py wraps
# (``LocalBackend.execute_step``) to time every engine's backend calls.
LocalBackend = ExecutionBackend

__all__ = ["BackendStep", "ExecutionBackend", "LocalBackend"]
