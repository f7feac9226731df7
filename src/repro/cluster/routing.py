"""Routing policies of the cluster layer.

The router is the cluster's one decision point: every arriving request
must be pinned to exactly one engine replica before it is submitted, and
the choice is irrevocable (the KV cache the request builds lives on that
replica).  Three policies cover the production spectrum:

* **round-robin** (``"rr"``) — the stateless baseline: requests cycle
  through the live replicas in submission order.  Perfectly balanced
  when requests are uniform, blind to everything else.
* **least-loaded** (``"least-loaded"``) — balances on each replica's
  *backlog*: the token positions still to execute across its queued and
  running requests (:attr:`repro.serve.Scheduler.outstanding_tokens`),
  inflated by the replica's current KV-pool pressure so a
  memory-saturated replica (about to preempt) looks busier than its
  token count alone suggests.
* **prefix-affinity** (``"affinity"``) — hashes the prompt's leading
  block span (the unit of the radix prefix cache) into a session key, so
  requests that share a prefix — multi-turn sessions, common system
  preambles — carry the same key.  A key's *first* request is placed on
  the least-loaded replica and the key sticks there, so every later
  request with the same prefix lands on the replica whose cache already
  holds it — turning cross-request prefix sharing from a single-engine
  feature into a cluster-wide one, while new sessions spread with the
  load instead of clumping wherever a modulus points.  Stickiness
  ignores load drift, so a hot prefix would melt one replica; the policy
  spills to the least-loaded replica (re-pinning the key there) when the
  sticky target's backlog exceeds a slack-padded multiple of the cluster
  minimum, trading one cold prefill for bounded imbalance.

Policies see replicas through a tiny duck-typed surface — ``index`` (a
stable integer id) and ``load_score`` — so they unit-test against plain
stubs without building engines.  All decisions are deterministic: ties
break on the replica index and the affinity hash is a seeded CRC over
token bytes, so a cluster run is exactly reproducible.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from collections import Counter
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "ROUTES",
    "LeastLoadedPolicy",
    "PrefixAffinityPolicy",
    "RoundRobinPolicy",
    "Router",
    "RoutingPolicy",
    "build_routing_policy",
]

#: Routing policies understood by :func:`build_routing_policy` and the
#: ``serve-bench --route`` flag.
ROUTES = ("rr", "least-loaded", "affinity")


class RoutingPolicy(ABC):
    """Picks the replica one request is pinned to."""

    name: str = "abstract"

    @abstractmethod
    def select(self, replicas: Sequence, tokens: Sequence[int]):
        """Choose one of ``replicas`` for a request with prompt ``tokens``.

        ``replicas`` is the non-empty list of routable candidates (live,
        not draining), each exposing ``index`` and ``load_score``.
        """


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through the candidates in submission order."""

    name = "rr"

    def __init__(self) -> None:
        self._next = 0

    def select(self, replicas: Sequence, tokens: Sequence[int]):
        choice = replicas[self._next % len(replicas)]
        self._next += 1
        return choice


class LeastLoadedPolicy(RoutingPolicy):
    """Send the request to the replica with the smallest backlog."""

    name = "least-loaded"

    def select(self, replicas: Sequence, tokens: Sequence[int]):
        return min(replicas, key=lambda r: (r.load_score, r.index))


#: The affinity spill guard: a sticky target whose load score exceeds
#: ``SPILL_FACTOR * (coldest load + SPILL_SLACK_TOKENS)`` is passed over.
SPILL_FACTOR = 2.0
SPILL_SLACK_TOKENS = 128


class PrefixAffinityPolicy(RoutingPolicy):
    """Sticky prefix-keyed placement; spill when the sticky target is hot.

    ``block_tokens`` is the prefix-cache granularity: prompts that agree
    on their first block hash identically, so session turns and
    shared-preamble tenants carry one key.  A key seen for the first
    time is pinned to the least-loaded replica (new sessions follow the
    load); a repeat key follows its pin (its prefix is in that replica's
    cache).  The spill guard compares the sticky target's ``load_score``
    against ``SPILL_FACTOR * (min load + SPILL_SLACK_TOKENS)``; the
    slack keeps a near-empty cluster from spilling on the first sign of
    load (losing all affinity), while the factor bounds how lopsided a
    hot prefix may make the cluster.  A spill re-pins the key, so a
    migrated session pays one cold prefill, not one per turn.
    """

    name = "affinity"

    def __init__(self, block_tokens: int = 16) -> None:
        if block_tokens <= 0:
            raise ValueError("block_tokens must be positive")
        self.block_tokens = block_tokens
        #: Affinity accounting the router surfaces: repeat-key requests
        #: routed to the replica the key last landed on, and requests
        #: diverted by the load guard.
        self.hits = 0
        self.spills = 0
        self._last_target: Dict[int, int] = {}

    def prefix_key(self, tokens: Sequence[int]) -> int:
        """Stable hash of the prompt's leading block span."""
        span = np.asarray(list(tokens[:self.block_tokens]), dtype=np.int64)
        return zlib.crc32(span.tobytes())

    def select(self, replicas: Sequence, tokens: Sequence[int]):
        key = self.prefix_key(tokens)
        by_index = {r.index: r for r in replicas}
        coldest = min(replicas, key=lambda r: (r.load_score, r.index))
        sticky = by_index.get(self._last_target.get(key, -1))
        if sticky is None:
            # First touch — or the pinned replica drained/retired under
            # the key: place with the load and pin there.
            choice = coldest
        else:
            threshold = SPILL_FACTOR * (coldest.load_score + SPILL_SLACK_TOKENS)
            if sticky.load_score > threshold:
                self.spills += 1
                choice = coldest
            else:
                choice = sticky
                self.hits += 1
        self._last_target[key] = choice.index
        return choice


def build_routing_policy(name: str, block_tokens: int = 16) -> RoutingPolicy:
    """Instantiate the named routing policy."""
    if name == "rr":
        return RoundRobinPolicy()
    if name == "least-loaded":
        return LeastLoadedPolicy()
    if name == "affinity":
        return PrefixAffinityPolicy(block_tokens=block_tokens)
    raise ValueError(f"route must be one of {ROUTES}, got {name!r}")


class Router:
    """A routing policy plus the decision accounting the report surfaces."""

    def __init__(self, policy: RoutingPolicy) -> None:
        self.policy = policy
        self.decisions: Counter = Counter()

    @property
    def n_decisions(self) -> int:
        return sum(self.decisions.values())

    def route(self, replicas: Sequence, tokens: Sequence[int]):
        """Pick a replica for the request and record the decision."""
        if not replicas:
            raise ValueError("no routable replicas")
        choice = self.policy.select(list(replicas), tokens)
        self.decisions[choice.index] += 1
        return choice

    def stats(self) -> Dict[str, object]:
        """Routing-decision counters for the cluster report."""
        stats: Dict[str, object] = {
            "route": self.policy.name,
            "n_decisions": self.n_decisions,
            "decisions": {str(index): count for index, count
                          in sorted(self.decisions.items())},
        }
        if isinstance(self.policy, PrefixAffinityPolicy):
            stats["affinity_hits"] = self.policy.hits
            stats["affinity_spills"] = self.policy.spills
        return stats


def routable(replicas: Sequence, pool: str) -> List:
    """The live, non-draining members of ``pool`` among ``replicas``."""
    return [r for r in replicas
            if r.pool == pool and not r.draining and not r.retired]
