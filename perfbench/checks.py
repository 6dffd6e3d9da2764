"""Output checks.  Any failure marks every cycle of its run as failed.

* :func:`parity_failures` — a short run of a multi-process spec must
  leave state bitwise equal to the vectorized backend's for the same
  spec and seed (the bulk backends' contract).
* :func:`run_failures` — end-of-run invariants of one timed run.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.engine.trace import TraceLog
from repro.experiments.config import RunSpec, build_simulation
from repro.vectorized.state import COLUMNS

__all__ = ["parity_failures", "run_failures", "BUS_STATS", "PARITY_N", "PARITY_CYCLES"]

#: Size and length of the parity runs: small, but long enough to pass
#: one compaction (``rebalance_every=10``) and several fault landings.
PARITY_N = 2000
PARITY_CYCLES = 12

#: The ``bus_stats`` counters compared by the parity check and
#: recorded by traced runs.
BUS_STATS = ("sent", "delivered", "lost", "delayed", "swaps", "intended_swaps")


def parity_failures(spec: RunSpec) -> List[str]:
    """Run ``spec`` (shrunk to :data:`PARITY_N`) on its own backend and
    on the vectorized one; return a message per diverged column."""
    spec = spec.with_overrides(n=PARITY_N)
    reference = build_simulation(spec.with_overrides(backend="vectorized", workers=None))
    candidate = build_simulation(spec)
    try:
        for _ in range(PARITY_CYCLES):
            reference.run_cycle()
            candidate.run_cycle()
        state = candidate.sync_state() if hasattr(candidate, "sync_state") else candidate.state
        expected = reference.state
        failures = []
        if state.size != expected.size:
            failures.append(f"size {state.size} != {expected.size}")
        size = min(state.size, expected.size)
        for column in COLUMNS:
            if not np.array_equal(getattr(state, column)[:size], getattr(expected, column)[:size]):
                failures.append(f"column {column} diverged")
        for name in BUS_STATS:
            got, want = getattr(candidate.bus_stats, name), getattr(reference.bus_stats, name)
            if got != want:
                failures.append(f"bus_stats.{name} {got} != {want}")
        return [f"{spec.backend} parity: {f}" for f in failures]
    finally:
        candidate.close()


def run_failures(sim, n: int, churn_log: TraceLog, reached: bool) -> List[str]:
    """End-of-run output checks of one workload run.  ``churn_log``
    is the run's ``TraceLog`` of ``churn`` events, whose details are
    ``(departed, joined)`` counts."""
    failures = []
    if not reached:
        failures.append("target accuracy not reached within the run")
    departures = sum(e.details[0] for e in churn_log.events("churn"))
    joins = sum(e.details[1] for e in churn_log.events("churn"))
    live = sim.live_count
    claimed = sum(sim.slice_sizes())
    if claimed != live:
        failures.append(f"sum(slice_sizes()) = {claimed} != live_count = {live}")
    if live != n + joins - departures:
        failures.append(
            f"live_count {live} != n + joins - departures = "
            f"{n} + {joins} - {departures}"
        )
    stats = sim.bus_stats
    if stats.delivered + stats.lost > stats.sent:
        failures.append(
            f"bus_stats delivered {stats.delivered} + lost {stats.lost} > sent {stats.sent}"
        )
    return failures
