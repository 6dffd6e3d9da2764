"""The benchmark's workloads: one :class:`~repro.experiments.config.RunSpec`
and one accuracy target each.

Every workload is 10 slices, view size 20, n = 100 000 and at most two
workers.  The seed is the benchmark's argument; the spec is otherwise
fixed, so a result is a pure function of (workload, seed) plus the
machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.config import RunSpec
from repro.workloads import ParetoAttributes

__all__ = ["Workload", "WORKLOADS", "N"]

#: Population of every workload.
N = 100_000

_BASE = RunSpec(n=N, slice_count=10, view_size=20)


@dataclass(frozen=True)
class Workload:
    """A named spec plus the accuracy a run must reach."""

    name: str
    why: str
    spec: RunSpec
    target: float

    def spec_for(self, seed: int, n: int = N) -> RunSpec:
        return self.spec.with_overrides(seed=seed, n=n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ranking-vec",
            why=(
                "single-process vectorized ranking: the refresh waves and "
                "the ranking fold/targets do nearly all the work"
            ),
            spec=_BASE.with_overrides(backend="vectorized", protocol="ranking"),
            target=0.90,
        ),
        Workload(
            name="modjk-sharded",
            why=(
                "mod-jk over 2 shared-memory workers: sharded kernels, "
                "barriers and the ord_select serial spine"
            ),
            spec=_BASE.with_overrides(
                backend="sharded", workers=2, protocol="mod-jk"
            ),
            # 0.98 is reached at every seed too, but at cycle 31-41: the
            # curve is nearly flat there, so the crossing cycle alone
            # spreads 19% (IQR/median) across seeds.  0.97 is crossed
            # at cycle 22-25.  See perfbench/README.md.
            target=0.97,
        ),
        Workload(
            name="churn-dist",
            why=(
                "2 TCP workers, Pareto keys, 1%/cycle churn, loss, delay "
                "and compaction: the mutation and wire paths"
            ),
            spec=_BASE.with_overrides(
                backend="distributed",
                workers=2,
                protocol="ranking",
                attributes=ParetoAttributes(1.5),
                churn="regular",
                churn_rate=0.01,
                churn_period=1,
                correlated_churn=False,
                loss=0.1,
                delay="0.3:3",
                rebalance_every=10,
            ),
            target=0.85,
        ),
    )
}
