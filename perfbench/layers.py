"""Per-layer metrics from one traced run.

The engine's :class:`~repro.obs.telemetry.Telemetry` records (cycle and
ambient — the ambient ones hold the work of the ``accuracy()`` poll
between cycles) and the benchmark's own span records are reduced to
the per-layer metrics named in ``BENCHMARK.json``.  Unless a name says
otherwise a metric is a mean per cycle, where one cycle is one
``run_cycle()`` plus the ``accuracy()`` read after it.  Span times are
span totals (a parent includes its children); worker sub-spans are
summed over workers.  A layer the workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs import CycleReport

__all__ = ["layer_metrics", "span_self_ms", "COMMANDS", "WIRE_COMMANDS"]

#: Every command the three workloads dispatch to sharded or
#: distributed workers (the ``metric_*`` ones serve ``accuracy()`` on
#: the distributed backend).
COMMANDS = (
    "ord_select",
    "conc_wave",
    "refresh_age",
    "refresh_fill_partners",
    "refresh_swap",
    "rank_fold",
    "rank_targets",
    "rank_apply",
    "rebalance_pack",
    "rebalance_unpack",
    "rebalance_commit",
    "metric_prepare",
    "metric_write",
    "metric_ranks",
    "metric_sdm",
)

#: Commands whose wire bytes are reported: the dispatched ones plus the
#: distributed backend's guest-row fetch.
WIRE_COMMANDS = COMMANDS + ("fetch_rows",)

_VECTORIZED_SPANS = {
    "vectorized.refresh_ms": "refresh",
    "vectorized.refresh.age_purge_ms": "refresh/age_purge",
    "vectorized.refresh.partner_select_ms": "refresh/partner_select",
    "vectorized.refresh.waves_ms": "refresh/waves",
    "vectorized.ranking_ms": "ranking",
    "vectorized.ranking.fold_ms": "ranking/fold",
    "vectorized.ranking.targets_ms": "ranking/targets",
    "vectorized.ranking.upd_deliver_ms": "ranking/upd_deliver",
    "vectorized.churn_ms": "churn",
}


class _Records:
    """Sums over a list of telemetry records."""

    def __init__(self, records: List[dict]) -> None:
        self.records = records
        self.cycle_records = [r for r in records if r["kind"] == "cycle"]

    def span_ns(self, path: str) -> List[int]:
        """Per-cycle totals of one span path (cycle records only)."""
        return [r["spans"].get(path, [0, 0])[0] for r in self.cycle_records]

    def cmd(self, command: str) -> tuple:
        """(ns, calls) of every ``cmd:<command>`` dispatch span, under
        any phase, in every record."""
        ns = calls = 0
        leaf = "cmd:" + command
        for record in self.records:
            for path, (elapsed, count) in record.get("spans", {}).items():
                if path.rsplit("/", 1)[-1] == leaf:
                    ns += elapsed
                    calls += count
        return ns, calls

    def worker_sub_ns(self, sub: str) -> int:
        """Worker sub-span ``sub`` summed over workers and records."""
        return sum(
            elapsed
            for record in self.records
            for spans in record.get("workers", {}).values()
            for path, (elapsed, _count) in spans.items()
            if path.rsplit("/", 1)[-1] == sub
        )

    def counter(self, name: str) -> float:
        return sum(r.get("counters", {}).get(name, 0) for r in self.records)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    *,
    records: List[dict],
    bench_records: List[dict],
    backend: str,
    stats: Dict[str, int],
    converge_cycles: int,
    overhead_frac: float,
) -> Dict[str, float]:
    """Reduce one traced run to its per-layer metrics.

    ``stats`` holds the run's final ``bus_stats`` counters;
    ``converge_cycles`` is the cycle count at which the target was
    first reached (0 if never); ``overhead_frac`` the traced run's
    slowdown against its untraced twin.  The caller adds
    ``failed_frac``, which depends on checks made outside the run."""
    engine = _Records(records)
    bench = _Records(bench_records)
    cycles = max(len(engine.cycle_records), 1)

    def per_cycle_ms(ns: float) -> float:
        return ns / cycles / 1e6

    metrics: Dict[str, float] = {}
    rebalance = engine.span_ns("rebalance")
    metrics["bulk.plan_ms"] = per_cycle_ms(sum(engine.span_ns("plan")))
    metrics["bulk.waves_per_cycle"] = (
        engine.counter("sampler.waves")
        if backend == "vectorized"
        else engine.cmd("refresh_swap")[1]
    ) / cycles
    metrics["bulk.rebalance_ms"] = per_cycle_ms(sum(rebalance))
    metrics["bulk.rebalance_ms_max"] = max(rebalance, default=0) / 1e6
    metrics["bulk.lost_per_cycle"] = stats["lost"] / cycles
    metrics["bulk.delayed_per_cycle"] = stats["delayed"] / cycles
    metrics["bulk.delivery_ratio"] = _ratio(stats["delivered"], stats["sent"])

    for name, path in _VECTORIZED_SPANS.items():
        metrics[name] = per_cycle_ms(sum(engine.span_ns(path)))
    metrics["vectorized.accuracy_ms"] = per_cycle_ms(sum(bench.span_ns("accuracy")))
    metrics["vectorized.sampler.exchanges_per_cycle"] = (
        engine.counter("sampler.exchanges") / cycles
    )
    metrics["vectorized.ranking.upd_messages_per_cycle"] = (
        engine.counter("ranking.upd_messages") / cycles
    )

    metrics["core.converge_cycles"] = converge_cycles
    metrics["core.swap_success_ratio"] = _ratio(stats["swaps"], stats["intended_swaps"])

    kernel = engine.counter("worker_kernel_ns")
    wait = engine.counter("barrier_wait_ns")
    metrics["sharded.barriers_per_cycle"] = engine.counter("barriers") / cycles
    metrics["sharded.kernel_ms"] = per_cycle_ms(kernel)
    metrics["sharded.barrier_wait_ms"] = per_cycle_ms(wait)
    metrics["sharded.utilization"] = _ratio(kernel, kernel + wait)
    for command in COMMANDS:
        metrics[f"sharded.cmd.{command}_ms"] = per_cycle_ms(engine.cmd(command)[0])

    mb = 1e6 * cycles
    metrics["distributed.wire_sent_mb_per_cycle"] = engine.counter("wire.sent_bytes") / mb
    metrics["distributed.wire_recv_mb_per_cycle"] = engine.counter("wire.recv_bytes") / mb
    metrics["distributed.frames_per_cycle"] = engine.counter("wire.frames") / cycles
    for command in WIRE_COMMANDS:
        metrics[f"distributed.wire.{command}_mb"] = (
            engine.counter(f"wire.{command}.sent_bytes")
            + engine.counter(f"wire.{command}.recv_bytes")
        ) / mb
    metrics["distributed.serialize_ms"] = per_cycle_ms(engine.worker_sub_ns("serialize"))
    metrics["distributed.deserialize_ms"] = per_cycle_ms(engine.worker_sub_ns("deserialize"))
    metrics["distributed.cmd.fetch_rows_ms"] = per_cycle_ms(engine.cmd("fetch_rows")[0])

    metrics["obs.overhead_frac"] = overhead_frac
    return metrics


def span_self_ms(records: List[dict]) -> Dict[str, float]:
    """Per-cycle self time (ms) of every span path of the cycle
    records, as :class:`~repro.obs.report.CycleReport` computes it
    (worker sub-spans grafted as ``<dispatch>/w<i>/<sub>``)."""
    report = CycleReport(records)
    cycles = max(report.cycles, 1)
    return {
        path: stat.self_ns / cycles / 1e6
        for path, stat in sorted(report.spans.items())
    }
