"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ranking-vec --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each invocation

1. checks once, outside any timed run, that short runs of the
   ``modjk-sharded`` and ``churn-dist`` specs leave state bitwise equal
   to the vectorized backend's (:func:`perfbench.checks.parity_failures`);
2. with ``--trace 0`` builds the workload, drives the client's closed
   loop — ``run_cycle()`` then an ``accuracy()`` read — for
   ``--seconds`` seconds with telemetry off, checks the outputs and
   times four more builds for ``setup_s``; with ``--trace 1`` it
   drives a traced simulation and an untraced twin of the same spec
   cycle by cycle for ``--seconds`` seconds and reduces the trace to
   per-layer metrics (:mod:`perfbench.layers`);
3. writes a manifest-stamped result file under ``--out`` and prints
   every metric with its unit, then one JSON line
   ``{"correct", "attempted", "failed", "metrics"}`` last.

``attempted`` counts cycles; ``failed`` counts cycles that raised plus,
when any output check fails (the parity check included), every cycle
of the run.  The metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import fields
from pathlib import Path
from time import perf_counter
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Builds timed per end-to-end run for ``setup_s``: the run's own
#: build plus four more after the loop; the median is reported.
SETUPS = 5

#: Cycles the untraced twin of a traced run is stepped for (the
#: overhead baseline); the traced simulation then runs on alone, so
#: it still reaches every workload's target within the run.
TWIN_CYCLES = 30


def declared_metrics(table: str) -> List[dict]:
    """The ``end_to_end`` or ``per_layer`` metric list of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)[table]


class Loop:
    """One simulation driven through the client's closed loop:
    ``run_cycle()`` followed by an ``accuracy()`` read.  ``bench`` (a
    :class:`~repro.obs.telemetry.Telemetry`, or the no-op default)
    records the benchmark's own spans around both calls."""

    def __init__(self, sim, target: float, bench) -> None:
        from repro.engine.trace import TraceLog

        self.sim = sim
        self.target = target
        self.bench = bench
        # The engines log each cycle's (departed, joined) counts as a
        # "churn" trace event; the live-count check needs them.
        self.churn_log = TraceLog(categories=("churn",))
        sim.trace = self.churn_log
        self.cycle_s: List[float] = []
        self.iteration_s: List[float] = []
        self.accuracy: List[float] = []
        self.converge_cycles = 0
        self.time_to_target_s: Optional[float] = None
        self.raised = 0

    @property
    def cycles(self) -> int:
        return len(self.cycle_s)

    def step(self, loop_start: float) -> bool:
        """Run one cycle and one poll; False if the cycle raised."""
        bench = self.bench
        bench.begin_cycle(self.cycles)
        try:
            t0 = perf_counter()
            with bench.span("run_cycle"):
                self.sim.run_cycle()
            t1 = perf_counter()
            with bench.span("accuracy"):
                accuracy = self.sim.accuracy()
            t2 = perf_counter()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.raised += 1
            return False
        finally:
            bench.end_cycle()
        self.cycle_s.append(t1 - t0)
        self.iteration_s.append(t2 - t0)
        self.accuracy.append(accuracy)
        if self.time_to_target_s is None and accuracy >= self.target:
            self.time_to_target_s = t2 - loop_start
            self.converge_cycles = self.cycles
        return True

    def failures(self, n: int) -> List[str]:
        from perfbench.checks import run_failures

        failures = run_failures(
            self.sim, n, self.churn_log, self.time_to_target_s is not None
        )
        if self.raised:
            failures.append(f"{self.raised} cycle(s) raised")
        return failures


def close(sim) -> None:
    """Stop a simulation's workers (the vectorized backend has none)."""
    if hasattr(sim, "close"):
        sim.close()


def stop_processes() -> None:
    """Wait for every process this run started to end: the worker
    processes (killed if one outlives its ``close()``), then the
    shared-memory resource tracker, which multiprocessing otherwise
    leaves running past the interpreter's exit."""
    for child in multiprocessing.active_children():
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live worker
    process it started (shared pages count once per process)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += sum(_vm_hwm_kb(child.pid) for child in multiprocessing.active_children())
    return kb / 1024.0


def nearest_rank(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * fraction) - 1)]


def timed_run(workload, seed: int, seconds: float, n: int) -> dict:
    """The end-to-end run: telemetry off."""
    from repro.experiments.config import build_simulation
    from repro.obs import NULL_TELEMETRY

    spec = workload.spec_for(seed, n)
    setup_s = []
    t0 = perf_counter()
    sim = build_simulation(spec)
    setup_s.append(perf_counter() - t0)
    loop = Loop(sim, workload.target, NULL_TELEMETRY)
    try:
        loop_start = perf_counter()
        deadline = loop_start + seconds
        while loop.step(loop_start) and perf_counter() < deadline:
            pass
        wall_s = perf_counter() - loop_start
        failures = loop.failures(n)
        rss_mb = peak_rss_mb()
    finally:
        close(sim)
    # Free the run's state so the extra builds do not stack on it.
    loop.sim = sim = None
    for _ in range(SETUPS - 1):
        t0 = perf_counter()
        extra = build_simulation(spec)
        setup_s.append(perf_counter() - t0)
        close(extra)
        del extra
    cycle_ms = [s * 1e3 for s in loop.cycle_s]
    metrics = {
        "cycles_per_s": loop.cycles / wall_s,
        "cycle_ms_p50": statistics.median(cycle_ms) if cycle_ms else 0.0,
        "cycle_ms_p90": nearest_rank(cycle_ms, 0.90) if cycle_ms else 0.0,
        "time_to_target_s": (
            loop.time_to_target_s if loop.time_to_target_s is not None else wall_s
        ),
        "accuracy_final": loop.accuracy[-1] if loop.accuracy else 0.0,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_mb,
    }
    return {
        "metrics": metrics,
        "attempted": loop.cycles + loop.raised,
        "raised": loop.raised,
        "failures": failures,
        "detail": {
            "cycles": loop.cycles,
            "loop_wall_s": wall_s,
            "converge_cycles": loop.converge_cycles,
            "setup_s": setup_s,
            "cycle_ms": cycle_ms,
            "accuracy": loop.accuracy,
        },
    }


def traced_run(workload, seed: int, seconds: float, n: int) -> dict:
    """The per-layer run: a traced simulation, and an untraced twin of
    the same spec stepped alternately with it for the first
    :data:`TWIN_CYCLES` cycles.  Twin and traced state are bitwise
    identical, so over those cycles the difference in their times is
    the tracing overhead."""
    from repro.experiments.config import build_simulation
    from repro.obs import NULL_TELEMETRY, CycleReport, Telemetry
    from perfbench.checks import BUS_STATS
    from perfbench.layers import layer_metrics, span_self_ms

    spec = workload.spec_for(seed, n)
    telemetry = Telemetry(engine=spec.backend, timeline=True)
    bench = Telemetry(engine="bench")
    with bench.span("setup"):
        traced = build_simulation(spec, telemetry=telemetry)
    try:
        plain = build_simulation(spec)
        try:
            traced_loop = Loop(traced, workload.target, bench)
            plain_loop = Loop(plain, workload.target, NULL_TELEMETRY)
            loop_start = perf_counter()
            deadline = loop_start + seconds
            while traced_loop.step(loop_start) and perf_counter() < deadline:
                if plain_loop.cycles < TWIN_CYCLES and not plain_loop.step(loop_start):
                    break
            failures = traced_loop.failures(n)
            stats = {name: getattr(traced.bus_stats, name) for name in BUS_STATS}
        finally:
            close(plain)
    finally:
        with bench.span("close"):
            close(traced)
        telemetry.flush()
        bench.flush()
    pairs = min(traced_loop.cycles, plain_loop.cycles)
    plain_s = sum(plain_loop.iteration_s[:pairs])
    overhead = sum(traced_loop.iteration_s[:pairs]) / plain_s - 1.0 if plain_s else 0.0
    attempted = traced_loop.cycles + traced_loop.raised
    metrics = layer_metrics(
        records=telemetry.records,
        bench_records=bench.records,
        backend=spec.backend,
        stats=stats,
        converge_cycles=traced_loop.converge_cycles,
        overhead_frac=overhead,
    )
    report = CycleReport(telemetry.records)
    spans = span_self_ms(telemetry.records)
    spans.update(
        {f"bench:{path}": ms for path, ms in span_self_ms(bench.records).items()}
    )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "raised": traced_loop.raised + plain_loop.raised,
        "failures": failures,
        "detail": {
            "cycles": traced_loop.cycles,
            "converge_cycles": traced_loop.converge_cycles,
            "worker_kernel_ns": report.counters.get("worker_kernel_ns", 0),
            "workers": report.worker_table(),
            "spans_self_ms": spans,
            "cycle_ms": [s * 1e3 for s in traced_loop.cycle_s],
            "plain_cycle_ms": [s * 1e3 for s in plain_loop.cycle_s],
            "accuracy": traced_loop.accuracy,
        },
    }


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _spec_dict(spec) -> dict:
    out = {}
    for field in fields(spec):
        value = getattr(spec, field.name)
        if value is not None and not isinstance(value, (str, int, float, bool, list, tuple)):
            value = f"{type(value).__name__}({vars(value)})"
        out[field.name] = value
    return out


def manifest(workload, spec, seed: int, seconds: float, trace: bool) -> dict:
    """What produced a result.  Compare only results whose ``nproc``
    (and spec) match."""
    import numpy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": workload.name,
        "target": workload.target,
        "spec": _spec_dict(spec),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, n: Optional[int] = None, workload=None) -> dict:
    """One invocation: the parity check, then the timed or traced run.
    Returns the result file's content; ``["result"]`` is the JSON line.
    ``workload`` overrides the named one (tests force check failures
    through it)."""
    from perfbench.checks import parity_failures
    from perfbench.workloads import N, WORKLOADS

    workload = workload or WORKLOADS[workload_name]
    n = N if n is None else n
    parity = []
    for name in ("modjk-sharded", "churn-dist"):
        parity += parity_failures(WORKLOADS[name].spec_for(seed))
    outcome = (traced_run if trace else timed_run)(workload, seed, seconds, n)
    failures = parity + outcome["failures"]
    attempted = max(outcome["attempted"], 1)
    failed = attempted if failures else outcome["raised"]
    metrics = outcome["metrics"]
    if trace:
        metrics["failed_frac"] = failed / attempted
    result = {
        "correct": not failures and not outcome["raised"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in declared_metrics("per_layer" if trace else "end_to_end")
        },
    }
    return {
        "manifest": manifest(workload, workload.spec_for(seed, n), seed, seconds, trace),
        "result": result,
        "failures": failures,
        "detail": outcome["detail"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--n", type=int, default=None,
        help="population override for smoke runs (default: the workload's 100000)",
    )
    parser.add_argument(
        "--out", default=str(ROOT / "perfbench" / "results"),
        help="directory receiving the manifest-stamped result file",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no src/repro or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    try:
        content = run(args.workload, args.seed, args.seconds, bool(args.trace), args.n)
    finally:
        stop_processes()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}.trace{args.trace}.seed{args.seed}.{time.time_ns()}.json"
    with open(path, "w") as handle:
        json.dump(content, handle, indent=1)
    for failure in content["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(f"{content['detail']['cycles']} timed cycles (the samples behind the percentiles)")
    for name, metric in content["result"]["metrics"].items():
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"result file: {path}")
    print(json.dumps(content["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
