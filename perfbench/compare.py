"""Compare two sets of benchmark results: a parent and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py parent.ndjson change.ndjson

Each directory holds the result files ``run.py --out DIR`` wrote.  For
every workload and end-to-end metric the comparison prints each side's
median and quartiles, how many seed-matched pairs the change wins
(ties count for neither side), and a verdict under the bounds in
``BENCHMARK.json``:

* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``gain`` — the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's own quartile spread;
* ``unresolved`` — the parent's quartile spread is wider than the
  bound, so "no worse" cannot be shown (unless every change run beats
  every parent run, which counts as a gain);
* ``same`` — otherwise.

For traced results it prints per-layer medians and the per-span
self-time deltas (ms per cycle).  Two ``.ndjson`` profiles (as
``--profile`` writes them) get the span deltas only.  Results are
compared only when both sides' manifests agree on ``nproc`` and the
workload spec.  Exit status 1 when any metric regresses.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> Dict[tuple, List[dict]]:
    """Result files of one side, grouped by (workload, trace)."""
    groups: Dict[tuple, List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        with open(path) as handle:
            content = json.load(handle)
        manifest = content["manifest"]
        groups[(manifest["workload"], bool(manifest["trace"]))].append(content)
    return groups


def quartiles(values: List[float]) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], wins: int, pairs: int,
            better: str, bound: float) -> str:
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "REGRESSION"
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if all_better or (pairs and wins >= 0.9 * pairs and abs(cm - pm) > p3 - p1):
        return "gain"
    if pm and (p3 - p1) / abs(pm) > bound:
        return "unresolved"
    return "same"


def _by_seed(contents: List[dict]) -> Dict[int, dict]:
    return {c["manifest"]["seed"]: c for c in contents}


def _compatible(parent: List[dict], change: List[dict]) -> str:
    """Why two groups may not be compared ('' when they may)."""
    contents = parent + change
    if len({c["manifest"]["nproc"] for c in contents}) > 1:
        return "manifests differ in nproc"
    specs = {
        json.dumps({k: v for k, v in c["manifest"]["spec"].items() if k != "seed"}, sort_keys=True)
        for c in contents
    }
    if len(specs) > 1:
        return "manifests differ in the workload spec"
    return ""


def compare_end_to_end(workload: str, parent: List[dict], change: List[dict],
                       declared: List[dict]) -> bool:
    """Print one workload's end-to-end table; True if any metric regressed."""
    p_seed, c_seed = _by_seed(parent), _by_seed(change)
    common = sorted(set(p_seed) & set(c_seed))
    print(f"\n{workload}: {len(parent)} parent run(s), {len(change)} change run(s), "
          f"{len(common)} seed-matched pair(s)")
    print(f"  {'metric':<18} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'wins':>7} {'bound':>6}  verdict")
    regressed = False
    for metric in declared:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        p = [c["result"]["metrics"][name]["value"] for c in parent]
        c = [c["result"]["metrics"][name]["value"] for c in change]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(
            1 for s in common
            if sign * (c_seed[s]["result"]["metrics"][name]["value"]
                       - p_seed[s]["result"]["metrics"][name]["value"]) < 0
        )
        result = verdict(p, c, wins, len(common), better, bound)
        regressed |= result == "REGRESSION"
        print(f"  {name:<18} {'/'.join(f'{v:.4g}' for v in quartiles(p)):>30} "
              f"{'/'.join(f'{v:.4g}' for v in quartiles(c)):>30} "
              f"{wins:>3}/{len(common):<3} {bound:>6.2f}  {result}")
    failed = [c["manifest"]["seed"] for c in parent + change if c["result"]["failed"]]
    if failed:
        print(f"  runs with failed cycles (seeds): {failed}")
    return regressed


def _median_map(maps: List[Dict[str, float]]) -> Dict[str, float]:
    keys = sorted({k for m in maps for k in m})
    return {k: statistics.median(m.get(k, 0.0) for m in maps) for k in keys}


def print_span_diff(parent: Dict[str, float], change: Dict[str, float], limit: int = 40) -> None:
    """Per-span self-time deltas (ms per cycle), largest change first."""
    paths = set(parent) | set(change)
    rows = sorted(
        paths, key=lambda p: -abs(change.get(p, 0.0) - parent.get(p, 0.0))
    )[:limit]
    print(f"  {'span (self ms/cycle)':<48} {'parent':>10} {'change':>10} {'delta':>10} {'delta%':>8}")
    for path in rows:
        a, b = parent.get(path, 0.0), change.get(path, 0.0)
        pct = f"{(b - a) / a * 100:+.1f}" if a else "new"
        print(f"  {path:<48} {a:>10.3f} {b:>10.3f} {b - a:>+10.3f} {pct:>8}")


def compare_traced(workload: str, parent: List[dict], change: List[dict],
                   declared: List[dict]) -> None:
    print(f"\n{workload} (traced): {len(parent)} parent run(s), {len(change)} change run(s)")
    p, c = (
        _median_map([{k: v["value"] for k, v in r["result"]["metrics"].items()} for r in side])
        for side in (parent, change)
    )
    print(f"  {'per-layer metric (median)':<48} {'parent':>12} {'change':>12}")
    for metric in declared:
        name = metric["name"]
        if p.get(name) or c.get(name):
            print(f"  {name:<48} {p.get(name, 0.0):>12.5g} {c.get(name, 0.0):>12.5g} {metric['unit']}")
    print_span_diff(
        _median_map([r["detail"]["spans_self_ms"] for r in parent]),
        _median_map([r["detail"]["spans_self_ms"] for r in change]),
    )


def profile_self_ms(path: str) -> Dict[str, float]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.layers import span_self_ms
    from repro.obs import read_ndjson

    return span_self_ms(read_ndjson(path))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent_path, change_path = args
    if parent_path.endswith(".ndjson") and change_path.endswith(".ndjson"):
        print_span_diff(profile_self_ms(parent_path), profile_self_ms(change_path))
        return 0
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    parent, change = load(Path(parent_path)), load(Path(change_path))
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, traced = key
        reason = _compatible(parent[key], change[key])
        if reason:
            print(f"\n{workload}: not compared, {reason}")
            continue
        if traced:
            compare_traced(workload, parent[key], change[key], benchmark["per_layer"])
        else:
            regressed |= compare_end_to_end(
                workload, parent[key], change[key], benchmark["end_to_end"]
            )
    for key in sorted(set(parent) ^ set(change)):
        print(f"\n{key[0]}{' (traced)' if key[1] else ''}: results on one side only")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
