"""Smoke tests of the benchmark itself at a tiny population.

Targets are lowered where a tiny population cannot reach the
workload's own (mod-jk plateaus below 0.97 at n = 2000); the forced
failure test raises one above 1 instead.
"""

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import compare
from perfbench import run as bench
from perfbench.workloads import WORKLOADS

SMALL_N = 2000

with open(bench.ROOT / "BENCHMARK.json") as _handle:
    DECLARED = json.load(_handle)


def _cli(tmp_path, workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "3", "--trace", str(trace), "--n", str(SMALL_N),
         "--out", str(tmp_path)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), list(tmp_path.glob("*.json"))


@pytest.fixture(scope="module")
def traced_sharded():
    workload = replace(WORKLOADS["modjk-sharded"], target=0.5)
    return bench.run("modjk-sharded", seed=2, seconds=1.0, trace=True, n=SMALL_N, workload=workload)


def test_benchmark_json_matches_workloads_and_metrics():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in DECLARED["end_to_end"]}


@pytest.mark.parametrize("workload, trace, table", [
    ("ranking-vec", 0, "end_to_end"),
    ("churn-dist", 1, "per_layer"),
])
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace, table):
    result, files = _cli(tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[table]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    (path,) = files
    manifest = json.loads(path.read_text())["manifest"]
    for key in ("commit", "dirty", "nproc", "numpy", "python", "spec", "seed", "seconds"):
        assert key in manifest
    assert manifest["spec"]["n"] == SMALL_N


@pytest.mark.parametrize("trace", [False, True])
def test_forced_check_failure_lands_in_failed_frac(trace):
    unreachable = replace(WORKLOADS["ranking-vec"], target=1.01)
    content = bench.run("ranking-vec", seed=1, seconds=0.3, trace=trace, n=SMALL_N, workload=unreachable)
    result = content["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "target accuracy not reached within the run" in content["failures"]
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 1.0


def test_traced_worker_busy_time_sums_to_kernel_time(traced_sharded):
    detail = traced_sharded["detail"]
    busy = sum(row["busy_ns"] for row in detail["workers"])
    assert busy == detail["worker_kernel_ns"] > 0
    kernel_ms = traced_sharded["result"]["metrics"]["sharded.kernel_ms"]["value"]
    assert kernel_ms == pytest.approx(busy / detail["cycles"] / 1e6)


def test_traced_run_reports_sharded_layers(traced_sharded):
    metrics = {k: v["value"] for k, v in traced_sharded["result"]["metrics"].items()}
    assert traced_sharded["result"]["correct"], traced_sharded["failures"]
    assert metrics["sharded.barriers_per_cycle"] > 0
    assert metrics["sharded.cmd.ord_select_ms"] > 0
    assert metrics["distributed.wire_sent_mb_per_cycle"] == 0
    assert 0 < metrics["core.swap_success_ratio"] <= 1
    assert any(path.startswith("bench:") for path in traced_sharded["detail"]["spans_self_ms"])


#: Runs a command as a child subreaper, so processes it orphans are
#: re-parented here, and prints the command lines of those still alive
#: once it has exited.
_REAPER = """
import ctypes, os, subprocess, sys
prctl = ctypes.CDLL(None).prctl
prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
prctl.restype = ctypes.c_int
if prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
    sys.exit("prctl failed")
code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        with open(f"/proc/{pid}/cmdline") as handle:
            cmdline = handle.read().replace(chr(0), " ")
    except OSError:
        continue
    if ppid == os.getpid():
        left.append(cmdline)
        os.kill(int(pid), 9)
        os.waitpid(int(pid), 0)
print(code, left)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="uses prctl and /proc")
def test_cli_leaves_no_process_running(tmp_path):
    # ranking-vec runs no worker itself, but its parity check starts
    # sharded and distributed workers and the shared-memory tracker.
    done = subprocess.run(
        [sys.executable, "-c", _REAPER, sys.executable, "perfbench/run.py",
         "--workload", "ranking-vec", "--seed", "3", "--seconds", "0.5",
         "--trace", "0", "--n", str(SMALL_N), "--out", str(tmp_path)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.stdout.split() == ["0", "[]"], done.stdout + done.stderr


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(parent, [120.0] * 5, 0, 5, "lower", 0.1) == "REGRESSION"
    assert compare.verdict(parent, [90.0] * 5, 5, 5, "lower", 0.1) == "gain"
    assert compare.verdict(parent, [100.2, 100.0, 99.8, 100.1, 99.9], 2, 5, "lower", 0.1) == "same"
    assert compare.verdict([50.0, 100.0, 150.0], [100.0] * 3, 1, 3, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, [80.0] * 5, 0, 5, "higher", 0.1) == "REGRESSION"


def test_compare_refuses_mismatched_core_counts():
    def content(nproc):
        return {"manifest": {"nproc": nproc, "spec": {"n": 10, "seed": 1}}}

    assert compare._compatible([content(2)], [content(2)]) == ""
    assert "nproc" in compare._compatible([content(2)], [content(4)])
