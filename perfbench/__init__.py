"""The repository benchmark: time-to-accuracy and cycle latency of the
bulk slicing engines on three closed-loop workloads, with a traced
per-layer breakdown.  Run ``python3 perfbench/run.py --help``; see
``perfbench/README.md``."""
