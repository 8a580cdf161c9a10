"""Run-to-run spread of the end-to-end metrics, as the acceptance rule sees it.

    python3 perfbench/spread.py --workloads chain_boost_inproc --seeds 1-10 \
        [--seconds 20] [--out FILE]

Runs ``run.py --trace 0`` once per seed (one after another, never in
parallel), then prints, per workload and metric, the median of the values
and their spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``. ``--out`` keeps every run's
values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        rows = runs[workload] = []
        for seed in parse_seeds(args.seeds):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: result check failed", file=sys.stderr)
                return 1
            rows.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: {time.perf_counter() - started:.1f} s",
                  file=sys.stderr)
        for name, bound in bounds.items():
            values = [r[name] for r in rows]
            s = spread(values)
            if name != "setup_s":
                worst = max(worst, s / bound)
            print(f"{workload:20s} {name:16s} median {statistics.median(values):14.6g} "
                  f"spread {s:7.4f} bound {bound:5.3f} ({s / bound:5.1%} of bound)")
    print(f"largest spread outside setup_s: {worst:.1%} of its bound")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
