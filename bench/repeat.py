"""Run the benchmark on several seeds and summarise each end-to-end metric.

    python3 bench/repeat.py --seeds 1-10 [--workloads a,b] [--out PATH]

Run from the root of a checkout.  Runs are sequential, untraced, and use
``run_seconds`` from ``BENCHMARK.json``.  For each workload and metric it
reports the values, their median, their quartiles (``statistics.quantiles``
with ``n=4``) and the spread: the distance between the quartiles as a share
of the median, the figure each metric's ``bound`` is set against.  Any run
that reports a wrong answer stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def seed_list(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    summary = {"commit": run.commit_of(ROOT), "source_digest": run.source_digest(ROOT)}
    for workload in args.workloads.split(","):
        values: dict = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: wrong answers", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}", flush=True)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": vals,
            }
            print(f"  {name}: median {median:.6g} spread {rows[name]['spread']:.3f}", flush=True)
        summary[workload] = rows
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
