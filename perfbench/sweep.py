"""Run the benchmark over several seeds, one run at a time, and summarize each metric.

    python3 perfbench/sweep.py --workload cartan-warm --seeds 1-10 --seconds 30
    python3 perfbench/sweep.py --workload all --seeds 1-10 --seconds 30 --out summary.json

For every metric it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread: the
distance between the quartiles as a share of the median.  With --out the
runs and the summary are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in
             json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def seed_list(text: str) -> list[int]:
    """'1-10' or '1,5,9' or a mix such as '1-3,7'."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                         "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / abs(med) if med else None}
    summary["failed"] = sum(r["result"]["failed"] for r in runs)
    summary["attempted"] = sum(r["result"]["attempted"] for r in runs)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload run.py knows, or 'all' for those in BENCHMARK.json")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    report = {}
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        summary = summarize(runs)
        report[workload] = {"seeds": args.seeds, "summary": summary,
                            "runs": [r["result"] for r in runs],
                            "info": [r["info"] for r in runs]}
        print(f"{workload}: {summary['attempted']} ops, {summary['failed']} failed")
        for name, s in summary.items():
            if isinstance(s, dict):
                spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {name:40s} median {s['median']:.6g} {s['unit']:10s} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
