"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/spread.py --seeds 1-10 --label set1
    python3 benchmarks/spread.py --seeds 1-3 --workloads check-fan

Runs are sequential and interleave the workloads seed by seed, so that a
slow spell of the host touches every workload alike.  For each workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread, (Q3 - Q1) / median, and writes every run's result to
benchmarks/out/<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from bench_inputs import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 600


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="a seed or a range like 1-10")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=int,
                   default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--label", default="spread")
    args = p.parse_args()
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for seed in seeds(args.seeds):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{w} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results[w].append(result)
            print(f"{w} seed {seed}: attempted {result['attempted']}, failed "
                  f"{result['failed']}, " + ", ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    summary = {w: summarise(runs) for w, runs in results.items() if runs}
    for w, table in summary.items():
        print(f"\n{w} ({len(results[w])} runs)")
        for name, s in table.items():
            print(f"  {name:44s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} {s['unit']}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{args.label}.json").write_text(
        json.dumps({"runs": results, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
