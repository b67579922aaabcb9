"""Run a workload with several seeds and report each metric's quartiles.

    python3 perfbench/spread.py --workload reduce --seeds 1-10 [--out runs.json]

Each run measures for BENCHMARK.json's run_seconds.  Prints, per
end-to-end metric, the median, the quartiles and the spread: the distance
between the quartiles as a share of the median, the figure each bound in
BENCHMARK.json is meant to hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True)
    p.add_argument("--out")
    args = p.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(RUN_SECONDS),
             "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
            flush=True)
    print(f"{args.workload}: attempted {[r['attempted'] for r in runs]} "
          f"failed {[r['failed'] for r in runs]} "
          f"correct {all(r['correct'] for r in runs)}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:16s} median {med:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}"
              f"  spread {spread:6.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
