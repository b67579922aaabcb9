"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py --input IN.json --out OUT.json [--setup-only]
                                [--trace 0|1] [--spans SPANS.npz]

The worker imports the program from the checkout's `src`, turns the input
into the program's objects, writes "ready <wall clock>" to stdout (the
parent takes the set-up time from that stamp), runs every operation one after another and writes its
outputs and timings to OUT.json.  With --setup-only it stops
after "ready".
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402,F401
import kimura4  # noqa: E402
from kimura4 import groups, hilbert, markov, reducer  # noqa: E402
from kimura4.tables import Table  # noqa: E402

import workloads  # noqa: E402


def io_counters() -> dict[str, int]:
    """rchar/wchar of this process, or {} where /proc is not there."""
    try:
        with open("/proc/self/io") as fh:
            return {k: int(v) for k, v in
                    (line.split(":") for line in fh if line.strip())}
    except OSError:
        return {}


def prepare(op: dict) -> dict:
    """The program's own objects for one operation."""
    out = dict(op)
    if op["kind"] == "reduce":
        out["tables"] = (Table.from_strings(op["t0"]), Table.from_strings(op["t1"]))
    elif op.get("face"):
        out["face_spec"] = groups.NAMED_FACES[op["face"]]
    return out


def run_op(op: dict, spill_dir: str) -> dict:
    kind = op["kind"]
    face = op.get("face_spec")
    if kind == "census":
        report = markov.minimal_generator_census(op["n"], op["max_degree"], face)
        return census_output(report)
    if kind == "spill":
        before = io_counters()
        report = markov.minimal_generator_census(
            op["n"], op["max_degree"], face,
            member_budget=workloads.SPILL_MEMBER_BUDGET,
            shards=workloads.SPILL_SHARDS, cache_dir=spill_dir)
        after = io_counters()
        out = census_output(report)
        # None where /proc/self/io is not there
        out["write_bytes"] = after["wchar"] - before["wchar"] if after else None
        out["read_bytes"] = after["rchar"] - before["rchar"] if after else None
        return out
    if kind == "connectivity":
        res = markov.connectivity_check(op["n"], op["max_table_degree"],
                                        op["move_degree"])
        return res.to_json()
    if kind == "hilbert":
        return hilbert.build_record(op["n"], face, op["kmax"]).to_json()
    if kind == "reduce":
        t0, t1 = op["tables"]
        res = reducer.reduce_pair(t0, t1)
        return {"success": res.success, "message": res.message,
                "steps": [s.to_json() for s in res.steps],
                "fallbacks": sum(res.diagnostics.fallback_cases.values())}
    raise ValueError(f"unknown operation {kind!r}")


def census_output(report) -> dict:
    out = report.to_json()
    # the report rounds elapsed_s; keep every digit for the per-layer figures
    for row, raw in zip(out["degrees"], report.rows):
        row["elapsed_s"] = raw.elapsed_s
    return out


def timed(ops: list[dict], spill_dir: str, tracer=None) -> list[dict]:
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        t = time.perf_counter()
        try:
            out, error = run_op(op, spill_dir), None
        except Exception:  # one operation's failure must not end the round
            out, error = None, traceback.format_exc(limit=3)
        results.append({"elapsed_s": time.perf_counter() - t,
                        "output": out, "error": error})
    return results


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    args = p.parse_args()
    if not Path(kimura4.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"kimura4 imported from {kimura4.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads(Path(args.input).read_text())
    ops = [prepare(op) for op in spec["ops"]]
    print(f"ready {time.time()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t = time.perf_counter()
    results = timed(ops, spec["spill_dir"], tracer)
    wall = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "ops": results}
    if tracer is not None:
        out["trace"] = tracer.summary()
        if args.spans:
            tracer.save(args.spans)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
