"""The kimura4 benchmark: one workload, checked outputs, one JSON line.

    python3 perfbench/run.py --workload census|spill|hilbert|reduce
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
Each round of the workload runs in a fresh worker process (worker.py) and
rounds repeat until S seconds are used, at least one.  Workloads that
reduce no pairs themselves also run a short pair probe, in about a third of
the measuring time, because every workload reports every end-to-end metric.
Every output is checked against references computed here without the
program (refs.py).
The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1.  Details of every round, and with --trace 1 the spans, are
written under perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import workloads  # noqa: E402

# Set-up time is the median over this many set-up-only starts at each end
# of the run and every round's start, so it never rests on one process
# start nor on one moment of the machine.
SETUP_PROBES = 3
# The share of the measuring time the pair probe gets.  On a shared 2-core
# x86 machine a fixed CPU loop ran up to 1.7x slower for seconds at a time,
# so the probe's percentiles hold steady only over several seconds of
# probing spread through the run: one probe of about 3 s per run spread
# the 95th percentile by 0.21 over ten seeds.
PROBE_SHARE = 1 / 3
# A run must end within 180 s; no worker is started past this.
RUN_LIMIT_S = 170.0


def run_worker(spec_path: Path, out_path: Path | None, timeout: float, *,
               trace: bool = False, spans: Path | None = None
               ) -> tuple[float | None, dict | None, str]:
    """(set-up seconds, worker output, error text) of one worker process;
    without out_path the worker only sets up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--input", str(spec_path)]
    if out_path is None:
        cmd.append("--setup-only")
    else:
        cmd += ["--out", str(out_path), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # the worker stamps the wall clock when it is ready; both stamps are
    # read from the same clock, and nothing is read from the worker until
    # it has ended, so the timeout holds throughout
    t0 = time.time()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None, None, "worker timed out"
    finally:  # also on SIGTERM
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    word, _, stamp = out.partition("\n")[0].partition(" ")
    setup = float(stamp) - t0 if word == "ready" else None
    if proc.returncode != 0 or setup is None:
        return setup, None, f"worker exited {proc.returncode}: {err[-2000:]}"
    if out_path is None:
        return setup, None, ""
    out = json.loads(out_path.read_text())
    out_path.unlink()
    return setup, out, ""


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Checker:
    """Expected outputs per operation, computed once per run."""

    def __init__(self) -> None:
        self._expected: dict = {}

    def expected(self, op: dict) -> dict | None:
        kind = op["kind"]
        if kind in ("census", "spill"):
            key = (op["n"], op["face"], op["max_degree"])
            if key not in self._expected:
                self._expected[key] = refs.census_references(*key)
        elif kind == "hilbert":
            key = (op["n"], op["face"], op["kmax"])
            if key not in self._expected:
                n, face, kmax = key
                exp = {"dim": refs.dimension(n, face)}
                if face in refs.FACE_SERIES:
                    exp["values"] = refs.series_values(ROOT, face, kmax)
                else:
                    # brute force is cheap up to dilation 5 at n=3; the
                    # h-vector of the n=3 model has degree 6
                    exp["prefix"] = refs.brute_force_values(n, face, min(kmax, 5))
                    exp["h_zero_from"] = 7
                self._expected[key] = exp
        else:
            return None
        return self._expected[key]

    def problems(self, op: dict, out: dict) -> list[str]:
        kind = op["kind"]
        if kind == "census":
            return refs.check_census(out, self.expected(op))
        if kind == "spill":
            return (refs.check_census(out, self.expected(op))
                    + refs.check_spilled(out))
        if kind == "connectivity":
            return refs.check_connectivity(out, op["max_table_degree"])
        if kind == "hilbert":
            return refs.check_hilbert(out, self.expected(op))
        if kind == "reduce":
            return refs.check_trace(op["t0"], op["t1"], out["steps"])
        raise ValueError(kind)


def tally(ops: list[dict], results: list[dict], checker: Checker,
          log: list[str]) -> tuple[int, bool]:
    """(failed, correct) over one worker's operations.

    An operation fails when it raises, when the reducer gives up, or when
    its output fails a check; only the last makes the run incorrect.
    """
    failed = 0
    correct = True
    for i, (op, res) in enumerate(zip(ops, results)):
        where = f"{op['kind']} #{i}"
        if res["error"] is not None:
            failed += 1
            log.append(f"{where}: raised: {res['error']}")
            continue
        if op["kind"] == "reduce" and not res["output"]["success"]:
            failed += 1
            log.append(f"{where}: not reduced: {res['output']['message']}")
            continue
        problems = checker.problems(op, res["output"])
        if problems:
            failed += 1
            correct = False
            log.append(f"{where}: " + "; ".join(problems))
    return failed, correct


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[-1]


def end_to_end(setups: list[float], rounds: list[dict],
               pair_ms: dict[int, list[float]]) -> dict:
    """The end-to-end metrics; each pair's latency is its median over the
    run's repetitions, so the stretches of the run in which the machine was
    slow move it less."""
    latency = [statistics.median(v) for v in pair_ms.values()]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.fmean(r["wall_s"] for r in rounds),
                   "unit": "s"},
        "peak_rss_mb": {"value": statistics.fmean(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
        "pair_p50_ms": {"value": statistics.median(latency), "unit": "ms"},
        "pair_p95_ms": {"value": p95(latency), "unit": "ms"},
    }


# name -> unit; the order of BENCHMARK.json's per-layer list
LAYER_UNITS = {
    "markov.census_s": "s", "markov.degree3_s": "s",
    "markov.multisets_per_s": "1/s", "markov.connectivity_s": "s",
    "markov.multiset_index_array_s": "s",
    "markov.spill_write_bytes": "bytes", "markov.spill_read_bytes": "bytes",
    "markov.multisets": "count", "markov.fibers": "count",
    "markov.components": "count",
    "groups.enumerate_flows_calls": "count", "groups.enumerate_flows_s": "s",
    "hilbert.values_s": "s", "hilbert.dimension_s": "s",
    "hilbert.series_s": "s", "hilbert.candidates": "count",
    "hilbert.profiles": "count", "hilbert.kept_per_candidate": "ratio",
    "hilbert.profiles_per_s": "1/s",
    "reducer.reduce_pair_s": "s", "reducer.pair_search_calls": "count",
    "reducer.pair_search_s": "s", "reducer.hamming2_calls": "count",
    "reducer.hamming3_calls": "count", "reducer.hamming_ge4_calls": "count",
    "reducer.merge_columns_calls": "count", "reducer.moves": "count",
    "reducer.moves_deg2": "count", "reducer.moves_deg3": "count",
    "reducer.moves_deg4": "count", "reducer.fallbacks": "count",
    "moves.profile_fiber_calls": "count", "moves.profile_fiber_s": "s",
    "moves.profile_fiber_members": "count", "moves.fiber_cap_hits": "count",
    "moves.fiber_cache_hits": "count", "moves.fiber_cache_misses": "count",
    "moves.fiber_cache_hit_ratio": "ratio", "moves.trace_is_valid_s": "s",
    "tables.hamming_distance_calls": "count", "tables.hamming_distance_s": "s",
    "tables.min_hamming_pair_calls": "count",
    "tables.profile_of_rows_calls": "count",
    **{f"{layer}.{what}": unit
       for layer in ("markov", "groups", "hilbert", "reducer", "moves", "tables")
       for what, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    "trace.spans": "count", "trace.overhead_pct": "%",
}


def layer_values(ops: list[dict], rnd: dict) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    tr = rnd["trace"]
    fn = tr["functions"]
    calls = {k: v["calls"] for k, v in fn.items()}
    total = {k: v["total_s"] for k, v in fn.items()}
    m = {
        "markov.census_s": total["markov.minimal_generator_census"],
        "markov.connectivity_s": total["markov.connectivity_check"],
        "markov.multiset_index_array_s": total["markov.multiset_index_array"],
        "groups.enumerate_flows_calls": calls["groups.enumerate_flows"],
        "groups.enumerate_flows_s": total["groups.enumerate_flows"],
        "hilbert.values_s": total["hilbert.hilbert_values"],
        "hilbert.dimension_s": total["hilbert.polytope_dimension"],
        "hilbert.series_s": total["hilbert.h_numerator"] + total["hilbert.fit_ehrhart"],
        "reducer.reduce_pair_s": total["reducer.reduce_pair"],
        "reducer.pair_search_calls": calls["reducer.pair_search"],
        "reducer.pair_search_s": total["reducer.pair_search"],
        "reducer.hamming2_calls": calls["reducer.reduce_hamming_2"],
        "reducer.hamming3_calls": calls["reducer.reduce_hamming_3"],
        "reducer.hamming_ge4_calls": calls["reducer.reduce_hamming_ge4"],
        "reducer.merge_columns_calls": calls["reducer.merge_columns"],
        "moves.profile_fiber_calls": calls["moves.profile_fiber"],
        "moves.profile_fiber_s": total["moves.profile_fiber"],
        "moves.profile_fiber_members": tr["profile_fiber_members"],
        "moves.fiber_cap_hits": tr["fiber_cap_hits"],
        "moves.fiber_cache_hits": tr["fiber_cache_hits"],
        "moves.fiber_cache_misses": tr["fiber_cache_misses"],
        "moves.trace_is_valid_s": total["moves.trace_is_valid"],
        "tables.hamming_distance_calls": calls["tables.hamming_distance"],
        "tables.hamming_distance_s": total["tables.hamming_distance"],
        "tables.min_hamming_pair_calls": calls["tables.min_hamming_pair"],
        "tables.profile_of_rows_calls": calls["tables.profile_of_rows"],
        "trace.spans": tr["spans"],
    }
    looked_up = m["moves.fiber_cache_hits"] + m["moves.fiber_cache_misses"]
    m["moves.fiber_cache_hit_ratio"] = (m["moves.fiber_cache_hits"] / looked_up
                                        if looked_up else 0.0)
    for layer, v in tr["layers"].items():
        for what in ("calls", "total_s", "self_s"):
            m[f"{layer}.{what}"] = v[what]

    multisets = fibers = components = degree3 = 0.0
    write = read = 0
    candidates = profiles = 0
    moves = {2: 0, 3: 0, 4: 0}
    n_moves = fallbacks = 0
    for op, res in zip(ops, rnd["ops"]):
        out = res["output"]
        if out is None:
            continue
        if op["kind"] in ("census", "spill"):
            for row in out["degrees"]:
                multisets += row["multisets"]
                fibers += row["fibers"]
                components += row["generators"] + row["fibers"]
                if row["degree"] == 3:
                    degree3 += row["elapsed_s"]
            write += out.get("write_bytes") or 0
            read += out.get("read_bytes") or 0
        elif op["kind"] == "hilbert":
            vals = out["values"]
            candidates += sum(vals[k - 1] * vals[1] for k in range(1, len(vals)))
            profiles += sum(vals[1:])
        elif op["kind"] == "reduce":
            n_moves += len(out["steps"])
            for step in out["steps"]:
                d = len(step["remove"])
                moves[d] = moves.get(d, 0) + 1
            fallbacks += out["fallbacks"]
    m.update({
        "markov.degree3_s": degree3,
        "markov.multisets": multisets, "markov.fibers": fibers,
        "markov.components": components,
        "markov.multisets_per_s": (multisets / m["markov.census_s"]
                                   if m["markov.census_s"] else 0.0),
        "markov.spill_write_bytes": write, "markov.spill_read_bytes": read,
        "hilbert.candidates": candidates, "hilbert.profiles": profiles,
        "hilbert.kept_per_candidate": profiles / candidates if candidates else 0.0,
        "hilbert.profiles_per_s": (profiles / m["hilbert.values_s"]
                                   if m["hilbert.values_s"] else 0.0),
        "reducer.moves": n_moves, "reducer.fallbacks": fallbacks,
        **{f"reducer.moves_deg{d}": moves.get(d, 0) for d in (2, 3, 4)},
    })
    return m


def per_layer(ops: list[dict], untraced: list[dict],
              traced: list[dict]) -> dict:
    """Mean per traced round of every per-layer figure; the overhead is
    the traced rounds' mean wall time over the untraced rounds'."""
    rows = [layer_values(ops, r) for r in traced]
    metrics = {name: {"value": statistics.fmean(r[name] for r in rows),
                      "unit": unit}
               for name, unit in LAYER_UNITS.items() if name != "trace.overhead_pct"}
    traced_wall = statistics.fmean(r["wall_s"] for r in traced)
    untraced_wall = statistics.fmean(r["wall_s"] for r in untraced)
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (traced_wall / untraced_wall - 1.0), "unit": "%"}
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main() -> int:
    started = time.perf_counter()
    # on SIGTERM, unwind so that the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "kimura4" / "__init__.py").is_file() \
            or not refs.series_path(ROOT).is_file():
        print(f"no kimura4 sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    WORK.mkdir(exist_ok=True)
    spill_dir = WORK / f"spill-{tag}"
    spill_dir.mkdir()
    parts = {"round": workloads.operations(args.workload, args.seed)}
    # the pair latency of the workloads that reduce no pairs themselves;
    # their output must carry the pair metrics too
    if args.workload != "reduce" and not args.trace:
        parts["probe"] = workloads.probe_pairs(args.seed)
    specs = {}
    for part, ops in parts.items():
        specs[part] = WORK / f"input-{part}-{tag}.json"
        specs[part].write_text(json.dumps({"ops": ops, "spill_dir": str(spill_dir)}))
    checker = Checker()
    for op in parts["round"]:  # outside the measuring time
        checker.expected(op)
    log: list[str] = []
    attempted = failed = 0
    correct = True
    setups: list[float] = []
    rounds: list[dict] = []
    pair_ms: dict[int, list[float]] = {}

    def run(part: str, *, traced: bool = False) -> bool:
        """One worker on one part; False when it failed as a whole."""
        nonlocal attempted, failed, correct
        i = len(rounds)
        spans = WORK / f"spans-round{i}-{tag}.npz" if traced else None
        setup, out, err = run_worker(
            specs[part], WORK / f"out-{part}-{tag}.json",
            RUN_LIMIT_S - (time.perf_counter() - started),
            trace=traced, spans=spans)
        ops = parts[part]
        attempted += len(ops)
        if out is None:
            failed += len(ops)
            log.append(f"{part} {i}: {err}")
            return False
        f, c = tally(ops, out["ops"], checker, log)
        failed += f
        correct = correct and c
        if part == "probe" or args.workload == "reduce":
            for j, r in enumerate(out["ops"]):
                pair_ms.setdefault(j, []).append(1000.0 * r["elapsed_s"])
        if part == "round":
            setups.append(setup)
            out["traced"] = traced
            rounds.append(out)
        return True

    def setup_only() -> bool:
        for _ in range(SETUP_PROBES):
            setup, _, err = run_worker(
                specs["round"], None, RUN_LIMIT_S - (time.perf_counter() - started))
            if setup is None:
                log.append(f"set-up failed: {err}")
                return False
            setups.append(setup)
        return True

    try:
        if not setup_only():
            print("\n".join(log), file=sys.stderr)
            return 1
        # Rounds and pair probes share the measuring time.  A probe runs
        # first and then whenever probes have had less than PROBE_SHARE of
        # the time so far, so that the probe's windows are spread over the
        # run; rounds run while the next fits in the time left (at least
        # one, with --trace 1 two); time left over goes to probes.
        start = time.perf_counter()
        end = min(start + args.seconds, started + RUN_LIMIT_S)
        spent = {"round": 0.0, "probe": 0.0}
        last = dict(spent)

        def step(part: str) -> bool:
            t = time.perf_counter()
            # with --trace 1, untraced and traced rounds alternate
            ok = run(part, traced=(part == "round" and bool(args.trace)
                                   and len(rounds) % 2 == 1))
            last[part] = time.perf_counter() - t
            spent[part] += last[part]
            return ok

        probing = "probe" in parts
        ok = True
        while ok:
            now = time.perf_counter()
            if probing and (not spent["probe"] or (
                    spent["probe"] < PROBE_SHARE * (now - start)
                    and now + last["probe"] <= end)):
                ok = step("probe")
            elif len(rounds) < 1 + args.trace or now + last["round"] <= end:
                ok = step("round")
            elif probing and now + last["probe"] <= end:
                ok = step("probe")
            else:
                break
        setup_only()
        traced_rounds = [r for r in rounds if r["traced"]]
        if not (traced_rounds if args.trace else rounds and pair_ms):
            print("\n".join(log), file=sys.stderr)
            return 1
        if args.trace:
            metrics = per_layer(parts["round"], [r for r in rounds if not r["traced"]],
                                traced_rounds)
        else:
            metrics = end_to_end(setups, rounds, pair_ms)
        (WORK / f"result-{tag}.json").write_text(json.dumps({
            "args": vars(args), "setups_s": setups, "log": log,
            "pair_ms": pair_ms,
            "rounds": [{"wall_s": r["wall_s"], "peak_rss_mb": r["peak_rss_mb"],
                        "traced": r["traced"],
                        "op_s": [res["elapsed_s"] for res in r["ops"]],
                        "trace": r.get("trace")} for r in rounds],
            "metrics": metrics}, indent=1))
        for line in log:
            print(line, file=sys.stderr)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
        for path in specs.values():
            path.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
