"""Command-line entry point: every capability as a subcommand.

Each run prints a one-line human summary on stdout and, with --out, writes
a JSON report embedding the exact job configuration and tool version so
reruns are reproducible.  Exit codes: 0 success, 1 invalid input or failed
check, 2 budget exhaustion or a size limit.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time
from typing import Optional

from . import __version__, corpus, groups, hilbert, markov, reducer
from .groups import FaceSpec
from .moves import SizeLimitExceeded, read_trace, replay_trace, write_trace
from .tables import pair_from_json

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2


def _job_config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    cfg["tool_version"] = __version__
    return cfg


def _emit(args: argparse.Namespace, payload: dict, summary: str) -> None:
    payload = dict(payload)
    payload["config"] = _job_config(args)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(summary)


def _peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KiB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _face(args: argparse.Namespace) -> Optional[FaceSpec]:
    spec = getattr(args, "face", None)
    if not spec:
        return None
    if spec in groups.NAMED_FACES:
        return groups.NAMED_FACES[spec]
    return FaceSpec.parse(spec)


def cmd_flows(args: argparse.Namespace) -> int:
    face = _face(args)
    flows = groups.enumerate_flows(args.leaves, face)
    if args.count_only:
        print(len(flows))
        return EXIT_OK
    payload = {
        "count": len(flows),
        "flows": [groups.format_flow(v, args.leaves) for v in flows],
    }
    _emit(args, payload, f"{len(flows)} flows of length {args.leaves}"
          + (f" on face {face}" if face and face.forbidden else ""))
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    with open(args.input) as fh:
        t0, t1 = pair_from_json(json.load(fh))
    if args.verify_trace:
        steps = read_trace(args.verify_trace)
        try:
            a, b = replay_trace(t0, t1, steps, args.max_degree)
        except ValueError as exc:
            print(f"trace invalid: {exc}")
            return EXIT_INVALID
        ok = a == b
        print(f"trace {'valid' if ok else 'does not join the pair'}: "
              f"{len(steps)} step(s)")
        return EXIT_OK if ok else EXIT_INVALID
    res = reducer.reduce_pair(t0, t1, max_degree=args.max_degree,
                              node_budget=args.budget)
    if args.trace:
        write_trace(args.trace, res.steps)
    payload = {
        "success": res.success,
        "steps": len(res.steps),
        "max_move_degree": max((s.move.degree for s in res.steps), default=0),
        "diagnostics": res.diagnostics.to_json(),
    }
    _emit(args, payload,
          f"{'reduced' if res.success else 'BUDGET EXHAUSTED'} in "
          f"{len(res.steps)} move(s)")
    return EXIT_OK if res.success else EXIT_BUDGET


def cmd_census(args: argparse.Namespace) -> int:
    face = _face(args)
    t0 = time.perf_counter()
    report = markov.minimal_generator_census(
        args.leaves, args.max_degree, face,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr))
    payload = report.to_json()
    payload["elapsed_s"] = round(time.perf_counter() - t0, 3)
    payload["peak_rss_mb"] = _peak_rss_mb()
    counts = ", ".join(f"d{r.degree}:{r.generators}" for r in report.rows)
    _emit(args, payload, f"census n={args.leaves} [{counts}]"
          + ("" if report.complete else f"  (partial: {report.note})"))
    return EXIT_OK if report.complete else EXIT_BUDGET


def cmd_connectivity(args: argparse.Namespace) -> int:
    face = _face(args)
    try:
        res = markov.connectivity_check(
            args.leaves, args.max_table_degree, args.move_degree, face,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr))
    except (SizeLimitExceeded, groups.ProfileKeyTooWide) as exc:
        print(f"stopped: {exc}")
        return EXIT_BUDGET
    payload = res.to_json()
    payload["peak_rss_mb"] = _peak_rss_mb()
    _emit(args, payload,
          f"fibers of degree <= {args.max_table_degree} at n={args.leaves}: "
          + ("all connected" if res.ok else "DISCONNECTED fiber found")
          + f" (moves of degree <= {args.move_degree})")
    return EXIT_OK if res.ok else EXIT_INVALID


def cmd_hilbert(args: argparse.Namespace) -> int:
    face = _face(args)
    try:
        rec = hilbert.build_record(args.leaves, face, args.max_dilation)
    except SizeLimitExceeded as exc:
        print(f"stopped: {exc}")
        return EXIT_BUDGET
    payload = rec.to_json()
    payload["peak_rss_mb"] = _peak_rss_mb()
    summary = (f"n={args.leaves} dim {rec.dim}: H(0..{args.max_dilation}) "
               f"computed")
    if rec.h_coeffs:
        summary += (f", deg h = {rec.h_degree}, a-invariant "
                    f"{rec.a_invariant}, generator degree bound "
                    f"{rec.regularity_bound}")
    _emit(args, payload, summary)
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    if args.paper_series:
        numer, denom_exp, dim = hilbert.bundled_series(args.paper_series)
    else:
        if not args.numerator_file:
            print("need --numerator-file or --paper-series")
            return EXIT_INVALID
        with open(args.numerator_file) as fh:
            numer = [int(c) for c in json.load(fh)]
        denom_exp = args.denom_exp
        dim = denom_exp - 1
    # the round trip needs H(0..dim); h has degree at most dim
    series = hilbert.expand_series(numer, denom_exp, max(args.expand, dim))
    values = series[:args.expand + 1]
    back = hilbert.h_numerator(series, dim) if len(numer) <= dim + 1 else None
    payload = {
        "numerator": [str(c) for c in numer],
        "denom_exp": denom_exp,
        "values": [str(v) for v in values],
        "round_trip_ok": back == list(numer),
    }
    _emit(args, payload,
          f"expanded to t^{args.expand}; H(1) = {values[1] if len(values) > 1 else 1}; "
          f"round trip {'ok' if payload['round_trip_ok'] else 'FAILED'}")
    return EXIT_OK if payload["round_trip_ok"] else EXIT_INVALID


def cmd_verify_moves(args: argparse.Namespace) -> int:
    report = corpus.verify_corpus()
    print(report.summary())
    if args.out:
        _emit(args, report.to_json(), "report written")
    return EXIT_OK if report.passed else EXIT_INVALID


def _fuzz_chunk(job: tuple) -> reducer.FuzzReport:
    n, max_d, count, seed, budget = job
    return reducer.fuzz_reduce(n, max_d, count, seed, node_budget=budget)


def cmd_fuzz(args: argparse.Namespace) -> int:
    threads = args.threads or multiprocessing.cpu_count()
    per = [args.count // threads] * threads
    for i in range(args.count % threads):
        per[i] += 1
    jobs = [(args.leaves, args.max_table_degree, c, args.seed + 1000 * i,
             args.budget)
            for i, c in enumerate(per) if c]
    t0 = time.perf_counter()
    if len(jobs) > 1:
        with multiprocessing.Pool(len(jobs)) as pool:
            parts = pool.map(_fuzz_chunk, jobs)
    else:
        parts = [_fuzz_chunk(jobs[0])]
    rep = reducer.FuzzReport.merged(parts)
    payload = rep.to_json()
    payload["elapsed_s"] = round(time.perf_counter() - t0, 3)
    _emit(args, payload,
          f"fuzz: {rep.reduced}/{rep.total} reduced, {rep.replay_valid} "
          f"replay-valid, {sum(rep.fallbacks.values())} strategy gap(s)")
    ok = rep.reduced == rep.total and rep.replay_valid == rep.total
    return EXIT_OK if ok else EXIT_BUDGET


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kimura4",
        description="Flow/table calculus for the Kimura 3-parameter model "
                    "on claw trees")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flows", help="enumerate flows")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--face", help="face spec 'col:sym,...' or a name "
                                  "(P1, P2, P3, P2t, P2t')")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_flows)

    p = sub.add_parser("reduce", help="reduce a compatible pair")
    p.add_argument("--input", required=True, help="pair JSON {t0:[],t1:[]}")
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--trace", help="write the move trace (JSON lines)")
    p.add_argument("--verify-trace", help="only replay this trace file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("census", help="minimal-generator census per degree")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--face")
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("connectivity", help="check fiber connectivity")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--max-table-degree", type=int, required=True)
    p.add_argument("--move-degree", type=int, default=4)
    p.add_argument("--face")
    p.add_argument("--out")
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("hilbert", help="dilation counts and Ehrhart fit")
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--face")
    p.add_argument("--max-dilation", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("series", help="expand a Hilbert series numerator")
    p.add_argument("--numerator-file", help="JSON list, ascending")
    p.add_argument("--denom-exp", type=int, default=19)
    p.add_argument("--paper-series",
                   choices=["n6_full", "n6_tilde", "n6_tilde_prime"])
    p.add_argument("--expand", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify-moves", help="check the move identity corpus")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_moves)

    p = sub.add_parser("fuzz", help="reduce seeded random compatible pairs")
    p.add_argument("--leaves", type=int, default=7)
    p.add_argument("--max-table-degree", type=int, default=6)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--threads", type=int, default=0,
                   help="worker processes (default: machine parallelism)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fuzz)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
