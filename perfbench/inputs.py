"""Seeded inputs for the benchmark, made without the program's code.

Flows are strings over "0abc"; a = 1, b = 2, c = 3 in Z2 x Z2, where the
group sum is XOR.  A compatible pair is a random table plus a random member
of its fiber (same multiset of symbols in every column), drawn by a
randomized backtracking of our own, so a change to the program's samplers
cannot change the pairs it is given.
"""

from __future__ import annotations

import random

SYMBOLS = "0abc"

# The time to reduce one pair is heavy-tailed: across 680 sampled pairs a
# few took 1-8.5 s against medians of 1-135 ms per stratum.  A fresh pair
# set per seed would move the round time by 13-23 % and the 95th
# percentile by 20-30 % between seeds, more than any usable bound.  The pair population is drawn
# once, from this seed, by the sampler below; the run's seed orders it.
POPULATION_SEED = 0

# (leaves, degree, pairs): mostly n=7 across degrees 5-10, plus a share at
# n=9, whose replacement fibers are the expensive part of the search.  The
# round stays near 12 s, so a 28-second run holds two.
REDUCE_STRATA = (
    [(7, d, 31) for d in range(5, 11)]
    + [(9, d, 5) for d in range(5, 8)]
)

# The pair probe of the workloads that reduce no pairs themselves: one
# light-tailed stratum (single calls of about 1-10 ms), so that both the
# median and the 95th percentile fall where times are dense, and one probe
# takes about a second.  A tenth of slow degree-10 pairs put the 95th
# percentile among two dozen times of 25-960 ms, where it moved by up to
# 60 % between runs.
PROBE_STRATA = [(7, 5, 240)]

# A pair keeps at least this many rows after common rows are stripped, so
# the program cannot answer it with a single move of degree <= 4.
MIN_STRIPPED = 5


def random_flow(n: int, rng: random.Random) -> str:
    syms = [rng.randrange(4) for _ in range(n - 1)]
    last = 0
    for g in syms:
        last ^= g
    return "".join(SYMBOLS[g] for g in syms + [last])


def column_counts(rows: list[str]) -> list[list[int]]:
    n = len(rows[0])
    counts = [[0, 0, 0, 0] for _ in range(n)]
    for r in rows:
        for i, ch in enumerate(r):
            counts[i][SYMBOLS.index(ch)] += 1
    return counts


class _Cap(Exception):
    pass


def random_fiber_member(rows: list[str], rng: random.Random,
                        max_nodes: int = 100_000) -> list[str] | None:
    """A random table with the column counts of `rows`, or None."""
    n, d = len(rows[0]), len(rows)
    counts = column_counts(rows)
    nodes = 0

    def fill(out: list[str]) -> bool:
        if len(out) == d:
            return True
        return build(out, 0, [], 0)

    def build(out: list[str], col: int, acc: list[int], s: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _Cap
        if col == n - 1:
            if counts[col][s] == 0:
                return False
            row = acc + [s]
            for i, g in enumerate(row):
                counts[i][g] -= 1
            out.append("".join(SYMBOLS[g] for g in row))
            if fill(out):
                return True
            out.pop()
            for i, g in enumerate(row):
                counts[i][g] += 1
            return False
        syms = [g for g in range(4) if counts[col][g] > 0]
        rng.shuffle(syms)
        for g in syms:
            if build(out, col + 1, acc + [g], s ^ g):
                return True
        return False

    out: list[str] = []
    try:
        return sorted(out) if fill(out) else None
    except _Cap:
        return None


def stripped_size(a: list[str], b: list[str]) -> int:
    rest = list(b)
    kept = 0
    for r in a:
        if r in rest:
            rest.remove(r)
        else:
            kept += 1
    return kept


def sample_pair(n: int, d: int, rng: random.Random) -> tuple[list[str], list[str]]:
    """A compatible pair of degree d on n leaves needing real work."""
    while True:
        t0 = sorted(random_flow(n, rng) for _ in range(d))
        for _ in range(20):
            t1 = random_fiber_member(t0, rng)
            if t1 is not None and stripped_size(t0, t1) >= MIN_STRIPPED:
                return t0, t1


def _pairs(tag: str, strata) -> list[dict]:
    out = []
    for n, d, count in strata:
        rng = random.Random(f"{tag}:{POPULATION_SEED}:{n}:{d}")
        for _ in range(count):
            t0, t1 = sample_pair(n, d, rng)
            out.append({"n": n, "degree": d, "t0": t0, "t1": t1})
    return out


def reduce_pairs() -> list[dict]:
    """The `reduce` workload's pair set."""
    return _pairs("reduce", REDUCE_STRATA)


def probe_pairs() -> list[dict]:
    """The latency probe's pair set."""
    return _pairs("probe", PROBE_STRATA)
