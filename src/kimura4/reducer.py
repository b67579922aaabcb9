"""Constructive reduction of compatible table pairs by degree-<=4 moves.

reduce_pair transforms a compatible pair (T0, T1) into equal tables,
recording every move.  The engine follows the induction leaves -> degree ->
Hamming distance: common rows are factored out, small tables are exchanged
in one move, a quadratic pinch pulls the closest rows together, and
otherwise the step depends on the minimal cross distance k.  At k >= 4 and
k = 3 (the abc string) a search runs until the pair potential drops; at
k = 2 it runs until the tables share one more row.  Each step is one
best-first search over the legal exchanges of `moves.exchanges`, and all
of a reduction's searches spend one node budget.  A search whose frontier
empties is a strategy gap: its case label is logged and the reduction ends
unreduced.  A search tests each exchange for the goal by the rows it
inserts, and builds and scores children, from memoised row-to-row
distances (`NearestRows`), only when an expansion holds no goal.  Every
returned trace is replay-validated; an invalid trace is never returned.
Column merging with trace lifting (`merge_columns`) is a library utility
that reduce_pair does not call.

Reduction itself is deterministic; randomness only enters the fuzz-pair
samplers, which draw everything from one seeded generator.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from . import groups
from .moves import (FiberCache, Move, TraceStep, apply_move, exchanges,
                    profile_fiber, replay_trace, trace_is_valid)
from .tables import Table, column_mask, compatible

if TYPE_CHECKING:
    from multiprocessing.pool import Pool


class BudgetExhausted(Exception):
    """The node budget ran out before the pair was reduced."""


class StrategyGap(Exception):
    """A strategy routine hit a dead end; carries the case label."""

    def __init__(self, label: str):
        super().__init__(label)
        self.label = label


@dataclass
class Budget:
    """The node budget a reduction's searches share; it also tallies the
    searches' calls, seconds and scored children."""

    nodes: int
    searches: int = 0
    search_s: float = 0.0
    children: int = 0

    def spend(self, k: int = 1) -> None:
        self.nodes -= k
        if self.nodes < 0:
            raise BudgetExhausted("node budget exhausted")


@dataclass
class Diagnostics:
    strategy_cases: Counter = field(default_factory=Counter)
    # strategy gaps by case label; each one ended its reduction unreduced
    fallback_cases: Counter = field(default_factory=Counter)
    nodes_spent: int = 0
    fiber_cache_hits: int = 0
    fiber_cache_misses: int = 0
    fiber_cap_hits: int = 0
    # "<routine>_calls" and "<routine>_s", timed per call, of the routines
    # "pinch" (the quadratic pinch), "pair_search" and "fiber_build" (the
    # replacement-fiber builds of FiberCache lookups not answered from its
    # table), and "children_scored", the children the searches built and
    # scored; reduce_pair fills it
    routines: dict = field(default_factory=dict)

    def search_counts(self) -> dict[str, int]:
        """Nodes expanded and replacement-fiber cache counts."""
        return {"nodes_spent": self.nodes_spent,
                "fiber_cache_hits": self.fiber_cache_hits,
                "fiber_cache_misses": self.fiber_cache_misses,
                "fiber_cap_hits": self.fiber_cap_hits}

    def to_json(self) -> dict:
        return {
            "strategy_cases": dict(self.strategy_cases),
            "fallback_cases": dict(self.fallback_cases),
            **self.search_counts(),
            "routines": dict(self.routines),
        }


@dataclass
class ReduceResult:
    steps: list[TraceStep]
    success: bool
    diagnostics: Diagnostics
    message: str = ""


@dataclass
class BadPair:
    row: int
    x: int
    y: int


# ---------------------------------------------------------------------------
# basic helpers
# ---------------------------------------------------------------------------

def strip_common(a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...],
                                                              tuple[int, ...]]:
    """Remove the multiset intersection from both row tuples.

    Both inputs must be sorted, as table rows and search states are; the
    intersection is found by one merge walk.
    """
    ra: list[int] = []
    rb: list[int] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            i += 1
            j += 1
        elif x < y:
            ra.append(x)
            i += 1
        else:
            rb.append(y)
            j += 1
    ra.extend(a[i:])
    rb.extend(b[j:])
    return tuple(ra), tuple(rb)


def _nearest(ra: Sequence[int], rb: Sequence[int], n: int) -> list[int]:
    """Each row of ra's least Hamming distance to a row of rb."""
    m = column_mask(n)
    return [min([(((z := x ^ y) | z >> 1) & m).bit_count() for y in rb])
            for x in ra]


def min_cross_k(ra: Sequence[int], rb: Sequence[int], n: int) -> int:
    return min(_nearest(ra, rb, n)) if ra else 0


def pair_potential(a: Table, b: Table) -> tuple[int, int]:
    """(stripped degree, min cross Hamming distance): the progress measure."""
    ra, rb = strip_common(a.rows, b.rows)
    return len(ra), min_cross_k(ra, rb, a.n)


def find_bad_pairs(t: Table, p: Optional[int] = None,
                   q: Optional[int] = None) -> list[BadPair]:
    """Rows whose entries in columns p and q (default: last two) are both
    nonzero."""
    if t.n < 2:
        raise ValueError("need at least two columns")
    if p is None:
        p, q = t.n - 2, t.n - 1
    out = []
    for v in t.rows:
        x = groups.entry(v, p, t.n)
        y = groups.entry(v, q, t.n)
        if x and y:
            out.append(BadPair(v, x, y))
    return out


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

FIBER_CAP = 512  # replacement fibers larger than this are skipped
BEAM = 64  # children of each expanded state kept on the frontier

SearchState = tuple[tuple[int, ...], tuple[int, ...]]


class NearestRows:
    """Least Hamming distances from rows to the sides of one search's
    states, memoised row by row.

    `to_rows[side]` maps every row scanned against the sorted row tuple
    `side` to its least distance there.  `reaches` tests a child for the
    goal by the rows it inserts.  A side-0 child keeps side 1, so it looks
    its rows up there and scans only those missing.  A side-1 child keeps
    side 0: each side-0 row's distance is the least over the columns of
    the child's side-1 rows, the row-to-row distances memoised per side-0
    tuple, one column per side-1 row.
    """

    def __init__(self, ra: tuple[int, ...], rb: tuple[int, ...], n: int):
        self.mask = column_mask(n)
        self.start = _nearest(ra, rb, n)
        self.to_rows: dict[tuple[int, ...], dict[int, int]] = {
            rb: dict(zip(ra, self.start))}
        self.columns: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}

    def reaches(self, side: tuple[int, ...], rows: Sequence[int],
                below: int) -> bool:
        """Whether one of `rows` lies closer than `below` to a row of
        `side`."""
        near = self.to_rows.get(side)
        if near is None:
            near = self.to_rows[side] = {}
        m = self.mask
        for x in rows:
            k = near.get(x)
            if k is None:
                k = near[x] = min([(((z := x ^ y) | z >> 1) & m).bit_count()
                                   for y in side])
            if k < below:
                return True
        return False

    def child(self, state: SearchState, side: int,
              rows: tuple[int, ...]) -> list[int]:
        """The least distances of a child's side-0 rows, in row order: the
        child replaces side `side` of `state` by `rows`."""
        ra, rb = state
        m = self.mask
        if side == 0:
            near = self.to_rows.setdefault(rb, {})
            for x in rows:
                if x not in near:
                    near[x] = min([(((z := x ^ y) | z >> 1) & m).bit_count()
                                   for y in rb])
            return list(map(near.__getitem__, rows))
        cols = self.columns.setdefault(ra, {})

        def column(y: int) -> tuple[int, ...]:
            c = cols.get(y)
            if c is None:
                c = cols[y] = tuple([(((z := x ^ y) | z >> 1) & m).bit_count()
                                     for x in ra])
            return c

        # row-disjoint compatible sides hold at least two rows each
        return list(map(min, *map(column, rows)))


# A frontier state's parent, the side it changed, and the rows that side
# exchanged: (parent, side, removed, inserted).
Parent = tuple[SearchState, int, tuple[int, ...], tuple[int, ...]]


def pair_search(a: Table, b: Table, *, below: int, budget: Budget,
                max_degree: int = 4,
                cache: Optional[FiberCache] = None
                ) -> Optional[list[TraceStep]]:
    """Best-first search over pair states; returns the step path to the
    first goal state, or None when the frontier empties.

    The tables must share no row.  A goal state's least cross Hamming
    distance is below `below`: 1 asks for a shared row (distance 0), the
    start's least distance for a lower one or a shared row.  Other states
    share no row and are ranked by (degree, least, summed side-0 row
    distance).  Raises BudgetExhausted when the shared budget runs out,
    one node per expanded state.  A state's children are the
    `moves.exchanges` of either side, moves of degree <= max_degree over
    fibers of at most FIBER_CAP members.  An expanded state is no goal, so
    its kept rows lie at least `below` from the other side, and a child is
    a goal exactly when a row it inserts lies closer: each exchange is
    tested by its inserted rows alone, in enumeration order, and the path
    to the first that hits is returned.  Only an expansion without a goal
    builds its children, skips those seen before, scores them and puts
    the best BEAM on the frontier.  Each call adds to the budget's search
    count, seconds and scored children.
    """
    if not a.rows or not set(a.rows).isdisjoint(b.rows):
        raise ValueError("pair_search needs non-empty tables sharing no row")
    budget.searches += 1
    t = time.perf_counter()
    try:
        return _best_first(a, b, below, budget, max_degree,
                           cache or FiberCache())
    finally:
        budget.search_s += time.perf_counter() - t


def _best_first(a: Table, b: Table, below: int, budget: Budget,
                max_degree: int, cache: FiberCache
                ) -> Optional[list[TraceStep]]:
    n = a.n
    start: SearchState = (a.rows, b.rows)
    near = NearestRows(a.rows, b.rows, n)
    if min(near.start) < below:
        return []
    counter = itertools.count()
    frontier: list[tuple[tuple, int, SearchState]] = [
        (_score(near.start), next(counter), start)]
    parents: dict[SearchState, Parent] = {}
    seen = {start}
    reaches = near.reaches
    while frontier:
        budget.spend()
        _, _, state = heapq.heappop(frontier)
        found = []
        for side in (0, 1):
            other = state[1 - side]
            for sub, keep, fiber in exchanges(state[side], n, max_degree,
                                              cache, fiber_cap=FIBER_CAP):
                for repl in fiber:
                    if repl != sub and reaches(other, repl, below):
                        return _unwind(parents, start,
                                       (state, side, sub, repl), n)
                found.append((side, sub, keep, fiber))
        children = []
        for side, sub, keep, fiber in found:
            for repl in fiber:
                if repl == sub:
                    continue
                rows = tuple(sorted(keep + list(repl)))
                child = (rows, state[1]) if side == 0 else (state[0], rows)
                if child in seen:
                    continue
                seen.add(child)
                children.append((_score(near.child(state, side, rows)),
                                 next(counter), child,
                                 (state, side, sub, repl)))
        budget.children += len(children)
        children.sort(key=lambda t: t[0])
        for score, count, child, parent in children[:BEAM]:
            parents[child] = parent
            heapq.heappush(frontier, (score, count, child))
    return None


def _score(dists: Sequence[int]) -> tuple[int, int, int]:
    return len(dists), min(dists), sum(dists)


def _unwind(parents: dict[SearchState, Parent], start: SearchState,
            last: Parent, n: int) -> list[TraceStep]:
    """The steps from `start` through the frontier states to the exchange
    `last`."""
    path = []
    while True:
        state, side, removed, inserted = last
        path.append(TraceStep(side, Move(removed, inserted, n)))
        if state == start:
            break
        last = parents[state]
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# strategy routines
# ---------------------------------------------------------------------------

def _quadratic_pinch(a: Table, b: Table, k: int) -> Optional[TraceStep]:
    """A same-table degree-2 move strictly decreasing the pair potential.

    The tables share no row, as after strip_common, and k is their least
    cross distance, so every other row is at least k from the opposite
    table.  A replacement pair therefore lowers the potential exactly when
    one of its rows lies closer than k to a row of the opposite table: at
    distance 0 the stripped degree drops, otherwise the distance does.
    A replacement row of (u, v) keeps u's or v's symbol in each column, so
    it is at least c columns from a row y that has neither in c columns,
    and at least 2 if c > 0 (no two flows are one column apart); (u, v) is
    skipped when that bound reaches k for every y.
    """
    n = a.n
    m = column_mask(n)
    for side, rows, other in ((0, a.rows, b.rows), (1, b.rows, a.rows)):
        tried: set[tuple[int, int]] = set()
        for i, j in itertools.combinations(range(len(rows)), 2):
            u, v = rows[i], rows[j]
            if (u, v) in tried or u == v:
                continue
            tried.add((u, v))
            misses = ((((p := u ^ y) | p >> 1) & ((q := v ^ y) | q >> 1)
                       & m).bit_count() for y in other)
            if all(max(c, 2 if c else 0) >= k for c in misses):
                continue
            for repl in profile_fiber((u, v), n):
                if repl != (u, v) and any(
                        (((z := w ^ y) | z >> 1) & m).bit_count() < k
                        for w in repl for y in other):
                    return TraceStep(side, Move((u, v), repl, n))
    return None


def reduce_hamming_ge4(t0: Table, t1: Table, budget: Budget,
                       cache: FiberCache,
                       max_degree: int = 4) -> list[TraceStep]:
    """Shrink a minimal disagreement string of length >= 4 to length <= 3,
    lowering the potential (a shared row, or a lower least cross distance)
    one search at a time."""
    n = t0.n
    if pair_potential(t0, t1)[1] < 4:
        raise ValueError("reduce_hamming_ge4 needs disagreement >= 4")
    a, b = t0, t1
    steps: list[TraceStep] = []
    while True:
        ra, rb = strip_common(a.rows, b.rows)
        k = min_cross_k(ra, rb, n)
        if k <= 3:
            return steps
        found = pair_search(Table(ra, n), Table(rb, n), below=k,
                            budget=budget, max_degree=max_degree, cache=cache)
        if found is None:
            raise StrategyGap(f"ge4:string-len-{k}")
        a, b = replay_trace(a, b, found, max_degree)
        steps.extend(found)


def reduce_hamming_3(t0: Table, t1: Table, budget: Budget,
                     cache: FiberCache,
                     max_degree: int = 4) -> list[TraceStep]:
    """Reduce a row-disjoint pair at minimal distance 3 (string abc) to a
    shared row or distance <= 2: one search."""
    if pair_potential(t0, t1)[1] != 3:
        raise ValueError("reduce_hamming_3 needs distance exactly 3")
    steps = pair_search(t0, t1, below=3, budget=budget,
                        max_degree=max_degree, cache=cache)
    if steps is None:
        raise StrategyGap("abc")
    return steps


def reduce_hamming_2(t0: Table, t1: Table, budget: Budget,
                     cache: FiberCache,
                     max_degree: int = 4) -> list[TraceStep]:
    """Reduce a row-disjoint pair at minimal distance 2 by reaching a
    shared row: one search until the stripped degree drops."""
    steps = pair_search(t0, t1, below=1, budget=budget,
                        max_degree=max_degree, cache=cache)
    if steps is None:
        raise StrategyGap("k2:no-shared-row")
    return steps


# ---------------------------------------------------------------------------
# column merging and lifting
# ---------------------------------------------------------------------------

@dataclass
class MergedPair:
    """An (n-1)-column pair with the recipe to lift traces back.

    Columns p, q of the originals are removed and their rowwise sum is
    appended as the final merged column; with no bad pairs the merged pair
    is compatible and any trace on it lifts move by move, transplanting the
    (x, y) pairs between rows of equal merged sum, followed by quadratic
    swaps aligning the split of each pair.
    """

    t0: Table
    t1: Table
    n_orig: int
    p: int
    q: int
    orig0: Table
    orig1: Table

    def _merge_row(self, v: int) -> int:
        return _merge_row(v, self.n_orig, self.p, self.q)

    def lift(self, steps: Sequence[TraceStep]) -> list[TraceStep]:
        maps = [Counter(), Counter()]
        for v in self.orig0.rows:
            maps[0][v] += 1
        for v in self.orig1.rows:
            maps[1][v] += 1
        out: list[TraceStep] = []
        for step in steps:
            side = step.side
            cur = maps[side]
            removed_orig: list[int] = []
            pools: dict[int, list[int]] = {}
            for m in step.move.removed:
                v = _pop_preimage(cur, m, self.n_orig, self.p, self.q)
                removed_orig.append(v)
                s = groups.entry(v, self.p, self.n_orig) ^ \
                    groups.entry(v, self.q, self.n_orig)
                pools.setdefault(s, []).append(v)
            inserted_orig = []
            nm = self.n_orig - 1
            for m in step.move.inserted:
                s = groups.entry(m, nm - 1, nm)
                base = pools[s].pop()
                inserted_orig.append(_unmerge_row(
                    m, self.n_orig, self.p, self.q,
                    groups.entry(base, self.p, self.n_orig),
                    groups.entry(base, self.q, self.n_orig)))
            for v in inserted_orig:
                cur[v] += 1
            out.append(TraceStep(side, Move(tuple(sorted(removed_orig)),
                                            tuple(sorted(inserted_orig)),
                                            self.n_orig)))
        # the lifts agree up to the split of each (p, q) pair; align by
        # quadratic swaps on side 0
        rows0 = Counter()
        for v, c in maps[0].items():
            rows0[v] = c
        rows1 = maps[1]
        out.extend(self._alignment_moves(rows0, rows1))
        return out

    def _alignment_moves(self, rows0: Counter, rows1: Counter
                         ) -> list[TraceStep]:
        n, p, q = self.n_orig, self.p, self.q
        moves = []
        guard = 0
        while True:
            guard += 1
            if guard > 4 * (len(list(rows0.elements())) + 1):
                raise AssertionError("pair alignment did not terminate")
            extra = rows0 - rows1
            if not extra:
                break
            a1 = next(iter(extra.elements()))
            x = groups.entry(a1, p, n)
            s = x ^ groups.entry(a1, q, n)
            # a1 carries (x, y) with {x, y} = {s, 0}; find a partner in the
            # surplus with the opposite orientation of the same s
            partner = None
            for v in extra.elements():
                if v == a1:
                    continue
                vx = groups.entry(v, p, n)
                vs = vx ^ groups.entry(v, q, n)
                if vs == s and vx != x:
                    partner = v
                    break
            if partner is None:
                raise AssertionError("no alignment partner; merge invariant broken")
            na = _set_pair(a1, n, p, q, groups.entry(partner, p, n),
                           groups.entry(partner, q, n))
            nb = _set_pair(partner, n, p, q, x, groups.entry(a1, q, n))
            mv = Move(tuple(sorted((a1, partner))), tuple(sorted((na, nb))), n)
            moves.append(TraceStep(0, mv))
            rows0[a1] -= 1
            rows0[partner] -= 1
            rows0 += Counter((na, nb))
            rows0 = +rows0
        return moves


def _merge_row(v: int, n: int, p: int, q: int) -> int:
    ent = list(groups.unpack(v, n))
    s = ent[p] ^ ent[q]
    rest = [g for i, g in enumerate(ent) if i not in (p, q)]
    return groups.pack(rest + [s])


def _unmerge_row(m: int, n: int, p: int, q: int, x: int, y: int) -> int:
    ent = list(groups.unpack(m, n - 1))
    s = ent.pop()  # merged sum
    if (x ^ y) != s:
        raise ValueError("pair does not match merged sum")
    rest = iter(ent)
    out = []
    for i in range(n):
        if i == p:
            out.append(x)
        elif i == q:
            out.append(y)
        else:
            out.append(next(rest))
    return groups.pack(out)


def _set_pair(v: int, n: int, p: int, q: int, x: int, y: int) -> int:
    return groups.set_entry(groups.set_entry(v, p, n, x), q, n, y)


def _pop_preimage(pool: Counter, merged: int, n: int, p: int, q: int) -> int:
    for v in pool:
        if pool[v] > 0 and _merge_row(v, n, p, q) == merged:
            pool[v] -= 1
            return v
    raise ValueError("no preimage for merged row")


def merge_columns(t0: Table, t1: Table, p: Optional[int] = None,
                  q: Optional[int] = None) -> MergedPair:
    """Merge columns p and q (default: the last two) of a pair without bad
    pairs, returning the (n-1)-column pair plus the lifting recipe."""
    n = t0.n
    if p is None:
        p, q = n - 2, n - 1
    assert q is not None
    if p > q:
        p, q = q, p
    for t in (t0, t1):
        if find_bad_pairs(t, p, q):
            raise ValueError("bad pair present; columns cannot be merged")
    m0 = Table.make([_merge_row(v, n, p, q) for v in t0.rows], n - 1,
                    check=False)
    m1 = Table.make([_merge_row(v, n, p, q) for v in t1.rows], n - 1,
                    check=False)
    if not compatible(m0, m1):
        raise AssertionError("merged pair incompatible; precondition broken")
    return MergedPair(m0, m1, n, p, q, t0, t1)


# ---------------------------------------------------------------------------
# the reducer
# ---------------------------------------------------------------------------

def reduce_pair(t0: Table, t1: Table, *, max_degree: int = 4,
                node_budget: int = 10_000) -> ReduceResult:
    """Produce a validated trace of degree-<=max_degree moves making the
    tables equal.

    Every search of the reduction spends one budget of node_budget nodes.
    Returns success=False with a partial trace and diagnostics when that
    budget runs out or a strategy's search frontier empties; the partial
    trace is still legal move by move.
    """
    if max_degree < 2:
        raise ValueError("moves need degree >= 2")
    if not compatible(t0, t1):
        raise ValueError("reduce_pair needs compatible tables")
    diag = Diagnostics()
    budget = Budget(node_budget)
    cache = FiberCache()
    steps: list[TraceStep] = []
    a, b = t0, t1

    def apply_steps(new_steps: Sequence[TraceStep]) -> None:
        nonlocal a, b
        for st in new_steps:
            if st.side == 0:
                a = apply_move(a, st.move)
            else:
                b = apply_move(b, st.move)
            steps.append(st)

    guard = pinch_calls = 0
    pinch_s = 0.0
    message = ""
    try:
        while True:
            guard += 1
            if guard > 500:
                raise BudgetExhausted("iteration guard tripped")
            ra, rb = strip_common(a.rows, b.rows)
            if not ra:
                break
            if len(ra) <= max_degree:
                apply_steps([TraceStep(0, Move(ra, rb, a.n))])
                continue
            sa, sb = Table(ra, a.n), Table(rb, a.n)
            k = min_cross_k(ra, rb, a.n)
            t = time.perf_counter()
            pinch = _quadratic_pinch(sa, sb, k)
            pinch_calls += 1
            pinch_s += time.perf_counter() - t
            if pinch is not None:
                apply_steps([pinch])
                continue
            if k >= 4:
                diag.strategy_cases["ge4"] += 1
                strategy = reduce_hamming_ge4
            elif k == 3:
                diag.strategy_cases["abc"] += 1
                strategy = reduce_hamming_3
            else:
                diag.strategy_cases["k2"] += 1
                strategy = reduce_hamming_2
            apply_steps(strategy(sa, sb, budget, cache, max_degree))
    except StrategyGap as gap:
        diag.fallback_cases[gap.label] += 1
        message = f"strategy gap {gap.label}: search frontier emptied"
    except BudgetExhausted as exc:
        message = str(exc)
    diag.fiber_cache_hits = cache.hits
    diag.fiber_cache_misses = cache.misses
    diag.fiber_cap_hits = cache.cap_hits
    diag.nodes_spent = node_budget - max(budget.nodes, 0)
    diag.routines = {"pinch_calls": pinch_calls, "pinch_s": pinch_s,
                     "pair_search_calls": budget.searches,
                     "pair_search_s": budget.search_s,
                     "children_scored": budget.children,
                     "fiber_build_calls": cache.builds,
                     "fiber_build_s": cache.build_s}
    if message:
        return ReduceResult(steps, False, diag, message)
    if not trace_is_valid(t0, t1, steps, max_degree):
        raise AssertionError("produced an invalid trace; refusing to return it")
    return ReduceResult(steps, True, diag)


# ---------------------------------------------------------------------------
# fuzz generation
# ---------------------------------------------------------------------------

def random_flow(n: int, rng: random.Random) -> int:
    prefix = rng.randrange(4 ** (n - 1))
    return (prefix << 2) | groups.word_sum(prefix, n - 1)


def random_table(n: int, d: int, rng: random.Random) -> Table:
    return Table.make([random_flow(n, rng) for _ in range(d)], n, check=False)


class _SampleCap(Exception):
    pass


# Backtracking nodes per sampling attempt before it restarts.
SAMPLE_NODES = 200_000


def sample_fiber_member(t: Table, rng: random.Random) -> Table:
    """A random table with the profile of t, via randomized backtracking."""
    n, d = t.n, t.degree

    def attempt() -> Optional[list[int]]:
        counts = [list(col) for col in zip(*[iter(t.profile())] * 4)]
        nodes = 0

        def rec(rows: list[int]) -> Optional[list[int]]:
            if len(rows) == d:
                return rows

            def build(col: int, acc: int, s: int) -> Optional[list[int]]:
                nonlocal nodes
                nodes += 1
                if nodes > SAMPLE_NODES:
                    raise _SampleCap
                if col == n - 1:
                    if counts[col][s] > 0:
                        v = (acc << 2) | s
                        for i in range(n):
                            counts[i][groups.entry(v, i, n)] -= 1
                        rows.append(v)
                        got = rec(rows)
                        if got is not None:
                            return got
                        rows.pop()
                        for i in range(n):
                            counts[i][groups.entry(v, i, n)] += 1
                    return None
                syms = [g for g in range(4) if counts[col][g] > 0]
                rng.shuffle(syms)
                for g in syms:
                    got = build(col + 1, (acc << 2) | g, s ^ g)
                    if got is not None:
                        return got
                return None

            return build(0, 0, 0)

        return rec([])

    for _ in range(8):
        try:
            got = attempt()
        except _SampleCap:
            continue
        if got is not None:
            return Table.make(got, n, check=False)
    raise RuntimeError("fiber sampling failed; profile too constrained")


def random_compatible_pair(n: int, d: int,
                           rng: random.Random) -> tuple[Table, Table]:
    t0 = random_table(n, d, rng)
    t1 = sample_fiber_member(t0, rng)
    return t0, t1


@dataclass
class FuzzReport:
    total: int
    reduced: int
    replay_valid: int
    fallbacks: Counter
    max_trace_len: int
    failures: list[dict]
    search: Counter  # Diagnostics.search_counts summed over the pairs
    # Diagnostics.routines summed over the pairs
    routines: Counter = field(default_factory=Counter)

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "reduced": self.reduced,
            "replay_valid": self.replay_valid,
            "fallback_cases": dict(self.fallbacks),
            "search": dict(self.search),
            "routines": dict(self.routines),
            "max_trace_len": self.max_trace_len,
            "failures": self.failures,
        }


def _fuzz_outcome(pair: tuple[Table, Table], node_budget: int
                  ) -> tuple[ReduceResult, bool]:
    """Reduce one fuzz pair and replay its trace independently."""
    t0, t1 = pair
    res = reduce_pair(t0, t1, node_budget=node_budget)
    return res, res.success and trace_is_valid(t0, t1, res.steps, 4)


def fuzz_reduce(n: int, max_d: int, count: int, seed: int,
                *, node_budget: int = 10_000,
                pool: Optional[Pool] = None) -> FuzzReport:
    """Reduce `count` random compatible pairs of degree 2..max_d with moves
    of degree <= 4; every output trace is replayed independently.

    Every pair is drawn here from one generator seeded with `seed`, and
    reduction uses no randomness, so the report does not depend on
    `pool`, an optional multiprocessing pool that runs the reductions.
    """
    rng = random.Random(seed)
    pairs = [random_compatible_pair(n, rng.randint(2, max_d), rng)
             for _ in range(count)]
    outcomes = (pool.imap if pool else map)(
        functools.partial(_fuzz_outcome, node_budget=node_budget), pairs)
    rep = FuzzReport(count, 0, 0, Counter(), 0, [], Counter())
    for i, ((t0, t1), (res, valid)) in enumerate(zip(pairs, outcomes)):
        rep.fallbacks.update(res.diagnostics.fallback_cases)
        rep.search.update(res.diagnostics.search_counts())
        rep.routines.update(res.diagnostics.routines)
        rep.reduced += res.success
        if valid:
            rep.replay_valid += 1
            rep.max_trace_len = max(rep.max_trace_len, len(res.steps))
            continue
        rep.failures.append({"pair": i,
                             "reason": res.message or "replay failed",
                             "t0": t0.row_strings(), "t1": t1.row_strings()})
    return rep
