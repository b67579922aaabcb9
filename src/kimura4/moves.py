"""Degree-bounded moves between tables and fiber neighbor generation.

A move removes a sub-multiset of rows and inserts a compatible multiset of
the same size; applying it to a table leaves the profile (and degree)
untouched.  Replacing a single row is never possible non-trivially because
distinct flows have distinct profiles, so every real move has degree >= 2.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import groups
from .tables import Table, profile_of_rows


def _check_exchange(removed: Sequence[int], inserted: Sequence[int],
                    n: int) -> None:
    """Raise ValueError unless the two row multisets are compatible flows."""
    if len(removed) != len(inserted):
        raise ValueError("move must exchange equally many rows")
    for v in tuple(removed) + tuple(inserted):
        if not groups.is_flow(v, n):
            raise ValueError(
                f"{groups.format_flow(v, n)} is not a flow of length {n}")
    if profile_of_rows(removed, n) != profile_of_rows(inserted, n):
        raise ValueError("removed and inserted rows are not compatible")


@dataclass(frozen=True)
class Move:
    """An exchange of `removed` for the compatible multiset `inserted`."""

    removed: tuple[int, ...]
    inserted: tuple[int, ...]
    n: int

    @classmethod
    def make(cls, removed: Iterable[int], inserted: Iterable[int], n: int,
             *, check: bool = True) -> "Move":
        rem = tuple(sorted(removed))
        ins = tuple(sorted(inserted))
        if check:
            if rem == ins:
                raise ValueError("trivial move (removed == inserted)")
            _check_exchange(rem, ins, n)
        return cls(rem, ins, n)

    @property
    def degree(self) -> int:
        return len(self.removed)

    def reversed(self) -> "Move":
        return Move(self.inserted, self.removed, self.n)

    def to_json(self) -> dict:
        return {
            "remove": [groups.format_flow(v, self.n) for v in self.removed],
            "insert": [groups.format_flow(v, self.n) for v in self.inserted],
        }

    @classmethod
    def from_json(cls, obj) -> "Move":
        rem = [groups.parse_flow(s) for s in obj["remove"]]
        ins = [groups.parse_flow(s) for s in obj["insert"]]
        return cls.make(rem, ins, len(obj["remove"][0]))


def apply_move(t: Table, m: Move) -> Table:
    """Table with m.removed deleted and m.inserted added."""
    if t.n != m.n:
        raise ValueError("move length does not match table")
    remaining = t.without(m.removed)
    return Table.make(remaining + m.inserted, t.n, check=False)


# ---------------------------------------------------------------------------
# replacement fibers
# ---------------------------------------------------------------------------

def _pair_replacements(rows: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """All 2-row multisets compatible with the given 2 rows (fast path).

    A replacement pair is obtained by moving a subset of the differing
    columns from one row to the other; the subset's deltas must sum to zero
    to keep rows flows.
    """
    a, b = rows
    diff = a ^ b
    subsets = [(0, 0)]  # (sum of the chosen deltas, the deltas in place)
    for sh in range(0, 2 * n, 2):
        d = (diff >> sh) & 3
        if d:
            subsets += [(x ^ d, D | d << sh) for x, D in subsets]
    return sorted({(a ^ D, b ^ D) if a ^ D <= b ^ D else (b ^ D, a ^ D)
                   for x, D in subsets if not x})


def profile_fiber(rows: Sequence[int], n: int,
                  cap: Optional[int] = None) -> list[tuple[int, ...]]:
    """All sorted row multisets sharing the profile of `rows`, ascending.

    Two rows go through `_pair_replacements`.  Otherwise the candidates are
    the flows whose every symbol occurs in the profile, ascending.  The
    remaining column counts are packed into one int, a cell per (column,
    symbol) with a guard bit on top of each, so a flow fits when
    subtracting its cells leaves every guard bit set.  Rows are chosen in
    nondecreasing order, each level keeping the candidates that still fit,
    and the last row is read off the remaining counts.  The top two bits of
    a row hold its column-0 symbol, so in a member with sorted rows the
    k-th row carries the k-th least column-0 symbol of the profile: a row
    with a greater symbol would leave a lesser one that no later row can
    take.  Each level therefore walks only the contiguous run of
    candidates carrying its symbol.  `cap` bounds the number of members
    returned (None = exhaustive); exceeding it raises FiberTooLarge so
    callers never mistake a truncation for the whole fiber.
    For three or more rows a capped request first counts the ordered row
    tuples of the profile (`ordered_flow_tuples`): a multiset has at most
    s! orderings, so more than cap * s! tuples prove the fiber too large
    without building it, and FiberTooLarge then carries that lower bound
    rather than a member count.
    """
    s = len(rows)
    if s <= 2:
        out = _pair_replacements(rows, n) if s == 2 else [tuple(rows)]
        if cap is not None and len(out) > cap:
            raise FiberTooLarge(len(out))
        return out
    prof = profile_of_rows(rows, n)
    if cap is not None:
        orderings = math.factorial(s)
        tuples = ordered_flow_tuples(prof, n, s)
        if tuples > cap * orderings:
            raise FiberTooLarge(-(-tuples // orderings))
    width = s.bit_length() + 1  # a count up to s plus its guard bit
    rem = guard = off = 0
    cells = []  # per column: (symbol, its cell's unit) for present symbols
    for i in range(n):
        present = [g for g in range(4) if prof[4 * i + g]]
        if len(present) == 1:
            # every candidate carries this symbol: the count needs no cell
            cells.append([(present[0], 0)])
            continue
        col = []
        for g in present:
            col.append((g, 1 << off))
            rem |= prof[4 * i + g] << off
            guard |= 1 << (off + width - 1)
            off += width
        cells.append(col)
    # a flow is a head and a tail of equal xor; meeting in the middle
    # builds no word that is not part of a flow
    half = n // 2
    tails: dict[int, list[tuple[int, int]]] = {}
    for w, x, q in _words(cells[half:]):
        tails.setdefault(x, []).append((w, q))
    shift = 2 * (n - half)
    pool = [((v << shift) | w, p + q) for v, x, p in _words(cells[:half])
            for w, q in tails.get(x, ())]
    row_of = {p: v for v, p in pool}
    # the k-th row of every member carries the k-th least column-0 symbol
    top = 2 * (n - 1)
    runs = tuple((g << top, (g + 1) << top)
                 for g in range(4) for _ in range(prof[g]))
    out: list[tuple[int, ...]] = []
    _grow(out, pool, rem, (), s, guard, row_of, cap, runs)
    return out


def ordered_flow_tuples(prof: tuple[int, ...], n: int, s: int) -> int:
    """Ordered s-tuples of flows whose columns carry the profile `prof`.

    A word is a flow when its symbols xor to 0, and the characters
    chi_h(g) = (-1)^popcount(h & g) of Z2 x Z2 detect that:
    [x = 0] = 1/4 sum_h chi_h(x).  So the count is 4^-s times the sum over
    h in {0..3}^s of the product over columns of sum over the column's
    arrangements g of prod_j chi_{h_j}(g_j).  That column factor is
    symmetric in h, so the sum runs over sorted h with multinomial weights
    (`_column_factors`).
    """
    weights, factors = _column_factors(s)
    acc = weights
    for i in range(0, 4 * n, 4):
        acc = [a * f for a, f in zip(acc, factors[prof[i:i + 4]])]
    return sum(acc) >> (2 * s)


@functools.cache
def _column_factors(s: int) -> tuple[list[int], dict[tuple[int, ...],
                                                      list[int]]]:
    """(weight of each sorted h, {column counts: factor for each h}).

    The factor of a column is the coefficient of its counts in the product
    over j of the linear forms sum_g chi_{h_j}(g) x_g.
    """
    classes = list(itertools.combinations_with_replacement(range(4), s))
    weights = [math.factorial(s) // math.prod(
        math.factorial(h.count(g)) for g in range(4)) for h in classes]
    factors: dict[tuple[int, ...], list[int]] = {}
    for h in classes:
        poly = {(0, 0, 0, 0): 1}
        for hj in h:
            nxt: dict[tuple[int, ...], int] = {}
            for counts, a in poly.items():
                for g in range(4):
                    key = counts[:g] + (counts[g] + 1,) + counts[g + 1:]
                    sign = -1 if bin(hj & g).count("1") & 1 else 1
                    nxt[key] = nxt.get(key, 0) + sign * a
            poly = nxt
        for counts, a in poly.items():
            factors.setdefault(counts, []).append(a)
    return weights, factors


def _words(cols: list[list[tuple[int, int]]]) -> list[tuple[int, int, int]]:
    """(word, xor of its symbols, its cells) over `cols`, ascending."""
    out = [(0, 0, 0)]
    for col in cols:
        out = [((v << 2) | g, x ^ g, p + u) for v, x, p in out
               for g, u in col]
    return out


def _grow(out: list[tuple[int, ...]], cands: list[tuple[int, int]], rem: int,
          prefix: tuple[int, ...], left: int, guard: int,
          row_of: dict[int, int], cap: Optional[int],
          runs: tuple[tuple[int, int], ...]) -> None:
    """Append every completion of `prefix` by `left` rows to `out`.

    `cands` holds the (flow, cells) that fit the packed counts `rem`,
    ascending from the last row of `prefix`; `row_of` maps cells to flows.
    The next row is drawn from the run [lo, hi) of flows that carry its
    column-0 symbol, `runs[len(prefix)]`.
    """
    lo, hi = runs[len(prefix)]
    start = bisect.bisect_left(cands, (lo,))
    if left == 2:
        for v, p in itertools.islice(cands, start, None):
            if v >= hi:
                break
            w = row_of.get(rem - p)
            if w is not None and w >= v:
                out.append(prefix + (v, w))
        if cap is not None and len(out) > cap:
            raise FiberTooLarge(len(out))
        return
    for j in range(start, len(cands)):
        v, p = cands[j]
        if v >= hi:
            break
        r = rem - p
        g = r | guard
        _grow(out, [c for c in cands[j:] if (g - c[1]) & guard == guard],
              r, prefix + (v,), left - 1, guard, row_of, cap, runs)


# The most elements one orbit-route array may hold: a degree's candidate
# codes (`markov.orbit_layers`), a chunk's fiber states (`witness_fibers`)
# or a chunk's node keys (`markov._share_labels`), measured at about 10 and
# 20 bytes each for the first two at their peaks (README, "Notes on scale").
MAX_CELLS = 100_000_000


class SizeLimitExceeded(Exception):
    """An array of the orbit route would hold more than MAX_CELLS elements."""


def check_cells(cells: int, what: str) -> None:
    """Raise SizeLimitExceeded if `cells` is over MAX_CELLS."""
    if cells > MAX_CELLS:
        raise SizeLimitExceeded(f"{what}: {cells} cells, more than {MAX_CELLS}")


def _cell_mask(cells: np.ndarray) -> np.ndarray:
    """Each row of a (m, 4n) bool array of (column, symbol) cells as one
    uint64 bit mask (n <= 16)."""
    packed = np.zeros((len(cells), 8), dtype=np.uint8)
    packed[:, :(cells.shape[1] + 7) // 8] = np.packbits(
        cells, axis=1, bitorder="little")
    return packed.view("<u8").ravel()


def witness_fibers(witnesses: np.ndarray, flows: np.ndarray, n: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The fibers of many row multisets at once, as arrays.

    `witnesses` (k, d) holds multisets of packed flows and `flows` the
    sorted flows that their fibers' rows are drawn from.  Returns the
    witness of each member and the members as rows of indices into
    `flows`; each witness's members are contiguous and in `profile_fiber`'s
    order.  The search is `_grow`'s, run level by level over every state of
    every witness: rows ascend, row j comes from the run of flows carrying
    the j-th least column-0 symbol, and the last row is read off the
    remaining counts.  A state's candidates are a slice of its witness's
    pool, the flows whose every symbol occurs in the profile; a candidate
    fits when each of its (column, symbol) cells still has a count, one
    test on bit masks of the cells.  Candidates are tested in blocks of
    about k * v, the size of the pool test, which bounds the working set.
    After each level, `check_cells` takes the states x (4n counts + rows).
    """
    k, d = witnesses.shape
    v = len(flows)
    sym = groups.column_symbols(flows, n)
    # a flow's (column, symbol) cells, and its counts and mask over them
    cells = sym + 4 * np.arange(n, dtype=np.uint8)
    onehot = np.zeros((v, 4 * n), dtype=np.uint8)
    onehot[np.arange(v)[:, None], cells] = 1
    bits = _cell_mask(onehot > 0)
    rows = np.searchsorted(flows, witnesses)
    counts = onehot[rows].sum(axis=1, dtype=np.min_scalar_type(d))
    mask = _cell_mask(counts > 0)
    # pool: (witness, flow) pairs in ascending order; bounds[w, g] is where
    # witness w's flows of column-0 symbol g start in it
    pool_w, pool_f = np.nonzero((bits & ~mask[:, None]) == 0)
    pool_f = pool_f.astype(np.int32)
    sym0_start = np.searchsorted(sym[:, 0], np.arange(5))
    bounds = np.searchsorted(pool_w * v + pool_f,
                             np.arange(k)[:, None] * v + sym0_start)
    level_sym = np.sort(sym[rows, 0], axis=1)
    wid, at = np.arange(k, dtype=np.int32), np.zeros(k, dtype=np.int32)
    prefix = np.empty((k, 0), dtype=np.int32)
    for j in range(d - 1):
        # each state's candidates: its run, from its last row on
        g = level_sym[wid, j]
        start = np.maximum(bounds[wid, g], at)
        cnt = np.maximum(bounds[wid, g + 1] - start, 0)
        end = np.cumsum(cnt)
        shift = (start - end + cnt).astype(np.int32)
        cuts = [0, *np.searchsorted(end, range(k * v, end[-1], k * v),
                                    side="right"), len(cnt)]
        kept = []
        for lo, hi in itertools.pairwise(cuts):
            parent = np.repeat(np.arange(lo, hi, dtype=np.int32), cnt[lo:hi])
            at = np.arange(end[lo] - cnt[lo], end[hi - 1],
                           dtype=np.int32) + shift[parent]
            f = pool_f[at]
            fit = (bits[f] & ~mask[parent]) == 0
            kept.append((parent[fit], at[fit], f[fit]))
        parent, at, f = (np.concatenate(x) for x in zip(*kept))
        wid, prefix = wid[parent], np.column_stack([prefix[parent], f])
        counts = counts[parent] - onehot[f]
        mask = _cell_mask(counts > 0)
        check_cells(counts.size + prefix.size, f"degree {d}: fiber states")
    # one count is left per column, so the mask is the last row's cells
    by_bits = np.argsort(bits).astype(np.int32)
    last = by_bits[np.searchsorted(bits, mask, sorter=by_bits)]
    if d > 1:
        keep = last >= prefix[:, -1]
        wid, prefix, last = wid[keep], prefix[keep], last[keep]
    return wid, np.column_stack([prefix, last])


class FiberTooLarge(Exception):
    """Raised when a replacement fiber exceeds the requested cap.

    Its argument is a size the fiber has at least: a member count or
    `profile_fiber`'s lower bound, either way above the cap.
    """


FIBER_CACHE_ENTRIES = 1 << 18  # fibers a FiberCache stores at most


class FiberCache:
    """Memo table from sub-multiset profile to its full replacement fiber.

    `hits` counts lookups answered from the table, `misses` fibers built
    and stored, `cap_hits` lookups whose fiber exceeded the request's cap
    (proved by `profile_fiber`'s count, built, or stored; FiberTooLarge is
    raised each way and nothing is stored).  `builds` and `build_s` count
    and time the `profile_fiber` calls of lookups not answered from the
    table, whether they return or raise FiberTooLarge.
    """

    def __init__(self):
        self._data: dict = {}
        self.hits = 0
        self.misses = 0
        self.cap_hits = 0
        self.builds = 0
        self.build_s = 0.0

    def fiber_for(self, rows: Sequence[int], n: int,
                  cap: Optional[int] = None) -> list[tuple[int, ...]]:
        key = profile_of_rows(rows, n)
        hit = self._data.get(key)
        if hit is not None:
            if cap is not None and len(hit) > cap:
                self.cap_hits += 1
                raise FiberTooLarge(len(hit))
            self.hits += 1
            return hit
        self.builds += 1
        t = time.perf_counter()
        try:
            members = profile_fiber(rows, n, cap=cap)
        except FiberTooLarge:
            self.cap_hits += 1
            raise
        finally:
            self.build_s += time.perf_counter() - t
        self.misses += 1
        if len(self._data) < FIBER_CACHE_ENTRIES:
            self._data[key] = members
        return members


def exchanges(rows: tuple[int, ...], n: int, max_deg: int,
              cache: Optional[FiberCache] = None,
              *, fiber_cap: Optional[int] = None
              ) -> Iterator[tuple[tuple[int, ...], list[int],
                                  list[tuple[int, ...]]]]:
    """(sub-multiset, the rows it leaves, its replacement fiber) for each
    distinct sub-multiset of 2..max_deg of the sorted `rows`.

    Sub-multisets come in canonical combination order.  Size-1 selections
    are skipped outright (no non-trivial single-row replacement exists),
    and so are fibers over `fiber_cap` members.  The fiber holds the
    sub-multiset itself.
    """
    if max_deg < 2:
        raise ValueError("moves need degree >= 2")
    cache = cache or FiberCache()
    for s in range(2, min(max_deg, len(rows)) + 1):
        subs: set[tuple[int, ...]] = set()
        for idx in itertools.combinations(range(len(rows)), s):
            sub = tuple([rows[i] for i in idx])
            if sub in subs:
                continue
            subs.add(sub)
            try:
                fiber = cache.fiber_for(sub, n, cap=fiber_cap)
            except FiberTooLarge:
                continue
            keep = list(rows)
            for i in reversed(idx):
                del keep[i]
            yield sub, keep, fiber


def neighbors(t: Table, max_deg: int, cache: Optional[FiberCache] = None,
              *, fiber_cap: Optional[int] = None
              ) -> Iterator[tuple[Move, Table]]:
    """All tables one legal move of degree <= max_deg away, each once.

    The moves are the `exchanges` of t's rows, in their order; a table
    reached again is skipped.
    """
    seen: set[tuple[int, ...]] = set()
    for sub, keep, fiber in exchanges(t.rows, t.n, max_deg, cache,
                                      fiber_cap=fiber_cap):
        for repl in fiber:
            if repl == sub:
                continue
            new_rows = tuple(sorted(keep + list(repl)))
            if new_rows not in seen:
                seen.add(new_rows)
                yield Move(sub, repl, t.n), Table(new_rows, t.n)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    side: int  # 0 applies to T0, 1 applies to T1
    move: Move

    def to_json(self) -> dict:
        obj = {"side": "T0" if self.side == 0 else "T1"}
        obj.update(self.move.to_json())
        return obj

    @classmethod
    def from_json(cls, obj) -> "TraceStep":
        side = {"T0": 0, "T1": 1}[obj["side"]]
        return cls(side, Move.from_json(obj))


def replay_trace(t0: Table, t1: Table, steps: Sequence[TraceStep],
                 max_degree: int = 4) -> tuple[Table, Table]:
    """Replay steps, validating every move; returns the transformed pair.

    Raises ValueError on any illegal step (bad degree, sub-multiset not
    present, incompatible exchange).
    """
    a, b = t0, t1
    for step in steps:
        if step.move.degree > max_degree:
            raise ValueError(
                f"move degree {step.move.degree} exceeds bound {max_degree}")
        # a Move built without Move.make carries no guarantee
        _check_exchange(step.move.removed, step.move.inserted, t0.n)
        if step.side == 0:
            a = apply_move(a, step.move)
        else:
            b = apply_move(b, step.move)
    return a, b


def trace_is_valid(t0: Table, t1: Table, steps: Sequence[TraceStep],
                   max_degree: int = 4) -> bool:
    try:
        a, b = replay_trace(t0, t1, steps, max_degree)
    except ValueError:
        return False
    return a == b


def write_trace(path: str, steps: Sequence[TraceStep]) -> None:
    with open(path, "w") as fh:
        for step in steps:
            fh.write(json.dumps(step.to_json()) + "\n")


def read_trace(path: str) -> list[TraceStep]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(TraceStep.from_json(json.loads(line)))
    return out
