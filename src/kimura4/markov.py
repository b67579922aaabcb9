"""Fiber enumeration, fiber-graph connectivity, and generator censuses.

A fiber is the set of all degree-d tables sharing a column profile; a
binomial lies in the ideal exactly when its two tables share a fiber.  The
number of minimal generators in degree d equals, summed over degree-d
fibers, the number of connected components under moves replacing a proper
sub-multiset (degree <= d-1) minus one.

Two tables of a fiber are one such move apart iff they share at least one
row, and one move of degree <= m apart iff they share t = d-m rows, so the
big censuses (t = 1) and connectivity checks (t = d - move degree) never
enumerate moves.  A stream of keyed multisets is split by a hash of the
profile key into buckets, in memory or in shard files on disk, so every
fiber lies in one bucket; one kernel numbers each bucket's fibers and
unions members through hashed shared sub-multisets with a vectorized
min-label flood.  A small dict-based reference route cross-checks the
vectorized engine at toy scale.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import groups
from .groups import FaceSpec, ProfileKeyTooWide
from .tables import Table, profile_of_rows


# ---------------------------------------------------------------------------
# reference route (exact, small scale)
# ---------------------------------------------------------------------------

@dataclass
class Fiber:
    profile: tuple[int, ...]
    members: list[tuple[int, ...]]
    degree: int
    n: int

    def tables(self) -> list[Table]:
        return [Table(m, self.n) for m in self.members]


def fibers(n: int, degree: int, face: Optional[FaceSpec] = None,
           *, include_singletons: bool = True) -> Iterator[Fiber]:
    """Group every degree-d multiset of flows on the face by profile.

    Reference implementation; materializes everything, so keep
    C(V+d-1, d) small.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    flows = groups.enumerate_flows(n, face)
    groups_map: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for rows in itertools.combinations_with_replacement(flows, degree):
        groups_map.setdefault(profile_of_rows(rows, n), []).append(rows)
    for prof, members in groups_map.items():
        if include_singletons or len(members) > 1:
            yield Fiber(prof, members, degree, n)


def multiset_diff_size(a: Sequence[int], b: Sequence[int]) -> int:
    """|a \\ b| for sorted row multisets of equal size."""
    i = j = changed = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            i += 1
            j += 1
        elif a[i] < b[j]:
            changed += 1
            i += 1
        else:
            j += 1
    return changed + (len(a) - i)


def fiber_components(f: Fiber, move_degree: int,
                     *, census_mode: bool = False
                     ) -> tuple[int, list[tuple[int, ...]]]:
    """Component count and one representative per component.

    Edges are moves of degree <= move_degree; census mode additionally
    restricts to proper sub-multiset replacements (degree <= d-1), the
    convention under which components count minimal generators.
    """
    if move_degree < 2:
        # no degree-1 moves exist, so with bound < 2 everything is isolated
        bound = 1
    else:
        bound = move_degree
    if census_mode:
        bound = min(bound, f.degree - 1)
    m = len(f.members)
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(m):
        for j in range(i + 1, m):
            if multiset_diff_size(f.members[i], f.members[j]) <= bound:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    reps: dict[int, tuple[int, ...]] = {}
    for i in range(m):
        reps.setdefault(find(i), f.members[i])
    return len(reps), list(reps.values())


def census_reference(n: int, max_degree: int,
                     face: Optional[FaceSpec] = None) -> dict[int, int]:
    """Per-degree minimal generator counts via the dict route."""
    out = {}
    for d in range(2, max_degree + 1):
        total = 0
        for f in fibers(n, d, face, include_singletons=False):
            comps, _ = fiber_components(f, d - 1, census_mode=True)
            total += comps - 1
        out[d] = total
    return out


# ---------------------------------------------------------------------------
# vectorized engine
# ---------------------------------------------------------------------------

# Node incidences (members times size-t sub-multisets) per in-memory
# bucket: the kernel's sorts and flood run on one bucket at a time, so this
# bounds their working set.
BUCKET_INCIDENCES = 500_000

_KEY_HASH = np.uint64(0x9E3779B97F4A7C15)

# Multisets keyed and bucketed at a time.
KEYED_CHUNK = 2_000_000

# Flood rounds before the label flood is declared stuck.
FLOOD_MAX_ITER = 200


def multiset_index_array(v: int, d: int) -> np.ndarray:
    """All nondecreasing index d-tuples over range(v), lex order."""
    flat = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(v), d))
    return np.fromiter(flat, dtype=np.int16 if v <= 32767 else np.int32,
                       count=math.comb(v + d - 1, d) * d).reshape(-1, d)


def _iter_keyed_chunks(v: int, d: int, key1: np.ndarray
                       ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream (profile keys, row index arrays) over all degree-d multisets.

    Each nondecreasing (d-2)-prefix ending in s is completed by the pairs
    whose first index is >= s, a suffix of the lex-ordered pair list.
    """
    pairs = multiset_index_array(v, 2)
    pair_keys = key1[pairs[:, 0]] + key1[pairs[:, 1]]
    buf: list[tuple[np.ndarray, np.ndarray]] = []
    size = 0
    for prefix in itertools.combinations_with_replacement(range(v), d - 2):
        s = prefix[-1] if prefix else 0
        lo = s * v - s * (s - 1) // 2  # pairs whose first index is < s
        rows = np.empty((len(pairs) - lo, d), dtype=pairs.dtype)
        rows[:, :d - 2] = prefix
        rows[:, d - 2:] = pairs[lo:]
        buf.append((pair_keys[lo:] + sum(int(key1[i]) for i in prefix), rows))
        size += len(rows)
        if size >= KEYED_CHUNK:
            yield tuple(np.concatenate(col) for col in zip(*buf))
            buf, size = [], 0
    if buf:
        yield tuple(np.concatenate(col) for col in zip(*buf))


def _buckets(v: int, d: int, key1: np.ndarray, n_buckets: int,
             spill_dir: Optional[str] = None,
             progress: Optional[Callable[[str], None]] = None
             ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every degree-d multiset as (keys, rows), one non-empty bucket at a time.

    Members go to buckets by a hash of their profile key, so each fiber
    lies in one bucket.  Buckets are held in memory, or with spill_dir
    written to one shard file each and read back one at a time.
    """
    rec_dtype = np.dtype([("key", "<i8"),
                          ("rows", np.int16 if v <= 32767 else np.int32, (d,))])
    paths = [os.path.join(spill_dir, f"shard{j:03d}.bin")
             for j in range(n_buckets)] if spill_dir else []
    handles = [open(p, "wb") for p in paths]
    parts: list[list[np.ndarray]] = [[] for _ in range(n_buckets)]
    written = 0
    try:
        for keys, rows in _iter_keyed_chunks(v, d, key1):
            sid = ((keys.astype(np.uint64) * _KEY_HASH)
                   >> np.uint64(40)).astype(np.int64) % n_buckets
            order = np.argsort(sid, kind="stable")
            bounds = np.searchsorted(sid[order], np.arange(n_buckets + 1))
            rec = np.empty(len(keys), dtype=rec_dtype)
            rec["key"] = keys[order]
            rec["rows"] = rows[order]
            for j in np.flatnonzero(np.diff(bounds)):
                if handles:
                    rec[bounds[j]:bounds[j + 1]].tofile(handles[j])
                else:
                    parts[j].append(rec[bounds[j]:bounds[j + 1]])
            written += len(keys)
            if handles and progress and written % 20_000_000 < len(keys):
                progress(f"degree {d}: spilled {written} multisets")
    finally:
        for h in handles:
            h.close()
    if written != math.comb(v + d - 1, d):
        raise AssertionError(f"bucketed {written} members, "
                             f"expected {math.comb(v + d - 1, d)}")
    for j in range(n_buckets):
        rec = (np.fromfile(paths[j], dtype=rec_dtype) if paths
               else np.concatenate(parts[j] or [np.empty(0, rec_dtype)]))
        parts[j] = []
        if not len(rec):
            continue
        yield rec["key"], rec["rows"]
        if paths and progress:
            progress(f"degree {d}: shard {j + 1}/{n_buckets} done")


def _n_buckets(v: int, d: int, t: int) -> int:
    return max(1, math.comb(v + d - 1, d) * math.comb(d, t)
               // BUCKET_INCIDENCES)


def _min_label_flood(labels: np.ndarray, incidences: list[np.ndarray],
                     n_nodes: int) -> np.ndarray:
    """Union members that share a hashed node, by min-label flooding.

    `incidences` holds, per slot, the node id each member touches.  After
    convergence two members have equal labels iff they are connected in
    the member-node bipartite graph.
    """
    node_lab = np.empty(n_nodes, dtype=labels.dtype)
    for _ in range(FLOOD_MAX_ITER):
        node_lab.fill(np.iinfo(labels.dtype).max)
        for inc in incidences:
            np.minimum.at(node_lab, inc, labels)
        new = labels
        for inc in incidences:
            new = np.minimum(new, node_lab[inc])
        if np.array_equal(new, labels):
            return labels
        labels = new
    raise RuntimeError("label flood did not converge")


def _components(keys: np.ndarray, rows: np.ndarray, v: int, t: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fibers and components of one bucket of degree-d members.

    Sorted by profile key, each fiber is a run whose id is a cumsum over
    run boundaries.  Members of a fiber are one move of degree <= d-t apart
    iff they share t rows, so each size-t sub-multiset of a member's rows,
    tagged with its fiber id, is a node the flood unions through.  Returns
    the sorted rows and two masks over them: the first member of each
    fiber and the least member of each component.
    """
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], rows[order]
    m, d = rows.shape
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    labels = np.arange(m, dtype=np.int64)
    # no move has degree < 2, so with d - t < 2 every member is isolated
    if d - t >= 2:
        pos = np.array(list(itertools.combinations(range(d), t))).reshape(-1, t)
        nodes = np.broadcast_to(np.cumsum(starts) - 1, (len(pos), m))
        row_bits = max(1, (v - 1).bit_length())
        for k in range(t):
            nodes = (nodes << row_bits) | rows[:, pos[:, k]].T
        uniq, codes = np.unique(nodes, return_inverse=True)
        codes = codes.reshape(nodes.shape).astype(
            np.int32 if len(uniq) < 2**31 else np.int64)
        del nodes
        labels = _min_label_flood(labels, list(codes), len(uniq))
    return rows, starts, labels == np.arange(m)


# ---------------------------------------------------------------------------
# generator census
# ---------------------------------------------------------------------------

@dataclass
class DegreeCensus:
    degree: int
    generators: int
    fibers: int
    multisets: int
    elapsed_s: float


@dataclass
class CensusReport:
    n: int
    face: str
    max_degree: int
    rows: list[DegreeCensus] = field(default_factory=list)
    complete: bool = True
    note: str = ""

    def counts(self) -> dict[int, int]:
        return {r.degree: r.generators for r in self.rows}

    def to_json(self) -> dict:
        return {
            "n_leaves": self.n,
            "face": self.face,
            "max_degree": self.max_degree,
            "complete": self.complete,
            "note": self.note,
            "degrees": [
                {"degree": r.degree, "generators": r.generators,
                 "fibers": r.fibers, "multisets": r.multisets,
                 "elapsed_s": round(r.elapsed_s, 3)}
                for r in self.rows
            ],
        }


def _census_degree(n: int, d: int, face: Optional[FaceSpec],
                   member_budget: int, shards: int,
                   cache_dir: Optional[str],
                   progress: Optional[Callable[[str], None]]
                   ) -> DegreeCensus:
    t0 = time.time()
    flows = groups.flows_array(n, face)
    v = len(flows)
    m_total = math.comb(v + d - 1, d)
    if m_total > member_budget and shards <= 0:
        raise MemoryError(
            f"degree {d}: {m_total} multisets exceed budget {member_budget}; "
            f"rerun with shards")
    key1 = groups.profile_keys(flows, n, d)

    def count(buckets) -> DegreeCensus:
        # adjacency under proper moves (degree <= d-1) is row sharing, t = 1
        fibers = components = 0
        for keys, rows in buckets:
            _, starts, roots = _components(keys, rows, v, 1)
            fibers += int(np.count_nonzero(starts))
            components += int(np.count_nonzero(roots))
        return DegreeCensus(d, components - fibers, fibers, m_total,
                            time.time() - t0)

    if m_total <= member_budget:
        return count(_buckets(v, d, key1, _n_buckets(v, d, 1)))
    base = cache_dir or os.environ.get("KIMURA_CACHE_DIR") or None
    with tempfile.TemporaryDirectory(prefix="kimura4-census-", dir=base,
                                     ignore_cleanup_errors=True) as tmpdir:
        return count(_buckets(v, d, key1, shards, tmpdir, progress))


def minimal_generator_census(n: int, max_degree: int,
                             face: Optional[FaceSpec] = None,
                             *, member_budget: int = 60_000_000,
                             shards: int = 0,
                             cache_dir: Optional[str] = None,
                             progress: Optional[Callable[[str], None]] = None
                             ) -> CensusReport:
    """Minimal-generator counts per degree 2..max_degree.

    Degrees whose multiset count exceeds member_budget go through the
    sharded spill path when shards > 0 (spill directory: cache_dir or
    KIMURA_CACHE_DIR or a tempdir), and otherwise stop the report early
    with a budget note.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    report = CensusReport(n, str(face or ""), max_degree)
    for d in range(2, max_degree + 1):
        try:
            row = _census_degree(n, d, face, member_budget, shards,
                                 cache_dir, progress)
        except (MemoryError, ProfileKeyTooWide) as exc:
            report.complete = False
            report.note = str(exc)
            break
        report.rows.append(row)
        if progress:
            progress(f"degree {d}: {row.generators} generators over "
                     f"{row.fibers} fibers ({row.elapsed_s:.1f}s)")
    return report


# ---------------------------------------------------------------------------
# connectivity of fibers under degree-<=4 moves
# ---------------------------------------------------------------------------

@dataclass
class ConnectivityResult:
    ok: bool
    n: int
    face: str
    max_table_degree: int
    move_degree: int
    checked: list[int] = field(default_factory=list)
    witness: Optional[tuple[list[str], list[str]]] = None

    def to_json(self) -> dict:
        obj = {
            "connected": self.ok,
            "n_leaves": self.n,
            "face": self.face,
            "max_table_degree": self.max_table_degree,
            "move_degree": self.move_degree,
            "checked_degrees": self.checked,
        }
        if self.witness:
            obj["witness"] = {"t0": self.witness[0], "t1": self.witness[1]}
        return obj


def _connectivity_degree(n: int, d: int, move_degree: int,
                         face: Optional[FaceSpec]
                         ) -> Optional[tuple[list[str], list[str]]]:
    """None if every degree-d fiber is connected, else a witness pair."""
    flows = groups.flows_array(n, face)
    key1 = groups.profile_keys(flows, n, d)
    v = len(flows)
    t = d - move_degree
    for keys, rows in _buckets(v, d, key1, _n_buckets(v, d, t)):
        rows, starts, roots = _components(keys, rows, v, t)
        split = np.flatnonzero(roots & ~starts)
        if len(split):
            # a second component of some fiber, and that fiber's first member
            b = split[0]
            a = np.flatnonzero(starts[:b])[-1]
            return tuple([groups.format_flow(int(flows[i]), n)
                          for i in rows[k]] for k in (a, b))
    return None


def connectivity_check(n: int, max_table_degree: int, move_degree: int = 4,
                       face: Optional[FaceSpec] = None,
                       *, progress: Optional[Callable[[str], None]] = None
                       ) -> ConnectivityResult:
    """True iff every fiber of degree <= max_table_degree is connected
    under moves of degree <= move_degree.

    Degrees d <= move_degree are connected outright (one full-table move);
    for larger d the shared-submultiset flood does the work.  On failure
    the witness is a compatible pair no degree-<=move_degree trace joins.
    """
    res = ConnectivityResult(True, n, str(face or ""), max_table_degree,
                             move_degree)
    for d in range(2, max_table_degree + 1):
        if d <= move_degree:
            res.checked.append(d)
            continue
        witness = _connectivity_degree(n, d, move_degree, face)
        res.checked.append(d)
        if progress:
            progress(f"degree {d}: {'ok' if witness is None else 'DISCONNECTED'}")
        if witness is not None:
            res.ok = False
            res.witness = witness
            return res
    return res
