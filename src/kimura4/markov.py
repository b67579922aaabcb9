"""Fiber enumeration, fiber-graph connectivity, and generator censuses.

A fiber is the set of all degree-d tables sharing a column profile; a
binomial lies in the ideal exactly when its two tables share a fiber.  The
number of minimal generators in degree d equals, summed over degree-d
fibers, the number of connected components under moves replacing a proper
sub-multiset (degree <= d-1) minus one.

Two tables of a fiber are one such move apart iff they share at least one
row, and one move of degree <= m apart iff they share t = d-m rows, so the
censuses (t = 1) and connectivity checks (t = d - move degree) never
enumerate moves.

Translation by a flow, an automorphism of Z2 x Z2 on every entry and a
permutation of the leaves map fibers to fibers and keep row sharing, so
fibers in one symmetry orbit have the same size and component count
(orbit representatives as in Aoki & Takemura, AISM 2008; connectivity of
every fiber as the Markov-basis criterion of Diaconis & Sturmfels, Ann.
Statist. 1998).  The orbit route builds one witness per orbit of the face's
stabilizer, degree by degree.  Candidates one permutation of equally
labelled columns apart are one orbit, so only the first of each such class
is put in canonical form (a cheap subgroup tried before the full labelling,
as in McKay's canonical augmentation, J. Algorithms 1998).  A canonical
form comes from each column's least key under each coset of the
stabilizer's translations and one parity class per coset, never from every
symmetry.  The route enumerates the witnesses' fibers in chunks, all of a
chunk at once as arrays (`moves.witness_fibers`), labels their components
with the min-label flood and weights each fiber's components by its orbit
size.  Every run
checks that orbit size times fiber size sums to all C(V+d-1, d) multisets.
The orbit sizes of a degree sum to its Hilbert value
(`hilbert.hilbert_values`).  One size limit, `moves.MAX_CELLS`, bounds the
route's largest arrays: a degree's candidates before they are built and a
chunk's fiber states after each level.

With shards, a census degree of more than `member_budget` multisets goes
through the sharded spill kernel: a stream of keyed multisets is split by a
hash of the profile key into shard files on disk, so every fiber lies in
one shard; the kernel numbers each shard's fibers and unions members
through hashed shared sub-multisets with a vectorized min-label flood.  A
small dict-based reference route cross-checks both at toy scale.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import groups, moves
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


def fiber_components(f: Fiber, move_degree: int
                     ) -> tuple[int, list[tuple[int, ...]]]:
    """Component count and one representative per component.

    Edges are moves of degree <= move_degree.  With move_degree = d-1, the
    proper sub-multiset replacements, components count minimal generators.
    """
    # no degree-1 moves exist, so with bound < 2 everything is isolated
    bound = max(move_degree, 1)
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
            comps, _ = fiber_components(f, d - 1)
            total += comps - 1
        out[d] = total
    return out


# ---------------------------------------------------------------------------
# orbit route: one fiber per symmetry orbit
# ---------------------------------------------------------------------------

# Elements of the (column, coset, candidate) arrays that the canonical form
# builds at a time, and of the pool tests of a chunk of witnesses whose
# fibers the sweep enumerates together; this bounds their working sets.
ORBIT_CHUNK = 1 << 17


@dataclass
class Orbits:
    """The fiber orbits of one degree under the face stabilizer H.

    Row k of `witnesses` is a multiset of packed flows (one fiber of the
    orbit) and `sizes[k]` the number of fibers in that orbit.
    """
    n: int
    degree: int
    witnesses: np.ndarray
    sizes: np.ndarray


def _affine_maps() -> np.ndarray:
    """The 24 maps g -> aut[g] ^ t of Z2 x Z2 as (24, 4) lookup tables,
    map 4 * (automorphism index) + t."""
    return np.array([[aut[g] ^ t for g in groups.ELEMENTS]
                     for aut in groups.AUTOMORPHISMS for t in groups.ELEMENTS])


def _label_images(labels: Sequence[int], maps: np.ndarray) -> np.ndarray:
    """(n, 24): each column's symbol-set bit mask mapped by each map."""
    bits = (np.array(labels)[:, None] >> np.arange(4)) & 1
    return (bits[:, None, :] << maps[None, :, :]).sum(axis=2)


def _xor_ways(cols: list[list[int]]) -> list[list[int]]:
    """Choices of one map per column by the XOR of their translations, for
    every prefix of the columns: entry i counts the choices for cols[:i],
    entry i[x] those whose translations XOR to x."""
    ways = [[1, 0, 0, 0]]
    for col in cols:
        ways.append([sum(ways[-1][x ^ (m & 3)] for m in col)
                     for x in range(4)])
    return ways


def _cosets(labels: Sequence[int]) -> tuple[list[list[list[int]]], int]:
    """The cosets of the face stabilizer H's translations, and |H|.

    `labels[i]` is the bit mask of the symbols face flows use in column i.
    An element of H maps column i by g -> aut[g] ^ f_i, where f is a flow,
    and then permutes the columns, so it keeps the face exactly when the
    images of the labels are the labels again as a multiset.  A coset is an
    automorphism and an image label per column, in that order, reached by
    translations XORing to 0; per column it holds the maps (`_affine_maps`
    indices) these use.  |H| is their count times the column permutations
    that keep every label.
    """
    n = len(labels)
    img = _label_images(labels, _affine_maps())
    kinds = sorted(set(labels))
    need = tuple(labels.count(k) for k in kinds)
    cosets, choices = [], 0
    for a in range(len(groups.AUTOMORPHISMS)):
        # column i's maps under automorphism a by the label they reach
        reach = [{k: [m for m in range(4 * a, 4 * a + 4) if img[i, m] == k]
                  for k in kinds} for i in range(n)]
        partial = [([], need)]  # (maps of the columns so far, labels left)
        for i in range(n):
            partial = [(cols + [reach[i][k]],
                        left[:j] + (left[j] - 1,) + left[j + 1:])
                       for cols, left in partial
                       for j, k in enumerate(kinds) if left[j] and reach[i][k]]
        for cols, _ in partial:
            before = _xor_ways(cols)
            if count := before[-1][0]:
                # a map is used where the other columns can cancel its
                # translation: the columns before it XOR to some y and
                # those after it to y ^ its translation
                after = _xor_ways(cols[::-1])[::-1]
                cosets.append([[m for m in col if any(
                    before[i][y] and after[i + 1][y ^ (m & 3)]
                    for y in range(4))] for i, col in enumerate(cols)])
                choices += count
    return cosets, choices * math.prod(math.factorial(c) for c in need)


# Subsets of Z2 x Z2 as bit masks over its elements.  For a subgroup W:
# the least element of each coset x ^ W, and W's order.  For a union of
# subgroups: the subgroup it spans (three elements span all four).  For a
# coset A of a subgroup: the subgroup A ^ min(A).
_COSET_MIN = np.array([[min([x ^ w for w in range(4) if m >> w & 1] or [0])
                        for m in range(16)] for x in range(4)], np.uint8)
_ORDER = np.array([bin(m).count("1") for m in range(16)])
_SPAN = np.array([m if bin(m & 14).count("1") < 2 else 15 for m in range(16)],
                 np.uint8)
_SHIFTED = np.array([sum(1 << (x ^ _COSET_MIN[0, m])
                         for x in range(4) if m >> x & 1)
                     for m in range(16)], np.uint8)


def _odd_even_sort(cols: np.ndarray) -> np.ndarray:
    """Sort along the first axis in place, by odd-even transposition: one
    vectorised min/max per round over the rows, n rounds for n rows."""
    n = len(cols)
    for rnd in range(n):
        a, b = cols[rnd % 2:n - 1:2], cols[rnd % 2 + 1::2]
        a[...], b[...] = np.minimum(a, b), np.maximum(a, b)
    return cols


def _canonical(codes: np.ndarray, least_table: np.ndarray,
               stab_table: np.ndarray, shift_table: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Canonical forms of profiles and the symmetries that reach them.

    `codes` (n, m) holds the rank of each column's count code among the
    codes its degree can reach.  A map sends a column to a key: the
    transformed face label, then the transformed counts.  The tables
    (`_degree_tables`) give, per (column, coset) and code rank, the least
    key over the coset's maps of the column, and the translations reaching
    it as the stabilizer S_i and the least translation u_i.

    Per coset, column i's least key m_i is reached by the translations
    u_i ^ S_i.  With W the span of the S_i and s the XOR of the u_i, the
    coset's invariant is (sorted m, least element of s ^ W): two profiles
    are one translation and column permutation apart iff these agree,
    since the translations joining them XOR to 0 iff s(P) ^ s(Q) lies in
    W.  The canonical form, (n + 1, m), is the least invariant over the
    cosets.  The second array counts the (coset, translation) pairs
    reaching it: the cosets with the least invariant times
    prod |S_i| / |W|.
    """
    n, m = codes.shape
    n_cosets, size = least_table.shape[1:]
    slots = np.arange(n * n_cosets).reshape(n, n_cosets, 1) * size
    step = max(1, ORBIT_CHUNK // (n * n_cosets))
    canon = np.empty((n + 1, m), dtype=least_table.dtype)
    reach = np.empty(m, dtype=np.int64)
    top = np.iinfo(least_table.dtype).max
    for lo in range(0, m, step):
        # table index per (column, coset, candidate)
        at = slots + codes[:, None, lo:lo + step]
        c = at.shape[2]
        least = _odd_even_sort(least_table.take(at))
        stab = stab_table.take(at)
        span = _SPAN.take(np.bitwise_or.reduce(stab, axis=0))
        shift = np.bitwise_xor.reduce(shift_table.take(at), axis=0)
        parity = _COSET_MIN.take(shift * 16 + span)
        alive = np.ones((n_cosets, c), dtype=bool)
        for j, col in enumerate([*least, parity]):
            col = np.where(alive, col, top)
            best = col.min(axis=0)
            alive &= col == best
            canon[j, lo:lo + c] = best
        g, rows = alive.argmax(axis=0), np.arange(c)
        reach[lo:lo + c] = (np.count_nonzero(alive, axis=0)
                            * _ORDER[stab[:, g, rows]].prod(axis=0)
                            // _ORDER[span[g, rows]])
    return canon, reach


def _degree_tables(kind_image: np.ndarray, coset_maps: np.ndarray, d: int
                   ) -> tuple[np.ndarray, ...]:
    """The tables `_canonical` reads for degree d.

    A column's counts are one code, the count of g in digit g of base d+1.
    The counts sum to d, so only C(d+3, 3) of the (d+1)^4 codes occur;
    `rank` numbers them in ascending order.  Map m sends code x of column i
    to the key kind_image[i, m] * C(d+3, 3) + rank(x with the count of g
    moved to digit m(g)), where kind_image[i, m] numbers the image of the
    column's face label among the face's labels; keys order as (label,
    code) do.  `coset_maps` (n, cosets, 4) holds each coset's maps of each
    column, repeated to fill 4 slots.  `least`, `stab` and `shift` (n,
    cosets, C(d+3, 3)) give per reachable code the least key over the maps,
    and the translations reaching it, a coset of the stabilizer `stab`
    (a bit mask) with least element `shift`; repeated maps change none.
    `offset` (n, 1) is each column's identity-map key less its code rank.
    `rank`, `offset` and `least` share the least dtype that holds every
    key.
    """
    base, cells = d + 1, (d + 1) ** 4
    size = math.comb(d + 3, 3)
    column = np.arange(len(kind_image))[:, None, None]
    kind = kind_image[column, coset_maps]
    dtype = np.int16 if (int(kind.max()) + 1) * size <= 2**15 else np.int32
    high = np.indices((base,) * 3).reshape(3, -1)[::-1]
    digit = np.concatenate([d - high.sum(axis=0, keepdims=True), high])
    digit = digit[:, digit[0] >= 0]  # ascending codes, digits summing to d
    rank = np.zeros(cells, dtype=dtype)
    rank[(digit * base ** np.arange(4)[:, None]).sum(axis=0)] = np.arange(size)
    maps = _affine_maps()
    moved = rank[sum(digit[g] * base ** maps[:, g:g + 1] for g in range(4))]
    keys = (kind * size).astype(dtype)[..., None] + moved[coset_maps]
    least = keys.min(axis=2)
    hit = (keys == least[:, :, None]).astype(np.uint8)
    reached = np.bitwise_or.reduce(
        hit << (coset_maps & 3).astype(np.uint8)[..., None], axis=2)
    offset = (kind_image[:, :1] * size).astype(dtype)  # map 0 is the identity
    return (rank, offset, least, _SHIFTED.take(reached),
            _COSET_MIN[0].take(reached))


def _first_of_rows(cols: Sequence[np.ndarray], widths: Sequence[int]
                   ) -> np.ndarray:
    """The first index of each distinct row of the columns, in ascending
    order of the rows, as a stable `np.lexsort` over the columns gives.

    Column j is below 2**widths[j].  Packed most significant first into
    int64 words of at most 63 bits, the columns compare as the rows do.
    Where they fit one word with the bit length of the last index to
    spare, one `np.sort` of the word and the index packed together orders
    the rows, ties by index; else a stable `np.lexsort` over the words
    does.  A neighbour test then keeps each row's first index.
    """
    words, used = [], 63
    for col, width in zip(cols, widths):
        if used + width > 63:
            words.append(col.astype(np.int64))
            used = width
        else:
            words[-1] <<= width
            words[-1] |= col
            used += width
    m = len(words[0])
    ib = (m - 1).bit_length()
    if len(words) == 1 and used + ib <= 63:
        word = words[0]
        word <<= ib
        word |= np.arange(m)
        word.sort()
        index = word & ((1 << ib) - 1)
        word >>= ib
    else:
        index = np.lexsort(words[::-1])
        words = (word[index] for word in words)  # one at a time
    new = np.zeros(m, dtype=bool)
    new[0] = True
    for word in words:
        new[1:] |= word[1:] != word[:-1]
    return index[new]


def _first_of_classes(codes: np.ndarray, offset: np.ndarray, bits: int
                      ) -> np.ndarray:
    """Ascending indices of the first candidate of each class.

    A candidate's class key is its columns' identity-map keys, code rank
    plus the column's label offset (n, 1), sorted: two candidates share it
    iff a permutation of columns of equal face label joins them.  The keys
    are below 2**bits.
    """
    keys = _odd_even_sort(codes + offset)
    firsts = np.zeros(codes.shape[1], dtype=bool)
    firsts[_first_of_rows(keys, [bits] * len(keys))] = True
    return np.flatnonzero(firsts)


def orbit_layers(flows: np.ndarray, n: int) -> Iterator[Orbits]:
    """Fiber orbits of degree 1, 2, ... of the face whose flows these are.

    The symmetries are translation by a flow, an automorphism of Z2 x Z2
    on every entry and a permutation of the columns; H is the subgroup that
    keeps the face.  Each candidate of degree d is a degree-(d-1) witness
    plus one face flow, and every orbit has such a member.  Permuting
    columns of one face label is in H, so candidates whose column codes
    agree as a multiset per label are one orbit: a candidate's class key
    is its identity-map keys sorted (one word where they fit), and only
    the first candidate of each class is canonicalised.  The first
    candidate of each canonical form is such a first, so the witnesses,
    their sizes and their order are those of canonicalising every
    candidate.  An orbit's size is |H| / |Stab|, where |Stab| is the
    number of (coset, translation) pairs reaching the canonical form
    times, for each run of equal columns in it, the factorial of the
    run's length.  `moves.check_cells` takes each degree's candidates x n.
    """
    v = len(flows)
    sym = groups.column_symbols(flows, n).astype(np.int64)
    labels = [int(np.bitwise_or.reduce(1 << sym[:, i])) for i in range(n)]
    cosets, order = _cosets(labels)
    # each map's image of each column's label, numbered among the labels
    kind_image = np.searchsorted(sorted(set(labels)),
                                 _label_images(labels, _affine_maps()))
    # (column, coset, slot): the coset's maps of the column, repeated to 4
    coset_maps = np.array([[(col * 4)[:4] for col in cols]
                           for cols in cosets]).transpose(1, 0, 2)
    rows = np.zeros((1, 0), dtype=np.int64)  # the empty multiset
    for d in itertools.count(1):
        moves.check_cells(len(rows) * v * n, f"degree {d}: candidates")
        rank, offset, *tables = _degree_tables(kind_image, coset_maps, d)
        bits = (int(offset.max()) + tables[0].shape[2] - 1).bit_length()
        # candidate r * v + f is witness r plus flow f; each column's
        # count code, then its rank among the reachable codes
        weight = ((d + 1) ** sym).astype(np.int32)  # codes < (d+1)^4
        prefix = weight[rows].sum(axis=1, dtype=np.int32)
        codes = np.empty((n, len(rows) * v), dtype=rank.dtype)
        for i in range(n):
            codes[i] = rank[(prefix[:, i, None] + weight[:, i]).ravel()]
        firsts = _first_of_classes(codes, offset, bits)
        canon, reach = _canonical(codes[:, firsts], *tables)
        first = _first_of_rows(canon, [bits] * n + [2])
        canon, stab = canon[:, first], reach[first]
        first = firsts[first]
        run = np.ones(len(first), dtype=np.int64)
        for j in range(1, n):
            run = np.where(canon[j] == canon[j - 1], run + 1, 1)
            stab = stab * run
        rows = np.concatenate([rows[first // v], (first % v)[:, None]], axis=1)
        yield Orbits(n, d, flows[rows], order // stab)


def _share_labels(wid: np.ndarray, members: np.ndarray, t: int, v: int
                  ) -> tuple[np.ndarray, int]:
    """Component labels of members joined when they share t rows, and the
    rounds the label flood took.

    `wid` numbers each member's fiber, ascending.  Nodes are (fiber,
    size-t sub-multiset of rows), so only members of one fiber meet.  Two
    members of a fiber share t rows iff one move of degree <= d-t joins
    them; no move has degree < 2, so with d - t < 2 each member is alone.
    A member's label is the least index of its component.  Raises
    `moves.SizeLimitExceeded` before building the C(d, t) keys per member
    if they pass the size limit.
    """
    m, d = members.shape
    labels = np.arange(m)
    if d - t < 2:
        return labels, 0
    row_bits = max(1, (v - 1).bit_length())
    if ((int(wid[-1]) + 1) << (t * row_bits)).bit_length() > 63:
        raise ProfileKeyTooWide(
            f"degree {d}: a {t}-row node key needs more than 63 bits")
    moves.check_cells(math.comb(d, t) * m, f"degree {d}: node keys")
    keys = np.empty((math.comb(d, t), m), dtype=np.int64)
    for s, cols in enumerate(itertools.combinations(range(d), t)):
        keys[s] = wid
        for c in cols:
            keys[s] = (keys[s] << row_bits) | members[:, c]
    uniq, keys = np.unique(keys, return_inverse=True)
    return _min_label_flood(labels, list(keys.reshape(-1, m)), len(uniq))


@dataclass
class DegreeCensus:
    """One degree's components, counted over all its fibers.

    `generators` sums components - 1 over the fibers.  The fields with
    defaults are the orbit route's only: seconds building the orbit layer,
    enumerating fibers and labelling components, the most rounds the label
    flood took on one witness chunk, and a pair of members of one fiber in
    different components, as packed flows, if there is one.  The fields
    are in the order of the report's keys (`to_json`).
    """
    degree: int
    generators: int
    fibers: int
    multisets: int
    elapsed_s: float
    orbits: Optional[int]  # None where the spill kernel counted the degree
    largest_fiber: int
    orbits_s: Optional[float] = None
    fibers_s: Optional[float] = None
    components_s: Optional[float] = None
    flood_rounds: Optional[int] = None
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def to_json(self) -> dict:
        """Every field but the witness, seconds rounded to milliseconds."""
        obj = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "witness"}
        for key in ("elapsed_s", "orbits_s", "fibers_s", "components_s"):
            if obj[key] is not None:
                obj[key] = round(obj[key], 3)
        return obj


def _orbit_sweep(layers: Iterator[Orbits], flows: np.ndarray, d: int, t: int
                 ) -> DegreeCensus:
    """Components of every fiber of degree d, one fiber per orbit.

    `layers` is the face's `orbit_layers`, taken up to degree d here, and
    `flows` are the face's flows.  Witnesses go in chunks of
    ORBIT_CHUNK // (V * d), so that one pool test per row of a chunk stays
    within ORBIT_CHUNK elements.  Each chunk's fibers are enumerated at
    once (`moves.witness_fibers`) and their members sharing t rows are
    joined (`_share_labels`).  The witness is the least member of the first
    split fiber and its first member in another component, if any.  Raises
    AssertionError unless the orbits' fibers, each counted with its orbit
    size, hold every degree-d multiset exactly once.
    """
    start = time.perf_counter()
    orb = next(o for o in layers if o.degree == d)
    v = len(flows)
    out = DegreeCensus(d, 0, 0, math.comb(v + d - 1, d), 0.0, len(orb.sizes),
                       0, orbits_s=time.perf_counter() - start, fibers_s=0.0,
                       components_s=0.0, flood_rounds=0)
    members = 0
    step = max(1, ORBIT_CHUNK // (v * d))
    for lo in range(0, len(orb.sizes), step):
        sizes = orb.sizes[lo:lo + step]
        t0 = time.perf_counter()
        wid, fiber = moves.witness_fibers(orb.witnesses[lo:lo + step], flows,
                                          orb.n)
        t1 = time.perf_counter()
        labels, rounds = _share_labels(wid, fiber, t, v)
        out.fibers_s += t1 - t0
        out.components_s += time.perf_counter() - t1
        out.flood_rounds = max(out.flood_rounds, rounds)
        fiber_size = np.bincount(wid, minlength=len(sizes))
        split = np.bincount(wid[labels == np.arange(len(labels))],
                            minlength=len(sizes)) - 1
        out.generators += int(sizes @ split)
        out.fibers += int(sizes.sum())
        out.largest_fiber = max(out.largest_fiber, int(fiber_size.max()))
        members += int(sizes @ fiber_size)
        if out.witness is None and split.any():
            a = int(np.searchsorted(wid, np.argmax(split > 0)))
            b = a + int(np.argmax(labels[a:] != labels[a]))
            out.witness = (tuple(flows[fiber[a]].tolist()),
                           tuple(flows[fiber[b]].tolist()))
    if members != out.multisets:
        raise AssertionError(f"degree {d}: orbit fibers hold {members} "
                             f"multisets, expected {out.multisets}")
    out.elapsed_s = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# sharded spill kernel
# ---------------------------------------------------------------------------

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
             spill_dir: str,
             progress: Optional[Callable[[str], None]] = None
             ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every degree-d multiset as (keys, rows), one non-empty bucket at a time.

    Members go to buckets by a hash of their profile key, so each fiber
    lies in one bucket.  Each bucket is written to one shard file in
    spill_dir and read back one at a time.
    """
    rec_dtype = np.dtype([("key", "<i8"),
                          ("rows", np.int16 if v <= 32767 else np.int32, (d,))])
    paths = [os.path.join(spill_dir, f"shard{j:03d}.bin")
             for j in range(n_buckets)]
    handles = [open(p, "wb") for p in paths]
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
                rec[bounds[j]:bounds[j + 1]].tofile(handles[j])
            written += len(keys)
            if progress and written % 20_000_000 < len(keys):
                progress(f"degree {d}: spilled {written} multisets")
    finally:
        for h in handles:
            h.close()
    if written != math.comb(v + d - 1, d):
        raise AssertionError(f"bucketed {written} members, "
                             f"expected {math.comb(v + d - 1, d)}")
    for j in range(n_buckets):
        rec = np.fromfile(paths[j], dtype=rec_dtype)
        if not len(rec):
            continue
        yield rec["key"], rec["rows"]
        if progress:
            progress(f"degree {d}: shard {j + 1}/{n_buckets} done")


def _min_label_flood(labels: np.ndarray, incidences: list[np.ndarray],
                     n_nodes: int) -> tuple[np.ndarray, int]:
    """Union members that share a hashed node, by min-label flooding.

    `incidences` holds, per slot, the node id each member touches.  After
    convergence two members have equal labels iff they are connected in
    the member-node bipartite graph.  Returns the labels and the rounds
    taken.
    """
    node_lab = np.empty(n_nodes, dtype=labels.dtype)
    for rounds in range(1, FLOOD_MAX_ITER + 1):
        node_lab.fill(np.iinfo(labels.dtype).max)
        for inc in incidences:
            np.minimum.at(node_lab, inc, labels)
        new = labels
        for inc in incidences:
            new = np.minimum(new, node_lab[inc])
        if np.array_equal(new, labels):
            return labels, rounds
        labels = new
    raise RuntimeError("label flood did not converge")


def _components(keys: np.ndarray, rows: np.ndarray, v: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Fibers and components of one bucket of degree-d members.

    Sorted by profile key, each fiber is a run whose id is a cumsum over
    run boundaries, and members are labelled as the orbit sweep labels
    them (`_share_labels`, t = 1).  Returns two masks over the sorted
    members: the first member of each fiber and the least member of each
    component.
    """
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], rows[order]
    m = len(keys)
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    labels, _ = _share_labels(np.cumsum(starts) - 1, rows, 1, v)
    return starts, labels == np.arange(m)


# ---------------------------------------------------------------------------
# generator census
# ---------------------------------------------------------------------------

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
            "degrees": [r.to_json() for r in self.rows],
        }


def _census_degree(n: int, d: int, flows: np.ndarray,
                   layers: Iterator[Orbits], member_budget: int, shards: int,
                   cache_dir: Optional[str],
                   progress: Optional[Callable[[str], None]]
                   ) -> DegreeCensus:
    t0 = time.perf_counter()
    v = len(flows)
    m_total = math.comb(v + d - 1, d)
    if shards <= 0 or m_total <= member_budget:
        # adjacency under proper moves (degree <= d-1) is row sharing, t = 1
        return _orbit_sweep(layers, flows, d, 1)
    key1 = groups.profile_keys(flows, n, d)  # ProfileKeyTooWide past 62 bits
    fibers = components = largest = 0
    with tempfile.TemporaryDirectory(prefix="kimura4-census-", dir=cache_dir,
                                     ignore_cleanup_errors=True) as tmpdir:
        for keys, rows in _buckets(v, d, key1, shards, tmpdir, progress):
            starts, roots = _components(keys, rows, v)
            sizes = np.diff(np.flatnonzero(np.append(starts, True)))
            fibers += len(sizes)
            components += int(np.count_nonzero(roots))
            largest = max(largest, int(sizes.max()))
    return DegreeCensus(d, components - fibers, fibers, m_total,
                        time.perf_counter() - t0, None, largest)


def minimal_generator_census(n: int, max_degree: int,
                             face: Optional[FaceSpec] = None,
                             *, member_budget: int = 60_000_000,
                             shards: int = 0,
                             cache_dir: Optional[str] = None,
                             progress: Optional[Callable[[str], None]] = None
                             ) -> CensusReport:
    """Minimal-generator counts per degree 2..max_degree.

    With shards > 0, degrees of more than member_budget multisets go
    through the sharded spill kernel (in cache_dir, else a tempdir), and
    the rest through the orbit route.  A size limit stops the report early,
    with a note.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be >= 2")
    report = CensusReport(n, str(face or ""), max_degree)
    flows = groups.flows_array(n, face)
    layers = orbit_layers(flows, n)
    for d in range(2, max_degree + 1):
        try:
            row = _census_degree(n, d, flows, layers, member_budget, shards,
                                 cache_dir, progress)
        except (moves.SizeLimitExceeded, ProfileKeyTooWide) as exc:
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
    # the degrees past move_degree, each swept on the orbit route
    degrees: dict[int, DegreeCensus] = field(default_factory=dict)

    def to_json(self) -> dict:
        obj = {
            "connected": self.ok,
            "n_leaves": self.n,
            "face": self.face,
            "max_table_degree": self.max_table_degree,
            "move_degree": self.move_degree,
            "checked_degrees": self.checked,
        }
        rows = {str(d): r.to_json() for d, r in self.degrees.items()}
        for key in ("orbits", "flood_rounds", "elapsed_s", "orbits_s",
                    "fibers_s", "components_s"):
            obj[key] = {d: row[key] for d, row in rows.items()}
        if self.witness:
            obj["witness"] = {"t0": self.witness[0], "t1": self.witness[1]}
        return obj


def connectivity_check(n: int, max_table_degree: int, move_degree: int = 4,
                       face: Optional[FaceSpec] = None,
                       *, progress: Optional[Callable[[str], None]] = None
                       ) -> ConnectivityResult:
    """True iff every fiber of degree <= max_table_degree is connected
    under moves of degree <= move_degree.

    Degrees d <= move_degree are connected outright (one full-table move).
    For larger d one fiber per orbit is split into components of members
    sharing d - move_degree rows; a fiber is connected exactly when the
    other fibers of its orbit are.  On failure the witness is a compatible
    pair no degree-<=move_degree trace joins.  Raises
    `moves.SizeLimitExceeded` past the orbit route's size limit.
    """
    res = ConnectivityResult(True, n, str(face or ""), max_table_degree,
                             move_degree)
    flows = groups.flows_array(n, face)
    layers = orbit_layers(flows, n)
    for d in range(2, max_table_degree + 1):
        if d <= move_degree:
            res.checked.append(d)
            continue
        row = res.degrees[d] = _orbit_sweep(layers, flows, d, d - move_degree)
        res.checked.append(d)
        if progress:
            progress(f"degree {d}: "
                     + ("ok" if row.witness is None else "DISCONNECTED"))
        if row.witness is not None:
            res.ok = False
            res.witness = tuple([groups.format_flow(v, n) for v in rows]
                                for rows in row.witness)
            return res
    return res
