import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from kimura4 import corpus, groups, markov, moves
from kimura4.moves import (FiberCache, FiberTooLarge, Move, TraceStep,
                           apply_move, neighbors, ordered_flow_tuples,
                           profile_fiber, replay_trace, trace_is_valid)
from kimura4.tables import Table, compatible, profile_of_rows

T0_EX = Table.from_strings(["aa00", "0bb0", "c00c"])
T1_EX = Table.from_strings(["0000", "cab0", "ab0c"])
EXMOVE = Move.make([groups.parse_flow(s) for s in ("aa00", "0bb0", "c00c")],
                   [groups.parse_flow(s) for s in ("0000", "cab0", "ab0c")], 4)


def test_apply_move_example():
    out = apply_move(T0_EX, EXMOVE)
    assert out == T1_EX
    assert out.profile() == T0_EX.profile()
    assert out.degree == T0_EX.degree


def test_move_validation():
    rows = [groups.parse_flow("aa00")]
    with pytest.raises(ValueError):
        Move.make(rows, rows, 4)  # trivial
    with pytest.raises(ValueError):
        Move.make(rows, [groups.parse_flow("bb00")], 4)  # incompatible
    with pytest.raises(ValueError):
        apply_move(T1_EX, EXMOVE)  # removed rows absent


def test_move_reversibility():
    back = EXMOVE.reversed()
    assert apply_move(apply_move(T0_EX, EXMOVE), back) == T0_EX


def test_pair_replacement_fiber_complete():
    # brute force cross-check of the degree-2 fiber on random pairs
    rng = random.Random(3)
    flows = groups.enumerate_flows(4)
    for _ in range(40):
        a, b = rng.choice(flows), rng.choice(flows)
        fiber = profile_fiber((min(a, b), max(a, b)), 4)
        prof = profile_of_rows((a, b), 4)
        brute = sorted({
            (min(x, y), max(x, y))
            for x in flows for y in flows
            if profile_of_rows((x, y), 4) == prof
        })
        assert fiber == brute


def _brute_fibers(n, s):
    """Every sorted s-row multiset of flows, grouped by profile, in
    ascending order within each group."""
    groups_by_profile = {}
    for rows in itertools.combinations_with_replacement(
            groups.enumerate_flows(n), s):
        groups_by_profile.setdefault(profile_of_rows(rows, n), []).append(rows)
    return groups_by_profile


@pytest.mark.parametrize("n,s", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_profile_fiber_matches_brute_force(n, s):
    brute = _brute_fibers(n, s)
    profiles = list(brute)
    if len(profiles) > 400:
        profiles = random.Random(n * 10 + s).sample(profiles, 400)
    for prof in profiles:
        members = brute[prof]
        assert profile_fiber(members[-1], n) == members


@pytest.mark.parametrize("n,s", [(3, 5), (3, 6)])
def test_profile_fiber_matches_brute_force_every_profile(n, s):
    # every profile, not a sample
    for members in _brute_fibers(n, s).values():
        assert profile_fiber(members[0], n) == members


# SHA-256 of the fibers of every orbit witness below, members in order,
# computed when every level of the fiber search tried each candidate that
# fit the counts.
PINNED_FIBER_DIGEST = (
    "1e41d9d03ffe2708edddd82de6f04064d9654081a7f06072c9b06b12bd9d2c23")


def test_witness_fibers_match_pinned_digest():
    digest = hashlib.sha256()
    for n, max_degree in ((3, 7), (4, 5)):
        layers = markov.orbit_layers(groups.flows_array(n), n)
        for orb in itertools.islice(layers, max_degree):
            for rows in orb.witnesses.tolist():
                digest.update(repr(profile_fiber(rows, n)).encode())
    assert digest.hexdigest() == PINNED_FIBER_DIGEST


def test_fiber_search_walks_only_the_column0_run(monkeypatch):
    grow = moves._grow
    nodes = 0

    def counted(*args):
        nonlocal nodes
        nodes += 1
        return grow(*args)

    # the recursion resolves _grow through the module, so it is counted too
    monkeypatch.setattr(moves, "_grow", counted)
    orb = list(itertools.islice(
        markov.orbit_layers(groups.flows_array(3), 3), 7))[-1]
    members = sum(len(profile_fiber(rows, 3))
                  for rows in orb.witnesses.tolist())
    assert (len(orb.sizes), members) == (304, 505)
    # 6,791 nodes; trying every candidate that fits the counts takes 52,703
    assert nodes <= 8000


def _grouped(wid, rows, k):
    """Members (tuples of packed flows) per witness, from the arrays."""
    out = [[] for _ in range(k)]
    for w, member in zip(wid.tolist(), rows.tolist()):
        out[w].append(tuple(member))
    return out


@pytest.mark.parametrize("n, face, max_degree", [
    (3, None, 7), (4, None, 6), (5, None, 4),
    (6, groups.FACE_P2, 3), (6, groups.FACE_P3, 3),
    (4, groups.FaceSpec.parse("2:b,3:c"), 5),
    (4, groups.FaceSpec.parse("1:a,2:b,3:c"), 5)])
def test_batch_fibers_match_profile_fiber(n, face, max_degree):
    flows = groups.flows_array(n, face)
    for orb in itertools.islice(markov.orbit_layers(flows, n), max_degree):
        wid, members = moves.witness_fibers(orb.witnesses, flows, n)
        # each witness's members are contiguous, in profile_fiber's order
        assert np.all(np.diff(wid) >= 0)
        assert _grouped(wid, flows[members], len(orb.sizes)) == \
            [profile_fiber(rows, n) for rows in orb.witnesses.tolist()], \
            orb.degree


def test_batch_fibers_one_witness_at_a_time():
    # one witness tests its candidates in blocks of V: many blocks per level;
    # on the face with column 0 fixed one state's run can fill a block
    fixed = groups.FaceSpec.parse("1:a,1:b,1:c")
    for n, face, max_degree in ((3, None, 7), (4, None, 5), (4, fixed, 5)):
        flows = groups.flows_array(n, face)
        for orb in itertools.islice(markov.orbit_layers(flows, n),
                                    max_degree):
            for rows in orb.witnesses:
                _, members = moves.witness_fibers(rows[None], flows, n)
                assert list(map(tuple, flows[members].tolist())) == \
                    profile_fiber(rows.tolist(), n), (n, str(face))


def test_witness_fiber_states_limit_boundary(monkeypatch):
    # a degree-2 search has one level: its states are the pool flows that
    # carry the lesser column-0 symbol, each holding 4n counts and a row
    n, flows = 4, groups.flows_array(4)
    rows = [groups.parse_flow(r) for r in ("aabb", "bbaa")]
    cells = {(i, groups.entry(r, i, n)) for r in rows for i in range(n)}
    sym0 = min(groups.entry(r, 0, n) for r in rows)
    states = [f for f in flows.tolist() if groups.entry(f, 0, n) == sym0
              and all((i, groups.entry(f, i, n)) in cells for i in range(n))]
    limit = len(states) * (4 * n + 1)
    monkeypatch.setattr(moves, "MAX_CELLS", limit)
    _, members = moves.witness_fibers(np.array([rows]), flows, n)
    assert list(map(tuple, flows[members].tolist())) == profile_fiber(rows, n)
    monkeypatch.setattr(moves, "MAX_CELLS", limit - 1)
    with pytest.raises(moves.SizeLimitExceeded,
                       match=f"^degree 2: fiber states: {limit} cells"):
        moves.witness_fibers(np.array([rows]), flows, n)


def test_profile_fiber_cap_boundary():
    for n, s in ((4, 2), (4, 3), (4, 4), (5, 3)):
        rng = random.Random(s)
        flows = groups.enumerate_flows(n)
        checked = 0
        while checked < 5:
            rows = tuple(sorted(rng.choice(flows) for _ in range(s)))
            fiber = profile_fiber(rows, n)
            if len(fiber) < 2:
                continue
            assert profile_fiber(rows, n, cap=len(fiber)) == fiber
            with pytest.raises(FiberTooLarge):
                profile_fiber(rows, n, cap=len(fiber) - 1)
            checked += 1


def _packed_profiles(n):
    """Each flow's profile as one int, 4 bits per (column, symbol) cell, so
    the packed profile of a multiset of at most 15 rows is their sum."""
    return [sum(1 << 4 * (4 * i + ((v >> 2 * (n - 1 - i)) & 3))
                for i in range(n)) for v in groups.enumerate_flows(n)]


def _unpack(key, n):
    return tuple((key >> 4 * c) & 15 for c in range(4 * n))


@pytest.mark.parametrize("n,s", [(3, 3), (3, 4), (4, 3)])
def test_ordered_flow_tuples_matches_brute_force(n, s):
    ordered = Counter(map(sum, itertools.product(_packed_profiles(n),
                                                 repeat=s)))
    for key, count in ordered.items():
        assert ordered_flow_tuples(_unpack(key, n), n, s) == count


@pytest.mark.parametrize("n,s", [(3, 3), (3, 4), (4, 3), (4, 4), (5, 3)])
def test_fiber_lower_bound_never_exceeds_fiber_size(n, s):
    sizes = Counter(map(sum, itertools.combinations_with_replacement(
        _packed_profiles(n), s)))
    # the bound is a product over columns, so columns in any order agree
    bound = {}
    for key, size in sizes.items():
        cols = tuple(sorted((key >> 16 * i) & 0xFFFF for i in range(n)))
        if cols not in bound:
            tuples = ordered_flow_tuples(_unpack(key, n), n, s)
            bound[cols] = -(-tuples // math.factorial(s))
        assert bound[cols] <= size


def test_capped_fiber_is_refused_without_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("a provably capped fiber was built")

    monkeypatch.setattr(moves, "_grow", no_build)
    rows = tuple(sorted(groups.parse_flow(w) for w in (
        "000ca0bcc", "aacca0cb0", "bbca0cbab", "cbcaabc0c")))
    with pytest.raises(FiberTooLarge) as exc:
        profile_fiber(rows, 9, cap=512)
    assert exc.value.args[0] > 512


def test_fiber_cache_counts_hits_misses_and_caps():
    cache = FiberCache()
    rows = tuple(sorted(groups.parse_flow(s) for s in ("aa00", "0bb0", "c00c")))
    size = len(profile_fiber(rows, 4))
    with pytest.raises(FiberTooLarge):
        cache.fiber_for(rows, 4, cap=size - 1)
    assert cache.fiber_for(rows, 4, cap=size) == cache.fiber_for(T1_EX.rows, 4)
    assert (cache.hits, cache.misses, cache.cap_hits) == (1, 1, 1)


def test_fiber_cache_applies_cap_to_stored_fibers():
    # a fiber stored by an uncapped lookup must not answer a smaller cap
    cache = FiberCache()
    rows = tuple(sorted(groups.parse_flow(s) for s in ("aa00", "0bb0", "c00c")))
    size = len(cache.fiber_for(rows, 4))
    with pytest.raises(FiberTooLarge):
        cache.fiber_for(rows, 4, cap=size - 1)
    assert len(cache.fiber_for(rows, 4, cap=size)) == size
    assert (cache.hits, cache.misses, cache.cap_hits) == (1, 1, 1)


def test_profile_fiber_contains_itself_and_matches_profile():
    rows = tuple(sorted(groups.parse_flow(s) for s in ("aa00", "0bb0", "c00c")))
    fiber = profile_fiber(rows, 4)
    assert rows in fiber
    prof = profile_of_rows(rows, 4)
    for member in fiber:
        assert profile_of_rows(member, 4) == prof
    assert tuple(sorted(T1_EX.rows)) in fiber


def test_apply_move_preserves_profile_on_corpus_and_random():
    for mv in corpus.corpus_moves():
        t = Table.make(mv.removed, mv.n, check=False)
        out = apply_move(t, mv)
        assert out.profile() == t.profile()
    rng = random.Random(11)
    flows = groups.enumerate_flows(5)
    checked = 0
    while checked < 2000:
        rows = tuple(sorted(rng.choice(flows) for _ in range(2)))
        for repl in profile_fiber(rows, 5):
            if repl != rows:
                t = Table.make(rows, 5, check=False)
                mv = Move.make(rows, repl, 5)
                assert apply_move(t, mv).profile() == t.profile()
                checked += 1
                break


def test_random_legal_moves_preserve_profile_bulk():
    # 100k random degree-2 exchanges via the subset-of-deltas fast path
    rng = random.Random(23)
    flows = groups.enumerate_flows(6)
    total = 0
    while total < 100_000:
        a, b = rng.choice(flows), rng.choice(flows)
        pair = (min(a, b), max(a, b))
        prof = profile_of_rows(pair, 6)
        for repl in profile_fiber(pair, 6):
            total += 1
            assert profile_of_rows(repl, 6) == prof
    assert total >= 100_000


def test_neighbors_example_reaches_target():
    cache = FiberCache()
    found = [t for _, t in neighbors(T0_EX, 3, cache)]
    assert T1_EX in found
    # neighbors are unique and stay in the fiber
    assert len(found) == len(set(found))
    for t in found:
        assert compatible(t, T0_EX)


def test_neighbors_rejects_degree_one():
    with pytest.raises(ValueError):
        next(neighbors(T0_EX, 1))


def test_singleton_fiber_has_no_neighbors():
    t = Table.from_strings(["abc"])
    assert list(neighbors(t, 4)) == []


def test_neighbors_symmetry_on_degree3_fibers_n4():
    # full symmetry check on tables drawn from real degree-3 fibers
    from kimura4.markov import fibers
    cache = FiberCache()
    checked = 0
    for fib in fibers(4, 3, include_singletons=False):
        tables = fib.tables()
        if len(tables) < 2 or len(tables) > 12:
            continue
        neigh = {t: {u for _, u in neighbors(t, 3, cache)} for t in tables}
        for t in tables:
            for u in neigh[t]:
                if u in neigh:
                    assert t in neigh[u]
        checked += 1
        if checked >= 8:
            break
    assert checked


def test_trace_round_trip(tmp_path):
    steps = [TraceStep(0, EXMOVE)]
    a, b = replay_trace(T0_EX, T1_EX, steps)
    assert a == b
    assert trace_is_valid(T0_EX, T1_EX, steps)
    path = tmp_path / "trace.jsonl"
    from kimura4.moves import read_trace, write_trace
    write_trace(str(path), steps)
    loaded = read_trace(str(path))
    assert loaded == steps
    assert not trace_is_valid(T0_EX, T1_EX, steps, max_degree=2)


def test_trace_rejects_unchecked_illegal_moves():
    # each move is applied to both sides, so the sides stay equal and only a
    # per-move check can reject the trace
    def rows(*words):
        return tuple(sorted(groups.parse_flow(w) for w in words))

    t = Table.from_strings(["000", "abc"])
    incompatible = Move(rows("000", "abc"), rows("0bb", "cc0"), 3)
    uneven = Move(rows("000", "abc"), rows("0bb"), 3)
    not_flows = Move(rows("000", "abc"), rows("ab0", "00c"), 3)
    for bad in (incompatible, uneven, not_flows):
        assert not trace_is_valid(t, t, [TraceStep(0, bad), TraceStep(1, bad)])
        with pytest.raises(ValueError):
            replay_trace(t, t, [TraceStep(0, bad)])


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_passes_and_is_large_enough():
    report = corpus.verify_corpus()
    assert report.passed, report.summary()
    assert len(report.entries) >= 25
    for e in report.entries:
        assert e.degree <= 4


def test_corpus_covers_quoted_identities():
    ids = {e.id for e in corpus.load_corpus()}
    assert "intro-cubic-example" in ids
    assert "case8-quartic-1" in ids


def test_corpus_wildcards_expand():
    entries = {e.id: e for e in corpus.load_corpus()}
    diff = entries["difference-lemma-quadratic"]
    assert len(list(diff.assignments())) == 144
    bad = entries["badpair-ac-case12-quartic"]
    assert len(list(bad.assignments())) == 64


def test_corpus_negative_control():
    # corrupting a symbol must break compatibility
    entries = corpus.load_corpus()
    entry = next(e for e in entries if e.id == "intro-cubic-example")
    import copy
    broken = copy.deepcopy(entry)
    broken.lhs[0][0] = "b"
    rep = corpus.check_entry(broken)
    assert not rep.passed
    assert "column multisets differ" in rep.failures[0] or \
        "non-flow" in rep.failures[0]
