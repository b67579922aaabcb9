import hashlib
import itertools
import json
import multiprocessing
import random
import time
from collections import Counter

import pytest

from kimura4 import groups, markov, moves, reducer
from kimura4.moves import (FiberCache, Move, TraceStep, apply_move,
                            profile_fiber, replay_trace, trace_is_valid)
from kimura4.reducer import (Budget, find_bad_pairs, fuzz_reduce,
                             merge_columns, min_cross_k, pair_potential,
                             random_compatible_pair, reduce_hamming_3,
                             reduce_hamming_ge4, reduce_pair,
                             sample_fiber_member, strip_common)
from kimura4.tables import (Table, column_mask, compatible,
                            min_hamming_pair)

T0_EX = Table.from_strings(["aa00", "0bb0", "c00c"])
T1_EX = Table.from_strings(["0000", "cab0", "ab0c"])


def test_reduce_self_pair_empty_trace():
    res = reduce_pair(T0_EX, T0_EX)
    assert res.success and res.steps == []


def test_reduce_intro_pair_single_cubic_move():
    res = reduce_pair(T0_EX, T1_EX)
    assert res.success
    assert len(res.steps) == 1
    assert res.steps[0].move.degree == 3
    assert trace_is_valid(T0_EX, T1_EX, res.steps)


def test_reduce_rejects_incompatible():
    with pytest.raises(ValueError):
        reduce_pair(Table.from_strings(["aa0"]), Table.from_strings(["bb0"]))


def test_strip_common():
    ra, rb = strip_common((1, 2, 2, 5), (2, 5, 5, 9))
    assert ra == (1, 2) and rb == (5, 9)


def test_strip_common_matches_counter_difference():
    def by_counter(a, b):
        ca, cb = Counter(a), Counter(b)
        common = ca & cb
        return (tuple(sorted((ca - common).elements())),
                tuple(sorted((cb - common).elements())))

    rng = random.Random(12)
    for _ in range(500):
        a = tuple(sorted(rng.randrange(6) for _ in range(rng.randint(0, 9))))
        b = tuple(sorted(rng.randrange(6) for _ in range(rng.randint(0, 9))))
        assert strip_common(a, b) == by_counter(a, b)


def test_find_bad_pairs():
    t = Table.from_strings(["ab0ab", "abc00", "bb000"])
    bad = find_bad_pairs(t)
    assert len(bad) == 1
    assert (bad[0].x, bad[0].y) == (1, 2)
    clean = Table.from_strings(["ab0c0", "abc00", "00000"])
    assert find_bad_pairs(clean) == []


def test_merge_columns_requires_no_bad_pairs():
    t = Table.from_strings(["ab0ab"])
    with pytest.raises(ValueError):
        merge_columns(t, t)


def test_merge_columns_shapes_and_compatibility():
    # the intro pair with a fifth all-zero column: merging the last two
    # columns recovers the four-column pair exactly
    t0 = Table.from_strings(["aa000", "0bb00", "c00c0"])
    t1 = Table.from_strings(["00000", "cab00", "ab0c0"])
    assert compatible(t0, t1)
    assert not find_bad_pairs(t0) and not find_bad_pairs(t1)
    merged = merge_columns(t0, t1)
    assert merged.t0.n == 4 and merged.t1.n == 4
    assert merged.t0 == T0_EX and merged.t1 == T1_EX
    sub = reduce_pair(merged.t0, merged.t1)
    steps = merged.lift(sub.steps)
    assert trace_is_valid(t0, t1, steps)


def test_merge_lift_round_trip():
    rng = random.Random(42)
    lifted_any = False
    for _ in range(80):
        t0, t1 = random_compatible_pair(6, 4, rng)
        if find_bad_pairs(t0) or find_bad_pairs(t1):
            continue
        merged = merge_columns(t0, t1)
        assert compatible(merged.t0, merged.t1)
        sub = reduce_pair(merged.t0, merged.t1)
        assert sub.success
        steps = merged.lift(sub.steps)
        assert trace_is_valid(t0, t1, steps)
        lifted_any = True
    assert lifted_any


def test_merge_lift_with_split_adjustment():
    # a pair equal after merging but with opposite (x, 0)/(0, x) splits:
    # lifting alone does nothing and the quadratic adjustments must fire
    t0 = Table.from_strings(["abc0", "ba0c"])
    t1 = Table.from_strings(["ab0c", "bac0"])
    assert compatible(t0, t1)
    assert not find_bad_pairs(t0) and not find_bad_pairs(t1)
    merged = merge_columns(t0, t1)
    assert merged.t0 == merged.t1  # merging already equalizes
    steps = merged.lift([])
    assert steps, "expected alignment moves"
    assert all(st.move.degree == 2 for st in steps)
    assert trace_is_valid(t0, t1, steps)


# The first five pairs of `random_compatible_pair(6, 3, random.Random(2024))`
# whose minimal cross distance is >= 4 (about 95,000 draws find them).
GE4_PAIRS = [
    (["00baba", "aaabab", "cc0cc0"], ["000cab", "aabac0", "ccabba"]),
    (["0bcc0b", "b00bcc", "cabaa0"], ["0abccc", "b0ca00", "cb0bab"]),
    (["a0a0cc", "baccba", "ccbaab"], ["acccac", "bab0cb", "c0aaba"]),
    (["0b0ca0", "aaaabb", "c0b00a"], ["0aa0aa", "abbc0b", "c00ab0"]),
    (["000b0b", "abc0aa", "ccbcbc"], ["0c00ba", "abbc0b", "c0cbac"]),
]


def test_reduce_hamming_ge4_contract():
    # compatible pairs whose minimal cross distance is >= 4, fed to the
    # routine directly: the distance must drop to <= 3
    for rows0, rows1 in GE4_PAIRS:
        t0, t1 = Table.from_strings(rows0), Table.from_strings(rows1)
        assert compatible(t0, t1)
        ra, rb = strip_common(t0.rows, t1.rows)
        assert ra and min_cross_k(ra, rb, 6) >= 4
        sa, sb = Table(ra, 6), Table(rb, 6)
        steps = reduce_hamming_ge4(sa, sb, Budget(4000), FiberCache())
        a, b = sa, sb
        for st in steps:
            if st.side == 0:
                a = apply_move(a, st.move)
            else:
                b = apply_move(b, st.move)
        ra2, rb2 = strip_common(a.rows, b.rows)
        assert not ra2 or min_cross_k(ra2, rb2, 6) <= 3


def test_reduce_hamming_ge4_rejects_small_k():
    with pytest.raises(ValueError):
        reduce_hamming_ge4(T0_EX, T1_EX, Budget(100), FiberCache())


def _stripped(t0, t1):
    ra, rb = strip_common(t0.rows, t1.rows)
    return Table(ra, t0.n), Table(rb, t0.n)


def _abc_pairs():
    # the first five stripped pairs of random_compatible_pair(6, 3,
    # random.Random(77)) at minimal cross distance 3
    rng = random.Random(77)
    taken = 0
    while taken < 5:
        sa, sb = _stripped(*random_compatible_pair(6, 3, rng))
        if sa.rows and min_cross_k(sa.rows, sb.rows, 6) == 3:
            taken += 1
            yield sa, sb


def test_reduce_hamming_3_contract():
    exercised = 0
    for sa, sb in _abc_pairs():
        r0, r1, k = min_hamming_pair(sa, sb)
        # any distance-3 disagreement string is exactly {a, b, c}
        from kimura4.tables import hamming
        assert hamming(r0, r1, 6)[1] == (1, 2, 3)
        steps = reduce_hamming_3(sa, sb, Budget(4000), FiberCache())
        a, b = sa, sb
        for st in steps:
            if st.side == 0:
                a = apply_move(a, st.move)
            else:
                b = apply_move(b, st.move)
        ra2, rb2 = strip_common(a.rows, b.rows)
        assert not ra2 or min_cross_k(ra2, rb2, 6) <= 2
        exercised += 1
    assert exercised == 5


def test_reduce_hamming_3_rejects_other_k():
    with pytest.raises(ValueError):
        reduce_hamming_3(T0_EX, T1_EX, Budget(100), FiberCache())


def test_monotone_progress_of_potential():
    rng = random.Random(5150)
    for _ in range(50):
        t0, t1 = random_compatible_pair(7, 5, rng)
        res = reduce_pair(t0, t1)
        assert res.success
        a, b = t0, t1
        pots = [pair_potential(a, b)]
        for st in res.steps:
            if st.side == 0:
                a = apply_move(a, st.move)
            else:
                b = apply_move(b, st.move)
            pots.append(pair_potential(a, b))
        assert pots[-1] == (0, 0)
        # the stripped degree never increases along the trace
        degs = [p[0] for p in pots]
        assert all(x >= y for x, y in zip(degs, degs[1:]))


def test_reducer_matches_bfs_oracle_small():
    # on degree-<=4 pairs any fiber member is one move away; the reducer
    # and an exhaustive fiber BFS must agree a path exists
    from kimura4.markov import fiber_components, fibers
    rng = random.Random(31)
    seen = 0
    for fib in fibers(4, 3, include_singletons=False):
        members = fib.members
        if len(members) < 2:
            continue
        comps, _ = fiber_components(fib, 4)
        assert comps == 1
        t0 = Table(members[0], 4)
        t1 = Table(members[-1], 4)
        res = reduce_pair(t0, t1)
        assert res.success and trace_is_valid(t0, t1, res.steps)
        seen += 1
        if seen >= 12:
            break
    assert seen


def test_budget_exhaustion_returns_partial_not_invalid():
    # n=8 pairs reach the distance-2 search, where one node runs out; at
    # n=7, degree 6, the pinch reduces every sampled pair without search
    rng = random.Random(8)
    for _ in range(40):
        t0, t1 = random_compatible_pair(8, 8, rng)
        res = reduce_pair(t0, t1, node_budget=1)
        if not res.success:
            break
    else:
        pytest.fail("node_budget=1 exhausted on none of 40 pairs")
    assert res.steps and "budget" in res.message
    # the partial trace is legal move by move and keeps the pair compatible
    a, b = replay_trace(t0, t1, res.steps)
    assert compatible(a, b) and a != b


def test_nodes_spent_counts_search_within_budget():
    # every search of a reduction spends its one budget, so a pair that
    # searches reports the nodes it expanded, and no more than the budget
    rng = random.Random(8)
    searched = 0
    for _ in range(40):
        t0, t1 = random_compatible_pair(8, 8, rng)
        res = reduce_pair(t0, t1)
        diag = res.diagnostics
        assert 0 <= diag.nodes_spent <= 10_000
        if not diag.strategy_cases:
            assert diag.nodes_spent == 0
            continue
        searched += 1
        assert res.success and diag.nodes_spent > 0
        assert diag.fiber_cache_misses + diag.fiber_cap_hits > 0
        for budget in (1, diag.nodes_spent):
            capped = reduce_pair(t0, t1, node_budget=budget)
            assert 0 < capped.diagnostics.nodes_spent <= budget
    assert searched


def _first_k2_pair():
    # the first pair of an n=8, degree-8 sampler whose reduction runs the
    # distance-2 search; its first search is that one
    rng = random.Random(8)
    for _ in range(40):
        t0, t1 = random_compatible_pair(8, 8, rng)
        cases = reduce_pair(t0, t1).diagnostics.strategy_cases
        if cases["k2"]:
            assert set(cases) == {"k2"}
            return t0, t1
    pytest.fail("no distance-2 search in 40 pairs")


def test_long_search_spends_the_shared_budget(monkeypatch):
    # a search that needs more than 1500 nodes draws them from the
    # reduction's one budget and the pair still reduces
    t0, t1 = _first_k2_pair()
    search = reducer.pair_search

    def costly_search(*args, budget, **kwargs):
        budget.spend(1600)
        return search(*args, budget=budget, **kwargs)

    monkeypatch.setattr(reducer, "pair_search", costly_search)
    res = reduce_pair(t0, t1)
    assert res.success, res.message
    assert 1600 <= res.diagnostics.nodes_spent <= 10_000
    assert trace_is_valid(t0, t1, res.steps)


def test_strategy_gap_ends_reduction_after_one_search(monkeypatch):
    # an emptied frontier ends the reduction: no second search, no merge
    t0, t1 = _first_k2_pair()
    calls = []

    def empty_search(*args, **kwargs):
        calls.append(args)
        return None

    monkeypatch.setattr(reducer, "pair_search", empty_search)
    res = reduce_pair(t0, t1)
    assert len(calls) == 1
    assert not res.success and "k2:no-shared-row" in res.message
    assert res.diagnostics.fallback_cases == {"k2:no-shared-row": 1}
    a, b = replay_trace(t0, t1, res.steps)
    assert compatible(a, b) and a != b


def test_search_scans_grow_with_states_not_children(monkeypatch):
    # full side-against-side scans and strip_common calls come once per
    # pass of reduce_pair's loop and once per search, however many
    # exchanges the search tests; a search that finds its goal in its
    # first expansion builds the moves of its path alone and scores no
    # child
    t0, t1 = _first_k2_pair()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(reducer, "_nearest",
                        counted("nearest", reducer._nearest))
    monkeypatch.setattr(reducer, "strip_common",
                        counted("strip", reducer.strip_common))
    built = counted("moves", Move)
    monkeypatch.setattr(reducer, "Move", built)
    monkeypatch.setattr(moves, "Move", built)
    monkeypatch.setattr(reducer.NearestRows, "child",
                        counted("children", reducer.NearestRows.child))
    res = reduce_pair(t0, t1)
    assert res.success
    passes = len(res.steps) + 1
    bound = 2 * passes + res.diagnostics.nodes_spent
    assert calls["nearest"] + calls["strip"] <= bound
    assert res.diagnostics.nodes_spent == 1
    assert calls["moves"] == len(res.steps)
    assert calls["children"] == 0
    assert res.diagnostics.routines["children_scored"] == 0


def _rescored(state, n):
    # the reference scoring: strip the shared rows, then scan every
    # stripped side-0 row against every stripped side-1 row
    ra, rb = strip_common(*state)
    m = column_mask(n)
    return len(ra) < len(state[0]), [
        min((((x ^ y) | (x ^ y) >> 1) & m).bit_count() for y in rb)
        for x in ra]


def _nearest_rows_starts():
    # two random stripped pairs of at least three rows at each n = 4..9,
    # then the stripped GE4_PAIRS
    rng = random.Random(404)
    for n in range(4, 10):
        pairs = 0
        while pairs < 2:
            t0, t1 = random_compatible_pair(n, rng.randint(4, 6), rng)
            ra, rb = strip_common(t0.rows, t1.rows)
            if len(ra) < 3:
                continue
            pairs += 1
            yield n, ra, rb
    for rows0, rows1 in GE4_PAIRS:
        t0, t1 = Table.from_strings(rows0), Table.from_strings(rows1)
        yield 6, *strip_common(t0.rows, t1.rows)


def test_nearest_rows_match_full_recompute():
    # every child of the start and of the best child of each side, for
    # stripped pairs at n = 4..9, on both sides; side-1 children that
    # remove a row's only nearest neighbours must be met.  The second
    # round reads the memo as the first left it.  For each `below` up to
    # its parent's least distance, as in a search, the goal test by the
    # inserted rows must agree with the recomputed least distance
    children = rises = 0
    goals = Counter()
    for n, ra, rb in _nearest_rows_starts():
        near = reducer.NearestRows(ra, rb, n)
        assert near.start == _rescored((ra, rb), n)[1]
        cache = FiberCache()
        todo = [((ra, rb), near.start)]
        for _ in range(2):
            best = {}
            for state, old in todo:
                for side in (0, 1):
                    for mv, nb in moves.neighbors(
                            Table(state[side], n), 4, cache,
                            fiber_cap=reducer.FIBER_CAP):
                        child = ((nb.rows, state[1]) if side == 0
                                 else (state[0], nb.rows))
                        dists = near.child(state, side, nb.rows)
                        shared, full = _rescored(child, n)
                        children += 1
                        for below in range(1, min(min(old), 4) + 1):
                            hit = near.reaches(state[1 - side],
                                               mv.inserted, below)
                            assert hit == (shared or min(full) < below), (
                                state, side, mv, below)
                            goals[below, hit] += 1
                        if shared:
                            assert min(dists) == 0, (state, side, mv)
                            continue
                        assert dists == full, (state, side, mv)
                        if side == 1:
                            rises += any(map(int.__gt__, dists, old))
                        score = (min(dists), sum(dists))
                        if side not in best or score < best[side][0]:
                            best[side] = (score, child, dists)
            todo = [(child, dists) for _, child, dists in best.values()]
    assert children > 5000 and rises > 100, (children, rises)
    assert all(goals[below, hit] > 20 for below in range(1, 5)
               for hit in (False, True)), goals


def test_diagnostics_time_the_routines():
    rng = random.Random(8)
    searched = 0
    keys = {f"{r}_{unit}" for r in ("pinch", "pair_search", "fiber_build")
            for unit in ("calls", "s")} | {"children_scored"}
    for _ in range(12):
        t0, t1 = random_compatible_pair(8, 8, rng)
        t = time.perf_counter()
        res = reduce_pair(t0, t1)
        elapsed = time.perf_counter() - t
        diag = res.diagnostics
        r = diag.routines
        assert set(r) == keys and json.loads(json.dumps(diag.to_json()))[
            "routines"] == dict(r)
        assert r["pinch_calls"] > 0
        assert 0 <= r["pinch_s"] + r["pair_search_s"] <= elapsed
        assert 0 <= r["fiber_build_s"] <= r["pair_search_s"]
        assert r["pair_search_calls"] == sum(diag.strategy_cases.values())
        assert (diag.fiber_cache_misses <= r["fiber_build_calls"]
                <= diag.fiber_cache_misses + diag.fiber_cap_hits)
        searched += r["pair_search_calls"]
    assert searched


def test_pair_search_needs_row_disjoint_tables():
    with pytest.raises(ValueError):
        reducer.pair_search(T0_EX, T0_EX, below=1, budget=Budget(10))


def test_reduce_every_member_of_small_fibers():
    # every member of every n=3 fiber of degree 6 and 7 (65688 pairs)
    # reduces to its fiber's first member with a replay-valid trace and no
    # fallback; about 1700 of the pairs need the distance-2 search
    from kimura4.markov import fibers
    pairs = searched = 0
    for d in (6, 7):
        for fib in fibers(3, d, include_singletons=False):
            t0 = Table(fib.members[0], 3)
            for rows in fib.members[1:]:
                t1 = Table(rows, 3)
                res = reduce_pair(t0, t1)
                assert res.success, (t0, t1, res.message)
                assert not res.diagnostics.fallback_cases, (t0, t1)
                assert trace_is_valid(t0, t1, res.steps)
                searched += res.diagnostics.strategy_cases["k2"]
                pairs += 1
    assert pairs == 65688
    assert searched > 1000


def reduce_witness_members(n, degrees):
    """Reduce every member of every orbit witness's fiber of each degree in
    `degrees` at n leaves to the fiber's least member, asserting a
    replay-valid trace and no fallback each time; returns (fibers, member
    pairs, searches).  The n=4 degree-7 run, too slow for the suite:
    PYTHONPATH=src:tests python3 -c
    "from test_reducer import reduce_witness_members as r; print(r(4, [7]))"
    """
    flows = groups.flows_array(n)
    fibers = pairs = searches = 0
    for orb in itertools.islice(markov.orbit_layers(flows, n), max(degrees)):
        if orb.degree not in degrees:
            continue
        wid, members = moves.witness_fibers(orb.witnesses, flows, n)
        least = {}
        for w, rows in zip(wid.tolist(), flows[members].tolist()):
            t1 = Table(tuple(rows), n)
            t0 = least.setdefault(w, t1)
            if t0 is t1:
                continue
            res = reduce_pair(t0, t1)
            assert res.success, (t0, t1, res.message)
            assert not res.diagnostics.fallback_cases, (t0, t1)
            assert trace_is_valid(t0, t1, res.steps)
            searches += sum(res.diagnostics.strategy_cases.values())
            pairs += 1
        fibers += len(least)
    return fibers, pairs, searches


def test_reduce_every_member_of_witness_fibers():
    # every member of every orbit witness's fiber reduces to the fiber's
    # least member with a replay-valid trace and no fallback: 941 pairs at
    # n=3 to degree 8, 39837 at n=4 to degree 6, 16492 at n=5 to degree 4
    for n, max_degree, expected in ((3, 8, 941), (4, 6, 39837),
                                    (5, 4, 16492)):
        _, pairs, _ = reduce_witness_members(n, range(1, max_degree + 1))
        assert pairs == expected, n


def test_sample_fiber_member_matches_profile():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(3, 7)
        d = rng.randint(2, 6)
        from kimura4.reducer import random_table
        t = random_table(n, d, rng)
        s = sample_fiber_member(t, rng)
        assert compatible(t, s)


def test_fuzz_reduce_batch():
    rep = fuzz_reduce(7, 6, 100, seed=424242)
    assert rep.reduced == 100
    assert rep.replay_valid == 100
    assert not rep.failures


def test_fuzz_reports_merge():
    # the report merges per-pair outcomes in pair order, so a pool of
    # workers gives the same report as reducing the pairs in turn
    b = fuzz_reduce(8, 9, 6, seed=5, node_budget=1)  # one pair runs out
    assert b.failures and b.search["fiber_cap_hits"]
    assert b.total == 6 and b.reduced == b.replay_valid == 6 - len(b.failures)
    assert b.routines["pair_search_calls"] > 0
    with multiprocessing.Pool(2) as pool:
        pooled = fuzz_reduce(8, 9, 6, seed=5, node_budget=1, pool=pool)
    timings = [k for k in b.routines if k.endswith("_s")]
    for rep in (b, pooled):
        for k in timings:
            del rep.routines[k]
    assert pooled.to_json() == b.to_json()


# SHA-256 of the traces of _pinned_pairs, computed when capped fibers were
# still built before being refused; any change to the moves the reducer
# picks, its search order or the fibers it may use changes it.
PINNED_TRACE_DIGEST = (
    "b3d44cc09a356952928aeb11ed4b2482dbfd8fae90ffe65a67068a78487dc895")


def _pinned_pairs():
    rng = random.Random(2024)
    for n in (7, 8, 9):
        for _ in range(14 if n < 9 else 12):
            yield random_compatible_pair(n, rng.randint(5, 9), rng)


def _pinned_trace_digest():
    digest = hashlib.sha256()
    cap_hits = 0
    for t0, t1 in _pinned_pairs():
        res = reduce_pair(t0, t1)
        assert res.success
        cap_hits += res.diagnostics.fiber_cap_hits
        digest.update(json.dumps([s.to_json() for s in res.steps]).encode())
    return digest.hexdigest(), cap_hits


def test_traces_match_pinned_digest():
    digest, cap_hits = _pinned_trace_digest()
    assert cap_hits > 0  # the pairs meet capped fibers
    assert digest == PINNED_TRACE_DIGEST


# SHA-256 of the traces of the first 30 seeded n=9 pairs whose reduction
# runs the distance-2 search, computed while that search still had a
# 1500-node sub-budget, a merge-and-recurse phase and a fallback search.
PINNED_K2_TRACE_DIGEST = (
    "fef16c4313588330ae3dadbe8913166cf49857c4df6882522ae54c194e14da05")


def test_k2_traces_match_pinned_digest():
    rng = random.Random(9)
    digest = hashlib.sha256()
    taken = searches = 0
    for _ in range(300):
        t0, t1 = random_compatible_pair(9, rng.randint(6, 9), rng)
        res = reduce_pair(t0, t1)
        assert res.success
        if not res.diagnostics.strategy_cases["k2"]:
            continue
        taken += 1
        searches += res.diagnostics.strategy_cases["k2"]
        digest.update(json.dumps([s.to_json() for s in res.steps]).encode())
        if taken == 30:
            break
    assert (taken, searches) == (30, 37)
    assert digest.hexdigest() == PINNED_K2_TRACE_DIGEST


# SHA-256 of the nodes spent and the traces of the searches that ask for a
# lower distance rather than a shared row (below > 1): reduce_hamming_ge4 on
# the stripped GE4_PAIRS, reduce_hamming_3 on _abc_pairs, and the routine
# that fits on every stripped n=9 degree-5 pair of _far_pairs; computed
# while each search still built, scored and kept every child it reached.
PINNED_FAR_TRACE_DIGEST = (
    "aa1efe0d1389a75e4f7dba2125e584c0deefb776dda64876c0a3b81df0e98414")


def _far_pairs():
    # stripped n=9 pairs of degree 5 that keep every row, at minimal cross
    # distance >= 3
    rng = random.Random(5)
    for _ in range(300):
        sa, sb = _stripped(*random_compatible_pair(9, 5, rng))
        if len(sa.rows) == 5 and min_cross_k(sa.rows, sb.rows, 9) >= 3:
            yield sa, sb


def test_far_traces_match_pinned_digest():
    pairs = [*(_stripped(Table.from_strings(rows0), Table.from_strings(rows1))
               for rows0, rows1 in GE4_PAIRS), *_abc_pairs(), *_far_pairs()]
    digest = hashlib.sha256()
    routines = Counter()
    for sa, sb in pairs:
        k = min_cross_k(sa.rows, sb.rows, sa.n)
        routine = reduce_hamming_ge4 if k >= 4 else reduce_hamming_3
        budget = Budget(4000)
        steps = routine(sa, sb, budget, FiberCache())
        routines[routine.__name__] += 1
        digest.update(json.dumps([4000 - budget.nodes,
                                  [s.to_json() for s in steps]]).encode())
    assert routines == {"reduce_hamming_ge4": 26, "reduce_hamming_3": 128}
    assert digest.hexdigest() == PINNED_FAR_TRACE_DIGEST


def _unpruned_pinch(a, b):
    # the quadratic pinch as it was before its skip test: every distinct
    # pair of rows on each side builds its replacement fiber
    n, m = a.n, column_mask(a.n)
    k = min_cross_k(a.rows, b.rows, n)
    for side, rows, other in ((0, a.rows, b.rows), (1, b.rows, a.rows)):
        tried = set()
        for u, v in itertools.combinations(rows, 2):
            if (u, v) in tried or u == v:
                continue
            tried.add((u, v))
            for repl in profile_fiber((u, v), n):
                if repl != (u, v) and any(
                        (((z := w ^ y) | z >> 1) & m).bit_count() < k
                        for w in repl for y in other):
                    return TraceStep(side, Move((u, v), repl, n))
    return None


def test_pinch_skip_matches_unpruned_scan():
    rng = random.Random(13)
    found = none = 0
    for n in range(3, 10):
        for _ in range(60):
            t0, t1 = random_compatible_pair(n, rng.randint(3, 8), rng)
            ra, rb = strip_common(t0.rows, t1.rows)
            if len(ra) < 2:
                continue
            a, b = Table(ra, n), Table(rb, n)
            step = reducer._quadratic_pinch(a, b, min_cross_k(ra, rb, n))
            assert step == _unpruned_pinch(a, b), (n, ra, rb)
            found += step is not None
            none += step is None
    assert found > 200 and none > 10
