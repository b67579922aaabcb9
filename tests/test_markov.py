import functools
import hashlib
import itertools
import json
import math
import operator
import random

import numpy as np
import pytest

from kimura4 import groups, markov, moves
from kimura4.hilbert import hilbert_values
from kimura4.markov import (census_reference, connectivity_check,
                            fiber_components, fibers,
                            minimal_generator_census, multiset_diff_size,
                            multiset_index_array)
from kimura4.reducer import reduce_pair
from kimura4.tables import Table, compatible


def test_fibers_partition_everything():
    # n=3, d=1: psi injectivity means 16 singleton fibers
    fs = list(fibers(3, 1))
    assert len(fs) == 16
    assert all(len(f.members) == 1 for f in fs)
    # n=3, d=2: 136 multisets total
    fs = list(fibers(3, 2))
    assert sum(len(f.members) for f in fs) == 136
    # members of one fiber are pairwise compatible
    big = max(fs, key=lambda f: len(f.members))
    tabs = big.tables()
    for t in tabs[1:]:
        assert compatible(tabs[0], t)


def test_fibers_face_multiset_count():
    fs = list(fibers(5, 2))
    assert sum(len(f.members) for f in fs) == math.comb(257, 2)


def test_multiset_diff_size():
    assert multiset_diff_size((1, 2, 3), (1, 2, 3)) == 0
    assert multiset_diff_size((1, 2, 2), (1, 2, 3)) == 1
    assert multiset_diff_size((1, 1, 1), (2, 2, 2)) == 3


def test_fiber_components_modes():
    # singleton fibers have one component
    f = next(iter(fibers(3, 1)))
    assert fiber_components(f, 4)[0] == 1
    # degree-2 fibers with move bound 1: everything isolated
    for f in fibers(3, 2, include_singletons=False):
        comps, _ = fiber_components(f, 1)
        assert comps == len(f.members)
        break
    # degree-4 fibers for n=3 with bound 4 in connectivity mode: connected
    rng = random.Random(2)
    fs = [f for f in fibers(3, 4, include_singletons=False)]
    for f in rng.sample(fs, 10):
        comps, _ = fiber_components(f, 4)
        assert comps == 1


def test_component_monotonicity_in_move_bound():
    fs = [f for f in fibers(3, 4, include_singletons=False)]
    rng = random.Random(3)
    for f in rng.sample(fs, 8):
        seq = [fiber_components(f, m)[0] for m in range(2, 5)]
        assert all(x >= y for x, y in zip(seq, seq[1:]))


def test_census_engine_matches_reference_n3_n4_and_faces():
    assert minimal_generator_census(3, 4).counts() == census_reference(3, 4)
    assert minimal_generator_census(4, 3).counts() == census_reference(4, 3)
    face = groups.FaceSpec.parse("3:c,2:b")
    assert minimal_generator_census(3, 3, face).counts() == \
        census_reference(3, 3, face)


def test_census_sharded_matches_in_memory():
    ref = minimal_generator_census(3, 5).counts()
    sharded = minimal_generator_census(3, 5, member_budget=130,
                                       shards=7).counts()
    assert sharded == ref


def test_census_budget_exceeded_partial(monkeypatch):
    # n=3 degree 5: 1104 candidate cells, then fiber states of 2324 cells
    monkeypatch.setattr(moves, "MAX_CELLS", 2000)
    rep = minimal_generator_census(3, 6)
    assert not rep.complete
    assert rep.counts() == {2: 0, 3: 16, 4: 18}
    assert rep.note.startswith("degree 5: fiber states: ")


def test_node_keys_limit_boundary(monkeypatch):
    # the n=3 degree-6 fibers, joined where members share two rows (moves
    # of degree <= 4): C(6, 2) node keys per member
    flows = groups.flows_array(3)
    orb = next(o for o in markov.orbit_layers(flows, 3) if o.degree == 6)
    wid, members = moves.witness_fibers(orb.witnesses, flows, 3)
    labels, rounds = markov._share_labels(wid, members, 2, len(flows))
    cells = math.comb(6, 2) * len(members)
    monkeypatch.setattr(moves, "MAX_CELLS", cells)
    got, got_rounds = markov._share_labels(wid, members, 2, len(flows))
    assert (got == labels).all() and got_rounds == rounds
    monkeypatch.setattr(moves, "MAX_CELLS", cells - 1)
    with pytest.raises(moves.SizeLimitExceeded,
                       match=f"^degree 6: node keys: {cells} cells"):
        markov._share_labels(wid, members, 2, len(flows))


def test_spill_route_refuses_wide_profile_key():
    # only the spill kernel builds profile keys: with shards, n=13 needs
    # 13 * 5 bits at degree 2, where the orbit route runs
    face = groups.FaceSpec((c, g) for c in range(13) for g in (1, 2, 3))
    assert minimal_generator_census(13, 2, face).counts() == {2: 0}
    rep = minimal_generator_census(13, 2, face, member_budget=0, shards=2)
    assert not rep.complete and rep.rows == []
    assert "65 bits" in rep.note


def test_degree2_census_identity_all_n_and_faces():
    # sum over degree-2 fibers of (|F|-1) equals C(V+1, 2) - #fibers,
    # with the left side from the dict route and the right from counting
    cases = [(n, None) for n in range(2, 7)]
    cases += [(6, f) for f in (groups.FACE_P1, groups.FACE_P2,
                               groups.FACE_P3, groups.FACE_CODIM2_A,
                               groups.FACE_CODIM2_B)]
    for n, face in cases:
        v = len(groups.enumerate_flows(n, face))
        fs = list(fibers(n, 2, face))
        lhs = sum(len(f.members) - 1 for f in fs)
        rhs = math.comb(v + 1, 2) - len(fs)
        assert lhs == rhs, (n, str(face))


def test_multiset_index_array_counts_and_order():
    arr = multiset_index_array(5, 3)
    assert arr.shape == (math.comb(7, 3), 3)
    rows = [tuple(r) for r in arr]
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    assert all(a <= b <= c for a, b, c in rows)


def test_connectivity_small_true():
    res = connectivity_check(3, 6, 4)
    assert res.ok


def test_connectivity_witness_and_soundness():
    res = connectivity_check(3, 4, 2)
    assert not res.ok and res.witness is not None
    t0 = Table.from_strings(res.witness[0])
    t1 = Table.from_strings(res.witness[1])
    assert compatible(t0, t1)
    # the witness fails at the tested move bound but reduces at full degree
    stuck = reduce_pair(t0, t1, max_degree=2, node_budget=4000)
    assert not stuck.success
    ok = reduce_pair(t0, t1, max_degree=t0.degree)
    assert ok.success


def test_census_stability_across_shard_counts():
    a = minimal_generator_census(3, 4, member_budget=100, shards=3).counts()
    b = minimal_generator_census(3, 4, member_budget=100, shards=11).counts()
    assert a == b == census_reference(3, 4)


def _assert_flood_matches_pairwise():
    for move_degree in (2, 3, 4):
        flood_ok = connectivity_check(3, 5, move_degree).ok
        brute_ok = True
        for f in fibers(3, 5, include_singletons=False):
            comps, _ = fiber_components(f, move_degree)
            if comps > 1:
                brute_ok = False
                break
        assert flood_ok == brute_ok, move_degree


def test_connectivity_flood_matches_pairwise_components():
    # dual route: the orbit route's shared-row union against pairwise
    # multiset-diff union-find over every fiber, across move bounds
    _assert_flood_matches_pairwise()


def _rows(report):
    return [(r.degree, r.generators, r.fibers, r.multisets, r.largest_fiber)
            for r in report.rows]


def test_spill_kernel_shard_counts_match_orbit_route():
    # the sharded kernel, on few and on many shards, against the orbit route
    for face in (None, groups.FaceSpec.parse("3:c,2:b")):
        orbit = minimal_generator_census(3, 5, face)
        assert all(r.orbits for r in orbit.rows)
        for shards in (3, 11):
            spill = minimal_generator_census(3, 5, face, member_budget=1,
                                             shards=shards)
            assert all(r.orbits is None for r in spill.rows)
            assert _rows(spill) == _rows(orbit), (str(face), shards)


@pytest.mark.parametrize("n, face, max_degree", [
    (3, None, 8), (4, None, 5), (5, None, 3),
    (6, groups.FACE_P2, 3), (6, groups.FACE_P3, 3),
    # faces whose stabilizers swap column labels
    (4, groups.FaceSpec.parse("2:b,3:c"), 5),
    (4, groups.FaceSpec.parse("1:a,2:b,3:c"), 5)])
def test_orbit_sizes_sum_to_hilbert_values(n, face, max_degree):
    # orbit sizes count fibers, and the fibers of degree d are the H(d)
    # distinct degree-d profiles, counted here by a plain sumset of
    # profile keys (sort and drop repeats; np.unique is far slower here)
    flows = groups.flows_array(n, face)
    keys = groups.profile_keys(flows, n, max_degree)
    layer, distinct = np.zeros(1, dtype=np.int64), []
    for _ in range(max_degree):
        layer = np.sort((layer[:, None] + keys).ravel())
        layer = layer[np.append(True, layer[1:] != layer[:-1])]
        distinct.append(len(layer))
    sums = [int(o.sizes.sum()) for o in itertools.islice(
        markov.orbit_layers(flows, n), max_degree)]
    assert sums == hilbert_values(n, face, max_degree)[1:] == distinct


def test_orbit_counts_match_brute_force_canonical_forms():
    # orbit counts found by a minimum over every cell permutation of G
    table = {3: [3, 8, 23, 51, 134, 304], 4: [5, 17, 90, 318],
             5: [6, 31, 254]}
    for n, counts in table.items():
        layers = itertools.islice(
            markov.orbit_layers(groups.flows_array(n), n), 1, len(counts) + 1)
        assert [len(o.sizes) for o in layers] == counts, n


@pytest.mark.parametrize("n, face, max_degree", [
    (3, None, 5), (4, None, 4), (3, groups.FaceSpec.parse("3:c,2:b"), 5)])
def test_orbit_route_matches_spill_kernel_and_reference(n, face, max_degree):
    orbit = minimal_generator_census(n, max_degree, face)
    spill = minimal_generator_census(n, max_degree, face, member_budget=1,
                                     shards=5)
    assert orbit.complete and spill.complete
    assert _rows(orbit) == _rows(spill)
    assert orbit.counts() == census_reference(n, max_degree, face)


def test_non_symmetry_breaks_multiset_sum(monkeypatch):
    # an automorphism on one column only maps flows to non-flows; taken as a
    # coset of symmetries it merges fibers of different orbits, and the
    # orbit sizes no longer account for every multiset
    cosets = markov._cosets

    def with_bad_coset(labels):
        swap = 4 * groups.AUTOMORPHISMS.index(groups.SWAP_BC)
        bad = [[swap + t for t in range(4)]]
        bad += [list(range(4)) for _ in labels[1:]]
        good, order = cosets(labels)
        return good + [bad], order

    monkeypatch.setattr(markov, "_cosets", with_bad_coset)
    with pytest.raises(AssertionError, match="multisets"):
        minimal_generator_census(3, 4)
    with pytest.raises(AssertionError, match="multisets"):
        connectivity_check(3, 6, 4)


def test_coset_missing_a_map_breaks_multiset_sum(monkeypatch):
    # a coset missing one of its column's maps is not every per-column
    # choice of maps whose translations XOR to 0, which the orbit sizes
    # count on
    cosets = markov._cosets

    def without_first_map(labels):
        good, order = cosets(labels)
        first = good[0]
        return [[first[0][1:]] + first[1:]] + good[1:], order

    monkeypatch.setattr(markov, "_cosets", without_first_map)
    with pytest.raises(AssertionError, match="hold 259 multisets"):
        minimal_generator_census(3, 3)


def _pair_cosets(labels):
    # every (automorphism, translation) pair of H, listed one by one and
    # grouped by automorphism and column images, as np.unique sorts them
    n = len(labels)
    img = markov._label_images(labels, markov._affine_maps())
    grouped = {}
    for a in range(len(groups.AUTOMORPHISMS)):
        for ts in itertools.product(range(4), repeat=n):
            if functools.reduce(operator.xor, ts):
                continue
            maps = [4 * a + t for t in ts]
            image = tuple(int(img[i, m]) for i, m in enumerate(maps))
            if sorted(image) == sorted(labels):
                grouped.setdefault((a, image), []).append(maps)
    cosets = []
    for key in sorted(grouped):
        pairs = grouped[key]
        cols = [sorted({p[i] for p in pairs}) for i in range(n)]
        # the group is whole: every per-column choice XORing to 0
        whole = sum(not functools.reduce(operator.xor, ms) & 3
                    for ms in itertools.product(*cols))
        assert whole == len(pairs), key
        cosets.append(cols)
    factorials = math.prod(math.factorial(labels.count(k))
                           for k in set(labels))
    return cosets, sum(map(len, grouped.values())) * factorials


def test_direct_cosets_match_pair_listing():
    cases = [(n, None) for n in range(2, 7)]
    cases += [(6, face) for face in groups.NAMED_FACES.values()]
    cases += [(n, groups.FaceSpec.parse(text)) for n in range(3, 7)
              for text in ("1:a,2:a", "1:a,1:b,2:c")]
    for n, face in cases:
        sym = groups.column_symbols(groups.flows_array(n, face), n)
        labels = [int(np.bitwise_or.reduce(1 << sym[:, i].astype(np.int64)))
                  for i in range(n)]
        assert markov._cosets(labels) == _pair_cosets(labels), (n, str(face))


@pytest.mark.parametrize("n, face", [
    (3, None), (4, groups.FaceSpec.parse("2:b,3:c"))])
def test_degree_tables_match_full_key_table(n, face, monkeypatch):
    # the tables orbit_layers builds, against the least key and reached
    # translations over each coset's maps on the full (d+1)^4 key table
    built = []

    def recording(*args):
        out = degree_tables(*args)
        built.append(out)
        return out

    degree_tables = markov._degree_tables
    monkeypatch.setattr(markov, "_degree_tables", recording)
    flows = groups.flows_array(n, face)
    list(itertools.islice(markov.orbit_layers(flows, n), 4))
    sym = groups.column_symbols(flows, n)
    labels = [int(np.bitwise_or.reduce(1 << sym[:, i].astype(np.int64)))
              for i in range(n)]
    kinds = sorted(set(labels))
    cosets, _ = markov._cosets(labels)
    maps = markov._affine_maps()
    img = markov._label_images(labels, maps)
    for d, (rank, offset, least, stab, shift) in enumerate(built, 1):
        base, cells = d + 1, (d + 1) ** 4
        digits = [[x // base ** g % base for g in range(4)]
                  for x in range(cells)]
        key = [[[int(img[i, m]) * cells
                 + sum(c * base ** int(maps[m, g])
                       for g, c in enumerate(digits[x]))
                 for x in range(cells)] for m in range(24)]
               for i in range(n)]
        codes = [x for x in range(cells) if sum(digits[x]) == d]
        size = len(codes)
        assert size == math.comb(d + 3, 3)
        assert rank[codes].tolist() == list(range(size))
        assert least.shape == stab.shape == shift.shape == (
            n, len(cosets), size)
        # keys below len(kinds) * C(d+3, 3) < 2^15
        assert least.dtype == rank.dtype == offset.dtype == np.int16
        assert offset.ravel().tolist() == [kinds.index(x) * size
                                           for x in labels]
        for g, cols in enumerate(cosets):
            for i, col in enumerate(cols):
                for x in codes:
                    low = min(key[i][m][x] for m in col)
                    # a key is (label, code); the tables number both
                    assert least[i, g, rank[x]] == (
                        kinds.index(low // cells) * size
                        + codes.index(low % cells)), (d, g, i, x)
                    hit = {m & 3 for m in col if key[i][m][x] == low}
                    u = min(hit)
                    sub = {t ^ u for t in hit}  # a subgroup: hit is a coset
                    assert all(a ^ b in sub for a in sub for b in sub)
                    assert shift[i, g, rank[x]] == u, (d, g, i, x)
                    assert stab[i, g, rank[x]] == sum(1 << t for t in sub), (
                        d, g, i, x)


def test_degree_tables_widen_past_int16():
    # 1639 labels times C(6, 3) = 20 codes pass 2^15 and need int32 keys;
    # numbering the labels from 1638 shifts every least key by 1638 * 20
    # and leaves the translations
    sym = groups.column_symbols(groups.flows_array(3), 3).astype(np.int64)
    labels = [int(np.bitwise_or.reduce(1 << sym[:, i])) for i in range(3)]
    cosets, _ = markov._cosets(labels)
    coset_maps = np.array([[(col * 4)[:4] for col in cols]
                           for cols in cosets]).transpose(1, 0, 2)
    kind_image = np.zeros((3, 24), dtype=np.int64)
    rank, offset, least, stab, shift = markov._degree_tables(
        kind_image, coset_maps, 3)
    assert least.dtype == np.int16
    rank32, offset32, *wide = markov._degree_tables(
        kind_image + 1638, coset_maps, 3)
    assert wide[0].dtype == rank32.dtype == offset32.dtype == np.int32
    assert (rank32 == rank).all()
    assert (offset32 == offset.astype(np.int32) + 1638 * 20).all()
    assert (wide[0] == least.astype(np.int32) + 1638 * 20).all()
    assert (wide[1] == stab).all() and (wide[2] == shift).all()


@pytest.mark.parametrize("n, bits", [
    (3, 5), (3, 18), (2, 31), (6, 12), (4, 40), (4, 13), (1, 53)])
def test_first_of_forms_matches_lexsort(n, bits, monkeypatch):
    # packed words (one word, one word, a word of 64 bits unless split,
    # two words, a word per key column, one word of 54 bits, one of 55)
    # against a stable np.lexsort of the rows and a neighbour test; a word
    # sorts alone with the 9 index bits of 500 rows iff it fits 54 bits
    rng = np.random.default_rng(bits)
    values = np.array([0, rng.integers(1, 2**bits - 1), 2**bits - 1])
    keys = values[rng.integers(0, 3, size=(40, n))]  # rows share prefixes
    canon = np.concatenate([keys, rng.integers(0, 4, size=(40, 1))], axis=1)
    canon = canon[rng.integers(0, 40, size=500)]  # repeated forms
    perm = np.lexsort(canon.T[::-1])
    rows = canon[perm]
    new = np.append(True, np.any(rows[1:] != rows[:-1], axis=1))
    lexsorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda k: lexsorts.append(1) or
                        lexsort(k))
    got = markov._first_of_rows(canon.T, [bits] * n + [2])
    assert got.tolist() == perm[new].tolist()
    assert len(lexsorts) == (n * bits + 2 + 9 > 63)


@pytest.mark.parametrize("n, face, max_degree", [
    (3, None, 7), (4, None, 5),
    # faces of three and four column labels, some swapped by H
    (6, groups.FACE_P2, 3), (4, groups.FaceSpec.parse("2:b,3:c"), 5),
    (4, groups.FaceSpec.parse("1:a,2:b,3:c"), 5)])
def test_candidates_share_canonical_form_with_class_first(
        n, face, max_degree, monkeypatch):
    # every candidate canonicalised, against the first candidate of its
    # class: the multiset of (face label, column code) over its columns
    tables, classes = [], []

    def record_tables(*args):
        tables.append(degree_tables(*args))
        return tables[-1]

    def record_classes(codes, *args):
        classes.append((codes.copy(), first_of_classes(codes, *args)))
        return classes[-1][1]

    degree_tables = markov._degree_tables
    first_of_classes = markov._first_of_classes
    monkeypatch.setattr(markov, "_degree_tables", record_tables)
    monkeypatch.setattr(markov, "_first_of_classes", record_classes)
    flows = groups.flows_array(n, face)
    list(itertools.islice(markov.orbit_layers(flows, n), max_degree))
    sym = groups.column_symbols(flows, n).astype(np.int64)
    labels = [int(np.bitwise_or.reduce(1 << sym[:, i])) for i in range(n)]
    assert len(tables) == len(classes) == max_degree
    for (_, _, *tabs), (codes, firsts) in zip(tables, classes):
        canon, reach = markov._canonical(codes, *tabs)
        first_of = {}
        for j, col in enumerate(codes.T.tolist()):
            rep = first_of.setdefault(tuple(sorted(zip(labels, col))), j)
            assert canon[:, j].tolist() == canon[:, rep].tolist(), j
            assert reach[j] == reach[rep], j
        assert firsts.tolist() == sorted(first_of.values())


def test_canonical_sees_class_firsts_only(monkeypatch):
    # rows canonicalised per degree of the n=3 layers; canonicalising every
    # candidate (orbits of degree d-1 times 16 flows) gives 16, 48, 128,
    # 368, 816, 2144, 4864, 11184, 23584
    seen = []
    canonical = markov._canonical

    def counting(codes, *tables):
        seen.append(codes.shape[1])
        return canonical(codes, *tables)

    monkeypatch.setattr(markov, "_canonical", counting)
    list(itertools.islice(markov.orbit_layers(groups.flows_array(3), 3), 9))
    assert seen == [5, 5, 25, 76, 194, 428, 1025, 2199, 4766]


# SHA-256 of the orbit witnesses and sizes below, computed when cosets came
# from listing H's pairs and canonical forms were deduplicated by
# np.unique(axis=0); any change of orbit order or content changes it.
PINNED_ORBIT_DIGEST = (
    "c2cf9def651096ee9c474cf6012dad88fe2a03f91e0b8673eae193ab14d84793")


def test_orbits_match_pinned_digest():
    cases = [(3, None, 8), (4, None, 6), (5, None, 3), (6, None, 3)]
    cases += [(6, face, 3) for face in groups.NAMED_FACES.values()]
    cases += [(4, groups.FaceSpec.parse(text), 5)
              for text in ("2:b,3:c", "1:a,2:b,3:c")]
    digest = hashlib.sha256()
    for n, face, max_degree in cases:
        layers = markov.orbit_layers(groups.flows_array(n, face), n)
        for orb in itertools.islice(layers, max_degree):
            digest.update(orb.witnesses.astype("<i8").tobytes())
            digest.update(orb.sizes.astype("<i8").tobytes())
    assert digest.hexdigest() == PINNED_ORBIT_DIGEST


def test_orbit_telemetry():
    rep = minimal_generator_census(3, 4)
    assert [r.orbits for r in rep.rows] == [3, 8, 23]
    assert [r.largest_fiber for r in rep.rows] == \
        [max(len(f.members) for f in fibers(3, d)) for d in (2, 3, 4)]
    res = connectivity_check(3, 7, 4)
    assert {d: r.orbits for d, r in res.degrees.items()} == \
        {5: 51, 6: 134, 7: 304}
    assert res.to_json()["orbits"] == {"5": 51, "6": 134, "7": 304}


def test_stage_seconds_fit_in_each_degree():
    rep = minimal_generator_census(3, 6)
    for row in rep.rows:
        stages = (row.orbits_s, row.fibers_s, row.components_s)
        assert min(stages) >= 0 and sum(stages) <= row.elapsed_s
        # no move has degree < 2: the quadrics need no flood
        assert (row.degree > 2) <= row.flood_rounds < markov.FLOOD_MAX_ITER
    res = connectivity_check(3, 7, 4)
    keys = ("elapsed_s", "orbits_s", "fibers_s", "components_s",
            "flood_rounds")
    assert sorted(res.degrees) == [5, 6, 7]
    for row in res.degrees.values():
        assert row.orbits_s + row.fibers_s + row.components_s <= row.elapsed_s
        assert 1 <= row.flood_rounds < markov.FLOOD_MAX_ITER
    obj = res.to_json()
    assert all(list(obj[key]) == ["5", "6", "7"] for key in keys)


def test_sweep_makes_no_per_witness_fiber_call(monkeypatch):
    # the sweep enumerates each chunk of witnesses at once; one
    # profile_fiber call per witness would be 489 calls here
    fiber, calls = moves.profile_fiber, 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return fiber(*args, **kwargs)

    monkeypatch.setattr(moves, "profile_fiber", counted)
    assert connectivity_check(3, 7, 4).ok
    assert calls == 0


def test_sweep_in_one_witness_chunks(monkeypatch):
    # chunks of one witness each give the same counts, fibers and witness
    def sweep():
        rep = minimal_generator_census(3, 6)
        res = connectivity_check(3, 4, 2)
        return (_rows(rep), [r.orbits for r in rep.rows], res.witness,
                connectivity_check(3, 7, 4).ok)

    whole = sweep()
    monkeypatch.setattr(markov, "ORBIT_CHUNK", 1)
    assert sweep() == whole


def test_node_key_width_is_checked():
    # 16 shared rows of 10 bits each do not fit a 63-bit node key
    with pytest.raises(groups.ProfileKeyTooWide, match="63 bits"):
        markov._share_labels(np.zeros(1, dtype=np.int32),
                             np.zeros((1, 20), dtype=np.int32), 16, 1024)


def test_census_report_reproducible():
    def snap():
        rep = minimal_generator_census(3, 4).to_json()
        for row in rep["degrees"]:
            for key in ("elapsed_s", "orbits_s", "fibers_s", "components_s"):
                row.pop(key)
        return json.dumps(rep, sort_keys=True)

    assert snap() == snap()


SECONDS = ("elapsed_s", "orbits_s", "fibers_s", "components_s")


def _without_seconds(obj):
    """A report with its seconds left out: a degree -> seconds dict becomes
    its keys in order, one row's seconds the name of their type."""
    if isinstance(obj, list):
        return [_without_seconds(x) for x in obj]
    if not isinstance(obj, dict):
        return obj
    return {key: (list(value) if isinstance(value, dict)
                  else type(value).__name__) if key in SECONDS
            else _without_seconds(value) for key, value in obj.items()}


def _connectivity_json(connected, max_table_degree, move_degree, checked,
                       orbits, flood_rounds):
    swept = list(orbits)
    return {"connected": connected, "n_leaves": 3, "face": "",
            "max_table_degree": max_table_degree, "move_degree": move_degree,
            "checked_degrees": checked, "orbits": orbits,
            "flood_rounds": flood_rounds, "elapsed_s": swept,
            "orbits_s": swept, "fibers_s": swept, "components_s": swept}


def test_reports_match_pinned_json():
    # every value but the seconds, and the key order, of the JSON reports
    pinned = [
        (connectivity_check(3, 7, 4), _connectivity_json(
            True, 7, 4, [2, 3, 4, 5, 6, 7], {"5": 51, "6": 134, "7": 304},
            {"5": 2, "6": 3, "7": 3})),
        (connectivity_check(3, 4, 2), dict(_connectivity_json(
            False, 4, 2, [2, 3], {"3": 8}, {"3": 1}),
            witness={"t0": ["000", "abc", "bca"],
                     "t1": ["0cc", "a0a", "bb0"]})),
        (minimal_generator_census(3, 6), {
            "n_leaves": 3, "face": "", "max_degree": 6, "complete": True,
            "note": "", "degrees": [
                {"degree": d, "generators": gens, "fibers": fibers_,
                 "multisets": math.comb(15 + d, d), "elapsed_s": "float",
                 "orbits": orbits, "largest_fiber": largest,
                 "orbits_s": "float", "fibers_s": "float",
                 "components_s": "float", "flood_rounds": rounds}
                for d, gens, fibers_, orbits, largest, rounds in [
                    (2, 0, 136, 3, 1, 0), (3, 16, 800, 8, 2, 1),
                    (4, 18, 3611, 23, 8, 3), (5, 0, 13328, 51, 8, 2),
                    (6, 0, 42048, 134, 9, 3)]]}),
    ]
    for report, expected in pinned:
        got = _without_seconds(report.to_json())
        assert got == expected
        assert json.dumps(got) == json.dumps(expected)  # the key order too
