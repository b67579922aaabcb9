"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines and timings.  All value tolerances are exact.  The stretch censuses,
the n=5 quartics and the two n=6 face quartics, run through the orbit route
in seconds and are part of every run.
"""

import math
import random
import time

from kimura4 import corpus, groups, hilbert, markov
from kimura4.reducer import fuzz_reduce, random_compatible_pair
from kimura4.tables import (CountingFunctional, Table, compatible,
                            hamming_distance)


def _line(criterion: str, detail: str, t0: float) -> None:
    print(f"ACCEPT {criterion}: {detail}  [{time.time() - t0:.1f}s]  pass")


def test_criterion_1_vertex_counts():
    t0 = time.time()
    for n in range(3, 8):
        assert len(groups.enumerate_flows(n)) == 4 ** (n - 1)
    faces = [(groups.FACE_P1, 256), (groups.FACE_P2, 384),
             (groups.FACE_P3, 432), (groups.FACE_CODIM2_A, 512),
             (groups.FACE_CODIM2_B, 576)]
    for face, count in faces:
        assert len(groups.enumerate_flows(6, face)) == count
    _line("1", "4^(n-1) for n=3..7; faces 256/384/432 and 512/576", t0)


def test_criterion_2_move_corpus():
    t0 = time.time()
    report = corpus.verify_corpus()
    assert report.passed, report.summary()
    assert len(report.entries) >= 25
    expanded = sum(e.instantiations for e in report.entries)
    _line("2", f"{len(report.entries)} identities, {expanded} instantiations,"
          " all compatible with degree <= 4", t0)


def test_criterion_3_connectivity_n3():
    t0 = time.time()
    res = markov.connectivity_check(3, 8, 4)
    assert res.ok
    _line("3a", "every fiber connected: n=3, table degree <= 8, moves <= 4",
          t0)


def test_criterion_3_connectivity_n4():
    t0 = time.time()
    res = markov.connectivity_check(4, 6, 4)
    assert res.ok
    assert {d: r.orbits for d, r in res.degrees.items()} == \
        {5: 318, 6: 1373}
    _line("3b", "every fiber connected: n=4, table degree <= 6, moves <= 4",
          t0)


def test_criterion_4_n5_census():
    t0 = time.time()
    rep = markov.minimal_generator_census(5, 3)
    assert rep.counts()[2] == 12960
    assert rep.counts()[3] == 2560
    _line("4", "n=5 census: 12960 quadrics, 2560 cubics", t0)


def test_criterion_4_stretch_n5_quartics():
    t0 = time.time()
    rep = markov.minimal_generator_census(5, 4)
    assert rep.complete
    assert rep.counts()[4] == 6720
    total = sum(rep.counts().values())
    assert total == 22240
    _line("4s", "n=5 census stretch: 6720 quartics (22240 generators total)",
          t0)


def test_criterion_5_n6_face_censuses():
    t0 = time.time()
    p2 = markov.minimal_generator_census(6, 3, groups.FACE_P2)
    assert p2.counts() == {2: 36840, 3: 2304}
    p3 = markov.minimal_generator_census(6, 3, groups.FACE_P3)
    assert p3.counts() == {2: 48600, 3: 2176}
    _line("5", "n=6 faces: P2 36840/2304, P3 48600/2176", t0)


def test_criterion_5_stretch_face_quartics():
    t0 = time.time()
    p2 = markov.minimal_generator_census(6, 4, groups.FACE_P2)
    assert p2.counts()[4] == 7968
    p3 = markov.minimal_generator_census(6, 4, groups.FACE_P3)
    assert p3.counts()[4] == 6282
    _line("5s", "n=6 face quartics: P2 7968, P3 6282", t0)


def test_criterion_6_hilbert_cross_check():
    t0 = time.time()
    num, e, dim = hilbert.bundled_series("n6_full")
    series_vals = hilbert.expand_series(num, e, len(num) + 4)
    assert series_vals[1] == 1024
    enum_vals = hilbert.hilbert_values(6, None, 4)
    assert enum_vals == series_vals[:5]
    assert enum_vals[1:] == [1024, 218080, 14353408, 424014793]
    assert hilbert.h_numerator(series_vals, dim) == num
    _line("6", "series t1..t4 = 1024, 218080, 14353408, 424014793 match "
          "the orbit sums; h-numerator round-trips exactly", t0)


def test_criterion_7_regularity_bounds():
    t0 = time.time()
    num, e, dim = hilbert.bundled_series("n6_full")
    vals = hilbert.expand_series(num, e, len(num) + 3)
    rec = hilbert.HilbertRecord(6, "", dim, vals,
                                h_coeffs=hilbert.h_numerator(vals, dim))
    assert hilbert.regularity_bound(rec) == 16
    for name in ("n6_tilde", "n6_tilde_prime"):
        num, e, dim = hilbert.bundled_series(name)
        vals = hilbert.expand_series(num, e, len(num) + 3)
        rec2 = hilbert.HilbertRecord(6, name, dim, vals,
                                     h_coeffs=hilbert.h_numerator(vals, dim))
        assert hilbert.regularity_bound(rec2) == 14
    # n=3: generators live in degree at most 1 + deg h, from the
    # computed Hilbert values; the census finds none from degree 5 to it
    n3 = hilbert.build_record(3, None, 12)
    bound = n3.regularity_bound
    assert bound >= 5
    census = markov.minimal_generator_census(3, bound)
    counts = census.counts()
    assert census.complete and sorted(counts) == list(range(2, bound + 1))
    assert all(counts[d] == 0 for d in range(5, bound + 1)), counts
    nonzero = [d for d, g in counts.items() if g > 0]
    _line("7", f"bounds 16 (n=6), 14 (both codim-2 faces); n=3 census "
          f"degrees {nonzero}, none in 5..1+deg h = {bound}", t0)


def test_criterion_8_reducer_fuzz_1000():
    t0 = time.time()
    rep = fuzz_reduce(7, 6, 1000, seed=20260809)
    assert rep.reduced == 1000, rep.failures[:3]
    assert rep.replay_valid == 1000
    # a strategy gap ends its reduction, so every reduced pair had none
    _line("8", f"1000/1000 reduced and replay-validated; "
          f"{sum(rep.fallbacks.values())} strategy gap(s)", t0)


def test_criterion_9_invariant_suites():
    t0 = time.time()
    # group axioms, exhaustive
    for a in range(4):
        for b in range(4):
            assert groups.add(a, b) == groups.add(b, a)
            assert groups.add(groups.add(a, b), b) == a
    # psi injectivity, exhaustive for n <= 8
    for n in range(2, 9):
        flows = groups.enumerate_flows(n)
        assert len({Table.make([v], n, check=False).profile()
                    for v in flows}) == len(flows)
    # no Hamming-distance-1 flow pairs for n <= 8: flipping one entry of a
    # flow always breaks the zero-sum condition
    for n in range(2, 9):
        for v in groups.enumerate_flows(n)[:512]:
            for i in range(n):
                g = groups.entry(v, i, n)
                for other in range(4):
                    if other != g:
                        assert not groups.is_flow(
                            groups.set_entry(v, i, n, other), n)
    # counting functionals agree on 10^4 random compatible pairs
    rng = random.Random(99)
    for _ in range(10_000):
        n = rng.randint(3, 7)
        d = rng.randint(2, 5)
        ta, tb = random_compatible_pair(n, d, rng)
        f = CountingFunctional({(rng.randrange(n), rng.randrange(4)):
                                rng.randint(-2, 2) for _ in range(5)})
        assert f.eval(ta) == f.eval(tb)
    # degree-2 census identity for all n <= 6 and the named faces
    cases = [(n, None) for n in range(2, 7)]
    cases += [(6, f) for f in groups.NAMED_FACES.values()]
    for n, face in cases:
        v = len(groups.enumerate_flows(n, face))
        fs = list(markov.fibers(n, 2, face))
        assert sum(len(f.members) - 1 for f in fs) == \
            math.comb(v + 1, 2) - len(fs)
    _line("9", "group axioms, psi injectivity (n<=8), no distance-1 pairs "
          "(n<=8), 10^4 counting-functional agreements, degree-2 census "
          "identity (n<=6, all faces)", t0)
