import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from kimura4 import groups
from kimura4.reducer import random_flow
from kimura4.tables import (CountingFunctional, Table, compatible, hamming,
                            hamming_distance, min_hamming_pair, monomial_eval,
                            pair_from_json, pair_to_json, profile_to_json)

# the intro example exchange, padded to flows with agreeing zeros plus
# balancing entries
T0_EX = Table.from_strings(["aa00", "0bb0", "c00c"])
T1_EX = Table.from_strings(["0000", "cab0", "ab0c"])


def test_profile_single_row():
    t = Table.from_strings(["abc"])
    counts = t.counts()
    assert counts[0][1] == 1 and counts[1][2] == 1 and counts[2][3] == 1
    assert sum(map(sum, counts)) == 3


def test_profile_linearity():
    t1 = Table.from_strings(["abc"])
    t2 = Table.from_strings(["abc", "abc"])
    assert [2 * c for c in t1.profile()] == list(t2.profile())


def test_profile_two_rows():
    t = Table.from_strings(["abc", "0aa"])
    c = t.counts()
    assert c[0][1] == 1 and c[0][0] == 1
    assert c[1][2] == 1 and c[1][1] == 1
    assert c[2][3] == 1 and c[2][1] == 1


def test_rows_must_be_flows():
    with pytest.raises(ValueError):
        Table.from_strings(["ab0"])


def test_compatible_intro_example():
    assert compatible(T0_EX, T1_EX)
    assert compatible(T0_EX, T0_EX)
    assert not compatible(Table.from_strings(["aa0"]),
                          Table.from_strings(["bb0"]))


def test_compatible_needs_equal_shape():
    assert not compatible(Table.from_strings(["aa0"]),
                          Table.from_strings(["aa0", "000"]))


def test_hamming_examples():
    a = groups.parse_flow("0000")
    b = groups.parse_flow("aabb")
    k, dis, agree = hamming(a, b, 4)
    assert k == 4 and dis == (1, 1, 2, 2) and agree == ()
    assert hamming(a, a, 4)[0] == 0
    k, dis, _ = hamming(groups.parse_flow("000"), groups.parse_flow("abc"), 3)
    assert k == 3 and dis == (1, 2, 3)


def test_hamming_is_a_metric_exhaustive_n4():
    flows = groups.enumerate_flows(4)
    v = len(flows)
    d = np.zeros((v, v), dtype=np.uint8)
    for i, a in enumerate(flows):
        for j, b in enumerate(flows):
            d[i, j] = hamming_distance(a, b, 4)
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    # triangle inequality over all triples
    assert (d[:, None, :] <= d[:, :, None] + d[None, :, :]).all()


def test_hamming_distance_matches_column_loop_past_64_bits():
    # a mask of fixed width drops the columns beyond it
    def column_loop(r0, r1, n):
        return sum(1 for i in range(n) if groups.entry(r0 ^ r1, i, n))

    rng = random.Random(70)
    for n in (5, 33, 70):
        for _ in range(300):
            r0, r1 = random_flow(n, rng), random_flow(n, rng)
            assert hamming_distance(r0, r1, n) == column_loop(r0, r1, n)
        top = 3 << (2 * n - 2)  # the first column only
        assert hamming_distance(top, 0, n) == 1


def test_hamming_metric_sampled_n5():
    flows = groups.enumerate_flows(5)
    rng = random.Random(5)
    for _ in range(20000):
        a, b, c = (rng.choice(flows) for _ in range(3))
        assert hamming_distance(a, b, 5) <= (
            hamming_distance(a, c, 5) + hamming_distance(c, b, 5))


def test_no_distance_one_pairs_exhaustive_small():
    for n in (3, 4):
        flows = groups.enumerate_flows(n)
        for a, b in itertools.combinations(flows, 2):
            assert hamming_distance(a, b, n) != 1


def test_psi_injectivity_up_to_n8():
    for n in range(2, 9):
        flows = groups.enumerate_flows(n)
        profiles = {Table.make([v], n, check=False).profile() for v in flows}
        assert len(profiles) == len(flows)


def test_min_hamming_pair_examples():
    r0, r1, k = min_hamming_pair(T0_EX, T1_EX)
    assert k == 2
    assert hamming_distance(r0, r1, 4) == 2
    # identical tables give distance 0
    assert min_hamming_pair(T0_EX, T0_EX)[2] == 0
    # tables sharing one row give distance 0
    a = Table.from_strings(["aa00", "bb00"])
    b = Table.from_strings(["aa00", "b0b0"])
    with pytest.raises(ValueError):
        min_hamming_pair(a, b)  # not compatible
    c = Table.from_strings(["aa00", "abc0", "0bb0"])
    d = Table.from_strings(["aa00", "a0cb", "0bb0"])
    if compatible(c, d):
        assert min_hamming_pair(c, d)[2] == 0


def test_counting_functional_parse_and_eval():
    f = CountingFunctional.parse("0_1234 - a_1234")
    t = Table.from_strings(["aaaa"])
    assert f.eval(t) == -4
    zero = CountingFunctional({})
    assert zero.eval(t) == 0
    g = CountingFunctional.parse("a_12 - 2*0_3")
    assert g.weights[(0, 1)] == 1 and g.weights[(2, 0)] == -2


def test_counting_functional_agrees_on_compatible():
    rng = random.Random(1)
    f = CountingFunctional.parse("0_123 + b_234 - a_12 - 2*c_4")
    assert f.eval(T0_EX) == f.eval(T1_EX)
    for _ in range(50):
        weights = {(c, g): rng.randint(-2, 2)
                   for c in range(4) for g in range(4)}
        fn = CountingFunctional(weights)
        assert fn.eval(T0_EX) == fn.eval(T1_EX)


def test_monomial_eval():
    ones = {(i, g): Fraction(1) for i in range(4) for g in range(4)}
    assert monomial_eval(T0_EX, ones) == 1
    twos = {(i, g): Fraction(2) for i in range(3) for g in range(4)}
    single = Table.from_strings(["abc"])
    assert monomial_eval(single, twos) == 8
    with pytest.raises(KeyError):
        monomial_eval(single, {(0, 1): Fraction(1)})


def test_monomial_eval_separates_profiles():
    rng = random.Random(7)
    t0 = Table.from_strings(["aa00", "0bb0"])
    t1 = Table.from_strings(["ab0c", "ba0c"])
    assert not compatible(t0, t1)
    distinguished = False
    for _ in range(50):
        params = {(i, g): Fraction(rng.randint(1, 13))
                  for i in range(4) for g in range(4)}
        if monomial_eval(t0, params) != monomial_eval(t1, params):
            distinguished = True
        assert monomial_eval(T0_EX, params) == monomial_eval(T1_EX, params)
    assert distinguished


def test_pair_json_round_trip(tmp_path):
    obj = pair_to_json(T0_EX, T1_EX)
    a, b = pair_from_json(obj)
    assert a == T0_EX and b == T1_EX
    prof = profile_to_json(T0_EX)
    assert prof[0]["col"] == 1
    assert sum(prof[0]["counts"].values()) == T0_EX.degree
