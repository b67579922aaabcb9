"""The benchmark's own checks must reject wrong outputs.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import refs  # noqa: E402

# H(0..10) of the n=3 model; H(0..5) are checked against brute force below
N3_VALUES = [1, 16, 136, 800, 3611, 13328, 42048, 117072, 294525, 681472,
             1470040]


def step(side, remove, insert):
    return {"side": side, "remove": remove, "insert": insert}


def test_trace_checker_accepts_a_legal_trace():
    t0 = ["aa00", "0bb0", "c00c"]
    t1 = ["0000", "cab0", "ab0c"]
    assert refs.check_trace(t0, t1, [step("T0", t0, t1)]) == []


def test_trace_checker_rejects_cancelling_incompatible_moves():
    # the same incompatible exchange on both sides leaves the tables equal
    t = ["000", "abc"]
    bad = step("T0", t, ["0bb", "cc0"])
    assert refs.check_trace(t, t, [bad, dict(bad, side="T1")])


def test_trace_checker_rejects_absent_rows_high_degree_and_non_flows():
    t0 = ["aa00", "0bb0", "c00c"]
    t1 = ["0000", "cab0", "ab0c"]
    assert refs.check_trace(t0, t1, [step("T0", ["0000", "0bb0", "c00c"], t1)])
    assert refs.check_trace(t0, t1, [step("T0", t0, t1)], max_degree=2)
    assert refs.check_trace(["aa0", "000"], ["aa0", "000"],
                            [step("T0", ["aa0"], ["ab0"])])
    assert refs.check_trace(t0, t1, [])


def test_census_checker_rejects_counts_off_by_one():
    expected = refs.census_references(6, "P2", 2)
    assert expected[2] == {"generators": 36840, "fibers": 73920 - 36840,
                           "multisets": 73920}
    good = {"complete": True,
            "degrees": [{"degree": d, **want} for d, want in expected.items()]}
    assert refs.check_census(good, expected) == []
    for key in ("generators", "fibers", "multisets"):
        bad = {"complete": True,
               "degrees": [dict(r, **{key: r[key] + 1}) for r in good["degrees"]]}
        assert refs.check_census(bad, expected), key
    assert refs.check_census(dict(good, complete=False), expected)


def test_spill_checker_rejects_a_census_that_wrote_nothing():
    assert refs.check_spilled({"write_bytes": 0})
    assert refs.check_spilled({"write_bytes": 41_000_000}) == []
    assert refs.check_spilled({"write_bytes": None}) == []


def test_flow_counts():
    assert len(refs.flows(5)) == 256
    assert len(refs.flows(6, "P2")) == 384
    assert len(refs.flows(6, "P2t")) == 512


def test_series_expansion_gives_the_p2t_values():
    assert refs.series_values(HERE.parent, "P2t", 3) == [1, 512, 62928, 2724864]


def test_hilbert_checker_rejects_values_off_by_one():
    expected = {"dim": 16, "values": refs.series_values(HERE.parent, "P2t", 3)}
    good = {"dim": 16, "values": list(expected["values"])}
    assert refs.check_hilbert(good, expected) == []
    bad = dict(good, values=[1, 512, 62929, 2724864])
    assert refs.check_hilbert(bad, expected)


def test_hilbert_checker_n3_brute_force_and_h_vector():
    assert refs.dimension(3, None) == 9
    prefix = refs.brute_force_values(3, None, 5)
    assert prefix == N3_VALUES[:6]
    assert refs.h_vector(N3_VALUES, 9) == [1, 6, 21, 40, 21, 6, 1, 0, 0, 0, 0]
    expected = {"dim": 9, "prefix": prefix, "h_zero_from": 7}
    good = {"dim": 9, "values": N3_VALUES, "h_coeffs": [1, 6, 21, 40, 21, 6, 1]}
    assert refs.check_hilbert(good, expected) == []
    for k in (3, 8):  # caught by brute force, and by the h-vector
        values = list(N3_VALUES)
        values[k] += 1
        assert refs.check_hilbert(dict(good, values=values), expected), k


def test_sampled_pairs_are_compatible_and_need_work():
    rng = random.Random(7)
    for n, d in ((7, 5), (7, 10), (9, 7)):
        t0, t1 = inputs.sample_pair(n, d, rng)
        assert len(t0) == len(t1) == d
        assert inputs.column_counts(t0) == inputs.column_counts(t1)
        assert inputs.stripped_size(t0, t1) >= inputs.MIN_STRIPPED
        assert all(refs._is_flow(r, n) for r in t0 + t1)


def test_pair_sets_do_not_depend_on_the_process():
    assert inputs.reduce_pairs() == inputs.reduce_pairs()
    assert len(inputs.reduce_pairs()) >= 200
    assert len(inputs.probe_pairs()) >= 200
