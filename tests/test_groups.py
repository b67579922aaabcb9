import itertools
import random

import numpy as np
import pytest

from kimura4 import groups
from kimura4.groups import (ALPHA, BETA, GAMMA, ZERO, AUTOMORPHISMS, FaceSpec,
                            SWAP_BC, add, apply_aut, enumerate_flows,
                            parse_flow, format_flow, phi_quotient)


def test_group_axioms_exhaustive():
    els = range(4)
    for a, b, c in itertools.product(els, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
    for a, b in itertools.product(els, repeat=2):
        assert add(a, b) == add(b, a)
    for a in els:
        assert add(a, a) == ZERO
        assert add(a, ZERO) == a


def test_klein_sum_of_distinct_nonzero():
    assert add(ALPHA, BETA) == GAMMA
    assert add(ALPHA, GAMMA) == BETA
    assert add(BETA, GAMMA) == ALPHA
    assert add(ALPHA, ALPHA) == ZERO
    assert add(ZERO, GAMMA) == GAMMA


def test_automorphisms_are_all_homomorphisms():
    assert len(AUTOMORPHISMS) == 6
    assert len(set(AUTOMORPHISMS)) == 6
    for aut in AUTOMORPHISMS:
        for a, b in itertools.product(range(4), repeat=2):
            assert apply_aut(aut, add(a, b)) == add(apply_aut(aut, a),
                                                    apply_aut(aut, b))


def test_swap_bc_matches_named_automorphism():
    assert apply_aut(SWAP_BC, BETA) == GAMMA
    assert apply_aut(SWAP_BC, ZERO) == ZERO
    assert apply_aut(SWAP_BC, ALPHA) == ALPHA


def test_phi_quotient():
    assert phi_quotient(GAMMA, GAMMA) == 0
    assert phi_quotient(ALPHA, GAMMA) == 1
    assert phi_quotient(GAMMA, BETA) == 1
    assert phi_quotient(ZERO, ALPHA) == 0
    with pytest.raises(ValueError):
        phi_quotient(ALPHA, ZERO)
    # kernel of phi_g is exactly {0, g}
    for h in (ALPHA, BETA, GAMMA):
        assert [g for g in range(4) if phi_quotient(g, h) == 0] == sorted([0, h])
        # it is a homomorphism onto Z2
        for a, b in itertools.product(range(4), repeat=2):
            assert phi_quotient(add(a, b), h) == (
                phi_quotient(a, h) ^ phi_quotient(b, h))


def test_flow_string_round_trip():
    v = parse_flow("abc0")
    assert format_flow(v, 4) == "abc0"
    assert groups.unpack(v, 4) == (1, 2, 3, 0)
    assert groups.is_flow(v, 4)
    assert not groups.is_flow(parse_flow("ab00"), 4)


def test_act_flow_examples():
    f = parse_flow("aa0")
    t = parse_flow("abc")
    assert format_flow(groups.act_flow(f, t), 3) == "0cc"
    zero = parse_flow("000")
    assert groups.act_flow(zero, t) == t
    assert groups.act_flow(t, t) == 0


def test_enumerate_flows_counts():
    for n in range(2, 8):
        flows = enumerate_flows(n)
        assert len(flows) == 4 ** (n - 1)
        assert flows == sorted(flows)
        assert len(set(flows)) == len(flows)
        for v in flows[:64]:
            assert groups.is_flow(v, n)


def test_enumerate_flows_is_free_prefix_and_forced_last():
    for n in range(1, 7):
        assert enumerate_flows(n) == [(p << 2) | groups.word_sum(p, n - 1)
                                      for p in range(4 ** (n - 1))]


def test_enumerate_flows_lexicographic_and_complete():
    flows = enumerate_flows(3)
    strings = [format_flow(v, 3) for v in flows]
    assert strings == sorted(strings)
    assert strings[0] == "000"
    # every flow appears exactly once
    brute = sorted(
        "".join(groups.SYMBOLS[g] for g in t)
        for t in itertools.product(range(4), repeat=3)
        if t[0] ^ t[1] ^ t[2] == 0
    )
    assert strings == brute


def _recursive_flows(n, face=None):
    # the column-by-column recursion enumerate_flows used before
    allowed = (face or FaceSpec()).allowed_symbols(n)
    out = []

    def rec(col, acc, s):
        if col == n - 1:
            if s in allowed[col]:
                out.append((acc << 2) | s)
            return
        for g in allowed[col]:
            rec(col + 1, (acc << 2) | g, s ^ g)

    rec(0, 0, 0)
    return out


def test_flows_match_recursive_enumeration():
    rng = random.Random(7)
    faces = [None, *groups.NAMED_FACES.values()]
    faces += [FaceSpec({(rng.randrange(7), rng.randrange(1, 4))
                        for _ in range(rng.randrange(1, 10))})
              for _ in range(40)]
    for n in range(1, 8):
        for face in faces:
            flows = groups.flows_array(n, face)
            assert flows.dtype == np.int64
            assert enumerate_flows(n, face) == flows.tolist() == \
                _recursive_flows(n, face), (n, str(face))


def test_named_face_vertex_counts():
    assert len(enumerate_flows(6, groups.FACE_P1)) == 256
    assert len(enumerate_flows(6, groups.FACE_P2)) == 384
    assert len(enumerate_flows(6, groups.FACE_P3)) == 432
    assert len(enumerate_flows(6, groups.FACE_CODIM2_A)) == 512
    assert len(enumerate_flows(6, groups.FACE_CODIM2_B)) == 576


def test_face_spec_parse_round_trip():
    face = FaceSpec.parse("5:c,6:c")
    assert face == groups.FACE_CODIM2_B
    assert FaceSpec.parse(str(face)) == face
    assert FaceSpec.parse("").forbidden == frozenset()
    with pytest.raises(ValueError):
        FaceSpec([(0, 0)])


def test_act_flow_is_bijection_on_flows():
    flows = enumerate_flows(4)
    f = parse_flow("ab0c")
    image = sorted(groups.act_flow(f, t) for t in flows)
    assert image == flows


def test_no_hamming_distance_one_structural():
    # flipping any single entry of a flow breaks the zero-sum condition
    for n in range(2, 9):
        for v in enumerate_flows(n)[:256]:
            for i in range(n):
                g = groups.entry(v, i, n)
                for other in range(4):
                    if other != g:
                        w = groups.set_entry(v, i, n, other)
                        assert not groups.is_flow(w, n)
