import math
import random
from fractions import Fraction

import numpy as np
import pytest

from kimura4 import groups, hilbert, moves
from kimura4.hilbert import (bundled_hilbert_polynomial, bundled_series,
                             build_record, eval_poly, expand_series,
                             fit_ehrhart, h_numerator, hilbert_values,
                             polytope_dimension, regularity_bound)


def test_expand_series_geometric():
    assert expand_series([1], 1, 5) == [1] * 6
    # 1/(1-t)^2 = 1 + 2t + 3t^2 + ...
    assert expand_series([1], 2, 4) == [1, 2, 3, 4, 5]


def test_paper_series_t1_coefficients_match_vertex_counts():
    num, e, _ = bundled_series("n6_full")
    assert expand_series(num, e, 1)[1] == 1024 == 1005 + 19
    num, e, _ = bundled_series("n6_tilde")
    assert expand_series(num, e, 1)[1] == 512 == 495 + 17
    num, e, _ = bundled_series("n6_tilde_prime")
    assert expand_series(num, e, 1)[1] == 576 == 559 + 17


def test_h_numerator_round_trips_all_bundled():
    for name in ("n6_full", "n6_tilde", "n6_tilde_prime"):
        num, e, dim = bundled_series(name)
        values = expand_series(num, e, len(num) + 4)
        assert h_numerator(values, dim) == num


def test_h_numerator_point_polytope():
    assert h_numerator([1] * 6, 0) == [1]


def test_h_numerator_needs_termination():
    # fewer than dim + 1 values must raise, even where h's degree is lower
    num, e, dim = bundled_series("n6_full")
    with pytest.raises(ValueError, match="needs H"):
        h_numerator(expand_series(num, e, 10), dim)
    with pytest.raises(ValueError, match="needs H"):
        h_numerator(expand_series(num, e, dim - 1), dim)
    assert h_numerator(expand_series(num, e, dim), dim) == num


def test_h_numerator_keeps_internal_zeros():
    # a Reeve-tetrahedron-like h = 1 + 2t^2: one zero after t^0 must not
    # end it
    values = expand_series([1, 0, 2], 4, 6)
    assert h_numerator(values, 3) == [1, 0, 2]
    assert h_numerator(values[:4], 3) == [1, 0, 2]


def test_h_numerator_rejects_coefficients_past_dim():
    values = expand_series([1, 0, 2], 2, 6)  # degree 2 over (1-t)^2
    with pytest.raises(ValueError, match="deg h <= 1"):
        h_numerator(values, 1)


def test_regularity_bounds_from_paper_series():
    num, e, dim = bundled_series("n6_full")
    values = expand_series(num, e, len(num) + 3)
    rec = hilbert.HilbertRecord(6, "", dim, values,
                                h_coeffs=h_numerator(values, dim))
    assert rec.h_degree == 15
    assert regularity_bound(rec) == 16
    assert rec.a_invariant == 15 - 18 - 1 == -4
    for name in ("n6_tilde", "n6_tilde_prime"):
        num, e, dim = bundled_series(name)
        values = expand_series(num, e, len(num) + 3)
        rec = hilbert.HilbertRecord(6, name, dim, values,
                                    h_coeffs=h_numerator(values, dim))
        assert regularity_bound(rec) == 14
        assert rec.a_invariant < 0


def test_fit_ehrhart_constant():
    assert fit_ehrhart([1, 1, 1], 0) == [Fraction(1)]


def test_fit_ehrhart_rejects_non_polynomial():
    with pytest.raises(ValueError):
        fit_ehrhart([1, 2, 4, 8, 16], 2)


def _fraction_fit(values, dim):
    # the fit in Fractions: Newton differences expanded through the
    # binomial basis C(t, j+1) = C(t, j) (t - j) / (j + 1)
    diffs = [Fraction(v) for v in values[:dim + 1]]
    newton = [diffs[0]]
    for _ in range(dim):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        newton.append(diffs[0])
    coeffs = [Fraction(0)] * (dim + 1)
    basis = [Fraction(1)]
    for j in range(dim + 1):
        for p, c in enumerate(basis):
            coeffs[p] += newton[j] * c
        nxt = [Fraction(0)] * (len(basis) + 1)
        for p, c in enumerate(basis):
            nxt[p + 1] += c / (j + 1)
            nxt[p] -= c * j / (j + 1)
        basis = nxt
    return coeffs


def test_integer_fit_matches_fraction_fit():
    rng = np.random.default_rng(18)
    for _ in range(200):
        dim = int(rng.integers(0, 16))
        newton = [int(v) for v in rng.integers(-10**6, 10**12, dim + 1)]
        values = [sum(c * math.comb(k, j) for j, c in enumerate(newton))
                  for k in range(dim + 1 + int(rng.integers(0, 4)))]
        assert fit_ehrhart(values, dim) == _fraction_fit(values, dim)
    num, e, dim = bundled_series("n6_full")
    values = expand_series(num, e, 21)
    assert fit_ehrhart(values, dim) == _fraction_fit(values, dim)
    rec = build_record(3, None, 10)
    assert rec.ehrhart == [str(c) for c in _fraction_fit(rec.values, rec.dim)]
    with pytest.raises(ValueError):
        fit_ehrhart(values[:-1] + [values[-1] + 1], dim)


def test_fit_matches_paper_hilbert_polynomial():
    num, e, dim = bundled_series("n6_full")
    values = expand_series(num, e, 21)
    poly = fit_ehrhart(values, dim)
    assert poly == bundled_hilbert_polynomial()
    assert poly[-1] == Fraction(22261501, 4168212048000)


def test_hilbert_values_small():
    assert hilbert_values(3, None, 0) == [1]
    vals = hilbert_values(3, None, 2)
    assert vals == [1, 16, 136]  # no degree-2 relations at n=3
    assert hilbert_values(6, None, 1)[1] == 1024


def test_enumerated_h2_matches_series_n6():
    num, e, _ = bundled_series("n6_full")
    assert hilbert_values(6, None, 2)[2] == expand_series(num, e, 2)[2]


def test_polytope_dimensions():
    assert polytope_dimension(3) == 9
    assert polytope_dimension(4) == 12
    assert polytope_dimension(6, groups.FACE_P1) == 15
    assert polytope_dimension(6, groups.FACE_CODIM2_A) == 16
    # the exact Gram rank against a floating-point rank of the vertices
    # under all four indicators of each column
    rng = random.Random(5)
    random_faces = [(n, groups.FaceSpec(
        {(rng.randrange(n), rng.randrange(1, 4))
         for _ in range(rng.randrange(1, 2 * n))})) for n in (3, 4, 5, 6, 7)
        for _ in range(4)]
    for n, face in [*[(n, None) for n in range(2, 8)],
                    (6, groups.FaceSpec.parse("1:a")),
                    *[(6, f) for f in groups.NAMED_FACES.values()],
                    *random_faces]:
        syms = groups.column_symbols(groups.flows_array(n, face), n)
        pts = np.eye(4)[syms].reshape(len(syms), 4 * n)
        assert polytope_dimension(n, face) == np.linalg.matrix_rank(
            pts - pts[0]), (n, str(face))


N4_H = [1, 51, 966, 7498, 22164, 26244, 12050, 1758, 51, 1]


def test_n4_h_numerator_pinned():
    # h of the n=4 claw tree (dim 12) from H(0..12); its degree gives the
    # generator bound 1 + deg h = 10
    assert polytope_dimension(4) == 12
    values = expand_series(N4_H, 13, 12)
    assert values[11:] == [2944571968, 7249257041]
    assert h_numerator(values, 12) == N4_H
    rec = hilbert.HilbertRecord(4, "", 12, values, h_coeffs=N4_H)
    assert regularity_bound(rec) == 10
    assert hilbert_values(4, None, 8) == values[:9]


def test_n3_record_full():
    rec = build_record(3, None, 12)
    assert rec.dim == 9
    assert rec.values[1] == 16
    assert rec.h_coeffs[0] == 1
    assert all(c >= 0 for c in rec.h_coeffs)
    assert rec.a_invariant < 0
    assert rec.regularity_bound == 1 + rec.h_degree
    # leading coefficient times dim! is the normalized volume, an integer
    poly = [Fraction(c) for c in map(Fraction, rec.ehrhart)]
    vol = poly[-1] * math.factorial(9)
    assert vol.denominator == 1 and vol > 0
    assert vol == sum(rec.h_coeffs)
    # Ehrhart reciprocity zero pattern: vanishes at -1 .. a_invariant + 1
    for x in range(-1, rec.a_invariant, -1):
        assert eval_poly(poly, x) == 0
    assert eval_poly(poly, rec.a_invariant) != 0


def test_face_records_h1_and_dimension():
    for face, verts in ((groups.FACE_P1, 256), (groups.FACE_P2, 384),
                        (groups.FACE_P3, 432)):
        vals = hilbert_values(6, face, 1)
        assert vals[1] == verts


def test_dilation_budget_boundary_mid_layer(monkeypatch):
    # n=3 dilation 5 has 23 degree-4 orbits x 16 flows x 3 columns = 1104
    # candidate cells; the limit bounds them, not H(k)
    monkeypatch.setattr(moves, "MAX_CELLS", 1104)
    assert hilbert_values(3, None, 5)[-1] == 13328
    # one cell less refuses dilation 5 before building it
    monkeypatch.setattr(moves, "MAX_CELLS", 1103)
    layer_s = []
    with pytest.raises(moves.SizeLimitExceeded,
                       match="^degree 5: candidates: 1104 cells, more than "
                             "1103$"):
        hilbert_values(3, None, 5, layer_s=layer_s)
    assert len(layer_s) == 4


def test_profile_key_width_boundary():
    # no profile key is built: a one-flow n=13 face, whose keys would need
    # 13 * 14 bits at dilation 20, has one profile per dilation
    face = groups.FaceSpec((c, g) for c in range(13) for g in (1, 2, 3))
    assert hilbert_values(13, face, 20) == [1] * 21


def test_record_orbit_counts():
    rec = build_record(3, None, 4)
    assert rec.orbits == [1, 3, 8, 23]
    obj = rec.to_json()
    assert list(obj)[-1] == "orbits" and obj["orbits"] == [1, 3, 8, 23]
