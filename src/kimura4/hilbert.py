"""Ehrhart/Hilbert computations for the model polytopes.

The polytope of the n-leaf model has the flows as vertices (under the
column-indicator embedding); it is normal, so the lattice-point count of
the k-th dilation equals the number of distinct degree-k table profiles and
coincides with the Hilbert function.  Dilation values are counted as the
sums of the fiber orbit sizes under the face's symmetries
(`markov.orbit_layers`), never from facet geometry.  All series and
fitting arithmetic is exact (big integers and Fractions): the numerator
coefficients run to ~1e13 and convolutions overflow 64 bits.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from . import groups, markov
from .groups import FaceSpec


# ---------------------------------------------------------------------------
# dilation counts
# ---------------------------------------------------------------------------

def hilbert_values(n: int, face: Optional[FaceSpec], kmax: int,
                   *, layer_s: Optional[list[float]] = None,
                   orbits: Optional[list[int]] = None) -> list[int]:
    """H(0..kmax): number of distinct degree-k table profiles.

    Valid as the Ehrhart/Hilbert function because the polytope is normal.
    The distinct profiles are the fibers, so H(k) is the sum of the sizes
    of the degree-k fiber orbits of `markov.orbit_layers`.  Appends
    per-dilation seconds to layer_s and orbit counts to orbits.  Raises
    `moves.SizeLimitExceeded` where a dilation's candidates pass the orbit
    route's size limit, before that dilation is built.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    values = [1]
    layers = markov.orbit_layers(groups.flows_array(n, face), n)
    for k in range(1, kmax + 1):
        t0 = time.perf_counter()
        orb = next(layers)
        values.append(int(orb.sizes.sum()))
        if layer_s is not None:
            layer_s.append(time.perf_counter() - t0)
        if orbits is not None:
            orbits.append(len(orb.sizes))
    return values


def polytope_dimension(n: int, face: Optional[FaceSpec] = None) -> int:
    """Affine rank of the vertex set under the column-indicator embedding.

    With A the vertices less the first, this is the rank of the integer
    Gram matrix A^T A by exact fraction-free (Bareiss) elimination.  A^T A
    is positive semidefinite: a zero left on its diagonal is a zero row.
    A column's four indicators sum to 1 on every vertex, so to 0 on every
    row of A; A keeps only the indicators of a, b and c, and the Gram
    matrix is 3n x 3n with the same rank.
    """
    syms = groups.column_symbols(groups.flows_array(n, face), n)
    pts = np.eye(4, dtype=np.int64)[syms][:, :, 1:].reshape(len(syms), 3 * n)
    pts -= pts[0]
    gram = np.einsum("vi,vj->ij", pts, pts).tolist()
    rank, last = 0, 1
    for p, top in enumerate(gram):
        if top[p]:
            for r in range(p + 1, len(gram)):
                gram[r] = [(top[p] * x - gram[r][p] * y) // last
                           for x, y in zip(gram[r], top)]
            rank, last = rank + 1, top[p]
    return rank


# ---------------------------------------------------------------------------
# exact series arithmetic
# ---------------------------------------------------------------------------

def expand_series(numerator: Sequence[int], denom_exp: int, kmax: int) -> list[int]:
    """Power-series coefficients of numerator(t) / (1-t)**denom_exp up to t^kmax."""
    e = denom_exp
    return [sum(c * math.comb(k - i + e - 1, e - 1)
                for i, c in enumerate(numerator[:k + 1]))
            for k in range(kmax + 1)]


def h_numerator(values: Sequence[int], dim: int) -> list[int]:
    """Numerator h with sum H(j) t^j = h(t) / (1-t)**(dim+1).

    Convolves the values with the alternating binomials of (1-t)^(dim+1).
    h has degree at most dim, so H(0..dim) determine it; with fewer values
    ValueError is raised, and so it is when a coefficient past dim does not
    vanish.  Zeros inside h are kept: only trailing ones are dropped.
    """
    if len(values) <= dim:
        raise ValueError(f"h-numerator needs H(0..{dim})")
    e = dim + 1
    coeffs = [sum((-1) ** j * math.comb(e, j) * values[k - j]
                  for j in range(min(k, e) + 1)) for k in range(len(values))]
    if any(coeffs[e:]):
        raise ValueError(f"values are not h(t)/(1-t)^{e} with deg h <= {dim}")
    del coeffs[e:]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fit_ehrhart(values: Sequence[int], dim: int) -> list[Fraction]:
    """Monomial coefficients (ascending) of the degree-<=dim polynomial
    through H(0..), verified against every provided value exactly.

    The Newton forward differences N_j of H(0..dim) are integers, and
    C(t, j) = sum_p s(j, p) t^p / j! with s the signed Stirling numbers of
    the first kind.  Over the common denominator dim! the p-th coefficient
    is therefore the integer sum_j N_j s(j, p) dim!/j!, and every value is
    checked by integer Horner on those numerators.
    """
    if len(values) < dim + 1:
        raise ValueError(f"need at least {dim + 1} values to fit degree {dim}")
    diffs = [operator.index(v) for v in values[:dim + 1]]
    newton = [diffs[0]]
    for _ in range(dim):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        newton.append(diffs[0])
    denom = math.factorial(dim)
    nums = [0] * (dim + 1)
    stirling = [1]  # s(j, 0..j), from s(0, 0) = 1
    for j, nj in enumerate(newton):
        scale = nj * (denom // math.factorial(j))
        for p, s in enumerate(stirling):
            nums[p] += scale * s
        # s(j+1, p) = s(j, p-1) - j s(j, p)
        stirling = [(stirling[p - 1] if p else 0)
                    - (j * stirling[p] if p <= j else 0) for p in range(j + 2)]
    for k, v in enumerate(values):
        acc = 0
        for c in reversed(nums):
            acc = acc * k + c
        if acc != operator.index(v) * denom:
            raise ValueError(
                f"values are not polynomial of degree {dim}: mismatch at k={k}")
    return [Fraction(c, denom) for c in nums]


def eval_poly(coeffs: Sequence[Fraction], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass
class HilbertRecord:
    n_leaves: int
    face: str
    dim: int
    values: list[int]
    h_coeffs: list[int] = field(default_factory=list)
    ehrhart: list[str] = field(default_factory=list)
    layer_s: list[float] = field(default_factory=list)
    orbits: list[int] = field(default_factory=list)  # per dilation 1..kmax

    @property
    def h_degree(self) -> int:
        return len(self.h_coeffs) - 1

    @property
    def a_invariant(self) -> int:
        return self.h_degree - self.dim - 1

    @property
    def regularity_bound(self) -> int:
        """Generators of the ideal live in degree at most 1 + deg h."""
        return 1 + self.h_degree

    def to_json(self) -> dict:
        obj = asdict(self)
        orbits = obj.pop("orbits")
        return {**obj, "h_degree": self.h_degree,
                "a_invariant": self.a_invariant,
                "regularity_bound": self.regularity_bound,
                "orbits": orbits}


def build_record(n: int, face: Optional[FaceSpec], kmax: int) -> HilbertRecord:
    dim = polytope_dimension(n, face)
    layer_s: list[float] = []
    orbits: list[int] = []
    values = hilbert_values(n, face, kmax, layer_s=layer_s, orbits=orbits)
    rec = HilbertRecord(n, str(face or ""), dim, values, layer_s=layer_s,
                        orbits=orbits)
    if kmax >= dim:
        rec.h_coeffs = h_numerator(values, dim)
        rec.ehrhart = [str(c) for c in fit_ehrhart(values, dim)]
    return rec


def regularity_bound(rec: HilbertRecord) -> int:
    if not rec.h_coeffs:
        raise ValueError("record has no fitted h-numerator")
    a = rec.a_invariant
    if a >= 0:
        raise ValueError(f"a-invariant {a} is not negative; data inconsistent")
    return rec.regularity_bound


# ---------------------------------------------------------------------------
# bundled series data
# ---------------------------------------------------------------------------

def load_series_data() -> dict:
    with resources.files("kimura4.data").joinpath("hilbert_series.json").open() as fh:
        return json.load(fh)


def bundled_series(name: str) -> tuple[list[int], int, int]:
    """(numerator ascending, denominator exponent, dim) for a bundled series."""
    data = load_series_data()["series"]
    if name not in data:
        raise KeyError(f"unknown series {name!r}; have {sorted(data)}")
    s = data[name]
    return list(s["numerator"]), int(s["denom_exp"]), int(s["dim"])


def bundled_hilbert_polynomial() -> list[Fraction]:
    """The n=6 Hilbert polynomial, ascending monomial coefficients."""
    data = load_series_data()["n6_full_hilbert_polynomial"]
    den = data["denominator"]
    desc = [Fraction(num, den) for num in data["numerators_desc"]]
    return [Fraction(data["constant_term"])] + list(reversed(desc))
