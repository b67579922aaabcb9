"""Independent references and output checks.

Nothing here imports the program.  Flows are strings over "0abc" (a, b, c
are 1, 2, 3 in Z2 x Z2, the group sum is XOR); faces are our own copies of
the published face definitions.  Every check returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

SYMBOLS = "0abc"

# Forbidden (0-based column, symbol) pairs of the n=6 faces used here.
FACES = {
    "P2": {(4, 3), (5, 2), (5, 3)},
    "P2t": {(5, 2), (5, 3)},
}

# Minimal generator counts published for the Kimura 3-parameter claw trees.
PUBLISHED_GENERATORS = {
    (5, None): {2: 12960, 3: 2560, 4: 6720},
    (6, "P2"): {2: 36840, 3: 2304},
}

# The bundled series of each face whose Hilbert values are checked.
FACE_SERIES = {"P2t": "n6_tilde"}


def flows(n: int, face: str | None = None) -> list[tuple[int, ...]]:
    """Every length-n word over Z2 x Z2 that sums to zero, on the face."""
    banned = FACES[face] if face else set()
    out = []
    for word in itertools.product(range(4), repeat=n):
        s = 0
        for g in word:
            s ^= g
        if s == 0 and not any((i, g) in banned for i, g in enumerate(word)):
            out.append(word)
    return out


def vertex_keys(words: list[tuple[int, ...]], base: int) -> np.ndarray:
    """Each flow's column profile as a base-`base` number: one digit per
    (column, nonzero symbol), counting that symbol in that column."""
    n = len(words[0])
    if base ** (3 * n) >= 2 ** 63:
        raise ValueError("profile does not fit 63 bits")
    keys = []
    for word in words:
        key = 0
        for i, g in enumerate(word):
            if g:
                key += base ** (3 * i + g - 1)
        keys.append(key)
    return np.array(keys, dtype=np.int64)


def distinct_profiles(n: int, face: str | None, degree: int) -> int:
    """Number of distinct column profiles of degree-d tables, i.e. fibers,
    by iterated sumset of the vertex profiles."""
    keys = vertex_keys(flows(n, face), degree + 1)
    layer = np.zeros(1, dtype=np.int64)
    for _ in range(degree):
        layer = np.unique((layer[:, None] + keys[None, :]).ravel())
    return int(layer.size)


def census_references(n: int, face: str | None, max_degree: int) -> dict:
    """Expected generators, fibers and multisets per degree."""
    v = len(flows(n, face))
    published = PUBLISHED_GENERATORS[(n, face)]
    return {
        d: {"generators": published[d],
            "fibers": distinct_profiles(n, face, d),
            "multisets": math.comb(v + d - 1, d)}
        for d in range(2, max_degree + 1)
    }


def check_census(report: dict, expected: dict) -> list[str]:
    """A census report (in-memory or spilled) against the references."""
    problems = []
    if not report.get("complete"):
        problems.append(f"census incomplete: {report.get('note')}")
    rows = {r["degree"]: r for r in report.get("degrees", [])}
    if sorted(rows) != sorted(expected):
        problems.append(f"degrees {sorted(rows)} != {sorted(expected)}")
    for d, want in expected.items():
        got = rows.get(d, {})
        for key, val in want.items():
            if got.get(key) != val:
                problems.append(f"degree {d}: {key} {got.get(key)} != {val}")
    return problems


def check_spilled(report: dict) -> list[str]:
    """A spill census must have gone through the shards: the in-memory
    path writes nothing.  Not checkable where /proc/self/io is not there
    (write_bytes None)."""
    if report.get("write_bytes") == 0:
        return ["census wrote no shard: the in-memory path ran"]
    return []


def check_connectivity(result: dict, max_table_degree: int) -> list[str]:
    problems = []
    if result.get("connected") is not True or "witness" in result:
        problems.append(f"a fiber is reported disconnected: {result.get('witness')}")
    if result.get("checked_degrees") != list(range(2, max_table_degree + 1)):
        problems.append(f"checked degrees {result.get('checked_degrees')}")
    return problems


# ---------------------------------------------------------------------------
# Hilbert values
# ---------------------------------------------------------------------------

def series_path(root: Path) -> Path:
    return root / "src" / "kimura4" / "data" / "hilbert_series.json"


def expand(numerator: list[int], denom_exp: int, kmax: int) -> list[int]:
    """Coefficients of numerator(t) / (1 - t)^e: the coefficient of t^k in
    1 / (1 - t)^e is C(k + e - 1, e - 1)."""
    return [sum(c * math.comb(k - i + denom_exp - 1, denom_exp - 1)
                for i, c in enumerate(numerator[:k + 1]))
            for k in range(kmax + 1)]


def series_values(root: Path, face: str, kmax: int) -> list[int]:
    series = json.loads(series_path(root).read_text())["series"][FACE_SERIES[face]]
    return expand(series["numerator"], series["denom_exp"], kmax)


def brute_force_values(n: int, face: str | None, kmax: int) -> list[int]:
    """Distinct profiles of every degree-k multiset of flows, k <= kmax."""
    words = flows(n, face)
    out = []
    for k in range(kmax + 1):
        profiles = set()
        for rows in itertools.combinations_with_replacement(words, k):
            profiles.add(tuple(sorted(Counter(
                (i, g) for row in rows for i, g in enumerate(row) if g).items())))
        out.append(len(profiles))
    return out


def dimension(n: int, face: str | None) -> int:
    """Affine dimension of the polytope with the flows' indicator vectors
    (one 0/1 entry per column and symbol) as vertices."""
    pts = np.array([[1.0 if row[i] == g else 0.0
                     for i in range(n) for g in range(4)]
                    for row in flows(n, face)])
    return int(np.linalg.matrix_rank(pts - pts[0]))


def h_vector(values: list[int], dim: int) -> list[int]:
    """values(t) * (1 - t)^(dim + 1), truncated to len(values) terms."""
    e = dim + 1
    return [sum((-1) ** j * math.comb(e, j) * values[k - j]
                for j in range(min(k, e) + 1))
            for k in range(len(values))]


def check_hilbert(record: dict, expected: dict) -> list[str]:
    """A Hilbert record against `expected`: "dim", optionally "values"
    (full list), "prefix" (leading values), "h_zero_from" (h vanishes from
    that power on)."""
    problems = []
    values = record.get("values", [])
    if record.get("dim") != expected["dim"]:
        problems.append(f"dim {record.get('dim')} != {expected['dim']}")
    if "values" in expected and values != expected["values"]:
        problems.append(f"values {values} != {expected['values']}")
    prefix = expected.get("prefix", [])
    if values[:len(prefix)] != prefix:
        problems.append(f"values {values[:len(prefix)]} != brute force {prefix}")
    if "h_zero_from" in expected:
        z = expected["h_zero_from"]
        h = h_vector(values, expected["dim"])
        if len(values) <= z or any(h[z:]):
            problems.append(f"h-vector {h} does not vanish from t^{z}")
        elif record.get("h_coeffs") != h[:z]:
            problems.append(f"h_coeffs {record.get('h_coeffs')} != {h[:z]}")
    if record.get("ehrhart"):
        poly = [Fraction(c) for c in record["ehrhart"]]
        for k, v in enumerate(values):
            if sum(c * k ** p for p, c in enumerate(poly)) != v:
                problems.append(f"Ehrhart polynomial misses H({k}) = {v}")
                break
    return problems


# ---------------------------------------------------------------------------
# reduction traces
# ---------------------------------------------------------------------------

def _is_flow(row: str, n: int) -> bool:
    if len(row) != n or any(ch not in SYMBOLS for ch in row):
        return False
    s = 0
    for ch in row:
        s ^= SYMBOLS.index(ch)
    return s == 0


def _profile(rows: list[str]) -> Counter:
    return Counter((i, ch) for row in rows for i, ch in enumerate(row))


def check_trace(t0: list[str], t1: list[str], steps: list[dict],
                max_degree: int = 4) -> list[str]:
    """Replay a trace move by move.  Every move must remove rows present on
    its side, insert flows, keep the column profile and have degree at most
    max_degree; the two tables must end equal."""
    n = len(t0[0])
    sides = [Counter(t0), Counter(t1)]
    for i, step in enumerate(steps):
        side = {"T0": 0, "T1": 1}.get(step.get("side"))
        rem, ins = list(step.get("remove", [])), list(step.get("insert", []))
        where = f"step {i}"
        if side is None:
            return [f"{where}: bad side {step.get('side')!r}"]
        if not rem or len(rem) != len(ins) or len(rem) > max_degree:
            return [f"{where}: degree {len(rem)}/{len(ins)} not in 1..{max_degree}"]
        if not all(_is_flow(r, n) for r in rem + ins):
            return [f"{where}: a row is not a flow of length {n}"]
        if _profile(rem) != _profile(ins):
            return [f"{where}: removed and inserted column profiles differ"]
        need = Counter(rem)
        if need - sides[side]:
            return [f"{where}: removed rows {sorted(need - sides[side])} absent"]
        sides[side] = sides[side] - need + Counter(ins)
    if sides[0] != sides[1]:
        return ["tables differ after the trace"]
    return []
