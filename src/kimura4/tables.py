"""Tables of flows, profiles, compatibility, and Hamming bookkeeping.

A table is a multiset of flows of common length n; it encodes a monomial
whose variables are the rows.  Two tables are compatible when every column
is the same multiset on both sides; a pair of compatible tables is exactly
a binomial of the toric ideal.  Tables are canonicalized (rows sorted) on
construction so multiset identity is plain equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import groups
from .groups import SYMBOLS, SYM_TO_CODE


@dataclass(frozen=True)
class Table:
    """Canonical multiset of flows: rows sorted, packed ints, fixed n."""

    rows: tuple[int, ...]
    n: int

    @classmethod
    def make(cls, rows: Iterable[int], n: int, *, check: bool = True) -> "Table":
        rs = tuple(sorted(rows))
        if check:
            for v in rs:
                if not groups.is_flow(v, n):
                    raise ValueError(
                        f"row {groups.format_flow(v, n)} is not a flow of length {n}"
                    )
        return cls(rs, n)

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Table":
        if not rows:
            raise ValueError("a table needs at least one row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("rows must have equal length")
        return cls.make((groups.parse_flow(r) for r in rows), n)

    @property
    def degree(self) -> int:
        return len(self.rows)

    def row_strings(self) -> list[str]:
        return [groups.format_flow(v, self.n) for v in self.rows]

    def __str__(self) -> str:
        return "{" + ",".join(self.row_strings()) + "}"

    def profile(self) -> tuple[int, ...]:
        return profile_of_rows(self.rows, self.n)

    def counts(self) -> list[list[int]]:
        """Column symbol counts as an n x 4 nested list."""
        p = self.profile()
        return [list(p[4 * i: 4 * i + 4]) for i in range(self.n)]

    def without(self, sub: Sequence[int]) -> tuple[int, ...]:
        """Rows minus the sub-multiset `sub`; raises if not contained."""
        remaining = list(self.rows)
        for v in sub:
            try:
                remaining.remove(v)
            except ValueError:
                raise ValueError("sub-multiset not contained in table") from None
        return tuple(remaining)


def profile_of_rows(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Flattened column counts c[i][g], i.e. the psi-sum of the rows.

    Entry 4*i + g is the number of rows with symbol g in column i.
    """
    c = [0] * (4 * n)
    for v in rows:
        for i in range(n):
            c[4 * i + ((v >> (2 * (n - 1 - i))) & 3)] += 1
    return tuple(c)


def compatible(t0: Table, t1: Table) -> bool:
    """True iff the tables kolumnwise agree as multisets (equal profiles)."""
    if t0.n != t1.n or t0.degree != t1.degree:
        return False
    return t0.profile() == t1.profile()


def hamming(r0: int, r1: int, n: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(distance, disagreement string, agreement column indices).

    The disagreement string is the sorted multiset of nonzero differences
    r0(i) - r1(i) (self-inverse group, so differences are sums).
    """
    diff = r0 ^ r1
    dis = []
    agree = []
    for i in range(n):
        d = (diff >> (2 * (n - 1 - i))) & 3
        if d:
            dis.append(d)
        else:
            agree.append(i)
    return len(dis), tuple(sorted(dis)), tuple(agree)


def column_mask(n: int) -> int:
    """The low bit of each of n packed 2-bit columns: 0b0101...01."""
    return ((1 << 2 * n) - 1) // 3


def hamming_distance(r0: int, r1: int, n: int) -> int:
    """Number of columns where the rows differ, by one popcount."""
    x = r0 ^ r1
    return ((x | x >> 1) & column_mask(n)).bit_count()


def min_hamming_pair(t0: Table, t1: Table) -> tuple[int, int, int]:
    """A cross pair (row of t0, row of t1, k) of minimal Hamming distance.

    Ties break by canonical row order: first minimal pair scanning t0's rows
    outer, t1's rows inner.
    """
    if not compatible(t0, t1):
        raise ValueError("min_hamming_pair needs compatible tables")
    best = None
    for a in t0.rows:
        for b in t1.rows:
            k = hamming_distance(a, b, t0.n)
            if best is None or k < best[2]:
                best = (a, b, k)
                if k == 0:
                    return best
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# counting functionals
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([+-]?)\s*(?:(\d+)\s*\*?\s*)?([0abc])_(\d+)")


class CountingFunctional:
    """Integer-weighted linear functional on column symbol counts.

    weights maps (column index, symbol) -> integer.  The usual shorthand
    "a_12 - 2*0_3" means: copies of alpha in columns 1 and 2 minus twice the
    copies of 0 in column 3 (columns 1-indexed, single digits).
    """

    __slots__ = ("weights",)

    def __init__(self, weights: Mapping[tuple[int, int], int]):
        self.weights = {k: int(w) for k, w in weights.items() if w != 0}

    @classmethod
    def parse(cls, text: str) -> "CountingFunctional":
        weights: dict[tuple[int, int], int] = {}
        matched = 0
        for m in _TERM_RE.finditer(text):
            sign = -1 if m.group(1) == "-" else 1
            coeff = int(m.group(2)) if m.group(2) else 1
            g = SYM_TO_CODE[m.group(3)]
            for ch in m.group(4):
                col = int(ch) - 1
                weights[(col, g)] = weights.get((col, g), 0) + sign * coeff
            matched += 1
        if matched == 0 and text.strip():
            raise ValueError(f"could not parse counting functional {text!r}")
        return cls(weights)

    def eval(self, t: Table) -> int:
        p = t.profile()
        return sum(w * p[4 * col + g] for (col, g), w in self.weights.items())


def monomial_eval(t: Table, params: Mapping[tuple[int, int], Fraction]) -> Fraction:
    """Evaluate the monomial of t: product over rows of prod_i params[i, r(i)].

    Compatible tables give equal values for any choice of parameters.
    """
    acc = Fraction(1)
    for v in t.rows:
        for i in range(t.n):
            try:
                acc *= params[(i, groups.entry(v, i, t.n))]
            except KeyError:
                raise KeyError(f"missing parameter for column {i}, symbol "
                               f"{SYMBOLS[groups.entry(v, i, t.n)]}") from None
    return acc


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def pair_to_json(t0: Table, t1: Table) -> dict:
    return {"t0": t0.row_strings(), "t1": t1.row_strings()}


def pair_from_json(obj: Mapping) -> tuple[Table, Table]:
    return Table.from_strings(list(obj["t0"])), Table.from_strings(list(obj["t1"]))


def profile_to_json(t: Table) -> list[dict]:
    out = []
    for i, counts in enumerate(t.counts()):
        out.append({
            "col": i + 1,
            "counts": {SYMBOLS[g]: counts[g] for g in range(4)},
        })
    return out
