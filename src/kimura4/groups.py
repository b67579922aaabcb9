"""Exact arithmetic for the Klein four-group Z2 x Z2 and its flows.

Group elements are the ints 0..3 (0, alpha=1, beta=2, gamma=3); addition is
bitwise XOR, so every element is its own inverse and a+b=c for any ordering
of {alpha, beta, gamma} = {1, 2, 3}.

A flow of length n is a tuple of group elements summing to zero.  Internally
a flow is packed into a single int, big-endian base 4 (column 1 in the most
significant digit), so that

  * componentwise group addition is word-level XOR, and
  * integer order on packed words equals lexicographic order on the symbol
    codes 0 < a < b < c.

Serialized flows are strings over {0, a, b, c}, e.g. "abc0" for
(alpha, beta, gamma, 0).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

import numpy as np

SYMBOLS = "0abc"
SYM_TO_CODE = {s: i for i, s in enumerate(SYMBOLS)}

ZERO, ALPHA, BETA, GAMMA = 0, 1, 2, 3
ELEMENTS = (ZERO, ALPHA, BETA, GAMMA)


def add(a: int, b: int) -> int:
    """Group sum in Z2 x Z2 (self-inverse, so this is also subtraction)."""
    return a ^ b


# An automorphism is a lookup table over the 4 elements; 0 is always fixed
# and {alpha, beta, gamma} is permuted.  There are exactly 6.
AUTOMORPHISMS: tuple[tuple[int, int, int, int], ...] = tuple(
    (0,) + p for p in itertools.permutations((ALPHA, BETA, GAMMA))
)

SWAP_BC = (0, 1, 3, 2)  # beta <-> gamma


def apply_aut(aut: Sequence[int], g: int) -> int:
    return aut[g]


def phi_quotient(g: int, h: int) -> int:
    """Class of g in G / <h> identified with Z2: 0 iff g in {0, h}.

    h must be nonzero (the quotient by <0> is not Z2).
    """
    if h == 0:
        raise ValueError("phi_quotient requires h != 0")
    return 0 if g in (0, h) else 1


# ---------------------------------------------------------------------------
# packed flows
# ---------------------------------------------------------------------------

def pack(entries: Iterable[int]) -> int:
    v = 0
    for g in entries:
        v = (v << 2) | (g & 3)
    return v


def unpack(v: int, n: int) -> tuple[int, ...]:
    return tuple((v >> (2 * (n - 1 - i))) & 3 for i in range(n))


def entry(v: int, i: int, n: int) -> int:
    """Entry in column i (0-based) of a packed length-n word."""
    return (v >> (2 * (n - 1 - i))) & 3


def set_entry(v: int, i: int, n: int, g: int) -> int:
    sh = 2 * (n - 1 - i)
    return (v & ~(3 << sh)) | (g << sh)


def word_sum(v: int, n: int) -> int:
    """Group sum of all entries of the packed word."""
    s = 0
    for i in range(n):
        s ^= (v >> (2 * i)) & 3
    return s


def is_flow(v: int, n: int) -> bool:
    return 0 <= v < (1 << (2 * n)) and word_sum(v, n) == 0


def parse_flow(text: str) -> int:
    try:
        return pack(SYM_TO_CODE[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"bad flow string {text!r}") from exc


def format_flow(v: int, n: int) -> str:
    return "".join(SYMBOLS[g] for g in unpack(v, n))


def act_flow(f: int, t: int) -> int:
    """Translate the flow t by the flow f (componentwise group sum)."""
    return f ^ t


# ---------------------------------------------------------------------------
# face specs and flow enumeration
# ---------------------------------------------------------------------------

class FaceSpec:
    """A set of forbidden (column, nonzero symbol) pairs.

    A flow lies on the face iff none of its entries matches a forbidden
    pair.  The empty spec admits every flow.  Serialized form is
    comma-separated "col:sym" with 1-indexed columns, e.g. "5:c,6:c".
    """

    __slots__ = ("forbidden",)

    def __init__(self, forbidden: Iterable[tuple[int, int]] = ()):
        pairs = set()
        for col, g in forbidden:
            if g == 0:
                raise ValueError("face specs forbid nonzero symbols only")
            if col < 0:
                raise ValueError("column index must be >= 0")
            pairs.add((col, g))
        self.forbidden = frozenset(pairs)

    @classmethod
    def parse(cls, text: str) -> "FaceSpec":
        text = text.strip()
        if not text:
            return cls()
        pairs = []
        for part in text.split(","):
            col_s, sym = part.strip().split(":")
            pairs.append((int(col_s) - 1, SYM_TO_CODE[sym.strip()]))
        return cls(pairs)

    def __str__(self) -> str:
        return ",".join(
            f"{col + 1}:{SYMBOLS[g]}" for col, g in sorted(self.forbidden)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FaceSpec) and self.forbidden == other.forbidden

    def __hash__(self) -> int:
        return hash(self.forbidden)

    def allowed_symbols(self, n: int) -> list[tuple[int, ...]]:
        """Per-column tuple of admitted symbols."""
        out = []
        for col in range(n):
            banned = {g for c, g in self.forbidden if c == col}
            out.append(tuple(g for g in ELEMENTS if g not in banned))
        return out


# Faces of the n=6 polytope used throughout: P1/P2/P3 (codimension three)
# and the two codimension-two faces.
FACE_P1 = FaceSpec.parse("6:a,6:b,6:c")
FACE_P2 = FaceSpec.parse("5:c,6:b,6:c")
FACE_P3 = FaceSpec.parse("4:c,5:c,6:c")
FACE_CODIM2_A = FaceSpec.parse("6:b,6:c")   # 0 or alpha on leaf 6
FACE_CODIM2_B = FaceSpec.parse("5:c,6:c")   # no gamma on leaves 5, 6
NAMED_FACES = {
    "P1": FACE_P1,
    "P2": FACE_P2,
    "P3": FACE_P3,
    "P2t": FACE_CODIM2_A,
    "P2t'": FACE_CODIM2_B,
}


def enumerate_flows(n: int, face: Optional[FaceSpec] = None) -> list[int]:
    """All packed flows of length n on the face, in increasing (lex) order.

    Without a face the count is 4**(n-1): the first n-1 entries are free and
    the last is forced.
    """
    return flows_array(n, face).tolist()


def flows_array(n: int, face: Optional[FaceSpec] = None) -> np.ndarray:
    """enumerate_flows as an int64 array (sorted): every choice of allowed
    symbols in the first n-1 columns, in lex order, completed by the XOR of
    its entries and kept where the last column allows that symbol."""
    if n < 1:
        raise ValueError("need n >= 1")
    allowed = (face or FaceSpec()).allowed_symbols(n)
    prefix = xor = np.zeros(1, dtype=np.int64)
    for col in allowed[:-1]:
        g = np.array(col, dtype=np.int64)
        prefix = ((prefix[:, None] << 2) | g).ravel()
        xor = (xor[:, None] ^ g).ravel()
    last = sum(1 << g for g in allowed[-1])
    return ((prefix << 2) | xor)[(last >> xor) & 1 == 1]


def column_symbols(flows: np.ndarray, n: int) -> np.ndarray:
    """(V, n) uint8 array of symbol codes per column."""
    shifts = np.array([2 * (n - 1 - i) for i in range(n)], dtype=np.int64)
    return ((flows[:, None] >> shifts[None, :]) & 3).astype(np.uint8)


# ---------------------------------------------------------------------------
# profile keys
# ---------------------------------------------------------------------------

class ProfileKeyTooWide(ValueError):
    """A degree's packed profile key does not fit 62 bits."""


def profile_keys(flows: np.ndarray, n: int, d: int) -> np.ndarray:
    """Per-flow additive int64 key of profiles of degree <= d.

    A profile is keyed by, per column, the counts of a, b, c in base d+1;
    counts are sums over rows, so the key of a multiset of at most d rows is
    the sum of its rows' keys, and equal keys mean equal profiles.
    """
    base = d + 1
    bits = (d * base * base).bit_length()
    if n * bits > 62:
        raise ProfileKeyTooWide(
            f"degree {d}: profile key needs {n * bits} bits, more than 62")
    col_weight = np.array([0, 1, base, base * base], dtype=np.int64)
    shifts = np.arange(n, dtype=np.int64) * bits
    return (col_weight[column_symbols(flows, n)] << shifts[None, :]).sum(axis=1)
