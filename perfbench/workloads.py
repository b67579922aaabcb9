"""The operations of each workload.

A round is every operation of the workload, one after another, in a fresh
worker process, so the program's module-level caches start cold as they do
for a CLI user.  Census, spill and Hilbert inputs are fixed by the published
figures they are checked against; the seed orders the operations.
"""

from __future__ import annotations

import random

import inputs

# Below every multiset count of the census inputs (32896 n=5 quadric
# multisets), so each degree goes through the sharded spill path.
SPILL_MEMBER_BUDGET = 30_000
SPILL_SHARDS = 8

CENSUS_INPUTS = [
    {"n": 5, "face": None, "max_degree": 3},
    {"n": 6, "face": "P2", "max_degree": 2},
]

FIXED_OPS = {
    "census": [{"kind": "census", **c} for c in CENSUS_INPUTS]
    + [{"kind": "connectivity", "n": 3, "max_table_degree": 7,
        "move_degree": 4}],
    "spill": [{"kind": "spill", **c} for c in CENSUS_INPUTS],
    "hilbert": [
        {"kind": "hilbert", "n": 3, "face": None, "kmax": 9},
        {"kind": "hilbert", "n": 6, "face": "P2t", "kmax": 3},
    ],
}

NAMES = ["census", "spill", "hilbert", "reduce"]


def operations(workload: str, seed: int) -> list[dict]:
    """The round's operations in the order this seed runs them."""
    if workload == "reduce":
        ops = [{"kind": "reduce", **p} for p in inputs.reduce_pairs()]
    else:
        ops = [dict(op) for op in FIXED_OPS[workload]]
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return ops


def probe_pairs(seed: int) -> list[dict]:
    """The pair probe of the workloads that reduce no pairs themselves,
    run at the start of each quarter of the measuring time."""
    pairs = [{"kind": "reduce", **p} for p in inputs.probe_pairs()]
    random.Random(f"order:probe:{seed}").shuffle(pairs)
    return pairs
