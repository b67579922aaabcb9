"""Spans around the program's layer functions, recorded from outside.

Each wrapped call records one span: function, start, end, parent span and
operation id.  Spans are held in flat arrays and written out once, when the
round ends.  A function imported by name into another module is rebound
there too, so every call site goes through the wrapper.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# The wrapped attributes of each layer's module; "Class.method" wraps a
# method.
LAYER_FUNCTIONS = {
    "markov": ["minimal_generator_census", "connectivity_check",
               "multiset_index_array"],
    "groups": ["enumerate_flows"],
    "hilbert": ["build_record", "hilbert_values", "polytope_dimension",
                "h_numerator", "fit_ehrhart"],
    "reducer": ["reduce_pair", "pair_search", "reduce_hamming_2",
                "reduce_hamming_3", "reduce_hamming_ge4", "merge_columns"],
    "moves": ["profile_fiber", "FiberCache.fiber_for", "trace_is_valid"],
    "tables": ["hamming_distance", "min_hamming_pair", "profile_of_rows"],
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.fid = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        # counters that need the call's arguments or result
        self.fiber_members = 0
        self.fiber_cap_hits = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def install(self) -> None:
        """Wrap every function of LAYER_FUNCTIONS in every kimura4 module."""
        import kimura4.moves
        for layer, attrs in LAYER_FUNCTIONS.items():
            mod = sys.modules[f"kimura4.{layer}"]
            for attr in attrs:
                fid = len(self.names)
                self.names.append(f"{layer}.{attr}")
                self.layers.append(layer)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = getattr(cls, meth)
                    setattr(cls, meth, self._wrap(fid, orig))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(fid, orig)
                for name, other in list(sys.modules.items()):
                    if name != "kimura4" and not name.startswith("kimura4."):
                        continue
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, wrapped)
        self._too_large = kimura4.moves.FiberTooLarge

    def _wrap(self, fid: int, fn):
        name = self.names[fid]
        start, end, parent = self.start, self.end, self.parent
        fids, ops, stack = self.fid, self.op, self.stack
        clock = time.perf_counter
        is_fiber = name == "moves.profile_fiber"
        is_cache = name == "moves.FiberCache.fiber_for"

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            fids.append(fid)
            ops.append(self.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            if is_cache:
                hits, misses = args[0].hits, args[0].misses
            t = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                start[idx] = t
                stack.pop()
                if is_fiber and isinstance(exc, self._too_large):
                    self.fiber_cap_hits += 1
                raise
            end[idx] = clock()
            start[idx] = t
            stack.pop()
            if is_fiber:
                self.fiber_members += len(out)
            elif is_cache:
                self.cache_hits += args[0].hits - hits
                self.cache_misses += args[0].misses - misses
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), function=np.asarray(self.fid),
            parent=np.asarray(self.parent), op=np.asarray(self.op),
            start=np.asarray(self.start), end=np.asarray(self.end))

    def summary(self) -> dict:
        """Calls, total and self seconds per function and per layer.

        A span's self time is its duration minus its direct children's.
        Totals count only spans with no ancestor of the same function (or
        layer), so recursion is not counted twice.
        """
        n = len(self.start)
        fid = np.asarray(self.fid, dtype=np.int64)
        par = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(n)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        self_t = dur - child
        layer_ids = {name: i for i, name in enumerate(LAYER_FUNCTIONS)}
        lid = np.array([layer_ids[self.layers[f]] for f in range(len(self.names))],
                       dtype=np.int64)
        span_lid = lid[fid] if n else np.zeros(0, dtype=np.int64)
        # bit masks of the functions and layers on each span's ancestor
        # path; parents precede children, so one pass per nesting level
        fbit = np.left_shift(1, fid)
        lbit = np.left_shift(1, span_lid)
        fmask = np.zeros(n, dtype=np.int64)
        lmask = np.zeros(n, dtype=np.int64)
        p = par[has_parent]
        while True:
            new_f = fmask.copy()
            new_l = lmask.copy()
            new_f[has_parent] = fmask[p] | fbit[p]
            new_l[has_parent] = lmask[p] | lbit[p]
            if np.array_equal(new_f, fmask) and np.array_equal(new_l, lmask):
                break
            fmask, lmask = new_f, new_l
        top_f = (fmask & fbit) == 0
        top_l = (lmask & lbit) == 0
        functions = {}
        for f, name in enumerate(self.names):
            sel = fid == f
            functions[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel & top_f].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        layers = {}
        for name, l in layer_ids.items():
            sel = span_lid == l
            layers[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel & top_l].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        return {
            "spans": n,
            "functions": functions,
            "layers": layers,
            "profile_fiber_members": self.fiber_members,
            "fiber_cap_hits": self.fiber_cap_hits,
            "fiber_cache_hits": self.cache_hits,
            "fiber_cache_misses": self.cache_misses,
        }
