"""The bundled corpus of primitive move identities and its verifier.

Each corpus entry transcribes one displayed exchange of row multisets,
tagged with its verbatim source anchor.  Entries name only the touched
columns; the loader pads untouched columns ('.') with agreeing zeros and,
when a quoted row is not itself zero-sum, appends one shared balancing
column so that every row becomes a flow.  Wildcard letters range over all
four group elements subject to the entry's constraints; an entry passes
when every instantiation is a compatible exchange of degree at most four.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterator, Optional, Sequence

from . import groups
from .groups import SYM_TO_CODE
from .moves import Move
from .tables import profile_of_rows

VAR_LETTERS = set("quvwxyz")


def _load_raw() -> dict:
    with resources.files("kimura4.data").joinpath("move_corpus.json").open() as fh:
        return json.load(fh)


@dataclass
class CorpusEntry:
    id: str
    section: str
    ref: str
    lhs: list[list[str]]
    rhs: list[list[str]]
    constraints: list[str]
    degree: int
    note: Optional[str] = None

    @property
    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for row in self.lhs + self.rhs:
            for cell in row:
                for atom in cell.split("+"):
                    if atom in VAR_LETTERS and atom not in seen:
                        seen.append(atom)
        return tuple(seen)

    def assignments(self) -> Iterator[dict[str, int]]:
        names = self.variables
        for values in itertools.product(range(4), repeat=len(names)):
            asg = dict(zip(names, values))
            if all(_constraint_holds(c, asg) for c in self.constraints):
                yield asg

    def instantiate(self, asg: dict[str, int]) -> tuple[list[int], list[int], int]:
        """(lhs rows, rhs rows, n) as padded flows for one assignment."""
        width = len(self.lhs[0])
        lhs_vals = [[_cell_value(c, asg) for c in row] for row in self.lhs]
        rhs_vals = [[_cell_value(c, asg) for c in row] for row in self.rhs]
        # untouched cells pad with agreeing zeros
        lhs_rows = [[0 if v is None else v for v in row] for row in lhs_vals]
        rhs_rows = [[0 if v is None else v for v in row] for row in rhs_vals]
        n = width
        sums_l = [_xor(row) for row in lhs_rows]
        sums_r = [_xor(row) for row in rhs_rows]
        if any(sums_l) or any(sums_r):
            n += 1
            for row, s in zip(lhs_rows, sums_l):
                row.append(s)
            for row, s in zip(rhs_rows, sums_r):
                row.append(s)
        return ([groups.pack(r) for r in lhs_rows],
                [groups.pack(r) for r in rhs_rows], n)


def _xor(row: Sequence[int]) -> int:
    s = 0
    for v in row:
        s ^= v
    return s


def _cell_value(cell: str, asg: dict[str, int]) -> Optional[int]:
    if cell == ".":
        return None
    s = 0
    for atom in cell.split("+"):
        if atom in SYM_TO_CODE:
            s ^= SYM_TO_CODE[atom]
        elif atom in asg:
            s ^= asg[atom]
        else:
            raise ValueError(f"unknown cell atom {atom!r}")
    return s


def _constraint_holds(text: str, asg: dict[str, int]) -> bool:
    if "!=" in text:
        a, b = text.split("!=")
        return _cell_value(a.strip(), asg) != _cell_value(b.strip(), asg)
    a, b = text.split("=")
    return _cell_value(a.strip(), asg) == _cell_value(b.strip(), asg)


def _normalize_rows(rows: Sequence) -> list[list[str]]:
    return [list(row) for row in rows]


def load_corpus() -> list[CorpusEntry]:
    raw = _load_raw()
    entries = []
    for obj in raw["entries"]:
        lhs = _normalize_rows(obj["lhs"])
        rhs = _normalize_rows(obj["rhs"])
        width = len(lhs[0])
        if any(len(r) != width for r in lhs + rhs):
            raise ValueError(f"corpus entry {obj['id']}: ragged rows")
        for rl, rr in zip(lhs, rhs):
            dots_l = [i for i, c in enumerate(rl) if c == "."]
            dots_r = [i for i, c in enumerate(rr) if c == "."]
            if dots_l != dots_r:
                raise ValueError(
                    f"corpus entry {obj['id']}: untouched columns differ "
                    f"between the two sides of a row")
        entries.append(CorpusEntry(
            id=obj["id"],
            section=obj.get("section", ""),
            ref=obj["ref"],
            lhs=lhs,
            rhs=rhs,
            constraints=list(obj.get("constraints", [])),
            degree=obj["degree"],
            note=obj.get("note"),
        ))
    return entries


@dataclass
class EntryReport:
    id: str
    section: str
    degree: int
    instantiations: int = 0
    trivial: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.instantiations > 0 and not self.failures


@dataclass
class CorpusReport:
    entries: list[EntryReport]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            lines.append(
                f"{status}  {e.id:32s} degree {e.degree}  "
                f"{e.instantiations:3d} instantiation(s)"
                + (f"  [{e.failures[0]}]" if e.failures else ""))
        ok = sum(e.passed for e in self.entries)
        lines.append(f"{ok}/{len(self.entries)} corpus identities pass")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "entries": [
                {
                    "id": e.id,
                    "section": e.section,
                    "degree": e.degree,
                    "instantiations": e.instantiations,
                    "trivial": e.trivial,
                    "failures": e.failures,
                    "passed": e.passed,
                }
                for e in self.entries
            ],
        }


def check_entry(entry: CorpusEntry) -> EntryReport:
    report = EntryReport(entry.id, entry.section, entry.degree)
    for asg in entry.assignments():
        report.instantiations += 1
        lhs, rhs, n = entry.instantiate(asg)
        label = ",".join(f"{k}={groups.SYMBOLS[v]}" for k, v in asg.items())
        if len(lhs) != len(rhs):
            report.failures.append(f"{label}: unequal row counts")
            continue
        if len(lhs) != entry.degree:
            report.failures.append(
                f"{label}: degree {len(lhs)} != declared {entry.degree}")
            continue
        if entry.degree > 4:
            report.failures.append(f"{label}: degree exceeds four")
            continue
        bad = [v for v in lhs + rhs if not groups.is_flow(v, n)]
        if bad:
            report.failures.append(f"{label}: non-flow row after padding")
            continue
        if profile_of_rows(lhs, n) != profile_of_rows(rhs, n):
            report.failures.append(f"{label}: column multisets differ")
            continue
        if sorted(lhs) == sorted(rhs):
            report.trivial += 1
    return report


def verify_corpus(entries: Optional[Sequence[CorpusEntry]] = None) -> CorpusReport:
    """Check every corpus identity over all wildcard instantiations."""
    if entries is None:
        entries = load_corpus()
    return CorpusReport([check_entry(e) for e in entries])


def corpus_moves(max_width: Optional[int] = None) -> list[Move]:
    """Concrete Move objects for every non-trivial corpus instantiation."""
    out = []
    for entry in load_corpus():
        for asg in entry.assignments():
            lhs, rhs, n = entry.instantiate(asg)
            if max_width is not None and n > max_width:
                continue
            if sorted(lhs) == sorted(rhs):
                continue
            out.append(Move.make(lhs, rhs, n))
    return out
