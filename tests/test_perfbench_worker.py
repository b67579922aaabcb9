"""The benchmark's worker runs one op of each in-memory kind without error.

`test_layer_names.py` checks that the traced names exist; this runs the
worker itself, traced, so the attributes it reads off the program's results
(census rows' `elapsed_s`, `ConnectivityResult.to_json()`, the reducer's
`diagnostics.fallback_cases`) are checked too.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_worker_runs_each_op_kind_traced(tmp_path):
    ops = [
        {"kind": "census", "n": 3, "face": None, "max_degree": 3},
        {"kind": "connectivity", "n": 3, "max_table_degree": 6,
         "move_degree": 4},
        {"kind": "hilbert", "n": 3, "face": None, "kmax": 4},
        {"kind": "reduce", "t0": ["aa00", "0bb0", "c00c"],
         "t1": ["0000", "cab0", "ab0c"]},
    ]
    spec, out = tmp_path / "in.json", tmp_path / "out.json"
    spec.write_text(json.dumps({"ops": ops, "spill_dir": str(tmp_path)}))
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--input", str(spec), "--out", str(out),
         "--trace", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert [op["error"] for op in result["ops"]] == [None] * len(ops)
    census, connectivity, hilbert, reduce = (op["output"]
                                              for op in result["ops"])
    assert [row["generators"] for row in census["degrees"]] == [0, 16]
    assert connectivity["connected"] and connectivity["orbits"] == \
        {"5": 51, "6": 134}
    assert hilbert["values"][:5] == [1, 16, 136, 800, 3611]
    assert reduce["success"] and reduce["fallbacks"] == 0
    assert result["trace"]
