import json

import pytest

from kimura4 import moves
from kimura4.cli import main
from kimura4.moves import read_trace
from kimura4.tables import Table, pair_to_json

ROUTINE_KEYS = {f"{r}_{unit}" for r in ("pinch", "pair_search", "fiber_build")
                for unit in ("calls", "s")} | {"children_scored"}
PAIR = pair_to_json(Table.from_strings(["aa00", "0bb0", "c00c"]),
                    Table.from_strings(["0000", "cab0", "ab0c"]))
# forbids every nonzero symbol of n=13, leaving the zero flow alone
ONE_FLOW_13 = ",".join(f"{c}:{g}" for c in range(1, 14) for g in "abc")


def test_flows_count_only(capsys):
    assert main(["flows", "--leaves", "6", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "1024"


def test_flows_report_embeds_config(tmp_path, capsys):
    out = tmp_path / "flows.json"
    assert main(["flows", "--leaves", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 16
    assert payload["config"]["leaves"] == 3
    assert "tool_version" in payload["config"]


def test_flows_named_face(capsys):
    assert main(["flows", "--leaves", "6", "--face", "P2",
                 "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "384"
    assert main(["flows", "--leaves", "6", "--face", "5:c,6:c",
                 "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "576"


def test_reduce_roundtrip_with_trace(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(PAIR))
    trace = tmp_path / "out.trace.jsonl"
    report = tmp_path / "reduce.json"
    rc = main(["reduce", "--input", str(pair), "--trace", str(trace),
               "--out", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["elapsed_s"] >= 0 and payload["peak_rss_mb"] > 0
    diag = payload["diagnostics"]
    assert set(diag) >= {"nodes_spent", "fiber_cache_hits",
                         "fiber_cache_misses", "fiber_cap_hits", "routines"}
    assert set(diag["routines"]) == ROUTINE_KEYS
    steps = read_trace(str(trace))
    assert steps and all(s.move.degree <= 4 for s in steps)
    # independent verification path
    rc = main(["reduce", "--input", str(pair), "--verify-trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_reduce_self_pair(tmp_path):
    pair = tmp_path / "self.json"
    t = Table.from_strings(["aa00", "0bb0"])
    pair.write_text(json.dumps(pair_to_json(t, t)))
    assert main(["reduce", "--input", str(pair)]) == 0


def test_reduce_rejects_degree_below_two(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(PAIR))
    assert main(["reduce", "--input", str(pair), "--max-degree", "1"]) == 1
    assert "error: moves need degree >= 2" in capsys.readouterr().err


def test_reduce_verify_rejects_wrong_trace(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(PAIR))
    trace = tmp_path / "bogus.jsonl"
    trace.write_text(json.dumps(
        {"side": "T0", "remove": ["aa00", "0bb0"],
         "insert": ["ab00", "ba00"]}) + "\n")
    assert main(["reduce", "--input", str(pair),
                 "--verify-trace", str(trace)]) == 1


def test_census_cli(tmp_path, capsys):
    out = tmp_path / "census.json"
    rc = main(["census", "--leaves", "3", "--max-degree", "4",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    got = {row["degree"]: row["generators"] for row in payload["degrees"]}
    assert got == {2: 0, 3: 16, 4: 18}
    # four figures rounded to 3 places drift apart by 0.002 at most
    for row in payload["degrees"]:
        stages = row["orbits_s"] + row["fibers_s"] + row["components_s"]
        assert stages <= row["elapsed_s"] + 3e-3
    assert [row["flood_rounds"] > 0 for row in payload["degrees"]] == \
        [False, True, True]
    assert payload["peak_rss_mb"] > 0


def test_census_cli_budget_exit_code(tmp_path, capsys, monkeypatch):
    # no multiset budget: degree 7 (1.2e9 multisets) runs at the defaults
    out = tmp_path / "census.json"
    assert main(["census", "--leaves", "4", "--max-degree", "7",
                 "--out", str(out)]) == 0
    got = {row["degree"]: row["generators"]
           for row in json.loads(out.read_text())["degrees"]}
    assert got == {2: 360, 3: 256, 4: 480, 5: 0, 6: 0, 7: 0}
    # n=3 degree 5 has 23 degree-4 orbits x 16 flows x 3 columns candidates
    monkeypatch.setattr(moves, "MAX_CELLS", 1000)
    assert main(["census", "--leaves", "3", "--max-degree", "5",
                 "--out", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["complete"] is False and len(payload["degrees"]) == 3
    assert payload["note"] == ("degree 5: candidates: 1104 cells, "
                               "more than 1000")
    assert "(partial: degree 5: candidates" in capsys.readouterr().out


def test_census_cli_key_width_is_partial(tmp_path, capsys):
    # n=13 profile keys would need 13 * 5 bits at degree 2, but the orbit
    # route builds none
    out = tmp_path / "census.json"
    assert main(["census", "--leaves", "13", "--max-degree", "3",
                 "--face", ONE_FLOW_13, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["complete"] is True and payload["note"] == ""
    assert [(row["degree"], row["generators"], row["orbits"])
            for row in payload["degrees"]] == [(2, 0, 1), (3, 0, 1)]


def test_connectivity_cli_key_width_exit_code(capsys):
    # 13 columns of 8-bit counts at degree 5: no key is built
    rc = main(["connectivity", "--leaves", "13", "--face", ONE_FLOW_13,
               "--max-table-degree", "5"])
    assert rc == 0
    assert "all connected" in capsys.readouterr().out


def test_connectivity_cli_size_limit_exit_code(capsys, monkeypatch):
    # degree 5's states stay within 5000 cells; degree 6's pass it at
    # their second row
    monkeypatch.setattr(moves, "MAX_CELLS", 5000)
    assert main(["connectivity", "--leaves", "3",
                 "--max-table-degree", "7"]) == 2
    assert capsys.readouterr().out == (
        "stopped: degree 6: fiber states: 7518 cells, more than 5000\n")


def test_connectivity_cli_node_keys_exit_code(capsys, monkeypatch):
    # n=4 degree 7 with moves of degree <= 4: a chunk's fiber states hold
    # at most 2652279 cells, its C(7, 3) node keys per member up to 2902340
    monkeypatch.setattr(moves, "MAX_CELLS", 2_800_000)
    assert main(["connectivity", "--leaves", "4",
                 "--max-table-degree", "7"]) == 2
    assert capsys.readouterr().out.startswith(
        "stopped: degree 7: node keys: ")


def test_connectivity_cli(tmp_path, capsys):
    out = tmp_path / "connectivity.json"
    assert main(["connectivity", "--leaves", "3",
                 "--max-table-degree", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["orbits"] == {"5": 51}
    assert payload["flood_rounds"]["5"] > 0 and payload["peak_rss_mb"] > 0
    assert set(payload["orbits_s"]) == {"5"}
    assert main(["connectivity", "--leaves", "3", "--max-table-degree", "4",
                 "--move-degree", "2"]) == 1


def test_hilbert_cli(tmp_path):
    out = tmp_path / "rec.json"
    assert main(["hilbert", "--leaves", "3", "--max-dilation", "10",
                 "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["dim"] == 9
    assert rec["values"][1] == 16
    assert rec["regularity_bound"] == 1 + rec["h_degree"]
    assert len(rec["layer_s"]) == 10 and all(t >= 0 for t in rec["layer_s"])
    assert rec["orbits"][:4] == [1, 3, 8, 23] and len(rec["orbits"]) == 10
    assert rec["peak_rss_mb"] > 0


def test_hilbert_cli_runs_past_old_layer_budget(tmp_path):
    # no H(k) budget: n=6 goes past H(4) = 424014793
    out = tmp_path / "rec.json"
    assert main(["hilbert", "--leaves", "6", "--max-dilation", "5",
                 "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["values"][4:] == [424014793, 7251724288]
    assert rec["orbits"] == [1, 9, 52, 649, 4585]


def test_hilbert_cli_layer_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(moves, "MAX_CELLS", 1103)
    assert main(["hilbert", "--leaves", "3", "--max-dilation", "5"]) == 2
    assert capsys.readouterr().out == (
        "stopped: degree 5: candidates: 1104 cells, more than 1103\n")


def test_series_cli_bundled(capsys):
    assert main(["series", "--paper-series", "n6_full", "--expand", "18"]) == 0
    out = capsys.readouterr().out
    assert "H(1) = 1024" in out and "round trip ok" in out


def test_series_cli_round_trip_ignores_expand(tmp_path, capsys):
    # the round trip reads H(0..dim) however few terms --expand prints
    out = tmp_path / "series.json"
    assert main(["series", "--paper-series", "n6_full", "--out",
                 str(out)]) == 0
    assert "round trip ok" in capsys.readouterr().out
    assert len(json.loads(out.read_text())["values"]) == 6


def test_series_cli_numerator_file(tmp_path, capsys):
    f = tmp_path / "num.json"
    f.write_text("[1]")
    assert main(["series", "--numerator-file", str(f), "--denom-exp", "2",
                 "--expand", "3"]) == 0
    # an internal zero survives; a numerator past t^dim is no h-vector
    f.write_text("[1, 0, 2]")
    assert main(["series", "--numerator-file", str(f), "--denom-exp", "4",
                 "--expand", "1"]) == 0
    assert main(["series", "--numerator-file", str(f), "--denom-exp", "2",
                 "--expand", "9"]) == 1
    assert capsys.readouterr().out.count("round trip FAILED") == 1


def test_verify_moves_cli(capsys):
    assert main(["verify-moves"]) == 0
    out = capsys.readouterr().out
    assert "corpus identities pass" in out


def test_fuzz_cli(tmp_path):
    out = tmp_path / "fuzz.json"
    rc = main(["fuzz", "--leaves", "6", "--max-table-degree", "5",
               "--count", "20", "--seed", "9", "--threads", "1",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["reduced"] == 20 and payload["replay_valid"] == 20
    assert set(payload["search"]) == {"nodes_spent", "fiber_cache_hits",
                                      "fiber_cache_misses", "fiber_cap_hits"}
    assert set(payload["routines"]) == ROUTINE_KEYS
    assert payload["routines"]["pinch_calls"] > 0
    assert payload["config"]["seed"] == 9
    assert payload["elapsed_s"] >= 0 and payload["peak_rss_mb"] > 0


def test_fuzz_cli_report_ignores_threads(tmp_path):
    # every pair is drawn in the parent from one seeded stream, so the
    # worker count changes only the time and memory figures
    payloads = []
    for threads in ("1", "2"):
        out = tmp_path / f"fuzz{threads}.json"
        assert main(["fuzz", "--count", "12", "--seed", "1",
                     "--threads", threads, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        for key in ("elapsed_s", "peak_rss_mb", "config"):
            del payload[key]
        payload["routines"] = {k: v for k, v in payload["routines"].items()
                               if not k.endswith("_s")}
        payloads.append(payload)
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("flag, value, message", [
    ("--count", "0", "--count must be at least 1"),
    ("--count", "-1", "--count must be at least 1"),
    ("--max-table-degree", "1", "--max-table-degree must be at least 2"),
])
def test_fuzz_cli_rejects_bad_sizes(capsys, flag, value, message):
    assert main(["fuzz", flag, value, "--threads", "1"]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_invalid_input_exit_code(tmp_path):
    assert main(["reduce", "--input", str(tmp_path / "missing.json")]) == 1
