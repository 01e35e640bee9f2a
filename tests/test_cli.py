import contextlib
import csv
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import currently_in_test_context, event, example, given, settings
from hypothesis import strategies as st

import _oracles
from trackmine import cli, ranking, sim
from trackmine.cli import _detection_config, build_parser, main
from trackmine.eventlog import parse_log, segment_cycles, to_datetime
from trackmine.events import DetectionConfig, Rect, detect_streams, load_tracks_csv
from trackmine.jsonl import log_to_jsonl
from trackmine.occurrences import load_occurrences_csv
from trackmine.procnet import build_dfg

SCENARIO = {
    "layout": "cell19",
    "actors": [
        {"entity_class": "worker-right",
         "itinerary": [["s11", 6.0], ["s14", 8.0], ["k3", 5.0]]},
        {"entity_class": "worker-left",
         "itinerary": [["s21", 6.0], ["s23", 9.0], ["k3", 5.0]]},
    ],
    "sample_period": 1.0,
    "seed": 1,
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return path


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    return rc, capsys.readouterr().out


class TestSimulateDetect:
    def test_full_pipeline(self, tmp_path, scenario_file, capsys):
        tracks = tmp_path / "tracks.csv"
        truth = tmp_path / "truth.csv"
        zones = tmp_path / "zones.json"
        rc, out = run(capsys, "simulate", "--scenario", scenario_file,
                      "--out-tracks", tracks, "--out-truth", truth, "--out-zones", zones, "--json")
        assert rc == 0
        assert json.loads(out) == {"samples": len(tracks.read_text().splitlines()) - 1,
                                   "truth": len(load_occurrences_csv(truth))}

        log = tmp_path / "events.log"
        rc, out = run(capsys, "detect", "--tracks", tracks, "--zones", zones,
                      "--out", log, "--json")
        assert rc == 0
        assert json.loads(out)["occurrences"] == 6

        detected = tmp_path / "detected.csv"
        rc, _ = run(capsys, "detect", "--tracks", tracks, "--zones", zones,
                    "--out", detected)
        assert rc == 0
        rc, out = run(capsys, "precision", "--detected", detected, "--truth", truth,
                      "--window", "2.0")
        assert rc == 0
        assert json.loads(out)["precision"] == 1.0

        svg = tmp_path / "chart.svg"
        rc, _ = run(capsys, "gantt", "--log", log, "--out", svg)
        assert rc == 0
        assert svg.read_text().startswith("<svg")

    def test_detect_json_reports_what_it_read(self, tmp_path, capsys):
        # a 6-sample dwell with a blank row, which is no sample, on two zones
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(TRACKS_HEADER + "cam1,0,h,T1,0,0,10,10\n\n"
                          + "".join(f"cam1,{t},h,T1,0,0,10,10\n" for t in range(1, 6)))
        zones = tmp_path / "zones.json"
        zones.write_text(json.dumps([ZONE, {**ZONE, "location_id": "s2"}]))
        out = tmp_path / "d.csv"
        rc, report = run(capsys, "detect", "--tracks", tracks, "--zones", zones, "--out", out,
                         "--json")
        assert rc == 0
        assert json.loads(report) == {"samples": 6, "zones": 2, "occurrences": 2, "out": str(out)}

    def test_detect_deterministic(self, tmp_path, scenario_file, capsys):
        tracks, truth, zones = (tmp_path / n for n in ("t.csv", "g.csv", "z.json"))
        run(capsys, "simulate", "--scenario", scenario_file, "--out-tracks", tracks,
            "--out-truth", truth, "--out-zones", zones)
        out1, out2 = tmp_path / "a.log", tmp_path / "b.log"
        run(capsys, "detect", "--tracks", tracks, "--zones", zones, "--out", out1)
        run(capsys, "detect", "--tracks", tracks, "--zones", zones, "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_jsonl_and_text_logs_give_same_cycles(self, tmp_path, scenario_file, capsys):
        tracks, truth, zones = (tmp_path / n for n in ("t.csv", "g.csv", "z.json"))
        run(capsys, "simulate", "--scenario", scenario_file, "--out-tracks", tracks,
            "--out-truth", truth, "--out-zones", zones)
        payloads = []
        for name in ("ev.jsonl", "ev.log"):
            rc, _ = run(capsys, "detect", "--tracks", tracks, "--zones", zones,
                        "--out", tmp_path / name)
            assert rc == 0
            rc, out = run(capsys, "cycles", "--log", tmp_path / name, "--anchor", "^k3$",
                          "--json")
            assert rc == 0
            payloads.append(json.loads(out))
        from_jsonl, from_text = payloads
        assert (tmp_path / "ev.jsonl").read_text().startswith('{"locations":')
        assert from_jsonl["cycles"] == from_text["cycles"]
        assert len(from_text["cycles"]) == 2
        assert set(from_jsonl) == set(from_text) == {"label", "cycles"}

    @pytest.mark.parametrize("zone, cls, track, message", [
        ("a,b", "wo(rk)er", 'T"1', "location_id 'a,b'"),
        ("s2", "wo(rk)er", "T1", "entity_class 'wo(rk)er'"),
        ("s2", "h", 'T"1', "track_id 'T\"1'"),
        ("s2", "h", "T,1", "track_id 'T,1'"),
    ], ids=["all_three", "class", "track_quote", "track_comma"])
    def test_ids_needing_quotes_are_refused_by_simulate(self, tmp_path, capsys, zone, cls,
                                                        track, message):
        # such a scenario once passed simulate, detect to a CSV and precision,
        # and failed only when detect wrote a log, naming no file
        scenario = tmp_path / "scenario.json"
        zones = [{"location_id": loc, "camera_id": "cam1", "x": x, "y": 0, "w": 100, "h": 100}
                 for loc, x in (("s1", 0), (zone, 300))]
        scenario.write_text(json.dumps({"zones": zones, "actors": [
            {"entity_class": cls, "track_id": track, "itinerary": [["s1", 5.0], [zone, 6.0]]},
        ]}))
        tracks, truth, zones_json = (tmp_path / n for n in ("t.csv", "g.csv", "z.json"))
        rc = main([str(a) for a in ("simulate", "--scenario", scenario, "--out-tracks", tracks,
                                    "--out-truth", truth, "--out-zones", zones_json)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (f"trackmine simulate: {scenario}: bad scenario: {message} is not a name: "
                       f'a name is printable, with none of ,;()" and no whitespace at either end\n')
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


LOG_TEXT = """\
EL1: {s11, (E1,RP), 2024/08/15/10:00:00}
EL1: {s14, (E1,RP), 2024/08/15/10:01:00}
EL1: {s14, (E1,RP), 2024/08/15/10:02:00}
EL1: {s11, (E1,RP), 2024/08/15/10:08:30}
EL1: {k3, (E1,RP), 2024/08/15/10:10:00}
"""


DFG_LOG_TEXT = """\
EL1: {s1, (E1,RP), 2024/08/15/10:00:00}
EL1: {s1, (E1,RP), 2024/08/15/10:00:10}
EL1: {s2, (E1,RP), 2024/08/15/10:00:20}
EL1: {s1, (E1,RP), 2024/08/15/10:00:30}
EL1: {s2, (E1,RP); k3, (E2,LP), 2024/08/15/10:00:40}
"""


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "el.log"
    path.write_text(LOG_TEXT)
    return path


def _count_matrix(tmp_path):
    """A 6x6 directly-follows count matrix with entries in the hundreds;
    its authority matrix has entries near 1e6."""
    values = np.random.default_rng(0).integers(100, 301, size=(6, 6))
    labels = [f"P_s{i}" for i in range(1, 7)]
    rows = [",".join([lbl, *map(str, row)]) for lbl, row in zip(labels, values.tolist())]
    path = tmp_path / "counts.csv"
    path.write_text("\n".join(["," + ",".join(labels), *rows]) + "\n")
    return path


class TestAnalysis:
    def test_cycles(self, log_file, capsys):
        rc, out = run(capsys, "cycles", "--log", log_file, "--anchor", "^s11$", "--json")
        assert rc == 0
        payload = json.loads(out)
        assert [c["cycle_time"] for c in payload["cycles"]] == [510.0, 90.0]

    def test_empty_anchor_splits_at_every_record(self, tmp_path, capsys):
        # "" matches every location, as segment_cycles(log, anchor="") does
        log = tmp_path / "two.log"
        log.write_text(LOG_TEXT[:LOG_TEXT.index("EL1", 1) * 2])
        rc, out = run(capsys, "cycles", "--log", log, "--anchor", "", "--json")
        assert rc == 0
        assert [c["records"] for c in json.loads(out)["cycles"]] == [1, 1]
        rc, out = run(capsys, "rank", "--log", log, "--anchor", "", "--cycle", "1", "--json")
        assert rc == 0
        assert [s["node"] for s in json.loads(out)["scores"]] == ["RP_s11"]

    def test_dfg_and_rank(self, tmp_path, log_file, capsys):
        matrix = tmp_path / "L.csv"
        rc, out = run(capsys, "dfg", "--log", log_file, "--anchor", "^s11$",
                      "--cycle", "1", "--out-matrix", matrix, "--json")
        assert rc == 0
        assert json.loads(out)["nodes"] == ["RP_s11", "RP_s14"]

        rc, out = run(capsys, "rank", "--matrix", matrix, "--algorithm", "gradient",
                      "--kind", "authority", "--k", "10", "--json")
        assert rc == 0
        report = json.loads(out)
        assert report["algorithm"] == "gradient"
        assert sum(s["value"] for s in report["scores"]) == pytest.approx(1.0, abs=1e-9)
        assert {"node", "value"} == set(report["scores"][0])
        for key in ("entropy", "participation_ratio", "iterations"):
            assert key in report

    @pytest.mark.parametrize("algorithm", ["gradient", "hits_pm_norm", "pagerank_norm"])
    def test_rank_reports_residual(self, log_file, capsys, algorithm):
        rc, out = run(capsys, "rank", "--log", log_file, "--anchor", "^s11$",
                      "--algorithm", algorithm, "--json")
        assert rc == 0
        assert 0.0 <= json.loads(out)["residual"] <= 1e-10

    def test_rank_reports_multiplicity(self, tmp_path, capsys):
        # L = I2: the top eigenvalue 1 of L^T L is repeated
        matrix = tmp_path / "I2.csv"
        matrix.write_text(",x_1,x_2\nx_1,1.0,0.0\nx_2,0.0,1.0\n")
        rc, out = run(capsys, "rank", "--matrix", matrix, "--json")
        assert rc == 0
        report = json.loads(out)
        assert report["multiplicity"] == 2
        assert [s["value"] for s in report["scores"]] == pytest.approx([0.5, 0.5], abs=1e-15)
        assert {"iterations", "residual", "entropy", "participation_ratio"} <= set(report)
        assert report["gap"] is None  # the top eigenspace is the whole space

    @pytest.mark.parametrize("algorithm, gap", [
        ("gradient", 0.75), ("hits_pm_norm", 0.75), ("pagerank_norm", None)])
    def test_rank_reports_gap(self, tmp_path, capsys, algorithm, gap):
        # L = diag(2, 1): L^T L = diag(4, 1), whose gap is (4 - 1) / 4; at
        # alpha = 0.8 it is that of 0.8 * diag(4, 1) + 0.1, by eigvalsh
        matrix = tmp_path / "d.csv"
        matrix.write_text(",x_1,x_2\nx_1,2.0,0.0\nx_2,0.0,1.0\n")
        rc, out = run(capsys, "rank", "--matrix", matrix, "--algorithm", algorithm, "--json")
        assert rc == 0
        report = json.loads(out)
        if algorithm == "hits_pm_norm":
            M = 0.8 * np.diag([4.0, 1.0]) + 0.1
            vals = np.linalg.eigvalsh(M)
            gap = (vals[1] - vals[0]) / M.max()
        assert report["gap"] == (gap if gap is None else pytest.approx(gap, abs=1e-12))

    @pytest.mark.parametrize("algorithm", ["gradient", "hits_pm_norm", "pagerank_norm"])
    def test_rank_certifies_counts_in_the_hundreds(self, tmp_path, capsys, algorithm):
        rc, out = run(capsys, "rank", "--matrix", _count_matrix(tmp_path),
                      "--algorithm", algorithm, "--json")
        assert rc == 0
        report = json.loads(out)
        assert sum(s["value"] for s in report["scores"]) == pytest.approx(1.0, abs=1e-9)
        assert report["multiplicity"] == 1

    def test_compare(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("RP_s11\nRP_s14\nLP_k3\n")
        b.write_text("RP_s11\nLP_s23\nLP_k3\n")
        rc, out = run(capsys, "compare", "--a", a, "--b", b, "--k", "3")
        assert rc == 0
        payload = json.loads(out)
        assert sorted(payload["common"]) == ["LP_k3", "RP_s11"]
        assert payload["jaccard"] == pytest.approx(0.5)

    def test_one_node_score_has_zero_entropy(self, tmp_path, capsys):
        # the authority matrix diag(4, 1) puts the whole score on x_1; the
        # entropy of that distribution printed as -0.0
        matrix = tmp_path / "m.csv"
        matrix.write_text(",x_1,x_2\nx_1,0,1\nx_2,2,0\n")
        rc, out = run(capsys, "rank", "--matrix", matrix, "--json")
        assert rc == 0
        assert '"entropy": 0.0,' in out
        assert [s["value"] for s in json.loads(out)["scores"]] == [1.0, 0.0]

    def test_blank_matrix_row_is_skipped(self, tmp_path, capsys):
        outs = []
        for name, text in (("m.csv", ",x_1,x_2\nx_1,0,1\nx_2,2,1\n"),
                           ("blank.csv", ",x_1,x_2\nx_1,0,1\n\nx_2,2,1\n")):
            (tmp_path / name).write_text(text)
            outs.append(run(capsys, "rank", "--matrix", tmp_path / name, "--json"))
        assert outs[0][0] == 0
        assert outs[1] == outs[0]

    def test_dfg_matrix_bytes(self, tmp_path, capsys):
        # a self-loop, a pair seen twice, and a last node without out-edges
        log = tmp_path / "el.log"
        log.write_text(DFG_LOG_TEXT)
        matrix = tmp_path / "L.csv"
        rc, _ = run(capsys, "dfg", "--log", log, "--boundaries", "0", "--out-matrix", matrix)
        assert rc == 0
        assert matrix.read_bytes() == (b",RP_s1,RP_s2,LP_k3\nRP_s1,1.0,2.0,0.0\n"
                                       b"RP_s2,1.0,0.0,1.0\nLP_k3,0.0,0.0,0.0\n")


class TestTables:
    def test_json_payload(self, capsys):
        rc, out = run(capsys, "tables", "--json")
        assert rc == 0
        rows = json.loads(out)
        assert rows["L0"]["gradient"] == pytest.approx([0.723, 0.277, 0.0], abs=0.005)
        assert rows["L1"]["pagerank_norm_0.8"] == pytest.approx(
            [0.182, 0.185, 0.620, 0.0126], abs=0.03
        )

    def test_idempotent(self, capsys):
        _, out1 = run(capsys, "tables", "--json")
        _, out2 = run(capsys, "tables", "--json")
        assert out1 == out2

    def test_text_table_prints_the_json_numbers(self, capsys):
        # one block per matrix: a title, a header, then a node and 7
        # significant digits of each JSON column, in the JSON's order
        rc, text = run(capsys, "tables")
        assert rc == 0
        rows = json.loads(run(capsys, "tables", "--json")[1])
        blocks = text.split("\n\n")
        assert blocks.pop() == ""
        assert len(blocks) == len(rows)
        for block, (name, table) in zip(blocks, rows.items()):
            title, header, *lines = block.splitlines()
            assert title == f"link matrix {name}"
            assert header.split()[:2] == ["node", "gradient"]
            keys = [key for key in table if key != "nodes"]
            cells = [line.split() for line in lines]
            assert [row[0] for row in cells] == table["nodes"]
            for row in cells:
                assert len(row) == 1 + len(keys)
            for j, key in enumerate(keys, start=1):
                assert [float(row[j]) for row in cells] == pytest.approx(table[key], rel=1e-6)


TRACKS_HEADER = "camera_id,time,entity_class,track_id,x,y,w,h\n"
NAME_RULE = 'a name is printable, with none of ,;()" and no whitespace at either end'
ZONE = {"location_id": "s1", "camera_id": "cam1", "x": 0, "y": 0, "w": 100, "h": 100}


class TestExitCodes:
    def test_missing_file_is_data_error(self, capsys, tmp_path):
        rc = main(["gantt", "--log", str(tmp_path / "nope.log"),
                   "--out", str(tmp_path / "o.svg")])
        assert rc == 3

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--bogus"])
        assert exc.value.code == 2

    def test_bad_anchor_is_data_error(self, log_file, capsys):
        rc = main(["cycles", "--log", str(log_file), "--anchor", "zzz"])
        assert rc == 3

    @pytest.mark.parametrize("pattern", ["(", "["])
    @pytest.mark.parametrize("argv", [
        "cycles --log {log} --anchor {anchor}",
        "dfg --log {log} --anchor {anchor} --out-matrix {out}",
        "rank --log {log} --anchor {anchor} --cycle 1 --out {out}",
    ], ids=["cycles", "dfg", "rank"])
    def test_invalid_anchor_regex_is_data_error(self, tmp_path, log_file, capsys, argv,
                                                pattern):
        out = tmp_path / "out"
        rc = main(argv.format(log=log_file, anchor=pattern, out=out).split())
        err = capsys.readouterr().err
        assert rc == 3
        assert f"bad anchor pattern {pattern!r}: " in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "gantt --log {log} --out {out}",
        "detect --tracks {tracks} --zones {zones} --out {out}",
        "dfg --log {log} --anchor ^s11$ --out-matrix {out}",
    ], ids=["gantt", "detect", "dfg"])
    def test_write_into_missing_directory_names_the_target(self, tmp_path, log_file, capsys,
                                                            argv):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(TRACKS_HEADER + "cam1,0,h,T1,0,0,10,10\n")
        zones = tmp_path / "zones.json"
        zones.write_text(json.dumps([ZONE]))
        out = tmp_path / "missing" / "out.txt"
        rc = main(argv.format(log=log_file, tracks=tracks, zones=zones, out=out).split())
        err = capsys.readouterr().err
        assert rc == 3
        assert err.count("\n") == 1
        assert "No such file or directory" in err and repr(str(out)) in err
        assert ".tmp-" not in err

    def test_write_onto_a_directory_names_the_target(self, tmp_path, log_file, capsys):
        out = tmp_path / "chart"
        out.mkdir()
        rc = main(["gantt", "--log", str(log_file), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"trackmine gantt: [Errno 21] Is a directory: {str(out)!r}\n"
        assert list(out.iterdir()) == [] and sorted(p.name for p in tmp_path.iterdir()) == [
            "chart", log_file.name]

    def test_l1_convention_is_usage_error(self):
        # scores are always squared components; there is no --convention
        for convention in ("l1", "raw"):
            with pytest.raises(SystemExit) as exc:
                main(f"rank --matrix L.csv --convention {convention}".split())
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "text",
        ['["RP_s11", ', '{"scores": [{"value": 0.5}]}', '{"top": ["RP_s11"], "k": 1}',
         '"RP_s11"'],
        ids=["malformed_json", "score_without_node", "dict_without_scores", "json_string"],
    )
    def test_bad_node_list_is_data_error(self, tmp_path, capsys, text):
        a = tmp_path / "a.json"
        a.write_text(text)
        b = tmp_path / "b.txt"
        b.write_text("RP_s11\n")
        rc = main(["compare", "--a", str(a), "--b", str(b), "--k", "1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("trackmine compare: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "rank --algorithm gradient",
        "rank --matrix L.csv --log el.log",
        "cycles --log el.log --anchor ^s11$ --boundaries 0",
        "dfg --log el.log --anchor ^s11$ --boundaries 0",
        "rank --log el.log --anchor ^s11$ --boundaries 0",
    ], ids=["rank_no_source", "rank_two_sources", "cycles_anchor_and_boundaries",
            "dfg_anchor_and_boundaries", "rank_anchor_and_boundaries"])
    def test_conflicting_or_missing_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["cycles", "dfg", "rank"])
    def test_no_split_is_data_error(self, log_file, capsys, command):
        rc = main([command, "--log", str(log_file)])
        assert rc == 3
        assert "--anchor or --boundaries" in capsys.readouterr().err

    def test_empty_boundaries_is_data_error(self, log_file, capsys):
        rc = main(["cycles", "--log", str(log_file), "--boundaries", ""])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "trackmine cycles: --boundaries: unparseable timestamp ''\n"

    def test_missing_cycle_is_data_error(self, log_file, capsys):
        rc = main(["rank", "--log", str(log_file), "--anchor", "^s11$", "--cycle", "3"])
        assert rc == 3
        assert "no cycle with index 3; found 2 cycles" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_time_is_data_error(self, tmp_path, capsys, value):
        csv = tmp_path / "occ.csv"
        csv.write_text(f"location_id,entity_class,track_id,start_time\ns1,h,T1,{value}\n")
        rc = main(["precision", "--detected", str(csv), "--truth", str(csv)])
        assert rc == 3
        assert "not finite" in capsys.readouterr().err

    def test_unpadded_occurrence_time_is_data_error(self, tmp_path, capsys):
        csv = tmp_path / "occ.csv"
        csv.write_text("location_id,entity_class,track_id,start_time\ns1,h,T1,2024/8/5/1:2:3\n")
        rc = main(["precision", "--detected", str(csv), "--truth", str(csv)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.endswith("occ.csv:2: unparseable timestamp '2024/8/5/1:2:3'\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("row, message", [
        ("s1,h,T1", "expected 4 fields, got 3"),
        ("s1,h,T1,5.0,extra", "expected 4 fields, got 5"),
        ("s1,h," + "x" * 200_000 + ",5.0", "field larger than field limit (131072)"),
    ], ids=["short", "long", "field_over_csv_limit"])
    def test_occurrence_row_width_is_data_error(self, tmp_path, capsys, row, message):
        csv = tmp_path / "occ.csv"
        csv.write_text(f"location_id,entity_class,track_id,start_time\ns1,h,T1,1.0\n{row}\n")
        rc = main(["precision", "--detected", str(csv), "--truth", str(csv)])
        err = capsys.readouterr().err
        assert rc == 3
        assert f"occ.csv:3: {message}" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("row, message", [
        ("cam1,2,h,T1,0,0,10", "expected 8 fields, got 7"),
        ("cam1,2,h,T1,0,0,10,10,10", "expected 8 fields, got 9"),
        ("cam1,2,h,T1,nan,0,10,10", "non-finite coordinate"),
        ("cam1,2,h,T1,0,0,inf,10", "non-finite coordinate"),
        ("cam1,2,h," + "x" * 200_000 + ",0,0,10,10", "field larger than field limit (131072)"),
    ], ids=["short", "long", "nan_x", "inf_w", "field_over_csv_limit"])
    def test_bad_track_row_is_data_error(self, tmp_path, capsys, row, message):
        # a 6-sample dwell whose sample at t=2 is malformed
        rows = [f"cam1,{t},h,T1,0,0,10,10" for t in range(6)]
        rows[2] = row
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(TRACKS_HEADER + "\n".join(rows) + "\n")
        zones = tmp_path / "zones.json"
        zones.write_text(json.dumps([ZONE]))
        rc = main(["detect", "--tracks", str(tracks), "--zones", str(zones),
                   "--out", str(tmp_path / "d.csv")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "tracks.csv:4: " in err and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "d.csv").exists()

    def _detect(self, tmp_path, capsys, rows, zones, out="d.csv"):
        """(exit code, stderr) of detect on track rows and zone objects."""
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(TRACKS_HEADER + "".join(row + "\n" for row in rows))
        zones_json = tmp_path / "zones.json"
        zones_json.write_text(json.dumps(zones))
        rc = main(["detect", "--tracks", str(tracks), "--zones", str(zones_json),
                   "--out", str(tmp_path / out)])
        return rc, capsys.readouterr().err

    def test_inversion_names_the_input_position(self, tmp_path, capsys):
        # cam1's third sample, at input position 4, goes back in time
        rows = [f"{cam},{t},h,T1,0,0,10,10" for t in (0, 1) for cam in ("cam1", "cam2")]
        rows.append("cam1,0.5,h,T1,0,0,10,10")
        rc, err = self._detect(tmp_path, capsys, rows, [ZONE, dict(ZONE, camera_id="cam2")])
        assert rc == 3
        assert "inversion at position 4 (camera 'cam1', track 'T1', 0.5 < 1.0)" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "d.csv").exists()

    def test_zone_on_camera_without_samples_is_data_error(self, tmp_path, capsys):
        rows = [f"cam1,{t},h,T1,0,0,10,10" for t in range(6)]
        rc, err = self._detect(tmp_path, capsys, rows, [ZONE, dict(ZONE, camera_id="cam3")])
        assert rc == 3
        assert err == ("trackmine detect: zone 's1' references camera 'cam3' absent from "
                       "the sample stream\n")
        assert not (tmp_path / "d.csv").exists()
        # a tracks file without samples detects nothing, whatever the zones
        rc, err = self._detect(tmp_path, capsys, [], [ZONE, dict(ZONE, camera_id="cam3")])
        assert (rc, err) == (0, "")
        assert load_occurrences_csv(tmp_path / "d.csv") == []

    @pytest.mark.parametrize("rows", [["cam1,0,h,T1,0,0,10,10"], []], ids=["samples", "none"])
    def test_repeated_zone_names_the_file_and_index(self, tmp_path, capsys, rows):
        rc, err = self._detect(tmp_path, capsys, rows, [ZONE, dict(ZONE, x=200)])
        assert rc == 3
        assert err == (f"trackmine detect: {tmp_path / 'zones.json'}: zone #1: duplicate zone "
                       f"'s1' on camera 'cam1'\n")
        assert not (tmp_path / "d.csv").exists()

    def test_zones_json_object_is_data_error(self, tmp_path, capsys):
        rc, err = self._detect(tmp_path, capsys, ["cam1,0,h,T1,0,0,10,10"], {})
        assert rc == 3
        assert err == (f"trackmine detect: {tmp_path / 'zones.json'}: expected a JSON array "
                       f"of zones\n")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("argv", [
        "detect --tracks {big} --zones {big} --out {out}",
        "precision --detected {big} --truth {big}",
    ], ids=["tracks", "occurrences"])
    def test_header_field_over_the_csv_limit_is_data_error(self, tmp_path, capsys, argv):
        big = tmp_path / "big.csv"
        big.write_text("x" * 200_000 + ",y\n")
        out = tmp_path / "out"
        rc = main(argv.format(big=big, out=out).split())
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == (f"trackmine {argv.split()[0]}: {big}:1: field larger than "
                                f"field limit (131072)\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ("rank --matrix {matrix} --k 0", "k must be >= 1"),
        ("detect --tracks {tracks} --zones {zones} --out {out} --min-overlap-ratio 1.5",
         "min_overlap_ratio must be in [0, 1]"),
    ], ids=["rank_k_zero", "detect_min_overlap_ratio_over_one"])
    def test_setting_out_of_range_is_data_error(self, tmp_path, capsys, argv, message):
        tracks, zones = tmp_path / "tracks.csv", tmp_path / "zones.json"
        tracks.write_text(DWELL_TRACKS)
        zones.write_text(json.dumps([ZONE]))
        out = tmp_path / "out"
        rc = main(argv.format(matrix=_count_matrix(tmp_path), tracks=tracks, zones=zones,
                              out=out).split())
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == f"trackmine {argv.split()[0]}: {message}\n"
        assert not out.exists()

    def test_time_outside_the_calendar_is_data_error(self, tmp_path, capsys):
        rows = [f"cam1,{10**12 + t},h,T1,0,0,10,10" for t in range(6)]
        rc, err = self._detect(tmp_path, capsys, rows, [ZONE], out="e.log")
        assert rc == 3
        assert err == ("trackmine detect: time 1000000000000.0 s is outside the calendar "
                       "years 1-9999\n")
        assert not (tmp_path / "e.log").exists()

    def test_boundary_outside_the_calendar_is_data_error(self, log_file, capsys):
        rc = main(["cycles", "--log", str(log_file), "--boundaries", "1e12"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == ("trackmine cycles: --boundaries: time 1000000000000.0 s is "
                                "outside the calendar years 1-9999\n")

    def test_duplicate_scenario_zone_is_data_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "zones": [ZONE, dict(ZONE, x=200)],
            "actors": [{"entity_class": "h", "itinerary": [["s1", 5.0]]}],
        }))
        rc = main(["simulate", "--scenario", str(scenario), "--out-tracks",
                   str(tmp_path / "t.csv"), "--out-truth", str(tmp_path / "g.csv"),
                   "--out-zones", str(tmp_path / "z.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (f"trackmine simulate: {scenario}: bad scenario: duplicate zone 's1' on "
                       f"camera 'cam1'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    def test_shared_track_id_is_data_error(self, tmp_path, capsys):
        # actor 0 defaults to T0, which actor 1 names; were both one track, its
        # stream would alternate between two bodies and detect nothing
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(dict(SCENARIO, actors=[
            {"entity_class": "worker-left", "itinerary": [["s23", 9.0], ["s21", 6.0]]},
            {"entity_class": "worker-left", "itinerary": [["s21", 6.0], ["s23", 9.0]],
             "track_id": "T0"},
        ])))
        rc = main(["simulate", "--scenario", str(scenario), "--out-tracks",
                   str(tmp_path / "t.csv"), "--out-truth", str(tmp_path / "g.csv"),
                   "--out-zones", str(tmp_path / "z.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (f"trackmine simulate: {scenario}: bad scenario: track id 'T0' names "
                       f"actors #0 and #1\n")
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    @pytest.mark.parametrize("change, message", [
        ({"noise": {"dropout": 2.0}}, "dropout must be in [0, 1]"),
        ({"actors": [{"entity_class": "h", "itinerary": [["nowhere", 5.0]]}]},
         "actor 'h' visits unknown location 'nowhere'"),
        ({"layout": None,
          "zones": [dict(ZONE, x=-1.7e308, w=1), dict(ZONE, location_id="s2", x=1e308)],
          "actors": [{"entity_class": "h", "itinerary": [["s1", 5.0], ["s2", 5.0]]}]},
         "actor 'h': itinerary time overflows"),
    ], ids=["dropout_over_one", "unknown_location", "zones_a_float_range_apart"])
    def test_scenario_check_names_the_file(self, tmp_path, capsys, change, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(SCENARIO, **change)))
        rc = main(["simulate", "--scenario", str(path), "--out-tracks", str(tmp_path / "t.csv"),
                   "--out-truth", str(tmp_path / "g.csv")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"trackmine simulate: {path}: bad scenario: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("scenario, extra, message", [
        ([], [], "bad scenario: expected a JSON object"),
        (dict(SCENARIO, noise=[]), [], "bad scenario: noise must be a JSON object"),
        (dict(SCENARIO, actors=[{"entity_class": "h", "itinerary": []}]), [],
         "actor 'h' has an empty itinerary"),
        (dict(SCENARIO, actors=[{"entity_class": "h", "itinerary": [["s11", float("nan")]]}]),
         [], "dwell at 's11' must be finite and > 0"),
        (dict(SCENARIO, sample_period=float("nan")), [], "sample_period must be finite and > 0"),
        (dict(SCENARIO, seed=-1), [], "seed must be >= 0"),
        (SCENARIO, ["--seed", "-1"], "seed must be >= 0"),
        (dict(SCENARIO, noise={"jitter": float("nan")}), [], "jitter must be finite and >= 0"),
        (dict(SCENARIO, layout="cell-19"), [],
         "bad scenario: layout must be null, or 'cell19' without zones; got 'cell-19'"),
        (dict(SCENARIO, zones=[]), [],
         "bad scenario: layout must be null, or 'cell19' without zones; got 'cell19'"),
        # np.arange could not build this scenario's sample times
        (dict(SCENARIO, actors=[{"entity_class": "h",
                                 "itinerary": [["s23", 99999999999999999999999999999910]]}]),
         [], "the scenario asks for 2e+32 samples; at most 2000000 are allowed"),
    ], ids=["top_level_list", "noise_list", "empty_itinerary", "nan_dwell", "nan_period",
            "negative_seed", "negative_seed_flag", "nan_jitter", "unknown_layout",
            "layout_beside_zones", "huge_dwell"])
    def test_bad_scenario_is_data_error(self, tmp_path, capsys, scenario, extra, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        rc = main(["simulate", "--scenario", str(path), "--out-tracks", str(tmp_path / "t.csv"),
                   "--out-truth", str(tmp_path / "g.csv"), *extra])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("trackmine simulate: ") and err.endswith(f"{message}\n")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_zone_is_data_error(self, tmp_path, capsys, value):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(TRACKS_HEADER + "".join(f"cam1,{t},h,T1,0,0,10,10\n" for t in range(6)))
        zones = tmp_path / "zones.json"
        zones.write_text(json.dumps([dict(ZONE, x=float(value))]))
        rc = main(["detect", "--tracks", str(tracks), "--zones", str(zones),
                   "--out", str(tmp_path / "d.csv")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "zone #0: " in err and "non-finite coordinate" in err
        assert err.count("\n") == 1

    def test_lone_surrogate_zone_is_data_error(self, tmp_path, capsys):
        # "\ud800" is a valid JSON escape, but UTF-8 cannot encode what it reads as
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(TRACKS_HEADER + "".join(f"cam1,{t},h,T1,0,0,10,10\n" for t in range(6)))
        zones = tmp_path / "zones.json"
        zones.write_text(json.dumps([dict(ZONE, location_id="s\ud800")]))
        rc = main(["detect", "--tracks", str(tracks), "--zones", str(zones),
                   "--out", str(tmp_path / "d.csv")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (f"trackmine detect: {zones}: zone #0: location_id 's\\ud800' holds a "
                       f"lone surrogate\n")
        assert not (tmp_path / "d.csv").exists()

    def test_lone_surrogate_in_jsonl_log_is_data_error(self, tmp_path, capsys):
        log = tmp_path / "el.jsonl"
        log.write_text(json.dumps({"locations": [{"id": "s1", "entities": [{"id": "\ud800"}]}],
                                   "ts": "2024/08/15/10:00:00"}) + "\n")
        rc = main(["gantt", "--log", str(log), "--out", str(tmp_path / "chart.svg")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"trackmine gantt: {log}: line 1: id '\\ud800' holds a lone surrogate\n"
        assert not (tmp_path / "chart.svg").exists()

    def test_negative_zone_box_is_data_error(self, tmp_path, capsys):
        # the square that ZONE covers, spelled with a negative width and height
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(TRACKS_HEADER + "".join(f"cam1,{t},h,T1,0,0,10,10\n" for t in range(6)))
        zones = tmp_path / "zones.json"
        zones.write_text(json.dumps([dict(ZONE, x=100, y=100, w=-100, h=-100)]))
        rc = main(["detect", "--tracks", str(tracks), "--zones", str(zones),
                   "--out", str(tmp_path / "d.csv")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (f"trackmine detect: {zones}: zone #0: box Rect(x=100.0, y=100.0, "
                       f"w=-100.0, h=-100.0) has a non-positive width, height or area\n")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1.0"])
    def test_bad_matrix_entry_is_data_error(self, tmp_path, capsys, value):
        matrix = tmp_path / "m.csv"
        matrix.write_text(f",x_1,x_2\nx_1,1.0,{value}\nx_2,2.0,0.0\n")
        rc = main(["rank", "--matrix", str(matrix), "--json"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err.startswith("trackmine rank: link matrix entry (x_1, x_2) is ")
        assert captured.err.count("\n") == 1

    def test_repeated_matrix_label_is_data_error(self, tmp_path, capsys):
        matrix = tmp_path / "dup.csv"
        matrix.write_text(",P_s1,P_s2,P_s1\nP_s1,0,1,0\nP_s2,0,0,1\nP_s1,1,0,0\n")
        rc = main(["rank", "--matrix", str(matrix), "--json"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "trackmine rank: link matrix label P_s1 appears more than once\n"

    def test_matrix_field_over_the_csv_limit_is_data_error(self, tmp_path, capsys):
        matrix = tmp_path / "m.csv"
        matrix.write_text(",x_1,x_2\nx_1," + "1" * 200_000 + ",0\nx_2,0,0\n")
        rc = main(["rank", "--matrix", str(matrix), "--json"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == (f"trackmine rank: {matrix}:2: field larger than field "
                                f"limit (131072)\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm, entry, message, kind", [
        ("gradient", "1e200", "authority matrix entry is past the float range", "authority"),
        ("hits_pm_norm", "1e200", "authority matrix entry is past the float range", "authority"),
        ("hits_pm_norm", "1e200", "hub matrix entry is past the float range", "hub"),
        ("pagerank_norm", "1e308", "link matrix column sum is past the float range", "authority"),
    ])
    def test_matrix_past_the_float_range_is_data_error(self, tmp_path, capsys, algorithm,
                                                       entry, message, kind):
        # finite entries whose products or column sums overflow: one line, no warning
        matrix = tmp_path / "m.csv"
        matrix.write_text(f",x_1,x_2\nx_1,{entry},{entry}\nx_2,{entry},{entry}\n")
        rc = main(["rank", "--matrix", str(matrix), "--algorithm", algorithm, "--kind", kind,
                   "--json"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == f"trackmine rank: {message}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ["gradient", "hits_pm_norm"])
    def test_residual_past_the_float_range_is_convergence_error(self, tmp_path, capsys,
                                                                algorithm):
        # a finite authority matrix near the float range: certifying it overflows
        matrix = tmp_path / "m.csv"
        matrix.write_text(",P_s1,P_s2,RP_k3\nP_s1,1,0,1\nP_s2,0,0,1e150\nRP_k3,0,0,0\n")
        rc = main(["rank", "--matrix", str(matrix), "--algorithm", algorithm, "--json"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert captured.err == ("trackmine rank: convergence failure: dominant eigenvalue is "
                                "past the float range\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm", ["gradient", "hits_pm_norm"])
    def test_folded_residual_past_the_float_range_is_convergence_error(self, tmp_path, capsys,
                                                                       algorithm):
        # three nodes share one predecessor, with weight x each, and the others
        # have self-loops, so that the solve folds them: every entry of the
        # authority matrix is finite, but the eigenvalue 3 * x**2 of the lifted
        # vector, which certifying it computes, is past the float range
        n = ranking.FOLD_ABOVE + 5
        labels = [f"P_s{i}" for i in range(n)]
        values = np.eye(n)
        values[:4, :4] = 0.0
        values[0, 1:4] = 8.9e153  # x**2 is 7.9e307
        rows = [",".join([lbl, *map(repr, row)]) for lbl, row in zip(labels, values.tolist())]
        matrix = tmp_path / "m.csv"
        matrix.write_text("\n".join(["," + ",".join(labels), *rows]) + "\n")
        out = tmp_path / "rank.json"
        rc = main(["rank", "--matrix", str(matrix), "--algorithm", algorithm, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert captured.err == ("trackmine rank: convergence failure: dominant eigenvalue is "
                                "past the float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["gradient", "hits_pm_norm", "pagerank_norm"])
    def test_uncertified_ranking_is_convergence_error(self, tmp_path, capsys, monkeypatch,
                                                      algorithm):
        monkeypatch.setattr(ranking, "RTOL", 1e-300)
        out = tmp_path / "rank.json"
        rc = main(["rank", "--matrix", str(_count_matrix(tmp_path)), "--algorithm", algorithm,
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.out == ""
        assert captured.err.startswith("trackmine rank: convergence failure: dominant ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_scenario_zone_is_data_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "zones": [dict(ZONE, x=float("nan"))],
            "actors": [{"entity_class": "h", "itinerary": [["s1", 5.0]]}],
        }))
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-tracks", str(tmp_path / "t.csv"), "--out-truth", str(tmp_path / "g.csv")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "scenario.json: bad scenario: " in err and "non-finite coordinate" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv, data, message", [
        ("detect --tracks {tracks} --zones {inp} --out {out}", [dict(ZONE, location_id=None)],
         "zone #0: location_id must be a string, got None"),
        ("detect --tracks {tracks} --zones {inp} --out {out}", [dict(ZONE, x=True)],
         "zone #0: x must be a number"),
        ("simulate --scenario {inp} --out-tracks {out} --out-truth {out}",
         {"zones": [ZONE], "actors": [{"entity_class": None, "itinerary": [["s1", 5.0]]}]},
         "bad scenario: entity_class must be a string, got None"),
    ], ids=["zone_null_id", "zone_boolean_x", "actor_null_class"])
    def test_json_value_of_the_wrong_type_is_data_error(self, tmp_path, capsys, argv, data,
                                                        message):
        tracks, inp, out = tmp_path / "tracks.csv", tmp_path / "inp.json", tmp_path / "out.csv"
        tracks.write_text(DWELL_TRACKS)
        inp.write_text(json.dumps(data))
        rc = main(argv.format(tracks=tracks, inp=inp, out=out).split())
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"trackmine {argv.split()[0]}: {inp}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, text, line, message", [
        ("detect --tracks {inp} --zones {zones} --out {out}",
         TRACKS_HEADER + 'cam1,0,h,"T\n1",0,0,10,10\ncam1,1,h,T1,x,0,10,10\n',
         3, "track_id 'T\\n1' is not a name: " + NAME_RULE),
        ("precision --detected {inp} --truth {inp}",
         'location_id,entity_class,track_id,start_time\ns1,h,"T\n1",0\ns1,h,T1,x\n',
         3, "track_id 'T\\n1' is not a name: " + NAME_RULE),
        ("rank --matrix {inp}", ',"x\n_1",x_2\n"x\n_1",1,0\nx_2,x,0\n',
         5, "could not convert string to float: 'x'"),
        ("rank --matrix {inp}", ',"x\n_1",bad\n"x\n_1",1,0\nbad,0,0\n',
         2, "node label 'bad' is not of the form role_location"),
    ], ids=["tracks", "occurrences", "matrix_cell", "matrix_header"])
    def test_csv_error_names_the_physical_line(self, tmp_path, capsys, argv, text, line,
                                               message):
        # a quoted field holds a line break, so the bad value's line is past its row's
        # number; a track id refuses the line break itself, at the line where its row ends
        inp, zones, out = tmp_path / "inp.csv", tmp_path / "zones.json", tmp_path / "out.csv"
        inp.write_text(text)
        zones.write_text(json.dumps([ZONE]))
        rc = main(argv.format(inp=inp, zones=zones, out=out).split())
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == f"trackmine {argv.split()[0]}: {inp}:{line}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, data, message", [
        ("simulate --scenario {inp} --out-tracks {out} --out-truth {out}",
         {"layout": "cell19"}, "bad scenario: missing key 'actors'"),
        ("simulate --scenario {inp} --out-tracks {out} --out-truth {out}",
         {"actors": [{"entity_class": "h", "itinerary": [["s1", 5.0]]}]},
         "bad scenario: missing key 'zones'"),
        ("simulate --scenario {inp} --out-tracks {out} --out-truth {out}",
         {"zones": [ZONE], "actors": [{"itinerary": [["s1", 5.0]]}]},
         "bad scenario: missing key 'entity_class'"),
        ("detect --tracks {tracks} --zones {inp} --out {out}",
         [{k: v for k, v in ZONE.items() if k != "h"}], "zone #0: missing key 'h'"),
        ("cycles --log {inp} --anchor s1",
         {"locations": [{"id": "s1", "entities": [{"id": "E1"}]}]}, "line 1: missing key 'ts'"),
    ], ids=["scenario_actors", "scenario_zones", "actor_entity_class", "zone_h", "jsonl_ts"])
    def test_missing_json_key_is_named(self, tmp_path, capsys, argv, data, message):
        # `cycles` reads a .jsonl file as JSON lines; the JSON readers ignore the suffix
        tracks, inp, out = tmp_path / "tracks.csv", tmp_path / "inp.jsonl", tmp_path / "out.csv"
        tracks.write_text(DWELL_TRACKS)
        inp.write_text(json.dumps(data) + "\n")
        rc = main(argv.format(tracks=tracks, inp=inp, out=out).split())
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == f"trackmine {argv.split()[0]}: {inp}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, reason", [
        ('{"scores": [{"x": 1}]}', "missing key 'node'"),
        ('{"scores": [1]}', "'int' object is not subscriptable"),
    ], ids=["score_without_node", "score_not_object"])
    def test_node_list_error_gives_the_reason(self, tmp_path, capsys, text, reason):
        a, b = tmp_path / "r.json", tmp_path / "b.txt"
        a.write_text(text)
        b.write_text("RP_s11\n")
        rc = main(["compare", "--a", str(a), "--b", str(b), "--k", "1"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == (f"trackmine compare: {a} is not a node list or rank report: "
                                f"{reason}\n")

    @pytest.mark.parametrize("name, argv", [
        ("bad.json", "compare --a {bad} --b {bad} --k 1"),
        ("bad.json", "detect --tracks {tracks} --zones {bad} --out {out}"),
        ("bad.json", "simulate --scenario {bad} --out-tracks {out} --out-truth {out}"),
        ("bad.txt", "compare --a {bad} --b {bad} --k 1"),
        ("bad.log", "cycles --log {bad} --anchor s"),
    ], ids=["node_list_json", "zones", "scenario", "node_list_text", "log"])
    def test_non_utf8_input_reads_one_way(self, tmp_path, capsys, name, argv):
        # a JSON input's decode error reads as every other input's does
        bad, tracks, out = tmp_path / name, tmp_path / "tracks.csv", tmp_path / "out"
        bad.write_bytes(b"\xff\xfe" + "s1\n".encode("utf-16-le"))
        tracks.write_text(DWELL_TRACKS)
        rc = main(argv.format(bad=bad, tracks=tracks, out=out).split())
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (f"trackmine {argv.split()[0]}: {bad}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")

    @pytest.mark.parametrize("ts", ["2024/13/15/10:00:00", "2024-02-30T10:00:00"],
                             ids=["month_13", "feb_30_iso"])
    def test_out_of_range_timestamp_is_data_error(self, tmp_path, capsys, ts):
        log = tmp_path / "f.log"
        log.write_text(LOG_TEXT + f"EL1: {{s1, (a,b), {ts}}}\n")
        rc = main(["cycles", "--log", str(log), "--anchor", "s1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"trackmine cycles: {log}: line 6: unparseable timestamp {ts!r}\n"

    @pytest.mark.parametrize("line", [
        '{"locations": 5, "ts": "2024/08/15/10:00:00"}',
        "[1, 2]",
        '{"locations": [5], "ts": "2024/08/15/10:00:00"}',
        '{"locations": [], "ts": 5}',
        '{"locations": [{"id": 5, "entities": [{"id": "E1", "prop": "v1"}]}], '
        '"ts": "2024/08/15/10:00:00"}',
        '{"locations": [{"id": "s1", "entities": [{"id": 1, "prop": "v1"}]}], '
        '"ts": "2024/08/15/10:00:00"}',
        '{"locations": [{"id": "s1", "entities": [{"id": "E1", "prop": 7}]}], '
        '"ts": "2024/08/15/10:00:00"}',
        '{"locations": [{"id": "s1", "entities": [{"id": "E1", "prop": "v1"}]}], '
        '"ts": null}',
        '{"locations": [], "ts": "2024/08/15/10:00:00"}',
        '{"locations": [{"id": "s1", "entities": []}], "ts": "2024/08/15/10:00:00"}',
        "[" * 100_000 + "]" * 100_000,
    ], ids=["locations_int", "list", "location_int", "ts_int", "location_id_int",
            "entity_id_int", "prop_int", "ts_null", "no_locations", "no_entities",
            "deep_nesting"])
    def test_malformed_jsonl_is_data_error(self, tmp_path, capsys, line):
        log = tmp_path / "bad.jsonl"
        log.write_text(line + "\n")
        rc = main(["gantt", "--log", str(log), "--out", str(tmp_path / "o.svg")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"trackmine gantt: {log}: line 1: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "cycles --log {log} --anchor ^s11$",
        "cycles --log {log} --boundaries 2024/08/15/10:00:00,2024/08/15/10:08:30",
        "dfg --log {log} --anchor ^s11$ --out-matrix {out}",
        "rank --log {log} --anchor ^s11$ --out {out}",
        "gantt --log {log} --out {out}",
    ], ids=["cycles_anchor", "cycles_boundaries", "dfg", "rank", "gantt"])
    @pytest.mark.parametrize("suffix", [".log", ".jsonl"])
    def test_decreasing_timestamp_is_data_error(self, tmp_path, capsys, argv, suffix):
        earlier = "EL1: {s14, (E1,RP), 2024/08/15/10:09:00}\n"
        text = LOG_TEXT + earlier
        if suffix == ".jsonl":
            text = log_to_jsonl(parse_log(LOG_TEXT)) + log_to_jsonl(parse_log(earlier))
        log = tmp_path / f"el{suffix}"
        log.write_text(text)
        out = tmp_path / "out"
        rc = main(argv.format(log=log, out=out).split())
        captured = capsys.readouterr()
        label = "'EL1'" if suffix == ".log" else "''"
        assert rc == 3
        assert captured.out == ""
        assert captured.err == (f"trackmine {argv.split()[0]}: {log}: event log {label}: "
                                f"record 6 at 2024/08/15/10:09:00 is earlier than record 5 at "
                                f"2024/08/15/10:10:00\n")
        assert not out.exists()

    def test_second_label_is_data_error(self, tmp_path, capsys):
        # the first label used to win, and a rewrite gave every record that label
        log = tmp_path / "el.log"
        log.write_text(LOG_TEXT.replace("EL1: {k3", "EL2: {k3"))
        rc = main(["cycles", "--log", str(log), "--anchor", "^s11$"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == (f"trackmine cycles: {log}: line 5: label 'EL2' differs from the log's "
                       f"label 'EL1'\n")

    @pytest.mark.parametrize("name, text", [
        ("e.log", "EL1: {, (E1,v1), 2024/08/15/10:00:00}\n"),
        ("e.jsonl", '{"locations": [{"id": "", "entities": [{"id": "E1", "prop": "v1"}]}], '
                    '"ts": "2024/08/15/10:00:00"}\n'),
    ], ids=["text", "jsonl"])
    def test_empty_location_is_data_error(self, tmp_path, capsys, name, text):
        log = tmp_path / name
        log.write_text(text)
        rc = main(["gantt", "--log", str(log), "--out", str(tmp_path / "o.svg")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"trackmine gantt: {log}: line 1: ") and err.count("\n") == 1
        assert not (tmp_path / "o.svg").exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_compare_k_below_one_is_data_error(self, tmp_path, capsys, k):
        a = tmp_path / "a.txt"
        a.write_text("RP_s11\nRP_s14\n")
        rc = main(["compare", "--a", str(a), "--b", str(a), "--k", k])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == "trackmine compare: k must be >= 1\n"

    @pytest.mark.parametrize("bound", [
        "2024-08-15T10:08:30", "2024-08-15 10:08:30", "2024/08/15/10:08:30",
    ], ids=["iso_t", "iso_space", "slash"])
    def test_boundaries_take_either_timestamp_form(self, log_file, capsys, bound):
        rc, out = run(capsys, "cycles", "--log", log_file,
                      "--boundaries", f"2024/08/15/10:00:00,{bound}", "--json")
        assert rc == 0
        assert [c["cycle_time"] for c in json.loads(out)["cycles"]] == [510.0, 90.0]

    @pytest.mark.parametrize("bound", ["2024/8/15/10:08:30", "2024/08/15/10:8:30",
                                       "2024-08-15T24:00:00"])
    def test_unpadded_or_out_of_range_boundary_is_data_error(self, log_file, capsys, bound):
        rc = main(["cycles", "--log", str(log_file), "--boundaries", bound])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"trackmine cycles: --boundaries: unparseable timestamp {bound!r}\n"


    @pytest.mark.parametrize("argv", [
        "detect --tracks {tracks} --zones {deep} --out {out}",
        "compare --a {deep} --b {deep} --k 1",
        "simulate --scenario {deep} --out-tracks {out} --out-truth {out}",
    ], ids=["zones", "node_list", "scenario"])
    def test_deeply_nested_json_is_data_error(self, tmp_path, capsys, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(TRACKS_HEADER + "cam1,0,h,T1,0,0,10,10\n")
        out = tmp_path / "out.csv"
        rc = main([a.format(deep=deep, tracks=tracks, out=out) for a in argv.split()])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"trackmine {argv.split()[0]}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name, argv", [
        ("bad.log", "cycles --log {bad} --anchor s"),
        ("bad.jsonl", "cycles --log {bad} --anchor s"),
        ("bad.log", "gantt --log {bad} --out {out}"),
        ("bad.csv", "precision --detected {bad} --truth {bad}"),
        ("bad.csv", "rank --matrix {bad}"),
        ("bad.csv", "detect --tracks {bad} --zones {bad} --out {out}"),
        ("bad.json", "compare --a {bad} --b {bad} --k 1"),
        ("bad.json", "simulate --scenario {bad} --out-tracks {out} --out-truth {out}"),
    ], ids=["cycles_text", "cycles_jsonl", "gantt", "precision", "rank_matrix", "detect",
            "compare", "simulate"])
    def test_non_utf8_input_is_data_error(self, tmp_path, capsys, name, argv):
        bad = tmp_path / name
        bad.write_bytes(b"\xff\xfe" + "s1\n".encode("utf-16-le"))
        out = tmp_path / "out"
        rc = main([a.format(bad=bad, out=out) for a in argv.split()])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"trackmine {argv.split()[0]}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name, argv", [
        ("bad.csv", "detect --tracks {bad} --zones {zones} --out {out}"),
        ("bad.json", "detect --tracks {tracks} --zones {bad} --out {out}"),
        ("bad.csv", "merge {occ} {bad} --out {out}"),
        ("bad.log", "gantt --log {bad} --out {out}"),
        ("bad.jsonl", "cycles --log {bad} --anchor s"),
        ("bad.log", "dfg --log {bad} --anchor s --out-matrix {out}"),
        ("bad.csv", "rank --matrix {bad} --out {out}"),
        ("bad.log", "rank --log {bad} --anchor s --out {out}"),
        ("bad.txt", "compare --a {bad} --b {nodes} --k 1"),
        ("bad.json", "compare --a {nodes} --b {bad} --k 1"),
        ("bad.csv", "precision --detected {bad} --truth {occ}"),
        ("bad.csv", "precision --detected {occ} --truth {bad}"),
        ("bad.json", "simulate --scenario {bad} --out-tracks {out} --out-truth {out}"),
    ], ids=["detect_tracks", "detect_zones", "merge", "gantt_log", "cycles_log", "dfg_log",
            "rank_matrix", "rank_log", "compare_a", "compare_b", "precision_detected",
            "precision_truth", "simulate_scenario"])
    def test_non_utf8_input_names_the_file(self, tmp_path, capsys, name, argv):
        bad = tmp_path / name
        bad.write_bytes(b"\xff\xfe" + "s1\n".encode("utf-16-le"))
        inputs = {"tracks": DWELL_TRACKS, "zones": json.dumps([ZONE]),
                  "occ": MIXED_TRACKS_CSV, "nodes": "RP_s11\n"}
        for key, text in inputs.items():
            (tmp_path / key).write_text(text)
        out = tmp_path / "out"
        rc = main([a.format(bad=bad, out=out, **{k: tmp_path / k for k in inputs})
                   for a in argv.split()])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"trackmine {argv.split()[0]}: {bad}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("suffix", [".log", ".jsonl"])
    @pytest.mark.parametrize("location, label, message", [
        # a location is refused by the zones reader, before any detection runs
        ("s(1", "EL1", "{zones}: zone #0: location_id 's(1'"),
        ("s1", "E L", "log label 'E L'"),
        ("s1", "#x", "log label '#x'"),
    ], ids=["location_paren", "label_space", "label_hash"])
    def test_name_outside_log_grammar_is_data_error(self, tmp_path, capsys, location, label,
                                                    message, suffix):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(TRACKS_HEADER + "".join(f"cam1,{t},h,T1,0,0,10,10\n" for t in range(6)))
        zones = tmp_path / "zones.json"
        zones.write_text(json.dumps([dict(ZONE, location_id=location)]))
        out = tmp_path / f"e{suffix}"
        rc = main(["detect", "--tracks", str(tracks), "--zones", str(zones),
                   "--out", str(out), "--label", label])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith(f"trackmine detect: {message.format(zones=zones)} ")
        assert err.count("\n") == 1
        assert not out.exists()


MIXED_TRACKS_CSV = """\
location_id,entity_class,track_id,start_time
s1,h,,5.0
s1,h,T1,5.0
"""


# One input of each format, named by its file, with the command that reads
# it; {inp} is the input, and tracks.csv and zones.json sit beside it.
BOM_INPUTS = {
    "tracks_csv": ("inp.csv", "detect --tracks {inp} --zones {dir}/zones.json --out {dir}/d.csv"),
    "zones_json": ("inp.json", "detect --tracks {dir}/tracks.csv --zones {inp} --out {dir}/d.csv"),
    "occurrence_csv": ("inp.csv", "precision --detected {inp} --truth {inp}"),
    "text_log": ("inp.log", "cycles --log {inp} --anchor ^s11$"),
    "jsonl_log": ("inp.jsonl", "cycles --log {inp} --anchor ^s11$"),
    "matrix_csv": ("inp.csv", "rank --matrix {inp}"),
    "node_list_text": ("inp.txt", "compare --a {inp} --b {inp} --k 2"),
    "node_list_json": ("inp.json", "compare --a {inp} --b {inp} --k 2"),
    "scenario_json": ("inp.json", "simulate --scenario {inp} --out-tracks {dir}/d.csv "
                                  "--out-truth {dir}/g.csv"),
}
DWELL_TRACKS = TRACKS_HEADER + "".join(f"cam1,{t},h,T1,0,0,10,10\n" for t in range(6))


@pytest.mark.parametrize("fmt", list(BOM_INPUTS))
def test_leading_bom_is_ignored(tmp_path, capsys, fmt):
    """Each input reads the same with and without the UTF-8 BOM that Excel
    and Notepad write at the start of a file."""
    text = {
        "tracks_csv": DWELL_TRACKS,
        "zones_json": json.dumps([ZONE]),
        "occurrence_csv": MIXED_TRACKS_CSV,
        "text_log": LOG_TEXT,
        "jsonl_log": log_to_jsonl(parse_log(LOG_TEXT)),
        "matrix_csv": _count_matrix(tmp_path).read_text(),
        "node_list_text": "RP_s11\nRP_s14\n",
        "node_list_json": '["RP_s11", "RP_s14"]',
        "scenario_json": json.dumps(SCENARIO),
    }[fmt]
    name, argv = BOM_INPUTS[fmt]
    results = []
    for bom in ("", "\ufeff"):
        d = tmp_path / f"bom{len(bom)}"
        d.mkdir()
        (d / "tracks.csv").write_text(DWELL_TRACKS)
        (d / "zones.json").write_text(json.dumps([ZONE]))
        (d / name).write_bytes((bom + text).encode("utf-8"))
        rc = main(argv.format(inp=d / name, dir=d).split())
        out, err = capsys.readouterr()
        written = (d / "d.csv").read_bytes() if (d / "d.csv").exists() else None
        results.append((rc, out, err, written))
    assert results[0][0] == 0
    assert results[1] == results[0]


@pytest.mark.parametrize("ts", [
    "\uff12\uff10\uff12\uff14/08/15/10:00:00", "\u0662\u0660\u0662\u0664/08/15/10:00:00",
    "\uff12", "\u0662.5", "1_0",
], ids=["full_width", "arabic_indic", "full_width_seconds", "arabic_indic_seconds",
        "underscore_seconds"])
@pytest.mark.parametrize("reader", ["text_log", "jsonl_log", "tracks_csv", "occurrence_csv",
                                    "boundaries"])
def test_non_ascii_digits_are_data_error(tmp_path, capsys, reader, ts):
    """A time is ASCII digits in every input that holds one, and decimal
    seconds, which ``float`` alone would read from any Unicode digits or
    with a ``_`` between digits, hold no ``_``."""
    jsonl = {"locations": [{"id": "s1", "entities": [{"id": "E1", "prop": "RP"}]}], "ts": ts}
    name, text, argv, where = {  # the input, its text, the command, the error's place
        "text_log": ("inp.log", f"EL1: {{s1, (E1,RP), {ts}}}\n",
                     "cycles --log {inp} --anchor s1", "{inp}: line 1: "),
        "jsonl_log": ("inp.jsonl", json.dumps(jsonl) + "\n",
                      "cycles --log {inp} --anchor s1", "{inp}: line 1: "),
        "tracks_csv": ("inp.csv", TRACKS_HEADER + f"cam1,{ts},h,T1,0,0,10,10\n",
                       "detect --tracks {inp} --zones {dir}/zones.json --out {dir}/d.csv",
                       "{inp}:2: "),
        "occurrence_csv": ("inp.csv", f"location_id,entity_class,track_id,start_time\n"
                                      f"s1,h,T1,{ts}\n",
                           "precision --detected {inp} --truth {inp}", "{inp}:2: "),
        "boundaries": ("inp.log", LOG_TEXT, "cycles --log {inp} --boundaries " + ts,
                       "--boundaries: "),
    }[reader]
    inp = tmp_path / name
    inp.write_text(text, encoding="utf-8")
    (tmp_path / "zones.json").write_text(json.dumps([ZONE]))
    rc = main(argv.format(inp=inp, dir=tmp_path).split())
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == (f"trackmine {argv.split()[0]}: {where.format(inp=inp)}"
                            f"unparseable timestamp {ts!r}\n")
    assert sorted(os.listdir(tmp_path)) == sorted([name, "zones.json"])


# a character no name may hold, by its test id; " " stands for a space at the start
_NOT_IN_A_NAME = {"comma": ",", "semicolon": ";", "open_paren": "(", "close_paren": ")",
                  "quote": '"', "tab": "\t", "nul": "\0", "line_separator": "\u2028",
                  "leading_space": " "}
_NAME_READERS = ["scenario_json", "zones_json", "tracks_csv_plain", "tracks_csv_quoted",
                 "occurrence_csv", "text_log", "jsonl_log"]


def _csv_field(text, quote):
    return '"' + text.replace('"', '""') + '"' if quote else text


@pytest.mark.parametrize("reader, char", [
    # the text grammar drops the spaces around a name, so no text log holds a leading one
    pytest.param(reader, char, id=f"{reader}-{key}") for reader in _NAME_READERS
    for key, char in _NOT_IN_A_NAME.items() if (reader, char) != ("text_log", " ")])
def test_every_reader_refuses_a_name_outside_the_rule(tmp_path, capsys, reader, char):
    """Each reader refuses the name with its own prefix: the file, and the
    line or zone where there is one.  The tracks CSV's plain file quotes only
    what csv must, so it starts a column pass; its quoted file does not."""
    bad = " x1" if char == " " else f"x{char}1"
    quote = reader == "tracks_csv_quoted" or char in ',"'
    occurrence = {"id": bad, "entities": [{"id": "E1", "prop": "RP"}]}
    name, text, argv, where = {  # the input, its text, the command, the error's place
        "scenario_json": ("inp.json", json.dumps(dict(SCENARIO, actors=[
            {"entity_class": "h", "track_id": bad, "itinerary": [["s11", 5.0]]}])),
            "simulate --scenario {inp} --out-tracks {dir}/t.csv --out-truth {dir}/g.csv",
            "{inp}: bad scenario: track_id "),
        "zones_json": ("inp.json", json.dumps([ZONE, dict(ZONE, location_id=bad)]),
                       "detect --tracks {dir}/tracks.csv --zones {inp} --out {dir}/d.csv",
                       "{inp}: zone #1: location_id "),
        "tracks_csv_plain": ("inp.csv", TRACKS_HEADER + "cam1,0,h,T1,0,0,10,10\n"
                             f"cam1,1,h,{_csv_field(bad, quote)},0,0,10,10\n",
                             "detect --tracks {inp} --zones {dir}/zones.json --out {dir}/d.csv",
                             "{inp}:3: "),
        "tracks_csv_quoted": ("inp.csv", TRACKS_HEADER + "cam1,0,h,T1,0,0,10,10\n" + ",".join(
            _csv_field(f, True) for f in ["cam1", "1", "h", bad, "0", "0", "10", "10"]) + "\n",
            "detect --tracks {inp} --zones {dir}/zones.json --out {dir}/d.csv", "{inp}:3: "),
        "occurrence_csv": ("inp.csv", "location_id,entity_class,track_id,start_time\n"
                                      f"s1,h,T1,0\ns1,h,{_csv_field(bad, quote)},1\n",
                           "precision --detected {inp} --truth {inp}", "{inp}:3: "),
        "text_log": ("inp.log", f"EL1: {{s11, (E1,RP), 2024/08/15/10:00:00}}\n"
                                f"EL1: {{{bad}, (E1,RP), 2024/08/15/10:00:01}}\n",
                     "cycles --log {inp} --anchor ^s11$", "{inp}: line 2: "),
        "jsonl_log": ("inp.jsonl", json.dumps({"locations": [dict(occurrence, id="s11")],
                                               "ts": "2024/08/15/10:00:00"}) + "\n"
                                   + json.dumps({"locations": [occurrence],
                                                 "ts": "2024/08/15/10:00:01"}) + "\n",
                      "cycles --log {inp} --anchor ^s11$", "{inp}: line 2: "),
    }[reader]
    inp = tmp_path / name
    inp.write_text(text, encoding="utf-8", newline="")
    (tmp_path / "tracks.csv").write_text(DWELL_TRACKS)
    (tmp_path / "zones.json").write_text(json.dumps([ZONE]))
    rc = main(argv.format(inp=inp, dir=tmp_path).split())
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith(f"trackmine {argv.split()[0]}: {where.format(inp=inp)}")
    assert captured.err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == sorted([name, "tracks.csv", "zones.json"])


# boxes outside the one box rule (finite, w > 0 and h > 0), by test id, as
# changes to a box at (0, 0) of width and height 10
_BAD_BOXES = {"zero_width": {"w": 0}, "negative_height": {"h": -1},
              "negative_width_and_height": {"x": 100, "y": 100, "w": -100, "h": -100}}


@pytest.mark.parametrize("reader", ["scenario_json", "zones_json", "tracks_csv_plain",
                                    "tracks_csv_quoted"])
@pytest.mark.parametrize("box", list(_BAD_BOXES))
def test_every_reader_refuses_a_box_outside_the_rule(tmp_path, capsys, reader, box):
    """Each reader refuses the box with its own prefix, on a camera that no
    sample or zone of the file's other lines shares, so whether or not
    detection would reach it.  The tracks CSV's plain file starts a column
    pass; its quoted file does not."""
    coords = dict({"x": 0, "y": 0, "w": 10, "h": 10}, **_BAD_BOXES[box])
    rect = repr(Rect._make(map(float, coords.values())))
    zone = dict(ZONE, location_id="s2", camera_id="cam2", **coords)
    row = ["cam2", "1", "h", "T1", *map(str, coords.values())]
    name, text, argv, where = {  # the input, its text, the command, the error's place
        "scenario_json": ("inp.json", json.dumps(dict(
            SCENARIO, layout=None, zones=[ZONE, zone],
            actors=[{"entity_class": "h", "itinerary": [["s1", 5.0]]}])),
            "simulate --scenario {inp} --out-tracks {dir}/t.csv --out-truth {dir}/g.csv",
            "{inp}: bad scenario: "),
        "zones_json": ("inp.json", json.dumps([ZONE, zone]),
                       "detect --tracks {dir}/tracks.csv --zones {inp} --out {dir}/d.csv",
                       "{inp}: zone #1: "),
        "tracks_csv_plain": ("inp.csv", DWELL_TRACKS + ",".join(row) + "\n",
                             "detect --tracks {inp} --zones {dir}/zones.json --out {dir}/d.csv",
                             "{inp}:8: "),
        "tracks_csv_quoted": ("inp.csv", DWELL_TRACKS + ",".join(f'"{f}"' for f in row) + "\n",
                              "detect --tracks {inp} --zones {dir}/zones.json --out {dir}/d.csv",
                              "{inp}:8: "),
    }[reader]
    inp = tmp_path / name
    inp.write_text(text, encoding="utf-8")
    (tmp_path / "tracks.csv").write_text(DWELL_TRACKS)
    (tmp_path / "zones.json").write_text(json.dumps([ZONE]))
    rc = main(argv.format(inp=inp, dir=tmp_path).split())
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == (f"trackmine {argv.split()[0]}: {where.format(inp=inp)}box {rect} "
                            f"has a non-positive width, height or area\n")
    assert sorted(os.listdir(tmp_path)) == sorted([name, "tracks.csv", "zones.json"])


@pytest.mark.parametrize("out", ["d.csv", "d.log"])
def test_detect_on_empty_tracks_refuses_a_zero_width_zone(tmp_path, capsys, out):
    # a tracks file without samples detects nothing, yet its zones are read whole
    (tmp_path / "tracks.csv").write_text(TRACKS_HEADER)
    zones = tmp_path / "zones.json"
    zones.write_text(json.dumps([dict(ZONE, w=0)]))
    rc = main(["detect", "--tracks", str(tmp_path / "tracks.csv"), "--zones", str(zones),
               "--out", str(tmp_path / out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"trackmine detect: {zones}: zone #0: box Rect(x=0.0, y=0.0, w=0.0, h=100.0) has a "
        f"non-positive width, height or area\n")
    assert sorted(os.listdir(tmp_path)) == ["tracks.csv", "zones.json"]


@pytest.mark.parametrize("command", ["simulate", "detect"])
def test_zone_with_an_empty_location_is_refused(tmp_path, capsys, command):
    zone = dict(ZONE, location_id="")
    if command == "simulate":
        inp = tmp_path / "scenario.json"
        inp.write_text(json.dumps({"zones": [zone],
                                   "actors": [{"entity_class": "h", "itinerary": [["", 5.0]]}]}))
        argv = ["simulate", "--scenario", inp, "--out-tracks", tmp_path / "t.csv",
                "--out-truth", tmp_path / "g.csv"]
        where = f"{inp}: bad scenario: "
    else:
        inp = tmp_path / "zones.json"
        inp.write_text(json.dumps([zone]))
        (tmp_path / "tracks.csv").write_text(DWELL_TRACKS)
        argv = ["detect", "--tracks", tmp_path / "tracks.csv", "--zones", inp,
                "--out", tmp_path / "d.csv"]
        where = f"{inp}: zone #0: "
    rc = main([str(a) for a in argv])
    assert rc == 3
    assert capsys.readouterr().err == f"trackmine {command}: {where}location_id is empty\n"
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("reader, text, message", [
    ("tracks_csv_plain", DWELL_TRACKS + "cam1,6,,,0,0,10,10\n",
     "8: entity_class and track_id are both empty"),
    ("tracks_csv_quoted", DWELL_TRACKS + '"cam1","6","","","0","0","10","10"\n',
     "8: entity_class and track_id are both empty"),
    ("occurrence_csv", "location_id,entity_class,track_id,start_time\ns1,h,T1,0\ns1,,,1\n",
     "3: entity_class and track_id are both empty"),
    ("occurrence_csv", "location_id,entity_class,track_id,start_time\ns1,h,T1,0\n,h,T1,1\n",
     "3: location_id is empty"),
], ids=["tracks_plain_no_entity", "tracks_quoted_no_entity", "occurrences_no_entity",
        "occurrences_no_location"])
def test_readers_refuse_an_empty_entity_or_location(tmp_path, capsys, reader, text, message):
    # the row could give no event-log entity or group, so its reader refuses it
    inp = tmp_path / "inp.csv"
    inp.write_text(text)
    (tmp_path / "zones.json").write_text(json.dumps([ZONE]))
    if reader == "occurrence_csv":
        runs = [["merge", inp, "--out", tmp_path / "d.csv"],
                ["precision", "--detected", inp, "--truth", inp]]
    else:
        runs = [["detect", "--tracks", inp, "--zones", tmp_path / "zones.json",
                 "--out", tmp_path / out] for out in ("d.csv", "d.log")]
    for argv in runs:
        rc = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert captured.err == f"trackmine {argv[0]}: {inp}:{message}\n"
    assert sorted(os.listdir(tmp_path)) == ["inp.csv", "zones.json"]


@pytest.mark.parametrize("role, locations", [
    ("RP", ["_", "9"]), ("RP", ["a_", "s1"]), ("RP", ["a_b", "s1"]), ("R_", ["s1", "_"]),
], ids=["location_underscore", "location_ends_in_underscore", "location_holds_underscore",
        "role_ends_in_underscore"])
def test_matrix_of_any_node_label_ranks(tmp_path, capsys, role, locations):
    # a label splits at its last "_" that leaves both parts non-empty, which
    # renders back to the label that dfg wrote
    log = tmp_path / "el.log"
    log.write_text("".join(f"EL1: {{{loc}, (E1,{role}), 2024/08/15/10:0{i}:00}}\n"
                           for i, loc in enumerate(locations + locations)))
    matrix = tmp_path / "L.csv"
    rc, out = run(capsys, "dfg", "--log", log, "--boundaries", "0", "--out-matrix", matrix,
                  "--json")
    assert rc == 0
    nodes = json.loads(out)["nodes"]
    assert nodes == [f"{role}_{loc}" for loc in locations]
    rc, out = run(capsys, "rank", "--matrix", matrix, "--json")
    assert rc == 0
    assert sorted(s["node"] for s in json.loads(out)["scores"]) == sorted(nodes)


# names by the one name rule: printable, none of ',;()"', no whitespace at an end;
# with non-ASCII text, inner spaces, "_" and "-", and characters the formats escape
_RULE_NAMES = st.text(st.sampled_from("aZ9_-.:#<&>'\\{}\u00e9\u4e2d\U0001f600 "),
                      min_size=1, max_size=5).map(str.strip).filter(bool)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_names_by_the_rule_pass_every_step(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("names")
    locations = data.draw(st.lists(_RULE_NAMES, min_size=2, max_size=2, unique=True))
    cameras = data.draw(st.lists(_RULE_NAMES, min_size=1, max_size=2, unique=True))
    optional = st.one_of(st.just(""), _RULE_NAMES)  # a class or a track id may be empty
    # a track id names one actor; no rule name is a default id T<index>
    track_ids = data.draw(st.lists(optional, min_size=1, max_size=2).filter(
        lambda ids: len(set(ids) - {""}) == len(ids) - ids.count("")))
    scenario = {
        "zones": [{"location_id": loc, "camera_id": cam, "x": x, "y": 0, "w": 100, "h": 100}
                  for cam in cameras for loc, x in zip(locations, (0, 300))],
        "actors": [{"entity_class": data.draw(optional), "track_id": track_id,
                    "itinerary": [[locations[0], 5.0], [locations[1], 6.0]]}
                   for track_id in track_ids],
    }
    (d / "scenario.json").write_text(json.dumps(scenario))
    tracks, truth, zones = d / "t.csv", d / "g.csv", d / "z.json"
    detected, log, matrix, dot = d / "d.csv", d / "d.log", d / "L.csv", d / "n.dot"
    for argv, outs in [
        (["simulate", "--scenario", d / "scenario.json", "--out-tracks", tracks,
          "--out-truth", truth, "--out-zones", zones], [tracks, truth, zones]),
        (["detect", "--tracks", tracks, "--zones", zones, "--out", detected], [detected]),
        (["detect", "--tracks", tracks, "--zones", zones, "--out", log], [log]),
        (["precision", "--detected", detected, "--truth", truth], []),
        (["dfg", "--log", log, "--boundaries", "0", "--out-matrix", matrix, "--out-dot", dot],
         [matrix, dot]),
        (["gantt", "--log", log, "--out", d / "l.svg"], [d / "l.svg"]),
        (["gantt", "--log", log, "--lane-key", "entity", "--out", d / "e.svg"], [d / "e.svg"]),
    ]:
        _assert_exit_contract(argv, outs, codes=(0,))
    sc = sim.scenario_from_json(d / "scenario.json")
    samples = sim.simulate(sc)[0]
    assert tracks.read_text(encoding="utf-8") == _oracles.tracks_to_csv_writer(samples)
    assert load_occurrences_csv(detected) == detect_streams(samples, sc.zones, DetectionConfig())
    assert {g.location_id for r in parse_log(log.read_text(encoding="utf-8")).records
            for g in r.groups} == set(locations)
    # csv reads each label back as written: no field needed quoting
    nodes = [lbl.render() for lbl in build_dfg(segment_cycles(
        parse_log(log.read_text(encoding="utf-8")), boundaries=[to_datetime(0)])[0]).nodes]
    rows = list(csv.reader(io.StringIO(matrix.read_text(encoding="utf-8"))))
    assert rows[0] == ["", *nodes] and [row[0] for row in rows[1:]] == nodes
    for svg in ("l.svg", "e.svg"):
        ET.parse(d / svg)


_FUZZ_TIMES = ["-1", "-0", "0", "1", "1.5", "2", "3", "4", "6", "10"]
_FUZZ_FAR = ["-1e308", "1e308"]  # adjacent, they are more than the float range apart
_FUZZ_FIELDS = st.one_of(st.sampled_from(_FUZZ_TIMES + _FUZZ_FAR + [
    "1970/01/01/00:00:01", "nan", "cam1", "cam2", "", '"', "h", "T1"]), st.text(max_size=4))
_FUZZ_BOXES = [["0", "0", "10", "10"]] * 3 + [["1e308", "0", "1e308", "10"]]


@st.composite
def _fuzzed_tracks(draw):
    """Bytes near a tracks CSV: a header, then rows that are mostly one
    time-sorted dwell on the zoned camera with fields from a small pool,
    and at times a few bytes put in."""
    header = TRACKS_HEADER.strip()
    lines = [draw(st.sampled_from([header, header, header.replace("camera_id", '"camera\n_id"')]))]
    times = draw(st.sampled_from([_FUZZ_TIMES, _FUZZ_FAR]))
    for t in sorted(draw(st.lists(st.sampled_from(times), max_size=8)), key=float):
        row = draw(st.lists(_FUZZ_FIELDS, min_size=8, max_size=8))
        if draw(st.integers(0, 7)):
            row = ["cam1", t, "h", "T1", *draw(st.sampled_from(_FUZZ_BOXES))]
        lines.append(",".join(row))
    data = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode("utf-8")
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.binary(min_size=1, max_size=3)) + data[cut:]
    return data


def _assert_exit_contract(argv, outs, codes=(0, 3)):
    """Run the CLI on `argv` with warnings as errors: it exits with one of
    `codes`; a success prints nothing to stderr and writes every path in
    `outs`, and a failure prints one stderr line and writes none of them."""
    err = io.StringIO()
    # a warning would reach the user's stderr as more lines
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        rc = main([str(a) for a in argv])
    if currently_in_test_context():
        event(f"exit {rc}")
    assert rc in codes
    if rc == 0:
        assert err.getvalue() == "" and all(p.exists() for p in outs)
    else:
        assert err.getvalue().startswith(f"trackmine {argv[0]}: ")
        assert err.getvalue().count("\n") == 1
        assert not any(p.exists() for p in outs)


@given(st.one_of(st.binary(max_size=200), _fuzzed_tracks()), st.sampled_from(["d.csv", "e.log"]))
@settings(max_examples=300, deadline=None)
def test_detect_on_fuzzed_tracks_keeps_the_exit_contract(tmp_path_factory, data, out_name):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "tracks.csv").write_bytes(data)
    (d / "zones.json").write_text(json.dumps([ZONE, dict(ZONE, location_id="s2", x=50)]))
    out = d / out_name
    _assert_exit_contract(["detect", "--tracks", d / "tracks.csv", "--zones", d / "zones.json",
                           "--out", out], [out])


# Tokens that no scenario field takes, or that only some take; a fuzzed
# field draws one about once in twenty.
_FUZZ_BAD = [0, -1, float("nan"), float("inf"), "1", "x", [], None, True, "T,1", " h"]


# short dwells, and one in nine so long that the sample bound refuses the scenario
_FUZZ_DWELLS = [0.5, 1, 2.5, 5.0] * 4 + [1e9, 99999999999999999999999999999910]


def _field(draw, valid):
    return draw(st.sampled_from(valid if draw(st.integers(0, 19)) else _FUZZ_BAD))


@st.composite
def _fuzzed_scenario(draw):
    """Bytes near a scenario JSON.  Dwells, periods and coordinates come
    from small bounded sets, so that a valid scenario asks for at most about
    a thousand samples, or has a dwell so long that the scenario's sample
    bound refuses it; cutting the text short may break it but never makes a
    number larger."""
    if draw(st.booleans()):
        raw, locations = {"layout": "cell19"}, ["s11", "k3"]
    else:
        locations = ["s1", "s2"]
        raw = {"zones": [{"location_id": loc, "camera_id": _field(draw, ["cam1", "cam2"]),
                          **{k: _field(draw, [0, 50, 300, 12.5]) for k in "xywh"}}
                         for loc in draw(st.sampled_from([locations, locations + ["s1"]]))]}
    raw["actors"] = [
        {"entity_class": _field(draw, ["worker-left", "big-AGV", "h"]),
         "track_id": _field(draw, ["", "T1", "T 1"]),
         "itinerary": [[_field(draw, locations), _field(draw, _FUZZ_DWELLS)]
                       for _ in range(draw(st.integers(0, 4)))]}
        for _ in range(draw(st.integers(0, 3)))]
    raw["noise"] = {"jitter": _field(draw, [0, 2.0]), "dropout": _field(draw, [0, 0.1, 1])}
    raw["sample_period"] = _field(draw, [0.5, 1, 2.0])
    raw["seed"] = _field(draw, [0, 1, 7, 2**40])
    if not draw(st.integers(0, 4)):
        raw[draw(st.sampled_from(sorted(raw)))] = draw(st.sampled_from([None, [], "x", 1]))
    if not draw(st.integers(0, 9)):
        raw = draw(st.sampled_from([[], "x", 1, None, [raw]]))
    data = json.dumps(raw).encode("utf-8")
    return data[:draw(st.integers(0, len(data)))] if not draw(st.integers(0, 9)) else data


@given(st.one_of(st.binary(max_size=200), _fuzzed_scenario()))
@settings(max_examples=300, deadline=None)
def test_simulate_on_fuzzed_scenario_keeps_the_exit_contract(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "scenario.json").write_bytes(data)
    outs = [d / "t.csv", d / "g.csv", d / "z.json"]
    _assert_exit_contract(["simulate", "--scenario", d / "scenario.json", "--out-tracks", outs[0],
                           "--out-truth", outs[1], "--out-zones", outs[2]], outs)


@pytest.mark.parametrize("cls", ["h\0", "h\0,"], ids=["plain", "quoted"])
def test_simulate_on_a_nul_id_keeps_the_exit_contract(tmp_path, cls):
    # the scenario reader refuses a NUL on every Python version, so no CSV
    # writer is given one, and the command writes no file
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(dict(SCENARIO, actors=[
        {"entity_class": cls, "track_id": "T1", "itinerary": [["s11", 5.0]]}])))
    outs = [tmp_path / "t.csv", tmp_path / "g.csv"]
    _assert_exit_contract(["simulate", "--scenario", scenario, "--out-tracks", outs[0],
                           "--out-truth", outs[1]], outs, codes=(3,))


# JSON values that a zone field mostly refuses: strings where a number
# belongs, other types, non-finite numbers and an integer past the float
# range; a fuzzed zone field draws one about once in twenty (hypothesis
# draws an end of a range more often than a middle value).
_ZONE_BAD = ["", "1", "nan", None, True, False, [], [0], float("nan"), float("inf"),
             float("-inf"), 10**400]


@st.composite
def _fuzzed_zones(draw):
    """Bytes of a JSON array of zone objects on the tracks' camera or
    another, with at times a bad value, a key left out, or the text cut."""
    zones = []
    for loc in draw(st.lists(st.sampled_from(["s1", "s2", "s3", "s(1"]), min_size=1,
                             max_size=3, unique=True)):
        zone = {"location_id": loc, "camera_id": draw(st.sampled_from(["cam1"] * 4 + ["cam2"])),
                "x": draw(st.sampled_from([0, 0, 50, -20.5, -1e308])), "y": 0,
                "w": draw(st.sampled_from([100, 100, 12.5, 0, -100, 1e308])), "h": 100,
                "category": "c"}
        for key in zone:
            if draw(st.integers(0, 19)) == 10:
                zone[key] = draw(st.sampled_from(_ZONE_BAD))
        if draw(st.integers(0, 19)) == 10:
            del zone[draw(st.sampled_from(sorted(zone)))]
        zones.append(zone)
    data = json.dumps(draw(st.sampled_from([zones] * 9 + [zones[0], None]))).encode("utf-8")
    return data[:draw(st.integers(0, len(data)))] if draw(st.integers(0, 9)) == 5 else data


@given(st.one_of(st.binary(max_size=200), _fuzzed_zones()), st.sampled_from(["d.csv", "e.log"]))
@settings(max_examples=300, deadline=None)
def test_detect_on_fuzzed_zones_keeps_the_exit_contract(tmp_path_factory, data, out_name):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "tracks.csv").write_text(DWELL_TRACKS)
    (d / "zones.json").write_bytes(data)
    out = d / out_name
    _assert_exit_contract(["detect", "--tracks", d / "tracks.csv", "--zones", d / "zones.json",
                           "--out", out], [out])


_NODES = ["RP_s11", "P_s1", "BV_k3", "RP_s11 ", "", "x"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from(_NODES),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["node", "value", "scores"]), inner, max_size=2),
    max_leaves=8)


@st.composite
def _fuzzed_node_list(draw):
    """Bytes near a node list: lines of text, a JSON value, or a rank report
    whose scores are mostly {"node", "value"} objects."""
    kind = draw(st.sampled_from(["text", "value", "report"]))
    if kind == "text":
        lines = draw(st.lists(st.sampled_from(_NODES) | st.text(max_size=4), max_size=6))
        return draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode("utf-8")
    if kind == "value":
        return json.dumps(draw(_JSON_VALUES)).encode("utf-8")
    entry = st.fixed_dictionaries({"node": st.sampled_from(_NODES), "value": st.floats()})
    scores = draw(st.lists(entry if draw(st.integers(0, 4)) else _JSON_VALUES, max_size=5))
    return json.dumps({"algorithm": "gradient", "scores": scores}).encode("utf-8")


@given(st.one_of(st.binary(max_size=200), _fuzzed_node_list()), _fuzzed_node_list(),
       st.sampled_from([".txt", ".json"]), st.sampled_from([".txt", ".json"]),
       st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_compare_on_fuzzed_node_lists_keeps_the_exit_contract(tmp_path_factory, a, b,
                                                              suffix_a, suffix_b, k):
    d = tmp_path_factory.mktemp("fuzz")
    (d / f"a{suffix_a}").write_bytes(a)
    (d / f"b{suffix_b}").write_bytes(b)
    _assert_exit_contract(["compare", "--a", d / f"a{suffix_a}", "--b", d / f"b{suffix_b}",
                           "--k", k], [])


_MATRIX_LABELS = ["P_s1", "P_s2", "RP_k3", "BV_s11"]
_MATRIX_CELLS = ["0", "1", "2.5", "300", "1e150", "1e200", "1e308"]
_MATRIX_BAD = ["-1", "nan", "inf", "1e400", "", "x", '"', "P_s1", "1" * 200_000]


@st.composite
def _fuzzed_matrix(draw):
    """Bytes near a matrix CSV: up to four labels, mostly distinct and
    well formed, over rows of counts from tiny to near the float range, and
    at times a bad cell, a row of another width or a few bytes put in."""
    n = draw(st.integers(1, 4))
    labels = _MATRIX_LABELS[:n] if draw(st.integers(0, 4)) else draw(
        st.lists(st.sampled_from(_MATRIX_LABELS + ["x", "_s1", ""]), min_size=n, max_size=n))
    lines = [",".join(["", *labels])]
    for label in labels:
        width = n if draw(st.integers(0, 9)) else draw(st.integers(0, n + 1))
        lines.append(",".join([label, *(draw(st.sampled_from(
            _MATRIX_CELLS if draw(st.integers(0, 19)) else _MATRIX_BAD)) for _ in range(width))]))
    data = "\n".join(lines).encode("utf-8")
    if not draw(st.integers(0, 4)):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.binary(min_size=1, max_size=3)) + data[cut:]
    return data


@given(st.one_of(st.binary(max_size=200), _fuzzed_matrix()),
       st.sampled_from(["gradient", "hits_pm_norm", "pagerank_norm"]),
       st.sampled_from(["authority", "hub"]))
@settings(max_examples=300, deadline=None)
def test_rank_on_fuzzed_matrix_keeps_the_exit_contract(tmp_path_factory, data, algorithm, kind):
    # exit 4 is the contract too: a ranking that cannot be certified
    d = tmp_path_factory.mktemp("fuzz")
    (d / "m.csv").write_bytes(data)
    out = d / "rank.json"
    _assert_exit_contract(["rank", "--matrix", d / "m.csv", "--algorithm", algorithm,
                           "--kind", kind, "--out", out], [out], codes=(0, 3, 4))


# Names and times for fuzzed logs: the names mostly follow the grammar,
# and the times are in calendar order, from the first year to the last.
_LOG_LOCATIONS = ["s11", "s14", "k3"]
_LOG_ENTITIES = ["E1", "E2", "v_1", "E-1"]
_LOG_PROPS = ["RP", "LP", ""]
_LOG_BAD_NAMES = ["", "s(1", "x,y", " s1", "a\nb", '"', "s;1"]
_LOG_TIMES = ["0001/01/01/00:00:00", "2024/08/15/10:00:00", "2024-08-15T10:01:00",
              "2024/08/15/10:01:00", "2024/08/15/10:08:30.500000", "9999/12/31/23:59:59",
              "9999/12/31/23:59:59.999999"]
_LOG_BAD_TIMES = ["2024/13/15/10:00:00", "2024/8/15/10:00:00", "x", ""]


@st.composite
def _fuzzed_records(draw):
    """Up to six records as (label, [(location, [(entity, property)])],
    timestamp): in time order but at times shuffled, so that a timestamp
    decreases.  One log in four is broken: a bad name or time, a second
    label, an empty record or group, or a location twice in one record."""
    broken = not draw(st.integers(0, 3))

    def pick(good, bad):
        return draw(st.sampled_from(bad if broken and not draw(st.integers(0, 9)) else good))

    times = sorted(draw(st.lists(st.sampled_from(range(len(_LOG_TIMES))), max_size=6)))
    if not draw(st.integers(0, 2)):
        times = draw(st.permutations(times))
    records = []
    for t in times:
        locations = draw(st.lists(st.sampled_from(_LOG_LOCATIONS), min_size=not broken,
                                  max_size=2, unique=True))
        if broken and not draw(st.integers(0, 4)):
            locations.append(draw(st.sampled_from(_LOG_BAD_NAMES + _LOG_LOCATIONS)))
        groups = [(loc, [(pick(_LOG_ENTITIES, _LOG_BAD_NAMES), pick(_LOG_PROPS, _LOG_BAD_NAMES))
                         for _ in range(draw(st.integers(not broken, 2)))])
                  for loc in locations]
        records.append((pick(["", "EL1", "EL1"], ["EL2"]), groups,
                        pick([_LOG_TIMES[t]], _LOG_BAD_TIMES)))
    return records


def _perturb(draw, data: bytes) -> bytes:
    """`data`, at times cut short or with a few bytes put in."""
    if not draw(st.integers(0, 9)):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.binary(min_size=0, max_size=3)) + \
            data[cut + draw(st.integers(0, 3)):]
    return data


@st.composite
def _fuzzed_text_log(draw):
    """Bytes near a text log: full and abbreviated groups, blank and
    comment lines, and each line ending of str.splitlines."""
    lines = []
    for label, groups, ts in draw(_fuzzed_records()):
        body = "; ".join(
            f"{ents[0][1]}_{loc}" if len(ents) == 1 and draw(st.booleans())
            else ", ".join([loc, *(f"({e},{p})" for e, p in ents)])
            for loc, ents in groups)
        lines.append(f"{label}: " * bool(label) + f"{{{body}, {ts}}}")
        if not draw(st.integers(0, 9)):
            lines.append(draw(st.sampled_from(["", "# note", "  "])))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    return _perturb(draw, text.encode("utf-8"))


@st.composite
def _fuzzed_jsonl_log(draw):
    """Bytes near a ``.jsonl`` log; now and then a field that is not a
    string, a list or an object where the format wants one."""
    lines = []
    for _, groups, ts in draw(_fuzzed_records()):
        obj = {"locations": [{"id": loc, "entities": [{"id": e, "prop": p} for e, p in ents]}
                             for loc, ents in groups], "ts": ts}
        if not draw(st.integers(0, 9)):
            target = obj["locations"][0] if obj["locations"] and draw(st.booleans()) else obj
            target[draw(st.sampled_from(sorted(target)))] = draw(
                st.sampled_from([5, None, [], {}, "x", [5]]))
        lines.append(json.dumps(obj))
    return _perturb(draw, "\n".join(lines).encode("utf-8"))


def _assert_log_commands_keep_the_exit_contract(d, log):
    for argv, outs in [
        (["cycles", "--log", log, "--anchor", "^s11$"], []),
        (["cycles", "--log", log, "--boundaries", "2024/08/15/10:00:00,2024/08/15/10:01:00"],
         []),
        (["dfg", "--log", log, "--anchor", "s1", "--out-matrix", d / "L.csv",
          "--out-dot", d / "net.dot"], [d / "L.csv", d / "net.dot"]),
        (["gantt", "--log", log, "--out", d / "chart.svg"], [d / "chart.svg"]),
    ]:
        _assert_exit_contract(argv, outs)


@given(st.one_of(st.binary(max_size=200), _fuzzed_text_log()))
# a NUL in a location, which the log reader refuses as it reads the record
@example(b"EL1: {s1, (E1, worker), 1970/01/01/00:00:00}\n"
         b"EL1: {s\x002, (E1, worker), 1970/01/01/00:00:05}\n")
@settings(max_examples=300, deadline=None)
def test_log_commands_on_fuzzed_text_log_keep_the_exit_contract(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "el.log").write_bytes(data)
    _assert_log_commands_keep_the_exit_contract(d, d / "el.log")


@given(st.one_of(st.binary(max_size=200), _fuzzed_jsonl_log()))
@settings(max_examples=300, deadline=None)
def test_log_commands_on_fuzzed_jsonl_log_keep_the_exit_contract(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "el.jsonl").write_bytes(data)
    _assert_log_commands_keep_the_exit_contract(d, d / "el.jsonl")


@pytest.mark.parametrize("argv", [
    "precision --detected {occ} --truth {occ} --window nan",
    "merge {occ} {occ} --out {out} --dedup-window nan",
    "detect --tracks {tracks} --zones {zones} --out {out} --dedup-window nan",
    "detect --tracks {tracks} --zones {zones} --out {out} --min-duration nan",
    "detect --tracks {tracks} --zones {zones} --out {out} --sample-period nan",
    "simulate --scenario {scenario} --out-tracks {out} --out-truth {out2} --min-duration nan",
], ids=["precision_window", "merge_dedup_window", "detect_dedup_window",
        "detect_min_duration", "detect_sample_period", "simulate_min_duration"])
def test_nan_setting_is_data_error(tmp_path, capsys, scenario_file, argv):
    # nan passes a check written `x < 0`, and then gives a wrong answer
    occ = tmp_path / "occ.csv"
    occ.write_text(MIXED_TRACKS_CSV)
    tracks, zones = tmp_path / "tracks.csv", tmp_path / "zones.json"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-tracks", str(tracks),
                 "--out-truth", str(tmp_path / "truth.csv"), "--out-zones", str(zones)]) == 0
    capsys.readouterr()
    out, out2 = tmp_path / "out", tmp_path / "out2"
    rc = main(argv.format(occ=occ, tracks=tracks, zones=zones, scenario=scenario_file,
                          out=out, out2=out2).split())
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("trackmine ") and captured.err.count("\n") == 1
    assert not out.exists() and not out2.exists()


class TestUntracked:
    @pytest.fixture
    def occ_file(self, tmp_path):
        path = tmp_path / "occ.csv"
        path.write_text(MIXED_TRACKS_CSV)
        return path

    def test_precision(self, occ_file, capsys):
        rc, out = run(capsys, "precision", "--detected", occ_file, "--truth", occ_file)
        assert rc == 0
        assert json.loads(out)["precision"] == 1.0

    def test_merge(self, tmp_path, occ_file, capsys):
        merged = tmp_path / "merged.csv"
        rc, out = run(capsys, "merge", occ_file, occ_file, "--out", merged, "--json")
        assert rc == 0
        assert json.loads(out) == {"occurrences": 2, "out": str(merged)}
        assert merged.read_text() == MIXED_TRACKS_CSV


def test_gantt_escapes_labels(tmp_path, capsys):
    log = tmp_path / "el.log"
    log.write_text("EL1: {s<1&, (E1,RP); s2, (E2,LP), 2024/08/15/10:00:00}\n"
                   "EL1: {s3, (E1,RP), 2024/08/15/10:00:10}\n")
    svg = tmp_path / "chart.svg"
    for lane_key, lanes in (("location", 3), ("entity", 2)):
        rc, out = run(capsys, "gantt", "--log", log, "--lane-key", lane_key, "--out", svg,
                      "--json")
        assert rc == 0
        assert json.loads(out)["lanes"] == lanes
        ET.parse(svg)


NUMPY_FREE_ARGV = {
    "import": "",
    "cycles": "cycles --log {log} --anchor ^s11$ --json",
    "gantt": "gantt --log {log} --out {tmp}/chart.svg --json",
    "precision": "precision --detected {occ} --truth {occ}",
    "merge": "merge {occ} {occ} --out {tmp}/merged.csv --json",
    "compare": "compare --a {nodes} --b {nodes} --k 2",
    "dfg": "dfg --log {log} --anchor ^s11$ --out-matrix {tmp}/L.csv --out-dot {tmp}/L.dot",
}
NUMPY_PROBE = """\
import json, sys
import trackmine.cli
rc = trackmine.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps({"rc": rc, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("command", list(NUMPY_FREE_ARGV))
def test_non_computing_subcommands_leave_numpy_unloaded(tmp_path, log_file, command):
    # a fresh interpreter: pytest and hypothesis have imported numpy in this one
    occ = tmp_path / "occ.csv"
    occ.write_text(MIXED_TRACKS_CSV)
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("RP_s11\nRP_s14\n")
    argv = NUMPY_FREE_ARGV[command].format(log=log_file, tmp=tmp_path, occ=occ, nodes=nodes)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv.split()], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"rc": 0, "numpy": False}


# which of the modules that not every subcommand needs each one loads
LEAN_LOADS = {
    "import": [],
    "cycles": [],
    "gantt": ["html", "trackmine.gantt"],
    "precision": ["trackmine.occurrences"],
    "merge": ["trackmine.occurrences"],
    "compare": ["trackmine.procnet"],
    "dfg": ["trackmine.procnet"],
}
LEAN_PROBE = NUMPY_PROBE.replace(
    '"numpy": "numpy" in sys.modules',
    '"loaded": sorted({"dataclasses", "html", "trackmine.gantt", "trackmine.jsonl", '
    '"trackmine.occurrences", "trackmine.procnet"} & set(sys.modules))')


@pytest.mark.parametrize("command", list(NUMPY_FREE_ARGV))
def test_subcommands_load_only_the_modules_they_use(tmp_path, log_file, command):
    occ = tmp_path / "occ.csv"
    occ.write_text(MIXED_TRACKS_CSV)
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("RP_s11\nRP_s14\n")
    argv = NUMPY_FREE_ARGV[command].format(log=log_file, tmp=tmp_path, occ=occ, nodes=nodes)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", LEAN_PROBE, *argv.split()], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"rc": 0, "loaded": LEAN_LOADS[command]}


@pytest.mark.parametrize("argv", [
    "gantt --log {log} --out {out}",
    "merge {csv} --out {out}",
], ids=["gantt", "merge"])
def test_outputs_get_the_permissions_open_gives(tmp_path, capsys, log_file, argv):
    # written through a temp file and a rename, yet not owner-only
    occ = tmp_path / "occ.csv"
    occ.write_text(MIXED_TRACKS_CSV)
    out = tmp_path / "out"
    old = os.umask(0o027)
    try:
        rc = main(argv.format(log=log_file, csv=occ, out=out).split())
    finally:
        os.umask(old)
    assert rc == 0
    assert out.stat().st_mode & 0o777 == 0o640


def test_detection_defaults_come_from_detection_config():
    parser = build_parser()
    cfg = DetectionConfig()
    detect = parser.parse_args(["detect", "--tracks", "t", "--zones", "z", "--out", "o"])
    assert _detection_config(detect) == cfg
    assert parser.parse_args(["merge", "a.csv", "--out", "o"]).dedup_window == cfg.dedup_window
    simulate = parser.parse_args(["simulate", "--scenario", "s", "--out-tracks", "t",
                                  "--out-truth", "g"])
    assert simulate.min_duration == cfg.min_duration
    assert inspect.signature(sim.simulate).parameters["min_duration"].default == cfg.min_duration
