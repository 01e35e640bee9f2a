import contextlib
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
from hypothesis import event, given, settings
from hypothesis import strategies as st

from trackmine import cli, ranking, sim
from trackmine.cli import _detection_config, build_parser, main
from trackmine.eventlog import load_occurrences_csv, log_to_jsonl, parse_log
from trackmine.events import DetectionConfig, detect_streams

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
        rc, _ = run(capsys, "simulate", "--scenario", scenario_file,
                    "--out-tracks", tracks, "--out-truth", truth, "--out-zones", zones)
        assert rc == 0

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

    def test_ids_needing_quotes_survive_simulate_then_detect(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        zones = [{"location_id": loc, "camera_id": "cam,1", "x": x, "y": 0, "w": 100, "h": 100}
                 for loc, x in (("s1", 0), ("s2", 300))]
        scenario.write_text(json.dumps({"zones": zones, "actors": [
            {"entity_class": 'h "1"', "track_id": "T,1", "itinerary": [["s1", 5.0], ["s2", 6.0]]},
        ]}))
        tracks, truth, zones_json = (tmp_path / n for n in ("t.csv", "g.csv", "z.json"))
        rc, _ = run(capsys, "simulate", "--scenario", scenario, "--out-tracks", tracks,
                    "--out-truth", truth, "--out-zones", zones_json)
        assert rc == 0
        detected = tmp_path / "d.csv"
        rc, _ = run(capsys, "detect", "--tracks", tracks, "--zones", zones_json, "--out", detected)
        assert rc == 0
        sc = sim.scenario_from_json(scenario)
        expected = detect_streams(sim.simulate(sc)[0], sc.zones, DetectionConfig())
        assert len(expected) == 2
        assert load_occurrences_csv(detected) == expected


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


TRACKS_HEADER = "camera_id,time,entity_class,track_id,x,y,w,h\n"
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

    def test_l1_convention_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main("rank --matrix L.csv --convention l1".split())
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
        assert captured.err == ("trackmine cycles: time 1000000000000.0 s is outside the "
                                "calendar years 1-9999\n")

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
        assert err == "trackmine simulate: duplicate zone 's1' on camera 'cam1'\n"
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
        ({"zones": [dict(ZONE, x=-1.7e308, w=0), dict(ZONE, location_id="s2", x=1e308)],
          "actors": [{"entity_class": "h", "itinerary": [["s1", 5.0], ["s2", 5.0]]}]}, [],
         "actor 'T0': itinerary time overflows"),
    ], ids=["top_level_list", "noise_list", "empty_itinerary", "nan_dwell", "nan_period",
            "negative_seed", "negative_seed_flag", "nan_jitter", "zones_a_float_range_apart"])
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
        zones.write_text(json.dumps([dict(ZONE, x=value)]))
        rc = main(["detect", "--tracks", str(tracks), "--zones", str(zones),
                   "--out", str(tmp_path / "d.csv")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "zone #0: " in err and "non-finite coordinate" in err
        assert err.count("\n") == 1

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
        assert "zone_box has a negative width or height" in err
        assert err.count("\n") == 1
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
        assert captured.err == ("trackmine rank: matrix CSV line 2: field larger than field "
                                "limit (131072)\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("algorithm, entry, message", [
        ("gradient", "1e200", "matrix has a non-finite entry"),
        ("hits_pm_norm", "1e200", "matrix has a non-finite entry"),
        ("pagerank_norm", "1e308", "link matrix column sum is past the float range"),
    ])
    def test_matrix_past_the_float_range_is_data_error(self, tmp_path, capsys, algorithm,
                                                       entry, message):
        # finite entries whose products or column sums overflow: one line, no warning
        matrix = tmp_path / "m.csv"
        matrix.write_text(f",x_1,x_2\nx_1,{entry},{entry}\nx_2,{entry},{entry}\n")
        rc = main(["rank", "--matrix", str(matrix), "--algorithm", algorithm, "--json"])
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
        assert captured.err.startswith("trackmine rank: convergence failure: dominant "
                                       "eigenvector residual inf exceeds tol=")
        assert captured.err.count("\n") == 1

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
            "zones": [dict(ZONE, x="nan")],
            "actors": [{"entity_class": "h", "itinerary": [["s1", 5.0]]}],
        }))
        rc = main(["simulate", "--scenario", str(scenario),
                   "--out-tracks", str(tmp_path / "t.csv"), "--out-truth", str(tmp_path / "g.csv")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "scenario.json: bad scenario: " in err and "non-finite coordinate" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("ts", ["2024/13/15/10:00:00", "2024-02-30T10:00:00"],
                             ids=["month_13", "feb_30_iso"])
    def test_out_of_range_timestamp_is_data_error(self, tmp_path, capsys, ts):
        log = tmp_path / "f.log"
        log.write_text(LOG_TEXT + f"EL1: {{s1, (a,b), {ts}}}\n")
        rc = main(["cycles", "--log", str(log), "--anchor", "s1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"trackmine cycles: line 6: unparseable timestamp {ts!r}\n"

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
        assert err.startswith("trackmine gantt: line 1: ") and err.count("\n") == 1

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
        assert err.startswith("trackmine gantt: line 1: ") and err.count("\n") == 1
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
        assert err == f"trackmine cycles: unparseable timestamp {bound!r}\n"


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

    @pytest.mark.parametrize("suffix", [".log", ".jsonl"])
    @pytest.mark.parametrize("location, label, message", [
        ("s(1", "EL1", "location id 's(1'"),
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
        assert err.startswith(f"trackmine detect: {message} ") and err.count("\n") == 1
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
_FUZZ_BAD = [0, -1, float("nan"), float("inf"), "1", "x", [], None, True]


def _field(draw, valid):
    return draw(st.sampled_from(valid if draw(st.integers(0, 19)) else _FUZZ_BAD))


@st.composite
def _fuzzed_scenario(draw):
    """Bytes near a scenario JSON.  Dwells, periods and coordinates come
    from small bounded sets, so that no valid scenario asks for more than
    about a thousand samples; cutting the text short may break it but never
    makes a number larger."""
    if draw(st.booleans()):
        raw, locations = {"layout": "cell19"}, ["s11", "k3"]
    else:
        locations = ["s1", "s2"]
        raw = {"zones": [{"location_id": loc, "camera_id": _field(draw, ["cam1", "cam2"]),
                          **{k: _field(draw, [0, 50, 300, 12.5]) for k in "xywh"}}
                         for loc in draw(st.sampled_from([locations, locations + ["s1"]]))]}
    raw["actors"] = [
        {"entity_class": _field(draw, ["worker-left", "big-AGV", "h"]),
         "track_id": _field(draw, ["", "T1", "T,1"]),
         "itinerary": [[_field(draw, locations), _field(draw, [0.5, 1, 2.5, 5.0])]
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
        rc, _ = run(capsys, "merge", occ_file, occ_file, "--out", merged)
        assert rc == 0
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
