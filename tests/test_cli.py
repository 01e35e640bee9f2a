import json

import pytest

from trackmine.cli import main

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


LOG_TEXT = """\
EL1: {s11, (E1,RP), 2024/08/15/10:00:00}
EL1: {s14, (E1,RP), 2024/08/15/10:01:00}
EL1: {s14, (E1,RP), 2024/08/15/10:02:00}
EL1: {s11, (E1,RP), 2024/08/15/10:08:30}
EL1: {k3, (E1,RP), 2024/08/15/10:10:00}
"""


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "el.log"
    path.write_text(LOG_TEXT)
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

    @pytest.mark.parametrize("text", ['["RP_s11", ', '{"scores": [{"value": 0.5}]}'],
                             ids=["malformed_json", "score_without_node"])
    def test_bad_node_list_is_data_error(self, tmp_path, capsys, text):
        a = tmp_path / "a.json"
        a.write_text(text)
        b = tmp_path / "b.txt"
        b.write_text("RP_s11\n")
        rc = main(["compare", "--a", str(a), "--b", str(b), "--k", "1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("trackmine compare: ") and err.count("\n") == 1
