#!/usr/bin/env python3
"""End-to-end demo: simulate a cell scenario, detect events, build the
event log, chart it, mine the directly-follows network of one cycle and
rank its nodes with all three algorithms.

Usage: python scripts/demo_pipeline.py [--outdir demo_out]
"""

import argparse
import json
import os

from trackmine.cli import main as cli

SCENARIO = {
    "layout": "cell19",
    "actors": [
        {"entity_class": "worker-right",
         "itinerary": [["s11", 6.0], ["s14", 8.0], ["k3", 5.0], ["s15", 7.0],
                       ["s11", 6.0], ["s17", 5.0]]},
        {"entity_class": "worker-left",
         "itinerary": [["s21", 6.0], ["s23", 9.0], ["k3", 5.0], ["s27", 6.0],
                       ["s22", 5.0]]},
        {"entity_class": "big-AGV", "itinerary": [["s23", 10.0], ["s12", 8.0]]},
        {"entity_class": "small-AGV", "itinerary": [["s14", 10.0], ["k3", 6.0]]},
    ],
    "sample_period": 1.0,
    "seed": 7,
}


def step(argv):
    print("+ trackmine " + " ".join(argv))
    rc = cli(argv)
    if rc != 0:
        raise SystemExit(rc)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--outdir", default="demo_out")
    args = parser.parse_args()
    out = args.outdir
    os.makedirs(out, exist_ok=True)

    scenario = os.path.join(out, "scenario.json")
    with open(scenario, "w", encoding="utf-8") as fh:
        json.dump(SCENARIO, fh, indent=2)

    tracks = os.path.join(out, "tracks.csv")
    truth = os.path.join(out, "truth.csv")
    zones = os.path.join(out, "zones.json")
    log = os.path.join(out, "events.log")
    detected = os.path.join(out, "detected.csv")

    step(["simulate", "--scenario", scenario, "--out-tracks", tracks,
          "--out-truth", truth, "--out-zones", zones])
    step(["detect", "--tracks", tracks, "--zones", zones, "--out", log])
    step(["detect", "--tracks", tracks, "--zones", zones, "--out", detected])
    step(["precision", "--detected", detected, "--truth", truth, "--window", "2.0"])
    step(["gantt", "--log", log, "--lane-key", "location",
          "--out", os.path.join(out, "gantt_by_location.svg")])
    step(["gantt", "--log", log, "--lane-key", "entity",
          "--out", os.path.join(out, "gantt_by_entity.svg")])
    step(["cycles", "--log", log, "--anchor", "^s11$", "--json"])
    step(["dfg", "--log", log, "--anchor", "^s11$", "--cycle", "1",
          "--out-matrix", os.path.join(out, "L1.csv"),
          "--out-dot", os.path.join(out, "network.dot"), "--json"])
    for algorithm in ("gradient", "hits_pm_norm", "pagerank_norm"):
        step(["rank", "--matrix", os.path.join(out, "L1.csv"),
              "--algorithm", algorithm, "--k", "10",
              "--out", os.path.join(out, f"rank_{algorithm}.json"), "--json"])
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
