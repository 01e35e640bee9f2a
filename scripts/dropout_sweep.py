#!/usr/bin/env python3
"""Sweep detector dropout probability and report mean event-detection
precision over many seeds.

Usage: python scripts/dropout_sweep.py [--seeds N] [--out sweep.csv]
"""

import argparse
import csv

import numpy as np

from trackmine.eventlog import DetectionConfig
from trackmine.events import detect_streams
from trackmine.occurrences import precision
from trackmine.sim import Actor, Scenario, cell_layout, simulate

DROPOUTS = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35]


def scenario(dropout, seed):
    return Scenario(
        zones=cell_layout(),
        actors=[
            Actor("worker-right", (("s11", 6.0), ("s14", 8.0), ("k3", 5.0),
                                   ("s15", 7.0), ("s17", 5.0))),
            Actor("worker-left", (("s21", 6.0), ("s23", 9.0), ("k3", 5.0),
                                  ("s27", 6.0), ("s22", 5.0))),
            Actor("big-AGV", (("s23", 10.0), ("s12", 8.0))),
            Actor("small-AGV", (("s14", 10.0), ("k3", 6.0))),
        ],
        dropout=dropout,
        seed=seed,
    )


def run_one(sc, cfg):
    samples, truth = simulate(sc)
    return precision(detect_streams(samples, sc.zones, cfg), truth, match_window=2.0)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=25)
    parser.add_argument("--out", default=None, help="optional CSV output path")
    args = parser.parse_args()

    cfg = DetectionConfig()
    rows = []
    print(f"{'dropout':>8} {'mean precision':>15} {'std':>8}")
    for dropout in DROPOUTS:
        values = [run_one(scenario(dropout, seed), cfg) for seed in range(args.seeds)]
        mean, std = float(np.mean(values)), float(np.std(values))
        rows.append((dropout, mean, std))
        print(f"{dropout:>8.2f} {mean:>15.4f} {std:>8.4f}")

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dropout", "mean_precision", "std"])
            writer.writerows(rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
