"""The three workloads: seeded input generators, the in-process chains
that are timed, and the same chains run as ``trackmine`` subprocesses.

Inputs are made only from the seed, written under a work directory, and
read back by the chains, so trackmine sees files, as a user's run does.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from trackmine import eventlog, events, procnet, ranking, sim

ALGORITHMS = ("gradient", "hits_pm_norm", "pagerank_norm")
TOP_K = 10
MATCH_WINDOW = 2.0
CELL_CLASSES = ("worker-left", "worker-right", "big-AGV", "small-AGV")
SWEEP_CLASSES = ("worker-left", "worker-right", "worker", "big-AGV", "small-AGV")
SWEEP_FANOUT = 5  # successors of each node in rank_sweep's process
SIMULTANEOUS = 0.15  # share of rank_sweep events recorded together with the previous one
CELL_ANCHOR = "s11"
LEADER = 1  # the worker-right actor, whose every other stop is CELL_ANCHOR
LEADER_DWELL = (7.0, 5.0)  # its dwell at CELL_ANCHOR and at its other stops, s
LOG_ANCHOR = "L01"
LOG_LEADER_STEP = 10  # s between two stops of log_io's track T0
LOG_EPOCH = datetime(2024, 8, 15)
TS_FMT = "%Y/%m/%d/%H:%M:%S"


INPUT_FILES = {
    "cell_shift": {"scenario": "scenario.json", "tracks": "tracks.csv", "zones": "zones.json",
                   "truth": "truth.csv"},
    "rank_sweep": {"log": "sweep.log"},
    "log_io": {"occurrences": "occurrences.csv", "truth": "truth.csv"},
}
ANCHORS = {"cell_shift": f"^{CELL_ANCHOR}$", "rank_sweep": r"^s1$", "log_io": f"^{LOG_ANCHOR}$"}


@dataclass
class Workload:
    name: str
    anchor: str
    files: dict[str, str]  # role -> path of a generated input file
    occurrences: list | None = None  # log_io's stream, loaded before timing
    truth: list | None = None


def input_paths(name, workdir) -> dict[str, str]:
    return {role: os.path.join(workdir, f) for role, f in INPUT_FILES[name].items()}


def load_workload(name, workdir) -> Workload:
    """The generated inputs as the chains take them."""
    wl = Workload(name, ANCHORS[name], input_paths(name, workdir))
    if name == "log_io":
        wl.occurrences = events.load_occurrences_csv(wl.files["occurrences"])
        wl.truth = events.load_occurrences_csv(wl.files["truth"])
    return wl


# ---------------------------------------------------------------------------
# input generators


def _write_occurrences(path, occurrences):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["location_id", "entity_class", "track_id", "start_time"])
        for o in occurrences:
            w.writerow([o.location_id, o.entity_class, o.track_id or "", repr(o.start_time)])


def make_cell_shift(seed, workdir, ops, actors=16, stops=200):
    """Simulated cell: detection tracks of workers and AGVs on the 19-zone
    two-camera layout.  The actors visit random zones, except that one
    worker returns to s11, where a cycle starts, every other stop, with
    fixed dwells; so each seed has about the same number of cycles, of
    about the same lengths."""
    rng = np.random.default_rng([seed, 1])
    zones = sim.cell_layout()
    others = sorted({z.location_id for z in zones} - {CELL_ANCHOR})
    actor_specs = []
    for i in range(actors):
        itinerary, prev = [], None
        for k in range(stops):
            if i == LEADER and k % 2 == 0:
                loc, dwell = CELL_ANCHOR, LEADER_DWELL[0]
            else:
                loc = prev
                while loc == prev:
                    loc = others[int(rng.integers(len(others)))]
                dwell = LEADER_DWELL[1] if i == LEADER else rng.uniform(2.0, 10.0)
            itinerary.append([loc, round(float(dwell), 3)])
            prev = loc
        actor_specs.append(
            {"entity_class": CELL_CLASSES[i % len(CELL_CLASSES)], "track_id": f"T{i}",
             "itinerary": itinerary}
        )
    scenario = {
        "layout": "cell19",
        "actors": actor_specs,
        "noise": {"jitter": 2.0, "dropout": 0.05},
        "sample_period": 1.0,
        "seed": seed,
    }
    files = input_paths("cell_shift", workdir)
    with open(files["scenario"], "w") as fh:
        json.dump(scenario, fh)
    sc = sim.Scenario(
        zones=zones,
        actors=[sim.Actor(a["entity_class"], tuple((l, d) for l, d in a["itinerary"]),
                          a["track_id"]) for a in actor_specs],
        jitter=2.0, dropout=0.05, sample_period=1.0, seed=seed,
    )
    samples, truth = ops.call("sim.simulate", sim.simulate, sc)
    with open(files["tracks"], "w") as fh:
        fh.write("camera_id,time,entity_class,track_id,x,y,w,h\n")
        for s in samples:
            fh.write(f"{s.camera_id},{s.time!r},{s.entity_class},{s.track_id},"
                     f"{s.box.x!r},{s.box.y!r},{s.box.w!r},{s.box.h!r}\n")
    zone_rows = [{"location_id": z.location_id, "camera_id": z.camera_id, "x": z.box.x,
                  "y": z.box.y, "w": z.box.w, "h": z.box.h, "category": z.category}
                 for z in zones]
    with open(files["zones"], "w") as fh:
        json.dump(zone_rows, fh)
    _write_occurrences(files["truth"], truth)
    return {"sim.samples": len(samples)}


def make_rank_sweep(seed, workdir, ops, cycles=200):
    """Text event log of production cycles, each opening with a record at s1.

    The node sequence of every cycle is a walk on the plant's process, a
    sparse Markov chain over (location, role) nodes; chain and walks are the
    same for every seed, so each seed ranks the same set of networks.  The
    seed draws the order of the cycles, the entity behind each event, which
    adjacent events share a record and the times.  Ranking cost is
    heavy-tailed: a few cycles whose top eigenvalue is (nearly) repeated take
    most of the iterations, so with seed-drawn walks the median time per
    cycle moved by up to a quarter from one seed to the next.
    """
    model = np.random.default_rng(0)
    locs = [f"s{i}" for i in range(2, 42)]  # s1 is the anchor only
    n_states = len(locs) * len(SWEEP_CLASSES)
    succ = model.integers(n_states, size=(n_states, SWEEP_FANOUT))
    # skewed successor weights: each node has one or two usual successors
    weights = model.dirichlet(np.full(SWEEP_FANOUT, 0.5), size=n_states)
    walks = []
    for _ in range(cycles):
        state, walk = int(model.integers(n_states)), []
        for _ in range(int(model.integers(30, 91))):  # about 60 events a cycle
            walk.append(state)
            state = int(succ[state, model.choice(SWEEP_FANOUT, p=weights[state])])
        walks.append((SWEEP_CLASSES[int(model.integers(len(SWEEP_CLASSES)))], walk))

    rng = np.random.default_rng([seed, 2])
    tracks = {cls: [f"{cls[0].upper()}{j}" for j in range(3)] for cls in SWEEP_CLASSES}
    lines, t = [], 0
    for i in rng.permutation(cycles):
        anchor_cls, walk = walks[i]
        records = [[("s1", tracks[anchor_cls][0], anchor_cls)]]
        for state in walk:
            cls = SWEEP_CLASSES[state % len(SWEEP_CLASSES)]
            ev = (locs[state // len(SWEEP_CLASSES)], tracks[cls][int(rng.integers(3))], cls)
            if len(records) > 1 and len(records[-1]) == 1 and rng.random() < SIMULTANEOUS:
                records[-1].append(ev)
            else:
                records.append([ev])
        for group in records:
            t += int(rng.integers(1, 6))
            lines.append(_record_line(group, LOG_EPOCH + timedelta(seconds=t)))
    with open(input_paths("rank_sweep", workdir)["log"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return {}


def _record_line(group, ts):
    """One canonical record; events at one location share its group."""
    by_loc: dict[str, list[str]] = {}
    for loc, entity, prop in group:
        by_loc.setdefault(loc, []).append(f"({entity},{prop})")
    body = "; ".join(", ".join([loc] + ents) for loc, ents in by_loc.items())
    return f"EL1: {{{body}, {ts.strftime(TS_FMT)}}}"


def make_log_io(seed, workdir, ops, tracks=30, per_track=200):
    """Occurrence stream of tracked entities at 40 locations (whole-second
    starts) plus a ground truth that is the same stream jittered in time
    (sigma 0.7 s), 5% dropped.  Track T0 stops every LOG_LEADER_STEP
    seconds and is at L01, where a cycle starts, every other stop; no other
    track goes there.  So every seed has the same number of cycles, each
    as long in time."""
    rng = np.random.default_rng([seed, 3])
    locs = [f"L{i:02d}" for i in range(1, 41)]
    others = locs[1:]
    occurrences = []
    for j in range(tracks):
        cls, t = CELL_CLASSES[j % len(CELL_CLASSES)], int(rng.integers(0, 30))
        for k in range(per_track):
            if j == 0:
                t += LOG_LEADER_STEP
                loc = LOG_ANCHOR if k % 2 == 0 else others[int(rng.integers(len(others)))]
            else:
                t += int(rng.integers(3, 21))
                loc = others[int(rng.integers(len(others)))]
            occurrences.append(events.Occurrence(float(t), loc, cls, f"T{j}"))
    occurrences.sort()
    keep = rng.random(len(occurrences)) >= 0.05
    shift = rng.normal(0.0, 0.7, len(occurrences))
    truth = sorted(
        events.Occurrence(o.start_time + float(d), o.location_id, o.entity_class, o.track_id)
        for o, k, d in zip(occurrences, keep, shift) if k
    )
    files = input_paths("log_io", workdir)
    _write_occurrences(files["occurrences"], occurrences)
    _write_occurrences(files["truth"], truth)
    return {}


# each writes a workload's inputs under workdir and returns the counts only
# generation knows
GENERATORS = {"cell_shift": make_cell_shift, "rank_sweep": make_rank_sweep,
              "log_io": make_log_io}


# ---------------------------------------------------------------------------
# in-process chains


@dataclass
class ChainOutput:  # what one run of a chain produced, for checks and digests
    occurrences: list | None = None
    logs: dict = field(default_factory=dict)  # name -> EventLog, for round-trip checks
    cycles: list = field(default_factory=list)
    nets: list = field(default_factory=list)
    matrices: list = field(default_factory=list)
    rankings: list = field(default_factory=list)  # per cycle: {alg: RankingResult}
    cycle_times: list = field(default_factory=list)  # (start, end) of each cycle
    precision: float | None = None
    recall: float | None = None
    counts: dict = field(default_factory=dict)
    texts: dict = field(default_factory=dict)


def _read(ops, path):
    def read(p):
        with open(p) as fh:
            return fh.read()
    return ops.call("io.read", read, path)


def _write(ops, path, text):
    def write(p, t):
        with open(p, "w") as fh:
            fh.write(t)
    ops.call("io.write", write, path, text)


def rank_cycles(ops, cycles, out):
    """Per cycle: DFG, link matrix, all three rankings, top-k diff against
    the previous cycle.  A failed call skips the rest of its cycle."""
    tracer = ops.tracer
    prev_top = None
    for cycle in cycles:
        t0 = time.perf_counter()
        results = {}
        with tracer.span("cycle"):
            try:
                net = ops.call("procnet.build_dfg", procnet.build_dfg, cycle)
                lm = ops.call("procnet.link_matrix", procnet.link_matrix, net)
                for alg in ALGORITHMS:
                    ranked, result, _ = ops.call(f"ranking.{alg}", ranking.rank_nodes, lm,
                                                 algorithm=alg, k=TOP_K)
                    results[alg] = result
                    if alg == "gradient":
                        top = [lbl for lbl, _ in ranked]
                if prev_top is not None:
                    k = min(TOP_K, len(prev_top), len(top))
                    ops.call("ranking.compare", ranking.compare_topk, prev_top, top, k)
                prev_top = top
            except Exception:
                net = lm = None
        out.cycle_times.append((t0, time.perf_counter()))
        out.nets.append(net)
        out.matrices.append(lm)
        out.rankings.append(results)


def chain_cell_shift(ops, wl, workdir):
    out = ChainOutput()
    cfg = events.DetectionConfig()
    samples = ops.call("events.load_tracks", events.load_tracks_csv, wl.files["tracks"])
    zones = ops.call("events.load_zones", events.load_zones_json, wl.files["zones"])
    streams = []
    # the per-camera split that the CLI's detect does; timed with events
    with ops.tracer.span("events.split"):
        cams = sorted({z.camera_id for z in zones})
        per_cam = {c: [s for s in samples if s.camera_id == c] for c in cams}
    for cam in cams:
        cam_zones = [z for z in zones if z.camera_id == cam]
        streams.append(ops.call("events.detect", events.detect_events, per_cam[cam],
                                cam_zones, cfg))
    occ = ops.call("events.merge", events.merge_camera_streams, streams, cfg.dedup_window)
    log = ops.call("eventlog.to_log", eventlog.occurrences_to_log, occ, label="EL1")
    text = ops.call("eventlog.serialize", eventlog.serialize_log, log)
    path = os.path.join(workdir, "events.log")
    _write(ops, path, text)
    parsed = ops.call("eventlog.parse", eventlog.parse_log, _read(ops, path))
    cycles = ops.call("eventlog.segment", eventlog.segment_cycles, parsed, anchor=wl.anchor)
    rank_cycles(ops, cycles, out)
    truth = ops.call("events.load_occurrences", events.load_occurrences_csv, wl.files["truth"])
    out.precision = ops.call("eventlog.precision", eventlog.precision, occ, truth, MATCH_WINDOW)
    out.recall = ops.call("eventlog.precision", eventlog.precision, truth, occ, MATCH_WINDOW)
    out.occurrences, out.cycles = occ, cycles
    out.logs = {"built": log, "text": parsed}
    out.texts = {"log": text}
    out.counts = {
        "events.samples": len(samples),
        "events.occurrences": len(occ),
        "events.stream_occurrences": sum(len(s) for s in streams),
        "eventlog.records": len(parsed.records),
        "eventlog.cycles": len(cycles),
    }
    return out


def chain_rank_sweep(ops, wl, workdir):
    out = ChainOutput()
    parsed = ops.call("eventlog.parse", eventlog.parse_log, _read(ops, wl.files["log"]))
    cycles = ops.call("eventlog.segment", eventlog.segment_cycles, parsed, anchor=wl.anchor)
    rank_cycles(ops, cycles, out)
    out.cycles = cycles
    out.logs = {"text": parsed}
    out.counts = {"eventlog.records": len(parsed.records), "eventlog.cycles": len(cycles)}
    return out


def _export_cycle(cycle):
    """One cycle's own files: text log, JSON lines and a Gantt chart."""
    part = eventlog.EventLog(cycle.records, label="EL1")
    return (eventlog.serialize_log(part), eventlog.log_to_jsonl(part),
            eventlog.gantt(part, "location"))


def chain_log_io(ops, wl, workdir):
    """Write side, read side, cycle split with a per-cycle export,
    occurrence CSV round trip, precision both ways."""
    out = ChainOutput()
    log = ops.call("eventlog.to_log", eventlog.occurrences_to_log, wl.occurrences, label="EL1")
    text = ops.call("eventlog.serialize", eventlog.serialize_log, log)
    jsonl = ops.call("eventlog.jsonl_write", eventlog.log_to_jsonl, log)
    paths = {k: os.path.join(workdir, f"io.{k}") for k in ("log", "jsonl", "loc.svg", "ent.svg")}
    _write(ops, paths["log"], text)
    _write(ops, paths["jsonl"], jsonl)
    _write(ops, paths["loc.svg"], ops.call("eventlog.gantt", eventlog.gantt, log, "location"))
    _write(ops, paths["ent.svg"], ops.call("eventlog.gantt", eventlog.gantt, log, "entity"))
    parsed = ops.call("eventlog.parse", eventlog.parse_log, _read(ops, paths["log"]))
    parsed_j = ops.call("eventlog.jsonl_read", eventlog.log_from_jsonl,
                        _read(ops, paths["jsonl"]), label="EL1")
    cycles = ops.call("eventlog.segment", eventlog.segment_cycles, parsed, anchor=wl.anchor)
    for cycle in cycles:
        t0 = time.perf_counter()
        with ops.tracer.span("cycle"):
            try:
                ops.call("eventlog.cycle_export", _export_cycle, cycle)
            except Exception:
                pass
        out.cycle_times.append((t0, time.perf_counter()))
    occ_path = os.path.join(workdir, "io.occurrences.csv")
    ops.call("events.write_occurrences", events.write_occurrences_csv, occ_path, wl.occurrences)
    loaded = ops.call("events.load_occurrences", events.load_occurrences_csv, occ_path)
    out.precision = ops.call("eventlog.precision", eventlog.precision, loaded, wl.truth,
                             MATCH_WINDOW)
    out.recall = ops.call("eventlog.precision", eventlog.precision, wl.truth, loaded,
                          MATCH_WINDOW)
    out.occurrences, out.cycles = loaded, cycles
    out.logs = {"built": log, "text": parsed, "jsonl": parsed_j}
    out.texts = {"log": text, "jsonl": jsonl}
    out.counts = {"events.occurrences": len(loaded), "eventlog.records": len(parsed.records),
                  "eventlog.cycles": len(cycles)}
    return out


CHAINS = {"cell_shift": chain_cell_shift, "rank_sweep": chain_rank_sweep,
          "log_io": chain_log_io}


# ---------------------------------------------------------------------------
# the same chains as trackmine subprocesses


def cli_steps(wl, workdir):
    """(subcommand, argv) pairs, run in order."""
    j = lambda name: os.path.join(workdir, name)  # noqa: E731
    f = wl.files
    window = ["--window", str(MATCH_WINDOW)]
    if wl.name == "log_io":  # reads what the in-process chain wrote
        return [
            ("gantt", ["--log", j("io.log"), "--lane-key", "location",
                       "--out", j("cli.location.svg"), "--json"]),
            ("gantt", ["--log", j("io.log"), "--lane-key", "entity",
                       "--out", j("cli.entity.svg"), "--json"]),
            ("precision", ["--detected", f["occurrences"], "--truth", f["truth"], *window]),
            ("precision", ["--detected", f["truth"], "--truth", f["occurrences"], *window]),
            ("cycles", ["--log", j("io.log"), "--anchor", wl.anchor, "--json"]),
        ]
    steps = []
    log = f.get("log", j("cli.events.log"))
    if wl.name == "cell_shift":
        tracks, zones, truth = j("cli.tracks.csv"), j("cli.zones.json"), j("cli.truth.csv")
        steps = [
            ("simulate", ["--scenario", f["scenario"], "--out-tracks", tracks,
                          "--out-truth", truth, "--out-zones", zones, "--json"]),
            # detect writes a CSV or a log, not both: precision needs the CSV
            ("detect", ["--tracks", tracks, "--zones", zones, "--out", j("cli.detected.csv"),
                        "--json"]),
            ("precision", ["--detected", j("cli.detected.csv"), "--truth", truth, *window]),
            ("detect", ["--tracks", tracks, "--zones", zones, "--out", log, "--json"]),
        ]
    return steps + [
        ("cycles", ["--log", log, "--anchor", wl.anchor, "--json"]),
        ("dfg", ["--log", log, "--anchor", wl.anchor, "--cycle", "1",
                 "--out-matrix", j("cli.L.csv"), "--json"]),
    ] + [
        ("rank", ["--matrix", j("cli.L.csv"), "--algorithm", alg, "--k", str(TOP_K), "--json"])
        for alg in ALGORITHMS
    ]


CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")


def run_cli(ops, wl, workdir, env, speed=None):
    """Runs every step; returns [(subcommand, parsed JSON stdout)].  Each
    step runs under ``cli_child.py``, whose speed readings go into ``speed``
    when given."""
    out = []
    readings = os.path.join(workdir, "cli.readings.json")
    for sub, argv in cli_steps(wl, workdir):
        proc = ops.call(f"cli.{sub}", subprocess.run,
                        [sys.executable, CLI_CHILD, readings, sub, *argv],
                        env=env, capture_output=True, text=True, timeout=120)
        if speed is not None and os.path.exists(readings):
            with open(readings) as fh:
                speed.merge(**json.load(fh))
            os.remove(readings)
        if proc.returncode != 0:
            ops.failed += 1
            ops.errors.append(f"cli {sub}: exit {proc.returncode}: {proc.stderr.strip()}")
            out.append((sub, None))
            continue
        out.append((sub, json.loads(proc.stdout.strip().splitlines()[-1])))
    return out
