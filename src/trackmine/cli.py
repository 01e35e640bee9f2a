"""Command-line pipeline: tracks -> events -> logs -> cycles -> network -> rankings.

Importing this module loads only what every subcommand needs.  ``dfg``,
``rank``, ``compare`` and ``tables`` import ``procnet`` themselves;
``detect``, ``rank``, ``simulate`` and ``tables`` import the numpy layers
(``events``, ``ranking``, ``sim``); the others run without numpy."""

from __future__ import annotations

import argparse
import json
import sys

from . import eventlog
from .errors import ConvergenceError, DataError, TrackmineError
from .eventlog import write_atomic

EXIT_OK = 0
EXIT_DATA = 3
EXIT_CONVERGENCE = 4

# the two worked link matrices used by the `tables` subcommand
BUILTIN_MATRICES = {
    "L0": [
        [1.01, 0.01, 0.00],
        [0.01, 1.00, 0.00],
        [0.00, 0.00, 0.90],
    ],
    "L1": [
        [1.01, 0.01, 0.00, 0.01],
        [0.01, 1.00, 0.00, 0.02],
        [0.00, 0.00, 0.90, 1.00],
        [0.01, 0.01, 0.02, 0.05],
    ],
}


def _builtin_lm(name: str):
    from . import procnet
    values = BUILTIN_MATRICES[name]
    labels = [procnet.NodeLabel("x", str(i + 1)) for i in range(len(values))]
    return procnet.LinkMatrix(labels=labels, values=values)


def _read_log(path: str) -> eventlog.EventLog:
    text = eventlog.read_text(path)
    try:
        if path.endswith(".jsonl"):
            return eventlog.log_from_jsonl(text)
        return eventlog.parse_log(text)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _write_log(path: str, log: eventlog.EventLog) -> None:
    if path.endswith(".jsonl"):
        write_atomic(path, eventlog.log_to_jsonl(log))
    else:
        write_atomic(path, eventlog.serialize_log(log))


def _detection_config(args) -> eventlog.DetectionConfig:
    cls = eventlog.DetectionConfig
    return cls(**{name: getattr(args, name) for name in cls._fields})


def _add_detection_flags(p, *names):
    defaults = eventlog.DetectionConfig._field_defaults
    for name in names or defaults:
        p.add_argument("--" + name.replace("_", "-"), type=float, dest=name, default=defaults[name])


def _add_split_flags(p):
    split = p.add_mutually_exclusive_group()
    split.add_argument("--anchor")
    split.add_argument("--boundaries")


def _cycles_from_args(args, log):
    if args.boundaries is not None:
        try:
            bounds = [eventlog.to_datetime(eventlog.parse_time(b))
                      for b in args.boundaries.split(",")]
        except DataError as exc:
            raise DataError(f"--boundaries: {exc}") from None
        return eventlog.segment_cycles(log, boundaries=bounds)
    if args.anchor is not None:
        return eventlog.segment_cycles(log, anchor=args.anchor)
    raise DataError("either --anchor or --boundaries is required")


def _cycle_from_args(args, log):
    cycles = _cycles_from_args(args, log)
    if not 1 <= args.cycle <= len(cycles):
        raise DataError(f"no cycle with index {args.cycle}; found {len(cycles)} cycles")
    return cycles[args.cycle - 1]


def _report_json(ranked, result, stats):
    return {
        "algorithm": result.algorithm,
        "alpha": result.alpha,
        "kind": result.matrix_kind,
        "scores": [{"node": lbl.render(), "value": value} for lbl, value in ranked],
        "entropy": stats.shannon_entropy,
        "participation_ratio": stats.participation_ratio,
        "iterations": result.iterations,
        "residual": result.residual,
        "multiplicity": result.multiplicity,
    }


# ---------------------------------------------------------------------------
# subcommands: each returns its --json report, or None if it printed its own, or raises

def cmd_detect(args):
    from . import events
    cfg = _detection_config(args)
    samples = events.load_tracks_csv(args.tracks)
    zones = events.load_zones_json(args.zones)
    occurrences = events.detect_streams(samples, zones, cfg)
    if args.out.endswith(".csv"):
        eventlog.write_occurrences_csv(args.out, occurrences)
    else:
        _write_log(args.out, eventlog.occurrences_to_log(occurrences, label=args.label))
    return {"samples": len(samples), "zones": len(zones), "occurrences": len(occurrences),
            "out": args.out}


def cmd_merge(args):
    streams = [eventlog.load_occurrences_csv(p) for p in args.inputs]
    merged = eventlog.merge_camera_streams(streams, args.dedup_window)
    eventlog.write_occurrences_csv(args.out, merged)
    return {"occurrences": len(merged), "out": args.out}


def cmd_gantt(args):
    log = _read_log(args.log)
    write_atomic(args.out, eventlog.gantt(log, lane_key=args.lane_key))
    lanes = {eventlog.gantt_lane(g, e, args.lane_key)
             for r in log.records for g in r.groups for e in g.entities}
    return {"out": args.out, "lanes": len(lanes)}


def cmd_cycles(args):
    log = _read_log(args.log)
    cycles = _cycles_from_args(args, log)
    payload = [
        {"index": c.index, "records": len(c.records), "cycle_time": c.cycle_time}
        for c in cycles
    ]
    print(json.dumps({"label": log.label, "cycles": payload}, indent=None if args.json else 2))


def cmd_dfg(args):
    from . import procnet
    cycle = _cycle_from_args(args, _read_log(args.log))
    net = procnet.build_dfg(cycle)
    if args.out_matrix:
        write_atomic(args.out_matrix, procnet.matrix_to_csv(net))
    if args.out_dot:
        write_atomic(args.out_dot, procnet.network_to_dot(net))
    return {
        "cycle": cycle.index,
        "nodes": [lbl.render() for lbl in net.nodes],
        "edges": len(net.edges),
        "events": sum(net.activities.values()),
    }


def cmd_rank(args):
    from . import procnet, ranking
    if args.matrix is not None:
        lm = procnet.load_matrix_csv(args.matrix)
    else:
        cycle = _cycle_from_args(args, _read_log(args.log))
        lm = procnet.link_matrix(procnet.build_dfg(cycle))
    ranked, result, stats = ranking.rank_nodes(
        lm,
        algorithm=args.algorithm,
        kind=args.kind,
        alpha=args.alpha,
        k=args.k,
    )
    report = _report_json(ranked, result, stats)
    if args.out:
        write_atomic(args.out, json.dumps(report, indent=2) + "\n")
    elif not args.json:
        print(json.dumps(report))
    return report


def _read_node_list(path: str) -> list[str]:
    if not path.endswith(".json"):
        return [line.strip() for line in eventlog.read_text(path).splitlines() if line.strip()]
    data = eventlog.load_json(path)
    try:
        if isinstance(data, dict) and "scores" in data:
            data = [entry["node"] for entry in data["scores"]]
    except (KeyError, TypeError) as exc:
        reason = eventlog._reason(exc)
        raise DataError(f"{path} is not a node list or rank report: {reason}") from None
    if not (isinstance(data, list) and all(isinstance(x, str) for x in data)):
        raise DataError(f"{path} is not a list of node strings or a rank report")
    return data


def cmd_compare(args):
    from . import procnet
    a = _read_node_list(args.a)
    b = _read_node_list(args.b)
    result = procnet.compare_topk(a, b, args.k)
    sets = {key: sorted(result[key]) for key in ("common", "only_a", "only_b")}
    print(json.dumps({**sets, "jaccard": result["jaccard"]}))


def cmd_precision(args):
    detected = eventlog.load_occurrences_csv(args.detected)
    truth = eventlog.load_occurrences_csv(args.truth)
    value = eventlog.precision(detected, truth, args.window)
    print(json.dumps({"precision": value, "detected": len(detected), "truth": len(truth)}))


def cmd_simulate(args):
    from . import events, sim
    sc = sim.scenario_from_json(args.scenario)
    if args.seed is not None:
        sc = sim.Scenario(*sc._replace(seed=args.seed))  # _replace alone skips the checks
    samples, truth = sim.simulate(sc, min_duration=args.min_duration)
    eventlog.write_occurrences_csv(args.out_truth, truth)
    write_atomic(args.out_tracks, events.tracks_to_csv(samples))
    if args.out_zones:
        write_atomic(args.out_zones, events.zones_to_json(sc.zones))
    return {"samples": len(samples), "truth": len(truth)}


def cmd_tables(args):
    from . import ranking
    columns = [  # (JSON key, text header, ranking)
        ("gradient", "gradient", ranking.gradient_ranking),
        ("hits_pm_norm_0.8", "hits a=0.8", lambda lm: ranking.hits_pm_norm(lm, alpha=0.8)),
        ("hits_pm_norm_0.3", "hits a=0.3", lambda lm: ranking.hits_pm_norm(lm, alpha=0.3)),
        ("pagerank_norm_0.8", "pagerank a=0.8", lambda lm: ranking.pagerank_norm(lm, alpha=0.8)),
    ]
    rows = {}
    for name in ("L0", "L1"):
        lm = _builtin_lm(name)
        rows[name] = {"nodes": [lbl.render() for lbl in lm.labels]}
        for key, _, solve in columns:
            scores = solve(lm).scores
            rows[name][key] = [scores[lbl] for lbl in lm.labels]
    if args.json:
        return rows
    for name, table in rows.items():
        print(f"link matrix {name}")
        print("  " + "  ".join(f"{h:>14}" for h in ["node"] + [h for _, h, _ in columns]))
        for i, node in enumerate(table["nodes"]):
            cells = "  ".join(f"{table[key][i]:>14.6e}" for key, _, _ in columns)
            print("  " + f"{node:>14}" + "  " + cells)
        print()


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackmine",
        description="Mine camera detection tracks into event logs, process networks "
        "and spectral node rankings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="tracks CSV + zones JSON -> event log")
    p.add_argument("--tracks", required=True)
    p.add_argument("--zones", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label", default="EL1")
    _add_detection_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("merge", help="merge occurrence CSV streams")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", required=True)
    _add_detection_flags(p, "dedup_window")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("gantt", help="event log -> SVG start-time chart")
    p.add_argument("--log", required=True)
    p.add_argument("--lane-key", choices=["location", "entity"], default="location",
                   dest="lane_key")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gantt)

    p = sub.add_parser("cycles", help="segment an event log into cycles")
    p.add_argument("--log", required=True)
    _add_split_flags(p)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("dfg", help="mine the directly-follows network of one cycle")
    p.add_argument("--log", required=True)
    _add_split_flags(p)
    p.add_argument("--cycle", type=int, default=1)
    p.add_argument("--out-matrix", dest="out_matrix")
    p.add_argument("--out-dot", dest="out_dot")
    p.set_defaults(func=cmd_dfg)

    p = sub.add_parser("rank", help="rank nodes of a cycle network or matrix CSV")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix")
    source.add_argument("--log")
    _add_split_flags(p)
    p.add_argument("--cycle", type=int, default=1)
    p.add_argument("--algorithm", choices=["gradient", "hits_pm_norm", "pagerank_norm"],
                   default="gradient")
    p.add_argument("--kind", choices=["authority", "hub"], default="authority")
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("compare", help="top-k overlap between two ranked node lists")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("precision", help="detected vs ground-truth occurrence streams")
    p.add_argument("--detected", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--window", type=float, default=2.0)
    p.set_defaults(func=cmd_precision)

    p = sub.add_parser("simulate", help="run a scenario JSON into tracks + ground truth")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-tracks", required=True, dest="out_tracks")
    p.add_argument("--out-truth", required=True, dest="out_truth")
    p.add_argument("--out-zones", dest="out_zones")
    p.add_argument("--seed", type=int)
    _add_detection_flags(p, "min_duration")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tables", help="score the built-in worked matrices with all "
                       "three algorithms")
    p.set_defaults(func=cmd_tables)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except ConvergenceError as exc:
        print(f"trackmine {args.command}: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (TrackmineError, OSError) as exc:
        print(f"trackmine {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    if args.json and report is not None:
        print(json.dumps(report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
