"""Answer checks and output digests.

Every check adds one to ``attempted``; a failed check adds one to
``failed`` and keeps its reason.  Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from trackmine import eventlog

SOLVER_TOL = 1e-10  # rank_nodes' default tolerance
SCORE_SUM_TOL = 1e-9
# a top eigenvalue is repeated when the gap to the next one is below this
# share of it (eigvalsh's own rounding is near 1e-15 of the largest)
DEGENERATE_RTOL = 1e-9
# lower bounds on detection quality against the generator's truth
QUALITY_FLOORS = {
    "cell_shift": {"precision": 0.95, "recall": 0.85},
    "log_io": {"precision": 0.90, "recall": 0.97},
}


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def run(self, name: str, fn, *args) -> bool:
        """A check whose computation may itself raise."""
        try:
            ok, detail = fn(*args)
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        return self.check(name, ok, detail)


# ---------------------------------------------------------------------------
# digests


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(path.rsplit("/", 1)[-1].encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def ranking_json(out) -> list:
    """Every cycle's full score vectors and iteration counts."""
    rows = []
    for cycle, results in zip(out.cycles, out.rankings):
        for alg, r in sorted(results.items()):
            scores = sorted((lbl.render(), repr(v)) for lbl, v in r.scores.items())
            rows.append([cycle.index, alg, r.iterations, scores])
    return rows


def output_digest(out) -> str:
    payload = {
        "occurrences": [
            [repr(o.start_time), o.location_id, o.entity_class, o.track_id]
            for o in out.occurrences or ()
        ],
        "rankings": ranking_json(out),
        "cycles": [[c.index, len(c.records), repr(c.cycle_time)] for c in out.cycles],
        "precision": repr(out.precision),
        "recall": repr(out.recall),
        "texts": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in out.texts.items()},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# answer checks


def _round_trips(log):
    text_ok = eventlog.parse_log(eventlog.serialize_log(log)) == log
    jsonl_ok = eventlog.log_from_jsonl(eventlog.log_to_jsonl(log), label=log.label) == log
    return text_ok and jsonl_ok, f"text {text_ok}, jsonl {jsonl_ok}"


def check_logs(checker, out):
    reference = out.logs.get("built", out.logs.get("text"))
    for name, log in out.logs.items():
        if name != "built":
            checker.check(f"log.{name}_equals_built", log == reference,
                          f"{len(log.records)} vs {len(reference.records)} records")
    checker.run("log.round_trip", _round_trips, reference)


def _top_gap(values):
    """(largest eigenvalue, gap to the next, repeated?) of ascending values."""
    top = float(values[-1])
    gap = float(values[-1] - values[-2]) if len(values) > 1 else math.inf
    return top, gap, gap <= DEGENERATE_RTOL * max(abs(top), 1.0)


def _agrees(scores, lm, vec_ref, top, gap, residual):
    """Squared scores against an eigh eigenvector, within the Davis-Kahan
    bound residual / gap on the angle between the two vectors."""
    ref = {lbl: float(v) ** 2 for lbl, v in zip(lm.labels, vec_ref)}
    err = max(abs(scores[lbl] - ref[lbl]) for lbl in lm.labels)
    bound = 4.0 * (residual + 1e-13 * max(top, 1.0)) / gap + 1e-9
    return err <= bound, f"max |score - eigh| {err:.3e} > bound {bound:.3e}"


def check_rankings(checker, out, alpha=0.8) -> int:
    """Checks every cycle's DFG and rankings; returns how many cycles have
    a repeated top eigenvalue of L^T L."""
    degenerate = 0
    for cycle, net, lm, results in zip(out.cycles, out.nets, out.matrices, out.rankings):
        tag = f"cycle {cycle.index}"
        if net is None:
            continue  # its failed call is already counted
        n_events = sum(r.event_count for r in cycle.records)
        weight = sum(net.edges.values())
        checker.check("dfg.edge_weight", weight == n_events - 1,
                      f"{tag}: total edge weight {weight} for {n_events} events")
        for alg, r in results.items():
            total = sum(r.scores.values())
            checker.check("rank.score_sum", abs(total - 1.0) <= SCORE_SUM_TOL,
                          f"{tag} {alg}: squared scores sum to {total!r}")
            checker.check("rank.residual", r.residual <= SOLVER_TOL,
                          f"{tag} {alg}: residual {r.residual:.3e} > {SOLVER_TOL}")
        A = lm.values.T @ lm.values
        top, gap, repeated = _top_gap(np.linalg.eigvalsh(A))
        degenerate += repeated
        if not repeated and "gradient" in results:
            _, vecs = np.linalg.eigh(A)
            r = results["gradient"]
            checker.run("rank.gradient_vs_eigh", _agrees, r.scores, lm, vecs[:, -1], top, gap,
                        r.residual)
        if "hits_pm_norm" in results:
            n = A.shape[0]
            M = alpha * A + (1.0 - alpha) / n * np.ones((n, n))
            vals, vecs = np.linalg.eigh(M)
            top_m, gap_m, repeated_m = _top_gap(vals)
            if not repeated_m:
                r = results["hits_pm_norm"]
                checker.run("rank.hits_vs_eigh", _agrees, r.scores, lm, vecs[:, -1], top_m,
                            gap_m, r.residual)
    return degenerate


def check_quality(checker, workload, out):
    floors = QUALITY_FLOORS.get(workload, {})
    for key, floor in floors.items():
        value = getattr(out, key)
        checker.check(f"quality.{key}", value is not None and value >= floor,
                      f"{key} {value} below {floor}")


def check_chain(checker, workload, out) -> int:
    check_logs(checker, out)
    check_quality(checker, workload, out)
    return check_rankings(checker, out)


def check_cli(checker, out, cli_results, counts):
    """The subprocess chain must give the in-process chain's answers."""
    seen_precision = []
    for sub, payload in cli_results:
        if payload is None:
            continue  # the failed subprocess is already counted
        if sub == "simulate":
            checker.check("cli.simulate", payload["samples"] == counts.get("sim.samples"),
                          f"{payload['samples']} samples vs {counts.get('sim.samples')}")
        elif sub == "detect":
            checker.check("cli.detect", payload["occurrences"] == len(out.occurrences),
                          f"{payload['occurrences']} vs {len(out.occurrences)}")
        elif sub == "precision":
            seen_precision.append(payload["precision"])
        elif sub == "cycles":
            checker.check("cli.cycles", len(payload["cycles"]) == len(out.cycles),
                          f"{len(payload['cycles'])} vs {len(out.cycles)}")
        elif sub == "dfg":
            nodes = [lbl.render() for lbl in out.nets[0].nodes] if out.nets[0] else None
            checker.check("cli.dfg", payload["nodes"] == nodes, "cycle 1 node lists differ")
        elif sub == "rank":
            checker.run("cli.rank", _same_scores, out, payload)
        elif sub == "gantt":  # one lane per location or per entity class
            records = out.logs["built"].records
            lanes = ({g.location_id for r in records for g in r.groups},
                     {e.prop for r in records for g in r.groups for e in g.entities})
            checker.check("cli.gantt", payload["lanes"] in {len(x) for x in lanes},
                          f"{payload['lanes']} lanes")
    if seen_precision:
        expected = [out.precision, out.recall][: len(seen_precision)]
        checker.check("cli.precision", seen_precision == expected,
                      f"{seen_precision} vs {expected}")


def _same_scores(out, payload):
    """The CLI's top-k scores for cycle 1 against the in-process ranking."""
    r = out.rankings[0][payload["algorithm"]]
    mine = {lbl.render(): v for lbl, v in r.scores.items()}
    err = max(abs(e["value"] - mine[e["node"]]) for e in payload["scores"])
    return err <= 1e-12, f"{payload['algorithm']}: cycle 1 scores differ by {err:.3e}"
