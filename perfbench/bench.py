"""What one benchmark run measures: the metrics it declares and ``Bench``,
which generates a workload's inputs, times its chains, and checks them.

Every time the benchmark reports is stated at a fixed host speed (see
``perfbench.speed``); the raw times are kept in the run's info.

Import it only once ``src/`` is on ``sys.path``; ``run.py`` does that.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from perfbench.checks import Checker, check_chain, check_cli, output_digest, sha256_files
from perfbench.speed import Speedometer
from perfbench.spans import GLUE, LAYERS, NullTracer, Ops, Tracer, totals_by_layer, totals_by_name
from perfbench.workloads import ALGORITHMS as ALGS
from perfbench.workloads import CHAINS, GENERATORS, load_workload, run_cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# an untraced run makes at least this many rounds and subprocess chains; a
# traced run makes one round at least
MIN_CHAIN_REPS = 3
MIN_CLI_RUNS = 2
SETUP_PROBES = 3  # set-up probes after each untraced chain

END_TO_END = {
    "wall_s": "s",
    "cycle_p50_ms": "ms",
    "cycle_p90_ms": "ms",
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
CLI_STEPS = ("simulate", "detect", "precision", "cycles", "dfg", "rank", "gantt")
# span name -> self time summed over one run of the chain
SPAN_METRICS = (
    ["sim.simulate"]
    + [f"events.{n}" for n in ("load_tracks", "load_zones", "detect", "merge",
                               "write_occurrences", "load_occurrences")]
    + [f"eventlog.{n}" for n in ("to_log", "serialize", "jsonl_write", "gantt", "parse",
                                 "jsonl_read", "segment", "cycle_export", "precision")]
    + ["procnet.build_dfg", "procnet.link_matrix"]
    + [f"ranking.{a}" for a in ALGS] + ["ranking.compare"]
    + [f"cli.{s}" for s in CLI_STEPS]
    + ["io.read", "io.write"]
)
LAYER_NAMES = LAYERS + (GLUE,)
PER_LAYER = (
    {f"{name}_s": "s" for name in SPAN_METRICS}
    | {"events.us_per_sample": "us", "events.samples": "count",
       "events.occurrences": "count", "events.merge_dropped_ratio": "ratio",
       "eventlog.records": "count", "eventlog.cycles": "count",
       "procnet.nodes_max": "count", "procnet.edges": "count"}
    | {f"ranking.{a}_iters": "count" for a in ALGS}
    | {"ranking.iters_max": "count", "ranking.degenerate_cycles": "count",
       "ranking.failures": "count", "sim.samples": "count"}
    | {f"self.{layer}_s": "s" for layer in LAYER_NAMES}
    | {"trace.wall_traced_s": "s", "trace.wall_untraced_s": "s", "trace.overhead_s": "s",
       "trace.spans": "count"}
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def rounded(values):
    return [round(v, 4) for v in values]


def percentile_band(values, lo, hi):
    """The mean of the lo-th to hi-th percentiles: an estimate of the
    percentile between them that moves less from one seed's cycles to the
    next than a single order statistic does."""
    if len(values) < 2:
        return median(values)
    return statistics.fmean(statistics.quantiles(values, n=100, method="inclusive")[lo - 1:hi])


class Bench:
    def __init__(self, workload, seed, seconds, trace, workdir):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = str(workdir)
        self.checker = Checker()
        self.ops_used = []
        self.spans = []
        self.info = {}
        self.env = child_env()
        self.speed = Speedometer()

    # -- pieces -------------------------------------------------------------

    def _ops(self, run_id, traced, speed=None):
        tracer = (Tracer if traced else NullTracer)(f"{self.workload}-{self.seed}-{run_id}")
        ops = Ops(tracer, speed)
        self.ops_used.append(ops)
        return ops

    def _timed(self, fn, in_process):
        """fn() between two speed readings, with readings on a timer too when
        ``in_process``: (result, raw seconds, scaled seconds)."""
        self.speed.read()
        with self.speed.sampling() if in_process else nullcontext():
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
        self.speed.read()
        return result, t1 - t0, self.speed.scaled(t0, t1)

    def generate(self):
        ops = self._ops("generate", self.trace)
        counts, _, _ = self._timed(
            lambda: GENERATORS[self.workload](self.seed, self.workdir, ops), in_process=True)
        self.spans += ops.tracer.finished()
        wl = load_workload(self.workload, self.workdir)
        self.info["inputs_sha256"] = sha256_files(wl.files.values())
        return wl, counts

    def chain(self, wl, rep, traced):
        """One timed run of the in-process chain: (output or None, raw
        seconds, scaled seconds, ops)."""
        ops = self._ops(f"chain{rep}{'-traced' if traced else ''}", traced)
        error = None

        def run():
            nonlocal error
            try:
                with ops.tracer.span("chain"):
                    return CHAINS[self.workload](ops, wl, self.workdir)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"

        gc.collect()  # every repeat starts from the same collector state
        out, raw, scaled = self._timed(run, in_process=True)
        self.checker.check("chain.completed", out is not None, f"run {rep}: {error}")
        return out, raw, scaled, ops

    def cli(self, wl, traced):
        """The chain as subprocesses: (JSON outputs, raw seconds, scaled seconds)."""
        ops = self._ops("cli", traced, self.speed)

        def run():
            try:
                return run_cli(ops, wl, self.workdir, self.env, self.speed)
            except Exception as exc:
                self.checker.check("cli.completed", False, f"{type(exc).__name__}: {exc}")
                return []

        results, raw, scaled = self._timed(run, in_process=False)
        self.spans += ops.tracer.finished()
        return results, raw, scaled

    def setup_probe(self):
        """(raw, scaled) seconds for a fresh interpreter to import trackmine.cli."""
        proc, raw, scaled = self._timed(lambda: subprocess.run(
            [sys.executable, "-c", "import trackmine.cli"],
            env=self.env, capture_output=True, timeout=60), in_process=False)
        self.checker.check("setup.import", proc.returncode == 0, proc.stderr.decode()[-300:])
        return raw, scaled

    def peak_rss(self, digest):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "peak_rss.py"), self.workload, self.workdir],
            env=self.env, capture_output=True, text=True, timeout=150,
        )
        if not self.checker.check("rss.completed", proc.returncode == 0, proc.stderr[-300:]):
            return 0.0
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.checker.check("digest.fresh_process", report["digest"] == digest,
                           "a fresh process gave other outputs")
        return report["maxrss_kb"] / 1024.0

    def verify(self, out, counts, cli_results):
        """Answer checks on one chain output and one subprocess chain."""
        if out is None:
            return 0
        degenerate = check_chain(self.checker, self.workload, out)
        check_cli(self.checker, out, cli_results, counts)
        return degenerate

    # -- the two kinds of run ---------------------------------------------------

    def _loop(self, wl, traced):
        """Rounds until the time is up, checked after each piece.  A round
        runs the untraced chain, then the traced chain when ``traced``, else
        SETUP_PROBES set-up probes.  The subprocess chain runs in round 1 and,
        untraced, after every round that leaves it with less of the run's
        time than the in-process chain.  Each kind of sample is spread over
        the whole run."""
        runs = {False: [], True: []}  # traced? -> [(out, raw, scaled, ops)]
        cli_runs, setup = [], []
        chain_time = cli_time = 0.0
        digest = None
        if not traced:
            self.setup_probe()  # fills the disk cache; not counted
        t0 = time.perf_counter()

        def done(rounds):
            enough = traced or (rounds >= MIN_CHAIN_REPS and len(cli_runs) >= MIN_CLI_RUNS)
            return enough and time.perf_counter() - t0 >= self.seconds

        for rep in itertools.count(1):
            for kind in (False, True) if traced else (False,):
                out, raw, scaled, ops = self.chain(wl, rep, kind)
                if out is not None:
                    d = output_digest(out)
                    digest = digest or d
                    self.checker.check("digest.traced" if kind else "digest.repeat",
                                       d == digest, f"run {rep} outputs differ from run 1")
                    runs[kind].append((out, raw, scaled, ops))
                if not kind:
                    chain_time += raw
            if not traced:
                setup += [self.setup_probe() for _ in range(SETUP_PROBES)]
            if rep > 1 and done(rep):
                break
            if rep == 1 or (not traced and cli_time < chain_time):
                cli_runs.append(self.cli(wl, traced))
                cli_time += cli_runs[-1][1]
            if done(rep):
                break
        return runs, cli_runs, setup, digest

    def run_untraced(self):
        wl, counts = self.generate()
        runs, cli_runs, setup, digest = self._loop(wl, traced=False)
        chains = runs[False]
        first = chains[0][0] if chains else None
        degenerate = self.verify(first, counts, cli_runs[0][0] if cli_runs else [])
        self.info["degenerate_cycles"] = degenerate
        rss = self.peak_rss(digest) if first is not None else 0.0
        scaled = self.speed.scaled
        # each cycle's median over the chains (every chain runs the same cycles)
        cycles_ms = [median([scaled(*t) for t in ts]) * 1e3
                     for ts in zip(*(out.cycle_times for out, *_ in chains))]
        self.info.update(outputs_sha256=digest,
                         chain_walls_raw=rounded(raw for _, raw, _, _ in chains),
                         chain_walls=rounded(s for _, _, s, _ in chains),
                         cli_walls_raw=rounded(raw for _, raw, _ in cli_runs),
                         cli_walls=rounded(s for _, _, s in cli_runs),
                         setup_probes_raw=rounded(raw for raw, _ in setup),
                         setup_probes=rounded(s for _, s in setup),
                         cycles=len(cycles_ms), **self._speed_info(),
                         precision=first.precision if first else None,
                         recall=first.recall if first else None)
        return {
            "wall_s": median([s for _, _, s, _ in chains]),
            "cycle_p50_ms": percentile_band(cycles_ms, 40, 60),
            "cycle_p90_ms": percentile_band(cycles_ms, 85, 95),
            "cli_s": median([s for _, _, s in cli_runs]),
            "setup_s": median([s for _, s in setup]),
            "peak_rss_mb": rss,
        }

    def _speed_info(self):
        v = sorted(self.speed.values)
        return {"speed_readings": len(v),
                "reference_ms_min_median_max": rounded([v[0] * 1e3, median(v) * 1e3,
                                                        v[-1] * 1e3]) if v else []}

    def run_traced(self):
        wl, counts = self.generate()
        runs, cli_runs, _, digest = self._loop(wl, traced=True)
        first = runs[False][0][0] if runs[False] else None
        degenerate = self.verify(first, counts, cli_runs[0][0] if cli_runs else [])
        self.info.update(outputs_sha256=digest, chain_runs=len(runs[False]),
                         traced_runs=len(runs[True]))
        scaled = self.speed.scaled
        # generation and the subprocess chain, run once
        once = totals_by_name(self.spans, scaled)
        traced = [ops.tracer.finished() for *_, ops in runs[True]]
        for spans in traced:
            self.spans += spans
        # per name and per layer: median over traced chains of the self time in one chain
        by_name = [totals_by_name(s, scaled) for s in traced]
        by_layer = [totals_by_layer(s, scaled) for s in traced]
        m = {}
        for name in SPAN_METRICS:
            if name.startswith(("sim.", "cli.")):
                m[f"{name}_s"] = once.get(name, 0.0)
            else:
                m[f"{name}_s"] = median([t.get(name, 0.0) for t in by_name])
        for layer in LAYER_NAMES:
            m[f"self.{layer}_s"] = median([t[layer] for t in by_layer])
        # generation and the subprocess chain run once, outside the timed chains
        m["self.sim_s"] = m["sim.simulate_s"]
        m["self.cli_s"] = sum(m[f"cli.{s}_s"] for s in CLI_STEPS)
        m.update(self._counts(first, counts, runs, degenerate, m))
        self.info.update(self._speed_info())
        m["trace.wall_traced_s"] = median([s for _, _, s, _ in runs[True]])
        m["trace.wall_untraced_s"] = median([s for _, _, s, _ in runs[False]])
        m["trace.overhead_s"] = m["trace.wall_traced_s"] - m["trace.wall_untraced_s"]
        m["trace.spans"] = median([len(s) for s in traced])
        return m

    def _counts(self, out, counts, runs, degenerate, m):
        c = dict(out.counts) if out else {}
        nets = [n for n in out.nets if n is not None] if out else []
        results = [r for per_cycle in out.rankings for r in per_cycle.values()] if out else []
        samples = c.get("events.samples", 0)
        streamed = c.get("events.stream_occurrences", 0)
        first_ops = runs[False][0][3] if runs[False] else None
        return {
            "events.samples": samples,
            "events.occurrences": c.get("events.occurrences", 0),
            "events.us_per_sample": m["events.detect_s"] / samples * 1e6 if samples else 0.0,
            "events.merge_dropped_ratio": 1 - c["events.occurrences"] / streamed
            if streamed else 0.0,
            "eventlog.records": c.get("eventlog.records", 0),
            "eventlog.cycles": c.get("eventlog.cycles", 0),
            "procnet.nodes_max": max((len(n.nodes) for n in nets), default=0),
            "procnet.edges": sum(len(n.edges) for n in nets),
            **{f"ranking.{a}_iters": sum(r.iterations for r in results if r.algorithm == a)
               for a in ALGS},
            "ranking.iters_max": max((r.iterations for r in results), default=0),
            "ranking.degenerate_cycles": degenerate,
            "ranking.failures": sum(e.startswith("ranking.") for e in first_ops.errors)
            if first_ops else 0,
            "sim.samples": counts.get("sim.samples", 0),
        }

    # -- totals ---------------------------------------------------------------

    def tally(self):
        attempted = self.checker.attempted + sum(o.attempted for o in self.ops_used)
        failed = self.checker.failed + sum(o.failed for o in self.ops_used)
        errors = [e for o in self.ops_used for e in o.errors] + self.checker.failures
        return attempted, failed, errors
