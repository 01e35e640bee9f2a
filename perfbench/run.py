#!/usr/bin/env python3
"""trackmine's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cell_shift --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from the seed, times the
in-process chain (tracks or log -> events -> log -> cycles -> DFGs ->
rankings) and the same chain as ``trackmine`` subprocesses, checks every
answer, and prints a report followed by one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports per-layer metrics
from spans recorded around every call into trackmine, and the tracing
overhead.  Results, the environment and (traced) spans are also written
under ``.perfbench_out/``.  Every reported time is stated at a fixed host
speed, measured with a reference loop through the run (``perfbench/speed.py``);
raw times are in the report.  The run pins itself and its subprocesses to
one CPU; it does not drop the file cache.  The load is a closed loop of one
client: each chain starts when the previous one ends, in one process with
one BLAS thread.

The sources are taken from ``src/`` beside this directory; without them
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cell_shift", "rank_sweep", "log_io")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_one_cpu() -> tuple[int, int]:
    """Pins this process, and so its subprocesses, to its last allowed CPU:
    then they meet the host speed the speed readings measure.  Returns
    (CPUs allowed before, the CPU kept)."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def environment(allowed, cpu) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "cpus_allowed": allowed,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg": list(os.getloadavg()),
        "isolated": False,
        "note": f"not isolated: pinned to CPU {cpu} of a shared host; the file cache is "
                "not dropped",
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must not be negative")
    return args


def report(args, metrics, units, info, env, attempted, failed, errors):
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"env: {env['cpu_count']} cpus ({env['cpus_allowed']} allowed), python "
          f"{env['python']}, numpy {env['numpy']}, threads {env['threads']}, loadavg "
          f"{' '.join(f'{x:.2f}' for x in env['loadavg'])}; {env['note']}")
    for key, value in info.items():
        print(f"  {key:<24} {value}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    if args.trace:  # generation (sim) and the subprocess chain (cli) are outside the chain
        layers = sum(v for k, v in metrics.items() if k.startswith("self.")
                     and k not in ("self.sim_s", "self.cli_s", "self.bench_s"))
        print(f"  layers' self time {layers:.4f} s + glue {metrics['self.bench_s']:.4f} s; "
              f"traced wall {metrics['trace.wall_traced_s']:.4f} s; tracing overhead "
              f"{metrics['trace.overhead_s']:+.4f} s")
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for e in errors[:20]:
        print(f"  FAIL {e}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trackmine" / "__init__.py").is_file():
        print(f"perfbench: no trackmine sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # one process, no extra threads
        os.environ.setdefault(var, "1")
    allowed, cpu = pin_one_cpu()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import trackmine

    if Path(trackmine.__file__).resolve().parent != (SRC / "trackmine").resolve():
        print(f"perfbench: imported trackmine from {trackmine.__file__}", file=sys.stderr)
        return 2
    from perfbench.bench import END_TO_END, PER_LAYER, Bench
    from perfbench.spans import write_spans

    env = environment(allowed, cpu)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, args.trace, workdir)
    try:
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: float(metrics[name]) for name in units}
    attempted, failed, errors = bench.tally()

    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    stem = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "info": bench.info, "metrics": metrics,
                   "attempted": attempted, "failed": failed, "errors": errors}, fh, indent=1)
    if args.trace:
        write_spans(f"{stem}.spans.jsonl", bench.spans)

    report(args, metrics, units, bench.info, env, attempted, failed, errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
