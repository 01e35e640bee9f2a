"""Runs one workload's chain once in a fresh interpreter and prints, as one
JSON line, its peak resident set size and the digest of its outputs.

    python3 perfbench/peak_rss.py WORKLOAD WORKDIR

WORKDIR holds the inputs the benchmark generated for WORKLOAD.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_kb() -> int:
    """High-water RSS of this process image.  getrusage's ru_maxrss would
    also count the parent's pages mapped between fork and exec, that is the
    benchmark's own size; VmHWM starts afresh at exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    name, workdir = argv
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.checks import output_digest
    from perfbench.spans import NullTracer, Ops
    from perfbench.workloads import CHAINS, load_workload

    wl = load_workload(name, workdir)
    ops = Ops(NullTracer())
    out = CHAINS[name](ops, wl, workdir)
    print(json.dumps({"maxrss_kb": peak_rss_kb(), "digest": output_digest(out),
                      "attempted": ops.attempted, "failed": ops.failed}))


if __name__ == "__main__":
    main(sys.argv[1:])
