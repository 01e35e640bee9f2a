"""Runs one trackmine subcommand as ``python -m trackmine.cli`` does, with
speed readings on a timer while the subcommand runs, and writes the
readings as JSON to a file for the benchmark to merge into its own.

    python3 perfbench/cli_child.py READINGS_JSON SUBCOMMAND [ARGS...]

Readings share the parent's clock (``time.perf_counter`` is system-wide).
The interpreter's start and the imports are not sampled: a reading must not
interrupt the import of NumPy, which the reference loop uses.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    path, args = argv[0], argv[1:]
    from trackmine import cli

    sys.path.insert(0, str(ROOT))
    from perfbench.speed import Speedometer

    speed = Speedometer()
    try:
        with speed.sampling():
            return cli.main(args)
    finally:
        with open(path, "w") as fh:
            json.dump({"starts": speed.starts, "ends": speed.ends, "values": speed.values}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
