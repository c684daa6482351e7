"""One cold start: import numpy and freecert, then run the workload's warm-up
item through the CLI. Prints the elapsed seconds as JSON.

Usage: python3 bench/setup_probe.py STEPS_JSON
(run.py writes the steps and the item's input files beforehand, so input
generation is not timed).
"""

import contextlib
import io
import json
import sys
from time import perf_counter


def main(path: str) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        steps = json.load(fh)
    t0 = perf_counter()
    import numpy  # noqa: F401  (part of the cold start being timed)
    from freecert import cli
    for argv, expected in steps:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != expected:
            print(f"setup probe: {argv[0]} exited {code}, expected {expected}",
                  file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
