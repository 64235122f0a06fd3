"""Time what every fresh `kslab` process pays before its first step.

Run by perfbench/run.py in a child process:

    python3 perfbench/setup_probe.py <workload> <seed>

It imports `kslab` (with `kslab.io` and `kslab.cli`), builds the workload's
grid and builds its initial data (or, for the construction workload, its
recipe), and prints one JSON object with the three stage times in seconds.
Interpreter start-up before the first line is not counted.
"""

import time

_t0 = time.perf_counter()
import kslab  # noqa: E402
import kslab.cli  # noqa: E402,F401
import kslab.io  # noqa: E402,F401
_t1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    data = inputs.generate(workload, seed)
    g = inputs.setup_grid(data)
    t2 = time.perf_counter()
    grid = kslab.build_grid(g["n"], g["R"], g["N"], g["grading"])
    t3 = time.perf_counter()
    workloads.setup_datum(workload, data, grid)
    t4 = time.perf_counter()
    print(json.dumps({"import_s": _t1 - _t0, "build_grid_s": t3 - t2,
                      "datum_s": t4 - t3}))


if __name__ == "__main__":
    main()
