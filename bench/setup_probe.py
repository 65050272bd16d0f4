"""One set-up measurement in a fresh interpreter (started by bench/run.py).

    python3 bench/setup_probe.py [WORKLOAD SEED]

Times ``import bihns.cli`` and, given a workload, the first run of its first
input, which pays every first-call cost.  Prints ``{"import_s", "first_s"}``
as JSON, each also as ``*_ref_s``: rescaled by the speed gauges run before
and after it (``speed.py``).
"""

import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from speed import gauge, to_ref  # noqa: E402

#: gauges run before and after each timed step
GAUGES = 3

gauges = [gauge() for _ in range(GAUGES)]
t0 = perf_counter()
import bihns.cli as cli  # noqa: E402
times = {"import_s": perf_counter() - t0}
gauges += [gauge() for _ in range(GAUGES)]
times["import_ref_s"] = to_ref(times["import_s"], gauges)

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    if len(sys.argv) == 3:
        workload, seed = sys.argv[1], int(sys.argv[2])
        calls = workloads.make_inputs(workload, seed)[0]
        outdir = run.WORK / f"probe-{workload}-seed{seed}-pid{os.getpid()}"
        try:
            first_s = run.run_unit(cli, calls, outdir)[0]
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        gauges.extend(gauge() for _ in range(GAUGES))
        times.update(first_s=first_s, first_ref_s=to_ref(first_s, gauges[-2 * GAUGES:]))
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
