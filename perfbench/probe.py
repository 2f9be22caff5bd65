"""Set-up probe: import the engine, do one workload's set-up, print "ready".

`run.py` starts this in a fresh interpreter several times per run and times
each from process start to the "ready" line; the median is `setup_s`. Set-up
is the engine import plus the input load (and, on `failover`, the initial
compose); the `fixture` workload loads its inputs inside every op, so its
set-up is the import alone.

    python3 perfbench/probe.py ROOT WORKLOAD SEED
"""

import sys
from pathlib import Path


def main() -> None:
    root, name, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    WORKLOADS[name](root, seed).setup()
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
