"""Replay a fixed, seeded sample of mutated inputs through the CLI in fresh processes.

Each case takes one workload of `mutations.workloads()`, edits one of its files
with `mutations.mutate` (the kinds in turn, the rest drawn from a fixed seed), and
runs `python -m qoscompose.cli` once per command of `mutations.commands`, one
process at a time, in the case's own folder. The transcript on stdout holds,
per run, its exit code, a digest of its stdout and its stderr; every run must
pass `mutations.check_outcome`. Paths in it are relative to the case's folder,
so two runs under different PYTHONHASHSEEDs must print the same bytes:

    PYTHONHASHSEED=0 python tests/replay_mutations.py > a.txt
    PYTHONHASHSEED=12345 python tests/replay_mutations.py > b.txt
    cmp a.txt b.txt

Its name keeps it out of pytest's collection.
"""

import hashlib
import os
import pathlib
import random
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from mutations import KINDS, check_outcome, commands, mutate, workloads, write  # noqa: E402

# seven cases of each edit kind
CASES = 7 * len(KINDS)


def main() -> int:
    rng = random.Random(0)
    # the children import the engine from this checkout, as the parent does
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    for case in range(CASES):
        kind = KINDS[case % len(KINDS)]
        workload = rng.choice(sorted(workloads()))
        files = workloads()[workload]
        key = rng.choice(sorted(files))
        data = mutate(files[key], kind, rng.randint, rng.choice)
        print(f"case {case}: {kind} {workload} {key}", flush=True)
        with tempfile.TemporaryDirectory() as folder:
            write(folder, {**files, key: data})
            for argv in commands(".", files):
                proc = subprocess.run(
                    [sys.executable, "-m", "qoscompose.cli", *argv],
                    cwd=folder, env=env, capture_output=True, timeout=120,
                )
                err = proc.stderr.decode("utf-8", "backslashreplace")
                digest = hashlib.sha256(proc.stdout).hexdigest()[:16]
                print(f"{argv[0]}: exit {proc.returncode}, stdout {digest}\n{err}", end="")
                check_outcome(proc.returncode, err)
    return 0


if __name__ == "__main__":
    sys.exit(main())
