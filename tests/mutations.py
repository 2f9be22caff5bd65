"""Mutated CLI inputs: the edits, the workloads they apply to, and what a run may print.

Shared by the in-process property in `test_refusals.py` and the fresh-process
replay in `replay_mutations.py`. An edit draws through two callables,
`integer(lo, hi)` for an int in [lo, hi] and `choice(seq)` for one element, so
Hypothesis and a seeded `random.Random` drive the same edits.
"""

import contextlib
import functools
import io
import os
import pathlib
import re
import tempfile

from qoscompose.cli import main
from qoscompose.errors import EngineError

DATA = pathlib.Path(__file__).resolve().parent / "data"
FIXTURES = DATA.parent.parent / "fixtures"
INPUTS = ("registry", "plan", "taxonomy", "config")
# each file's name in a workload's folder
NAMES = {
    "registry": "registry.csv",
    "plan": "plan.json",
    "taxonomy": "taxonomy.txt",
    "config": "config.json",
    "composite": "composite.json",
}
# the fixture files and a saved `compose` report on them, for `replace --composite`
FIXTURE = {
    **{key: (FIXTURES / NAMES[key]).read_bytes() for key in INPUTS},
    "composite": (DATA / "fixture_compose.json").read_bytes(),
}
# `generate` at this size writes the second workload; it has no saved report
GENERATE = ["generate", "--tasks", "3", "--candidates", "4", "--attributes", "2"]

KINDS = ("flip", "truncate", "drop", "duplicate", "swap", "number")
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
EXTREMES = [b"0", b"-0", b"0.0", b"-0.0", b"5e-324", b"1.7e308", b"-1.7e308", b"NaN", b"1e400"]


@functools.cache
def workloads() -> dict[str, dict[str, bytes]]:
    """Each workload's files by key: the fixtures, and a generated workload."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        if main([*GENERATE, "--out", out]):
            raise RuntimeError(f"{' '.join(GENERATE)} failed")
        generated = {key: (pathlib.Path(out) / NAMES[key]).read_bytes() for key in INPUTS}
    return {"fixture": FIXTURE, "generated": generated}


def mutate(data: bytes, kind: str, integer, choice) -> bytes:
    """`data` with one edit: a flipped byte, a truncation, a dropped or duplicated
    line, two words swapped, or a number made extreme (unchanged if it holds none)."""
    if kind == "flip":
        at = integer(0, len(data) - 1)
        return data[:at] + bytes([data[at] ^ integer(1, 255)]) + data[at + 1:]
    if kind == "truncate":
        return data[:integer(0, len(data) - 1)]
    if kind in ("drop", "duplicate"):
        lines = data.splitlines(keepends=True)
        at = integer(0, len(lines) - 1)
        lines[at:at + 1] = [] if kind == "drop" else [lines[at]] * 2
        return b"".join(lines)
    if kind == "swap":
        spans = [m.span() for m in re.finditer(rb"\w+", data)]
        first, second = integer(0, len(spans) - 1), integer(0, len(spans) - 2)
        (a, b), (c, d) = sorted((spans[first], spans[second + (second >= first)]))
        return data[:a] + data[c:d] + data[b:c] + data[a:b] + data[d:]
    if spans := [m.span() for m in NUMBER.finditer(data)]:
        a, b = choice(spans)
        return data[:a] + choice(EXTREMES) + data[b:]
    return data


def write(folder, files: dict[str, bytes]) -> None:
    """A workload's files into `folder`, each under its name in NAMES."""
    for key, data in files.items():
        pathlib.Path(folder, NAMES[key]).write_bytes(data)


def commands(folder, keys) -> list[list[str]]:
    """`compose`, `replace --composite` when a saved report is among `keys`, and
    `classify`, on the files `write` put in `folder`."""
    path = {key: os.path.join(folder, NAMES[key]) for key in NAMES}
    files = [f"--{key}={path[key]}" for key in INPUTS]
    runs = [["compose", *files]]
    if "composite" in keys:
        runs.append(["replace", *files, "--task", "plan_route", "--service", "pr_city",
                     f"--composite={path['composite']}"])
    runs.append(["classify", files[0], files[3]])
    return runs


def _family_codes(cls=EngineError):
    return {cls.exit_code}.union(*(_family_codes(sub) for sub in cls.__subclasses__()))


def check_outcome(code: int, err: str) -> None:
    """A run exits 0 with nothing on stderr, or prints one `error [stage]: ...`
    line and exits with its error family's code (`error: ...` and 3 for an OS error)."""
    if code == 0:
        assert err == "", err
    elif code == 3:
        assert re.fullmatch(r"error: [^\n]+\n", err), err
    else:
        assert code in _family_codes(), (code, err)
        assert re.fullmatch(r"error \[[a-z]+\]: [^\n]+\n", err), err
