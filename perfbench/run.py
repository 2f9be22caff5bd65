"""Outside-in benchmark of the qoscompose engine.

Run from the root of a qoscompose checkout:

    python3 perfbench/run.py --workload fixture|catalog|failover --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One run is one workload in this fresh process: a closed loop of one client
in one thread, the next op only after the previous one returns. The inputs
come from the seed alone. `--trace 0` times the engine's own calls and
reports the end-to-end metrics; `--trace 1` interleaves those ops with a
traced replica of the same op and reports the per-layer metrics. Every run
checks its outputs outside the timed loop (see README.md) and prints, as its
last line, one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload in both modes, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
NAMES = ("fixture", "catalog", "failover")
REQUIRED = (
    "src/qoscompose/__init__.py",
    "tests/reference.py",
    "fixtures/registry.csv",
    "fixtures/plan.json",
    "fixtures/taxonomy.txt",
    "fixtures/config.json",
)
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# The first ops of every run are replayed through the traced replica after
# the loop; their work counts are the per-layer counts and the determinism
# fingerprint, so they must not depend on how many ops the run completed.
PREFIX = {"fixture": 2, "catalog": 3, "failover": 10}
# share of the remaining ops also checked against the oracles
SAMPLE_RATE = {"fixture": 0.02, "catalog": 0.02, "failover": 0.01}
COUNTS = ("training_rows", "rules_mined", "rules_kept", "vectors", "eligible",
          "queue_entries", "swappable_tasks", "rescored_entries")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[8]


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qoscompose").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def probe_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to "ready", once per fresh probe: (raw s, reference-speed s)."""
    from speed import scale_now

    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        scale = scale_now()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(ROOT), name, str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            ready = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]
            line = proc.stdout.readline() if ready else b""
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed ({proc.returncode})")
        raw.append(elapsed)
        scaled.append(elapsed * scale)
    return raw, scaled


@dataclass
class Loop:
    raw_ms: list[float] = field(default_factory=list)  # untraced op wall times
    scale: list[float] = field(default_factory=list)  # per op, see speed.py
    busy_s: float = 0.0  # reference-speed seconds spent in ops and their checks
    wall_s: float = 0.0
    failed: set[int] = field(default_factory=set)
    counts: dict[int, dict] = field(default_factory=dict)  # traced prefix ops


def run_loop(w, seed: int, seconds: float, tracer) -> Loop:
    """The timed closed loop: one op at a time until `seconds` have passed."""
    from qoscompose.errors import EngineError
    from speed import scale_now

    check_rng = random.Random(seed ^ 0x5EED)
    loop = Loop()

    def plain(args):
        start = time.perf_counter_ns()
        try:
            result = w.op(args)
        except EngineError:
            result = None
        loop.raw_ms.append((time.perf_counter_ns() - start) / 1e6)
        return result

    def traced(args, i):
        try:
            with tracer.span("op", op=i):
                result, counts = w.traced_op(args, tracer)
        except EngineError:
            return None
        if i < PREFIX[w.name]:
            loop.counts[i] = counts
        return result

    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    scales: list[float] = []  # one calibration before each op, one after the last
    busy: list[float] = []  # per op, wall seconds in the op and its checks
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        scales.append(scale_now())
        op_start = time.perf_counter()
        args = w.prepare(i)
        sampled = i < PREFIX[w.name] or check_rng.random() < SAMPLE_RATE[w.name]
        if tracer is None:
            result = plain(args)
        elif i % 2 == 0:
            result = plain(args)
            other = traced(args, i)
        else:
            other = traced(args, i)
            result = plain(args)
        ok = w.after_op(i, args, result, sampled)
        if tracer is not None and not (result is not None and other is not None
                                       and result.same(other)):
            ok = False
        if not ok:
            loop.failed.add(i)
        busy.append(time.perf_counter() - op_start)
        i += 1
    loop.wall_s = time.perf_counter() - start
    scales.append(scale_now())
    # each op takes the mean speed of the calibrations on either side of it
    loop.scale = [(a + b) / 2 for a, b in zip(scales, scales[1:])]
    loop.busy_s = sum(b * scale for b, scale in zip(busy, loop.scale))
    return loop


def run_checks(w, seed: int, input_digest: str, loop_counts: dict):
    """Replay, oracle, fixture and determinism checks, all outside the timed loop.

    Returns (failed op index -> reasons, [(run-level check, reasons)], the
    prefix ops' work counts).
    """
    import oracle
    from pipeline import Tracer
    from workloads import FIXTURE_SCORE, Fixture

    op_errors: dict[int, list[str]] = {}
    run_level: list[tuple[str, list[str]]] = []

    if w.name == "failover":
        errors, inst, ref_primary = oracle.check_compose(
            w.request, w.plan, w.registry, w.taxonomy, w.config,
            w.initial, w.initial_alternative,
        )
        run_level.append(("set-up compose against ref_select and ref_first_alternative",
                          errors + oracle.check_queues(w.graph, ref_primary)))
        if w.traced_setup_same is not None:
            run_level.append(("traced set-up compose equals compose_with_graph",
                              [] if w.traced_setup_same else ["composites differ"]))
    prefix_counts = []
    for i, args, expected in w.recorded():
        errors = []
        if i < PREFIX[w.name]:
            replayed, counts = w.traced_op(args, Tracer())
            prefix_counts.append({k: counts.get(k, 0) for k in COUNTS})
            if not replayed.same(expected):
                errors.append("traced replica differs from the untraced op")
            if i in loop_counts and loop_counts[i] != counts:
                errors.append("work counts differ between two runs of one op")
        if w.name == "failover":
            errors += oracle.check_replace(inst, ref_primary, *args, expected.composite)
        else:
            errors += oracle.check_compose(
                *w.compose_inputs(args), expected.primary, expected.alternative
            )[0]
        if errors:
            op_errors[i] = errors

    fixture_text = w.expected if w.name == "fixture" else Fixture(ROOT, seed).op(None).text
    same_as_cli = oracle.cli_compose(ROOT) == fixture_text.encode()
    run_level.append(("fixture report byte-identical to one `qoscompose compose` run",
                      [] if same_as_cli else ["in-process report differs"]))
    score = json.loads(fixture_text)["primary"]["score"]
    run_level.append((f"fixture primary score is {FIXTURE_SCORE}",
                      [] if score == FIXTURE_SCORE else [f"score is {score!r}"]))
    run_level.append(("fixture rule set equals brute_force_cars",
                      oracle.check_fixture_rules(ROOT)))

    fingerprint = {"inputs": input_digest, "counts": prefix_counts}
    record = WORK / "determinism" / f"{w.name}-{seed}-{code_digest()[:16]}.json"
    if record.exists():
        same = json.loads(record.read_text()) == fingerprint
        run_level.append(("input digest and work counts repeat for this seed and code",
                          [] if same else [f"differs from {record.name}"]))
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(fingerprint))
    return op_errors, run_level, prefix_counts


def layer_metrics(tracer, loop: Loop, setup_scale: float, prefix_counts) -> dict:
    """Per-layer metrics from the spans (reference-speed ms) and the prefix counts.

    A layer that no op of the workload runs reports its set-up time instead
    (the loads on `catalog` and `failover`, the compose on `failover`).
    """
    from pipeline import LAYER_METRIC, TIME_METRICS

    setup: dict[str, float] = {}
    per_op: dict[int, dict[str, float]] = {}
    op_ms: dict[int, float] = {}
    for s in tracer.spans:
        if s.op == "setup":
            if s.name in LAYER_METRIC:
                metric = LAYER_METRIC[s.name]
                setup[metric] = setup.get(metric, 0.0) + (s.end_ns - s.start_ns) / 1e6 * setup_scale
            continue
        ms = (s.end_ns - s.start_ns) / 1e6 * loop.scale[s.op]
        if s.name == "op":
            op_ms[s.op] = ms
        else:
            layers = per_op.setdefault(s.op, {})
            layers[LAYER_METRIC[s.name]] = layers.get(LAYER_METRIC[s.name], 0.0) + ms
    ops = sorted(op_ms)
    out: dict[str, tuple[float, str, int]] = {}
    for metric in TIME_METRICS:
        if metric in setup and not any(metric in layers for layers in per_op.values()):
            out[metric] = (setup[metric], "ms", 1)
        else:
            values = [per_op.get(op, {}).get(metric, 0.0) for op in ops]
            out[metric] = (statistics.median(values), "ms", len(values))
    attributed = statistics.median(sum(per_op.get(op, {}).values()) for op in ops)
    untraced = statistics.median(scaled_ms(loop))
    out["trace.unattributed_ms"] = (untraced - attributed, "ms", len(ops))
    out["trace.overhead_share"] = (
        statistics.median(op_ms.values()) / untraced - 1.0, "ratio", len(ops)
    )

    k = len(prefix_counts)
    total = {c: sum(p[c] for p in prefix_counts) for c in COUNTS}

    def share(a: str, b: str) -> float:
        return total[a] / total[b] if total[b] else 0.0

    for metric, count in (
        ("leveling.training_rows", "training_rows"),
        ("cba.rules_mined", "rules_mined"),
        ("cba.rules_kept", "rules_kept"),
        ("qos.vectors", "vectors"),
        ("composer.queue_entries", "queue_entries"),
        ("composer.swappable_tasks", "swappable_tasks"),
        ("composer.rescored_entries", "rescored_entries"),
    ):
        out[metric] = (total[count] / k, "count", k)
    out["cba.kept_share"] = (share("rules_kept", "rules_mined"), "ratio", k)
    out["leveling.eligible_share"] = (share("eligible", "vectors"), "ratio", k)
    out["composer.admissible_share"] = (share("queue_entries", "eligible"), "ratio", k)
    return out


def scaled_ms(loop: Loop) -> list[float]:
    return [ms * scale for ms, scale in zip(loop.raw_ms, loop.scale)]


def write_trace(path: Path, env: dict, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps(s.__dict__) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from inputs import digest
    from pipeline import Tracer
    from speed import scale_now
    from workloads import WORKLOADS, input_files

    w = WORKLOADS[name](ROOT, seed)
    w.generate()
    input_digest = digest(input_files(w))
    tracer = Tracer() if trace else None
    setup_scale = scale_now()
    if tracer is None:
        w.setup()
    else:
        with tracer.span("setup", op="setup"):
            w.setup(tracer)

    loop = run_loop(w, seed, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_errors, run_level, prefix_counts = run_checks(w, seed, input_digest, loop.counts)
    failed_ops = loop.failed | set(op_errors)
    n_ops = len(loop.raw_ms)
    attempted = n_ops + len(run_level)
    failed = len(failed_ops) + sum(1 for _, errors in run_level if errors)

    env = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "code_digest": code_digest(),
        "input_digest": input_digest,
        "ops": n_ops,
        "run_seconds": seconds,
        "loop_seconds": loop.wall_s,
        "speed_scale_median": statistics.median(loop.scale),
    }
    print(f"env {json.dumps(env)}")
    for label, errors in run_level:
        print(f"check {'ok  ' if not errors else 'FAIL'} {label} {'; '.join(errors)}")
    for i in sorted(op_errors):
        print(f"check FAIL op {i}: {'; '.join(op_errors[i])}")
    print(f"check {len(failed_ops)} of {n_ops} ops failed; "
          f"{sum(1 for _ in w.recorded())} ops checked against the oracles")
    print(f"failed_share {failed / attempted!r} (failed {failed} of {attempted} attempted)")

    op_ms = scaled_ms(loop)
    if tracer is None:
        raw_setup, setup = probe_setup(name, seed)
        metrics = {
            "latency_p50_ms": (statistics.median(op_ms), "ms", n_ops),
            "latency_p90_ms": (percentile90(op_ms), "ms", n_ops),
            "throughput_ops_s": (n_ops / loop.busy_s, "1/s", n_ops),
            "setup_s": (statistics.median(setup), "s", len(setup)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
            "ok_share": (1.0 - failed / attempted, "ratio", attempted),
        }
        print(f"raw wall clock: latency_p50_ms {statistics.median(loop.raw_ms)!r} "
              f"latency_p90_ms {percentile90(loop.raw_ms)!r} "
              f"throughput_ops_s {n_ops / loop.wall_s!r} "
              f"setup_s {statistics.median(raw_setup)!r}")
        if n_ops < 100:
            print(f"note: {n_ops} ops leave fewer than 10 samples above latency_p90_ms")
    else:
        metrics = layer_metrics(tracer, loop, setup_scale, prefix_counts)
        write_trace(WORK / f"trace-{name}-{seed}.jsonl", env, tracer)
        base = statistics.median(op_ms)
        print(f"layer shares of the untraced op median ({base:.3f} ms):")
        for metric, (value, unit, samples) in sorted(metrics.items()):
            if unit == "ms" and samples > 1:
                print(f"  {metric:28s} {value / base:7.1%}")
    for metric, (value, unit, samples) in metrics.items():
        print(f"metric {metric} {value!r} {unit} samples={samples}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own fresh process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"perfbench: not a qoscompose checkout, missing {missing}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
