"""Correctness checks against the independent oracles in tests/reference.py.

All of this runs outside the timed loop. Each function returns a list of
mismatch descriptions; an empty list means the engine agreed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import reference
from reference import (
    RefInstance,
    RefOutcome,
    RefTaxonomy,
    brute_force_cars,
    ref_first_alternative,
    ref_replace,
    ref_select,
)

from qoscompose import (
    QoSVector,
    compute_extremes,
    mine_cars,
    rank_candidates,
    synthesize_training_set,
)

_ref_match = reference.ref_match


def _memo_ref_match(tax: RefTaxonomy, out_concept: str, in_concept: str) -> str:
    # The oracle's match walk is pure but rescans every taxonomy axiom per
    # call, and one catalog compose evaluates thousands of links. One answer
    # per concept pair and taxonomy keeps its results and makes it affordable.
    memo = tax.__dict__.setdefault("_memo", {})
    key = (out_concept, in_concept)
    if key not in memo:
        memo[key] = _ref_match(tax, out_concept, in_concept)
    return memo[key]


reference.ref_match = _memo_ref_match


def ref_instance(plan, registry, taxonomy, eligible) -> RefInstance:
    """The oracle's view of one compose: eligible utilities, interfaces, raw axioms."""
    return RefInstance(
        tasks=sorted(plan.tasks),
        edges=sorted(plan.edges),
        candidates={
            task: [(s.service_id, s.utility) for s in scored]
            for task, scored in eligible.items()
        },
        interfaces={rec.service_id: (rec.inputs, rec.outputs) for rec in registry.records},
        taxonomy=RefTaxonomy(
            set(taxonomy.concepts),
            set(taxonomy.edges),
            set(taxonomy.equivalences),
            set(taxonomy.disjointness),
        ),
    )


def _diff(label: str, composite, ref: RefOutcome) -> list[str]:
    if ref.error is not None:
        return [f"{label}: engine composed, oracle says {ref.error}"]
    if composite.assignment != ref.assignment:
        return [f"{label}: assignment differs from the oracle"]
    if composite.final_utilities != ref.finals or composite.score != ref.score:
        return [f"{label}: final utilities or score differ from the oracle"]
    return []


def check_compose(request, plan, registry, taxonomy, config, primary, alternative):
    """Primary and alternative against ref_select / ref_first_alternative.

    Returns (mismatches, the oracle instance, the oracle's primary outcome).
    """
    eligible = rank_candidates(request, registry, config)
    inst = ref_instance(plan, registry, taxonomy, eligible)
    ref_primary = ref_select(inst)
    errors = _diff("primary", primary, ref_primary)
    if errors:
        return errors, inst, ref_primary
    ref_alt = ref_first_alternative(inst, ref_primary)
    if alternative is None:
        if ref_alt.error != "no-alternative":
            errors.append("alternative: engine found none, the oracle did")
    else:
        errors += _diff("alternative", alternative, ref_alt)
    return errors, inst, ref_primary


def check_queues(graph, ref_primary: RefOutcome) -> list[str]:
    queues = {
        task: [(e.service_id, e.utility, e.final_utility, e.link_quality) for e in q]
        for task, q in graph.queues.items()
    }
    return [] if queues == ref_primary.queues else ["queues differ from the oracle"]


def check_replace(
    inst: RefInstance, ref_primary: RefOutcome, before, task, failed, after
) -> list[str]:
    """One replacement against ref_replace, from the same composite."""
    state = RefOutcome(
        assignment=dict(before.assignment),
        finals=dict(before.final_utilities),
        queues=ref_primary.queues,
    )
    return _diff(f"replace {task}/{failed}", after, ref_replace(inst, state, task, failed))


def check_fixture_rules(root: Path) -> list[str]:
    """The fixture's mined rule set against brute-force enumeration."""
    from workloads import load_inputs

    _, _, registry, config, request = load_inputs(root / "fixtures")
    vectors = [QoSVector(r.service_id, dict(r.values)) for r in registry.records]
    training = synthesize_training_set(
        request, compute_extremes(vectors), config.scheme, config.bins, registry.schema
    )
    if set(mine_cars(training, config.mining)) != brute_force_cars(training, config.mining):
        return ["fixture rule set differs from brute force"]
    return []


def cli_compose(root: Path) -> bytes:
    """stdout of one `qoscompose compose` run on the fixtures."""
    fixtures = root / "fixtures"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [
            sys.executable, "-m", "qoscompose.cli", "compose",
            "--registry", str(fixtures / "registry.csv"),
            "--plan", str(fixtures / "plan.json"),
            "--taxonomy", str(fixtures / "taxonomy.txt"),
            "--config", str(fixtures / "config.json"),
        ],
        cwd=root,
        env=env,
        capture_output=True,
        timeout=120,
    )
    if proc.returncode != 0:
        return b"exit %d: %s" % (proc.returncode, proc.stderr)
    return proc.stdout
