"""Exception types shared across the engine.

Every error raised by the engine derives from ``EngineError``.  The pipeline
attaches the failing stage name to ``EngineError.stage`` when it propagates an
error, so callers (notably the CLI) can report where things went wrong. Each
error class carries the CLI's process exit code for it in ``exit_code``.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""

    stage: str | None = None
    exit_code = 1


# -- QoS scaling -------------------------------------------------------------

class EmptyCandidateSet(EngineError):
    """No candidate services were supplied where at least one is required."""
    exit_code = 22


class SchemaMismatch(EngineError):
    """Attribute sets disagree between two inputs that must share a schema."""
    exit_code = 20


class OutOfRangeValue(EngineError):
    """A raw QoS value falls outside the extremes it is scaled against."""
    exit_code = 21


# -- Associative classification ----------------------------------------------

class ValueOutOfRange(EngineError):
    """A value handed to the discretizer lies outside [0, 1]."""
    exit_code = 23


class EmptyTrainingSet(EngineError):
    """Rule mining or classifier construction received no training instances."""
    exit_code = 24


# -- Leveling ------------------------------------------------------------------

class LevelOutOfRange(EngineError):
    """A QoS level index lies outside the configured scheme."""
    exit_code = 25


class DegenerateRequest(EngineError):
    """A requested attribute range normalizes to an empty interval."""
    exit_code = 26


# -- Ontology matching ---------------------------------------------------------

class UnknownConcept(EngineError):
    """A concept identifier is not declared in the taxonomy."""
    exit_code = 15


class InconsistentTaxonomy(EngineError):
    """Declared axioms contradict each other (e.g. a subsumed pair marked disjoint)."""
    exit_code = 17


class DisjointMatch(EngineError):
    """An output/input concept pair is incompatible; the link is inadmissible."""
    exit_code = 30


class NoSharedParameters(EngineError):
    """Two services expose no parameter pairs to connect."""
    exit_code = 31


# -- Composition ----------------------------------------------------------------

class CycleDetected(EngineError):
    """A graph that must be acyclic (plan or taxonomy) contains a cycle."""
    exit_code = 16


class UnknownTask(EngineError):
    """A task identifier is not declared in the composition plan."""
    exit_code = 14


class NoEligibleCandidate(EngineError):
    """A task has no candidate service passing the eligibility threshold."""
    exit_code = 40

    def __init__(self, task: str):
        super().__init__(f"task {task!r} has no eligible candidate service")
        self.task = task


class NoAdmissibleLink(EngineError):
    """Every eligible candidate of a task is disjoint-linked from the selection upstream."""
    exit_code = 41

    def __init__(self, task: str):
        super().__init__(f"no admissible semantic link into any candidate of task {task!r}")
        self.task = task


class NoAlternative(EngineError):
    """No alternative composite differing in one selection exists."""
    exit_code = 42


class NotSelectedService(EngineError):
    """The service reported as failed is not the composite's selection at that task."""
    exit_code = 43


class NoReplacementCandidate(EngineError):
    """After a failure, the task's queue holds no admissible replacement."""
    exit_code = 44

    def __init__(self, task: str):
        super().__init__(f"no replacement candidate left for task {task!r}")
        self.task = task


# -- File formats -----------------------------------------------------------------

class ParseError(EngineError):
    """A data file is malformed; carries the offending line number when known."""
    exit_code = 10

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyRegistry(EngineError):
    """The registry file declares a schema but contains no service records."""
    exit_code = 11


class UnknownAttribute(EngineError):
    """A QoS attribute name is not part of the registry schema."""
    exit_code = 13


class NonFiniteValue(EngineError):
    """A QoS value is NaN or infinite."""
    exit_code = 12
