"""QoS-aware service composition over task DAGs.

Candidates are min-max scaled, leveled by an associative classifier trained
against the user's requested ranges, scored into utilities, and selected
greedily along the plan's semantic links with a one-swap alternative and an
availability-replacement rule. The root exports the library entry points and
the types that build their inputs; other names are imported from their module.
"""

from .cba import (
    Classifier,
    ClassAssociationRule,
    Item,
    MiningConfig,
    TrainingInstance,
    build_classifier,
    mine_cars,
    sort_rules,
    train_classifier,
)
from .composer import (
    CompositeService,
    CompositionPlan,
    build_search_graph,
    compose_with_graph,
    composite_report,
    first_alternative,
    replace_unavailable,
)
from .data_io import (
    EngineConfig,
    Registry,
    RegistryRecord,
    load_config,
    load_plan,
    load_registry,
    load_taxonomy,
)
from .errors import EngineError
from .leveling import (
    LevelScheme,
    ScoredService,
    UserRequest,
    filter_eligible,
    rank_candidates,
    score_candidates,
    synthesize_training_set,
)
from .ontology import MatchType, Taxonomy
from .qos import (
    Polarity,
    QoSAttribute,
    QoSVector,
    compute_extremes,
    normalize,
)

__version__ = "0.1.0"

__all__ = [
    "ClassAssociationRule",
    "Classifier",
    "CompositeService",
    "CompositionPlan",
    "EngineConfig",
    "EngineError",
    "Item",
    "LevelScheme",
    "MatchType",
    "MiningConfig",
    "Polarity",
    "QoSAttribute",
    "QoSVector",
    "Registry",
    "RegistryRecord",
    "ScoredService",
    "Taxonomy",
    "TrainingInstance",
    "UserRequest",
    "build_classifier",
    "build_search_graph",
    "compose_with_graph",
    "composite_report",
    "compute_extremes",
    "filter_eligible",
    "first_alternative",
    "load_config",
    "load_plan",
    "load_registry",
    "load_taxonomy",
    "mine_cars",
    "normalize",
    "rank_candidates",
    "replace_unavailable",
    "score_candidates",
    "sort_rules",
    "synthesize_training_set",
    "train_classifier",
]
