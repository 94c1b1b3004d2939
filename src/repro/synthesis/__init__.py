"""Architecture synthesis — the paper's core contribution.

* :func:`synthesize_ilp_mr` — Algorithm 1 (ILP Modulo Reliability) with the
  LEARNCONS constraint learning of Algorithm 2 or the lazy baseline;
* :func:`synthesize_ilp_ar` — Algorithm 3 (ILP with Approximate
  Reliability), the eager polynomial encoding of eqs. 9-11;
* :func:`synthesize` — any of them by name (:data:`SYNTHESIS_ALGORITHMS`);
* declarative requirement objects for eqs. 2-4.
"""

from .algorithms import SYNTHESIS_ALGORITHMS, synthesize
from .conditions import (
    AdequacyUnderConditions,
    OperatingCondition,
    standard_flight_conditions,
)
from .encoder import ArchitectureEncoder
from .ilp_ar import encode_reliability_ar, synthesize_ilp_ar, template_jointly_implements
from .ilp_mr import synthesize_ilp_mr
from .ilp_tse import encode_reliability_tse, synthesize_ilp_tse, truncation_tail
from .learncons import LearnConsOutcome, estimate_paths, learn_constraints
from .pareto import (
    TradeoffPoint,
    cheapest_under_target,
    explore_tradeoff,
    most_reliable_under_budget,
    pareto_front,
)
from .result import IterationRecord, SynthesisResult
from .spec import (
    ConnectionBound,
    NMinusOneAdequacy,
    ForbidEdge,
    GlobalPowerAdequacy,
    IfConnectedThenConnected,
    IfFeedsThenFed,
    NodeBalance,
    Requirement,
    RequireEdge,
    RequireIncomingEdge,
    SymmetryBreaking,
    SynthesisSpec,
)

__all__ = [
    "AdequacyUnderConditions",
    "ArchitectureEncoder",
    "ConnectionBound",
    "ForbidEdge",
    "GlobalPowerAdequacy",
    "IfConnectedThenConnected",
    "IfFeedsThenFed",
    "IterationRecord",
    "LearnConsOutcome",
    "NMinusOneAdequacy",
    "NodeBalance",
    "OperatingCondition",
    "Requirement",
    "RequireEdge",
    "RequireIncomingEdge",
    "SYNTHESIS_ALGORITHMS",
    "SymmetryBreaking",
    "SynthesisResult",
    "TradeoffPoint",
    "SynthesisSpec",
    "cheapest_under_target",
    "encode_reliability_ar",
    "encode_reliability_tse",
    "estimate_paths",
    "explore_tradeoff",
    "learn_constraints",
    "most_reliable_under_budget",
    "pareto_front",
    "standard_flight_conditions",
    "synthesize",
    "synthesize_ilp_ar",
    "synthesize_ilp_tse",
    "synthesize_ilp_mr",
    "template_jointly_implements",
    "truncation_tail",
]
