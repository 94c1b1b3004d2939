"""Exact reliability by inclusion-exclusion over minimal path sets.

``P(connected) = sum_{T != {}} (-1)^{|T|+1} prod_{n in union(T)} (1 - p_n)``
over subsets ``T`` of the minimal path sets. Exponential in the number of
path sets — the textbook method the paper's §II calls "exhaustive
enumeration of failure cases" — kept as the simplest-possible oracle for
cross-checking the cleverer engines on small instances.

Subsets with the same union contribute the same product, so their signs
are netted as integers first and the few distinct products are summed in
exact rational arithmetic: summing the 2^k alternating float terms
directly loses precision (4.6e-9 absolute at 21 path sets).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet

from .events import ReliabilityProblem
from .pathsets import minimal_path_sets

__all__ = ["failure_probability_ie", "connectivity_probability_ie"]

_MAX_PATHS = 22  # 2^22 subsets is the practical ceiling for the oracle


def connectivity_probability_ie(problem: ReliabilityProblem) -> float:
    """P(at least one source->sink path has all nodes working)."""
    paths = minimal_path_sets(problem)
    if not paths:
        return 0.0
    if len(paths) > _MAX_PATHS:
        raise ValueError(
            f"inclusion-exclusion oracle limited to {_MAX_PATHS} path sets, "
            f"got {len(paths)}; use the BDD or factoring engine"
        )
    up = {n: Fraction(1.0 - problem.failure_prob(n)) for s in paths for n in s}
    signs: Dict[FrozenSet[str], int] = {}
    for r in range(1, len(paths) + 1):
        sign = 1 if r % 2 == 1 else -1
        for combo in combinations(paths, r):
            union: FrozenSet[str] = frozenset().union(*combo)
            signs[union] = signs.get(union, 0) + sign
    total = sum(
        count * math.prod(up[node] for node in union)
        for union, count in signs.items() if count
    )
    return min(max(float(total), 0.0), 1.0)


def failure_probability_ie(problem: ReliabilityProblem) -> float:
    """``r_i = 1 - P(connected)``.

    Note: the subtraction limits *relative* accuracy near r ~ 1e-15; the BDD
    engine avoids the cancellation and is preferred for very small targets.
    """
    return 1.0 - connectivity_probability_ie(problem)
