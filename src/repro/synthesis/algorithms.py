"""The synthesis algorithms by name: one list of names, one dispatcher.

The CLI's ``--algorithm``, the engine's ``synthesize`` and ``budget``
jobs and the service's job specs all name an algorithm by one of
:data:`SYNTHESIS_ALGORITHMS` and run it through :func:`synthesize`, so a
name runs the same algorithm on every path.
"""

from __future__ import annotations

from typing import Any

from .ilp_ar import synthesize_ilp_ar
from .ilp_mr import synthesize_ilp_mr
from .ilp_tse import synthesize_ilp_tse
from .result import SynthesisResult
from .spec import SynthesisSpec

__all__ = ["SYNTHESIS_ALGORITHMS", "synthesize"]

#: Every algorithm name that :func:`synthesize` accepts.
SYNTHESIS_ALGORITHMS = ("ar", "mr", "mr-lazy", "tse")


def synthesize(
    spec: SynthesisSpec, algorithm: str, **options: Any
) -> SynthesisResult:
    """Run the algorithm named ``algorithm`` on ``spec``.

    ``ar`` is ILP-AR, ``mr`` ILP-MR with LEARNCONS, ``mr-lazy`` ILP-MR
    with the lazy baseline and ``tse`` the truncated exact encoding;
    ``options`` go to that algorithm's function unchanged.
    """
    if algorithm == "ar":
        return synthesize_ilp_ar(spec, **options)
    if algorithm == "mr":
        return synthesize_ilp_mr(spec, **options)
    if algorithm == "mr-lazy":
        return synthesize_ilp_mr(spec, strategy="lazy", **options)
    if algorithm == "tse":
        return synthesize_ilp_tse(spec, **options)
    raise ValueError(f"unknown algorithm {algorithm!r}")
