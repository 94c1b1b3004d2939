"""Order statistics for benchmark timings.

A tail percentile read off a handful of samples is a low order
statistic in disguise: with 9 samples "p90" is the 9th smallest, and a
single slow sample moves it arbitrarily. :func:`summarize` therefore
reports a tail only when at least :data:`MIN_BEYOND` samples lie beyond
it, and otherwise reports none.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles in per mille, lowest first.
TAIL_PER_MILLE = (900, 950, 990, 999)


def tail_name(per_mille: int) -> str:
    """``900`` -> ``"p90"``, ``999`` -> ``"p99.9"``."""
    whole, tenth = divmod(per_mille, 10)
    return f"p{whole}" if tenth == 0 else f"p{whole}.{tenth}"


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median plus the highest supported tail percentile of ``samples``.

    The tail uses the nearest-rank definition: the q-th percentile of N
    sorted samples is the ``ceil(q * N)``-th smallest, so ``N - rank``
    samples lie beyond it. Returns ``{"n", "p50", "tail"}`` where
    ``tail`` is ``(per_mille, value)`` or ``None`` when no candidate in
    :data:`TAIL_PER_MILLE` has :data:`MIN_BEYOND` samples beyond it.
    """
    values = sorted(float(v) for v in samples)
    n = len(values)
    if n == 0:
        raise ValueError("summarize needs at least one sample")
    tail: Optional[Tuple[int, float]] = None
    for per_mille in reversed(TAIL_PER_MILLE):
        rank = -(-per_mille * n // 1000)  # ceil without float rounding
        if n - rank >= MIN_BEYOND:
            tail = (per_mille, values[rank - 1])
            break
    return {"n": n, "p50": statistics.median(values), "tail": tail}
