"""Seed-generated request lists for the two workloads.

Everything here is a pure function of the seed, so the measured worker
process and the answer checker regenerate identical inputs, and
:func:`digest` proves that two runs (say a parent and a change) ran the
same requests. The program under test only ever sees the generated
inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List, Tuple

#: synth_bnb template classes, one request each per cycle, as
#: (include_apu, sibling_ties). Every class needs exactly two ILP-MR
#: iterations at every target in [6e-4, 7e-4] under both strategies, and
#: the strategy and target leave the B&B tree unchanged, so a cycle's
#: work depends only on its classes. On a 2-core x86 VM the plain
#: template takes about 2 s and each switched variant 4-7 s, so a cycle
#: takes about 22 s and a 45 s window holds two. The median is a plain
#: sample: six of them per cycle give it twelve samples per run, which
#: is what keeps it steady, while every cycle still mixes both switches.
SYNTH_CLASSES: Tuple[Tuple[bool, bool], ...] = (
    *[(False, False)] * 6,
    (True, False),
    (False, True),
)

#: service_mix: single-iteration levels of the paper EPS template under
#: HiGHS, and the power-grid targets that need two iterations.
EPS_LEVELS = (3e-3, 2.5e-3, 2e-3, 1.5e-3, 1.2e-3, 1e-3, 8e-4)
EPS_SYNTH_TARGETS = (2.5e-3, 2e-3, 1.5e-3)
GRID_TARGETS = (8e-4, 7e-4, 6e-4)


def digest(obj: Any) -> str:
    """Short SHA-256 of the canonical JSON form of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# synth_bnb


def synth_cycle(seed: int) -> List[Dict[str, Any]]:
    """One cycle of ILP-MR requests; the workload repeats it."""
    rng = random.Random(f"synth_bnb:{seed}")
    cycle = []
    for include_apu, sibling_ties in SYNTH_CLASSES:
        cycle.append({
            "num_generators": 2,
            "include_apu": include_apu,
            "sibling_ties": sibling_ties,
            "strategy": rng.choice(("learncons", "lazy")),
            "target": round(rng.uniform(6e-4, 7e-4), 7),
        })
    rng.shuffle(cycle)
    return cycle


def synth_spec(request: Dict[str, Any]):
    """The :class:`repro.synthesis.SynthesisSpec` a request describes."""
    from repro.eps.requirements import eps_spec
    from repro.eps.template import build_eps_template

    template = build_eps_template(
        num_generators=request["num_generators"],
        include_apu=request["include_apu"],
        sibling_ties=request["sibling_ties"],
    )
    return eps_spec(template, reliability_target=request["target"])


# ---------------------------------------------------------------------------
# service_mix


def service_cycle(seed: int) -> List[Dict[str, Any]]:
    """One cycle of HiGHS-backed job specs; the client repeats it."""
    rng = random.Random(f"service_mix:{seed}")
    middle = sorted(rng.sample(EPS_LEVELS[1:-1], 2), reverse=True)
    cycle = [
        {"kind": "synthesize",
         "params": {"domain": "eps", "backend": "scipy",
                    "target": rng.choice(EPS_SYNTH_TARGETS)}},
        {"kind": "synthesize",
         "params": {"domain": "power-grid", "backend": "scipy",
                    "target": rng.choice(GRID_TARGETS)}},
        {"kind": "sweep", "jobs": 2,
         "params": {"domain": "eps", "backend": "scipy",
                    "levels": [EPS_LEVELS[0], *middle, EPS_LEVELS[-1]]}},
    ]
    rng.shuffle(cycle)
    return cycle
