"""The B&B search must not depend on the BLAS thread count.

Dense BLAS kernels may sum in a different order with a different number
of threads; if the simplex's pivot path ran through them, degenerate
ratio-test ties would break differently and the search tree would change
with ``OPENBLAS_NUM_THREADS``. One eps-g2 ILP-MR synthesis runs in two
fresh interpreters, with one and with two OpenBLAS threads, and both must
explore the same tree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_CHILD = """
import json
from repro import obs
from repro.eps.requirements import eps_spec
from repro.eps.template import build_eps_template
from repro.synthesis import synthesize_ilp_mr

spec = eps_spec(build_eps_template(num_generators=2),
                reliability_target=6.5e-4)
with obs.observed():
    result = synthesize_ilp_mr(spec, backend="bnb")
    snap = obs.snapshot()
print(json.dumps({
    "cost": result.cost,
    "nodes": snap["ilp.bnb.nodes"]["value"],
    "lp_iterations": snap["ilp.bnb.lp_iterations"]["value"],
    "refactorizations": snap["ilp.simplex.refactorizations"]["value"],
}))
"""


def _search_counts(threads: int) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True,
        text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_bnb_search_is_independent_of_blas_threads():
    one = _search_counts(1)
    two = _search_counts(2)
    assert one == two
    assert one["cost"] == 12012.0
    assert one["nodes"] > 0
