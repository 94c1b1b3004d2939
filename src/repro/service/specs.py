"""Job specifications for the synthesis service.

A *job spec* is the JSON document a client POSTs to ``/api/jobs`` (or the
CLI submits on its behalf): a ``kind`` — one of ``synthesize``, ``sweep``,
``verify`` — plus kind-specific ``params`` mirroring the CLI flags of the
same commands. Specs are validated against JSON-Schema documents
(:data:`SPEC_SCHEMA`, :data:`PARAM_SCHEMAS`) by a small stdlib-only
validator supporting the subset the schemas use, then *normalized*:
defaults filled in, keys ordered, and the result digested
(:func:`spec_digest`) so two submissions of the same work share a content
address.

:func:`build_batch` turns a normalized spec into its
:class:`repro.engine.BatchSpec`. The CLI's ``sweep`` command builds its
batch through these two functions too, so a service run, a CLI sweep and a
direct ``run_batch`` of the same spec execute bit-for-bit identical work.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List

from ..synthesis.algorithms import SYNTHESIS_ALGORITHMS

__all__ = [
    "JOB_KINDS",
    "SPEC_SCHEMA",
    "PARAM_SCHEMAS",
    "SpecError",
    "validate_schema",
    "validate_job_spec",
    "normalize_job_spec",
    "spec_digest",
    "build_batch",
    "register_batch_builder",
]

#: Job kinds the service executes.
JOB_KINDS = ("synthesize", "sweep", "verify")

#: Hard cap on worker processes one job may request.
MAX_BATCH_JOBS = 64

_DOMAIN = {"type": "string", "enum": ["eps", "power-grid", "comm-net"],
           "default": "eps"}
_ALGORITHM = {"type": "string", "enum": list(SYNTHESIS_ALGORITHMS),
              "default": "mr"}
_BACKEND = {"type": "string", "enum": ["auto", "bnb", "scipy"],
            "default": "auto"}
_GAP = {"type": ["number", "null"], "default": None}
_SIZE = {"type": "integer", "minimum": 0, "maximum": 64, "default": 0}

#: Top-level spec envelope. ``params`` is validated per kind by
#: :data:`PARAM_SCHEMAS`.
SPEC_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["kind"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string", "enum": list(JOB_KINDS)},
        "params": {"type": "object", "default": {}},
        "jobs": {"type": "integer", "minimum": 1, "maximum": MAX_BATCH_JOBS,
                 "default": 1},
        "timeout": {"type": ["number", "null"], "exclusiveMinimum": 0,
                    "default": None},
        "tags": {"type": "object", "default": {}},
    },
}

#: Kind-specific parameter schemas (mirroring the CLI flags).
PARAM_SCHEMAS: Dict[str, Dict[str, Any]] = {
    "synthesize": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "domain": _DOMAIN,
            "algorithm": _ALGORITHM,
            "backend": _BACKEND,
            "gap": _GAP,
            "size": _SIZE,
            "target": {"type": ["number", "null"], "exclusiveMinimum": 0,
                       "maximum": 1, "default": None},
        },
    },
    "sweep": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "domain": _DOMAIN,
            "algorithm": _ALGORITHM,
            "backend": _BACKEND,
            "gap": _GAP,
            "size": _SIZE,
            "target": {"type": ["number", "null"], "exclusiveMinimum": 0,
                       "maximum": 1, "default": None},
            "levels": {"type": ["array", "null"], "minItems": 1,
                       "maxItems": 64, "default": None,
                       "items": {"type": "number", "exclusiveMinimum": 0,
                                 "maximum": 1}},
            "sizes": {"type": ["array", "null"], "minItems": 1,
                      "maxItems": 64, "default": None,
                      "items": {"type": "integer", "minimum": 5,
                                "maximum": 500}},
        },
    },
    "verify": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "fuzz": {"type": "integer", "minimum": 0, "maximum": 10000,
                     "default": 25},
            "seed": {"type": "integer", "minimum": 0, "default": 0},
            "tol": {"type": "number", "exclusiveMinimum": 0, "default": 1e-9},
            "mc_samples": {"type": "integer", "minimum": 0, "default": 2000},
            "include_eps": {"type": "boolean", "default": True},
        },
    },
}


class SpecError(ValueError):
    """A job spec failed validation; ``errors`` lists every problem."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = list(errors)


# ---------------------------------------------------------------------------
# Mini JSON-Schema validator (the subset the schemas above use)

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_schema(value: Any, schema: Dict[str, Any],
                    path: str = "$") -> List[str]:
    """Validate ``value`` against a JSON-Schema subset; return error strings.

    Supported keywords: ``type`` (single or list), ``enum``, ``required``,
    ``properties``, ``additionalProperties: false``, ``items``,
    ``minItems`` / ``maxItems``, ``minimum`` / ``maximum`` /
    ``exclusiveMinimum``. Unknown keywords are ignored, like real
    JSON-Schema validators do.
    """
    errors: List[str] = []
    types = schema.get("type")
    if types is not None:
        allowed = types if isinstance(types, list) else [types]
        if not any(_TYPE_CHECKS[t](value) for t in allowed):
            errors.append(
                f"{path}: expected {' or '.join(allowed)}, "
                f"got {type(value).__name__}"
            )
            return errors  # further keyword checks would be nonsense
    if value is None:
        return errors  # a permitted null satisfies everything else
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value!r} < minimum {schema['minimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value!r} > maximum {schema['maximum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            errors.append(
                f"{path}: {value!r} <= exclusiveMinimum "
                f"{schema['exclusiveMinimum']!r}"
            )
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(f"{path}: fewer than {schema['minItems']} items")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            errors.append(f"{path}: more than {schema['maxItems']} items")
        item_schema = schema.get("items")
        if item_schema is not None:
            for i, item in enumerate(value):
                errors.extend(
                    validate_schema(item, item_schema, f"{path}[{i}]")
                )
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                errors.extend(validate_schema(value[key], sub, f"{path}.{key}"))
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in properties:
                    errors.append(f"{path}: unknown key {key!r}")
    return errors


def validate_job_spec(spec: Any) -> List[str]:
    """All validation problems of a raw job spec (empty list = valid)."""
    errors = validate_schema(spec, SPEC_SCHEMA)
    if errors:
        return errors
    kind = spec["kind"]
    errors = validate_schema(spec.get("params", {}), PARAM_SCHEMAS[kind],
                             path="$.params")
    if errors:
        return errors
    if kind == "sweep":
        params = spec.get("params", {})
        if params.get("levels") and params.get("sizes"):
            errors.append("$.params: give either levels or sizes, not both")
    return errors


def _fill_defaults(value: Dict[str, Any],
                   schema: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(value)
    for key, sub in schema.get("properties", {}).items():
        if key not in out and "default" in sub:
            out[key] = json.loads(json.dumps(sub["default"]))  # deep copy
    return out


def normalize_job_spec(spec: Any) -> Dict[str, Any]:
    """Validate and canonicalize a raw spec (defaults filled, keys stable).

    Raises :class:`SpecError` on any validation problem. The returned
    dict is what the run store persists as ``spec.json`` and what
    :func:`spec_digest` addresses, so equal submissions normalize to
    byte-equal documents.
    """
    errors = validate_job_spec(spec)
    if errors:
        raise SpecError(errors)
    out = _fill_defaults(spec, SPEC_SCHEMA)
    out["params"] = _fill_defaults(out.get("params", {}),
                                   PARAM_SCHEMAS[out["kind"]])
    if out["kind"] == "sweep" and not out["params"]["levels"] \
            and not out["params"]["sizes"]:
        out["params"]["levels"] = [2e-3, 2e-6, 2e-10]
    return out


def spec_digest(spec: Dict[str, Any]) -> str:
    """Content address of a normalized spec (SHA-256 of canonical JSON)."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Batch construction (shared with the CLI code paths)


def _build_synthesize(params: Dict[str, Any]):
    from ..domains import domain_spec
    from ..engine import BatchSpec, Job

    spec = domain_spec(params["domain"], target=params["target"],
                       size=params["size"])
    job = Job(
        job_id="synthesize",
        kind="synthesize",
        payload={
            "spec": spec,
            "algorithm": params["algorithm"],
            "options": {"backend": params["backend"],
                        "mip_rel_gap": params["gap"]},
        },
        meta={"domain": params["domain"], "algorithm": params["algorithm"]},
    )
    return BatchSpec(name="synthesize", jobs=[job],
                     meta={"algorithm": params["algorithm"]})


def _build_sweep(params: Dict[str, Any]):
    from ..domains import domain_spec, eps_scaling_specs
    from ..engine import requirement_sweep, scaling_sweep

    options = {"backend": params["backend"], "mip_rel_gap": params["gap"]}
    if params.get("sizes"):
        return scaling_sweep(
            eps_scaling_specs(params["sizes"], params["target"]),
            algorithm=params["algorithm"], **options,
        )
    spec = domain_spec(params["domain"], target=None, size=params["size"])
    return requirement_sweep(
        spec, params["levels"], algorithm=params["algorithm"], **options,
    )


def _build_verify(params: Dict[str, Any]):
    from ..verify import corpus_cases, fuzz_cases, verification_batch

    cases = corpus_cases(include_eps=params["include_eps"])
    if params["fuzz"] > 0:
        cases.extend(fuzz_cases(params["fuzz"], seed=params["seed"]))
    return verification_batch(
        cases, tol=params["tol"], mc_samples=params["mc_samples"],
        seed=params["seed"],
    )


_BATCH_BUILDERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "synthesize": _build_synthesize,
    "sweep": _build_sweep,
    "verify": _build_verify,
}


def register_batch_builder(
    kind: str, fn: Callable[[Dict[str, Any]], Any]
) -> Callable[[Dict[str, Any]], Any]:
    """Register a batch builder for a custom job kind (extension point).

    Mirrors :func:`repro.engine.register_runner`: new scenario layers
    (attack sweeps, new domains) plug a builder in here and a runner in
    the engine, and the whole service plane — queue, store, evidence,
    resume — works for the new kind unchanged.
    """
    _BATCH_BUILDERS[kind] = fn
    return fn


def build_batch(spec: Dict[str, Any]):
    """Normalized spec -> the :class:`repro.engine.BatchSpec` it describes."""
    kind = spec["kind"]
    builder = _BATCH_BUILDERS.get(kind)
    if builder is None:
        raise SpecError([f"no batch builder for job kind {kind!r}"])
    return builder(spec.get("params", {}))
