"""Job spec validation, normalization, digests, and batch builders."""

import json

import pytest

from repro.engine import requirement_sweep
from repro.service import (
    SpecError,
    build_batch,
    normalize_job_spec,
    register_batch_builder,
    spec_digest,
    validate_job_spec,
    validate_schema,
)
from repro.service.specs import _BATCH_BUILDERS


class TestValidation:
    def test_minimal_specs_validate(self):
        for kind in ("synthesize", "sweep", "verify"):
            assert validate_job_spec({"kind": kind}) == []

    def test_missing_kind(self):
        errors = validate_job_spec({})
        assert any("kind" in e for e in errors)

    def test_unknown_kind(self):
        errors = validate_job_spec({"kind": "exfiltrate"})
        assert errors

    def test_unknown_top_level_key(self):
        errors = validate_job_spec({"kind": "sweep", "bogus": 1})
        assert any("bogus" in e for e in errors)

    def test_unknown_param(self):
        errors = validate_job_spec(
            {"kind": "sweep", "params": {"warp": 9}}
        )
        assert any("warp" in e for e in errors)

    def test_levels_and_sizes_mutually_exclusive(self):
        errors = validate_job_spec({
            "kind": "sweep",
            "params": {"levels": [1e-3], "sizes": [20]},
        })
        assert any("either levels or sizes" in e for e in errors)

    def test_non_object_spec(self):
        assert validate_job_spec([1, 2]) != []
        assert validate_job_spec("sweep") != []

    def test_every_problem_reported_at_once(self):
        errors = validate_job_spec({
            "kind": "sweep",
            "params": {"domain": "nope", "levels": [2.0, -1.0]},
        })
        # bad enum value + two out-of-range levels = three problems
        assert len(errors) >= 3

    def test_spec_error_carries_errors(self):
        with pytest.raises(SpecError) as exc:
            normalize_job_spec({"kind": "sweep", "params": {"levels": []}})
        assert exc.value.errors


class TestMiniSchemaValidator:
    def test_type_list(self):
        schema = {"type": ["number", "null"]}
        assert validate_schema(None, schema) == []
        assert validate_schema(1.5, schema) == []
        assert validate_schema("x", schema) != []

    def test_bool_is_not_integer(self):
        assert validate_schema(True, {"type": "integer"}) != []

    def test_exclusive_minimum(self):
        schema = {"type": "number", "exclusiveMinimum": 0}
        assert validate_schema(0, schema) != []
        assert validate_schema(1e-300, schema) == []

    def test_items_errors_carry_index(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        errors = validate_schema([1, "two", 3], schema)
        assert errors and "[1]" in errors[0]

    def test_min_max_items(self):
        schema = {"type": "array", "minItems": 1, "maxItems": 2}
        assert validate_schema([], schema) != []
        assert validate_schema([1, 2, 3], schema) != []
        assert validate_schema([1], schema) == []


class TestNormalization:
    def test_defaults_filled(self):
        spec = normalize_job_spec({"kind": "synthesize"})
        assert spec["jobs"] == 1
        assert spec["timeout"] is None
        assert spec["params"]["domain"] == "eps"
        assert spec["params"]["algorithm"] == "mr"

    def test_sweep_default_levels(self):
        spec = normalize_job_spec({"kind": "sweep"})
        assert spec["params"]["levels"] == [2e-3, 2e-6, 2e-10]
        assert spec["params"]["sizes"] is None

    def test_explicit_sizes_suppress_default_levels(self):
        spec = normalize_job_spec(
            {"kind": "sweep", "params": {"sizes": [20]}}
        )
        assert spec["params"]["levels"] is None

    def test_normalization_idempotent(self):
        once = normalize_job_spec({"kind": "verify"})
        twice = normalize_job_spec(once)
        assert once == twice

    def test_digest_ignores_key_order_and_matches_defaults(self):
        a = normalize_job_spec({"kind": "sweep", "params": {"size": 2}})
        b = normalize_job_spec(
            {"params": {"size": 2}, "kind": "sweep"}
        )
        assert spec_digest(a) == spec_digest(b)
        # An explicitly spelled-out default normalizes to the same address.
        c = normalize_job_spec(
            {"kind": "sweep", "params": {"size": 2, "domain": "eps"}}
        )
        assert spec_digest(a) == spec_digest(c)

    def test_digest_distinguishes_work(self):
        a = normalize_job_spec({"kind": "sweep", "params": {"size": 2}})
        b = normalize_job_spec({"kind": "sweep", "params": {"size": 3}})
        assert spec_digest(a) != spec_digest(b)

    def test_normalized_spec_round_trips_json(self):
        spec = normalize_job_spec({"kind": "verify"})
        assert json.loads(json.dumps(spec)) == spec


class TestBatchBuilders:
    def test_sweep_batch_matches_direct_requirement_sweep(self):
        from repro.domains import domain_spec

        spec = normalize_job_spec(
            {"kind": "sweep",
             "params": {"size": 2, "levels": [2e-3, 2e-6],
                        "backend": "scipy"}}
        )
        batch = build_batch(spec)
        direct = requirement_sweep(
            domain_spec("eps", target=None, size=2),
            [2e-3, 2e-6], algorithm="mr",
            backend="scipy", mip_rel_gap=None,
        )
        assert batch.name == direct.name
        assert [j.job_id for j in batch.jobs] == [
            j.job_id for j in direct.jobs
        ]
        assert [j.kind for j in batch.jobs] == [j.kind for j in direct.jobs]

    def test_scaling_batch(self):
        spec = normalize_job_spec(
            {"kind": "sweep", "params": {"sizes": [20, 30]}}
        )
        batch = build_batch(spec)
        assert len(batch.jobs) == 2

    def test_synthesize_batch_single_job(self):
        spec = normalize_job_spec({"kind": "synthesize"})
        batch = build_batch(spec)
        assert len(batch.jobs) == 1
        assert batch.jobs[0].kind == "synthesize"

    def test_verify_batch(self):
        spec = normalize_job_spec(
            {"kind": "verify",
             "params": {"fuzz": 2, "include_eps": False, "mc_samples": 0}}
        )
        batch = build_batch(spec)
        assert len(batch.jobs) > 2  # corpus + 2 fuzz cases

    def test_unknown_kind_raises(self):
        with pytest.raises(SpecError):
            build_batch({"kind": "mystery", "params": {}})

    def test_register_batch_builder(self):
        sentinel = object()
        register_batch_builder("custom-kind", lambda params: sentinel)
        try:
            assert build_batch({"kind": "custom-kind"}) is sentinel
        finally:
            _BATCH_BUILDERS.pop("custom-kind", None)
