"""``repro.obs`` — zero-dependency tracing & metrics for the whole stack.

The observability substrate every perf-minded PR measures itself
against. Three pieces:

* **Tracing** (:mod:`repro.obs.tracer`) — a context-local
  :class:`Tracer` of nested, attributed :class:`Span` regions. Disabled
  by default; the module-level :func:`span` helper degrades to a shared
  no-op, so instrumentation stays in the hot paths permanently at the
  cost of one attribute lookup.
* **Metrics** (:mod:`repro.obs.metrics`) — :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` instruments in a process-global
  registry (``metrics.counter("ilp.bnb.nodes").inc(...)``).
* **Export** (:mod:`repro.obs.export`, :mod:`repro.obs.profile`) —
  Chrome trace-event JSON (``chrome://tracing`` / Perfetto) and a
  profile-tree aggregation rendered by
  :func:`repro.report.render_profile`.

Every telemetry stream is JSONL written by one
:class:`TelemetryWriter` (:mod:`repro.obs.obslog`) and read by one
``read_jsonl``: batch journals, worker spools, structured logs, and
span traces. A finished span has one record,
:func:`span_record`, written as a ``span`` event wherever it is stored,
and the warehouse (:mod:`repro.obs.warehouse`) ingests that one shape.

The layer is also *live*: a stdlib HTTP server
(:mod:`repro.obs.server`) exposes ``/metrics`` (Prometheus text
exposition), ``/runs`` (in-flight synthesis/batch snapshots from the
:class:`RunRegistry`), ``/healthz`` and ``/api/alerts`` while a sweep
runs, where threshold alert rules (:mod:`repro.obs.alerts`) compare a
metric or a ``/healthz`` field against a limit; structured
JSON logs (:mod:`repro.obs.obslog`) carry run/job/span correlation ids;
a wall-clock sampling profiler (:mod:`repro.obs.sampling`) exports
flamegraph-ready collapsed stacks; and pool and queue workers spool
their spans and metric deltas home (:mod:`repro.obs.spool`), where the
coordinator merges them (:mod:`repro.obs.aggregate`), so multi-process
sweeps report true totals.

Typical use (the CLI's ``profile`` subcommand does exactly this)::

    from repro import obs
    from repro.report import render_profile

    with obs.tracing() as tracer:
        result = synthesize_ilp_mr(spec)
    obs.write_chrome_trace("trace.json", tracer.spans)
    print(render_profile(tracer.spans))

And watching a run live (the CLI's ``--serve PORT`` flag)::

    with obs.ObsServer(port=9200):
        run_batch(batch, jobs=4)   # meanwhile: curl :9200/metrics
"""

from .aggregate import (
    merge_snapshot,
    merge_telemetry,
    snapshot_delta,
)
from .alerts import (
    AlertEngine,
    AlertRule,
    load_alert_rules,
    parse_alert_rules,
)
from .context import (
    TraceContext,
    current_trace_context,
    set_trace_context,
    span_uid,
    trace_context,
)
from .export import (
    stitch_chrome_trace,
    stitched_trace_events,
    write_chrome_trace,
)
from .metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    quantile_from_buckets,
    quantile_from_snapshot,
    registry,
    reset_metrics,
    snapshot,
)
from .obslog import (
    ObsLog,
    TelemetryWriter,
    configure_obslog,
    current_log_context,
    get_obslog,
    log,
    log_context,
    obslog_enabled,
    read_log,
)
from .profile import ProfileNode, build_profile, flatten_profile
from .sampling import SamplingProfiler
from .server import (
    ObsServer,
    RunHandle,
    RunRegistry,
    add_health_source,
    escape_label_value,
    health_snapshot,
    prometheus_name,
    remove_health_source,
    render_prometheus,
    reset_run_registry,
    run_registry,
)
from .spool import (
    SPOOL_DIR_NAME,
    SpoolCollector,
    TelemetrySpool,
)
from .warehouse import (
    DEFAULT_WAREHOUSE_PATH,
    TelemetryWarehouse,
    auto_ingest_path,
    configure_auto_ingest,
    maybe_auto_ingest,
)
from .tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    absorb_record,
    add_observer,
    current_span,
    enabled,
    get_tracer,
    observed,
    remove_observer,
    reset_span_stack,
    set_attr,
    set_tracer,
    span,
    span_record,
    tracing,
)

__all__ = [
    "AlertEngine",
    "AlertRule",
    "Counter",
    "DEFAULT_BUCKET_BOUNDS",
    "DEFAULT_WAREHOUSE_PATH",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "ObsLog",
    "ObsServer",
    "ProfileNode",
    "RunHandle",
    "RunRegistry",
    "SPOOL_DIR_NAME",
    "SamplingProfiler",
    "Span",
    "SpoolCollector",
    "TelemetrySpool",
    "TelemetryWarehouse",
    "TelemetryWriter",
    "TraceContext",
    "Tracer",
    "absorb_record",
    "add_health_source",
    "add_observer",
    "auto_ingest_path",
    "build_profile",
    "configure_auto_ingest",
    "configure_obslog",
    "counter",
    "current_log_context",
    "current_span",
    "current_trace_context",
    "enabled",
    "escape_label_value",
    "flatten_profile",
    "gauge",
    "get_obslog",
    "get_tracer",
    "health_snapshot",
    "histogram",
    "load_alert_rules",
    "log",
    "log_context",
    "maybe_auto_ingest",
    "merge_snapshot",
    "merge_telemetry",
    "observed",
    "obslog_enabled",
    "parse_alert_rules",
    "prometheus_name",
    "quantile_from_buckets",
    "quantile_from_snapshot",
    "read_log",
    "registry",
    "remove_health_source",
    "remove_observer",
    "render_prometheus",
    "reset_span_stack",
    "reset_metrics",
    "reset_run_registry",
    "run_registry",
    "set_attr",
    "set_trace_context",
    "set_tracer",
    "snapshot",
    "snapshot_delta",
    "span",
    "span_record",
    "span_uid",
    "stitch_chrome_trace",
    "stitched_trace_events",
    "trace_context",
    "tracing",
    "write_chrome_trace",
]
