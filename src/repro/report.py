"""Plain-text table/figure rendering for the benchmark harness.

The benchmarks print the same rows the paper's tables report; this module
keeps the formatting in one place so `pytest benchmarks/ --benchmark-only`
output is directly comparable with Tables II/III and Figs. 2/3. All
renderers draw through the shared ASCII table helper in
:mod:`repro.tables` (re-exported here for backward compatibility).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from .tables import format_scientific, format_table, section

__all__ = [
    "format_table",
    "format_scientific",
    "render_batch_summary",
    "render_bench_comparison",
    "render_metrics",
    "render_profile",
    "render_runs_table",
    "render_search_tree",
    "render_verification_table",
    "render_worker_metrics",
    "section",
]


def render_runs_table(manifests: Iterable[dict]) -> str:
    """Render run-store manifests (``repro runs ls``) as a table.

    One row per run, the shape :meth:`repro.service.RunRecord.as_dict`
    produces; ``progress`` collapses to ``done/total`` (with ``+N skip``
    when a resume replayed journaled results).
    """
    rows = []
    for m in manifests:
        progress = m.get("progress") or {}
        total = progress.get("total")
        cell = f"{progress.get('done', 0)}/{total if total is not None else '?'}"
        if progress.get("failed"):
            cell += f" ({progress['failed']} failed)"
        if progress.get("skipped"):
            cell += f" +{progress['skipped']} skip"
        started = m.get("started_at")
        finished = m.get("finished_at")
        wall = (
            f"{finished - started:.1f}"
            if isinstance(started, (int, float))
            and isinstance(finished, (int, float))
            else "-"
        )
        rows.append(
            (
                m.get("run_id", "?"),
                m.get("kind", "?"),
                m.get("state", "?"),
                cell,
                m.get("attempt", 0),
                wall,
                (m.get("spec_digest") or "?")[:12],
            )
        )
    if not rows:
        return "(no runs)"
    return format_table(
        ["run", "kind", "state", "progress", "attempt", "wall (s)",
         "spec digest"],
        rows,
    )


def render_batch_summary(summaries: Iterable[dict]) -> str:
    """Render :func:`repro.engine.summarize_telemetry` roll-ups as a table.

    One row per batch recorded in a telemetry stream — successive rows of
    the same sweep make the cold-versus-warm-cache comparison (wall time
    down, hits up) directly readable. A batch that never reached its
    ``batch_end`` event (crash, kill) is marked with a trailing ``*`` on
    its wall time — the value is then the first-to-last event gap, a
    lower bound.
    """
    rows = []
    for s in summaries:
        lookups = (s.get("cache_hits") or 0) + (s.get("cache_misses") or 0)
        hit_rate = f"{100.0 * s['cache_hits'] / lookups:.0f}%" if lookups else "-"
        wall = s.get("wall_time")
        wall_cell = "-" if wall is None else f"{wall:.2f}"
        if s.get("incomplete"):
            wall_cell += "*"
        rows.append(
            (
                s.get("name") or s.get("batch", "?"),
                s.get("jobs", 0),
                s.get("ok", s.get("jobs", 0)),
                s.get("failed", 0),
                s.get("retries", 0),
                wall_cell,
                s.get("cache_hits", 0),
                s.get("cache_misses", 0),
                hit_rate,
            )
        )
    return format_table(
        ["batch", "jobs", "ok", "failed", "retries", "wall (s)",
         "cache hits", "misses", "hit rate"],
        rows,
    )


def render_verification_table(findings: Iterable[dict]) -> str:
    """Render ``repro verify`` disagreements, one row per finding.

    Accepts the dict form of :class:`repro.verify.Finding` (the shape the
    verify jobs stream back). Statistical findings — Monte-Carlo interval
    misses — are marked so they read differently from exactly confirmed
    engine disagreements.
    """
    rows = []
    for f in findings:
        value = f.get("value")
        reference = f.get("reference")
        delta = (
            abs(value - reference)
            if value is not None and reference is not None
            else None
        )
        rows.append(
            (
                f.get("case", "?"),
                f.get("check", "?"),
                format_scientific(value, 6) if value is not None else "-",
                format_scientific(reference, 6) if reference is not None else "-",
                format_scientific(delta) if delta is not None else "-",
                "statistical" if f.get("statistical") else "confirmed",
                f.get("detail", ""),
            )
        )
    return format_table(
        ["case", "check", "value", "reference", "|delta|", "kind", "detail"],
        rows,
    )


def render_profile(
    spans_or_roots: Union[Iterable, List],
    limit: Optional[int] = None,
) -> str:
    """ASCII profile tree of a finished trace.

    Accepts either a list of :class:`repro.obs.Span` (e.g.
    ``tracer.spans``) or prebuilt :class:`repro.obs.ProfileNode` roots.
    One row per distinct span path — call count, cumulative and self
    seconds, and the share of the trace's total — with children indented
    beneath their parent, hottest first. ``limit`` truncates to the
    first N rows of the (already hot-path-sorted) tree walk.
    """
    from .obs.profile import ProfileNode, build_profile, flatten_profile

    items = list(spans_or_roots)
    if items and not isinstance(items[0], ProfileNode):
        roots = build_profile(items)
    else:
        roots = items
    nodes = flatten_profile(roots)
    total = sum(r.cum for r in roots) or 1.0
    if limit is not None:
        nodes = nodes[:limit]
    rows = []
    for node in nodes:
        depth = node.path.count("/")
        rows.append(
            (
                "  " * depth + node.name,
                node.count,
                f"{node.cum:.4f}",
                f"{node.self_time:.4f}",
                f"{100.0 * node.cum / total:.1f}%",
            )
        )
    return format_table(["span", "calls", "cum (s)", "self (s)", "% total"], rows)


def render_bench_comparison(verdicts: Iterable[dict]) -> str:
    """Render :func:`repro.bench.compare_history` verdicts as a table.

    One row per tracked metric: current value versus the robust baseline
    (median of the history series, MAD as the noise scale) and the
    sentinel's verdict. Regressions are shouted in caps so they stand
    out in CI logs.
    """
    rows = []
    for v in verdicts:
        med = v.get("median")
        ratio = v.get("ratio")
        status = v.get("status", "?")
        rows.append(
            (
                v.get("metric", "?"),
                f"{v['current']:.4g}",
                f"{med:.4g}" if med is not None else "-",
                f"{v['mad']:.2g}" if v.get("mad") is not None else "-",
                f"{ratio:.2f}x" if ratio is not None else "-",
                v.get("runs", 0),
                status.upper() if status == "regression" else status,
            )
        )
    return format_table(
        ["metric", "current", "median", "mad", "ratio", "runs", "verdict"],
        rows,
    )


def render_search_tree(events: Iterable[dict]) -> str:
    """Render B&B search-tree events (``repro tree``) per solve.

    Accepts the ``bnb_event`` records of a telemetry stream (or raw
    :class:`repro.ilp.SearchEventEmitter` events) and rolls them up by
    ``solve`` id (prefixed ``<worker_pid>/`` for events a pool or queue
    worker spooled, since each worker numbers its solves from the same
    start): nodes opened/branched, prunes split by reason, the
    incumbent trail, and the closing summary's true totals — ``sampled``
    counts node-level events the emitter's rate limiter suppressed, so
    the rendered counts are of *streamed* events while ``nodes`` is the
    solver's own total. Incumbent improvements are listed under the
    table: they are rare and are the story of the search.
    """
    solves: dict = {}
    for e in events:
        solve = e.get("solve", "?")
        if e.get("worker_pid") is not None:
            solve = f"{e['worker_pid']}/{solve}"
        agg = solves.setdefault(solve, {
            "open": 0, "branch": 0, "prunes": {}, "depth": 0,
            "incumbents": [], "summary": {},
        })
        kind = e.get("kind")
        depth = e.get("depth")
        if isinstance(depth, (int, float)):
            agg["depth"] = max(agg["depth"], int(depth))
        if kind in ("open", "branch"):
            agg[kind] += 1
        elif kind == "prune":
            reason = e.get("reason", "?")
            agg["prunes"][reason] = agg["prunes"].get(reason, 0) + 1
        elif kind == "incumbent":
            agg["incumbents"].append(e)
        elif kind == "summary":
            agg["summary"] = e
    if not solves:
        return "(no search events)"
    rows = []
    for solve in sorted(solves, key=str):
        agg = solves[solve]
        summary = agg["summary"]
        prunes = agg["prunes"]
        prune_cell = ", ".join(
            f"{reason}={count}" for reason, count in sorted(prunes.items())
        ) or "-"
        objective = summary.get("objective")
        rows.append((
            solve,
            summary.get("nodes", agg["open"]),
            agg["open"],
            agg["branch"],
            prune_cell,
            len(agg["incumbents"]),
            agg["depth"],
            f"{objective:.6g}" if isinstance(objective, (int, float)) else "-",
            f"{summary['wall_time']:.3f}"
            if isinstance(summary.get("wall_time"), (int, float)) else "-",
            summary.get("suppressed", 0),
        ))
    out = [format_table(
        ["solve", "nodes", "opened", "branched", "pruned", "incumbents",
         "max depth", "objective", "wall (s)", "sampled"],
        rows,
    )]
    trail = [
        (solve, e.get("node", "?"), e.get("depth", "?"),
         f"{e['objective']:.6g}"
         if isinstance(e.get("objective"), (int, float)) else "-")
        for solve in sorted(solves, key=str)
        for e in solves[solve]["incumbents"]
    ]
    if trail:
        out.append("")
        out.append(section("incumbent trail"))
        out.append(format_table(["solve", "node", "depth", "objective"], trail))
    return "\n".join(out)


def render_worker_metrics(document: dict) -> str:
    """Render a run's ``worker_metrics.json`` as a per-worker table.

    One row per worker pid (``coordinator`` for in-process execution):
    jobs completed, cumulative job seconds, B&B nodes, and reliability
    cache traffic — the columns that answer "which worker was slow and
    why" from the evidence pack alone.
    """
    workers = document.get("workers") or {}
    if not workers:
        return "(no worker metrics)"

    def _value(snap: dict, name: str):
        data = snap.get(name) or {}
        if data.get("kind") == "histogram":
            return data.get("sum")
        return data.get("value")

    rows = []
    for pid in sorted(workers, key=str):
        snap = workers[pid] or {}
        seconds = _value(snap, "engine.job.seconds")
        rows.append((
            pid,
            _value(snap, "engine.jobs.completed") or 0,
            f"{seconds:.3f}" if isinstance(seconds, (int, float)) else "-",
            _value(snap, "ilp.bnb.nodes") or 0,
            _value(snap, "reliability.cache.hits") or 0,
            _value(snap, "reliability.cache.misses") or 0,
            len(snap),
        ))
    return format_table(
        ["worker", "jobs", "job secs", "bnb nodes", "cache hits",
         "misses", "instruments"],
        rows,
    )


def render_metrics(snapshot: dict) -> str:
    """Render a :func:`repro.obs.snapshot` metrics dump as a table.

    Counters and gauges print their value; histograms print
    ``count / mean / min / max`` plus estimated p50/p95/p99 columns
    (bucket interpolation — :meth:`repro.obs.Histogram.quantile`).
    """
    from .obs.metrics import quantile_from_snapshot

    rows = []
    for name, data in sorted(snapshot.items()):
        kind = data.get("kind", "?")
        quantiles = ["-", "-", "-"]
        if kind == "histogram":
            value = (
                f"n={data['count']} mean={data['mean']:.4g}"
                + (
                    f" min={data['min']:.4g} max={data['max']:.4g}"
                    if data.get("min") is not None
                    else ""
                )
            )
            quantiles = [
                f"{q:.4g}" if q is not None else "-"
                for q in (
                    quantile_from_snapshot(data, 0.50),
                    quantile_from_snapshot(data, 0.95),
                    quantile_from_snapshot(data, 0.99),
                )
            ]
        else:
            value = f"{data.get('value')}"
        rows.append((name, kind, value, *quantiles))
    return format_table(["metric", "kind", "value", "p50", "p95", "p99"],
                        rows)
