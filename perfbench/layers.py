"""Per-layer metrics: which engine calls are wrapped, and what each reports.

Every layer is a module of ``src/repro``.  ``TARGETS`` names the public
functions and methods the traced run wraps (span name -> attribute path);
``METRICS`` lists every per-layer metric with its unit, which direction
is better, and the end-to-end metric and workload it is expected to move
(``moves``).  Those names are the report lines of ``run.py``; the gated
``latency_s.p50`` is ``refresh_s.p50`` on standing_append and
``cycle_s.p50`` (a client's round of four statements) on server_mixed;
``mc_grouped`` and ``tail_var`` are run by hand.  Times are summed
self time over the traced phase.  A workload that never crosses a layer
reports 0 for it.
"""

from __future__ import annotations

import statistics

TARGETS = {
    "parse": "repro.sql.parser:parse",
    "compile_select": "repro.sql.planner:compile_select",
    "monte_carlo_executor": "repro.sql.planner:monte_carlo_executor",
    "tail_looper": "repro.sql.planner:tail_looper",
    "det_lookup": "repro.engine.det_cache:SessionDetCache.lookup",
    "det_store": "repro.engine.det_cache:SessionDetCache.store",
    "instantiate": "repro.engine.operators:Instantiate.execute",
    "join": "repro.engine.operators:Join.execute",
    "select": "repro.engine.operators:Select.execute",
    "gather_windows": "repro.vg.streams:gather_stream_windows",
    "gather_values": "repro.vg.streams:gather_stream_values",
    "mc_run": "repro.engine.mcdb:MonteCarloExecutor.run",
    "mc_aggregate": "repro.engine.mcdb:MonteCarloExecutor.aggregate",
    "mc_fold_states": "repro.engine.mcdb:MonteCarloExecutor.fold_states",
    "gibbs_run": "repro.core.gibbs_looper:GibbsLooper.run",
    "catalog_append": "repro.engine.table:Catalog.append",
    "catalog_compact": "repro.engine.table:Catalog.compact_append_journal",
    "run_job": "repro.engine.backends:SharedBackend.run_job",
    "output_to_wire": "repro.server.wire:output_to_wire",
    "columns_from_wire": "repro.server.wire:columns_from_wire",
}
STATE_METHODS = ("init_state", "state_call", "state_cast", "state_cast_all",
                 "state_merge", "state_scatter", "state_collect",
                 "discard_state")
for _method in STATE_METHODS:
    TARGETS[f"state:{_method}"] = \
        f"repro.engine.backends:SharedBackend.{_method}"

E2E = {
    "tail": ("tail_s.p50", "tail_var"),
    "tail_server": ("tail_s.p50", "server_mixed"),
    "mc": ("mc_s.p50", "mc_grouped"),
    "mc_server": ("mc_s.p50", "server_mixed"),
    "refresh": ("refresh_s.p50", "standing_append"),
    "append": ("append_s.p50", "standing_append"),
    "append_server": ("append_s.p50", "server_mixed"),
    "request": ("request_s.p90", "server_mixed"),
    "ops": ("ops_per_s", "server_mixed"),
}


def _m(name, unit, better, *moves):
    return {"name": name, "unit": unit, "better": better,
            "moves": [E2E[key] for key in moves]}


METRICS = [
    _m("sql.parser.s", "s", "lower", "request"),
    _m("sql.parser.calls", "count", "lower", "request"),
    _m("sql.planner.s", "s", "lower", "mc", "mc_server"),
    _m("engine.det_cache.lookup_s", "s", "lower", "mc", "mc_server",
       "refresh"),
    _m("engine.det_cache.hits", "count", "higher", "mc", "mc_server",
       "refresh"),
    _m("engine.det_cache.misses", "count", "lower", "mc", "mc_server",
       "refresh"),
    _m("engine.det_cache.append_refreshes", "count", "higher", "refresh"),
    _m("engine.det_cache.hit_ratio", "ratio", "higher", "mc", "mc_server",
       "refresh"),
    _m("engine.operators.instantiate_s", "s", "lower", "tail", "refresh"),
    _m("engine.operators.instantiate_calls", "count", "lower",
       "tail", "refresh"),
    _m("engine.operators.join_s", "s", "lower", "mc", "mc_server"),
    _m("engine.operators.select_s", "s", "lower", "tail", "refresh"),
    _m("engine.operators.rows_computed", "count", "lower", "refresh"),
    _m("engine.operators.rows_reused", "count", "higher", "refresh"),
    _m("vg.streams.gather_s", "s", "lower", "tail", "mc", "tail_server"),
    _m("vg.streams.gather_calls", "count", "lower", "tail", "mc",
       "tail_server"),
    _m("engine.mcdb.run_s", "s", "lower", "mc", "refresh"),
    _m("engine.mcdb.fold_s", "s", "lower", "mc", "refresh"),
    _m("core.gibbs_looper.run_s", "s", "lower", "tail", "tail_server"),
    _m("core.gibbs_looper.replenish_s", "s", "lower", "tail", "tail_server"),
    _m("core.gibbs_looper.plan_runs", "count", "lower",
       "tail", "tail_server"),
    _m("core.gibbs_looper.delta_replenish_runs", "count", "higher",
       "tail", "tail_server"),
    _m("core.gibbs_looper.full_replenish_runs", "count", "lower",
       "tail", "tail_server"),
    _m("core.gibbs_looper.acceptance_ratio", "ratio", "higher",
       "tail", "tail_server"),
    _m("core.gibbs_looper.sharded_windows", "count", "lower", "tail_server"),
    # Only rejection-heavy seeds speculate: about one server_mixed tail
    # query in ten, so a short traced run can read 0 here.
    _m("core.gibbs_looper.speculation_hit_ratio", "ratio", "higher",
       "tail_server"),
    _m("engine.table.append_s", "s", "lower", "append"),
    _m("engine.table.compact_s", "s", "lower", "append"),
    _m("engine.backends.run_job_s", "s", "lower",
       "tail_server", "mc_server"),
    _m("engine.backends.run_job_calls", "count", "lower",
       "tail_server", "mc_server"),
    _m("engine.backends.state_wait_s", "s", "lower",
       "tail_server", "mc_server"),
    _m("engine.backends.state_calls", "count", "lower",
       "tail_server", "mc_server"),
    _m("engine.backends.sent_bytes", "bytes", "lower",
       "tail_server", "mc_server"),
    _m("engine.backends.shm_bytes", "bytes", "lower",
       "tail_server", "mc_server"),
    _m("server.app.queue_s.p50", "s", "lower", "request", "ops"),
    _m("server.app.run_s.p50", "s", "lower", "request", "ops"),
    _m("server.app.overhead_s.p50", "s", "lower", "request", "ops"),
    _m("server.app.rejected", "count", "lower", "request", "ops"),
    _m("server.wire.encode_s", "s", "lower", "append_server"),
    _m("server.wire.decode_s", "s", "lower", "append_server"),
    {"name": "trace.coverage", "unit": "ratio", "better": "higher",
     "moves": []},
    {"name": "trace.overhead", "unit": "ratio", "better": "lower",
     "moves": []},
]
UNITS = {metric["name"]: metric["unit"] for metric in METRICS}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, looper: list, *, det_cache: dict,
                  rows: dict, pool: dict, records: list, rejected: int,
                  overhead: float, coverage: float) -> dict:
    """Every metric of :data:`METRICS` from one traced phase.

    ``looper`` holds the ``LooperResult`` of every traced tail query;
    ``det_cache`` and ``pool`` are deltas of the session/server counters
    over the phase; ``rows`` holds the standing query's summed
    ``rows_computed``/``rows_reused``; ``records`` are the server's query
    records as the clients read them, each with ``overhead_s``: the
    client's latency minus the record's ``total_seconds``.
    """
    own = tracer.self_seconds()
    calls = tracer.calls()

    def s(*names):
        return sum(own.get(name, 0.0) for name in names)

    def n(*names):
        return sum(calls.get(name, 0) for name in names)

    proposals = sum(r.total_stats.proposals for r in looper)
    acceptances = sum(r.total_stats.acceptances for r in looper)
    speculated = sum(r.speculated_windows for r in looper)
    wasted = sum(r.wasted_speculations for r in looper)
    state_names = [f"state:{method}" for method in STATE_METHODS]

    def p50(key):
        values = [record[key] for record in records
                  if record.get(key) is not None]
        return statistics.median(values) if values else 0.0

    hits, misses = det_cache.get("hits", 0), det_cache.get("misses", 0)
    values = {
        "sql.parser.s": s("parse"),
        "sql.parser.calls": n("parse"),
        "sql.planner.s": s("compile_select", "monte_carlo_executor",
                           "tail_looper"),
        "engine.det_cache.lookup_s": s("det_lookup", "det_store"),
        "engine.det_cache.hits": hits,
        "engine.det_cache.misses": misses,
        "engine.det_cache.append_refreshes":
            det_cache.get("append_refreshes", 0),
        "engine.det_cache.hit_ratio": _ratio(hits, hits + misses),
        "engine.operators.instantiate_s": s("instantiate"),
        "engine.operators.instantiate_calls": n("instantiate"),
        "engine.operators.join_s": s("join"),
        "engine.operators.select_s": s("select"),
        "engine.operators.rows_computed": rows.get("computed", 0),
        "engine.operators.rows_reused": rows.get("reused", 0),
        "vg.streams.gather_s": s("gather_windows", "gather_values"),
        "vg.streams.gather_calls": n("gather_windows", "gather_values"),
        "engine.mcdb.run_s": s("mc_run"),
        "engine.mcdb.fold_s": s("mc_aggregate", "mc_fold_states"),
        "core.gibbs_looper.run_s": s("gibbs_run"),
        "core.gibbs_looper.replenish_s":
            sum(r.replenish_seconds for r in looper),
        "core.gibbs_looper.plan_runs": sum(r.plan_runs for r in looper),
        "core.gibbs_looper.delta_replenish_runs":
            sum(r.delta_replenish_runs for r in looper),
        "core.gibbs_looper.full_replenish_runs":
            sum(r.full_replenish_runs for r in looper),
        "core.gibbs_looper.acceptance_ratio":
            _ratio(acceptances, proposals),
        "core.gibbs_looper.sharded_windows":
            sum(r.sharded_windows for r in looper),
        "core.gibbs_looper.speculation_hit_ratio":
            _ratio(speculated, speculated + wasted),
        "engine.table.append_s": s("catalog_append"),
        "engine.table.compact_s": s("catalog_compact"),
        "engine.backends.run_job_s": s("run_job"),
        "engine.backends.run_job_calls": n("run_job"),
        "engine.backends.state_wait_s": s(*state_names),
        "engine.backends.state_calls": n(*state_names),
        "engine.backends.sent_bytes": pool.get("sent_bytes", 0),
        "engine.backends.shm_bytes": pool.get("shm_bytes", 0),
        "server.app.queue_s.p50": p50("queue_seconds"),
        "server.app.run_s.p50": p50("run_seconds"),
        "server.app.overhead_s.p50": p50("overhead_s"),
        "server.app.rejected": rejected,
        "server.wire.encode_s": s("output_to_wire"),
        "server.wire.decode_s": s("columns_from_wire"),
        "trace.coverage": coverage,
        "trace.overhead": overhead,
    }
    assert set(values) == set(UNITS), set(values) ^ set(UNITS)
    return values
