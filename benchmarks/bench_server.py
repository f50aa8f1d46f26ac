"""Risk-service load benchmark: shared pool + shared det-cache vs
fresh-session-per-request.

Drives the real HTTP server (ephemeral port, JSON wire) with N=8
concurrent clients x M=5 mixed statements each — det-heavy ledger⋈accounts
joins interleaved with Monte Carlo risk queries — split across 2 tenants
with different data.  The served mode amortizes per-tenant state the way
the front end is designed to: one session per tenant (cross-query
det-cache hits on the expensive join subtree) on one shared worker pool.
The baseline is the architecture the server replaces: every request
builds a fresh ``Session`` — re-registering tables and the uncertain-table
spec, recomputing every deterministic subtree — executes one statement,
and tears down.

Gates:

* **throughput**: served mode must sustain >= 2x the baseline's
  queries/second on the identical workload;
* **det-cache sharing**: every tenant must see >= 1 cross-query
  det-cache hit (the mechanism the speedup is attributed to);
* **bit-identity**: every served result payload — pooled and
  ``n_jobs=1`` — must equal, byte for byte of its JSON, a serial
  single-session run of the same statements with the same base seed —
  multi-tenancy, admission queuing, and the shared pool change *when* a
  query runs, never what it answers.

Also recorded (informational): p50/p99 admission-to-result latency as
measured by the server's own query records, and the served workload's
wall-clock on the 2-worker process pool beside the same workload served
with ``n_jobs=1`` (no pool at all) — the simplest path the pool has to
beat.

Run:  python benchmarks/bench_server.py [--json out.json]
"""

import json
import threading
import time
import urllib.request

import numpy as np

from repro.engine.options import ExecutionOptions, ServerOptions
from repro.experiments import print_experiment, record_metric, \
    run_benchmark_cli
from repro.server import RiskServer, output_to_wire
from repro.sql import Session

BENCH = "server"
CLIENTS = 8
TENANTS = ("acme", "globex")
LEDGER_ROWS = 100_000
ACCOUNTS = 300
BASE_SEED = 7

CREATE_LOSSES = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH v AS Normal(VALUES(m, 1.0))
    SELECT CID, v.* FROM v
"""
# M=5 mixed statements per client; q1 == q5, so even a single client
# re-hits the join subtree, and the 4 clients of a tenant all share it.
STATEMENTS = (
    "SELECT SUM(amount) FROM ledger, accounts "
    "WHERE ledger.acct = accounts.acct2 AND accounts.region < 3",
    "SELECT SUM(val) FROM Losses WHERE CID < 25 "
    "WITH RESULTDISTRIBUTION MONTECARLO(15)",
    "SELECT SUM(amount) FROM ledger, accounts "
    "WHERE ledger.acct = accounts.acct2 AND accounts.region < 5",
    "SELECT AVG(val) FROM Losses WITH RESULTDISTRIBUTION MONTECARLO(10)",
    "SELECT SUM(amount) FROM ledger, accounts "
    "WHERE ledger.acct = accounts.acct2 AND accounts.region < 3",
)

OPTIONS = ExecutionOptions(n_jobs=2, backend="process")
SERIAL_OPTIONS = ExecutionOptions()


def _tenant_data(tenant):
    """Deterministic per-tenant data; the two tenants genuinely differ."""
    rng = np.random.default_rng(11 + TENANTS.index(tenant))
    return {
        "ledger": {"acct": rng.integers(0, ACCOUNTS, LEDGER_ROWS),
                   "amount": rng.uniform(0.0, 100.0, LEDGER_ROWS)},
        "accounts": {"acct2": np.arange(ACCOUNTS),
                     "region": np.arange(ACCOUNTS) % 7},
        "means": {"CID": np.arange(30),
                  "m": np.linspace(1.0, 2.0, 30) * (1 + TENANTS.index(tenant))},
    }


_DATA = {tenant: _tenant_data(tenant) for tenant in TENANTS}


def _populate(session, tenant):
    for name, columns in _DATA[tenant].items():
        session.add_table(name, columns)
    session.execute(CREATE_LOSSES)


def _call(url, method="GET", body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read().decode())


def _served_run(options=OPTIONS):
    """The front end as designed: 8 HTTP clients, 2 tenants, 1 pool."""
    results = {tenant: {} for tenant in TENANTS}   # sql -> [payloads]
    failures = []
    with RiskServer(options=options,
                    server_options=ServerOptions(
                        concurrency=4, queue_depth=32,
                        query_timeout=None)) as server:
        base = server.url
        for tenant in TENANTS:
            _call(f"{base}/tenants/{tenant}", "POST",
                  {"base_seed": BASE_SEED})
            for name, columns in _DATA[tenant].items():
                _call(f"{base}/tenants/{tenant}/tables", "POST",
                      {"name": name,
                       "columns": {k: v.tolist()
                                   for k, v in columns.items()}})
            record = _submit_and_wait(base, tenant, CREATE_LOSSES)
            assert record["status"] == "done", record

        def client(index):
            tenant = TENANTS[index % len(TENANTS)]
            try:
                for sql in STATEMENTS:
                    record = _submit_and_wait(base, tenant, sql)
                    if record["status"] != "done":
                        failures.append(record)
                        return
                    results[tenant].setdefault(sql, []).append(record)
            except Exception as exc:
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        assert not failures, failures[:3]

        stats = _call(f"{base}/stats")
        hits = {entry["tenant"]: entry["det_cache"]["hits"]
                for entry in stats["tenants"]}
        latencies = sorted(
            record["total_seconds"]
            for by_sql in results.values()
            for records in by_sql.values() for record in records)
    return elapsed, results, hits, latencies


def _submit_and_wait(base, tenant, sql):
    submitted = _call(f"{base}/tenants/{tenant}/queries", "POST",
                      {"sql": sql})
    while True:
        # Server-side long-poll: one blocking GET per query, no spinning.
        record = _call(f"{base}/queries/{submitted['query_id']}?wait=30")
        if record["status"] not in ("queued", "running"):
            return record


def _baseline_run():
    """Fresh-session-per-request: the cost the server exists to remove."""
    failures = []

    def client(index):
        tenant = TENANTS[index % len(TENANTS)]
        try:
            for sql in STATEMENTS:
                with Session(base_seed=BASE_SEED, options=OPTIONS) as one:
                    _populate(one, tenant)
                    one.execute(sql)
        except Exception as exc:
            failures.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not failures, failures[:3]
    return elapsed


def _serial_reference(tenant):
    """One plain serial session, same seed, same statements, in order."""
    with Session(base_seed=BASE_SEED) as session:
        _populate(session, tenant)
        return {sql: output_to_wire(session.execute(sql))
                for sql in STATEMENTS}


def bench_throughput_and_identity():
    served_s, results, hits, latencies = _served_run()
    serial_s, serial_results, _, _ = _served_run(SERIAL_OPTIONS)
    baseline_s = _baseline_run()
    total = CLIENTS * len(STATEMENTS)
    served_qps = total / served_s
    baseline_qps = total / baseline_s
    speedup = served_qps / baseline_qps
    p50 = float(np.quantile(latencies, 0.50))
    p99 = float(np.quantile(latencies, 0.99))

    mismatches = 0
    for tenant in TENANTS:
        reference = _serial_reference(tenant)
        for served in (results, serial_results):
            for sql, records in served[tenant].items():
                for record in records:
                    if record["result"] != reference[sql]:
                        mismatches += 1

    print_experiment(
        "Risk service: 8 clients x 5 statements, 2 tenants",
        f"served    : {served_s:.2f}s  ({served_qps:.1f} q/s)\n"
        f"n_jobs=1  : {serial_s:.2f}s  (same server, no worker pool)\n"
        f"baseline  : {baseline_s:.2f}s  ({baseline_qps:.1f} q/s)\n"
        f"speedup   : {speedup:.2f}x   (gate >= 2x)\n"
        f"latency   : p50 {p50 * 1e3:.1f} ms, p99 {p99 * 1e3:.1f} ms "
        f"(admission to result)\n"
        f"det hits  : {hits}\n"
        f"mismatches: {mismatches} of {2 * total} payloads")

    record_metric(BENCH, "served_qps", round(served_qps, 2))
    record_metric(BENCH, "baseline_qps", round(baseline_qps, 2))
    record_metric(BENCH, "served_pooled_seconds", round(served_s, 3))
    record_metric(BENCH, "served_serial_seconds", round(serial_s, 3))
    record_metric(BENCH, "throughput_speedup_x", round(speedup, 2),
                  gate=">= 2x vs fresh-session-per-request")
    record_metric(BENCH, "p50_admission_to_result_ms", round(p50 * 1e3, 2))
    record_metric(BENCH, "p99_admission_to_result_ms", round(p99 * 1e3, 2))
    record_metric(BENCH, "min_det_cache_hits_per_tenant",
                  min(hits.values()), gate=">= 1 cross-query hit")
    record_metric(BENCH, "payload_mismatches", mismatches,
                  gate="== 0 (bit-identical to serial single-session)")

    assert speedup >= 2.0, \
        f"served mode only {speedup:.2f}x the fresh-session baseline"
    assert min(hits.values()) >= 1, \
        f"expected cross-query det-cache sharing per tenant, got {hits}"
    assert mismatches == 0, \
        f"{mismatches} served payloads differ from the serial reference"


if __name__ == "__main__":
    run_benchmark_cli([bench_throughput_and_identity])
