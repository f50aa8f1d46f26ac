"""Table-granular det-cache invalidation + append-only incremental refresh.

The session det-cache keys each entry by the per-table versions of its
plan's base tables, so unrelated mutations leave entries untouched, and
append-only growth (``Catalog.append``) splices just the new rows
through Scan/Seed/Select/Project/Join instead of recomputing.

Part 1 drives a mutation-heavy workload over a hot ledger⋈accounts det
pipeline (the hash join's Python row loop is the recomputation cost the
cache exists to avoid): every round rewrites an unrelated scratch table,
every other round appends a small ledger delta.  It runs next to an
ungated uncached leg (``det_cache="off"``, the simplest path giving the
same answer) on the same schedule; the checksums must match.  Gate:

* **append splices**: at least one append-refresh must actually happen
  — otherwise the cached leg would just be measuring cache hits.

Part 2 pins the correctness contract: MC and deep-tail samples across
backend x replenishment — with a mid-session append on every leg — must
be bit-identical to the uncached serial reference.

Run:  python benchmarks/bench_incremental.py [--json]
"""

import numpy as np

from repro.engine.det_cache import NullDetCache, SessionDetCache
from repro.engine.expressions import col, lit
from repro.engine.operators import (
    ExecutionContext, Join, Project, Scan, Select)
from repro.engine.options import ExecutionOptions
from repro.engine.table import Catalog, Table
from repro.experiments import (
    format_table, print_experiment, record_metric, run_benchmark_cli, timed)
from repro.sql import Session

LEDGER_ROWS = 40_000
ACCOUNTS = 400
APPEND_ROWS = 200
ROUNDS = 8
REPS = 3
BASE_SEED = 2026


def _catalog():
    rng = np.random.default_rng(BASE_SEED)
    catalog = Catalog()
    catalog.add_table(Table("ledger", {
        "acct": rng.integers(0, ACCOUNTS, size=LEDGER_ROWS),
        "amount": rng.uniform(0.0, 100.0, size=LEDGER_ROWS)}))
    catalog.add_table(Table("accounts", {
        "acct2": np.arange(ACCOUNTS),
        "region": np.arange(ACCOUNTS) % 7}))
    catalog.add_table(Table("scratch", {"k": np.arange(1)}))
    return catalog


def _pipeline():
    join = Join(Scan("ledger"), Scan("accounts"), ["acct"], ["acct2"])
    select = Select(join, col("region") < lit(3))
    return Project(select,
                   outputs=(("double", col("amount") + col("amount")),),
                   keep=["acct", "amount"])


def _mutation_path(cache):
    """One warm query, then ROUNDS of mutate-and-requery.

    Every round rewrites the unrelated scratch table; every other round
    also appends APPEND_ROWS fresh ledger rows.  Cached and uncached legs
    see the exact same schedule and must produce the exact same
    checksums.
    """
    catalog = _catalog()
    plan = _pipeline()
    rng = np.random.default_rng(BASE_SEED + 1)

    def execute():
        context = ExecutionContext(catalog, positions=4, aligned=True,
                                   det_cache=cache)
        return plan.execute(context)

    execute()  # warm: populate the cache before the timed mutation loop

    def loop():
        checksums = []
        for round_index in range(ROUNDS):
            catalog.add_table(Table("scratch", {
                "k": np.arange(round_index + 2)}))
            if round_index % 2 == 1:
                catalog.append("ledger", {
                    "acct": rng.integers(0, ACCOUNTS, size=APPEND_ROWS),
                    "amount": rng.uniform(0.0, 100.0, size=APPEND_ROWS)})
            checksums.append(float(execute().det_columns["double"].sum()))
        return checksums

    checksums, seconds = timed(loop)
    return seconds, checksums


CREATE = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH myVal AS Normal(VALUES(m, 1.0))
    SELECT CID, myVal.* FROM myVal
"""
MC_QUERY = """
    SELECT SUM(val) AS loss FROM Losses
    WITH RESULTDISTRIBUTION MONTECARLO(24)
"""
TAIL_QUERY = """
    SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
    WITH RESULTDISTRIBUTION MONTECARLO(24)
    DOMAIN loss >= QUANTILE(0.9)
"""


def _session_leg(det_cache, backend, replenishment):
    """MC + tail -> append -> MC + tail, returning every sample array."""
    n_jobs = 2 if backend != "serial" else 1
    session = Session(
        base_seed=11, tail_budget=200, window=150,
        options=ExecutionOptions(det_cache=det_cache, backend=backend,
                                 n_jobs=n_jobs,
                                 replenishment=replenishment))
    try:
        session.add_table("means", {
            "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
        session.execute(CREATE)
        before_mc = session.execute(MC_QUERY)
        before_tail = session.execute(TAIL_QUERY)
        session.append("means", {"CID": [15, 16], "m": [3.2, 3.4]})
        after_mc = session.execute(MC_QUERY)
        after_tail = session.execute(TAIL_QUERY)
        stats = session.cache_stats()
    finally:
        session.close()
    return (before_mc.distributions.distribution("loss").samples,
            before_tail.tail.samples,
            after_mc.distributions.distribution("loss").samples,
            after_tail.tail.samples), stats


def test_table_keying_splices_appends():
    best = {"cached": np.inf, "uncached": np.inf}
    checksums = {}
    # Interleaved reps: host background-load drift hits both legs alike
    # instead of biasing whichever ran first.
    for _ in range(REPS):
        for leg, cache in (("cached", SessionDetCache()),
                           ("uncached", NullDetCache())):
            seconds, checksums[leg] = _mutation_path(cache)
            best[leg] = min(best[leg], seconds)
            if leg == "cached":
                stats = cache.stats()

    # Same mutation schedule, same query math — the cache may only change
    # what is recomputed, never what is returned.
    assert checksums["cached"] == checksums["uncached"]
    refreshes = stats["append_refreshes"]

    body = format_table(
        ["leg", "mutation-loop s", "misses", "hits",
         "partial invalidations", "append refreshes"],
        [["session cache", f"{best['cached']:.3f}", stats["misses"],
          stats["hits"], stats["partial_invalidations"], refreshes],
         ["det_cache=off", f"{best['uncached']:.3f}", "-", "-", "-", "-"]])
    print_experiment(
        f"Table-granular det-cache vs no cache "
        f"({LEDGER_ROWS:,}-row ledger join, {ROUNDS} mutation rounds)",
        body)

    record_metric("bench_incremental", "append_refreshes",
                  refreshes, gate=">= 1")
    record_metric("bench_incremental", "cached_mutation_seconds",
                  round(best["cached"], 3))
    record_metric("bench_incremental", "uncached_mutation_seconds",
                  round(best["uncached"], 3))

    assert refreshes >= 1, (
        "the mutation path never exercised an append-splice refresh")


def test_cache_matrix_is_bit_identical():
    reference, _ = _session_leg("off", "serial", "full")
    identical = 0
    legs = [(backend, replenishment)
            for backend in ("serial", "process")
            for replenishment in ("delta", "full")]
    for backend, replenishment in legs:
        samples, run_stats = _session_leg("session", backend, replenishment)
        for got, want in zip(samples, reference):
            np.testing.assert_array_equal(got, want, err_msg=(
                f"backend={backend} replenishment={replenishment}"))
        assert run_stats["append_refreshes"] >= 1, (
            f"backend={backend} replenishment={replenishment} never "
            f"spliced the mid-session append")
        identical += 1

    print_experiment(
        "Bit-identity across backend x replenishment",
        f"{identical}/{len(legs)} legs bit-identical to the uncached "
        f"serial reference (each leg spans a mid-session append)")
    record_metric("bench_incremental", "bit_identical_legs",
                  identical, gate=f"== {len(legs)}")
    assert identical == len(legs)


if __name__ == "__main__":
    run_benchmark_cli([test_table_keying_splices_appends,
                       test_cache_matrix_is_bit_identical])
