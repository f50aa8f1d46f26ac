"""The zero-copy shared-memory data plane: bit-identity and segment hygiene.

The broadcast-once transport (``bench_scaling`` part 1) stopped the
catalog from being pickled per *task*, but it still crossed the pipe as
pickled bytes once per worker — and the worker-owned Gibbs snapshots
(part 2) still shipped their handle arrays the same way.  The shm data
plane (``src/repro/engine/shm.py``) places each bulk array in a
``multiprocessing.shared_memory`` segment exactly once and ships tens of
bytes of descriptor instead; workers attach zero-copy views over the
same physical pages.

This benchmark runs the bench_scaling session workload — a 120-customer
uncertain table next to a 600k-row position ledger riding the catalog —
through one Monte Carlo query and one deep-tail Gibbs query on the
process backend, next to an ungated ``n_jobs=1`` serial leg (absolute
seconds of both are recorded), and gates on

* **bit-identity**: both queries' samples must match the serial leg
  exactly — the data plane is a transport, never a semantics change;
* **lifecycle**: zero ``mcdbr-*`` segments left in ``/dev/shm`` after
  every ``Session.close()``.

Run:  python benchmarks/bench_zero_copy.py [--json]
"""

import numpy as np

from repro.engine.options import ExecutionOptions
from repro.engine.shm import leaked_segments
from repro.experiments import (
    format_table, print_experiment, record_metric, run_benchmark_cli, timed)
from repro.sql import Session

CUSTOMERS = 120
#: Big enough that shipping the ledger dominates the session's transport
#: cost.
LEDGER_ROWS = 600_000
N_JOBS = 2
ROUNDS = 5
BASE_SEED = 2026

CREATE = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH myVal AS Normal(VALUES(m, 1.0))
    SELECT CID, myVal.* FROM myVal
"""
MC_QUERY = """
    SELECT SUM(val) AS loss FROM Losses WHERE CID < 120
    WITH RESULTDISTRIBUTION MONTECARLO(48)
"""
TAIL_QUERY = """
    SELECT SUM(val) AS loss FROM Losses WHERE CID < 120
    WITH RESULTDISTRIBUTION MONTECARLO(30)
    DOMAIN loss >= QUANTILE(0.9)
"""


def _make_session(n_jobs: int) -> Session:
    session = Session(
        base_seed=BASE_SEED, tail_budget=200, window=2000,
        options=ExecutionOptions(n_jobs=n_jobs, backend="process"))
    rng = np.random.default_rng(0)
    session.add_table("means", {
        "CID": np.arange(CUSTOMERS),
        "m": rng.uniform(0.5, 3.0, size=CUSTOMERS)})
    # The bench_scaling position ledger: catalog bulk that every worker
    # needs but no query result returns — the shm data plane's bread and
    # butter.
    session.add_table("positions", {
        "PID": np.arange(LEDGER_ROWS),
        "CID": rng.integers(0, CUSTOMERS, size=LEDGER_ROWS),
        "qty": rng.uniform(0.0, 10.0, size=LEDGER_ROWS),
        "strike": rng.uniform(10.0, 90.0, size=LEDGER_ROWS)})
    session.execute(CREATE)
    return session


def _run(n_jobs: int):
    session = _make_session(n_jobs)
    try:
        # Warm-up: forks the pool and ships the catalog's first version,
        # so the timed window below measures transport instead of
        # process-spawn noise.  The version bump then forces the timed
        # queries to re-ship the whole ledger through the data plane
        # (bit-identity across bumps is pinned in tests/test_backends.py).
        session.execute(MC_QUERY)
        session.add_table("epoch", {"k": np.arange(3)})
        mc, mc_seconds = timed(session.execute, MC_QUERY)
        tail, tail_seconds = timed(session.execute, TAIL_QUERY)
        stats = dict(session.backend.stats) if session.backend else {}
    finally:
        session.close()
    assert leaked_segments() == [], (
        f"Session.close() leaked /dev/shm segments: {leaked_segments()}")
    samples = (mc.distributions.distribution("loss").samples,
               tail.tail.samples)
    return samples, mc_seconds + tail_seconds, stats


def test_shm_data_plane_is_bit_identical_and_leak_free():
    samples, stats = {}, {}
    best = {"serial": np.inf, "shm": np.inf}
    # Interleaved rounds: background-load drift on the host hits both
    # legs alike instead of biasing whichever ran first.
    for _ in range(ROUNDS):
        for leg, n_jobs in (("serial", 1), ("shm", N_JOBS)):
            result, seconds, run_stats = _run(n_jobs)
            best[leg] = min(best[leg], seconds)
            samples[leg] = result
            stats[leg] = run_stats

    # Bit-identity: the data plane changes how bytes travel, never which
    # bytes the query math sees.
    for got, want in zip(samples["shm"], samples["serial"]):
        np.testing.assert_array_equal(got, want)

    shm_stats = stats["shm"]
    pickled = (shm_stats["shared_wire_bytes"]
               + shm_stats["state_init_wire_bytes"])
    body = format_table(
        ["leg", "n_jobs", "total s", "pickled catalog+init bytes",
         "segments", "segment bytes", "attached bytes"],
        [["serial", 1, f"{best['serial']:.3f}", 0, 0, 0, 0],
         ["shm data plane", N_JOBS, f"{best['shm']:.3f}", f"{pickled:,}",
          shm_stats["shm_segments"], f"{shm_stats['shm_bytes']:,}",
          f"{shm_stats['shm_attached_bytes']:,}"]])
    print_experiment(
        f"Zero-copy shm data plane vs the serial session "
        f"(n_jobs={N_JOBS}, {LEDGER_ROWS:,}-row ledger)", body)

    record_metric("bench_zero_copy", "leaked_segments",
                  len(leaked_segments()), gate="== 0")
    record_metric("bench_zero_copy", "serial_seconds",
                  round(best["serial"], 3))
    record_metric("bench_zero_copy", "shm_seconds", round(best["shm"], 3))

    assert shm_stats["shm_segments"] > 0


if __name__ == "__main__":
    run_benchmark_cli([test_shm_data_plane_is_bit_identical_and_leak_free])
