"""The execution-backend layer: transports, pool lifecycle, payloads.

Four contracts pinned down here:

* **Results transparency** — ``run_job(job, bounds)`` returns exactly
  ``[job.run_shard(lo, hi) for lo, hi in bounds]`` on every backend (the
  bit-level equivalence of real query results lives in
  ``tests/test_engine_equivalence.py``).
* **Broadcast-once transport** — the per-shard task message is a
  constant-size ``(job_id, lo, hi)`` triple; the job payload is pickled
  once per query and the catalog once per ``(catalog, version)`` key.
  The payload regression tests keep the catalog from ever creeping back
  into per-task pickling.
* **Det-cache shard semantics** — workers are pre-warmed with a snapshot
  of the session cache at broadcast time; worker-local fills never flow
  back to the session.
* **Worker-owned state** — the stateful Gibbs protocol: state ships once
  at ``init_state`` and evolves only through notifications; per-sweep
  traffic is commit messages, never snapshot re-ships; any worker death
  or in-state error tears the pool down into a clean ``EngineError``
  carrying the worker traceback, discarding is a stale-reply drain
  barrier, and no state survives ``close()`` or a ``Catalog.version``
  bump — a fresh query on the same session respawns workers with fresh
  state (no hang, no stale replies).
"""

import multiprocessing
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.gibbs_looper import GibbsLooper
from repro.core.params import TailParams
from repro.engine.backends import (
    ProcessBackend, SerialBackend, SharedBackend, catalog_share_key,
    make_backend)
from repro.engine.errors import EngineError
from repro.engine.expressions import col, lit
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import Select, random_table_pipeline
from repro.engine.options import ExecutionOptions
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.sql import Session
from repro.vg.builtin import NORMAL

BACKENDS = ("serial", "process")
#: The worker pools: the process backend on its own, and wrapped in the
#: :class:`SharedBackend` the risk service runs every tenant on.
POOLS = ("process", "shared")
#: Every transport a caller can hold.
TRANSPORTS = BACKENDS + ("shared",)


class SpanJob:
    """Module-level so ProcessBackend can pickle it."""

    def run_shard(self, lo, hi):
        return list(range(lo, hi))


class FailingJob:
    def run_shard(self, lo, hi):
        raise ValueError(f"boom at {lo}")


class LedgerState:
    """Stateful payload for the worker-owned-state protocol tests."""

    def __init__(self, label, entries):
        self.label = label
        self.entries = list(entries)

    def record(self, *values):          # notification target
        self.entries.extend(values)

    def total(self):                    # synchronous-call target
        return (self.label, sum(self.entries))

    def span(self, lo, hi):             # scatter target
        return (self.label, list(self.entries[lo:hi]))


class ExplodingState:
    def boom(self):
        raise ValueError("state op exploded")

    def ok(self):
        return "fine"


class SuicidalState:
    """Simulates a worker lost to the OS (OOM kill, crash) mid-operation."""

    def die(self):
        os.kill(os.getpid(), signal.SIGKILL)

    def ok(self):
        return "alive"


class UnpicklableState:
    """Pickles fine parent-side, explodes when the worker unpickles it."""

    def __init__(self):
        self.payload = "present"  # non-empty state so __setstate__ runs

    def __setstate__(self, state):
        raise RuntimeError("worker-side unpickle exploded")

    def ok(self):
        return "fine"


class SharedArrayJob:
    """Exercises the keyed shared channel the catalog rides in production."""

    def __init__(self, key, array):
        self.key = key
        self.array = array

    def shared_payload(self):
        return {self.key: self.array}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["array"] = None
        return state

    def attach_shared(self, shared):
        self.array = shared[self.key]

    def run_shard(self, lo, hi):
        return float(self.array[lo:hi].sum())


def _make_backend(name, n_workers=2):
    if name == "shared":
        return SharedBackend(ProcessBackend(n_workers))
    return make_backend(ExecutionOptions(n_jobs=n_workers, backend=name))


def _pool(backend):
    """The process pool behind ``backend``, unwrapping a SharedBackend."""
    return backend.inner if isinstance(backend, SharedBackend) else backend


def _assert_free_for_other_threads(backend):
    """Another thread's job completes: no live token still holds the pool
    (a SharedBackend keeps its lock from ``init_state`` to the discard)."""
    results = []
    thread = threading.Thread(
        target=lambda: results.append(
            backend.run_job(SpanJob(), [(0, 1), (1, 2)])),
        daemon=True)
    thread.start()
    thread.join(30)
    assert results == [[[0], [1]]], "pool still held by a live token"


def _mc_executor(rows=12, options=None, det_cache=None):
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(rows), "m": np.linspace(0.8, 3.5, rows)}))
    spec = RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))
    plan = Select(random_table_pipeline(spec), col("val") > lit(1.0))
    aggregates = [AggregateSpec("total", "sum", col("val")),
                  AggregateSpec("n", "count")]
    return MonteCarloExecutor(plan, aggregates, catalog, base_seed=3,
                              options=options, det_cache=det_cache)


class TestShardBounds:
    """Edge geometry of ExecutionOptions.shard_bounds."""

    def test_fewer_repetitions_than_workers(self):
        bounds = ExecutionOptions(n_jobs=4).shard_bounds(3)
        assert bounds == [(0, 1), (1, 2), (2, 3)]

    def test_shard_size_larger_than_repetitions(self):
        bounds = ExecutionOptions(n_jobs=2, shard_size=500).shard_bounds(7)
        assert bounds == [(0, 7)]

    def test_shard_size_one(self):
        bounds = ExecutionOptions(n_jobs=2, shard_size=1).shard_bounds(4)
        assert bounds == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_single_repetition(self):
        assert ExecutionOptions(n_jobs=8).shard_bounds(1) == [(0, 1)]

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            ExecutionOptions(n_jobs=2).shard_bounds(0)

    def test_bounds_cover_and_tile(self):
        for n_jobs, shard_size, repetitions in [(3, None, 100), (5, 7, 23),
                                                (2, 1, 9), (7, None, 5)]:
            bounds = ExecutionOptions(
                n_jobs=n_jobs, shard_size=shard_size).shard_bounds(repetitions)
            assert bounds[0][0] == 0 and bounds[-1][1] == repetitions
            assert all(hi == next_lo for (_, hi), (next_lo, _)
                       in zip(bounds, bounds[1:]))


class TestOptionsValidation:
    @pytest.mark.parametrize("backend", ["quantum", "thread"])
    def test_unknown_backend(self, backend):
        # "thread" names the retired in-process thread pool.
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionOptions(backend=backend)

    def test_join_timeout_is_not_a_knob(self):
        """The pool's close() join wait is the module's ``_JOIN_TIMEOUT``
        constant, not an option."""
        with pytest.raises(TypeError, match="join_timeout"):
            ExecutionOptions(join_timeout=1.0)

    def test_window_growth_below_one(self):
        with pytest.raises(ValueError, match="window_growth"):
            ExecutionOptions(window_growth=0.5)

    def test_window_growth_nan(self):
        with pytest.raises(ValueError, match="window_growth"):
            ExecutionOptions(window_growth=float("nan"))

    def test_make_backend_dispatch(self):
        assert isinstance(_make_backend("serial"), SerialBackend)
        assert isinstance(_make_backend("process"), ProcessBackend)


class TestResultsTransparency:
    """run_job == the serial loop, on every transport."""

    @pytest.mark.parametrize("backend_name", TRANSPORTS)
    def test_results_in_bounds_order(self, backend_name):
        bounds = [(0, 3), (3, 5), (5, 11), (11, 12)]
        with _make_backend(backend_name, 2) as backend:
            results = backend.run_job(SpanJob(), bounds)
        assert results == [list(range(lo, hi)) for lo, hi in bounds]

    @pytest.mark.parametrize("backend_name", TRANSPORTS)
    def test_single_bound_runs_inline(self, backend_name):
        with _make_backend(backend_name, 2) as backend:
            assert backend.run_job(SpanJob(), [(2, 5)]) == [[2, 3, 4]]

    @pytest.mark.parametrize("backend_name", TRANSPORTS)
    def test_empty_bounds(self, backend_name):
        with _make_backend(backend_name, 2) as backend:
            assert backend.run_job(SpanJob(), []) == []

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_more_bounds_than_workers(self, backend_name):
        bounds = [(i, i + 1) for i in range(17)]
        with _make_backend(backend_name, 3) as backend:
            results = backend.run_job(SpanJob(), bounds)
        assert results == [[i] for i in range(17)]


class TestProcessPoolLifecycle:
    def test_workers_persist_across_jobs(self):
        backend = ProcessBackend(2)
        try:
            backend.run_job(SpanJob(), [(0, 1), (1, 2)])
            pids = backend.worker_pids()
            backend.run_job(SpanJob(), [(0, 2), (2, 4), (4, 6)])
            assert backend.worker_pids() == pids
            assert backend.stats["spawns"] == 2
            assert backend.stats["jobs"] == 2
        finally:
            backend.close()
        assert backend.workers_alive == 0

    def test_close_is_idempotent_and_pool_respawns(self):
        backend = ProcessBackend(2)
        backend.run_job(SpanJob(), [(0, 1), (1, 2)])
        backend.close()
        backend.close()
        assert backend.run_job(SpanJob(), [(0, 1), (1, 2)]) == [[0], [1]]
        assert backend.stats["spawns"] == 4
        backend.close()

    def test_dead_worker_surfaces_as_engine_error(self):
        """A worker killed between jobs (OOM, crash) must surface as the
        contract's EngineError — not a bare BrokenPipeError — and the
        next job must respawn a clean pool."""
        backend = ProcessBackend(2)
        try:
            backend.run_job(SpanJob(), [(0, 1), (1, 2)])
            backend._workers[0].process.terminate()
            backend._workers[0].process.join()
            with pytest.raises(EngineError, match="worker process died"):
                backend.run_job(SpanJob(), [(0, 1), (1, 2)])
            assert backend.workers_alive == 0
            assert backend.run_job(SpanJob(), [(0, 1), (1, 2)]) == [[0], [1]]
        finally:
            backend.close()

    def test_interrupt_mid_dispatch_resets_pool(self, monkeypatch):
        """A BaseException escaping mid-dispatch (Ctrl-C) must reset the
        pool: the in-flight shard replies of the aborted job would
        otherwise be consumed as the *next* job's results."""
        backend = ProcessBackend(2)
        try:
            backend.run_job(SpanJob(), [(0, 1), (1, 2)])  # warm pool
            original = ProcessBackend._dispatch

            def interrupted(self, active, job_id, bounds):
                # Dispatch every task but collect no replies — the moment
                # Ctrl-C lands, shard results are in flight on the pipes.
                for index, (lo, hi) in enumerate(bounds):
                    active[index % len(active)].conn.send(
                        self.task_message(job_id, index, lo, hi))
                raise KeyboardInterrupt

            monkeypatch.setattr(ProcessBackend, "_dispatch", interrupted)
            with pytest.raises(KeyboardInterrupt):
                backend.run_job(SpanJob(), [(5, 6), (6, 7)])
            monkeypatch.setattr(ProcessBackend, "_dispatch", original)
            assert backend.workers_alive == 0  # pool reset, replies gone
            assert backend.run_job(SpanJob(), [(0, 2), (2, 3)]) == \
                [[0, 1], [2]]
        finally:
            backend.close()

    def test_worker_error_propagates_and_resets_pool(self):
        backend = ProcessBackend(2)
        try:
            with pytest.raises(EngineError, match="boom at"):
                backend.run_job(FailingJob(), [(0, 1), (1, 2)])
            assert backend.workers_alive == 0  # pool reset, no stale replies
            # ... and the backend remains usable afterwards.
            assert backend.run_job(SpanJob(), [(0, 2), (2, 3)]) == [[0, 1], [2]]
        finally:
            backend.close()


class TestSharedChannel:
    """Keyed broadcast: pickle once per key, send once per worker."""

    def test_shared_object_pickled_once_across_jobs(self):
        array = np.arange(64, dtype=np.float64)
        key = ("array", 1)
        backend = ProcessBackend(2)
        try:
            for _ in range(3):
                results = backend.run_job(
                    SharedArrayJob(key, array), [(0, 32), (32, 64)])
                assert results == [float(array[:32].sum()),
                                   float(array[32:].sum())]
            assert backend.stats["shared_pickles"] == 1
            assert backend.stats["shared_sends"] == 2  # once per worker
        finally:
            backend.close()

    def test_new_key_rebroadcasts(self):
        array = np.arange(16, dtype=np.float64)
        backend = ProcessBackend(2)
        try:
            backend.run_job(SharedArrayJob(("array", 1), array),
                            [(0, 8), (8, 16)])
            backend.run_job(SharedArrayJob(("array", 2), array + 1),
                            [(0, 8), (8, 16)])
            assert backend.stats["shared_pickles"] == 2
            assert backend.stats["shared_sends"] == 4
        finally:
            backend.close()

    def test_catalog_share_key_tracks_version(self):
        catalog = Catalog()
        catalog.add_table(Table("t", {"x": [1.0]}))
        before = catalog_share_key(catalog)
        catalog.add_table(Table("u", {"y": [2.0]}))
        after = catalog_share_key(catalog)
        assert before != after
        assert catalog_share_key(catalog) == after  # stable while unmutated

    def test_catalog_share_key_never_aliases_across_catalogs(self):
        """Two distinct catalogs at the same version must never share a
        key.  The seed keyed on ``id(catalog)``, which CPython recycles
        the moment a catalog is garbage-collected — a stale worker-side
        cache entry could then serve the *old* catalog's columns for a
        brand-new catalog.  ``Catalog.uid`` is monotone per process, so
        recycled addresses can't collide."""
        def build():
            catalog = Catalog()
            catalog.add_table(Table("t", {"x": [1.0]}))
            return catalog

        first = build()
        first_key = catalog_share_key(first)
        del first  # frees the address for recycling
        second = build()
        assert catalog_share_key(second) != first_key
        # Same catalog, same version: the key is a pure function of
        # (uid, version), not of object identity at call time.
        assert catalog_share_key(second) == catalog_share_key(second)


class TestPayloadRegression:
    """Shard tasks must never regrow a catalog payload.

    The seed implementation pickled ``(executor, lo, hi)`` — catalog,
    plan and det cache — once per shard task.  The backend transport
    pins: task messages are constant-size triples, the broadcast job
    excludes the catalog (it rides the keyed shared channel), and the
    stats the scaling benchmark reports reflect that.
    """

    def test_task_message_is_tiny_and_catalog_free(self):
        executor = _mc_executor(rows=50_000)
        task = ProcessBackend.task_message(7, 0, 0, 25)
        task_bytes = len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
        catalog_bytes = len(pickle.dumps(executor.catalog,
                                         pickle.HIGHEST_PROTOCOL))
        assert task_bytes < 100
        assert catalog_bytes > 100_000
        assert task == ("run", 7, 0, 0, 25)  # integers only, nothing rides

    @pytest.mark.slow
    def test_broadcast_job_excludes_catalog(self):
        executor = _mc_executor(rows=50_000)
        job_bytes = len(pickle.dumps(executor, pickle.HIGHEST_PROTOCOL))
        catalog_bytes = len(pickle.dumps(executor.catalog,
                                         pickle.HIGHEST_PROTOCOL))
        assert job_bytes < catalog_bytes / 10
        restored = pickle.loads(pickle.dumps(executor,
                                             pickle.HIGHEST_PROTOCOL))
        assert restored.catalog is None
        with pytest.raises(EngineError, match="no catalog bound"):
            restored.run_shard(0, 4)
        restored.attach_shared(
            {catalog_share_key(executor.catalog): executor.catalog})
        result = restored.run_shard(0, 4)
        np.testing.assert_array_equal(
            result.distribution("total").samples,
            executor.run_shard(0, 4).distribution("total").samples)

    @pytest.mark.slow
    def test_end_to_end_transport_sizes(self):
        executor = _mc_executor(rows=20_000,
                                options=ExecutionOptions(n_jobs=2))
        backend = ProcessBackend(2)
        executor.backend = backend
        try:
            executor.run(50)
            catalog_bytes = len(pickle.dumps(executor.catalog,
                                             pickle.HIGHEST_PROTOCOL))
            assert backend.stats["task_bytes"] < 100
            assert backend.stats["job_bytes"] < catalog_bytes / 10
            assert backend.stats["shared_pickles"] == 1
        finally:
            backend.close()


class TestDetCacheShardSemantics:
    """Worker caches are snapshots: pre-warmed at broadcast, never merged."""

    CREATE = """
        CREATE TABLE Losses (CID, val) AS
        FOR EACH CID IN means
        WITH myVal AS Normal(VALUES(m, 1.0))
        SELECT CID, myVal.* FROM myVal
    """
    MC_QUERY = """
        SELECT SUM(val) AS loss FROM Losses
        WITH RESULTDISTRIBUTION MONTECARLO(60)
    """
    TAIL_QUERY = """
        SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
        WITH RESULTDISTRIBUTION MONTECARLO(30)
        DOMAIN loss >= QUANTILE(0.9)
    """

    def _session(self, options=None, shared_backend=None):
        session = Session(base_seed=11, tail_budget=200, window=150,
                          options=options, shared_backend=shared_backend)
        session.add_table("means", {
            "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
        session.execute(self.CREATE)
        return session

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_worker_fills_do_not_flow_back_under_process(self, backend_name):
        options = ExecutionOptions(n_jobs=2)
        pool = _make_backend(backend_name) if backend_name == "shared" \
            else None
        try:
            with self._session(options, shared_backend=pool) as session:
                session.execute(self.MC_QUERY)
                # Every shard ran in a worker process; the workers
                # materialized the deterministic subtrees in their local
                # snapshots, and none of those fills came back.
                assert len(session.det_cache) == 0
        finally:
            if pool is not None:
                pool.close()
        serial = self._session()
        serial.execute(self.MC_QUERY)
        assert len(serial.det_cache) > 0

    def test_serial_shards_share_the_live_session_cache(self):
        """The serial transport has the opposite — also intended —
        semantics: shards hold the session cache by reference, so their
        fills persist and later queries hit them."""
        with self._session(ExecutionOptions(
                n_jobs=2, backend="serial")) as session:
            session.execute(self.MC_QUERY)
            assert len(session.det_cache) > 0
            session.det_cache.hits = 0
            session.execute(self.MC_QUERY)
            assert session.det_cache.hits > 0

    def test_broadcast_carries_session_cache_snapshot(self):
        with self._session(ExecutionOptions(n_jobs=2)) as session:
            session.execute(self.TAIL_QUERY)  # tail runs fill the cache
            filled = len(session.det_cache)
            assert filled > 0
            from repro.sql.planner import compile_select, monte_carlo_executor
            from repro.sql.parser import parse
            compiled = compile_select(parse(self.MC_QUERY), session.catalog,
                                      tail_mode=False)
            executor = monte_carlo_executor(
                compiled, session.catalog, base_seed=session.base_seed,
                options=session.options, det_cache=session.det_cache)
            broadcast = pickle.loads(pickle.dumps(executor,
                                                  pickle.HIGHEST_PROTOCOL))
            # The worker-side copy is pre-warmed with the whole snapshot…
            assert len(broadcast.det_cache) == filled
            # …and filling it there leaves the session cache untouched.
            broadcast.attach_shared(
                {catalog_share_key(session.catalog): session.catalog})
            broadcast.run_shard(0, 5)
            assert len(session.det_cache) == filled


class TestSessionPoolLifecycle:
    CREATE = TestDetCacheShardSemantics.CREATE
    MC_QUERY = TestDetCacheShardSemantics.MC_QUERY

    def _session(self, options):
        session = Session(base_seed=7, options=options)
        session.add_table("means", {
            "CID": np.arange(10), "m": np.linspace(1.0, 2.0, 10)})
        session.execute(self.CREATE)
        return session

    def test_pool_spawns_lazily_and_persists(self):
        session = self._session(ExecutionOptions(n_jobs=2))
        assert session.backend is None  # nothing sharded yet
        session.execute(self.MC_QUERY)
        backend = session.backend
        assert backend is not None and backend.workers_alive == 2
        session.execute(self.MC_QUERY)
        assert session.backend is backend  # reused, not respawned
        assert backend.stats["spawns"] == 2
        session.close()
        assert session.backend is None and backend.workers_alive == 0

    def test_context_manager_closes_pool(self):
        with self._session(ExecutionOptions(n_jobs=2)) as session:
            session.execute(self.MC_QUERY)
            backend = session.backend
            assert backend.workers_alive == 2
        assert backend.workers_alive == 0

    def test_session_usable_after_close(self):
        session = self._session(ExecutionOptions(n_jobs=2))
        first = session.execute(self.MC_QUERY)
        session.close()
        second = session.execute(self.MC_QUERY)  # respawns transparently
        np.testing.assert_array_equal(
            first.distributions.distribution("loss").samples,
            second.distributions.distribution("loss").samples)
        session.close()

    def test_unsharded_session_never_builds_a_pool(self):
        session = self._session(ExecutionOptions(n_jobs=1))
        session.execute(self.MC_QUERY)
        assert session.backend is None
        session.close()


def _tail_looper(backend=None, n_jobs=2, customers=24, window=4000,
                 versions=40, num_samples=20, m=2, k=2, p_step=0.2,
                 base_seed=9, backend_name="process",
                 replenishment="delta"):
    """A rejection-heavy, replenishment-free Gibbs workload.

    ``window`` far exceeds what ``m * k`` sweeps consume, so the run has
    ``plan_runs == 1`` — the worker-state snapshot therefore ships
    exactly once and everything after sweep 1 is pure notifications,
    which is what the transport regression pins.
    """
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(customers),
        "m": np.linspace(0.8, 3.5, customers)}))
    spec = RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))
    params = TailParams(p=p_step ** m, m=m, n_steps=(versions,) * m,
                        p_steps=(p_step,) * m)
    return GibbsLooper(
        random_table_pipeline(spec), catalog, params, num_samples,
        aggregate_kind="sum", aggregate_expr=col("val"),
        window=window, base_seed=base_seed, k=k,
        options=ExecutionOptions(n_jobs=n_jobs, backend=backend_name,
                                 replenishment=replenishment),
        backend=backend)


class TestWorkerStateProtocol:
    """init_state / call / cast / scatter / collect / discard round-trips."""

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_process_roundtrip_and_ownership(self, backend_name):
        backend = _make_backend(backend_name)
        try:
            # Three shards on two workers: shard 2 shares worker 0.
            token = backend.init_state([
                LedgerState("a", [1, 2]), LedgerState("b", [3]),
                LedgerState("c", [4])])
            assert backend.state_call(token, 0, "total") == ("a", 3)
            assert backend.state_call(token, 2, "total") == ("c", 4)
            backend.state_cast(token, 1, "record", 10, 20)
            assert backend.state_call(token, 1, "total") == ("b", 33)
            backend.state_cast_all(token, "record", 100)
            assert backend.state_call(token, 0, "total") == ("a", 103)
            assert backend.state_call(token, 2, "total") == ("c", 104)
            backend.discard_state(token)
            with pytest.raises(EngineError, match="unknown worker state"):
                backend.state_call(token, 0, "total")
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_process_scatter_collects_in_any_order(self, backend_name):
        """Out-of-order collection across shards co-located on one worker
        must not cross replies (the ticket stash)."""
        backend = _make_backend(backend_name)
        try:
            token = backend.init_state([
                LedgerState(str(shard), range(shard, shard + 4))
                for shard in range(4)])
            backend.state_scatter(token, "span",
                                  [(0, 2), (1, 3), (0, 4), (2, 4)])
            assert backend.state_collect(token, 3) == ("3", [5, 6])
            assert backend.state_collect(token, 0) == ("0", [0, 1])
            assert backend.state_collect(token, 2) == ("2", [2, 3, 4, 5])
            assert backend.state_collect(token, 1) == ("1", [2, 3])
            backend.discard_state(token)
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_discard_drains_uncollected_scatter_replies(self, backend_name):
        """A state discarded with replies still in flight must not leak
        them into later traffic (the drain barrier)."""
        backend = _make_backend(backend_name)
        try:
            token = backend.init_state([LedgerState("x", [1]),
                                        LedgerState("y", [2])])
            backend.state_scatter(token, "total", [(), ()])
            backend.discard_state(token)  # never collected
            with pytest.raises(EngineError, match="no scattered reply"):
                backend.state_collect(token, 0)
            fresh = backend.init_state([LedgerState("f", [7]),
                                        LedgerState("g", [8])])
            backend.state_scatter(fresh, "total", [(), ()])
            assert backend.state_collect(fresh, 0) == ("f", 7)
            assert backend.state_collect(fresh, 1) == ("g", 8)
            backend.discard_state(fresh)
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", TRANSPORTS)
    def test_double_scatter_is_a_protocol_error(self, backend_name):
        """Re-scattering over an uncollected reply would orphan it (and
        its stash slot, on the process transport) — every backend must
        refuse, leaving the first reply collectable."""
        backend = _make_backend(backend_name)
        try:
            token = backend.init_state([LedgerState("a", [1])])
            backend.state_scatter(token, "total", [()])
            with pytest.raises(EngineError, match="already has a scattered"):
                backend.state_scatter(token, "total", [()])
            assert backend.state_collect(token, 0) == ("a", 1)
            backend.discard_state(token)
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    def test_serial_state_is_a_pickled_mirror(self):
        """The serial backend must mirror, not alias: casts apply to the
        pickled copy and never to the caller's live object — that is
        what makes it the replay reference implementation."""
        payload = LedgerState("m", [1])
        backend = SerialBackend()
        token = backend.init_state([payload])
        backend.state_cast(token, 0, "record", 41)
        assert backend.state_call(token, 0, "total") == ("m", 42)
        assert payload.entries == [1]  # caller's object untouched
        payload.entries.append(999)    # …and mirror blind to caller edits
        assert backend.state_call(token, 0, "total") == ("m", 42)

    def test_state_merge_semantics_per_backend(self):
        """``state_merge`` is a splice verb: the serial mirror applies it
        (the replayable reference), and the process transport accounts
        its bytes as re-init rather than notification traffic."""
        payload = LedgerState("m", [1])
        serial = SerialBackend()
        token = serial.init_state([payload])
        serial.state_merge(token, 0, "record", 10)
        assert serial.state_call(token, 0, "total") == ("m", 11)
        assert payload.entries == [1]  # caller's object untouched
        with pytest.raises(EngineError, match="unknown worker state"):
            serial.state_merge(99, 0, "record", 1)

        process = ProcessBackend(2)
        try:
            token = process.init_state([LedgerState("p", [1])])
            process.state_merge(token, 0, "record", 29)
            assert process.stats["state_merges"] == 1
            assert process.stats["state_merge_bytes"] > 0
            # Merge bytes are re-init traffic, not notifications.
            assert process.stats["state_msg_bytes"] == 0
            assert process.state_call(token, 0, "total") == ("p", 30)
            with pytest.raises(EngineError, match="unknown worker state"):
                process.state_merge(token + 1, 0, "record", 1)
        finally:
            process.close()


class TestWorkerStateFaults:
    """Fault injection: every failure is a clean EngineError + pool reset.

    On the shared pool each case then discards its tokens, as the looper
    does while unwinding, and checks that another thread gets the pool.
    """

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_state_error_carries_traceback_and_resets_pool(self,
                                                           backend_name):
        backend = _make_backend(backend_name)
        try:
            token = backend.init_state([ExplodingState(), ExplodingState()])
            processes = [worker.process
                         for worker in _pool(backend)._workers]
            assert backend.state_call(token, 0, "ok") == "fine"
            with pytest.raises(EngineError, match="state op exploded"):
                backend.state_call(token, 1, "boom")
            # Pool reset, no stale replies.
            assert _pool(backend).workers_alive == 0
            assert not any(process.is_alive() for process in processes)
            fresh = backend.init_state([ExplodingState()])  # respawns
            assert backend.state_call(fresh, 0, "ok") == "fine"
            backend.discard_state(token)
            backend.discard_state(fresh)
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_cast_error_surfaces_on_next_reply(self, backend_name):
        """A failed notification has no reply slot of its own; its error
        must surface on the next synchronous operation instead of being
        silently swallowed (a diverged mirror must never serve)."""
        backend = _make_backend(backend_name)
        try:
            token = backend.init_state([ExplodingState()])
            backend.state_cast(token, 0, "boom")
            with pytest.raises(EngineError, match="state op exploded"):
                backend.state_call(token, 0, "ok")
            assert _pool(backend).workers_alive == 0
            backend.discard_state(token)
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_init_unpickle_failure_carries_worker_traceback(self,
                                                            backend_name):
        """The sinit payload rides as a nested blob so a worker-side
        unpickling failure is caught in the worker's handler and comes
        back as a traceback — not a silent worker death."""
        backend = _make_backend(backend_name)
        try:
            token = backend.init_state([UnpicklableState()])
            with pytest.raises(EngineError,
                               match="worker-side unpickle exploded"):
                backend.state_call(token, 0, "ok")
            assert _pool(backend).workers_alive == 0
            backend.discard_state(token)
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_discard_surfaces_drained_cast_error(self, backend_name):
        """A cast that fails with NO later synchronous operation must not
        vanish: the discard barrier drains its error reply and re-raises
        it — a diverged mirror is never silent, even at query end."""
        backend = _make_backend(backend_name)
        try:
            token = backend.init_state([ExplodingState()])
            backend.state_cast(token, 0, "boom")
            with pytest.raises(EngineError, match="state op exploded"):
                backend.discard_state(token)
            assert _pool(backend).workers_alive == 0
            fresh = backend.init_state([ExplodingState()])
            assert backend.state_call(fresh, 0, "ok") == "fine"
            backend.discard_state(fresh)
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_worker_killed_mid_call(self, backend_name):
        backend = _make_backend(backend_name)
        try:
            token = backend.init_state([SuicidalState(), SuicidalState()])
            assert backend.state_call(token, 0, "ok") == "alive"
            with pytest.raises(EngineError, match="died"):
                backend.state_call(token, 1, "die")
            assert _pool(backend).workers_alive == 0
            fresh = backend.init_state([SuicidalState()])
            assert backend.state_call(fresh, 0, "ok") == "alive"
            backend.discard_state(token)
            backend.discard_state(fresh)
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_worker_killed_between_calls(self, backend_name):
        backend = _make_backend(backend_name)
        try:
            token = backend.init_state([LedgerState("a", [1]),
                                        LedgerState("b", [2])])
            assert backend.state_call(token, 0, "total") == ("a", 1)
            processes = [worker.process
                         for worker in _pool(backend)._workers]
            processes[0].terminate()
            processes[0].join()
            with pytest.raises(EngineError, match="died"):
                for _ in range(3):  # first send may land in the dead pipe
                    backend.state_call(token, 0, "total")
            assert _pool(backend).workers_alive == 0
            # The reset stopped the surviving worker too.
            assert not any(process.is_alive() for process in processes)
            backend.discard_state(token)
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_state_dies_with_close_and_respawn_is_explicit(self,
                                                           backend_name):
        """The respawn-after-close contract: a closed pool's state tokens
        are dead — state calls raise immediately instead of lazily
        spawning workers that never held the state — and only a fresh
        init_state repopulates the respawned pool."""
        backend = _make_backend(backend_name)
        try:
            token = backend.init_state([LedgerState("a", [5])])
            assert backend.state_call(token, 0, "total") == ("a", 5)
            backend.close()
            backend.close()  # idempotent
            assert _pool(backend).workers_alive == 0
            with pytest.raises(EngineError, match="unknown worker state"):
                backend.state_call(token, 0, "total")
            # No silent lazy respawn.
            assert _pool(backend).workers_alive == 0
            fresh = backend.init_state([LedgerState("z", [6])])
            assert backend.state_call(fresh, 0, "total") == ("z", 6)
            # 2 original + 2 respawned.
            assert _pool(backend).stats["spawns"] == 4
            backend.discard_state(token)
            backend.discard_state(fresh)
            _assert_free_for_other_threads(backend)
        finally:
            backend.close()

    def test_serial_backend_drops_state_on_close(self):
        """The stale-state leak fix: the serial backend must not keep
        payload references alive across close() — a token from before
        the close can never resolve again."""
        backend = SerialBackend()
        token = backend.init_state([LedgerState("a", [1]),
                                    LedgerState("b", [2])])
        assert backend.state_call(token, 1, "total") == ("b", 2)
        backend.close()
        assert backend._states == {}
        with pytest.raises(EngineError, match="unknown worker state"):
            backend.state_call(token, 0, "total")
        fresh = backend.init_state([LedgerState("c", [3])])
        assert backend.state_call(fresh, 0, "total") == ("c", 3)
        assert fresh != token  # tokens never alias across close()
        backend.close()


class TestWorkerStateQueryFaults:
    """Worker death inside a real sharded tail query, session-level."""

    CREATE = TestDetCacheShardSemantics.CREATE
    TAIL_QUERY = """
        SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
        WITH RESULTDISTRIBUTION MONTECARLO(30)
        DOMAIN loss >= QUANTILE(0.9)
    """

    def _session(self):
        session = Session(base_seed=11, tail_budget=200, window=2000,
                          options=ExecutionOptions(n_jobs=2))
        session.add_table("means", {
            "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
        session.execute(self.CREATE)
        return session

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="kill injection relies on fork inheriting the patched class")
    @pytest.mark.parametrize("method", ["serve_windows", "apply_clone"])
    def test_kill_mid_sweep_and_between_sweeps(self, method, monkeypatch):
        """``serve_windows`` dies mid-sweep (inside the scatter), while
        ``apply_clone`` dies between bootstrap steps.  Both must tear the
        pool down into a clean EngineError — no hang — and a fresh query
        on the same session must respawn workers with correct state."""
        from repro.core import gibbs_looper as gl
        with self._session() as healthy:
            expected = healthy.execute(self.TAIL_QUERY)
        with self._session() as session:

            def killer(self, *args):
                os.kill(os.getpid(), signal.SIGKILL)

            # Workers fork at first use, inheriting the patched class.
            monkeypatch.setattr(gl.GibbsSeedShard, method, killer)
            with pytest.raises(EngineError):
                session.execute(self.TAIL_QUERY)
            assert session.backend.workers_alive == 0  # pool torn down
            monkeypatch.undo()  # fresh workers fork from healthy code
            recovered = session.execute(self.TAIL_QUERY)
            np.testing.assert_array_equal(recovered.tail.samples,
                                          expected.tail.samples)
            assert recovered.tail.assignments == expected.tail.assignments

    def test_worker_state_never_survives_catalog_bumps(self):
        """Seed state is per-query; a Catalog.version bump between
        queries must meet a fresh init, never a stale mirror."""
        with self._session() as session:
            first = session.execute(self.TAIL_QUERY)
            inits = session.backend.stats["state_inits"]
            assert inits > 0
            session.add_table("extra", {"k": np.arange(3)})  # version bump
            second = session.execute(self.TAIL_QUERY)
            assert session.backend.stats["state_inits"] > inits
            np.testing.assert_array_equal(first.tail.samples,
                                          second.tail.samples)


class TestWorkerStateTransport:
    """Per-sweep bytes under worker-owned state: notifications only.

    Worker-owned state ships the tuple/state snapshot once at init and
    then sends commit notifications a few hundred bytes each.  These
    tests pin the shape: one init, zero job broadcasts, no re-ship after
    sweep 1, and delta refuels spliced instead of re-shipped — on the
    bare pool and behind the shared wrapper alike.
    """

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_zero_snapshot_reships_after_sweep_one(self, backend_name):
        backend = _make_backend(backend_name)
        try:
            result = _tail_looper(backend=backend).run()
            stats = backend.stats
            assert result.plan_runs == 1  # workload never replenished
            assert result.followup_windows > 0  # …yet follow-ups served
            assert stats["state_inits"] == 1  # snapshot shipped exactly once
            assert stats["jobs"] == 0  # and never broadcast as a job
            # Everything after sweep 1 is notifications: all four sweeps'
            # messages together stay well under one snapshot ship.
            assert stats["state_msg_bytes"] < stats["state_init_bytes"] / 3
            traffic = stats["state_calls"] + stats["state_casts"]
            assert stats["state_msg_bytes"] / traffic < 4096
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_delta_reinit_merges_instead_of_reshipping(self, backend_name):
        """A replenishing workload must ship the snapshot exactly once
        and survive every refuel with a ``state_merge`` splice strictly
        smaller than the snapshot."""
        backend = _make_backend(backend_name)
        try:
            result = _tail_looper(backend=backend, window=500,
                                  versions=30, p_step=0.15).run()
            stats = backend.stats
            assert result.plan_runs > 1  # workload really replenished
            assert result.worker_state_inits == 1
            assert result.worker_state_merges == result.plan_runs - 1
            assert result.merged_positions > 0
            assert stats["state_inits"] == 1
            assert stats["state_merges"] >= result.worker_state_merges
            # The whole point: all splices together stay well under the
            # one snapshot ship each of them replaced.
            assert stats["state_merge_bytes"] < stats["state_init_bytes"]
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_full_reinit_reships_snapshot_after_each_refuel(self,
                                                            backend_name):
        """``replenishment="full"`` rebuilds the tuple structure, so each
        refuel discards the worker state and ships a fresh snapshot —
        never a splice."""
        backend = _make_backend(backend_name)
        try:
            result = _tail_looper(backend=backend, window=500,
                                  versions=30, p_step=0.15,
                                  replenishment="full").run()
            assert result.plan_runs > 1
            assert result.worker_state_merges == 0
            assert result.worker_state_inits > 1
            assert backend.stats["state_merges"] == 0
            assert backend.stats["state_inits"] == \
                result.worker_state_inits
        finally:
            backend.close()


class StuckState:
    """Wedges its worker: ignores SIGTERM, then blocks far past the
    (shrunken, see test) close() join timeouts."""

    def wedge(self):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(600)


class TestPoolLifecycle:
    """Every teardown path leaves no worker alive.

    ``workers_alive`` counts the pool's *current* handles, which a reset
    empties, so these tests keep the original process handles and check
    each of them directly (the worker-state fault resets live in
    :class:`TestWorkerStateFaults`; the job-path resets are here).
    """

    @staticmethod
    def _processes(backend):
        return [worker.process for worker in _pool(backend)._workers]

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_close_stops_every_worker(self, backend_name):
        backend = _make_backend(backend_name)
        array = np.arange(30_000, dtype=np.float64)
        backend.run_job(SharedArrayJob(("t", 1), array),
                        [(0, 15_000), (15_000, 30_000)])
        backend.init_state([LedgerState("a", [1]), LedgerState("b", [2])])
        processes = self._processes(backend)
        backend.close()  # token never discarded: close must still stop all
        assert _pool(backend).workers_alive == 0
        assert not any(process.is_alive() for process in processes)

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_worker_error_reset_stops_every_worker(self, backend_name):
        """An in-worker job failure resets the pool before any close():
        both original workers are gone, not just the failing one."""
        backend = _make_backend(backend_name)
        try:
            backend.run_job(SpanJob(), [(0, 1), (1, 2)])
            processes = self._processes(backend)
            with pytest.raises(EngineError, match="boom at"):
                backend.run_job(FailingJob(), [(0, 1), (1, 2)])
            assert _pool(backend).workers_alive == 0
            assert not any(process.is_alive() for process in processes)
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_worker_kill_reset_stops_every_worker(self, backend_name):
        """A worker lost to SIGKILL between jobs surfaces on the next job;
        the reset also stops the surviving worker."""
        backend = _make_backend(backend_name)
        try:
            backend.run_job(SpanJob(), [(0, 1), (1, 2)])
            processes = self._processes(backend)
            processes[0].kill()
            processes[0].join()
            with pytest.raises(EngineError, match="died"):
                backend.run_job(SpanJob(), [(0, 1), (1, 2)])
            assert _pool(backend).workers_alive == 0
            assert not any(process.is_alive() for process in processes)
        finally:
            backend.close()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="wedge injection relies on fork inheriting the test class")
    def test_close_escalates_to_kill_for_sigterm_immune_workers(
            self, monkeypatch):
        """A worker that shrugs off SIGTERM must not survive close() as a
        zombie: close escalates to SIGKILL."""
        from repro.engine import backends as backends_module
        monkeypatch.setattr(backends_module, "_JOIN_TIMEOUT", 0.2)
        backend = ProcessBackend(1)
        try:
            token = backend.init_state([StuckState()])
            backend.state_cast(token, 0, "wedge")  # fire-and-forget
            victim = backend._workers[0].process
            backend.close()
            assert not victim.is_alive()
            assert backend.workers_alive == 0
        finally:
            backend.close()

    def test_session_close_stops_every_worker(self):
        with Session(base_seed=11, tail_budget=200, window=2000,
                     options=ExecutionOptions(n_jobs=2)) as session:
            session.add_table("means", {
                "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
            session.execute(TestDetCacheShardSemantics.CREATE)
            session.execute(TestWorkerStateQueryFaults.TAIL_QUERY)
            processes = self._processes(session.backend)
            assert processes and all(p.is_alive() for p in processes)
        assert not any(process.is_alive() for process in processes)


class _FailingDiscard(SerialBackend):
    def discard_state(self, token):
        super().discard_state(token)
        raise EngineError("discard drained a worker error")


class _FlakyCollectPool(ProcessBackend):
    """A process pool whose third scatter collection fails parent-side,
    mid-sweep, while the looper holds a live state token."""

    def __init__(self, n_workers):
        super().__init__(n_workers)
        self.collects = 0

    def state_collect(self, token, shard):
        self.collects += 1
        if self.collects == 3:
            raise EngineError("injected collect failure")
        return super().state_collect(token, shard)


class TestSharedBackendLock:
    """A live state token owns the shared pool until its discard.

    Tenants that interleave *between* operations can deadlock a process
    pool (a cast blocked on a worker that is itself blocked writing
    another tenant's uncollected scatter reply), so the lock spans the
    token's whole life.  The protocol cases run on the serial backend
    (the lock is the wrapper's, whatever the transport); the looper and
    tenant cases run on the process pool the service shares.
    """

    WAIT = 0.3  # seconds a blocked thread is given to (wrongly) finish

    @staticmethod
    def _start(target):
        done = threading.Event()

        def run():
            target()
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, done

    def test_live_token_blocks_other_threads_until_discard(self):
        shared = SharedBackend(SerialBackend())
        token = shared.init_state([LedgerState("a", [1])])
        results = {}

        def other_tenant_job():
            results["job"] = shared.run_job(SpanJob(), [(0, 2), (2, 3)])

        def other_tenant_state():
            other = shared.init_state([LedgerState("b", [2])])
            results["state"] = shared.state_call(other, 0, "total")
            shared.discard_state(other)

        job_thread, job_done = self._start(other_tenant_job)
        state_thread, state_done = self._start(other_tenant_state)
        assert not job_done.wait(self.WAIT)
        assert not state_done.wait(self.WAIT)
        # The owning thread's own operations re-enter the lock freely.
        shared.state_cast(token, 0, "record", 41)
        assert shared.state_call(token, 0, "total") == ("a", 42)
        assert results == {}
        shared.discard_state(token)
        job_thread.join(10)
        state_thread.join(10)
        assert job_done.is_set() and state_done.is_set()
        assert results == {"job": [[0, 1], [2]], "state": ("b", 2)}

    def test_failed_init_state_releases_the_lock(self):
        shared = SharedBackend(SerialBackend())
        with pytest.raises(Exception):
            shared.init_state([lambda: None])  # cannot be pickled
        thread, done = self._start(
            lambda: shared.run_job(SpanJob(), [(0, 1)]))
        assert done.wait(10)
        thread.join()

    def test_failed_discard_still_releases_the_lock(self):
        shared = SharedBackend(_FailingDiscard())
        token = shared.init_state([LedgerState("a", [1])])
        with pytest.raises(EngineError, match="discard drained"):
            shared.discard_state(token)
        with pytest.raises(EngineError, match="discard drained"):
            shared.discard_state(token)  # a repeat releases nothing more
        thread, done = self._start(
            lambda: shared.run_job(SpanJob(), [(0, 1)]))
        assert done.wait(10)
        thread.join()

    def test_nested_tokens_hold_until_the_last_discard(self):
        """One thread may hold several tokens at once: the pool stays
        held until every one of them is discarded."""
        shared = SharedBackend(SerialBackend())
        first = shared.init_state([LedgerState("a", [1])])
        second = shared.init_state([LedgerState("b", [2])])
        shared.discard_state(first)
        thread, done = self._start(
            lambda: shared.run_job(SpanJob(), [(0, 1)]))
        assert not done.wait(self.WAIT)
        assert shared.state_call(second, 0, "total") == ("b", 2)
        shared.discard_state(second)
        assert done.wait(10)
        thread.join()

    def test_looper_fault_hands_the_pool_back(self):
        """A sharded Gibbs run that fails mid-sweep still reaches its
        discard, so the other tenants' work proceeds afterwards."""
        shared = SharedBackend(_FlakyCollectPool(2))
        try:
            with pytest.raises(EngineError, match="injected collect"):
                _tail_looper(backend=shared).run()
            assert shared.inner.collects >= 3
            thread, done = self._start(
                lambda: shared.run_job(SpanJob(), [(0, 1), (1, 2)]))
            assert done.wait(30)
            thread.join()
            # The same pool then serves a healthy run bit-identically.
            shared.inner.collects = 10
            expected = _tail_looper(backend_name="serial").run()
            again = _tail_looper(backend=shared).run()
            np.testing.assert_array_equal(again.samples, expected.samples)
        finally:
            shared.close()

    def test_two_tenants_share_one_pool_bit_identically(self):
        """Two threads run sharded tail and Monte Carlo queries at once
        over one shared process pool: both finish (the interleaving that
        used to deadlock the pool) with the serial session's bits."""
        tail_query = TestWorkerStateQueryFaults.TAIL_QUERY
        mc_query = TestDetCacheShardSemantics.MC_QUERY

        def session(**kwargs):
            session = Session(base_seed=11, tail_budget=200, window=150,
                              **kwargs)
            session.add_table("means", {
                "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
            session.execute(TestDetCacheShardSemantics.CREATE)
            return session

        with session() as serial:
            expected_tail = serial.execute(tail_query).tail.samples
            expected_mc = serial.execute(mc_query) \
                .distributions.distribution("loss").samples
        options = ExecutionOptions(n_jobs=2)
        shared = SharedBackend(make_backend(options))
        outputs = {}

        def tenant(name):
            with session(options=options, shared_backend=shared) as own:
                outputs[name] = [
                    (own.execute(tail_query).tail.samples,
                     own.execute(mc_query)
                     .distributions.distribution("loss").samples)
                    for _ in range(3)]

        try:
            threads = [threading.Thread(target=tenant, args=(name,),
                                        daemon=True) for name in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(outputs) == ["a", "b"]
            for rounds in outputs.values():
                for tail, mc in rounds:
                    np.testing.assert_array_equal(tail, expected_tail)
                    np.testing.assert_array_equal(mc, expected_mc)
        finally:
            shared.close()


def _shmem_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("RssShmem:"):
                return int(line.split()[1])
    return 0


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads worker memory from /proc")
class TestBoundedResources:
    """An append-churning pooled session holds no shared memory.

    Each append bumps the catalog version, so every round re-ships the
    catalog to the workers.  The pool must carry that as plain pickles:
    no ``/dev/shm`` segment may appear and no worker may map shared
    pages, however many rounds run.
    """

    MC_QUERY = """
        SELECT SUM(val) AS loss FROM Losses
        WITH RESULTDISTRIBUTION MONTECARLO(40)
    """
    TAIL_QUERY = """
        SELECT SUM(val) AS loss FROM Losses WHERE CID < 40
        WITH RESULTDISTRIBUTION MONTECARLO(20)
        DOMAIN loss >= QUANTILE(0.9)
    """

    @pytest.mark.parametrize("backend_name", POOLS)
    def test_append_churn_maps_no_shm(self, backend_name):
        rows = 1_000
        rng = np.random.default_rng(5)
        pool = _make_backend(backend_name) if backend_name == "shared" \
            else None
        try:
            with Session(base_seed=7, tail_budget=100, window=400,
                         options=ExecutionOptions(n_jobs=2),
                         shared_backend=pool) as session:
                session.add_table("means", {
                    "CID": np.arange(rows), "m": rng.uniform(0.5, 3.0, rows)})
                session.execute(TestDetCacheShardSemantics.CREATE)
                for round_ in range(30):
                    start = rows + 10 * round_
                    session.append("means", {
                        "CID": np.arange(start, start + 10),
                        "m": rng.uniform(0.5, 3.0, 10)})
                    session.execute(self.MC_QUERY)
                    if round_ % 5 == 4:
                        session.execute(self.TAIL_QUERY)
                    segments = sorted(name for name in os.listdir("/dev/shm")
                                      if name.startswith("mcdbr-")) \
                        if os.path.isdir("/dev/shm") else []
                    assert segments == [], f"round {round_}: {segments}"
                    pids = _pool(session.backend).worker_pids()
                    assert pids
                    assert [_shmem_kb(pid) for pid in pids] == [0] * len(pids)
        finally:
            if pool is not None:
                pool.close()
