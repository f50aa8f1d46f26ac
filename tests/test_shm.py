"""The zero-copy shared-memory data plane (``repro.engine.shm``).

Three families of guarantees:

* **Transport** — large numeric arrays hoist into parent-owned segments
  and come back as views bit-equal to the originals; small arrays,
  object-dtype columns and non-array state stay inline; the wire blob
  shrinks to descriptor size.
* **Mutation contract** — snapshot views attach writable (worker-owned
  Gibbs state mutates in place), broadcast views attach read-only (a
  worker write raises instead of silently diverging the other
  attachments).
* **Lifecycle** — every segment is unlinked on ``discard_state``,
  ``close()``, pool reset after a worker death/error, and via the
  finalizer backstop.  ``/dev/shm`` is the oracle: no test may leave an
  ``mcdbr-*`` entry behind.
"""

import errno
import mmap
import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.engine import shm as shm_module
from repro.engine.backends import ProcessBackend, make_backend
from repro.engine.errors import EngineError
from repro.engine.options import ExecutionOptions
from repro.engine.shm import (
    MIN_BLOCK_BYTES, ShmAttachCache, ShmBlockStore, ShmDescriptor,
    leaked_segments, shm_loads)

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory not available; the store degrades to "
           "plain pickling there and the pickle path is covered "
           "everywhere else")


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test starts and must end with a clean /dev/shm."""
    assert leaked_segments() == []
    yield
    assert leaked_segments() == []


class BigState:
    """Worker-owned payload whose bulk is a hoistable array."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def bump(self, index, amount):    # notification target (in-place)
        self.values[index] += amount

    def splice(self, fresh):          # merge target (copies out)
        self.values = self.values + fresh

    def checksum(self):               # synchronous-call target
        return float(self.values.sum())

    def is_view(self):
        # Attached views sit over the segment's mapping; plain-unpickled
        # arrays sit over an in-heap buffer (and may still have
        # ``owndata`` False, so the mapping type is the discriminator).
        return isinstance(self.values.base, mmap.mmap)


class SharedArrayJob:
    """The catalog pattern: bulk array rides the keyed shared channel."""

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


class SharedWriteJob(SharedArrayJob):
    """Tries to mutate a broadcast view — must raise in the worker."""

    def run_shard(self, lo, hi):
        self.array[lo] = -1.0
        return 0.0


class StuckState:
    """Wedges its worker: ignores SIGTERM, then blocks far past the
    (shrunken, see test) close() join timeouts.  Carries a bulk array so
    the wedged worker really does hold an attached segment."""

    def __init__(self):
        self.values = np.ones(20_000, dtype=np.float64)

    def wedge(self):
        import time
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(600)


def _refuse_shm_allocation(monkeypatch):
    """Make every shared-memory *creation* fail the way a host without
    (or with a full) ``/dev/shm`` does; attaching stays real."""
    real_shared_memory = shm_module.shared_memory.SharedMemory

    def refuse_creation(*args, create=False, **kwargs):
        if create:
            raise OSError(errno.ENOSPC, "shared memory exhausted")
        return real_shared_memory(*args, create=create, **kwargs)

    monkeypatch.setattr(shm_module.shared_memory, "SharedMemory",
                        refuse_creation)


class TestBlockStore:
    """ShmBlockStore.dumps / shm_loads round trips."""

    def test_round_trip_is_bit_identical_and_descriptor_sized(self):
        store = ShmBlockStore()
        try:
            payload = {
                "big": np.arange(20_000, dtype=np.float64),
                "ints": np.arange(5_000, dtype=np.int32),
                "bools": np.zeros(4_096, dtype=bool),
                "small": np.arange(8),
                "strings": np.array(["a", "b"], dtype=object),
                "scalar": 7.5,
            }
            blob, segment, array_bytes = store.dumps(payload)
            assert segment is not None
            assert array_bytes == (20_000 * 8 + 5_000 * 4 + 4_096)
            plain = len(pickle.dumps(payload,
                                     protocol=pickle.HIGHEST_PROTOCOL))
            assert len(blob) < plain / 50  # descriptors, not data
            cache = ShmAttachCache()
            out = shm_loads(blob, cache)
            for name in ("big", "ints", "bools", "small"):
                np.testing.assert_array_equal(out[name], payload[name])
                assert out[name].dtype == payload[name].dtype
            assert list(out["strings"]) == ["a", "b"]
            assert out["scalar"] == 7.5
            # Zero-copy means views over the segment mapping; the inline
            # small array decodes over an ordinary in-heap buffer.
            assert isinstance(out["big"].base, mmap.mmap)
            assert not isinstance(out["small"].base, mmap.mmap)
            cache.close()
        finally:
            store.close()
        assert store.live_segments == 0

    def test_repeated_array_hoists_once(self):
        store = ShmBlockStore()
        try:
            array = np.arange(4_096, dtype=np.float64)
            blob, _, array_bytes = store.dumps([array, array, array])
            assert array_bytes == array.nbytes  # one block, three refs
            cache = ShmAttachCache()
            a, b, c = shm_loads(blob, cache)
            np.testing.assert_array_equal(a, array)
            # All three decode as views over the same block — the segment
            # holds the array once, like plain pickle's memo holds it once.
            assert np.shares_memory(a, b) and np.shares_memory(b, c)
            cache.close()
        finally:
            store.close()

    def test_small_and_object_arrays_stay_inline(self):
        store = ShmBlockStore()
        try:
            payload = {
                "tiny": np.arange(MIN_BLOCK_BYTES // 8 - 1,
                                  dtype=np.float64),
                "objects": np.array([{"k": 1}] * 1000, dtype=object),
            }
            blob, segment, array_bytes = store.dumps(payload)
            assert segment is None and array_bytes == 0
            # No descriptors: decodes with plain pickle, no cache needed.
            out = pickle.loads(blob)
            np.testing.assert_array_equal(out["tiny"], payload["tiny"])
        finally:
            store.close()

    def test_noncontiguous_arrays_round_trip(self):
        store = ShmBlockStore()
        try:
            matrix = np.arange(10_000, dtype=np.float64).reshape(100, 100)
            payload = [matrix[:, 3], matrix[::2], matrix.T]
            blob, segment, _ = store.dumps(payload)
            assert segment is not None
            cache = ShmAttachCache()
            out = shm_loads(blob, cache)
            for got, want in zip(out, payload):
                np.testing.assert_array_equal(got, want)
            cache.close()
        finally:
            store.close()

    def test_writeable_contract(self):
        store = ShmBlockStore()
        try:
            data = np.arange(2_048, dtype=np.float64)
            cache = ShmAttachCache()
            frozen = shm_loads(store.dumps(data, writeable=False)[0], cache)
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 1.0
            live = shm_loads(store.dumps(data, writeable=True)[0], cache)
            live[0] = 42.0
            assert live[0] == 42.0
            cache.close()
        finally:
            store.close()

    def test_release_is_idempotent_and_close_reaps_everything(self):
        store = ShmBlockStore()
        _, first, _ = store.dumps(np.arange(2_048, dtype=np.float64))
        _, second, _ = store.dumps(np.arange(2_048, dtype=np.float64))
        assert store.live_segments == 2
        store.release(first)
        store.release(first)   # idempotent
        store.release(None)    # no-op
        assert store.live_segments == 1
        store.close()
        assert store.live_segments == 0
        assert leaked_segments() == []
        # The store stays usable after close (pool-reset semantics).
        _, third, _ = store.dumps(np.arange(2_048, dtype=np.float64))
        assert third is not None
        store.close()

    def test_finalizer_backstop_unlinks_dropped_store(self):
        store = ShmBlockStore()
        store.dumps(np.arange(2_048, dtype=np.float64))
        assert len(leaked_segments()) == 1
        del store  # no close(): the weakref.finalize backstop must reap
        assert leaked_segments() == []

    def test_unavailable_store_degrades_to_plain_pickle(self):
        store = ShmBlockStore()
        store.available = False  # what an OSError on creation flips
        data = np.arange(20_000, dtype=np.float64)
        blob, segment, array_bytes = store.dumps(data)
        assert segment is None and array_bytes == 0
        np.testing.assert_array_equal(pickle.loads(blob), data)
        store.close()

    def test_unpickling_descriptor_without_cache_fails_loudly(self):
        store = ShmBlockStore()
        try:
            blob, _, _ = store.dumps(np.arange(2_048, dtype=np.float64))
            with pytest.raises(pickle.UnpicklingError, match="attach cache"):
                shm_loads(blob, None)
        finally:
            store.close()

    def test_descriptor_pickles_in_tens_of_bytes(self):
        descriptor = ShmDescriptor("mcdbr-1-0", "<f8", (1000, 40), 64, False)
        assert len(pickle.dumps(descriptor,
                                protocol=pickle.HIGHEST_PROTOCOL)) < 120


class TestProcessBackendDataPlane:
    """The three production flows through a real worker pool."""

    def test_shared_channel_ships_descriptors(self):
        backend = ProcessBackend(2)
        array = np.arange(50_000, dtype=np.float64)
        try:
            job = SharedArrayJob(("table", 1), array)
            results = backend.run_job(job, [(0, 25_000), (25_000, 50_000)])
            assert results == [float(array[:25_000].sum()),
                               float(array[25_000:].sum())]
            stats = backend.stats
            assert stats["shm_segments"] == 1
            assert stats["shm_bytes"] == array.nbytes
            # Two workers attached the same segment: delivered-by-
            # reference bytes count per recipient, placed bytes once.
            assert stats["shm_attached_bytes"] == 2 * array.nbytes
            assert stats["shared_wire_bytes"] < array.nbytes / 100
        finally:
            backend.close()
        assert backend.shm_live_segments == 0

    def test_broadcast_views_are_read_only_in_workers(self):
        backend = ProcessBackend(2)
        array = np.arange(50_000, dtype=np.float64)
        try:
            with pytest.raises(EngineError, match="read-only"):
                backend.run_job(SharedWriteJob(("table", 2), array),
                                [(0, 10), (10, 20)])
        finally:
            backend.close()

    def test_state_snapshot_views_are_writable_and_private(self):
        """Workers mutate attached snapshot arrays in place; the parent's
        originals never move (the segment holds a private copy)."""
        backend = ProcessBackend(2)
        values = np.ones(30_000, dtype=np.float64)
        try:
            token = backend.init_state([BigState(values),
                                        BigState(values * 2)])
            assert backend.state_call(token, 0, "is_view") is True
            backend.state_cast(token, 0, "bump", 7, 41.0)
            assert backend.state_call(token, 0, "checksum") == \
                float(values.sum()) + 41.0
            assert backend.state_call(token, 1, "checksum") == \
                float(values.sum()) * 2
            assert values[7] == 1.0  # parent copy untouched
            assert backend.stats["state_init_wire_bytes"] < \
                backend.stats["state_init_bytes"] / 50
            backend.discard_state(token)
            # The drain barrier retires the snapshot segments eagerly.
            assert backend.shm_live_segments == 0
        finally:
            backend.close()

    def test_state_merge_rides_shared_memory(self):
        backend = ProcessBackend(1)
        values = np.ones(20_000, dtype=np.float64)
        fresh = np.full(20_000, 3.0)
        try:
            token = backend.init_state([BigState(values)])
            merges_before = backend.stats["shm_segments"]
            backend.state_merge(token, 0, "splice", fresh)
            assert backend.stats["shm_segments"] == merges_before + 1
            assert backend.stats["state_merge_bytes"] >= fresh.nbytes
            assert backend.state_call(token, 0, "checksum") == \
                float((values + fresh).sum())
            backend.discard_state(token)
            assert backend.shm_live_segments == 0
        finally:
            backend.close()

    def test_allocation_failure_ships_plain_pickles(self, monkeypatch):
        """Backend-level view of the fallback: the first failed
        allocation switches the store off for good, so shared payloads
        and state snapshots travel as whole pickles — same values, no
        views, no segments."""
        _refuse_shm_allocation(monkeypatch)
        backend = ProcessBackend(2)
        array = np.arange(50_000, dtype=np.float64)
        try:
            job = SharedArrayJob(("table", 3), array)
            results = backend.run_job(job, [(0, 25_000), (25_000, 50_000)])
            assert results == [float(array[:25_000].sum()),
                               float(array[25_000:].sum())]
            token = backend.init_state([BigState(array)])
            assert backend.state_call(token, 0, "is_view") is False
            assert backend.state_call(token, 0, "checksum") == \
                float(array.sum())
            backend.discard_state(token)
            assert not backend.shm_enabled
            assert backend.stats["shm_segments"] == 0
            assert backend.stats["shm_attached_bytes"] == 0
            assert backend.stats["shared_wire_bytes"] > array.nbytes
        finally:
            backend.close()

    def test_make_backend_always_uses_shared_memory(self):
        """There is no opt-out: every process backend the options build
        starts on the shared-memory data plane."""
        backend = make_backend(ExecutionOptions(n_jobs=2,
                                                backend="process"))
        try:
            assert backend.shm_enabled
        finally:
            backend.close()

    def test_allocation_failure_falls_back_to_plain_pickles(
            self, monkeypatch):
        """A host that cannot allocate shared memory (no ``/dev/shm``, or
        a full one) degrades to whole-payload pickling by itself: sharded
        MC and tail queries on the process backend stay bit-identical to
        serial, nothing attaches, and no segment leaks."""
        from repro.sql import Session

        def run(options):
            with Session(base_seed=11, tail_budget=200, window=2000,
                         options=options) as session:
                session.add_table("means", {
                    "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
                session.execute("""
                    CREATE TABLE Losses (CID, val) AS
                    FOR EACH CID IN means
                    WITH myVal AS Normal(VALUES(m, 1.0))
                    SELECT CID, myVal.* FROM myVal
                """)
                mc = session.execute("""
                    SELECT SUM(val) AS loss FROM Losses
                    WITH RESULTDISTRIBUTION MONTECARLO(40)
                """)
                tail = session.execute("""
                    SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
                    WITH RESULTDISTRIBUTION MONTECARLO(30)
                    DOMAIN loss >= QUANTILE(0.9)
                """)
                backend = session.backend
            return (mc.distributions.distribution("loss").samples,
                    tail.tail, backend)

        serial_mc, serial_tail, _ = run(ExecutionOptions())
        _refuse_shm_allocation(monkeypatch)
        mc, tail, backend = run(ExecutionOptions(n_jobs=2,
                                                 backend="process"))
        np.testing.assert_array_equal(mc, serial_mc)
        np.testing.assert_array_equal(tail.samples, serial_tail.samples)
        assert tail.assignments == serial_tail.assignments
        assert tail.sharded_windows > 0  # the worker-state path really ran
        assert not backend.shm_enabled  # the store gave up on allocation
        assert backend.stats["shm_segments"] == 0
        assert backend.stats["shm_attached_bytes"] == 0
        assert leaked_segments() == []


class TestSegmentLifecycle:
    """No path — clean or faulty — may leak a /dev/shm segment."""

    def test_close_unlinks_everything(self):
        backend = ProcessBackend(2)
        array = np.arange(30_000, dtype=np.float64)
        backend.run_job(SharedArrayJob(("t", 1), array),
                        [(0, 15_000), (15_000, 30_000)])
        backend.init_state([BigState(array), BigState(array)])
        assert backend.shm_live_segments > 0
        backend.close()  # token never discarded: close must reap it
        assert backend.shm_live_segments == 0
        assert leaked_segments() == []

    def test_worker_error_reset_unlinks_everything(self):
        backend = ProcessBackend(2)
        try:
            token = backend.init_state([BigState(np.ones(20_000))])
            with pytest.raises(EngineError):
                backend.state_call(token, 0, "no_such_method")
            # The in-worker failure reset the pool; its segments must have
            # gone with it, before any explicit close().
            assert backend.workers_alive == 0
            assert leaked_segments() == []
        finally:
            backend.close()

    def test_worker_kill_reset_unlinks_everything(self):
        backend = ProcessBackend(2)
        try:
            token = backend.init_state([BigState(np.ones(20_000)),
                                        BigState(np.ones(20_000))])
            backend._workers[0].process.kill()
            backend._workers[0].process.join()
            with pytest.raises(EngineError, match="died"):
                backend.state_call(token, 0, "checksum")
            assert backend.workers_alive == 0
            assert leaked_segments() == []
        finally:
            backend.close()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="wedge injection relies on fork inheriting the test class")
    def test_close_escalates_to_kill_for_sigterm_immune_workers(
            self, monkeypatch):
        """A worker that shrugs off SIGTERM used to survive close() as a
        zombie holding every attached segment's pages; close must
        escalate to SIGKILL and still unlink everything."""
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
            assert leaked_segments() == []
        finally:
            backend.close()

    def test_session_close_unlinks_everything(self):
        from repro.sql import Session
        with Session(base_seed=11, tail_budget=200, window=2000,
                     options=ExecutionOptions(n_jobs=2)) as session:
            session.add_table("means", {
                "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
            session.execute("""
                CREATE TABLE Losses (CID, val) AS
                FOR EACH CID IN means
                WITH myVal AS Normal(VALUES(m, 1.0))
                SELECT CID, myVal.* FROM myVal
            """)
            session.execute("""
                SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
                WITH RESULTDISTRIBUTION MONTECARLO(30)
                DOMAIN loss >= QUANTILE(0.9)
            """)
        assert leaked_segments() == []
